"""Sweep harness and CLI: deterministic output files, row ordering, report
context, warm-start passthrough, exit-code contract, the package names
the benchmark harness binds, and every name a module exports.
"""
import ast
import csv
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bdris
from bdris.cli import build_parser, main, make_spec
from bdris.experiments import (
    CSV_COLUMNS,
    SCENARIO_EVE,
    SCENARIO_NO_EVE,
    ExperimentSpec,
    default_epsilon_grid,
    emit_plots,
    run_experiment,
    write_csv,
)
from bdris.model import (
    ARCH_DIAGONAL,
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    SystemConfig,
    build_forms,
    generate_channels,
    quad_objective,
)
from bdris.spectral import solve_nonreciprocal

# Small instance with n_e + k <= r, so every positive cap is attainable by
# the unitary architectures and all cells converge.
TINY = dict(k=2, r=6, n_b=4, n_e=4, seed=3)


def tiny_spec(tmp_path, **kw):
    cfg = SystemConfig(**TINY)
    base, rep = solve_nonreciprocal(build_forms(generate_channels(cfg)))
    forms = build_forms(generate_channels(cfg))
    eve0 = quad_objective(base.matrix, forms.e_e, forms.m)
    defaults = dict(
        cfg=cfg,
        epsilon_grid=eve0 * np.array([0.05, 0.3, 0.8]),
        output_path=tmp_path / "out",
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_rejects_unknown_architecture(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=SystemConfig(**TINY), architectures=("fancy",))

    def test_rejects_empty_architectures(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=SystemConfig(**TINY), architectures=())

    @pytest.mark.parametrize("kw", [{"scenarios": ()},
                                    {"epsilon_grid": np.array([])},
                                    {"epsilon_grid": np.ones((1, 1))}])
    def test_rejects_empty_scenarios_and_grid(self, kw):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=SystemConfig(**TINY), **kw)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=SystemConfig(**TINY), scenarios=("maybe-eve",))

    def test_eve_scenario_needs_eve_antennas(self):
        cfg = SystemConfig(k=2, r=6, n_b=4, n_e=0)
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=cfg, scenarios=(SCENARIO_EVE,))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=SystemConfig(**TINY),
                           epsilon_grid=np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=SystemConfig(**TINY),
                           epsilon_grid=np.array([0.0, 1.0]))

    def test_grid_rejects_nan(self):
        # NaN fails both comparisons, so it must fail the checks, not pass.
        for grid in ([np.nan], [1e3, np.nan], [np.nan, 1e3]):
            with pytest.raises(ValueError):
                ExperimentSpec(cfg=SystemConfig(**TINY),
                               epsilon_grid=np.array(grid))
        # +inf is a slack cap, and valid.
        ExperimentSpec(cfg=SystemConfig(**TINY),
                       epsilon_grid=np.array([1e3, np.inf]))

    def test_trials_non_negative(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=SystemConfig(**TINY), mc_trials=-1)

    def test_default_grid(self):
        grid = default_epsilon_grid(50.0)
        assert grid.size == 20
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(50.0)
        assert np.all(np.diff(grid) > 0)
        with pytest.raises(ValueError):
            default_epsilon_grid(0.0)


class TestCsv:
    def test_formatting_contract(self, tmp_path):
        rows = [{
            "scenario": "no-eve", "architecture": "diagonal", "epsilon": None,
            "fim_bob": 1.5, "fim_eve": None, "crb": 0.25, "mse_mc": None,
            "iters": 7, "converged": True,
        }]
        path = tmp_path / "t.csv"
        write_csv(rows, path)
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "no-eve,diagonal,,1.5,,0.25,,7,true"
        assert text.endswith("\n")


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    spec = tiny_spec(tmp)
    rows = run_experiment(spec)
    return spec, rows


class TestRunExperiment:
    def test_row_count_and_order(self, result):
        spec, rows = result
        archs = (ARCH_NONRECIPROCAL, ARCH_RECIPROCAL, ARCH_DIAGONAL)
        assert len(rows) == 3 + 3 * 3
        expect = [(SCENARIO_NO_EVE, a, None) for a in archs]
        for a in archs:
            expect += [(SCENARIO_EVE, a, float(e)) for e in spec.epsilon_grid]
        got = [(r["scenario"], r["architecture"], r["epsilon"]) for r in rows]
        assert got == expect

    def test_all_cells_converged(self, result):
        _, rows = result
        assert all(r["converged"] for r in rows)

    def test_caps_hold(self, result):
        spec, rows = result
        for row in rows:
            if row["scenario"] == SCENARIO_EVE:
                assert row["fim_eve"] <= row["epsilon"] * (1 + 1e-3)

    def test_no_eve_row_matches_direct_solve(self, result):
        spec, rows = result
        forms = build_forms(generate_channels(spec.cfg))
        _, rep = solve_nonreciprocal(forms)
        row = next(r for r in rows if r["scenario"] == SCENARIO_NO_EVE
                   and r["architecture"] == ARCH_NONRECIPROCAL)
        assert row["fim_bob"] == pytest.approx(rep.objective, rel=1e-12)

    def test_csv_written_without_timing_column(self, result):
        spec, _ = result
        with (spec.output_path / "results.csv").open(encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[0] == list(CSV_COLUMNS)
        # Timings live in the JSON reports only, so identical runs give
        # byte-identical CSVs.
        assert not any("wall" in col or col.endswith("_ms") for col in table[0])
        assert len(table) == 1 + 12
        assert all(len(line) == len(CSV_COLUMNS) for line in table[1:])

    def test_reports_carry_timings_and_context(self, result):
        spec, rows = result
        reports = sorted((spec.output_path / "reports").glob("*.json"))
        assert len(reports) == len(rows)
        payload = json.loads(
            (spec.output_path / "reports" / "no-eve-non-reciprocal.json")
            .read_text(encoding="utf-8"))
        assert payload["wall_ms"] >= 0.0
        assert payload["cell"]["architecture"] == ARCH_NONRECIPROCAL
        assert payload["converged"] is True

    def test_every_report_says_why_it_stopped(self, result):
        """Each cell's JSON report carries a ``stop_reason`` its solver
        documents, and ``converged`` agrees with it."""
        spec, rows = result
        reasons = {
            ARCH_NONRECIPROCAL: {"closed_form", "stationary", "infeasible"},
            ARCH_RECIPROCAL: {"stationary", "budget", "stalled", "infeasible"},
            ARCH_DIAGONAL: {"stationary", "budget"},
        }
        reports = sorted((spec.output_path / "reports").glob("*.json"))
        assert len(reports) == len(rows)
        for path in reports:
            payload = json.loads(path.read_text(encoding="utf-8"))
            reason = payload["constraint_values"]["stop_reason"]
            assert reason in reasons[payload["cell"]["architecture"]], path.name
            assert payload["converged"] == (reason in ("closed_form", "stationary"))

    def test_capped_reports_carry_cap_residual(self, result):
        """Every capped report, active cap or not, carries the relative
        leakage margin eve_value / epsilon_eve - 1; the no-eve ones do not."""
        spec, rows = result
        reports = sorted((spec.output_path / "reports").glob("*.json"))
        capped = 0
        for path in reports:
            payload = json.loads(path.read_text(encoding="utf-8"))
            cv = payload["constraint_values"]
            if payload["cell"]["scenario"] == SCENARIO_NO_EVE:
                assert "cap_residual" not in cv, path.name
                continue
            capped += 1
            assert cv["cap_residual"] == cv["eve_value"] / cv["epsilon_eve"] - 1.0
            assert cv["epsilon_eve"] == payload["cell"]["epsilon"]
        assert capped == 3 * len(spec.epsilon_grid)

    @pytest.mark.parametrize("archs", [(ARCH_NONRECIPROCAL,), (ARCH_DIAGONAL,)])
    def test_default_cap_grid(self, tmp_path, archs):
        """Without a grid the capped cells run on default_epsilon_grid of
        the non-reciprocal optimum, whether or not that class is swept."""
        spec = ExperimentSpec(cfg=SystemConfig(**TINY), architectures=archs,
                              scenarios=(SCENARIO_EVE,), output_path=tmp_path)
        rows = run_experiment(spec)
        _, rep = solve_nonreciprocal(build_forms(generate_channels(spec.cfg)))
        assert [r["epsilon"] for r in rows] == list(default_epsilon_grid(rep.objective))

    def test_plot_files(self, result):
        spec, _ = result
        plots = spec.output_path / "plots"
        for stem in ("fim_vs_eps", "crb_vs_eps"):
            dat = (plots / f"{stem}.dat").read_text(encoding="utf-8")
            header = dat.splitlines()[0]
            # cap curve per architecture plus a dashed no-cap reference each
            assert header.split()[1:] == [
                "epsilon",
                "non-reciprocal", "reciprocal", "diagonal",
                "non-reciprocal-ref", "reciprocal-ref", "diagonal-ref"]
            assert len(dat.splitlines()) == 1 + 3
            gp = (plots / f"{stem}.gp").read_text(encoding="utf-8")
            assert gp.count("with linespoints") == 3
            assert gp.count("dashtype 2") == 3
        assert "set logscale y" in (plots / "crb_vs_eps.gp").read_text()

    def test_byte_identical_rerun(self, result, tmp_path):
        spec, _ = result
        again = tiny_spec(tmp_path)
        run_experiment(again)
        first = (spec.output_path / "results.csv").read_bytes()
        second = (again.output_path / "results.csv").read_bytes()
        assert first == second
        for stem in ("fim_vs_eps", "crb_vs_eps"):
            for ext in (".dat", ".gp"):
                a = (spec.output_path / "plots" / (stem + ext)).read_bytes()
                b = (again.output_path / "plots" / (stem + ext)).read_bytes()
                assert a == b

    def test_monte_carlo_column(self, tmp_path):
        spec = tiny_spec(tmp_path, scenarios=(SCENARIO_NO_EVE,),
                         architectures=(ARCH_NONRECIPROCAL,), mc_trials=300)
        with pytest.warns(UserWarning):   # no capped rows, so no plots
            rows = run_experiment(spec)
        assert len(rows) == 1
        mse, crb = rows[0]["mse_mc"], rows[0]["crb"]
        assert mse is not None
        assert 0.5 * crb <= mse <= 2.0 * crb


class TestEmitPlots:
    def test_no_capped_rows_warns_and_writes_nothing(self, tmp_path):
        rows = [{"scenario": SCENARIO_NO_EVE, "architecture": ARCH_DIAGONAL,
                 "epsilon": None, "fim_bob": 1.0, "fim_eve": None, "crb": 1.0,
                 "mse_mc": None, "iters": 1, "converged": True}]
        with pytest.warns(UserWarning):
            emit_plots(rows, tmp_path / "plots")
        assert not (tmp_path / "plots").exists()


class TestCli:
    def test_flag_precedence_over_config(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"r": 8, "k": 2, "seed": 5,
                                    "epsilon_grid": [1.0, 2.0]}),
                        encoding="utf-8")
        args = build_parser().parse_args(
            ["--config", str(conf), "--seed", "9", "--out", str(tmp_path)])
        spec = make_spec(args)
        assert spec.cfg.r == 8
        assert spec.cfg.seed == 9
        assert list(spec.epsilon_grid) == [1.0, 2.0]

    def test_config_defaults_antennas_from_k(self, tmp_path):
        args = build_parser().parse_args(["--k", "3", "--r", "9"])
        spec = make_spec(args)
        assert spec.cfg.n_b == 6 and spec.cfg.n_e == 6

    def test_unknown_config_key_exits(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"radius": 5}), encoding="utf-8")
        code = main(["--config", str(conf), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "radius" in err
        assert not (tmp_path / "o").exists()

    def test_non_object_config_exits_one(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text("[1, 2]", encoding="utf-8")
        code = main(["--config", str(conf), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 1
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [{"r": None}, {"k": [3]},
                                       {"architectures": 5},
                                       {"epsilon_grid": {"a": 1}},
                                       {"r": 4.7}, {"k": True}, {"n_b": 20.5},
                                       {"n_e": False}, {"seed": 3.9},
                                       {"mc_trials": True}, {"r": float("inf")},
                                       {"power": True}, {"noise": False},
                                       {"architectures": "diagonal"},
                                       {"scenarios": "eve"},
                                       {"epsilon_grid": "1e3"},
                                       {"epsilon_grid": [True, 2]},
                                       {"epsilon_grid": ["1e3"]},
                                       {"r": "36"}, {"seed": "7"},
                                       {"power": "30"}])
    def test_mistyped_config_value_exits_one(self, tmp_path, capsys, entry):
        """A value of the wrong type is refused with ``error: <key>:``, not
        coerced: no truncated count, no boolean read as 0 or 1, no string
        parsed as a number and no bare string split into characters."""
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(entry), encoding="utf-8")
        code = main(["--config", str(conf), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 1
        key = next(iter(entry))
        assert capsys.readouterr().err.startswith(f"error: {key}:")
        assert not (tmp_path / "o").exists()

    def test_malformed_grid_exits(self, tmp_path, capsys):
        code = main(["--eps-grid", "1,zz,3", "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --eps-grid:")
        assert not (tmp_path / "o").exists()

    def test_successful_run_exits_zero(self, tmp_path):
        cfg = SystemConfig(**TINY)
        base, rep = solve_nonreciprocal(build_forms(generate_channels(cfg)))
        forms = build_forms(generate_channels(cfg))
        eve0 = quad_objective(base.matrix, forms.e_e, forms.m)
        grid = ",".join(str(eve0 * f) for f in (0.2, 0.6))
        code = main(["--r", "6", "--k", "2", "--seed", "3",
                     "--eps-grid", grid, "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 0
        assert (tmp_path / "o" / "results.csv").exists()

    def test_invalid_spec_exits_one(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n_e": 0}), encoding="utf-8")
        code = main(["--config", str(conf), "--r", "6", "--k", "2",
                     "--scenario", "eve", "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 1

    def test_nan_grid_exits_one(self, tmp_path, capsys):
        code = main(["--r", "6", "--k", "2", "--eps-grid", "1e3,nan",
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        # The output directory would sit below a regular file.
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["--r", "6", "--k", "2", "--scenario", "no-eve",
                     "--out", str(blocker / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unreachable_cap_exits_two(self, tmp_path):
        # n_e + k > r: the leakage has a positive floor, and a cap far below
        # it must be reported as a non-converged cell.
        code = main(["--r", "3", "--k", "2", "--seed", "5",
                     "--arch", "non-reciprocal", "--scenario", "eve",
                     "--eps-grid", "1e-6", "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 2
        with (tmp_path / "o" / "results.csv").open(encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        conv_idx = table[0].index("converged")
        assert table[1][conv_idx] == "false"


REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"


class TestRuntimeDependencies:
    def test_package_and_cli_load_no_scipy(self):
        """numpy is the only runtime dependency: a fresh interpreter that
        imports the package and its command line has loaded no scipy
        module (the tests themselves use scipy as an oracle)."""
        code = ("import sys, bdris, bdris.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.partition('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestPublicNames:
    def test_every_exported_name_exists(self):
        """``from bdris.<module> import *`` binds every name its ``__all__``
        lists: a deleted name must leave the list too."""
        exporting = 0
        for info in pkgutil.iter_modules(bdris.__path__):
            module = importlib.import_module(f"bdris.{info.name}")
            names = getattr(module, "__all__", None)
            if names is None:
                continue
            exporting += 1
            missing = [n for n in names if not hasattr(module, n)]
            assert missing == [], info.name
        assert exporting >= 6

    def test_every_imported_name_is_used(self):
        """Each module under ``src/bdris`` and ``tests`` uses every name it
        imports; package ``__init__`` re-exports and ``from __future__``
        are exempt."""
        files = [path for folder in (REPO / "src" / "bdris", REPO / "tests")
                 for path in sorted(folder.glob("*.py"))
                 if path.name != "__init__.py"]
        unused = []
        for path in files:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.asname or a.name.partition(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                unused += [f"{path.relative_to(REPO)}:{node.lineno} {name}"
                           for name in names if name not in used]
        assert len(files) >= 15
        assert unused == []

    def test_every_private_name_is_used(self):
        """Every module-level ``_name`` defined in ``src/bdris`` (a function,
        class or assignment) is referenced somewhere in ``src/bdris`` besides
        its definition: a constant or helper left behind by a deleted caller
        fails here."""
        trees = [ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted((REPO / "src" / "bdris").glob("*.py"))]
        defined = set()
        for tree in trees:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined.update(t.id for t in targets if isinstance(t, ast.Name))
        private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
        used = set()
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(a.name for a in node.names)
        assert len(private) >= 40
        assert sorted(private - used) == []


class TestBenchmarkBindings:
    """The benchmark harness rebinds package functions by name; a renamed
    or deleted one must fail here rather than crash a benchmark run."""

    def test_traced_functions_exist(self):
        spec = importlib.util.spec_from_file_location(
            "bench_spans", BENCHMARKS / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        missing = [f"{layer}.{name}"
                   for layer, names in spans.TRACED.items()
                   for name in names
                   if not callable(getattr(importlib.import_module(
                       f"bdris.{layer}"), name, None))]
        assert sum(len(names) for names in spans.TRACED.values()) > 10
        assert missing == []

    def test_captured_solvers_exist(self):
        """Every name in the loop of ``Runner.capture_responses`` is a
        solver that ``bdris.experiments`` calls through its globals."""
        tree = ast.parse((BENCHMARKS / "run.py").read_text(encoding="utf-8"))
        names = [elt.value
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "capture_responses"
                 for loop in ast.walk(node) if isinstance(loop, ast.For)
                 for elt in loop.iter.elts]
        assert len(names) >= 5
        import bdris.experiments as experiments
        assert [n for n in names if not callable(getattr(experiments, n, None))] == []
