"""Sweep harness and CLI: deterministic output files, row ordering, report
context, warm-start passthrough, exit-code contract, the package names
the benchmark harness binds, and every name a module exports.
"""
import ast
import csv
import dataclasses
import importlib
import importlib.util
import json
import logging
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import captured_responses

import bdris
from bdris import cli, experiments, spectral
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

    def test_grid_rejects_infinite_caps(self):
        # An infinite cap is no cap: its cell would report cap_residual -1
        # and put inf on the log-x axis of the plots.
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec(cfg=SystemConfig(**TINY),
                           epsilon_grid=np.array([1e3, np.inf]))

    @pytest.mark.parametrize("grid", [[True, 2.0], ["1", "2"]], ids=["bool", "str"])
    def test_grid_refuses_non_numbers(self, grid):
        """A boolean or a string cap is refused, not read as 1.0 or parsed."""
        with pytest.raises(ValueError, match="epsilon_grid entry must be a real number"):
            ExperimentSpec(cfg=SystemConfig(**TINY), epsilon_grid=grid)

    @pytest.mark.parametrize("field, value", [("architectures", 5), ("architectures", None),
                                              ("scenarios", "eve"), ("output_path", 5),
                                              ("cfg", {}), ("cfg", None), ("cfg", 5)])
    def test_rejects_mistyped_lists_and_paths(self, field, value):
        """A name list that is not a list, a bare string included, an output
        path that is not a path and a ``cfg`` that is not a ``SystemConfig``
        are refused with ``ValueError`` naming the field, not a ``TypeError``
        or a list of characters.  Without the eve scenario nothing else
        reads ``cfg`` here, so its own rule must refuse it."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentSpec(**{"cfg": SystemConfig(**TINY),
                              "scenarios": (SCENARIO_NO_EVE,), field: value})

    def test_trials_non_negative(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=SystemConfig(**TINY), mc_trials=-1)

    @pytest.mark.parametrize("trials", [1.5, True, 2.0])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="mc_trials must be an integer"):
            ExperimentSpec(cfg=SystemConfig(**TINY), mc_trials=trials)
        ExperimentSpec(cfg=SystemConfig(**TINY), mc_trials=np.int64(2))

    @pytest.mark.parametrize("dims", [dict(k=4, r=6, n_b=2), dict(k=4, r=3, n_b=8)],
                             ids=["n_b<k", "r<k"])
    def test_trials_need_min_nb_r_at_least_k(self, dims):
        """The Monte-Carlo estimate of k parameters needs rank k, so
        min(n_b, r) >= k; without trials the CRB column (inf) is enough."""
        cfg = SystemConfig(n_e=4, seed=3, **dims)
        with pytest.raises(ValueError, match="min\\(n_b, r\\) >= k"):
            ExperimentSpec(cfg=cfg, mc_trials=50)
        ExperimentSpec(cfg=cfg, mc_trials=0)

    def test_default_grid(self):
        grid = default_epsilon_grid(50.0)
        assert grid.size == 20
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(50.0)
        assert np.all(np.diff(grid) > 0)
        for scale in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                default_epsilon_grid(scale)
        # The point count is a count of at least 1: no empty grid, no
        # boolean read as 1 and no float or string left to numpy.
        assert default_epsilon_grid(50.0, np.int64(1)).tolist() == [0.5]
        for points, message in ((0, "at least 1"), (True, "an integer"),
                                (2.5, "an integer"), ("3", "an integer")):
            with pytest.raises(ValueError, match=f"^points must be {message}"):
                default_epsilon_grid(50.0, points)


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

    def test_repeated_entries_solved_once(self, tmp_path, monkeypatch):
        """A repeated architecture or scenario names the same cells: the
        spec keeps its first occurrence and the uncapped cell is solved once."""
        solves = []
        solve = experiments.solve_diagonal_unconstrained

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(experiments, "solve_diagonal_unconstrained", counted)
        spec = tiny_spec(tmp_path, architectures=(ARCH_DIAGONAL, ARCH_DIAGONAL),
                         scenarios=(SCENARIO_EVE, SCENARIO_NO_EVE, SCENARIO_EVE))
        assert spec.architectures == (ARCH_DIAGONAL,)
        assert spec.scenarios == (SCENARIO_EVE, SCENARIO_NO_EVE)
        rows = run_experiment(spec)
        assert len(solves) == 1
        assert [row["scenario"] for row in rows] == [SCENARIO_NO_EVE] + [SCENARIO_EVE] * 3

    def test_one_dual_search_per_cap(self, tmp_path, monkeypatch):
        """The reciprocal cell at a cap starts from the non-reciprocal
        answer the sweep solved at that cap: one capped dual search per
        active non-reciprocal cap, not a second one in the reciprocal solve."""
        searches = []
        search = spectral._capped_nonreciprocal

        def counted(forms, eps):
            searches.append(eps)
            return search(forms, eps)

        monkeypatch.setattr(spectral, "_capped_nonreciprocal", counted)
        spec = tiny_spec(tmp_path)
        run_experiment(spec)
        active = {}
        for idx, eps in enumerate(spec.epsilon_grid):
            for arch in (ARCH_NONRECIPROCAL, ARCH_RECIPROCAL):
                report = json.loads((spec.output_path / "reports" /
                                     f"eve-{arch}-eps{idx:02d}.json").read_text())
                active[arch, idx] = report["constraint_values"]["constraint_active"]
        assert all(active.values())         # both classes search at every cap
        assert searches == [float(eps) for eps in spec.epsilon_grid]

    def test_reciprocal_alone_writes_the_same_rows(self, result, tmp_path):
        """Without the non-reciprocal class the reciprocal solve runs the
        dual search itself and writes the same rows and reports."""
        spec, _ = result
        alone = tiny_spec(tmp_path, architectures=(ARCH_RECIPROCAL,))
        run_experiment(alone)

        def reciprocal(out):
            lines = (out / "results.csv").read_text().splitlines()
            paths = [out / "reports" / f"{SCENARIO_NO_EVE}-{ARCH_RECIPROCAL}.json",
                     *(out / "reports").glob(f"{SCENARIO_EVE}-{ARCH_RECIPROCAL}-eps*.json")]
            reports = {path.name: json.loads(path.read_text()) for path in paths}
            for report in reports.values():
                del report["wall_ms"]
            return [line for line in lines if f",{ARCH_RECIPROCAL}," in line], reports

        lines, reports = reciprocal(alone.output_path)
        assert len(lines) == 1 + len(spec.epsilon_grid) and len(reports) == len(lines)
        assert (lines, reports) == reciprocal(spec.output_path)

    def test_monte_carlo_column(self, tmp_path):
        spec = tiny_spec(tmp_path, scenarios=(SCENARIO_NO_EVE,),
                         architectures=(ARCH_NONRECIPROCAL,), mc_trials=300)
        with pytest.warns(UserWarning):   # no capped rows, so no plots
            rows = run_experiment(spec)
        assert len(rows) == 1
        mse, crb = rows[0]["mse_mc"], rows[0]["crb"]
        assert mse is not None
        assert 0.5 * crb <= mse <= 2.0 * crb

    def test_every_unconverged_cell_warns(self, tmp_path, monkeypatch, caplog):
        """An uncapped cell whose solver stops without converging logs a
        WARNING naming it, as a capped one does, so that a ``--quiet`` run
        names it too."""
        solve = experiments.solve_reciprocal_ao

        def out_of_budget(*args):
            ris, rep = solve(*args)
            return ris, dataclasses.replace(
                rep, constraint_values={**rep.constraint_values, "stop_reason": "budget"})

        monkeypatch.setattr(experiments, "solve_reciprocal_ao", out_of_budget)
        spec = tiny_spec(tmp_path, architectures=(ARCH_RECIPROCAL,),
                         scenarios=(SCENARIO_NO_EVE,))
        with caplog.at_level(logging.WARNING, logger=experiments.__name__), \
                pytest.warns(UserWarning, match="no capped rows"):
            rows = run_experiment(spec)
        assert [row["converged"] for row in rows] == [False]
        assert [record.getMessage() for record in caplog.records
                if record.levelno == logging.WARNING] == \
            [f"non-converged cell: {SCENARIO_NO_EVE} {ARCH_RECIPROCAL}"]


# One ``.gp`` plot term: the .dat column it reads, its style and its title.
PLOT_TERM = re.compile(r"using 1:(\d+) with (.+?) title '(.+?)'")


def plot_columns(plots: Path) -> list[str]:
    """The .dat header of each figure under ``plots``, after checking that
    the figure's script and data agree: each .gp term ``using 1:N ... title
    'T'`` reads header column N, named ``T`` for a curve (linespoints) and
    ``T-ref`` for a dashed ``T (no cap)`` line; every data column but the
    cap is plotted once; and every .dat row is as wide as the header."""
    headers = []
    for stem in ("fim_vs_eps", "crb_vs_eps"):
        header, *lines = (plots / f"{stem}.dat").read_text(encoding="utf-8").splitlines()
        names = header.split()[1:]
        assert header.startswith("# ") and names[0] == "epsilon"
        assert lines and [len(line.split()) for line in lines] == [len(names)] * len(lines)
        terms = PLOT_TERM.findall((plots / f"{stem}.gp").read_text(encoding="utf-8"))
        assert sorted(int(n) for n, _, _ in terms) == list(range(2, len(names) + 1))
        for n, style, title in terms:
            if style == "linespoints":
                assert names[int(n) - 1] == title
            else:
                assert style == "lines dashtype 2" and title.endswith(" (no cap)")
                assert names[int(n) - 1] == title.removesuffix(" (no cap)") + "-ref"
        headers.append(names)
    assert headers[0] == headers[1]
    return headers[0]


class TestEmitPlots:
    @pytest.mark.parametrize("kw, curves, refs", [
        ({}, 3, 3),
        ({"architectures": (ARCH_DIAGONAL,)}, 1, 1),
        ({"scenarios": (SCENARIO_EVE,)}, 3, 0),
    ], ids=["full", "one-class", "eve-only"])
    def test_script_reads_the_data_it_names(self, tmp_path, kw, curves, refs):
        """On a full sweep, a one-class sweep and an eve-only sweep (which
        has no reference columns), each plot script reads the data column
        its every line is titled after."""
        spec = tiny_spec(tmp_path, **kw)
        run_experiment(spec)
        names = plot_columns(spec.output_path / "plots")
        assert len(names) == 1 + curves + refs
        assert sum(name.endswith("-ref") for name in names) == refs

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

    @pytest.mark.parametrize("argv", [["--arch", "foo"], ["--r", "abc"],
                                      ["--trials", "1.5"], ["--bogus"]],
                             ids=["arch-foo", "r-abc", "trials-1.5", "bogus"])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv):
        """A bad flag or flag value is an invalid description: exit 1 with
        ``error:``, not argparse's 2, which means a flagged cell."""
        code = main(argv + ["--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: bdris" in capsys.readouterr().out

    def test_ill_posed_monte_carlo_exits_one(self, tmp_path, capsys):
        """Trials on a design with n_b < k, whose CRB is inf, are refused
        before anything is solved or written."""
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"r": 6, "k": 4, "n_b": 2, "n_e": 4,
                                    "mc_trials": 50}), encoding="utf-8")
        code = main(["--config", str(conf), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: mc_trials")
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

    def test_infinite_cap_exits_one(self, tmp_path, capsys):
        code = main(["--r", "6", "--k", "2", "--eps-grid", "1e3,inf",
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: epsilon_grid")
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


# Each config key with the SystemConfig or ExperimentSpec field it sets.
CONFIG_FIELDS = {"r": "r", "k": "k", "n_b": "n_b", "n_e": "n_e",
                 "power": "total_power", "noise": "noise_variance", "seed": "seed",
                 "architectures": "architectures", "scenarios": "scenarios",
                 "epsilon_grid": "epsilon_grid", "mc_trials": "mc_trials",
                 "out": "output_path"}
# A valid config for TINY whose one cap is slack, so every cell converges.
CLI_BASE = {**TINY, "architectures": [ARCH_NONRECIPROCAL], "epsilon_grid": [1e12]}
# (config key, value) pairs the command line must judge as the library does.
AGREEMENT = [
    ("r", 36.0), ("k", 2.0), ("n_b", 4.0), ("n_e", 4.0), ("seed", 7.0), ("mc_trials", 0.0),
    ("r", None), ("power", None), ("noise", None), ("seed", None), ("mc_trials", None),
    ("architectures", None), ("scenarios", None), ("out", None), ("epsilon_grid", None),
    ("out", 5), ("architectures", 5), ("scenarios", 5),
    ("architectures", "diagonal"), ("scenarios", "eve"), ("power", "30"), ("out", "o2"),
    ("epsilon_grid", [1e3, float("inf")]), ("epsilon_grid", [1e3, 0.0]),
    ("power", float("inf")), ("noise", 0.0),
    ("r", 8), ("power", 20), ("noise", 1e-4), ("seed", 0), ("mc_trials", 5),
    ("architectures", [ARCH_DIAGONAL]), ("scenarios", [SCENARIO_EVE]),
    ("epsilon_grid", [1e3, 1e4]),
    ("r", np.int64(8)), ("seed", np.int64(4)), ("mc_trials", np.int64(0)),
    ("power", np.float64(20.0)), ("r", np.float64(8.0)), ("power", np.bool_(True)),
    ("r", 0), ("k", 0), ("n_b", 0), ("n_e", -1), ("seed", -1), ("mc_trials", -1),
    ("architectures", ["fancy"]), ("architectures", []), ("scenarios", []),
    ("scenarios", ["carol"]),
]


def library_refuses(field, value) -> bool:
    """Whether SystemConfig or ExperimentSpec refuses ``value`` for
    ``field`` on the TINY instance with ``ValueError``."""
    try:
        if field in {f.name for f in dataclasses.fields(SystemConfig)}:
            SystemConfig(**{**TINY, field: value})
        else:
            ExperimentSpec(cfg=SystemConfig(**TINY), **{field: value})
    except ValueError:
        return True
    return False


class TestCliAgreesWithLibrary:
    @pytest.mark.parametrize("key, value", AGREEMENT,
                             ids=[f"{key}={value!r}" for key, value in AGREEMENT])
    def test_cli_refuses_what_the_library_refuses(self, tmp_path, monkeypatch, capsys,
                                                  key, value):
        """The command line refuses a setting with ``error: <key>:`` exactly
        when the library field it sets raises ``ValueError`` for it, and
        runs it otherwise.  A numpy scalar, which JSON cannot carry, goes in
        through ``make_spec`` as a flag value would."""
        refused = library_refuses(CONFIG_FIELDS[key], value)
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "conf.json"
        if isinstance(value, np.generic):
            conf.write_text(json.dumps(CLI_BASE), encoding="utf-8")
            args = build_parser().parse_args(["--config", str(conf)])
            setattr(args, key, value)
            if refused:
                with pytest.raises(ValueError, match=f"^{key}: "):
                    make_spec(args)
            else:
                make_spec(args)
            return
        conf.write_text(json.dumps({**CLI_BASE, key: value}), encoding="utf-8")
        code = main(["--config", str(conf), "--quiet"])
        err = capsys.readouterr().err
        if refused:
            assert code == 1 and err.startswith(f"error: {key}:")
        else:
            assert code == 0 and err == ""

    def test_every_field_has_one_rule(self):
        """Each class's rule table holds exactly its fields, every config key
        names a field of one of those tables (the one in ``CONFIG_FIELDS``),
        and the command line holds no rule of its own: a field added without
        a rule, or a config key without a field, fails here."""
        for owner in (SystemConfig, ExperimentSpec):
            fields = {f.name for f in dataclasses.fields(owner)}
            assert set(owner._RULES) == fields, owner.__name__
        for key, (owner, name) in cli._SETTINGS.items():
            assert owner in (SystemConfig, ExperimentSpec) and name in owner._RULES, key
            assert CONFIG_FIELDS[key] == name, key
        assert set(cli._SETTINGS) == set(CONFIG_FIELDS)
        assert [name for name in vars(cli) if name.startswith("_check")] == []


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


class TestOneEigensolver:
    def test_every_hermitian_spectrum_goes_through_hermitian_eig(self):
        """``kernels.hermitian_eig`` is the one place in ``src/bdris`` that
        names numpy's ``eigh`` or ``eigvalsh``: every Hermitian spectrum
        the package takes is checked, symmetrized and ordered there, and
        counted by the benchmark's span on it."""
        found = []

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = (f"{where}.{child.name}"
                         if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where)
                name = (child.attr if isinstance(child, ast.Attribute)
                        else child.id if isinstance(child, ast.Name) else None)
                if name in ("eigh", "eigvalsh"):
                    found.append(f"{inner}:{child.lineno}")
                visit(child, inner)

        for path in sorted((REPO / "src" / "bdris").glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert [site.partition(":")[0] for site in found] == ["kernels.hermitian_eig"], found


def _other_holders(name: str, obj) -> list[str]:
    """The ``bdris`` modules that bind ``name`` to an object other than
    ``obj``: a rebinding by name would miss their calls."""
    modules = [bdris] + [importlib.import_module(f"bdris.{info.name}")
                         for info in pkgutil.iter_modules(bdris.__path__)]
    return [m.__name__ for m in modules if getattr(m, name, obj) is not obj]


class TestSweepSolvesThroughGlobals:
    @pytest.mark.parametrize("archs, scenarios, kw", [
        ((ARCH_NONRECIPROCAL, ARCH_RECIPROCAL, ARCH_DIAGONAL),
         (SCENARIO_NO_EVE, SCENARIO_EVE), {}),
        ((ARCH_RECIPROCAL, ARCH_DIAGONAL), (SCENARIO_EVE,), {}),
        ((ARCH_DIAGONAL, ARCH_RECIPROCAL), (SCENARIO_EVE,), {"epsilon_grid": None}),
        ((ARCH_NONRECIPROCAL,), (SCENARIO_NO_EVE,), {}),
        ((ARCH_DIAGONAL,), (SCENARIO_NO_EVE, SCENARIO_EVE), {}),
    ], ids=["all", "eve-only-no-nonreciprocal", "eve-only-default-grid", "no-eve-only",
            "diagonal"])
    def test_every_report_has_a_captured_response(self, tmp_path, archs, scenarios, kw):
        """The sweep reaches every solver through the name ``bdris.experiments``
        binds, with the cap as its second positional argument: with the names
        rebound there, as ``conftest.captured_responses`` and the benchmark's
        ``Runner.capture_responses`` rebind them, each report written has its
        response kept under (architecture, cap)."""
        spec = tiny_spec(tmp_path, architectures=archs, scenarios=scenarios, **kw)
        with captured_responses() as kept, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "no capped rows to plot")
            rows = run_experiment(spec)
        cells = [(payload["cell"]["architecture"], payload["cell"]["epsilon"])
                 for payload in (json.loads(path.read_text(encoding="utf-8"))
                                 for path in (spec.output_path / "reports").glob("*.json"))]
        assert len(cells) == len(rows) > 0
        assert [cell for cell in cells if cell not in kept] == []


class TestBenchmarkBindings:
    """The benchmark harness rebinds package functions by name; a renamed
    or deleted one must fail here rather than crash a benchmark run, and a
    name bound to two objects (a wrapper left in one module) must fail
    rather than let the harness count only one of them."""

    def test_traced_functions_exist(self):
        """Every traced name is a function, one object in every ``bdris``
        module that holds it: ``pdd.solve_pdd`` is the solver that
        ``spectral`` defines and the sweep calls."""
        spec = importlib.util.spec_from_file_location(
            "bench_spans", BENCHMARKS / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        traced = {f"{layer}.{name}": getattr(importlib.import_module(f"bdris.{layer}"),
                                            name, None)
                  for layer, names in spans.TRACED.items() for name in names}
        assert len(traced) > 10
        assert [key for key, fn in traced.items() if not callable(fn)] == []
        assert {key: _other_holders(key.rsplit(".", 1)[1], fn)
                for key, fn in traced.items()} == dict.fromkeys(traced, [])
        assert bdris.pdd.solve_pdd is spectral.solve_pdd is experiments.solve_pdd

    def test_captured_solvers_exist(self):
        """Every name in the loop of ``Runner.capture_responses`` is a
        solver that ``bdris.experiments`` calls through its globals, one
        object in every module that holds it."""
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
        assert {n: _other_holders(n, getattr(experiments, n)) for n in names} == \
            dict.fromkeys(names, [])
