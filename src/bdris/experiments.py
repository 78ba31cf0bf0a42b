"""Scenario sweeps: seeded instances, cap grids, CSV/JSON/plot emission.

A run optimizes every requested architecture with and without the
eavesdropper cap over a grid of cap values, then writes

    <out>/results.csv      one row per (scenario, architecture, cap) cell
    <out>/reports/*.json   solver reports as returned, plus cell and timing
    <out>/plots/*.dat,.gp  gnuplot-ready curves (objective and CRB vs cap)

CSV content is a pure function of the experiment description: timings are
kept out of it so that two runs with the same seed produce byte-identical
files.  Measured wall times live in the JSON reports (``wall_ms``).  The
sweep sets no solver option: each solver's knobs are constants of its
module.  ``_solve`` is the one map from an architecture and a cap to its
solver; every cell, uncapped or capped, goes from its timed solve to its
row, report and log line by one path in ``run_experiment``; and
``emit_plots`` reads the plot files' header, rows and gnuplot terms from
one list of columns.  ``ExperimentSpec`` checks each of its fields, and
``SystemConfig`` each of its own, by one rule from the class's table
(``_RULES``); the command line reads the same tables.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .diagonal import diag_forms, solve_diagonal_constrained, \
    solve_diagonal_unconstrained
from .model import (
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    ARCHITECTURES,
    SystemConfig,
    _check_choice,
    _check_count,
    _check_positive,
    build_forms,
    crb_trace,
    fim_matrix,
    generate_channels,
    quad_objective,
    simulate_mle_mse,
)
from .spectral import solve_nonreciprocal, solve_pdd, solve_reciprocal_ao

__all__ = [
    "SCENARIO_NO_EVE",
    "SCENARIO_EVE",
    "CSV_COLUMNS",
    "ExperimentSpec",
    "default_epsilon_grid",
    "run_experiment",
    "write_csv",
    "emit_plots",
]

log = logging.getLogger(__name__)

SCENARIO_NO_EVE = "no-eve"
SCENARIO_EVE = "eve"
_SCENARIOS = (SCENARIO_NO_EVE, SCENARIO_EVE)

CSV_COLUMNS = ("scenario", "architecture", "epsilon", "fim_bob", "fim_eve",
               "crb", "mse_mc", "iters", "converged")

_GRID_POINTS = 20
_GRID_LO = 1e-2


def _check_names(name: str, value, choices: tuple) -> tuple:
    """``value`` as a tuple of distinct names, after refusing it unless it is
    a non-empty list or tuple whose every entry is one of ``choices``
    (:func:`~bdris.model._check_choice`).  A bare string is not split into
    its characters, and an unordered set is not read in an arbitrary order;
    a repeated entry names the same cells, so its first occurrence is kept."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list of names, got {value!r}")
    return tuple(dict.fromkeys(_check_choice(f"each {name} entry", v, choices)
                               for v in value))


def _check_path(name: str, value) -> Path:
    """``value`` as a ``Path``, after refusing it unless it is a string or a
    path object."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"{name} must be a path, got {value!r}")
    return Path(value)


def _check_config(name: str, value) -> SystemConfig:
    """Refuse a system description that is not a ``SystemConfig``."""
    if not isinstance(value, SystemConfig):
        raise ValueError(f"{name} must be a SystemConfig, got {value!r}")
    return value


def _checked_grid(name: str, grid) -> np.ndarray | None:
    """``grid`` as a float vector, after refusing it unless each entry is a
    cap (:func:`~bdris.model._check_positive`) and the entries form a
    non-empty, strictly increasing vector; None (a grid derived from the
    instance) passes."""
    if grid is None:
        return None
    for value in np.asarray(grid, dtype=object).flat:
        _check_positive(f"each {name} entry", value)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a non-empty vector")
    if not (np.diff(grid) > 0).all():
        raise ValueError(f"{name} must be strictly increasing")
    return grid


@dataclass
class ExperimentSpec:
    """Full description of one sweep; identical specs give identical CSVs.

    Each field is checked, and stored as it is returned, by its rule in
    ``_RULES``, the one table the command line reads too; an invalid field
    raises ``ValueError``.  Two checks span fields: the eve scenario needs
    eavesdropper antennas, and Monte-Carlo trials need min(n_b, r) >= k.
    """

    cfg: SystemConfig
    epsilon_grid: np.ndarray | None = None   # None: derived from the instance
    architectures: tuple = ARCHITECTURES
    scenarios: tuple = _SCENARIOS
    mc_trials: int = 0
    output_path: Path = Path("out")

    _RULES = {
        "cfg": _check_config,
        "epsilon_grid": _checked_grid,
        "architectures": partial(_check_names, choices=ARCHITECTURES),
        "scenarios": partial(_check_names, choices=_SCENARIOS),
        "mc_trials": _check_count,
        "output_path": _check_path,
    }

    def __post_init__(self):
        for name, rule in self._RULES.items():
            setattr(self, name, rule(name, getattr(self, name)))
        cfg = self.cfg
        if SCENARIO_EVE in self.scenarios and not cfg.eve_present:
            raise ValueError("eve scenario requires eavesdropper antennas (n_e > 0)")
        if self.mc_trials > 0 and min(cfg.n_b, cfg.r) < cfg.k:
            raise ValueError(f"mc_trials needs min(n_b, r) >= k to estimate k parameters "
                             f"(n_b={cfg.n_b}, r={cfg.r}, k={cfg.k})")


def default_epsilon_grid(scale: float, points: int = _GRID_POINTS) -> np.ndarray:
    """Log-spaced cap grid of ``points`` caps covering two decades up to the
    given scale, which passes the cap rule
    (:func:`~bdris.model._check_positive`); ``points`` is a count of at
    least 1 (:func:`~bdris.model._check_count`)."""
    _check_positive("grid scale", scale)
    return np.geomspace(_GRID_LO * scale, scale, _check_count("points", points, least=1))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _solve(arch: str, forms, dforms, eps=None, warm=None, relaxed=None):
    """The answer of ``arch``'s uncapped solver, or with a cap ``eps`` of
    its capped one, started from ``warm`` (the class's uncapped answer) and,
    for the reciprocal class, ``relaxed`` (the capped non-reciprocal answer
    at the same cap).  Each solver is looked up in this module's globals at
    the call and given the cap as its second positional argument, so that
    a name rebound here sees every solve of the sweep."""
    if arch == ARCH_NONRECIPROCAL:
        return solve_nonreciprocal(forms, eps)
    if arch == ARCH_RECIPROCAL:
        if eps is None:
            return solve_reciprocal_ao(forms)
        return solve_pdd(forms, eps, warm=warm, relaxed=relaxed)
    if eps is None:
        return solve_diagonal_unconstrained(dforms)
    return solve_diagonal_constrained(dforms, eps, warm=warm)


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Run the sweep and write CSV + JSON reports + plot files.

    Returns the result table as a list of row dicts (CSV_COLUMNS keys).
    Rows are ordered deterministically: scenario, then architecture
    (each in the canonical order above), then increasing cap, which is
    also the order of the solves.  The uncapped answer of each
    architecture comes first: it is the class's no-eve cell, the warm
    start of its capped cells and, for the non-reciprocal class, the scale
    of a derived cap grid (solved for the scale alone when that class is
    not swept).  The capped non-reciprocal answer at each cap is kept and
    handed to the reciprocal cell at that cap, which starts from it and
    runs no dual search of its own.

    Every cell takes one path: its solve is timed, and when its scenario
    is swept it writes its row, its report and one log line, at INFO
    ``cell <scenario> <architecture> [eps=<cap>]: objective ...`` or, when
    its solver stopped without converging, at WARNING ``non-converged
    cell: <scenario> <architecture> [eps=<cap>]``.  Such a cell flags its
    row; the run continues.
    """
    ch = generate_channels(spec.cfg)
    forms = build_forms(ch)
    dforms = diag_forms(forms)
    out = spec.output_path
    reports_dir = out / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []

    def cell(arch, idx=None, eps=None, warm=None, relaxed=None):
        scenario = SCENARIO_NO_EVE if eps is None else SCENARIO_EVE
        t0 = time.perf_counter()
        ris, rep = _solve(arch, forms, dforms, eps, warm, relaxed)
        wall = 1e3 * (time.perf_counter() - t0)
        if scenario in spec.scenarios:
            row = _make_row(spec, ch, forms, scenario, arch, eps, ris, rep)
            rows.append(row)
            _dump_report(reports_dir, idx, rep, wall, row)
            name = f"{scenario} {arch}" + ("" if eps is None else f" eps={eps:.6g}")
            if rep.converged:
                log.info("cell %s: objective %.6e (%.0f ms)", name, rep.objective, wall)
            else:
                log.warning("non-converged cell: %s", name)
        return ris, rep

    archs = [a for a in ARCHITECTURES if a in spec.architectures]
    base = {arch: cell(arch) for arch in archs}
    grid = spec.epsilon_grid if SCENARIO_EVE in spec.scenarios else ()
    if grid is None:
        _, rep = base.get(ARCH_NONRECIPROCAL) or _solve(ARCH_NONRECIPROCAL, forms, dforms)
        grid = default_epsilon_grid(rep.objective)

    relaxed = {}       # cap index -> capped non-reciprocal (ris, report)
    for arch in archs:
        for idx, eps in enumerate(grid):
            answer = cell(arch, idx, float(eps), base[arch], relaxed.get(idx))
            if arch == ARCH_NONRECIPROCAL:
                relaxed[idx] = answer

    write_csv(rows, out / "results.csv")
    emit_plots(rows, out / "plots")
    return rows


def _make_row(spec, ch, forms, scenario, arch, eps, ris, rep) -> dict:
    fim_eve = None
    if forms.e_e is not None:
        fim_eve = quad_objective(ris.matrix, forms.e_e, forms.m)
    crb = crb_trace(fim_matrix(ch, ris, "bob"))
    mse = None
    if spec.mc_trials > 0:
        mse = simulate_mle_mse(ch, ris, trials=spec.mc_trials, seed=spec.cfg.seed)
    return {
        "scenario": scenario,
        "architecture": arch,
        "epsilon": eps,
        "fim_bob": rep.objective,
        "fim_eve": fim_eve,
        "crb": crb,
        "mse_mc": mse,
        "iters": rep.iterations,
        "converged": rep.converged,
    }


def _dump_report(reports_dir: Path, idx, rep, wall, row) -> None:
    """The solver's report, its wall time and its cell: the row without
    the columns the report already holds (``iters``, ``converged``)."""
    stem = f"{row['scenario']}-{row['architecture']}"
    if idx is not None:
        stem += f"-eps{idx:02d}"
    payload = rep.to_dict()
    payload["wall_ms"] = wall
    payload["cell"] = {k: row[k] for k in CSV_COLUMNS if k not in ("iters", "converged")}
    (reports_dir / f"{stem}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(rows: list[dict], path: Path) -> None:
    """Stable-order, stable-format CSV; content depends only on the rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])


_FIGURES = (
    ("fim_vs_eps", "fim_bob", "average Fisher information at the receiver", False),
    ("crb_vs_eps", "crb", "Cramer-Rao bound", True),
)


def emit_plots(rows: list[dict], plots_dir: Path) -> None:
    """Write gnuplot .dat/.gp pairs: capped curves plus no-eve reference lines.

    One list of columns says what each figure plots: a curve per swept
    architecture over the caps, then a dashed reference line per
    architecture that also has a no-eve row, each as (.dat header name,
    .gp title, gnuplot style, row by cap).  The .dat header, the .dat rows
    and the .gp ``using 1:N`` terms are all read from it.  A cap an
    architecture has no row for reads ``nan``.  Byte-deterministic for
    identical tables.  An empty table (or one with no capped rows)
    produces a warning and no files.
    """
    eve_rows = [r for r in rows if r["scenario"] == SCENARIO_EVE]
    if not eve_rows:
        warnings.warn("no capped rows to plot; skipping plot emission")
        return
    grid = sorted({r["epsilon"] for r in eve_rows})
    ref = {r["architecture"]: r for r in rows if r["scenario"] == SCENARIO_NO_EVE}
    archs = [a for a in ARCHITECTURES if any(r["architecture"] == a for r in eve_rows)]
    columns = [(a, a, "linespoints",
                {r["epsilon"]: r for r in eve_rows if r["architecture"] == a})
               for a in archs]
    columns += [(f"{a}-ref", f"{a} (no cap)", "lines dashtype 2", dict.fromkeys(grid, ref[a]))
                for a in archs if a in ref]

    plots_dir = Path(plots_dir)
    plots_dir.mkdir(parents=True, exist_ok=True)
    for stem, key, label, logy in _FIGURES:
        dat = plots_dir / f"{stem}.dat"
        lines = ["# " + " ".join(["epsilon"] + [name for name, *_ in columns])]
        for eps in grid:
            lines.append(" ".join([_fmt(eps)] + [_fmt(cells[eps][key]) if eps in cells
                                                 else "nan" for *_, cells in columns]))
        dat.write_text("\n".join(lines) + "\n", encoding="utf-8")

        plot_terms = [f"'{dat.name}' using 1:{n} with {style} title '{title}'"
                      for n, (_, title, style, _) in enumerate(columns, start=2)]
        script = [
            "set terminal pngcairo size 960,640",
            f"set output '{stem}.png'",
            "set logscale x",
            "set xlabel 'information cap at the unintended receiver'",
            f"set ylabel '{label}'",
            "set key bottom right",
        ]
        if logy:
            script.append("set logscale y")
        script.append("plot \\\n    " + ", \\\n    ".join(plot_terms))
        (plots_dir / f"{stem}.gp").write_text("\n".join(script) + "\n", encoding="utf-8")
