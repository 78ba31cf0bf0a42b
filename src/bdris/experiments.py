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
module.  ``ExperimentSpec`` checks each of its fields, and
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


def _solve_no_eve(arch: str, forms, dforms):
    if arch == ARCH_NONRECIPROCAL:
        return solve_nonreciprocal(forms)
    if arch == ARCH_RECIPROCAL:
        return solve_reciprocal_ao(forms)
    return solve_diagonal_unconstrained(dforms)


def _solve_eve(arch: str, forms, dforms, eps: float, warm, relaxed):
    if arch == ARCH_NONRECIPROCAL:
        return solve_nonreciprocal(forms, eps)
    if arch == ARCH_RECIPROCAL:
        return solve_pdd(forms, eps, warm=warm, relaxed=relaxed)
    return solve_diagonal_constrained(dforms, eps, warm=warm)


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Run the sweep and write CSV + JSON reports + plot files.

    Returns the result table as a list of row dicts (CSV_COLUMNS keys).
    Rows are ordered deterministically: scenario, then architecture
    (each in the canonical order above), then increasing cap.  The
    no-eve cells are computed once per architecture and reused as
    reference rows and, for the reciprocal and diagonal classes, as the
    warm start of the capped solves.  The capped non-reciprocal answer of
    each cap (solved first, in the canonical order) is kept and handed to
    the reciprocal cell at that cap, which starts from it, so the dual
    search runs once per cap; a run without the non-reciprocal class
    leaves the reciprocal solve to run it.  A solver that stops without
    converging flags its row; the run continues.
    """
    ch = generate_channels(spec.cfg)
    forms = build_forms(ch)
    dforms = diag_forms(forms)
    out = spec.output_path
    reports_dir = out / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)

    base = {}          # arch -> (ris, report, wall_ms)
    for arch in spec.architectures:
        t0 = time.perf_counter()
        ris, rep = _solve_no_eve(arch, forms, dforms)
        wall = 1e3 * (time.perf_counter() - t0)
        base[arch] = (ris, rep, wall)
        log.info("no-eve %-14s objective %.6e (%.0f ms)", arch, rep.objective, wall)

    if SCENARIO_EVE in spec.scenarios and spec.epsilon_grid is None:
        if ARCH_NONRECIPROCAL in base:
            scale = base[ARCH_NONRECIPROCAL][1].objective
        else:
            ris, rep = solve_nonreciprocal(forms)
            scale = rep.objective
        grid = default_epsilon_grid(scale)
    else:
        grid = spec.epsilon_grid if spec.epsilon_grid is not None else np.array([])

    relaxed = {}       # cap index -> capped non-reciprocal (ris, report)
    rows: list[dict] = []
    for scenario in (s for s in _SCENARIOS if s in spec.scenarios):
        for arch in (a for a in ARCHITECTURES if a in spec.architectures):
            if scenario == SCENARIO_NO_EVE:
                ris, rep, wall = base[arch]
                row = _make_row(spec, ch, forms, scenario, arch, None, ris, rep)
                rows.append(row)
                _dump_report(reports_dir, scenario, arch, None, rep, wall, row)
                continue
            for idx, eps in enumerate(grid):
                t0 = time.perf_counter()
                ris, rep = _solve_eve(arch, forms, dforms, float(eps),
                                      base[arch][:2], relaxed.get(idx))
                wall = 1e3 * (time.perf_counter() - t0)
                if arch == ARCH_NONRECIPROCAL:
                    relaxed[idx] = ris, rep
                row = _make_row(spec, ch, forms, scenario, arch, float(eps), ris, rep)
                rows.append(row)
                _dump_report(reports_dir, scenario, arch, idx, rep, wall, row)
                if not rep.converged:
                    log.warning("non-converged cell: %s %s eps=%.6g",
                                scenario, arch, eps)
                else:
                    log.info("eve    %-14s eps %.4e objective %.6e (%.0f ms)",
                             arch, eps, rep.objective, wall)

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


def _dump_report(reports_dir: Path, scenario, arch, idx, rep, wall, row) -> None:
    stem = f"{scenario}-{arch}" if idx is None else f"{scenario}-{arch}-eps{idx:02d}"
    payload = rep.to_dict()
    payload["wall_ms"] = wall
    payload["cell"] = {k: row[k] for k in
                       ("scenario", "architecture", "epsilon", "fim_bob",
                        "fim_eve", "crb", "mse_mc")}
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

    Byte-deterministic for identical tables.  An empty table (or one with
    no capped rows) produces a warning and no files.
    """
    eve_rows = [r for r in rows if r["scenario"] == SCENARIO_EVE]
    if not eve_rows:
        warnings.warn("no capped rows to plot; skipping plot emission")
        return
    archs = [a for a in ARCHITECTURES
             if any(r["architecture"] == a for r in eve_rows)]
    grid = sorted({r["epsilon"] for r in eve_rows})
    series = {a: {r["epsilon"]: r for r in eve_rows if r["architecture"] == a}
              for a in archs}
    ref = {r["architecture"]: r for r in rows if r["scenario"] == SCENARIO_NO_EVE}

    plots_dir = Path(plots_dir)
    plots_dir.mkdir(parents=True, exist_ok=True)
    for stem, key, label, logy in _FIGURES:
        dat = plots_dir / f"{stem}.dat"
        gp = plots_dir / f"{stem}.gp"
        cols = ["epsilon"]
        cols += [f"{a}" for a in archs]
        cols += [f"{a}-ref" for a in archs if a in ref]
        lines = ["# " + " ".join(cols)]
        for eps in grid:
            vals = [format(eps, ".12g")]
            for a in archs:
                cell = series[a].get(eps)
                vals.append(_fmt(cell[key]) if cell else "nan")
            for a in archs:
                if a in ref:
                    vals.append(_fmt(ref[a][key]))
            lines.append(" ".join(vals))
        dat.write_text("\n".join(lines) + "\n", encoding="utf-8")

        plot_terms = []
        col = 2
        for a in archs:
            plot_terms.append(f"'{dat.name}' using 1:{col} with linespoints "
                              f"title '{a}'")
            col += 1
        for a in archs:
            if a in ref:
                plot_terms.append(f"'{dat.name}' using 1:{col} with lines "
                                  f"dashtype 2 title '{a} (no cap)'")
                col += 1
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
        gp.write_text("\n".join(script) + "\n", encoding="utf-8")
