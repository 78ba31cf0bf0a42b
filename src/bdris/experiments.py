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
module.
"""

from __future__ import annotations

import csv
import json
import logging
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagonal import diag_forms, solve_diagonal_constrained, \
    solve_diagonal_unconstrained
from .model import (
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    ARCHITECTURES,
    SystemConfig,
    build_forms,
    crb_trace,
    fim_matrix,
    generate_channels,
    quad_objective,
    simulate_mle_mse,
)
from .pdd import solve_pdd
from .spectral import solve_nonreciprocal, solve_reciprocal_ao

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


@dataclass
class ExperimentSpec:
    """Full description of one sweep; identical specs give identical CSVs."""

    cfg: SystemConfig
    epsilon_grid: np.ndarray | None = None   # None: derived from the instance
    architectures: tuple = ARCHITECTURES
    scenarios: tuple = _SCENARIOS
    mc_trials: int = 0
    output_path: Path = field(default_factory=lambda: Path("out"))

    def __post_init__(self):
        self.architectures = tuple(self.architectures)
        self.scenarios = tuple(self.scenarios)
        if not self.architectures:
            raise ValueError("need at least one architecture")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise ValueError(f"unknown architecture {arch!r}")
        if not self.scenarios:
            raise ValueError("need at least one scenario")
        for sc in self.scenarios:
            if sc not in _SCENARIOS:
                raise ValueError(f"unknown scenario {sc!r}")
        if SCENARIO_EVE in self.scenarios and not self.cfg.eve_present:
            raise ValueError("eve scenario requires eavesdropper antennas (n_e > 0)")
        if self.epsilon_grid is not None:
            grid = np.asarray(self.epsilon_grid, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError("epsilon_grid must be a non-empty vector")
            if not ((grid > 0).all() and (np.diff(grid) > 0).all()):
                raise ValueError("epsilon_grid must be positive and strictly increasing")
            self.epsilon_grid = grid
        if self.mc_trials < 0:
            raise ValueError("mc_trials must be non-negative")
        self.output_path = Path(self.output_path)


def default_epsilon_grid(scale: float, points: int = _GRID_POINTS) -> np.ndarray:
    """Log-spaced cap grid covering two decades up to the given scale."""
    if scale <= 0:
        raise ValueError("grid scale must be positive")
    return np.geomspace(_GRID_LO * scale, scale, points)


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


def _solve_eve(arch: str, forms, dforms, eps: float, warm):
    if arch == ARCH_NONRECIPROCAL:
        return solve_nonreciprocal(forms, eps)
    if arch == ARCH_RECIPROCAL:
        return solve_pdd(forms, eps, warm=warm)
    return solve_diagonal_constrained(dforms, eps, warm=warm)


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Run the sweep and write CSV + JSON reports + plot files.

    Returns the result table as a list of row dicts (CSV_COLUMNS keys).
    Rows are ordered deterministically: scenario, then architecture
    (each in the canonical order above), then increasing cap.  The
    no-eve cells are computed once per architecture and reused as
    reference rows and, for the reciprocal and diagonal classes, as the
    warm start of the capped solves.  A solver that stops without
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

    rows: list[dict] = []
    for scenario in _SCENARIOS:
        if scenario not in spec.scenarios:
            continue
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
                                      base[arch][:2])
                wall = 1e3 * (time.perf_counter() - t0)
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
