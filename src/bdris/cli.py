"""Command-line front end for the sweep harness.

Configuration comes from an optional JSON file (--config) whose keys mirror
the experiment description, overridden by individual flags.  Exit status is
0 when every cell converged (and for ``--help``), 1 on an invalid
description (a bad flag or flag value included) or an output directory that
cannot be written, and 2 when any cell was flagged.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .experiments import ExperimentSpec, run_experiment
from .model import ARCHITECTURES, SystemConfig

_CONFIG_KEYS = frozenset({
    "r", "k", "n_b", "n_e", "power", "noise", "seed",
    "architectures", "scenarios", "epsilon_grid", "mc_trials", "out",
})


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError``, so that
    they exit 1 like every other invalid description instead of argparse's
    2, which the exit status reserves for flagged cells."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bdris",
        description="Optimize reflecting-surface responses for channel "
                    "estimation and sweep the eavesdropper information cap.",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file; flags override its keys")
    parser.add_argument("--r", type=int, help="number of surface elements")
    parser.add_argument("--k", type=int, help="number of transmit antennas")
    parser.add_argument("--power", type=float,
                        help="total transmit power (default 30)")
    parser.add_argument("--noise", type=float,
                        help="receiver noise variance (default 1e-5)")
    parser.add_argument("--seed", type=int, help="channel seed (default 0)")
    parser.add_argument("--arch", action="append", choices=ARCHITECTURES,
                        help="architecture to run (repeatable; default all)")
    parser.add_argument("--scenario", action="append",
                        choices=("no-eve", "eve"),
                        help="scenario to run (repeatable; default both)")
    parser.add_argument("--eps-grid", type=str, default=None,
                        help="comma-separated cap values (default: 20 "
                             "log-spaced points scaled to the instance)")
    parser.add_argument("--trials", type=int,
                        help="Monte-Carlo trials per cell (default 0 = skip)")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    return parser


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
    return data


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--eps-grid: {exc}") from exc


def _real(value) -> float:
    """A number as a float; a boolean or a string is refused rather than
    read as 0, 1 or a parsed number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError
    return float(value)


def _count(value) -> int:
    """An integer value, refused rather than truncated when it is not a
    whole number."""
    if not (isinstance(value, int) or _real(value).is_integer()):
        raise ValueError
    return int(value)


def _listed(value) -> tuple:
    """A list as a tuple; a bare string is refused rather than split into
    its characters."""
    if isinstance(value, str):
        raise ValueError
    return tuple(value)


def _numbers(value) -> np.ndarray:
    """A list of numbers as a float array, each entry read by :func:`_real`."""
    return np.asarray([_real(v) for v in _listed(value)])


def make_spec(args: argparse.Namespace) -> ExperimentSpec:
    conf = _load_config(args.config)

    def pick(flag, key, default, kind):
        """The flag, else the config key, else the default, read by ``kind``;
        no setting is a boolean, so none is read as 0 or 1."""
        value = conf.get(key, default) if flag is None else flag
        try:
            if isinstance(value, bool):
                raise ValueError
            return kind(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: invalid value {value!r}") from exc

    k = pick(args.k, "k", 10, _count)
    cfg = SystemConfig(
        k=k, r=pick(args.r, "r", 36, _count),
        n_b=pick(None, "n_b", 2 * k, _count), n_e=pick(None, "n_e", 2 * k, _count),
        total_power=pick(args.power, "power", 30.0, _real),
        noise_variance=pick(args.noise, "noise", 1e-5, _real),
        seed=pick(args.seed, "seed", 0, _count),
    )
    grid = _parse_grid(args.eps_grid) if args.eps_grid is not None else None
    grid = pick(grid, "epsilon_grid", None, lambda g: None if g is None else _numbers(g))
    return ExperimentSpec(
        cfg=cfg,
        epsilon_grid=grid,
        architectures=pick(args.arch, "architectures", ARCHITECTURES, _listed),
        scenarios=pick(args.scenario, "scenarios", ("no-eve", "eve"), _listed),
        mc_trials=pick(args.trials, "mc_trials", 0, _count),
        output_path=pick(args.out, "out", "out", Path),
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec = make_spec(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        rows = run_experiment(spec)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bad = [row for row in rows if not row["converged"]]
    if bad:
        print(f"{len(bad)} of {len(rows)} cells did not converge "
              f"(see {spec.output_path / 'results.csv'})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
