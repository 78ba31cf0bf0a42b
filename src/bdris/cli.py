"""Command-line front end for the sweep harness.

Configuration comes from an optional JSON file (--config) whose keys mirror
the experiment description, overridden by individual flags.  Each config
key names a field of :class:`~bdris.model.SystemConfig` or
:class:`~bdris.experiments.ExperimentSpec` (``_SETTINGS``); each setting
given, by flag or by key, is checked by that class's own rule for the field
and refused as ``<key>: <the rule's message>``, so every single-setting
refusal names its key.  Only the two checks that span fields (the eve
scenario without eavesdropper antennas, Monte-Carlo trials with
min(n_b, r) < k) are reported in the library's words alone.  A setting not
given keeps the library's default, except the reference scenario's r = 36,
k = 10 and n_b = n_e = 2k, for which the library has none.  Exit status is
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

from .experiments import ExperimentSpec, run_experiment
from .model import SystemConfig

# Config key: (library class, its field).  A flag stores its value under the
# key it overrides; the field's rule is the class's own (``_RULES``).
_SETTINGS = {
    "r": (SystemConfig, "r"),
    "k": (SystemConfig, "k"),
    "n_b": (SystemConfig, "n_b"),
    "n_e": (SystemConfig, "n_e"),
    "power": (SystemConfig, "total_power"),
    "noise": (SystemConfig, "noise_variance"),
    "seed": (SystemConfig, "seed"),
    "architectures": (ExperimentSpec, "architectures"),
    "scenarios": (ExperimentSpec, "scenarios"),
    "epsilon_grid": (ExperimentSpec, "epsilon_grid"),
    "mc_trials": (ExperimentSpec, "mc_trials"),
    "out": (ExperimentSpec, "output_path"),
}


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
    parser.add_argument("--power", type=float, help="total transmit power "
                        f"(default {SystemConfig.total_power:g})")
    parser.add_argument("--noise", type=float, help="receiver noise variance "
                        f"(default {SystemConfig.noise_variance:g})")
    parser.add_argument("--seed", type=int,
                        help=f"channel seed (default {SystemConfig.seed})")
    parser.add_argument("--arch", dest="architectures", action="append",
                        choices=ExperimentSpec.architectures,
                        help="architecture to run (repeatable; default: "
                             f"{', '.join(ExperimentSpec.architectures)})")
    parser.add_argument("--scenario", dest="scenarios", action="append",
                        choices=ExperimentSpec.scenarios,
                        help="scenario to run (repeatable; default: "
                             f"{', '.join(ExperimentSpec.scenarios)})")
    parser.add_argument("--eps-grid", dest="epsilon_grid", type=str, default=None,
                        help="comma-separated cap values (default: 20 "
                             "log-spaced points scaled to the instance)")
    parser.add_argument("--trials", dest="mc_trials", type=int,
                        help="Monte-Carlo trials per cell "
                             f"(default {ExperimentSpec.mc_trials} = skip)")
    parser.add_argument("--out", type=Path,
                        help=f"output directory (default {ExperimentSpec.output_path})")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    return parser


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(data) - set(_SETTINGS)
    if unknown:
        raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
    return data


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--eps-grid: {exc}") from exc


def make_spec(args: argparse.Namespace) -> ExperimentSpec:
    given = _load_config(args.config)
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = _parse_grid(flag) if key == "epsilon_grid" else flag
    settings = {SystemConfig: {"r": 36, "k": 10}, ExperimentSpec: {}}
    for key, value in given.items():
        owner, name = _SETTINGS[key]
        try:
            settings[owner][name] = owner._RULES[name](name, value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    system = settings[SystemConfig]
    cfg = SystemConfig(**{"n_b": 2 * system["k"], "n_e": 2 * system["k"], **system})
    return ExperimentSpec(cfg=cfg, **settings[ExperimentSpec])


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
