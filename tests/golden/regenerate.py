"""Rewrite the golden tables, or, with ``--check``, report how far the
current code moves them.

The tables are ``sweep36.json``, the cells of the r = 36 reference sweep
(``conftest.reference_sweep``), and ``draws64.json``, the uncapped cells of
the r = 64 reference draws 7-11 (``conftest.reference_draws``).  Run from
the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --check

The runs go to a temporary directory; only the golden columns of each cell
(``conftest.GOLDEN_COLUMNS``, and ``GOLDEN_COLUMNS_64`` for the draws) are
kept.  ``tolerances.json`` and ``tolerances64.json`` are written by hand and
left alone.  A change that moves the golden cells says which cells moved,
by how much and why: ``--check`` writes nothing and prints, for every cell
and column that moved, the golden and current values, the relative move
and whether the table's tolerances admit it.  It exits with status 1 when
any move is not admitted.
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import (  # noqa: E402
    GOLDEN_COLUMNS,
    GOLDEN_COLUMNS_64,
    golden_moves,
    golden_row,
    reference_draws,
    reference_sweep,
)

# Each table: its file, its tolerances, its columns and the run that
# returns its reports keyed by cell name.
TABLES = (
    ("sweep36.json", "tolerances.json", GOLDEN_COLUMNS,
     lambda out: reference_sweep(out)["reports"]),
    ("draws64.json", "tolerances64.json", GOLDEN_COLUMNS_64, reference_draws),
)


def check(cells: dict, table: str, tolerance_file: str) -> int:
    golden = json.loads((HERE / table).read_text(encoding="utf-8"))
    tolerances = json.loads((HERE / tolerance_file).read_text(encoding="utf-8"))
    if sorted(cells) != sorted(golden):
        print(f"{table}: cells differ: golden {sorted(golden)}, current {sorted(cells)}")
        return 1
    moves = list(golden_moves(cells, golden, tolerances))
    moved = [move for move in moves if move[2] != move[3]]
    refused = 0
    for stem, key, value, got, rel, admitted in moved:
        refused += not admitted
        arch = golden[stem]["architecture"]
        allowed = "" if rel is None else (
            f"  relative {rel:.2e} (tolerance {tolerances['relative'][arch][key]:.0e})")
        print(f"{stem:30s} {key:11s} {value!r} -> {got!r}{allowed}  "
              f"{'admitted' if admitted else 'NOT ADMITTED'}")
    print(f"{table}: {len(moved)} of {len(moves)} golden columns moved over "
          f"{len(cells)} cells; {refused} not admitted")
    return 1 if refused else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden tables and write nothing")
    args = parser.parse_args()
    status = 0
    for table, tolerance_file, columns, run in TABLES:
        with tempfile.TemporaryDirectory() as tmp:
            reports = run(Path(tmp) / "run")
        cells = {stem: golden_row(payload, columns) for stem, payload in reports.items()}
        if args.check:
            status |= check(cells, table, tolerance_file)
            continue
        text = json.dumps(cells, indent=1, sort_keys=True) + "\n"
        (HERE / table).write_text(text, encoding="utf-8")
        print(f"wrote {len(cells)} cells to {HERE / table}")
    return status


if __name__ == "__main__":
    sys.exit(main())
