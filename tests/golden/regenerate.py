"""Rewrite ``sweep36.json``, the golden cells of the r = 36 reference sweep,
or, with ``--check``, report how far the current code moves them.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --check

The sweep runs in a temporary directory; only the golden columns of each
cell (``conftest.GOLDEN_COLUMNS``) are kept.  ``tolerances.json`` is
written by hand and left alone.  A change that moves the golden cells
says which cells moved, by how much and why: ``--check`` writes nothing
and prints, for every cell and column that moved, the golden and current
values, the relative move and whether ``tolerances.json`` admits it.  It
exits with status 1 when any move is not admitted.
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import golden_moves, golden_row, reference_sweep  # noqa: E402


def check(cells: dict) -> int:
    golden = json.loads((HERE / "sweep36.json").read_text(encoding="utf-8"))
    tolerances = json.loads((HERE / "tolerances.json").read_text(encoding="utf-8"))
    if sorted(cells) != sorted(golden):
        print(f"cells differ: golden {sorted(golden)}, current {sorted(cells)}")
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
    print(f"{len(moved)} of {len(moves)} golden columns moved over {len(cells)} "
          f"cells; {refused} not admitted")
    return 1 if refused else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with sweep36.json and write nothing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        sweep = reference_sweep(Path(tmp) / "run")
    cells = {stem: golden_row(payload) for stem, payload in sweep["reports"].items()}
    if args.check:
        return check(cells)
    text = json.dumps(cells, indent=1, sort_keys=True) + "\n"
    (HERE / "sweep36.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(cells)} cells to {HERE / 'sweep36.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
