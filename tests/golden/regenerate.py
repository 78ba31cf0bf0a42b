"""Rewrite the golden tables and the digest table, or, with ``--check``,
report how far the current code moves them.

The golden tables are ``sweep36.json``, the cells of the r = 36 reference
sweep (``conftest.reference_sweep``), and ``draws64.json``, the uncapped
cells of the r = 64 reference draws 7-11 (``conftest.reference_draws``).
The digest table ``digests.json`` pins the reference sweep and the solves
on ``conftest.capped_cases()`` bit for bit, one entry per OpenBLAS kernel
(``conftest.DIGEST_KERNELS``); each kernel's entry is computed in a child
interpreter that forces that kernel (``conftest._in_child``), and a kernel
this CPU cannot run keeps its committed entry.  Run from the repository
root:

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --check

The runs go to a temporary directory; only the golden columns of each cell
(``conftest.GOLDEN_COLUMNS``, and ``GOLDEN_COLUMNS_64`` for the draws) are
kept.  ``tolerances.json`` and ``tolerances64.json`` are written by hand and
left alone.  A change that moves the golden cells says which cells moved,
by how much and why: ``--check`` writes nothing and prints, for every cell
and column that moved, the golden and current values, the relative move
and whether the table's tolerances admit it, and then every digest that
moved, by kernel.  It exits with status 1 when any golden move is not
admitted or any digest moved.
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import (  # noqa: E402
    DIGEST_KERNELS,
    DIGESTS,
    GOLDEN_COLUMNS,
    GOLDEN_COLUMNS_64,
    _in_child,
    digest_table,
    digests_moved,
    golden_moves,
    golden_row,
    reference_draws,
    reference_sweep,
)

# A child interpreter that prints its kernel and its digest table's words.
_DIGEST_CHILD = """
from conftest import digest_words, kernel_digests, openblas_core
print(openblas_core(), *digest_words(kernel_digests()))
"""

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


def digests(write: bool) -> int:
    """Compute each kernel's digest table in a child; write the tables, or
    list the digests that moved.  Returns 1 when checking and any moved."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    moved = 0
    for kernel, flag in DIGEST_KERNELS:
        try:
            got = digest_table(_in_child(_DIGEST_CHILD, kernel, flag))
        except pytest.skip.Exception as skip:
            print(f"{kernel}: not run here ({skip}); its entry is kept")
            continue
        if write:
            table[kernel] = got
            continue
        moves = digests_moved(got, table.get(kernel, {}))
        moved += len(moves)
        for move in moves:
            print(f"{kernel} {move}")
        count = 2 * sum(len(cells) for cells in got.values())
        print(f"{DIGESTS.name} {kernel}: {len(moves)} of {count} digests moved")
    if write:
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
        print(f"wrote {', '.join(sorted(table))} to {DIGESTS}")
    return 1 if moved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden and digest tables and write nothing")
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
    return status | digests(write=not args.check)


if __name__ == "__main__":
    sys.exit(main())
