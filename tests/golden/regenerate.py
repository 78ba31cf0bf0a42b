"""Rewrite ``sweep36.json``, the golden cells of the r = 36 reference sweep.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

The sweep runs in a temporary directory; only the golden columns of each
cell (``conftest.GOLDEN_COLUMNS``) are kept.  ``tolerances.json`` is
written by hand and left alone.  A change that moves the golden cells
says which cells moved, by how much and why.
"""
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import golden_row, reference_sweep  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        sweep = reference_sweep(Path(tmp) / "run")
    cells = {stem: golden_row(payload) for stem, payload in sweep["reports"].items()}
    text = json.dumps(cells, indent=1, sort_keys=True) + "\n"
    (HERE / "sweep36.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(cells)} cells to {HERE / 'sweep36.json'}")


if __name__ == "__main__":
    main()
