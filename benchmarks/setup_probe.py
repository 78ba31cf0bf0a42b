"""Child process of the set-up measurement in run.py.

Usage: setup_probe.py <src dir> <config.json> <out dir>

Imports bdris from <src dir>, builds the configured instance through
``bdris.cli.main`` and prints ``time.monotonic()`` once that has returned,
so the parent can time interpreter start, import and instance build.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from bdris import cli  # noqa: E402

status = cli.main(["--config", sys.argv[2], "--out", sys.argv[3], "--quiet"])
print(time.monotonic())
sys.exit(status)
