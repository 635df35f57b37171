"""Where the benchmark runs: the checkout root, its source tree, and the
scratch and output directories the benchmark owns inside it."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: per-run scratch (queue and cache directories); removed when a run ends
WORK = ROOT / ".perfbench_work"
#: result records and span files, kept for ``compare.py``
OUT = ROOT / ".perfbench_out"


def add_source_path() -> None:
    """Make the checkout's ``src/repro`` importable, or exit non-zero.

    The benchmark measures the program in *this* checkout only: without
    its source tree there is nothing to measure, and an installed copy
    elsewhere must never stand in for it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/repro; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))


def work_dir(label: str) -> Path:
    """A fresh scratch directory for one benchmark process."""
    path = WORK / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path
