"""Regenerate ``reference_digests.json`` for the default workload seed.

    python3 perfbench/reference.py

Runs every cell of every workload at the default seed serially and
stores its ``telemetry_digest`` and ``span_digest``.  The benchmark
checks the default seed against these shipped digests, so a change to
the simulator's output shows as failed operations.  Regenerate only
when a change is meant to alter that output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import (
        DEFAULT_SEED,
        REFERENCE_FILE,
        WORKLOADS,
        reference_key,
        serial_digests,
    )

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE / ".work"))
    cells = {}
    try:
        for make in WORKLOADS.values():
            for spec, seed in make(DEFAULT_SEED, workdir).cells:
                key = reference_key(spec, seed)
                if key not in cells:
                    cells[key] = serial_digests(spec, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_FILE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "cells": dict(sorted(cells.items()))}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(cells)} reference cells to {REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
