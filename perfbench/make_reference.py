#!/usr/bin/env python3
"""Capture the reference rows that the sweep workloads are checked against.

    python3 perfbench/make_reference.py [workload ...]

Run from the repository root, on a commit whose reports are known to be
right. Writes ``perfbench/reference/<workload>.json``: the sweep specs and,
per spec, one row tuple per instance with the columns in ``bench.COLUMNS``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import circpart as cp  # noqa: E402
from bench import COLUMNS, REFERENCE_DIR, WORKLOADS, SweepWorkload  # noqa: E402


def render(workload, rows) -> str:
    """JSON with one row per line, so a changed row shows as a one-line diff."""
    blocks = ["[\n" + ",\n".join("   " + json.dumps(row) for row in spec_rows) + "\n  ]" for spec_rows in rows]
    return (
        "{\n"
        f' "columns": {json.dumps(COLUMNS)},\n'
        f' "specs": {json.dumps(workload.specs)},\n'
        ' "rows": [\n  ' + ",\n  ".join(blocks) + "\n ]\n}\n"
    )


def main(argv) -> int:
    names = argv or [name for name, w in WORKLOADS.items() if isinstance(w, SweepWorkload)]
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        rows = workload.capture_reference(cp)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(render(workload, rows))
        print(f"{path.relative_to(ROOT)}: {sum(len(r) for r in rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
