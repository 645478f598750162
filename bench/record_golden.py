"""Record golden report values at the default seed for every workload.

    python3 bench/record_golden.py

Run from the root of a checkout whose reports are known to be right; it
overwrites ``bench/golden.json``.  ``run.py`` compares every report made at
the default seed against these values.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    out = root / ".bench_out" / "golden"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workloads = {}
    for name in run.WORKLOADS:
        invocation = run.invoke(root, name, run.DEFAULT_SEED, out, name)
        if not invocation.ok:
            print(f"{name}: {invocation.problems}", file=sys.stderr)
            return 1
        workloads[name] = run.observed_values(invocation.report_csv().decode())
    golden = {"seed": run.DEFAULT_SEED, "workloads": workloads}
    run.GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {run.GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
