#!/usr/bin/env python3
"""Self-check of the traced run.

Runs each workload's traced run twice with one seed and checks that

* both runs pass (``correct``: every solve passed its checks and every
  traced solve's unattributed time stayed within run.UNATTRIBUTED_SHARE
  of its wall time), and
* every count (unit ``count``, ``modes`` or ``ratio``) repeats exactly.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Exit code 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "modes", "ratio")
SEED = 0


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main():
    ok = True
    for workload in sorted(WORKLOADS):
        first, second = (traced_run(workload, SEED) for _ in range(2))
        counts = {name: m["value"] for name, m in first["metrics"].items()
                  if m["unit"] in EXACT_UNITS}
        differ = [name for name, value in counts.items()
                  if second["metrics"][name]["value"] != value]
        passed = first["correct"] and second["correct"] and not differ
        ok &= passed
        wall = first["metrics"]["trace.solve_s"]["value"]
        unattributed = first["metrics"]["trace.unattributed_s"]["value"]
        print(f"{workload}: {'ok' if passed else 'FAILED'}; "
              f"{len(counts)} counts repeat"
              f"{'' if not differ else ' except ' + ', '.join(differ)}; "
              f"unattributed {unattributed:.2e} s of {wall:.3f} s; correct "
              f"{first['correct']}/{second['correct']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
