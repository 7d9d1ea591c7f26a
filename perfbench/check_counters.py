"""Counter determinism check: two traced runs with the same seed must give
identical counts (calls, cells, operand terms, system sizes, Cartier steps)
and identical ratios of counts.

Usage (from the root of a source checkout):

    python3 perfbench/check_counters.py --workload cli-batch --seed 1 --seconds 20

Prints one JSON object with the verdict, any differing counters and the
tracing overhead of both runs; exits 1 when a counter differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    runs = [traced(args.workload, args.seed, args.seconds) for _ in range(2)]
    exact = [
        name for name, m in runs[0]["metrics"].items()
        if m["unit"] == "count" or name.endswith("_frac") and not name.startswith("trace.")
    ]
    differing = {
        name: [r["metrics"][name]["value"] for r in runs]
        for name in exact
        if runs[0]["metrics"][name]["value"] != runs[1]["metrics"][name]["value"]
    }
    verdict = {
        "workload": args.workload,
        "seed": args.seed,
        "identical": not differing and all(r["correct"] for r in runs),
        "counters_compared": len(exact),
        "differing": differing,
        "trace.overhead_frac": [r["metrics"]["trace.overhead_frac"]["value"] for r in runs],
    }
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
