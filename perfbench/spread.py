"""Run-to-run spread of the end-to-end metrics, from saved result files.

Usage (from the root of a source checkout, after ten timed runs per workload
and set, each with its own seed):

    python3 perfbench/spread.py --set 301-310 --set 401-410

For each workload and metric of ``BENCHMARK.json`` and each set of seeds, it
reads ``perfbench/out/result-<workload>-seed<n>-trace0.json`` and prints the
median and the spread (distance between the first and third quartile over
the median).  With two sets it also prints the change of the median from the
first set to the second, and ``over`` where a spread (other than that of
``setup_s``) or a worsening is larger than the metric's bound.  Exits 1 when
any is.  ``--raw`` reads the raw times (seconds, not reference seconds) that
the result files keep beside the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def values(workload: str, metric: str, seed_set: list[int], raw: bool) -> list[float]:
    out = []
    for seed in seed_set:
        path = HERE / "out" / f"result-{workload}-seed{seed}-trace0.json"
        result = json.loads(path.read_text(encoding="utf-8"))
        metrics = result["raw_metrics"] if raw and metric in result["raw_metrics"] else result["metrics"]
        out.append(metrics[metric]["value"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", action="append", type=seeds, required=True,
                        help="seeds of one set, as FIRST-LAST")
    parser.add_argument("--raw", action="store_true", help="read the raw times")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    over = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for seed_set in args.set:
                v = values(workload, name, seed_set, args.raw)
                q = statistics.quantiles(v, n=4)
                median = statistics.median(v)
                spread = (q[2] - q[0]) / median
                medians.append(median)
                bad = spread > bound and name != "setup_s"
                over |= bad
                cells.append(f"{median:10.4f} spread {spread:.3f}{' over' if bad else ''}")
            line = f"{workload:14s} {name:12s} " + " | ".join(cells)
            if len(medians) == 2:
                change = medians[1] / medians[0] - 1
                worse = change if metric["better"] == "lower" else -change
                bad = worse > bound
                over |= bad
                line += f" | change {change:+.3f}{' over' if bad else ''}"
            print(f"{line} | bound {bound}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
