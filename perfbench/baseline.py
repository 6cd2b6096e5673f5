#!/usr/bin/env python3
"""Run every workload for one or more seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 7            # all workloads, one seed
    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of BENCHMARK.json, and echoes each run's summary.  With
two or more seeds it then prints, per workload and end-to-end metric,
the median, the quartiles (``statistics.quantiles``, n=4) and the
quartile spread as a share of the median next to the metric's bound;
``--out`` writes that table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table: dict = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                                   "--trace", "0"], capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            *summary, last = proc.stdout.strip().splitlines()
            print("\n".join(summary), flush=True)
            runs.append(json.loads(last))
        if len(runs) < 2:
            continue
        table[workload] = {
            "seeds": args.seeds,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {name: summarise([r["metrics"][name]["value"] for r in runs])
                        for name in bounds},
        }
        for name, row in table[workload]["metrics"].items():
            print(f"  {workload:13s} {name:12s} median {row['median']:.5g}  "
                  f"q1 {row['q1']:.5g}  q3 {row['q3']:.5g}  spread {row['spread']:.3f}"
                  f"  bound {bounds[name]}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
