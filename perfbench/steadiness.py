#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 --seconds 25 [--workload series] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, with seeds
1..runs, and reports for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json.  With ``--out`` the summary
and every run's metrics are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

from run import HERE, ROOT, describe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "python": platform.python_version(), "platform": platform.platform(),
              "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
            wall = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed}: FAILED\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "wall_s": wall, "metrics": metrics})
            print(f"{name} seed {seed}: wall {wall:.1f} s " +
                  " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
        if len(runs) < 2:
            continue
        summary = {k: describe([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
        report["workloads"][name] = {"summary": summary, "runs": runs}
        for k, s in summary.items():
            bound = bounds[k]
            flag = "" if s["spread"] < bound / 3 else ("  above a third of the bound" if s["spread"] < bound
                                                      else "  ABOVE THE BOUND")
            print(f"  {name:<12} {k:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {s['spread']:.3f} (bound {bound}){flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
