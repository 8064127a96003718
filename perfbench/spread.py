"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads star-greedy,bench-corpus \
        --seeds 1-10 [--seconds 20] [--trace 0] [--out FILE.json]

Run from the repository root.  For every workload and end-to-end metric it
prints the median over the seeds and the spread, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to a third of the metric's bound from BENCHMARK.json.
With --out, every run's result line and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        report["runs"][workload] = runs
        summary = report["summary"][workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values) if len(values) > 1 else 0.0}
            third = bounds[name] / 3 if name in bounds else None
            print(f"  {name:28s} median {summary[name]['median']:12.4f}  spread "
                  f"{summary[name]['spread']:.4f}" + (f"  (bound/3 {third:.4f})" if third else ""),
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
