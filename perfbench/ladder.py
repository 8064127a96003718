"""Reference ladder: the solver timings quoted as baselines in ROADMAP.md.

    python3 perfbench/ladder.py [--out perfbench/results/ladder.json]

Run from the repository root.  Times single library calls, not the CLI, so
the numbers compare with the ones in ROADMAP item 1:

* greedy-1n on gen_random(n, 3/n, undirected, w<=8, p<=8, k=2n), n = 80, 160;
* uda-ptas on gen_random(2000, 1.5/n, directed), weight = profit, k = sum(w)/2;
* knapsack_exact on 60 items with profits up to 1000 (sum about 30k).

Each case runs on three seeded instances, each REPS times; the per-instance
median and the median over the instances are reported in milliseconds.  This
is a one-off reference, not a benchmark workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphsack import (Instance, Item, gen_random, greedy_1_neighbour,  # noqa: E402
                       knapsack_exact, uniform_directed_alln_ptas)

REPS = 3
SEEDS = (0, 1, 2)


def greedy_case(n: int, seed: int):
    inst = gen_random(n, 3 / n, False, 8, 8, 2 * n, seed=seed)
    return lambda: greedy_1_neighbour(inst, None, 0.1)


def uda_case(n: int, seed: int):
    g = gen_random(n, 1.5 / n, True, 8, 8, 0, seed=seed)
    inst = Instance(True, n, g.edges, g.weights, g.weights, sum(g.weights) // 2)
    return lambda: uniform_directed_alln_ptas(inst, None, 0.1)


def knapsack_case(count: int, seed: int):
    rng = random.Random(seed)
    items = [Item(i, rng.randint(1, 100), rng.randint(1, 1000)) for i in range(count)]
    capacity = sum(it.weight for it in items) // 2
    return lambda: knapsack_exact(items, capacity)


CASES = [("greedy-1n n=80", greedy_case, 80, 109), ("greedy-1n n=160", greedy_case, 160, 634),
         ("uda-ptas n=2000", uda_case, 2000, 972),
         ("knapsack_exact 60 items", knapsack_case, 60, 268)]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {"machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                          "python": platform.python_version()},
              "reps": REPS, "cases": {}}
    for label, make, size, roadmap_ms in CASES:
        per_instance = []
        for seed in SEEDS:
            call = make(size, seed)
            times = []
            for _ in range(REPS):
                start = perf_counter()
                call()
                times.append((perf_counter() - start) * 1000)
            per_instance.append(statistics.median(times))
        report["cases"][label] = {"median_ms": statistics.median(per_instance),
                                  "per_instance_ms": per_instance, "roadmap_ms": roadmap_ms}
        print(f"{label:26s} {statistics.median(per_instance):9.1f} ms "
              f"(ROADMAP: {roadmap_ms} ms; per instance "
              f"{', '.join(f'{t:.1f}' for t in per_instance)})", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
