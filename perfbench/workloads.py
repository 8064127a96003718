"""Seeded corpora and request lists for the benchmark workloads.

Every instance is drawn from a fixed pool.  A pool has ``replicas`` members
per (instance class, vertex count); each member is built by graphsack's own
``gen_random`` from a seed derived from its class and index alone.  The
workload seed picks which replicas form a run's corpus and in what order, so
one seed always gives the same files, and every file a run can see has an
answer recorded at the seed commit in ``reference.json`` (see
``record_reference.py``).

Each corpus takes the same number of members of every class and size, so its
size mix does not depend on the seed, and a large share of the pool, so its
mean cost stays close to the pool's.  Requests come in rounds holding one
member of each class and size in a seeded order; a run that stops mid-round
therefore still sees a balanced mix.

A request is one call of ``graphsack.cli.main``: a ``solve`` for the three
solve workloads, a whole ``bench`` pass for ``bench-corpus``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from graphsack import Instance, gen_random, serialize

EPSILON = "0.1"
BENCH_JOBS = "2"      # nproc on the reference machine
BENCH_CORPORA = 4     # bench-corpus cycles through this many directories
BENCH_SIZE = 40       # instances per bench directory
CORPUS = "corpus"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]   # arguments of graphsack.cli.main
    path: str               # instance file (solve) or directory (bench)
    constraint: str         # "one" or "all" for solve, "bench" for bench
    variant: str            # the variant a solve must report
    reference: str = ""     # bench: the --jobs 1 CSV this pass must equal


@dataclass(frozen=True)
class Pool:
    classes: tuple   # (label, smallest n, largest n) per instance class
    steps: int       # vertex counts per class, evenly spaced from smallest to largest
    replicas: int    # pool members per (class, vertex count)
    picks: int       # corpus members per (class, vertex count)

    def size(self, cls, t: int) -> int:
        _, lo, hi = cls
        return lo + round((hi - lo) * t / (self.steps - 1))


# Each workload keeps its request costs within a narrow band: the latency
# percentiles are then set by many requests, not by a few of the largest.
POOLS = {
    # Undirected general weights, one-neighbour: auto-routing picks greedy-1n,
    # so the star oracles and their small knapsack tables dominate and
    # condense never runs.  Class label: average degree d; the denser class
    # gets smaller graphs so both cost about the same per solve.
    "star-greedy": Pool(((3, 36, 50), (6, 24, 36)), 8, 8, 7),
    # Sparse directed graphs, each solved three times: uda-ptas (weight =
    # profit) at k = sum(w)/2 and sum(w)/4, and the PTAS branch of ud1n-ptas
    # (unit weights, k = n/3 > 1/eps).  Condensation and closures, no
    # knapsack table.
    "scc-closure": Pool(((None, 400, 800),), 12, 8, 4),
    # Undirected general weights, all-neighbour: auto-routing picks gua-fptas,
    # one large scaled DP table over the components per solve.
    "component-dp": Pool(((None, 60, 76),), 9, 16, 14),
    # Small mixed instances for graphsack bench: every applicable solver plus
    # the exhaustive oracles, whose cost grows exponentially in n.  Uniform
    # budgets straddle 1/eps = 10, so both branches of ud1n-ptas run.  At
    # n = 14 single instances cost up to 9x their class's mean, so n stops at
    # 13; and a corpus holds 160 of the pool's 168 members, so the seed
    # changes which few are left out and how the rest are split and ordered,
    # not the pass cost.
    "bench-corpus": Pool(tuple(((directed, kind), 10, 13) for directed in (True, False)
                               for kind in ("uniform", "weight=profit", "general")), 4, 7, 0),
}
WORKLOADS = tuple(POOLS)


def instance_files(workload: str, cls, i: int) -> list[tuple[str, Instance, str, str]]:
    """Pool member ``i`` of class ``cls``: (file stem, instance, constraint,
    expected variant) for each file it makes."""
    pool = POOLS[workload]
    n = pool.size(cls, i % pool.steps)
    c = pool.classes.index(cls)
    label = cls[0]
    seed = 1_000_000 * c + 1_000 * n + i
    if workload == "star-greedy":
        g = gen_random(n, label / n, False, 8, 8, 2 * n, seed=seed)
        return [(f"sg-d{label}-n{n}-{i:03d}", g, "one", "greedy-1n")]
    if workload == "scc-closure":
        g = gen_random(n, 1.5 / n, True, 8, 8, 0, seed=seed)
        unit = Instance(True, n, g.edges, [1] * n, [1] * n, n // 3)
        return [(f"scc-n{n}-{i:03d}-all{d}",
                 Instance(True, n, g.edges, g.weights, g.weights, sum(g.weights) // d),
                 "all", "uda-ptas") for d in (2, 4)] + \
            [(f"scc-n{n}-{i:03d}-one", unit, "one", "ud1n-ptas")]
    if workload == "component-dp":
        g = gen_random(n, 0.6 / n, False, 50, 1000, 5 * n, seed=seed)
        return [(f"dp-n{n}-{i:03d}", g, "all", "gua-fptas")]
    directed, kind = label
    g = gen_random(n, 2 / n, directed, 8, 8, 0, seed=seed)
    if kind == "uniform":
        k = random.Random(seed).randint(6, 14)
        g = Instance(directed, n, g.edges, [1] * n, [1] * n, k)
    else:
        profits = g.weights if kind == "weight=profit" else g.profits
        g = Instance(directed, n, g.edges, g.weights, profits, sum(g.weights) // 3)
    return [(f"c{c}-n{n}-{i:03d}", g, "bench", "")]


def solve_request(path: str, constraint: str, variant: str) -> Request:
    argv = ["solve", "--input", path, "--constraint", constraint, "--epsilon", EPSILON]
    if variant == "uda-ptas":  # weight = profit is not auto-routed there
        argv += ["--variant", variant]
    return Request(tuple(argv), path, constraint, variant)


def bench_request(directory: str, out: str, jobs: str = BENCH_JOBS) -> Request:
    return Request(("bench", "--dir", directory, "--epsilon", EPSILON, "--jobs", jobs,
                    "--out", out), directory, "bench", "", f"{out}.reference")


def _member(pool: Pool, t: int, replica: int) -> int:
    return replica * pool.steps + t


def build(workload: str, seed: int, root: str = CORPUS) -> tuple[dict[str, str], list[Request]]:
    """Files (relative path -> text, under ``root``) and the request cycle of one run."""
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}")
    pool = POOLS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bench-corpus":
        return _build_bench(pool, rng, root)
    cells = [(cls, t) for cls in pool.classes for t in range(pool.steps)]
    chosen = {cell: rng.sample(range(pool.replicas), pool.picks) for cell in cells}
    files: dict[str, str] = {}
    requests: list[Request] = []
    for r in range(pool.picks):
        rng.shuffle(cells)
        for cls, t in cells:
            for stem, instance, constraint, variant in instance_files(
                    workload, cls, _member(pool, t, chosen[cls, t][r])):
                path = f"{root}/{stem}.txt"
                files[path] = serialize(instance)
                requests.append(solve_request(path, constraint, variant))
    return files, requests


def _build_bench(pool: Pool, rng: random.Random,
                 root: str) -> tuple[dict[str, str], list[Request]]:
    """BENCH_CORPORA directories of BENCH_SIZE instances, classes in turn.

    Slot j of a directory holds class j % 6.  A class's slots, counted across
    all directories, cycle through the sizes, so the directories together
    hold every size equally often.
    """
    classes, sizes = pool.classes, pool.steps
    files: dict[str, str] = {}
    for c, cls in enumerate(classes):
        slots = [(corpus, j) for corpus in range(BENCH_CORPORA)
                 for j in range(c, BENCH_SIZE, len(classes))]
        chosen = {t: rng.sample(range(pool.replicas), len(slots[t::sizes]))
                  for t in range(sizes)}
        for g, (corpus, j) in enumerate(slots):
            t = g % sizes
            member = _member(pool, t, chosen[t][g // sizes])
            (stem, instance, _, _), = instance_files("bench-corpus", cls, member)
            files[f"{root}/b{corpus}/bc-{j:02d}-{stem}.txt"] = serialize(instance)
    requests = [bench_request(f"{root}/b{corpus}", f"{root}-b{corpus}.csv")
                for corpus in range(BENCH_CORPORA)]
    return dict(sorted(files.items())), requests


def pool_members(workload: str):
    """Every file the workload can draw, for recording reference answers:
    yields (stem, text, constraint, variant)."""
    pool = POOLS[workload]
    for cls in pool.classes:
        for i in range(pool.replicas * pool.steps):
            for stem, instance, constraint, variant in instance_files(workload, cls, i):
                yield stem, serialize(instance), constraint, variant
