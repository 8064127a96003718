"""Independent checker for graphsack outputs.

It shares no code with graphsack: it parses instance files itself and re-checks
each answer against the selection rules, the budget, and the reference digests
recorded in ``reference.json``.  Every function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

CSV_HEADER = ["instance", "variant", "algorithm", "epsilon", "n", "m", "k",
              "profit", "weight", "feasible", "guarantee", "opt", "ratio",
              "ms", "error"]

ORACLE_MAX_N = 22


@dataclass(frozen=True)
class Graph:
    directed: bool
    n: int
    m: int
    budget: int
    weights: tuple[int, ...]
    profits: tuple[int, ...]
    out: tuple[frozenset[int], ...]  # out-neighbours (all neighbours if undirected)

    def is_uniform(self) -> bool:
        return all(w == 1 for w in self.weights) and all(p == 1 for p in self.profits)

    def weight_is_profit(self) -> bool:
        return self.weights == self.profits


def short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def reference_key(instance_bytes: bytes, mode: str) -> str:
    """Key of one (instance, question) pair in ``reference.json``."""
    return f"{short_hash(instance_bytes)}:{mode}"


def parse_graph(text: str) -> Graph:
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    lines = [tokens for tokens in lines if tokens]
    kind, n, m = lines[0][1], int(lines[0][2]), int(lines[0][3])
    budget = int(lines[1][1])
    weights, profits = [], []
    for tokens in lines[2:2 + n]:
        weights.append(int(tokens[2]))
        profits.append(int(tokens[3]))
    directed = kind == "directed"
    out: list[set[int]] = [set() for _ in range(n)]
    for tokens in lines[2 + n:2 + n + m]:
        u, v = int(tokens[1]), int(tokens[2])
        out[u].add(v)
        if not directed:
            out[v].add(u)
    return Graph(directed, n, m, budget, tuple(weights), tuple(profits),
                 tuple(frozenset(s) for s in out))


def rule_violation(graph: Graph, constraint: str, chosen: list[int]) -> str | None:
    """First vertex breaking the one- or all-neighbour rule, as a message."""
    inside = set(chosen)
    for v in chosen:
        if constraint == "one" and graph.out[v] and not graph.out[v] & inside:
            return f"vertex {v} has no chosen neighbour"
        if constraint == "all" and not graph.out[v] <= inside:
            return f"vertex {v} misses a neighbour"
    return None


def check_solve(graph: Graph, path: str, constraint: str, variant: str,
                text: str, reference: str | None) -> list[str]:
    """Check the key/value output of one ``graphsack solve``."""
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    problems = []
    expect = {"instance": path, "n": str(graph.n), "m": str(graph.m),
              "k": str(graph.budget), "constraint": constraint,
              "variant": variant, "feasible": "true"}
    for key, value in expect.items():
        if fields.get(key) != value:
            problems.append(f"{key} is {fields.get(key)!r}, expected {value!r}")
    if "chosen" not in fields:
        return problems + ["no chosen line"]
    try:
        chosen = [int(tok) for tok in fields["chosen"].split()]
        count, profit, weight = (int(fields[k]) for k in ("count", "profit", "weight"))
    except (KeyError, ValueError):
        return problems + ["malformed chosen, count, profit or weight"]
    if chosen != sorted(set(chosen)) or any(not 0 <= v < graph.n for v in chosen):
        return problems + ["chosen is not a strictly increasing list of vertex ids"]
    violation = rule_violation(graph, constraint, chosen)
    if violation:
        problems.append(f"infeasible: {violation}")
    true_weight = sum(graph.weights[v] for v in chosen)
    if true_weight > graph.budget:
        problems.append(f"weight {true_weight} over budget {graph.budget}")
    if count != len(chosen):
        problems.append(f"count {count} but {len(chosen)} chosen")
    if profit != sum(graph.profits[v] for v in chosen):
        problems.append(f"profit {profit} is not the sum over chosen")
    if weight != true_weight:
        problems.append(f"weight {weight} is not the sum over chosen")
    if reference is None:
        problems.append("no reference answer recorded for this instance")
    elif short_hash(fields["chosen"].encode()) != reference:
        problems.append("chosen set differs from the reference answer")
    return problems


def guarantee_factor(text: str) -> float:
    """Numeric value of a guarantee string: exact, a factor, or the greedy formula."""
    if text == "exact":
        return 1.0
    if text.startswith("("):  # "(a)(1-e^-b)"
        a, b = text[1:].split(")(1-e^-")
        return float(a) * (1 - math.exp(-float(b.rstrip(")"))))
    return float(text)


def expected_variants(graph: Graph) -> list[str]:
    """Variants ``graphsack bench`` must run on an instance, re-derived here."""
    out = []
    uniform = graph.is_uniform()
    if graph.directed:
        if uniform or graph.weight_is_profit():
            out.append("uda-ptas")
        if uniform:
            out.append("ud1n-ptas")
    else:
        out += ["greedy-1n", "gua-fptas"]
        if uniform:
            out += ["uu1n-linear", "uua-subsetsum"]
    if graph.n <= ORACLE_MAX_N:
        out += ["exact-1n", "exact-all"]
    return sorted(out)


def bench_row_digest(rows: list[list[str]]) -> str:
    """Digest of one instance's bench rows, without the path column."""
    return short_hash("\n".join(",".join(row[1:]) for row in rows).encode())


def check_bench_row(graph: Graph, row: list[str]) -> list[str]:
    rec = dict(zip(CSV_HEADER, row))
    problems = []
    if rec["error"]:
        return [f"{rec['variant']}: error {rec['error']!r}"]
    if rec["variant"] != rec["algorithm"]:
        problems.append(f"variant {rec['variant']} reports algorithm {rec['algorithm']}")
    if (rec["n"], rec["m"], rec["k"]) != (str(graph.n), str(graph.m), str(graph.budget)):
        problems.append("n, m or k does not match the instance")
    if rec["feasible"] != "true" or rec["ms"] != "0":
        problems.append("feasible is not true or ms is not 0")
    profit, weight = int(rec["profit"]), int(rec["weight"])
    if weight > graph.budget or weight > sum(graph.weights):
        problems.append(f"weight {weight} over budget {graph.budget}")
    if not 0 <= profit <= sum(graph.profits):
        problems.append(f"profit {profit} out of range")
    if rec["opt"]:
        opt = int(rec["opt"])
        if profit > opt:
            problems.append(f"profit {profit} above the optimum {opt}")
        if opt > 0:
            if rec["ratio"] != f"{profit / opt:.6f}":
                problems.append("ratio column does not match profit / opt")
            if profit < guarantee_factor(rec["guarantee"]) * opt - 1e-9:
                problems.append(f"ratio {profit / opt:.6f} below guarantee {rec['guarantee']}")
    elif graph.n <= ORACLE_MAX_N:
        problems.append("opt missing for an instance within the oracle bound")
    return problems


def check_bench(graphs: dict[str, Graph], files: dict[str, bytes], text: str,
                reference: dict[str, str]) -> tuple[int, list[str]]:
    """Check a whole bench CSV; returns (row count, problems)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return max(len(rows) - 1, 0), ["missing or wrong CSV header"]
    rows = rows[1:]
    problems = []
    by_path: dict[str, list[list[str]]] = {}
    for row in rows:
        if len(row) != len(CSV_HEADER) or row[0] not in graphs:
            problems.append(f"malformed row {row!r}")
            continue
        by_path.setdefault(row[0], []).append(row)
        problems += [f"{row[0]}: {p}" for p in check_bench_row(graphs[row[0]], row)]
    for path, graph in graphs.items():
        got = [row[1] for row in by_path.get(path, [])]
        if got != expected_variants(graph):
            problems.append(f"{path}: variants {got}, expected {expected_variants(graph)}")
        want = reference.get(reference_key(files[path], "bench"))
        if want is None:
            problems.append(f"{path}: no reference answer recorded")
        elif bench_row_digest(by_path.get(path, [])) != want:
            problems.append(f"{path}: rows differ from the reference answer")
    return len(rows), problems
