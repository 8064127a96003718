"""Solvers for the 1-neighbour constraint.

Three routes, by instance class:

* :func:`greedy_1_neighbour` - general undirected instances, via the star
  oracles; profit guarantee ((1-eps)/2) * (1 - e^-(1-eps)).
* :func:`uniform_undirected_1n` - unit weights/profits, undirected; exact in
  linear time via a component counting argument.
* :func:`uniform_directed_1n_ptas` - unit weights/profits, directed; size
  guarantee (1-eps) via SCC smallest cycles, or exact_1n if eps * k <= 1.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Optional

from .graphs import (Instance, _bfs_layers, _smallest_cycle_in_scc, condense,
                     connected_components, in_boundary)
from .knapsack import eps_fraction, fitting_picks, ratio_key
from .oracle import exact_1n
from .solution import ONE_NEIGHBOUR, Solution, make_solution, require
from .stars import Star, best_profit_viable_star, best_ratio_viable_star

ProfitOracle = Callable[[Instance, int, Fraction], Optional[Star]]
RatioOracle = Callable[[Instance, int, Fraction, Optional[int]], Optional[Star]]


def greedy_guarantee(eps: Fraction) -> str:
    half_alpha = float((1 - eps) / 2)
    return f"({half_alpha:g})(1-e^-{float(1 - eps):g})"


def greedy_1_neighbour(instance: Instance, k: Optional[int] = None, eps=0.1,
                       profit_oracle: ProfitOracle = best_profit_viable_star,
                       ratio_oracle: RatioOracle = best_ratio_viable_star,
                       ) -> Solution:
    """Greedy selection of viable stars and boundary vertices.

    Each round takes the better (by exact ratio order) of the best-ratio
    feasible star of the remaining graph and the best-ratio vertex that
    already has a neighbour in the knapsack; the final answer is the better
    of the accumulated set and the best-profit star of the whole instance.
    Alternative oracle pairs over other viable families can be plugged in.
    The ratio oracle's fourth argument, ``floor``, is the vertex's ratio key
    (or None): a star below it cannot win, so the oracle may return None for
    it, or ignore ``floor``.
    """
    require("greedy-1n", instance)
    eps = eps_fraction(eps)
    k = instance.solver_budget(k)

    weights, profits = instance.weights, instance.profits
    keys = [ratio_key(p, w) for p, w in zip(profits, weights)]
    chosen: set[int] = set()                               # U
    remaining = k                                          # K
    boundary: set[int] = set()                             # Z = N^-(U)
    s_max = profit_oracle(instance, k, eps)                # S_max
    iterations: list[dict] = []
    while True:
        # of equal ratios, max keeps the first vertex (the lowest id) and the star wins
        node = max((v for v in sorted(boundary) if weights[v] <= remaining),
                   key=keys.__getitem__, default=None)
        floor = None if node is None else keys[node]
        sub, ids = instance.induced(v for v in range(instance.n) if v not in chosen)  # G'
        star = ratio_oracle(sub, remaining, eps, floor)
        if star is not None:
            star = Star(ids[star.center], tuple(ids[u] for u in star.leaves))
        if node is not None and (star is None or floor
                                 > ratio_key(instance.total_profit(star.vertices),
                                             instance.total_weight(star.vertices))):
            pick, kind = (node,), "vertex"
        elif star is not None:
            pick, kind = star.vertices, "star"
        else:
            break
        chosen.update(pick)
        remaining -= instance.total_weight(pick)
        # Z' = (Z | N^-(pick)) - U', as Z already misses U
        boundary.difference_update(pick)
        boundary.update([u for u in in_boundary(instance, pick) if u not in chosen])
        iterations.append({"index": len(iterations) + 1, "kind": kind,
                           "vertices": tuple(sorted(pick))})

    result = sorted(chosen)
    returned = "greedy-set"
    if s_max is not None and \
            instance.total_profit(s_max.vertices) > instance.total_profit(result):
        result = list(s_max.vertices)
        returned = "best-profit-star"
    trace = {"iterations": iterations, "returned": returned,
             "best_profit_star": None if s_max is None else s_max.vertices}
    return make_solution(instance, result, ONE_NEIGHBOUR, "greedy-1n",
                         greedy_guarantee(eps), k, trace)


def uniform_undirected_1n(instance: Instance, k: Optional[int] = None) -> Solution:
    """Exact linear-time solver for unit weights/profits on undirected graphs.

    Whole components are taken greedily by decreasing size; the first
    component that does not fit contributes a breadth-first prefix, with
    three corrective cases when that prefix would be a single vertex.
    """
    require("uu1n-linear", instance)
    k = instance.solver_budget(k)

    def done(vertices) -> Solution:
        return make_solution(instance, vertices, ONE_NEIGHBOUR, "uu1n-linear",
                             "exact", k)

    comps = connected_components(instance)
    if instance.n <= k:
        return done(range(instance.n))
    if k % 2 == 1 and all(len(c) == 2 for c in comps):
        return done([v for c in comps[:k // 2] for v in c])

    prefix = 0
    i = 0  # first index whose component overflows the budget
    for i, comp in enumerate(comps):
        if prefix + len(comp) > k:
            break
        prefix += len(comp)
    taken = [v for c in comps[:i] for v in c]
    if prefix == k:
        return done(taken)

    order = [v for layer in _bfs_layers(instance.adj, comps[i][0]) for v in layer]
    r = k - prefix
    if r > 1:
        return done(taken + order[:r])
    if len(comps[-1]) == 1:
        return done(taken + [comps[-1][0]])
    if k == 1:
        return done(())
    # Some component has >= 3 vertices; shrink the first one by a BFS-tree
    # leaf (the last BFS vertex), freeing budget for an adjacent pair here.
    shrunk = [v for layer in _bfs_layers(instance.adj, comps[0][0]) for v in layer][:-1]
    rest = [v for c in comps[1:i] for v in c]
    return done(shrunk + rest + order[:2])


def uniform_directed_1n_ptas(instance: Instance, k: Optional[int] = None,
                             eps=0.25) -> Solution:
    """(1-eps)-approximation for unit weights/profits on directed graphs.

    Classifies SCCs by smallest-cycle length into large / petite / tiny,
    guesses every set of large SCCs whose smallest cycles fit the budget
    together (fewer than 1/eps, as each is longer than eps * k), seeds the
    knapsack with smallest cycles of the guessed SCCs plus affordable sink
    SCCs, and grows it backwards in the order of repeated id scans, which one
    (scan, id) heap keeps in O((n + m) log n); the trace records, per guess,
    whether every candidate sink was taken (then the result is optimal).
    Where eps * k <= 1 the answer is :func:`~graphsack.oracle.exact_1n`'s
    instead, exact, with the trace ``{"fallback": "exhaustive"}``.

    Each SCC's smallest cycle is computed at most once: to class an SCC of
    more than eps * k vertices, or for a guessed SCC or a candidate sink.
    """
    require("ud1n-ptas", instance)
    eps = eps_fraction(eps)
    k = instance.solver_budget(k)
    if eps * k <= 1:
        # exact_1n holds at most k <= 1/eps vertices, so it pops at most (n + 1)
        # * sum(C(n, s) for s <= k) nodes, polynomial for fixed eps: no n bound.
        # On unit values it returns the largest set, then the smallest tuple.
        return replace(exact_1n(instance, k, max_n=instance.n), algorithm="ud1n-ptas",
                       trace={"fallback": "exhaustive"})

    cond = condense(instance)

    @functools.cache
    def cycle(u: int) -> tuple[int, ...]:
        return _smallest_cycle_in_scc(instance, cond.scc_vertices[u])

    # eps * k > 1 here, so a singleton (cycle length 1) is never large, and a
    # multi-vertex SCC no bigger than eps * k is petite without a search
    bound = eps.numerator * k // eps.denominator
    large, petite, tiny_sinks = [], set(), []
    for u, members in enumerate(cond.scc_vertices):
        if len(members) == 1:
            if not cond.dag_adjacency[u]:
                tiny_sinks.append(u)
        elif len(members) <= bound or len(cycle(u)) <= bound:
            petite.add(u)
        else:
            large.append(u)

    def cost(guess) -> int:
        return sum(len(cycle(u)) for u in guess)

    results: list[tuple[tuple[int, ...], dict]] = []  # (chosen set, entry)
    for guess in fitting_picks(large, k, cost):
        in_dx = petite | set(guess)
        petite_sinks = [u for u in sorted(petite)
                        if not any(w in in_dx for w in cond.dag_adjacency[u])]
        zset = sorted(tiny_sinks + petite_sinks)
        taken = []
        budget = k - cost(guess)
        for u in sorted(zset, key=lambda u: (len(cycle(u)), u)):
            c = len(cycle(u))
            if c <= budget:
                taken.append(u)
                budget -= c
        chosen = set()
        for u in list(guess) + taken:
            chosen.update(cycle(u))
        _grow_1n(instance, chosen, k)
        entry = {"guess": guess, "candidate_sinks": tuple(zset),
                 "taken_sinks": tuple(sorted(taken)),
                 "complete": len(taken) == len(zset),
                 "size": len(chosen)}
        results.append((tuple(sorted(chosen)), entry))

    # the largest set, then the smallest tuple; min keeps the first of equals
    best, best_entry = min(results, key=lambda r: (-len(r[0]), r[0]), default=((), None))
    trace = {"guesses": [entry for _, entry in results], "winner": best_entry,
             "complete": bool(best_entry and best_entry["complete"])}
    return make_solution(instance, best, ONE_NEIGHBOUR, "ud1n-ptas",
                         f"{float(1 - eps):g}", k, trace)


def _grow_1n(instance: Instance, chosen: set[int], k: int) -> None:
    """Extend a feasible seed by any vertex it can support, up to k vertices,
    in the order of repeated ascending-id scans.  A heap keyed scan * n + id
    keeps that order: when u joins in scan s, an in-neighbour v is ready in
    scan s, or in scan s + 1 if v < u, as that scan has passed v."""
    n, adj, radj = instance.n, instance.adj, instance.radj
    # scan 0's vertices in ascending order, which is a valid heap
    heap = [v for v in range(n) if v not in chosen
            and (not adj[v] or not chosen.isdisjoint(adj[v]))]
    while heap and len(chosen) < k:
        scan, u = divmod(heappop(heap), n)
        if u in chosen:
            continue
        chosen.add(u)
        for v in radj[u]:
            if v not in chosen:
                heappush(heap, (scan + (v < u)) * n + v)
