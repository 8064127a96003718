"""Solvers for the all-neighbour constraint.

Every feasible all-neighbour set is a union of SCC descendant closures
(connected components, in the undirected case), which reduces each variant to
a set-selection problem over the condensation:

* :func:`uniform_directed_alln_ptas` - directed, weight == profit per vertex;
  guesses fitting sets of heavy SCCs and pads their closures with light SCCs.
* :func:`uniform_undirected_alln` - undirected unit weights; exact subset sum
  over component sizes.
* :func:`general_undirected_alln_fptas` - undirected, arbitrary weights and
  profits; one knapsack item per component.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from .graphs import Condensation, Instance, condense, connected_components, descendants
from .knapsack import (Item, _check_capacity, eps_fraction, fitting_picks, knapsack_fptas,
                       subset_sum_max)
from .solution import ALL_NEIGHBOUR, Solution, make_solution, require


def closure_catalog(cond: Condensation, eps, k: int) -> dict[int, frozenset[int]]:
    """Descendant closure of each heavy SCC (own weight above eps * k), by id."""
    _check_capacity(k, "k")
    eps = eps_fraction(eps)
    limit = eps.numerator * k  # weight > eps * k, in integers
    return {u: frozenset(descendants(cond, [u])) for u in range(cond.scc_count)
            if cond.scc_weight[u] * eps.denominator > limit}


def uniform_directed_alln_ptas(instance: Instance, k: Optional[int] = None,
                               eps=0.25) -> Solution:
    """(1-eps)-approximation when every vertex has weight equal to profit.

    For each pick of heavy SCCs whose closure fits the budget (fewer than
    1/eps of them, as each weighs over eps * k), take that closure, then
    repeatedly absorb the lowest-id light SCC whose out-neighbours are
    already inside and that fits the budget; the first heaviest closure
    wins, so guessing stops at one that weighs k.  Ready light SCCs wait in
    a heap, with Kahn's count of missing successors per SCC; one that does
    not fit is dropped, as the weight only grows.
    """
    require("uda-ptas", instance)
    eps = eps_fraction(eps)
    k = instance.solver_budget(k)

    cond = condense(instance)
    closures = closure_catalog(cond, eps, k)
    scc_w = cond.scc_weight
    preds: list[list[int]] = [[] for _ in range(cond.scc_count)]
    for u, nbrs in enumerate(cond.dag_adjacency):
        for w in nbrs:
            preds[w].append(u)
    out_degree = [len(nbrs) for nbrs in cond.dag_adjacency]

    def union(pick) -> set[int]:
        return set().union(*(closures[u] for u in pick))

    best_units: frozenset[int] = frozenset()
    best_weight = 0
    guesses = 0
    for pick in fitting_picks(list(closures), k,
                              lambda pick: sum(scc_w[u] for u in union(pick))):
        guesses += 1
        units = union(pick)
        weight = sum(scc_w[u] for u in units)
        missing = out_degree[:]
        for w in units:
            for u in preds[w]:
                missing[u] -= 1
        # ready light SCCs, in ascending order, which is a valid heap
        ready = [b for b in range(cond.scc_count)
                 if not missing[b] and b not in units and b not in closures]
        while ready:
            b = heappop(ready)
            if weight + scc_w[b] > k:
                continue
            units.add(b)
            weight += scc_w[b]
            for u in preds[b]:
                missing[u] -= 1
                if not missing[u] and u not in closures:
                    heappush(ready, u)
        if weight > best_weight:
            best_units, best_weight = frozenset(units), weight
        if best_weight == k:  # no pick weighs more, and only a heavier one wins
            break

    chosen = sorted(v for u in best_units for v in cond.scc_vertices[u])
    trace = {"guesses": guesses, "units": tuple(sorted(best_units))}
    return make_solution(instance, chosen, ALL_NEIGHBOUR, "uda-ptas",
                         f"{float(1 - eps):g}", k, trace)


def uniform_undirected_alln(instance: Instance, k: Optional[int] = None) -> Solution:
    """Exact solver for unit weights/profits on undirected graphs.

    Whole components are the only selectable units, so this is subset sum
    over the component sizes.
    """
    require("uua-subsetsum", instance)
    k = instance.solver_budget(k)
    comps = connected_components(instance)
    indices, _total = subset_sum_max([len(c) for c in comps], k)
    chosen = sorted(v for i in indices for v in comps[i])
    return make_solution(instance, chosen, ALL_NEIGHBOUR, "uua-subsetsum",
                         "exact", k)


def general_undirected_alln_fptas(instance: Instance, k: Optional[int] = None,
                                  eps=0.1) -> Solution:
    """(1-eps)-approximation for arbitrary weights/profits, undirected.

    One knapsack item per connected component; zero-weight components are
    always included afterwards since they are free.
    """
    require("gua-fptas", instance)
    eps = eps_fraction(eps)
    k = instance.solver_budget(k)
    comps = connected_components(instance)
    items = [Item(i, instance.total_weight(c), instance.total_profit(c))
             for i, c in enumerate(comps)]
    picked, _profit = knapsack_fptas(items, k, eps)
    indices = set(picked)
    indices.update(i for i, it in enumerate(items) if it.weight == 0)
    chosen = sorted(v for i in indices for v in comps[i])
    return make_solution(instance, chosen, ALL_NEIGHBOUR, "gua-fptas",
                         f"{float(1 - eps):g}", k)
