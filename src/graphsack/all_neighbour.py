"""Solvers for the all-neighbour constraint.

Every feasible all-neighbour set is a union of SCC descendant closures
(connected components, in the undirected case), which reduces each variant to
a set-selection problem over the condensation:

* :func:`uniform_directed_alln_ptas` - directed, weight == profit per vertex;
  guesses small sets of heavy SCCs and pads their closures with light sinks.
* :func:`uniform_undirected_alln` - undirected unit weights; exact subset sum
  over component sizes.
* :func:`general_undirected_alln_fptas` - undirected, arbitrary weights and
  profits; one knapsack item per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import UnsupportedVariantError
from .graphs import Condensation, Instance, condense, connected_components, descendants
from .knapsack import Item, eps_fraction, knapsack_fptas, subset_sum_max
from .solution import ALL_NEIGHBOUR, Solution, make_solution


@dataclass(frozen=True)
class ClosureCatalog:
    """Per-SCC descendant closures with their totals and weight class.

    ``heavy[u]`` is true when the SCC's own weight exceeds eps * k; closure
    weights/profits sum over all SCCs reachable from ``u`` (inclusive).
    """

    closures: tuple[frozenset[int], ...]
    closure_weight: tuple[int, ...]
    closure_profit: tuple[int, ...]
    heavy: tuple[bool, ...]


def closure_catalog(instance: Instance, cond: Condensation, eps, k: int) -> ClosureCatalog:
    eps = eps_fraction(eps)
    closures = []
    weights = []
    profits = []
    for u in range(cond.scc_count):
        desc = descendants(cond, [u])
        closures.append(frozenset(desc))
        weights.append(sum(cond.scc_weight[w] for w in desc))
        profits.append(sum(instance.total_profit(cond.scc_vertices[w]) for w in desc))
    heavy = tuple(cond.scc_weight[u] > eps * k for u in range(cond.scc_count))
    return ClosureCatalog(tuple(closures), tuple(weights), tuple(profits), heavy)


def uniform_directed_alln_ptas(instance: Instance, k: Optional[int] = None,
                               eps=0.25) -> Solution:
    """(1-eps)-approximation when every vertex has weight equal to profit.

    For each subset of at most 1/eps heavy SCCs, take the descendant closure,
    then repeatedly absorb any light SCC whose out-neighbours are already
    inside while the budget allows; the best closure found wins.
    """
    if not instance.directed:
        raise UnsupportedVariantError("uda-ptas requires a directed instance")
    for v in range(instance.n):
        if instance.weights[v] != instance.profits[v]:
            raise UnsupportedVariantError(
                "uda-ptas requires weight(v) == profit(v) for every vertex")
    eps = eps_fraction(eps)
    k = instance.solver_budget(k)

    cond = condense(instance)
    catalog = closure_catalog(instance, cond, eps, k)
    scc_w = cond.scc_weight
    heavy = [u for u in range(cond.scc_count) if catalog.heavy[u]]
    light = [u for u in range(cond.scc_count) if not catalog.heavy[u]]

    best_units: frozenset[int] = frozenset()
    best_weight = 0
    guesses = 0
    for size in range(0, int(1 / eps) + 1):
        for pick in combinations(heavy, size):
            guesses += 1
            units: set[int] = set()
            for u in pick:
                units.update(catalog.closures[u])
            weight = sum(scc_w[u] for u in units)
            if weight > k:
                continue
            while True:
                addable = next((b for b in light if b not in units
                                and weight + scc_w[b] <= k
                                and all(w in units for w in cond.dag_adjacency[b])),
                               None)
                if addable is None:
                    break
                units.add(addable)
                weight += scc_w[addable]
            if weight > best_weight:
                best_units, best_weight = frozenset(units), weight

    chosen = sorted(v for u in best_units for v in cond.scc_vertices[u])
    trace = {"guesses": guesses, "units": tuple(sorted(best_units))}
    return make_solution(instance, chosen, ALL_NEIGHBOUR, "uda-ptas",
                         f"{float(1 - eps):g}", k, trace)


def uniform_undirected_alln(instance: Instance, k: Optional[int] = None) -> Solution:
    """Exact solver for unit weights/profits on undirected graphs.

    Whole components are the only selectable units, so this is subset sum
    over the component sizes.
    """
    if instance.directed:
        raise UnsupportedVariantError("uua-subsetsum requires an undirected instance")
    if not instance.is_uniform():
        raise UnsupportedVariantError("uua-subsetsum requires unit weights and profits")
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
    if instance.directed:
        raise UnsupportedVariantError("gua-fptas requires an undirected instance")
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
