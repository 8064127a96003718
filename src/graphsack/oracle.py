"""Exhaustive optimizers for both constraint kinds, at desk scale.

These are the ground truth the approximation solvers are tested against, and
the only route for the variants where no approximation is implemented.  The
1-neighbour search branches over vertices with support/profit pruning; the
all-neighbour search enumerates unions of SCC descendant closures instead of
raw vertex subsets, so the two optimizers share no code path and can
cross-validate each other.
"""

from __future__ import annotations

from typing import Optional

from .errors import OracleScaleError
from .graphs import Instance, condense, connected_components
from .solution import ALL_NEIGHBOUR, ONE_NEIGHBOUR, Solution, make_solution

DEFAULT_MAX_N = 22


def _check_scale(instance: Instance, k, max_n: int) -> int:
    if instance.n > max_n:
        raise OracleScaleError(
            f"oracle-scale-exceeded: n={instance.n} above the bound {max_n}")
    return instance.solver_budget(k)


def exact_1n(instance: Instance, k: Optional[int] = None,
             max_n: int = DEFAULT_MAX_N) -> Solution:
    """Maximum-profit 1-neighbour set of weight <= k, by pruned search.

    Ties break toward smaller weight, then the lexicographically smallest
    vertex tuple.
    """
    k = _check_scale(instance, k, max_n)
    n = instance.n
    adj_mask = [0] * n
    radj_mask = [0] * n
    for v in range(n):
        for u in instance.adj[v]:
            adj_mask[v] |= 1 << u
        for u in instance.radj[v]:
            radj_mask[v] |= 1 << u
    suffix_profit = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_profit[i] = suffix_profit[i + 1] + instance.profits[i]
    future = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        future[i] = future[i + 1] | (1 << i)

    best_profit, best_weight, best_verts = 0, 0, ()
    # depth-first over (next vertex, mask, profit, weight, unsupported members),
    # on a stack: the include branch is pushed last, so it is searched first
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, mask, profit, weight, unsupported = stack.pop()
        if profit + suffix_profit[i] < best_profit:
            continue
        u = unsupported
        while u:
            v = (u & -u).bit_length() - 1
            if not adj_mask[v] & future[i]:
                break  # v can never gain a neighbour
            u &= u - 1
        if u:
            continue
        if i == n:
            if unsupported:
                continue
            verts = tuple(v for v in range(n) if mask >> v & 1)
            if (profit, -weight) > (best_profit, -best_weight) or \
                    ((profit, weight) == (best_profit, best_weight) and verts < best_verts):
                best_profit, best_weight, best_verts = profit, weight, verts
            continue
        stack.append((i + 1, mask, profit, weight, unsupported))
        w = instance.weights[i]
        if weight + w <= k:
            new_unsupported = unsupported & ~radj_mask[i]
            if adj_mask[i] and not adj_mask[i] & mask:
                new_unsupported |= 1 << i
            stack.append((i + 1, mask | (1 << i), profit + instance.profits[i],
                          weight + w, new_unsupported))
    return make_solution(instance, best_verts, ONE_NEIGHBOUR, "exact-1n", "exact", k)


def exact_alln(instance: Instance, k: Optional[int] = None,
               max_n: int = DEFAULT_MAX_N) -> Solution:
    """Maximum-profit all-neighbour set of weight <= k.

    Feasible sets are exactly unions of descendant closures in the
    condensation (connected components in the undirected case), so the
    enumeration runs over closed SCC subsets, not vertex subsets.
    """
    k = _check_scale(instance, k, max_n)
    if instance.directed:
        cond = condense(instance)
        units = list(cond.scc_vertices)
        succ = [0] * cond.scc_count
        for u, nbrs in enumerate(cond.dag_adjacency):
            for w in nbrs:
                succ[u] |= 1 << w
    else:
        units = connected_components(instance)
        succ = [0] * len(units)
    weights = [instance.total_weight(c) for c in units]
    profits = [instance.total_profit(c) for c in units]
    s = len(units)

    best_profit, best_weight, best_verts = 0, 0, ()
    for mask in range(1 << s):
        weight = 0
        profit = 0
        closed = True
        m = mask
        while m:
            u = (m & -m).bit_length() - 1
            if succ[u] & ~mask:
                closed = False
                break
            weight += weights[u]
            profit += profits[u]
            m &= m - 1
        if not closed or weight > k or (profit, -weight) < (best_profit, -best_weight):
            continue
        verts = tuple(sorted(v for u in range(s) if mask >> u & 1 for v in units[u]))
        if (profit, weight) == (best_profit, best_weight) and verts >= best_verts:
            continue
        best_profit, best_weight, best_verts = profit, weight, verts
    return make_solution(instance, best_verts, ALL_NEIGHBOUR, "exact-all", "exact", k)
