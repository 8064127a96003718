"""Exhaustive optimizers for both constraint kinds, at desk scale.

These are the ground truth the approximation solvers are tested against, and
the only route for the variants where no approximation is implemented;
``exact_1n`` is also ud1n-ptas's route where eps * k <= 1, with no n bound
there.  The 1-neighbour search branches over vertices; the all-neighbour
search builds only the closed sets of the condensation DAG (no arcs between
the components, when undirected) that fit within k.  Both prune by profit
plus all undecided profit, and the 1-neighbour search also by the profit the
remaining budget can buy at the best undecided profit/weight rate.  They
share no code, so they can cross-validate each other.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Optional

from .graphs import Instance, condense
from .solution import ALL_NEIGHBOUR, ONE_NEIGHBOUR, Solution, make_solution, require

DEFAULT_MAX_N = 22


def exact_1n(instance: Instance, k: Optional[int] = None,
             max_n: int = DEFAULT_MAX_N) -> Solution:
    """Maximum-profit 1-neighbour set of weight <= k, by pruned search.

    Ties break toward smaller weight, then the lexicographically smallest
    tuple.  A node is pruned when its profit plus all undecided profit is
    below the best, or when a member has no chosen neighbour and none still
    undecided.  Then two budget prunes: ``need`` is the positive-weight
    profit a completion must add to reach the best profit (the undecided
    zero-weight profit counted free), and no undecided positive-weight
    vertex has a higher profit/weight than ``rate``, so adding ``need``
    takes weight at least ``need / rate``, and ``room`` buys at most
    ``room * rate``.  When ``need > 0``:

    (a) ``room * rate < need``: no completion reaches the best profit;
    (b) ``room * rate < need + 1`` and ``weight + ceil(need / rate)`` is at
        least the best weight: no completion beats the best profit, and
        none ties it at a smaller weight.

    (b) cannot cut the winner.  Depth-first order takes the include branch
    first, so every completion B of a node popped after the incumbent A is
    met after A: at the first vertex j where they differ, A holds j and B
    does not, and j lies above the node.  If B holds a vertex after j,
    A < B as tuples, and the leaf test rejects B at equal weight anyway.
    Otherwise B is A's vertices below j, so on B's path past j the profit
    is already B's; if B ties A's profit, ``need <= 0`` there and (b) never
    runs.  All other prunes cut only nodes that no completion can win.
    """
    require("exact-1n", instance, max_n)
    k = instance.solver_budget(k)
    n = instance.n
    weights, profits = instance.weights, instance.profits
    adj_mask = [sum(1 << u for u in nbrs) for nbrs in instance.adj]
    radj_mask = [sum(1 << u for u in nbrs) for nbrs in instance.radj]
    suffix_profit = [*accumulate(reversed(profits), initial=0)][::-1]
    # doomed[i]: the vertices whose neighbours all lie below i (lists ascend)
    doomed = [0] * (n + 1)
    for v, nbrs in enumerate(instance.adj):
        if nbrs:
            doomed[nbrs[-1] + 1] |= 1 << v
    doomed = [*accumulate(doomed, or_)]
    # over i..n-1: free[i], the zero-weight profit; rate_p[i] / rate_w[i], the
    # largest profit/weight of a positive-weight vertex, 0/1 if there is none
    free = [0] * (n + 1)
    rate_p, rate_w = [0] * (n + 1), [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        w, p = weights[i], profits[i]
        free[i] = free[i + 1] + (0 if w else p)
        if w and p * rate_w[i + 1] > rate_p[i + 1] * w:
            rate_p[i], rate_w[i] = p, w
        else:
            rate_p[i], rate_w[i] = rate_p[i + 1], rate_w[i + 1]

    best_profit, best_weight, best_verts = 0, 0, ()
    # depth-first over (next vertex, mask, profit, weight, unsupported members),
    # on a stack: the include branch is pushed last, so it is searched first
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, mask, profit, weight, unsupported = stack.pop()
        if profit + suffix_profit[i] < best_profit or unsupported & doomed[i]:
            continue
        need = best_profit - profit - free[i]
        if need > 0:
            room, rp, rw = k - weight, rate_p[i], rate_w[i]
            if room * rp < need * rw:  # (a)
                continue
            if room * rp < (need + 1) * rw and weight - (-need * rw // rp) >= best_weight:
                continue  # (b)
        if i == n:
            if (profit, -weight) < (best_profit, -best_weight):
                continue
            verts = tuple(v for v in range(n) if mask >> v & 1)
            if (profit, weight) == (best_profit, best_weight) and verts >= best_verts:
                continue
            best_profit, best_weight, best_verts = profit, weight, verts
            continue
        stack.append((i + 1, mask, profit, weight, unsupported))
        w = weights[i]
        if weight + w <= k:
            new_unsupported = unsupported & ~radj_mask[i]
            if adj_mask[i] and not adj_mask[i] & mask:
                new_unsupported |= 1 << i
            stack.append((i + 1, mask | (1 << i), profit + profits[i],
                          weight + w, new_unsupported))
    return make_solution(instance, best_verts, ONE_NEIGHBOUR, "exact-1n", "exact", k)


def exact_alln(instance: Instance, k: Optional[int] = None,
               max_n: int = DEFAULT_MAX_N) -> Solution:
    """Maximum-profit all-neighbour set of weight <= k.

    Feasible sets are the closed sets of the condensation DAG (unions of SCC
    descendant closures; undirected, the DAG has no arcs and the SCCs are the
    components).  A unit joins only once its DAG successors are in and it
    fits, so each closed set within k is built once: at most (closed sets
    within k) x units steps.  A node whose profit plus all undecided profit
    is below the best is pruned: no completion can win, and ties still reach
    the full-key comparison.
    """
    require("exact-all", instance, max_n)
    k = instance.solver_budget(k)
    cond = condense(instance)
    units, weights = cond.scc_vertices, cond.scc_weight
    succ = [sum(1 << w for w in nbrs) for nbrs in cond.dag_adjacency]
    profits = [instance.total_profit(c) for c in units]
    below = [0, *accumulate(profits)]  # below[u]: profit of units 0..u-1

    best_profit, best_weight, best_verts = 0, 0, ()
    # (undecided units, mask, profit, weight): ids are topological, sources
    # first, so the successors of unit u - 1 are all decided before it
    stack = [(len(units), 0, 0, 0)]
    while stack:
        u, mask, profit, weight = stack.pop()
        if profit + below[u] < best_profit:
            continue
        if u:
            u -= 1
            stack.append((u, mask, profit, weight))
            if not succ[u] & ~mask and weight + weights[u] <= k:
                stack.append((u, mask | 1 << u, profit + profits[u], weight + weights[u]))
            continue
        if (profit, -weight) < (best_profit, -best_weight):
            continue
        verts = tuple(sorted(v for i, c in enumerate(units) if mask >> i & 1 for v in c))
        if (profit, weight) == (best_profit, best_weight) and verts >= best_verts:
            continue
        best_profit, best_weight, best_verts = profit, weight, verts
    return make_solution(instance, best_verts, ALL_NEIGHBOUR, "exact-all", "exact", k)
