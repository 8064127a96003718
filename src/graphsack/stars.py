"""Star machinery for undirected graphs.

A star (one center plus a possibly empty leaf set) is the indivisible unit
the greedy 1-neighbour solver selects: any undirected graph partitions into
stars that are each feasible 1-neighbour sets, and the two oracles here find
near-optimal feasible stars by profit and by profit-to-weight ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .errors import ValidationError
from .graphs import Instance, bfs_parents, connected_components, is_1_neighbour_set
from .knapsack import Item, ProfitTable, eps_fraction, ratio_key


@dataclass(frozen=True)
class Star:
    """A center vertex plus leaves, all adjacent to the center.

    The leaves are in strictly increasing id order.  The leaf set may be
    empty only when the center is isolated; then and only then the star's
    vertex set is still a 1-neighbour set on its own.
    """

    center: int
    leaves: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted((self.center,) + self.leaves))


def validate_star(instance: Instance, star: Star) -> None:
    """Raise unless ``star`` satisfies all star invariants for ``instance``."""
    instance.check_vertices(star.vertices)
    if any(a >= b for a, b in zip(star.leaves, star.leaves[1:])):
        raise ValidationError(f"leaves {star.leaves} are not strictly increasing")
    for leaf in star.leaves:
        if leaf not in instance.adj[star.center]:
            raise ValidationError(f"leaf {leaf} not adjacent to center {star.center}")
    if not star.leaves and instance.degree(star.center) > 0:
        raise ValidationError("bare center with positive degree is not feasible")
    if not is_1_neighbour_set(instance, star.vertices):
        raise ValidationError("star vertices are not a 1-neighbour set")


def star_partition(instance: Instance) -> list[Star]:
    """Partition all vertices into disjoint stars, each a 1-neighbour set.

    Per component: root a breadth-first tree at the smallest id and sweep the
    vertices in reverse BFS order, attaching each unassigned vertex to its
    parent's star (opening one at the parent when needed).  An unassigned
    root finally joins the star of its smallest center neighbour.  Isolated
    vertices become singleton stars.
    """
    if instance.directed:
        raise ValidationError("star_partition requires an undirected instance")
    center_leaves: dict[int, list[int]] = {}
    assigned = [False] * instance.n
    for comp in connected_components(instance):
        root = comp[0]
        if len(comp) == 1:
            center_leaves[root] = []
            assigned[root] = True
            continue
        parent = bfs_parents(instance, root)
        for v in reversed(parent):
            if assigned[v]:
                continue
            if v == root:
                target = min(u for u in instance.adj[v] if u in center_leaves)
                center_leaves[target].append(v)
            else:
                p = parent[v]
                center_leaves.setdefault(p, []).append(v)
                assigned[p] = True
            assigned[v] = True
    return [Star(c, tuple(sorted(ls))) for c, ls in sorted(center_leaves.items())]


def _fitting_centers(instance: Instance, capacity: int):
    """``(v, fitting leaves)`` for every center ``v`` with a feasible star.

    A center fits when its weight is within ``capacity``; its fitting leaves
    are the neighbours that fit beside it.  A non-isolated center with no
    fitting leaf has no feasible star and is left out.
    """
    weights = instance.weights
    for v in range(instance.n):
        if weights[v] > capacity:
            continue
        budget = capacity - weights[v]
        leaves = [u for u in instance.adj[v] if weights[u] <= budget]
        if leaves or not instance.adj[v]:
            yield v, leaves


def best_profit_viable_star(instance: Instance, capacity: int, eps) -> Optional[Star]:
    """Feasible star with profit >= (1 - eps) * best feasible star profit.

    Every vertex is a candidate center; its leaves form a knapsack over the
    neighbourhood with the remaining capacity, solved on the scaled
    min-weight table.  A non-isolated bare center is not feasible, so the
    candidates are the table's fitting levels above 0 plus the lightest
    fitting leaf (lowest id on ties).  That leaf is the best non-empty set
    of level 0 when every leaf profit is 0; otherwise it is its own level's
    witness, or its profit is below the divisor and every witness above
    level 0 beats it.  The winner is the maximum under a total order: higher
    profit, smaller weight, smaller center, then the smaller leaf tuple.
    Returns None when no feasible star fits.

    The search prunes without changing the winner.  A center's bound is its
    profit plus the profits of all its fitting leaves, which no star of that
    center exceeds.  Centers are visited in descending bound order, and the
    scan stops at the first bound strictly below the best profit found: no
    star of that center or a later one can reach it.  Since the order is
    total, the winner does not depend on the visiting order.  When the table
    is exact (divisor 1), a level's profit and weight are known before its
    witness is walked, so only a level that can win or tie is walked.
    """
    if instance.directed:
        raise ValidationError("star oracles require an undirected instance")
    eps = eps_fraction(eps)
    if capacity < 0:
        raise ValidationError("capacity must be non-negative")
    weights, profits = instance.weights, instance.profits
    centers = [(profits[v] + sum(profits[u] for u in leaves), v, leaves)
               for v, leaves in _fitting_centers(instance, capacity)]
    centers.sort(key=itemgetter(0), reverse=True)
    best_key: Optional[tuple[int, int, int]] = None  # profit, -weight, -center
    best: Optional[Star] = None

    def offer(key: tuple[int, int, int], star: Star):
        nonlocal best_key, best
        if best_key is None or key > best_key or (key == best_key and star.leaves < best.leaves):
            best_key, best = key, star

    for bound, v, leaves in centers:
        if best_key is not None and bound < best_key[0]:
            break
        wv, pv = weights[v], profits[v]
        if not leaves:
            offer((pv, -wv, -v), Star(v, ()))
            continue
        lightest = min(leaves, key=lambda u: (weights[u], u))
        offer((pv + profits[lightest], -wv - weights[lightest], -v), Star(v, (lightest,)))
        table = ProfitTable([Item(u, weights[u], profits[u]) for u in leaves], eps)
        for p, w in table.levels_within(capacity - wv):
            if p == 0:
                break
            if table.divisor == 1 and (pv + p, -wv - w, -v) < best_key:
                continue
            ids = table.witness(p)
            offer((pv + table.true_profit(ids), -wv - w, -v), Star(v, tuple(sorted(ids))))
    return best


def _center_bound(profits, weights, keys, center: int, leaves):
    """Largest :func:`ratio_key` of ``center`` plus any subset of ``leaves``.

    ``keys[v]`` is ``ratio_key(profits[v], weights[v])``.  The leaves join in
    descending key order while each one's key is strictly above the running
    set's, since the best subset for a fractional ratio is a prefix in ratio
    order.  The zero-weight conventions of :func:`ratio_key` hold as they are:
    a zero-weight leaf with positive profit lifts the set to the top class,
    which no later leaf exceeds.
    """
    p, w, key = profits[center], weights[center], keys[center]
    for u in sorted(leaves, key=keys.__getitem__, reverse=True):
        if not keys[u] > key:
            break
        p += profits[u]
        w += weights[u]
        key = ratio_key(p, w)
    return key


def best_ratio_viable_star(instance: Instance, capacity: int, eps) -> Optional[Star]:
    """Feasible star with ratio >= (1 - eps) * best feasible star ratio.

    The objective is the full star ratio (center included), ordered by
    :func:`ratio_key`.  Candidates per center: every fitting single leaf,
    the witnesses of the fitting levels above 0 of the scaled min-weight
    table over all fitting leaves, and - when scaling actually rounds - the
    same levels of per-leaf rescaled tables that force one leaf and restrict
    the rest to no larger profits.  Level 0 adds no leaf to a table's base,
    so its star is a single-leaf star offered already.  The forced-leaf
    tables keep the rounding error proportional to the candidate's own
    profit, which the shared table alone cannot guarantee.  The winner is the
    maximum under a total order: higher ratio key, higher profit, then the
    smaller ``(center, leaves)``.

    The search prunes without changing the winner.  A center's bound is
    :func:`_center_bound`, the best ratio key of the center plus any subset
    of its fitting leaves; every candidate is such a star, so none exceeds
    it.  Centers are visited in descending bound order, and the scan stops
    at the first bound strictly below the best ratio key found: no star of
    that center or a later one can reach it.  Since the order is total, the
    winner does not depend on the visiting order.  When a table is exact
    (divisor 1), a level's profit and weight are known before its witness is
    walked, so only a level that can win or tie is walked.
    """
    if instance.directed:
        raise ValidationError("star oracles require an undirected instance")
    eps = eps_fraction(eps)
    if capacity < 0:
        raise ValidationError("capacity must be non-negative")
    weights, profits = instance.weights, instance.profits
    keys = [ratio_key(p, w) for p, w in zip(profits, weights)]
    centers = [(_center_bound(profits, weights, keys, v, leaves), v, leaves)
               for v, leaves in _fitting_centers(instance, capacity)]
    centers.sort(key=itemgetter(0), reverse=True)
    best_key = None  # (ratio key, profit)
    best: Optional[Star] = None

    def offer(key, star: Star):
        nonlocal best_key, best
        if best_key is None or key > best_key or (key == best_key and (
                star.center, star.leaves) < (best.center, best.leaves)):
            best_key, best = key, star

    def offer_levels(v: int, table: ProfitTable, budget: int, forced: tuple[int, ...] = ()):
        """Offer center ``v`` and the ``forced`` leaves with each level above 0
        of ``table`` within ``budget``."""
        base_p = profits[v] + sum(profits[u] for u in forced)
        base_w = weights[v] + sum(weights[u] for u in forced)
        for p, w in table.levels_within(budget):
            if p == 0:
                break
            if table.divisor == 1 and (ratio_key(base_p + p, base_w + w), base_p + p) < best_key:
                continue
            ids = table.witness(p)
            profit = base_p + table.true_profit(ids)
            offer((ratio_key(profit, base_w + w), profit), Star(v, tuple(sorted(ids + forced))))

    for bound, v, leaves in centers:
        if best_key is not None and bound < best_key[0]:
            break
        wv, pv = weights[v], profits[v]
        if not leaves:
            offer((keys[v], pv), Star(v, ()))
            continue
        # the single leaves are offered first, so best_key is set for the tables
        items = [Item(u, weights[u], profits[u]) for u in leaves]
        for it in items:
            offer((ratio_key(pv + it.profit, wv + it.weight), pv + it.profit),
                  Star(v, (it.id,)))
        leaf_budget = capacity - wv
        table = ProfitTable(items, eps)
        offer_levels(v, table, leaf_budget)
        if table.divisor > 1:
            for guess in items:
                rest_budget = leaf_budget - guess.weight
                others = [it for it in items
                          if it.id != guess.id and it.profit <= guess.profit
                          and it.weight <= rest_budget]
                offer_levels(v, ProfitTable(others, eps), rest_budget, (guess.id,))
    return best
