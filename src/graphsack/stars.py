"""Star machinery for undirected graphs.

A star (one center plus a possibly empty leaf set) is the indivisible unit
the greedy 1-neighbour solver selects: any undirected graph partitions into
stars that are each feasible 1-neighbour sets, and the two oracles here find
near-optimal feasible stars by profit and by profit-to-weight ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Optional

from .errors import ValidationError
from .graphs import Instance, _bfs_layers, _is_int, is_1_neighbour_set
from .knapsack import Item, ProfitTable, _check_capacity, eps_fraction, ratio_key


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

    Roots are scanned in ascending id, skipping assigned vertices, so each
    component is walked once, breadth first from its smallest id.  A vertex
    with no neighbours is a bare star.  Otherwise the walk's vertices are
    swept in reverse visit order, and each unassigned one joins the star of
    its tree parent, its earliest-visited neighbour (opening one there when
    needed).  An unassigned root finally joins the star of its smallest
    center neighbour.
    """
    if instance.directed:
        raise ValidationError("star_partition requires an undirected instance")
    adj = instance.adj
    center_leaves: dict[int, list[int]] = {}
    assigned = [False] * instance.n
    visit = [0] * instance.n  # position in its component's walk
    for root in range(instance.n):
        if assigned[root]:
            continue
        if not adj[root]:
            center_leaves[root] = []
            continue
        order = [v for layer in _bfs_layers(adj, root) for v in layer]
        for i, v in enumerate(order):
            visit[v] = i
        for v in reversed(order[1:]):
            if not assigned[v]:
                p = min(adj[v], key=visit.__getitem__)
                center_leaves.setdefault(p, []).append(v)
                assigned[p] = assigned[v] = True
        if not assigned[root]:  # no later root is in this component
            center_leaves[min(u for u in adj[root] if u in center_leaves)].append(root)
    return [Star(c, tuple(sorted(ls))) for c, ls in sorted(center_leaves.items())]


class _StarSearch:
    """The branch-and-bound scan both star oracles run, under an oracle's key.

    A candidate star of ``profit`` and ``weight`` ranks by
    ``key(profit, weight, center)``, higher first, then by the smaller
    ``(center, leaves)``.  The order is total, so the winner, :attr:`best`,
    does not depend on the order in which candidates are offered.

    The search prunes without changing the winner.  :meth:`centers` visits the
    centers in descending order of a bound that no star of the center exceeds
    in the key's first component, and stops at the first bound strictly below
    the best key's: no star of that center or a later one can reach it.  When
    a table is exact (divisor 1), a level's profit and weight are known before
    its witness is walked, so :meth:`offer_levels` walks only a level that can
    win or tie.  The best key starts at ``(floor, -1)``, with no star, so both
    prunes apply to ``floor`` too; keys' first parts are never negative.
    """

    def __init__(self, instance: Instance, capacity: int, eps, key, floor: int = -1):
        if instance.directed:
            raise ValidationError("star oracles require an undirected instance")
        self.eps = eps_fraction(eps)
        _check_capacity(capacity)
        self.instance, self.capacity, self.key = instance, capacity, key
        self.best_key, self.best = (floor, -1), None

    def centers(self, bound, among=None):
        """``(v, fitting leaves)`` per center, in descending ``bound(v, leaves)``
        order, until a bound falls strictly below the best key's first part.

        A center fits when its weight is within the capacity; its fitting
        leaves are the neighbours that fit beside it.  A non-isolated center
        with no fitting leaf has no feasible star and is left out; an isolated
        one's only star, the bare center, is offered here.  Given ``among``,
        ascending ids, only those centers are ranked: the caller vouches that
        every other center's bound is below the best key's first part, so the
        scan would stop before it, and the order of the rest is unchanged.
        """
        g, weights = self.instance, self.instance.weights
        ranked = []
        for v in range(g.n) if among is None else among:
            budget = self.capacity - weights[v]
            if budget >= 0:
                leaves = [u for u in g.adj[v] if weights[u] <= budget]
                if leaves or not g.adj[v]:
                    ranked.append((bound(v, leaves), v, leaves))
        ranked.sort(key=itemgetter(0), reverse=True)
        for b, v, leaves in ranked:
            if b < self.best_key[0]:
                return
            if leaves:
                yield v, leaves
            else:
                self.offer(g.profits[v], weights[v], v, ())

    def offer(self, profit: int, weight: int, center: int, leaves: tuple[int, ...]):
        """Offer the star ``center`` plus the sorted ``leaves``, of that profit
        and weight."""
        key, best = self.key(profit, weight, center), self.best
        if key > self.best_key or (
                key == self.best_key and (center, leaves) < (best.center, best.leaves)):
            self.best_key, self.best = key, Star(center, leaves)

    def offer_levels(self, v: int, items: list[Item], budget: int,
                     forced: tuple[int, ...] = ()) -> ProfitTable:
        """Offer center ``v`` and the ``forced`` leaves with each level above 0,
        within ``budget``, of the scaled table over ``items``; return the table.
        Level 0 adds no leaf, so its star is the caller's to offer first."""
        weights, profits, key = self.instance.weights, self.instance.profits, self.key
        table = ProfitTable(items, budget, self.eps)
        base_p = profits[v] + sum(profits[u] for u in forced)
        base_w = weights[v] + sum(weights[u] for u in forced)
        exact = table.divisor == 1
        for p, w in table.levels():
            if p == 0:
                break
            if exact and key(base_p + p, base_w + w, v) < self.best_key:
                continue
            ids = table.witness(p)
            self.offer(base_p + table.true_profit(ids), base_w + w, v, tuple(sorted(ids + forced)))
        return table


def best_profit_viable_star(instance: Instance, capacity: int, eps) -> Optional[Star]:
    """Feasible star with profit >= (1 - eps) * best feasible star profit.

    Every vertex is a candidate center; its leaves form a knapsack over the
    neighbourhood with the remaining capacity, solved on the scaled
    min-weight table.  A non-isolated bare center is not feasible, so the
    candidates are the table's fitting levels above 0 plus the lightest
    fitting leaf (lowest id on ties).  That leaf is the best non-empty set
    of level 0 when every leaf profit is 0; otherwise it is its own level's
    witness, or its profit is below the divisor and every witness above
    level 0 beats it.  The key is higher profit, then smaller weight, then
    smaller center; a center's bound is its profit plus the profits of all
    its fitting leaves.  A center with one fitting leaf builds no table: its
    one non-empty leaf set is that leaf.  Returns None when no feasible star
    fits; the search is :class:`_StarSearch`.
    """
    search = _StarSearch(instance, capacity, eps, lambda p, w, v: (p, -w, -v))
    weights, profits = instance.weights, instance.profits
    for v, leaves in search.centers(lambda v, ls: profits[v] + sum(profits[u] for u in ls)):
        lightest = min(leaves, key=lambda u: (weights[u], u))
        search.offer(profits[v] + profits[lightest], weights[v] + weights[lightest], v,
                     (lightest,))
        if len(leaves) > 1:
            search.offer_levels(v, [Item(u, weights[u], profits[u]) for u in leaves],
                                capacity - weights[v])
    return search.best


def _center_bound(profits, weights, keys, center: int, leaves):
    """Largest :func:`ratio_key` of ``center`` plus any subset of ``leaves``.

    ``keys[v]`` is ``ratio_key(profits[v], weights[v])``, an int, so the sort
    below compares in C.  The leaves join in descending key order while each
    one's key is strictly above the running set's, since the best subset for
    a fractional ratio is a prefix in ratio order.  The zero-weight
    conventions of :func:`ratio_key` hold as they are: a zero-weight leaf with
    positive profit lifts the set to the top class, which no later leaf
    exceeds.
    """
    p, w, key = profits[center], weights[center], keys[center]
    for u in sorted(leaves, key=keys.__getitem__, reverse=True):
        if not keys[u] > key:
            break
        p += profits[u]
        w += weights[u]
        key = ratio_key(p, w)
    return key


def best_ratio_viable_star(instance: Instance, capacity: int, eps,
                           floor: Optional[int] = None) -> Optional[Star]:
    """Feasible star with ratio >= (1 - eps) * best feasible star ratio.

    The objective is the full star ratio (center included).  Candidates per
    center: every fitting single leaf, the witnesses of the fitting levels
    above 0 of the scaled min-weight table over all fitting leaves, and -
    when scaling actually rounds - the same levels of per-leaf rescaled
    tables that force one leaf and restrict the rest to no larger profits
    (each table drops the leaves that no longer fit beside the forced one).
    The forced-leaf tables keep the rounding error proportional to the
    candidate's own profit, which the shared table alone cannot guarantee.
    The key is the higher :func:`ratio_key`, then the higher profit; a
    center's bound is :func:`_center_bound`, the best ratio key of the
    center plus any subset of its fitting leaves.  A center with one fitting
    leaf builds no table: that leaf is its one non-empty leaf set, already
    offered as a single, and its forced-leaf table would be empty.  The
    search is :class:`_StarSearch`.  Given an int ``floor``, it returns that
    star if its ratio key is at least ``floor``, else None, pruning below it.

    A set's ratio is at most its best member's (the mediant inequality), so
    neither a center's bound nor a single's key exceeds the largest member
    key.  Hence a single whose two keys are below the best key's first part
    is not offered, and under a floor only two kinds of center are ranked: a
    fitting vertex whose key reaches the floor, and a neighbour that fits
    beside one.  Every other center's members all key below the floor.
    """
    if floor is not None and not _is_int(floor):
        raise ValidationError(f"floor must be an integer or None, got {floor!r}")
    search = _StarSearch(instance, capacity, eps, lambda p, w, v: (ratio_key(p, w), p),
                         -1 if floor is None else floor)
    weights, profits, adj = instance.weights, instance.profits, instance.adj
    keys = [ratio_key(p, w) for p, w in zip(profits, weights)]
    among = None
    if floor is not None:
        among = set()
        for u in [u for u, key in enumerate(keys) if key >= floor]:
            budget = capacity - weights[u]
            if budget >= 0:
                among.add(u)
                among.update([v for v in adj[u] if weights[v] <= budget])
        among = sorted(among)
    offer, offer_levels = search.offer, search.offer_levels
    for v, leaves in search.centers(partial(_center_bound, profits, weights, keys), among):
        wv, pv, kv, leaf_budget = weights[v], profits[v], keys[v], capacity - weights[v]
        gate = search.best_key[0]  # it only rises, so a stale gate skips no single that wins
        for u in leaves:
            if kv >= gate or keys[u] >= gate:
                offer(pv + profits[u], wv + weights[u], v, (u,))
        if len(leaves) < 2:
            continue
        items = [Item(u, weights[u], profits[u]) for u in leaves]
        if offer_levels(v, items, leaf_budget).divisor > 1:
            for guess in items:
                rest_budget = leaf_budget - guess.weight
                others = [it for it in items if it.id != guess.id and it.profit <= guess.profit]
                offer_levels(v, others, rest_budget, (guess.id,))
    return search.best
