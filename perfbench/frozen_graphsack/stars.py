"""Star machinery for undirected graphs.

A star (one center plus a possibly empty leaf set) is the indivisible unit
the greedy 1-neighbour solver selects: any undirected graph partitions into
stars that are each feasible 1-neighbour sets, and the two oracles here find
near-optimal feasible stars by profit and by profit-to-weight ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError
from .graphs import Instance, connected_components, is_1_neighbour_set
from .knapsack import Item, ProfitTable, eps_fraction, ratio_key


@dataclass(frozen=True)
class Star:
    """A center vertex plus leaves, all adjacent to the center.

    The leaf set may be empty only when the center is isolated; then and only
    then the star's vertex set is still a 1-neighbour set on its own.
    """

    center: int
    leaves: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted((self.center,) + self.leaves))


def validate_star(instance: Instance, star: Star) -> None:
    """Raise unless ``star`` satisfies all star invariants for ``instance``."""
    instance.check_vertices(star.vertices)
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
        parent: dict[int, int] = {root: -1}
        order = [root]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for u in instance.adj[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
        for v in reversed(order):
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


def _leaf_items(instance: Instance, center: int, leaf_budget: int) -> list[Item]:
    return [Item(u, instance.weights[u], instance.profits[u])
            for u in instance.adj[center] if instance.weights[u] <= leaf_budget]


def best_profit_viable_star(instance: Instance, capacity: int, eps) -> Optional[Star]:
    """Feasible star with profit >= (1 - eps) * best feasible star profit.

    Every vertex is tried as a center; its leaves form a knapsack over the
    neighbourhood with the remaining capacity, solved on the scaled
    min-weight table restricted to non-empty leaf sets (a non-isolated bare
    center is not feasible).  Returns None when no feasible star fits.
    """
    if instance.directed:
        raise ValidationError("star oracles require an undirected instance")
    eps = eps_fraction(eps)
    if capacity < 0:
        raise ValidationError("capacity must be non-negative")
    best: Optional[tuple[int, int, Star]] = None  # profit, weight, star

    def offer(star: Star, profit: int, weight: int):
        nonlocal best
        if best is None or (profit, -weight, -star.center) > (best[0], -best[1], -best[2].center) \
                or ((profit, weight, star.center) == (best[0], best[1], best[2].center)
                    and star.leaves < best[2].leaves):
            best = (profit, weight, star)

    for v in range(instance.n):
        wv, pv = instance.weights[v], instance.profits[v]
        if wv > capacity:
            continue
        if instance.degree(v) == 0:
            offer(Star(v, ()), pv, wv)
            continue
        items = _leaf_items(instance, v, capacity - wv)
        if not items:
            continue
        table = ProfitTable(items, eps)
        for p in range(table.level_count):
            w = table.nonempty_min_weight(p)
            if w is None or w > capacity - wv:
                continue
            ids = table.nonempty_witness(p)
            offer(Star(v, tuple(sorted(ids))), pv + table.true_profit(ids), wv + w)
    return best[2] if best else None


def best_ratio_viable_star(instance: Instance, capacity: int, eps) -> Optional[Star]:
    """Feasible star with ratio >= (1 - eps) * best feasible star ratio.

    The objective is the full star ratio (center included), ordered by
    :func:`ratio_key`.  Candidates per center: every fitting single leaf, the
    levels of the scaled non-empty min-weight table over all fitting leaves,
    and - when scaling actually rounds - per-leaf rescaled tables that force
    one leaf and restrict the rest to no larger profits.  The forced-leaf
    tables keep the rounding error proportional to the candidate's own
    profit, which the shared table alone cannot guarantee.
    """
    if instance.directed:
        raise ValidationError("star oracles require an undirected instance")
    eps = eps_fraction(eps)
    if capacity < 0:
        raise ValidationError("capacity must be non-negative")
    best: Optional[tuple[Star, int, int]] = None  # star, profit, weight

    def offer(star: Star, profit: int, weight: int):
        nonlocal best
        if best is None:
            best = (star, profit, weight)
            return
        new = (ratio_key(profit, weight), profit)
        old = (ratio_key(best[1], best[2]), best[1])
        if new > old or (new == old and (star.center, star.leaves) <
                         (best[0].center, best[0].leaves)):
            best = (star, profit, weight)

    for v in range(instance.n):
        wv, pv = instance.weights[v], instance.profits[v]
        if wv > capacity:
            continue
        if instance.degree(v) == 0:
            offer(Star(v, ()), pv, wv)
            continue
        leaf_budget = capacity - wv
        items = _leaf_items(instance, v, leaf_budget)
        if not items:
            continue

        def offer_leaves(ids, extra=()):
            leaves = tuple(sorted(tuple(ids) + tuple(extra)))
            pw = sum(instance.profits[u] for u in leaves)
            ww = sum(instance.weights[u] for u in leaves)
            if ww <= leaf_budget:
                offer(Star(v, leaves), pv + pw, wv + ww)

        for it in items:
            offer_leaves((it.id,))
        table = ProfitTable(items, eps)
        for p in range(table.level_count):
            w = table.nonempty_min_weight(p)
            if w is not None and w <= leaf_budget:
                offer_leaves(table.nonempty_witness(p))
        if table.divisor > 1:
            for guess in items:
                rest_budget = leaf_budget - guess.weight
                others = [it for it in items
                          if it.id != guess.id and it.profit <= guess.profit
                          and it.weight <= rest_budget]
                sub = ProfitTable(others, eps)
                for p in range(sub.level_count):
                    w = sub.min_weight(p)
                    if w is not None and w <= rest_budget:
                        offer_leaves(sub.witness(p), extra=(guess.id,))
    return best[0] if best else None
