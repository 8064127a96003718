"""Brute-force reference computations and random instance builders.

Everything here is deliberately independent of the package's own search
code: feasibility is re-derived from first principles on bitmasks, so these
functions can serve as oracles for the solvers *and* for `graphsack.oracle`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import inspect
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from operator import or_
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from hypothesis import strategies as st

import graphsack.cli
from graphsack import (Condensation, Instance, Item, Star,
                       UnsupportedVariantError, ValidationError, condense,
                       connected_components, descendants, oracle, ratio_key)
from graphsack.graphs import _bfs_layers, _smallest_cycle_in_scc, in_boundary, is_1_neighbour_set
from graphsack.knapsack import _check_items, eps_fraction, fitting_picks
from graphsack.one_neighbour import ProfitOracle, RatioOracle, greedy_guarantee
from graphsack.oracle import DEFAULT_MAX_N
from graphsack.solution import ALL_NEIGHBOUR, ONE_NEIGHBOUR, Solution, make_solution, require
from graphsack.stars import best_profit_viable_star, best_ratio_viable_star

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

T = TypeVar("T")


def adjacency_masks(inst: Instance) -> list[int]:
    return [sum(1 << u for u in inst.adj[v]) for v in range(inst.n)]


def feasible_one_mask(inst: Instance, mask: int, adj=None) -> bool:
    adj = adj or adjacency_masks(inst)
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        if adj[v] and not adj[v] & mask:
            return False
        m &= m - 1
    return True


def feasible_all_mask(inst: Instance, mask: int, adj=None) -> bool:
    adj = adj or adjacency_masks(inst)
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        if adj[v] & ~mask:
            return False
        m &= m - 1
    return True


def _mask_totals(inst: Instance) -> tuple[list[int], list[int]]:
    """weights[mask], profits[mask] for all masks, by lowest-bit recurrence."""
    size = 1 << inst.n
    weights = [0] * size
    profits = [0] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        weights[mask] = weights[rest] + inst.weights[low]
        profits[mask] = profits[rest] + inst.profits[low]
    return weights, profits


def brute_force_profit(inst: Instance, k: int, constraint: str) -> int:
    """Maximum feasible profit by full enumeration (constraint: one|all)."""
    check = feasible_one_mask if constraint == "one" else feasible_all_mask
    adj = adjacency_masks(inst)
    weights, profits = _mask_totals(inst)
    best = 0
    for mask in range(1 << inst.n):
        if weights[mask] <= k and profits[mask] > best and check(inst, mask, adj):
            best = profits[mask]
    return best


def profit_for_every_budget(inst: Instance, constraint: str) -> list[tuple[int, int]]:
    """Sorted (weight, best-profit-at-or-below) pairs over feasible sets.

    ``opt(k)`` is then the profit of the last pair with weight <= k.
    """
    check = feasible_one_mask if constraint == "one" else feasible_all_mask
    adj = adjacency_masks(inst)
    weights, profits = _mask_totals(inst)
    pairs = sorted((weights[m], profits[m]) for m in range(1 << inst.n)
                   if check(inst, m, adj))
    frontier: list[tuple[int, int]] = []
    best = -1
    for w, p in pairs:
        best = max(best, p)
        if frontier and frontier[-1][0] == w:
            frontier[-1] = (w, best)
        else:
            frontier.append((w, best))
    return frontier


def opt_at(frontier: list[tuple[int, int]], k: int) -> int:
    best = 0
    for w, p in frontier:
        if w > k:
            break
        best = p
    return best


def best_ratio_subset(inst_items, capacity: int):
    """Best non-empty subset ratio over explicit (id, weight, profit) items."""
    n = len(inst_items)
    best = None
    for mask in range(1, 1 << n):
        w = sum(it[1] for i, it in enumerate(inst_items) if mask >> i & 1)
        p = sum(it[2] for i, it in enumerate(inst_items) if mask >> i & 1)
        if w > capacity:
            continue
        if best is None or ratio_key(p, w) > ratio_key(*best):
            best = (p, w)
    return best


def item_star(inst_items, capacity: int) -> Instance:
    """The star of a centre ``n``, of weight and profit 0, joined to the
    explicit (id, weight, profit) items ``0..n-1``.  Its feasible stars are
    the non-empty item subsets within ``capacity``, at their own ratios, so
    the ratio star oracle on it answers the ratio knapsack over the items."""
    n = len(inst_items)
    return Instance(False, n + 1, [(i, n) for i in range(n)],
                    [w for _, w, _ in inst_items] + [0], [p for _, _, p in inst_items] + [0],
                    capacity)


def ratio_key_reference(profit: int, weight: int):
    """The profit-to-weight total order as ``Fraction`` tuples.

    Independent of ``graphsack.ratio_key``: zero-weight positive-profit sets
    form the top class, (0, 0) ranks above (0, w>0) and below every positive
    ratio, and the rest compare as exact fractions.
    """
    if weight == 0 and profit > 0:
        return (2, Fraction(0), 0)
    if weight == 0:
        return (1, Fraction(0), 1)
    return (1, Fraction(profit, weight), 0)


def ratio_meets(profit: int, weight: int, best_p: int, best_w: int, eps) -> bool:
    """result ratio >= (1 - eps) * best ratio, exactly."""
    eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    if best_w == 0 and best_p > 0:
        return weight == 0 and profit > 0
    if best_p == 0:
        return True
    return Fraction(profit, weight) >= (1 - eps) * Fraction(best_p, best_w) \
        if weight > 0 else profit > 0


class BruteProfitTable:
    """The queries of ``graphsack.ProfitTable``, answered by enumeration.

    The divisor ``max(1, eps * max_profit / n)`` and the adjusted profits
    are derived here again.  Every item subset is enumerated; per adjusted
    profit level the table keeps the least weight and, among subsets of that
    weight, the lexicographically smallest id tuple.  Non-empty subsets are
    kept apart, for the non-empty queries of ``NonemptyProfitTable``.
    """

    def __init__(self, items, eps=None):
        self.items = sorted(items, key=lambda it: it.id)
        n = len(self.items)
        self.divisor = Fraction(1)
        if eps is not None and n:
            eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
            self.divisor = max(Fraction(1), eps * max(it.profit for it in self.items) / n)
        self.adjusted = tuple(int(it.profit / self.divisor) for it in self.items)
        self.level_count = sum(self.adjusted) + 1
        self._best: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._best_nonempty: dict[int, tuple[int, tuple[int, ...]]] = {}
        for r in range(n + 1):
            for combo in combinations(range(n), r):
                level = sum(self.adjusted[i] for i in combo)
                key = (sum(self.items[i].weight for i in combo),
                       tuple(self.items[i].id for i in combo))
                for best in (self._best, self._best_nonempty) if combo else (self._best,):
                    if level not in best or key < best[level]:
                        best[level] = key

    def true_profit(self, ids) -> int:
        ids = set(ids)
        return sum(it.profit for it in self.items if it.id in ids)

    def min_weight(self, p):
        return self._best[p][0] if p in self._best else None

    def nonempty_min_weight(self, p):
        return self._best_nonempty[p][0] if p in self._best_nonempty else None

    def witness(self, p):
        return self._best[p][1] if p in self._best else None

    def nonempty_witness(self, p):
        return self._best_nonempty[p][1] if p in self._best_nonempty else None

    def levels_within(self, capacity):
        return [(p, w) for p, (w, _) in sorted(self._best.items(), reverse=True)
                if w <= capacity]


class NonemptyProfitTable:
    """The package's min-weight table as it was with its non-empty queries.

    ``nonempty_min_weight`` and ``nonempty_witness`` answer for non-empty
    subsets only; they differ from ``min_weight`` and ``witness`` at level 0,
    where they give the lightest item of adjusted profit 0 (lowest id on
    ties).  The full-scan star oracles below build this table, so they stay
    independent of the package's own level scan.
    """

    def __init__(self, items, eps=None):
        self.items = sorted(items, key=lambda it: it.id)
        n = len(self.items)
        profits = [it.profit for it in self.items]
        num = den = 1  # the divisor is num / den
        if eps is not None and n > 0:
            eps = eps_fraction(eps)
            num, den = eps.numerator * max(profits), eps.denominator * n
            if num <= den:
                num = den = 1
        self.divisor = Fraction(num, den)
        self.adjusted = tuple(p * den // num for p in profits)
        self.level_count = sum(self.adjusted) + 1
        self._profit = {it.id: it.profit for it in self.items}
        self._zero_weight = min((it.weight for it, a in zip(self.items, self.adjusted)
                                 if a == 0), default=None)
        absent = self._absent = sum(it.weight for it in self.items) + 1

        rows = [[0]]
        for it, a in zip(reversed(self.items), reversed(self.adjusted)):
            nxt, w = rows[-1], it.weight
            row = nxt[:a] + [absent] * (a - len(nxt))
            row += [x if x <= (t := y + w) else t for x, y in zip(nxt[a:], nxt)]
            row += [y + w if y < absent else absent for y in nxt[len(row) - a:]]
            rows.append(row)
        rows.reverse()
        self._rows = rows

    def true_profit(self, ids) -> int:
        return sum(self._profit[i] for i in ids)

    def min_weight(self, p):
        if 0 <= p < self.level_count and self._rows[0][p] < self._absent:
            return self._rows[0][p]
        return None

    def nonempty_min_weight(self, p):
        return self._zero_weight if p == 0 else self.min_weight(p)

    def witness(self, p):
        return self._walk(p)

    def nonempty_witness(self, p):
        if p != 0:
            return self._walk(p)
        return next(((it.id,) for it, a in zip(self.items, self.adjusted)
                     if a == 0 and it.weight == self._zero_weight), None)

    def _walk(self, rem_p):
        rem_w = self.min_weight(rem_p)
        if rem_w is None:
            return None
        ids = []
        rows, adjusted = self._rows, self.adjusted
        for i, it in enumerate(self.items):
            if rem_p == 0 and rem_w == 0:
                break
            a = adjusted[i]
            if a <= rem_p and it.weight + rows[i + 1][rem_p - a] == rem_w:
                ids.append(it.id)
                rem_p -= a
                rem_w -= it.weight
        assert rem_p == 0 and rem_w == 0, "table walk out of sync"
        return tuple(ids)


# The package's min-weight table as it was before its rows were bounded by a
# capacity, copied unchanged: rows run to the full adjusted profit sum, and
# ``levels_within(capacity)`` scans for any capacity.  The reference for the
# bounded ``graphsack.ProfitTable``.

class UnboundedProfitTable:
    """Minimum subset weight per exact (adjusted) profit level.

    ``min_weight(p)`` is the least total weight of any subset whose adjusted
    profit is exactly ``p`` (``None`` if unachievable), and ``witness(p)``
    the lexicographically smallest id set among those minimum-weight
    subsets.  ``levels_within(capacity)`` is the one scan over the table.
    Level 0 always has minimum weight 0 and witness ``()``, so a scan for
    non-empty sets stops before it.  With ``eps`` given, profits
    are scaled by the standard FPTAS divisor ``eps * max_profit / n``; the
    divisor is clamped to >= 1 so adjusted profits never exceed true profits
    (the table is then exact).

    Row ``i`` covers ``items[i:]`` and is trimmed to their adjusted profit
    sum; it is built from row ``i + 1`` by whole-row list operations.
    Unachievable cells hold the sentinel ``sum(weights) + 1`` inside the
    class and read as ``None`` outside it.
    """

    def __init__(self, items: Iterable[Item], eps=None):
        self.items = _check_items(list(items))
        n = len(self.items)
        profits = [it.profit for it in self.items]
        num = den = 1  # the divisor is num / den
        if eps is not None and n > 0:
            eps = eps_fraction(eps)
            num, den = eps.numerator * max(profits), eps.denominator * n
            if num <= den:
                num = den = 1
        self.divisor = Fraction(num, den)
        self.adjusted = tuple(p * den // num for p in profits)
        self.level_count = sum(self.adjusted) + 1
        self._profit = {it.id: it.profit for it in self.items}
        absent = self._absent = sum(it.weight for it in self.items) + 1

        rows = [[0]]
        for it, a in zip(reversed(self.items), reversed(self.adjusted)):
            nxt, w = rows[-1], it.weight
            # taking item i moves level q of row i + 1 to level q + a; cells
            # stay <= absent, since a minimum with x <= absent needs no clamp
            row = nxt[:a] + [absent] * (a - len(nxt))
            row += [x if x <= (t := y + w) else t for x, y in zip(nxt[a:], nxt)]
            row += [y + w if y < absent else absent for y in nxt[len(row) - a:]]
            rows.append(row)
        rows.reverse()
        self._rows = rows

    def true_profit(self, ids: Iterable[int]) -> int:
        return sum(self._profit[i] for i in ids)

    def min_weight(self, p: int) -> Optional[int]:
        if 0 <= p < self.level_count and self._rows[0][p] < self._absent:
            return self._rows[0][p]
        return None

    def levels_within(self, capacity: int) -> Iterator[tuple[int, int]]:
        """``(p, min_weight(p))`` for each level within ``capacity``, highest first."""
        row, limit = self._rows[0], min(capacity, self._absent - 1)
        return ((p, row[p]) for p in range(self.level_count - 1, -1, -1) if row[p] <= limit)

    def witness(self, p: int) -> Optional[tuple[int, ...]]:
        """The smallest id set among the minimum-weight subsets at level ``p``."""
        rem_p, rem_w = p, self.min_weight(p)
        if rem_w is None:
            return None
        ids: list[int] = []
        rows, adjusted = self._rows, self.adjusted
        for i, it in enumerate(self.items):
            if rem_p == 0 and rem_w == 0:
                break
            # rem_p stays within row i's levels, so rem_p - a is within row i + 1's
            a = adjusted[i]
            if a <= rem_p and it.weight + rows[i + 1][rem_p - a] == rem_w:
                ids.append(it.id)
                rem_p -= a
                rem_w -= it.weight
        assert rem_p == 0 and rem_w == 0, "table walk out of sync"
        return tuple(ids)


class CapacityProfitTable(UnboundedProfitTable):
    """``UnboundedProfitTable`` behind the bounded table's constructor and
    scan, so the package's knapsack routines can run on it.  Like the bounded
    table, it keeps only the items that fit the capacity."""

    def __init__(self, items, capacity: int, eps=None):
        super().__init__([it for it in items if it.weight <= capacity], eps)
        self.capacity = capacity

    def levels(self):
        return self.levels_within(self.capacity)


def knapsack_fptas_full_scan(items, capacity: int, eps, table_cls):
    """``knapsack_fptas`` with a scan that never stops early.

    Every fitting level of ``table_cls(fitting items, eps)`` is reconstructed,
    in ascending order, and the best by (true profit, smaller weight, larger
    id tuple) is kept.  Returns ``(ids, profit)``.
    """
    fitting = [it for it in sorted(items, key=lambda it: it.id) if it.weight <= capacity]
    if not fitting or max(it.profit for it in fitting) == 0:
        return (), 0
    table = table_cls(fitting, eps)
    levels = [p for p in range(table.level_count)
              if table.min_weight(p) is not None and table.min_weight(p) <= capacity]
    if table.divisor == 1:
        return table.witness(levels[-1]), levels[-1]
    best = None
    for p in levels:
        ids = table.witness(p)
        cand = (table.true_profit(ids), -table.min_weight(p), ids)
        if best is None or cand > best:
            best = cand
    return best[2], best[0]


# ``ProfitTable``'s row loop as it was before its rows were packed ints,
# copied unchanged: whole-row list operations, then a trim.  Differential
# reference for the packed kernel of ``graphsack.ProfitTable``.

def list_kernel_rows(items: Sequence[Item], adjusted: Sequence[int],
                     absent: int) -> list[list[int]]:
    """The min-weight rows of ``items`` (sorted by id) at their adjusted
    profits, heavier cells holding ``absent``; row 0 has the level count."""
    rows = [[0]]
    for it, a in zip(reversed(items), reversed(adjusted)):
        nxt, w = rows[-1], it.weight
        # taking item i moves level q of row i + 1 to level q + a; a minimum
        # with x <= absent needs no clamp, and a new cell y + w is clamped
        row = nxt[:a] + [absent] * (a - len(nxt))
        row += [x if x <= (t := y + w) else t for x, y in zip(nxt[a:], nxt)]
        row += [t if (t := y + w) < absent else absent for y in nxt[len(row) - a:]]
        while row[-1] == absent:
            row.pop()
        rows.append(row)
    rows.reverse()
    return rows


# The two star oracles as they were before they pruned: every center, every
# fitting level, a witness walk per level.  Differential references for
# ``graphsack.stars``.

def _leaf_items(instance: Instance, center: int, leaf_budget: int) -> list[Item]:
    return [Item(u, instance.weights[u], instance.profits[u])
            for u in instance.adj[center] if instance.weights[u] <= leaf_budget]


def best_profit_viable_star_full_scan(instance: Instance, capacity: int, eps) -> Optional[Star]:
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
        table = NonemptyProfitTable(items, eps)
        for p in range(table.level_count):
            w = table.nonempty_min_weight(p)
            if w is None or w > capacity - wv:
                continue
            ids = table.nonempty_witness(p)
            offer(Star(v, tuple(sorted(ids))), pv + table.true_profit(ids), wv + w)
    return best[2] if best else None


def best_ratio_viable_star_full_scan(instance: Instance, capacity: int, eps) -> Optional[Star]:
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
        table = NonemptyProfitTable(items, eps)
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
                sub = NonemptyProfitTable(others, eps)
                for p in range(sub.level_count):
                    w = sub.min_weight(p)
                    if w is not None and w <= rest_budget:
                        offer_leaves(sub.witness(p), extra=(guess.id,))
    return best[0] if best else None


def star_ratio_key(instance: Instance, star: Star) -> int:
    """The :func:`ratio_key` of ``star``'s vertices, center included."""
    return ratio_key(instance.total_profit(star.vertices), instance.total_weight(star.vertices))


def ignoring_floor(oracle: Callable) -> Callable:
    """The 4-argument ratio oracle that greedy-1n calls, made from a
    3-argument ``oracle``: it ignores the floor, as the contract allows."""
    def call(instance: Instance, capacity: int, eps, floor: Optional[int]) -> Optional[Star]:
        return oracle(instance, capacity, eps)
    return call


def applying_floor(oracle: Callable) -> Callable:
    """The 4-argument ratio oracle made from a 3-argument ``oracle`` that
    applies the floor after the fact: None when the star's :func:`ratio_key`
    is below it."""
    def call(instance: Instance, capacity: int, eps, floor: Optional[int]) -> Optional[Star]:
        star = oracle(instance, capacity, eps)
        if star is None or floor is None or star_ratio_key(instance, star) >= floor:
            return star
        return None
    return call


# greedy-1n as it was before it kept its ratio keys and its boundary across
# rounds: a ratio key per boundary vertex per round, and ``in_boundary`` over
# the whole chosen set each round.  Differential reference for the greedy loop
# of ``graphsack.one_neighbour``; the oracles are the package's.

def greedy_1_neighbour_rescan(instance: Instance, k: Optional[int] = None, eps=0.1,
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
    chosen: set[int] = set()                               # U
    remaining = k                                          # K
    boundary: tuple[int, ...] = ()                         # Z = N^-(U)
    alive = set(range(instance.n))                         # V(G')
    s_max = profit_oracle(instance, k, eps)                # S_max
    iterations: list[dict] = []
    while True:
        # of equal ratios, max keeps the first vertex (Z is sorted) and the star wins
        node = max((v for v in boundary if weights[v] <= remaining),
                   key=lambda v: ratio_key(profits[v], weights[v]), default=None)
        floor = None if node is None else ratio_key(profits[node], weights[node])
        sub, ids = instance.induced(alive)
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
        alive.difference_update(pick)
        boundary = in_boundary(instance, chosen)
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


# The directed all-neighbour PTAS as it was before its ready heap: a closure
# for every SCC, and a rescan of the light list after each absorption.  It
# still tries every pick that fits the budget; its ``guesses`` counts them up
# to the first whose padded closure weighs k, where the solver stops.
# Differential reference for ``graphsack.all_neighbour``.

def uniform_directed_alln_ptas_rescan(instance: Instance, k: Optional[int] = None,
                                      eps=0.25) -> Solution:
    require("uda-ptas", instance)
    eps = eps_fraction(eps)
    k = instance.solver_budget(k)

    cond = condense(instance)
    closures = [frozenset(descendants(cond, [u])) for u in range(cond.scc_count)]
    scc_w = cond.scc_weight
    heavy = [u for u in range(cond.scc_count) if scc_w[u] > eps * k]
    light = [u for u in range(cond.scc_count) if not scc_w[u] > eps * k]

    best_units: frozenset[int] = frozenset()
    best_weight = 0
    guesses = 0
    filled_at = None  # guesses up to the first whose closure weighs k
    for size in range(0, int(1 / eps) + 1):
        for pick in combinations(heavy, size):
            units: set[int] = set()
            for u in pick:
                units.update(closures[u])
            weight = sum(scc_w[u] for u in units)
            if weight > k:
                continue
            guesses += 1
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
            if weight == k and filled_at is None:
                filled_at = guesses

    chosen = sorted(v for u in best_units for v in cond.scc_vertices[u])
    trace = {"guesses": filled_at or guesses, "units": tuple(sorted(best_units))}
    return make_solution(instance, chosen, ALL_NEIGHBOUR, "uda-ptas",
                         f"{float(1 - eps):g}", k, trace)


# The smallest-cycle search as it was before its depth bound: a full BFS from
# every member of the SCC.  Differential reference for
# ``graphsack.graphs._smallest_cycle_in_scc``.

def smallest_cycle_full_scan(instance: Instance, members: Sequence[int]) -> tuple[int, ...]:
    """Shortest directed cycle within one SCC (assumed strongly connected).

    Ties break toward the lexicographically smallest vertex sequence starting
    at the smallest id that lies on any shortest cycle.
    """
    if len(members) == 1:
        return (members[0],)
    inside = set(members)
    out = {v: [u for u in instance.adj[v] if u in inside] for v in members}
    into = {v: [u for u in instance.radj[v] if u in inside] for v in members}

    def dists_from(s: int, nbrs) -> dict[int, int]:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in nbrs[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    # Shortest cycle through s = min over in-arcs (u -> s) of dist(s, u) + 1.
    through: dict[int, int] = {}
    for s in members:
        dist = dists_from(s, out)
        best = min((dist[u] + 1 for u in into[s] if u in dist), default=0)
        if best:
            through[s] = best
    girth = min(through.values())
    start = min(v for v, g in through.items() if g == girth)

    # Any closed walk of length == girth is a simple cycle, so a greedy
    # lexicographic walk constrained by distance-to-start is safe.
    back = dists_from(start, into)  # back[v] = dist(v -> start)
    cycle = [start]
    v = start
    for step in range(1, girth):
        v = min(u for u in out[v] if back.get(u) == girth - step)
        cycle.append(v)
    return tuple(cycle)


def random_instance(rng: random.Random, n: int, directed: bool,
                    edge_prob: float, w_max: int, p_max: int, k: int) -> Instance:
    edges = []
    if directed:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in pairs:
        if rng.random() < edge_prob:
            edges.append((u, v))
    weights = [rng.randint(0, w_max) for _ in range(n)]
    profits = [rng.randint(0, p_max) for _ in range(n)]
    return Instance(directed, n, edges, weights, profits, k)


def random_uniform(rng: random.Random, n: int, directed: bool,
                   edge_prob: float, k: int) -> Instance:
    inst = random_instance(rng, n, directed, edge_prob, 1, 1, k)
    return Instance(directed, n, inst.edges, [1] * n, [1] * n, k)


@st.composite
def planted_cycle_graphs(draw, directed=st.just(True), max_n: int = 40,
                         values=st.integers(0, 9)) -> Instance:
    """Graphs on 0 to ``max_n`` vertices: each arc present with probability p
    (0 and 1 included, so no arcs and complete graphs; up to 3/n, so sparse
    graphs whose condensation has arcs), optionally kept only from lower to
    higher ids (a DAG, so a dense condensation), optionally on top of disjoint
    cycles through a permutation of the vertices, so that some SCCs are large.
    Weights and profits are drawn from ``values``; the budget is 0."""
    is_directed = draw(directed)
    n = draw(st.integers(0, max_n))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1),
                       st.integers(1, 30).map(lambda t: t / 10 / max(n, 1))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
    if draw(st.booleans()):
        arcs = {(u, v) for u, v in arcs if u < v}
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n // 2)))
        for a, b in zip([0] + cuts, cuts + [n]):
            cycle = order[a:b]
            if len(cycle) > 1:
                arcs.update(zip(cycle, cycle[1:] + cycle[:1]))
    if not is_directed:
        arcs = {(min(u, v), max(u, v)) for u, v in arcs}
    weights = draw(st.lists(values, min_size=n, max_size=n))
    profits = draw(st.lists(values, min_size=n, max_size=n))
    return Instance(is_directed, n, sorted(arcs), weights, profits, 0)


@st.composite
def undirected_shapes(draw, max_n: int = 14) -> Instance:
    """Unit undirected graphs on 0 to ``max_n`` vertices, ids shuffled: either
    random edges (each pair with one drawn probability, 0 and 1 included), or
    blocks of consecutive shuffled vertices, each an isolated vertex, a path,
    a star, a clique or a random graph, so many small components too."""
    n = draw(st.integers(0, max_n))
    ids = draw(st.permutations(range(n)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    edges = set()
    if draw(st.booleans()):
        p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n)))
        for a, b in zip([0] + cuts, cuts + [n]):
            block = ids[a:b]
            shape = draw(st.sampled_from(["isolated", "path", "star", "clique", "random"]))
            if shape == "isolated":
                continue
            if shape == "path":
                edges.update(zip(block, block[1:]))
            elif shape == "star":
                edges.update((block[0], u) for u in block[1:])
            else:
                edges.update((u, v) for u, v in combinations(block, 2)
                             if shape == "clique" or rng.random() < 0.5)
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Instance(False, n, edges, [1] * n, [1] * n, 0)

def load_perfbench(stem: str):
    """``perfbench/<stem>.py``, loaded by path and only read from.  Its own
    imports of other ``perfbench`` modules resolve while it loads."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                  PERFBENCH / f"{stem}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


# ``condense`` as it was before its two-pass (Kosaraju-Sharir) form: an
# iterative Tarjan, then a membership loop and a loop over the edges.
# Differential reference for ``graphsack.graphs.condense``.

def _tarjan_sccs(n: int, adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns SCCs in reverse topological order."""
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]  # the DFS path, each with its arcs left
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


def condense_tarjan(instance: Instance) -> Condensation:
    """Contract maximal SCCs of a directed instance into a DAG."""
    if not instance.directed:
        raise ValidationError("condense requires a directed instance")
    sccs = _tarjan_sccs(instance.n, instance.adj)
    sccs.reverse()  # topological order: sources first
    membership = [0] * instance.n
    for i, comp in enumerate(sccs):
        for v in comp:
            membership[v] = i
    dag: list[set[int]] = [set() for _ in sccs]
    for u, v in instance.edges:
        cu, cv = membership[u], membership[v]
        if cu != cv:
            dag[cu].add(cv)
    scc_vertices = tuple(tuple(sorted(comp)) for comp in sccs)
    return Condensation(
        scc_count=len(sccs),
        membership=tuple(membership),
        scc_vertices=scc_vertices,
        dag_adjacency=tuple(tuple(sorted(s)) for s in dag),
        scc_weight=tuple(instance.total_weight(comp) for comp in scc_vertices),
    )


# ``connected_components`` as it was before it became a sorted view of
# ``condense``: a breadth-first search from every unseen vertex.  Differential
# reference for ``graphsack.graphs.connected_components``.

def connected_components_bfs(instance: Instance) -> list[tuple[int, ...]]:
    """Connected components of an undirected instance.

    Returned in decreasing order of size, ties broken by smallest contained
    vertex id; each component is a sorted vertex tuple.
    """
    if instance.directed:
        raise ValidationError("connected_components requires an undirected instance")
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in range(instance.n):
        if start not in seen:
            comp = sorted([v for layer in _bfs_layers(instance.adj, start) for v in layer])
            seen.update(comp)
            comps.append(tuple(comp))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps



# ``graphsack.graphs.bfs_parents`` and its two callers as they were before
# ``_bfs_layers`` became the one breadth-first walk: ``star_partition`` walked
# the components of ``connected_components``, and ``uniform_undirected_1n``
# read its prefix orders off the parent dict.  Differential references for
# ``graphsack.stars.star_partition`` and
# ``graphsack.one_neighbour.uniform_undirected_1n``.

def bfs_parents(instance: Instance, root: int) -> dict[int, int]:
    """Breadth-first tree from ``root``: vertex -> parent (the root's is -1).

    Keys come in visit order, neighbours visited in ``adj`` order.
    """
    parent = {root: -1}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in instance.adj[v]:
                if u not in parent:
                    parent[u] = v
                    nxt.append(u)
        frontier = nxt
    return parent


def star_partition_per_component(instance: Instance) -> list[Star]:
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


def uniform_undirected_1n_bfs_parents(instance: Instance, k: Optional[int] = None) -> Solution:
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

    order = list(bfs_parents(instance, comps[i][0]))
    r = k - prefix
    if r > 1:
        return done(taken + order[:r])
    if len(comps[-1]) == 1:
        return done(taken + [comps[-1][0]])
    if k == 1:
        return done(())
    # Some component has >= 3 vertices; shrink the first one by a BFS-tree
    # leaf (the last BFS vertex), freeing budget for an adjacent pair here.
    first = list(bfs_parents(instance, comps[0][0]))
    shrunk = first[:-1]
    rest = [v for c in comps[1:i] for v in c]
    return done(shrunk + rest + order[:2])

# ``exact_alln`` as it was before its closed-set search: a scan of all 2^s
# unit subsets that drops the unclosed ones.  Differential reference for
# ``graphsack.oracle.exact_alln``.

def exact_alln_mask_scan(instance: Instance, k: Optional[int] = None,
                         max_n: int = DEFAULT_MAX_N) -> Solution:
    """Maximum-profit all-neighbour set of weight <= k.

    Feasible sets are exactly unions of descendant closures in the
    condensation (connected components in the undirected case), so the
    enumeration runs over closed SCC subsets, not vertex subsets.
    """
    require("exact-all", instance, max_n)
    k = instance.solver_budget(k)
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


# ``exact_1n`` as it was before its ``doomed`` mask: a scan of the unsupported
# members against a ``future`` table at every node.  Differential reference
# for ``graphsack.oracle.exact_1n``.

def exact_1n_support_scan(instance: Instance, k: Optional[int] = None,
                          max_n: int = DEFAULT_MAX_N) -> Solution:
    """Maximum-profit 1-neighbour set of weight <= k, by pruned search.

    Ties break toward smaller weight, then the lexicographically smallest
    vertex tuple.
    """
    require("exact-1n", instance, max_n)
    k = instance.solver_budget(k)
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


# ``exact_1n`` as it was before its budget prunes: only the profit bound and
# the ``doomed`` mask, so it walks every node that can still tie the best.
# Differential reference for ``graphsack.oracle.exact_1n``.

def exact_1n_profit_bound(instance: Instance, k: Optional[int] = None,
                          max_n: int = DEFAULT_MAX_N) -> Solution:
    """Maximum-profit 1-neighbour set of weight <= k, by pruned search.

    A node is pruned when its profit plus all undecided profit is below the
    best, or when a member has no chosen neighbour and none still undecided:
    no completion can then win or be feasible, so both prunes are exact.  Ties
    break toward smaller weight, then the lexicographically smallest tuple.
    """
    require("exact-1n", instance, max_n)
    k = instance.solver_budget(k)
    n = instance.n
    adj_mask = [sum(1 << u for u in nbrs) for nbrs in instance.adj]
    radj_mask = [sum(1 << u for u in nbrs) for nbrs in instance.radj]
    suffix_profit = [*accumulate(reversed(instance.profits), initial=0)][::-1]
    # doomed[i]: the vertices whose neighbours all lie below i (lists ascend)
    doomed = [0] * (n + 1)
    for v, nbrs in enumerate(instance.adj):
        if nbrs:
            doomed[nbrs[-1] + 1] |= 1 << v
    doomed = [*accumulate(doomed, or_)]

    best_profit, best_weight, best_verts = 0, 0, ()
    # depth-first over (next vertex, mask, profit, weight, unsupported members),
    # on a stack: the include branch is pushed last, so it is searched first
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, mask, profit, weight, unsupported = stack.pop()
        if profit + suffix_profit[i] < best_profit or unsupported & doomed[i]:
            continue
        if i == n:
            if (profit, -weight) < (best_profit, -best_weight):
                continue
            verts = tuple(v for v in range(n) if mask >> v & 1)
            if (profit, weight) == (best_profit, best_weight) and verts >= best_verts:
                continue
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


def exact_1n_pops(call: Callable[[], T]) -> tuple[T, int]:
    """``call()``'s result and the nodes ``graphsack.oracle.exact_1n`` popped
    during it, counted by a ``sys.settrace`` line counter on its
    ``stack.pop()``.  Deterministic, so it pins work, not time."""
    lines, first = inspect.getsourcelines(oracle.exact_1n)
    pop_line = first + next(i for i, line in enumerate(lines) if "stack.pop()" in line)
    pops = 0

    def count_pops(frame, event, _arg):
        nonlocal pops
        if event == "line" and frame.f_lineno == pop_line:
            pops += 1
        return count_pops

    def trace(frame, _event, _arg):
        return count_pops if frame.f_code is oracle.exact_1n.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, pops


# ``graphsack.one_neighbour._grow_1n`` as it was before its (scan, id) heap:
# one full scan of the vertices per pass.  Differential reference.

def grow_1n_passes(instance: Instance, chosen: set[int], k: int) -> None:
    """Extend a feasible seed by any vertex it can support, up to k vertices."""
    while len(chosen) < k:
        added = False
        for v in range(instance.n):
            if v in chosen:
                continue
            if instance.degree(v) == 0 or any(u in chosen for u in instance.adj[v]):
                chosen.add(v)
                added = True
                if len(chosen) == k:
                    return
        if not added:
            return


# ``uniform_directed_1n_ptas`` as it was before it computed smallest cycles on
# demand: the smallest cycle of every SCC, up front, and the classes read off
# their lengths.  Differential reference for
# ``graphsack.one_neighbour.uniform_directed_1n_ptas``.

def uniform_directed_1n_ptas_all_cycles(instance: Instance, k: Optional[int] = None,
                                        eps=0.25) -> Solution:
    """(1-eps)-approximation for unit weights/profits on directed graphs.

    Classifies SCCs by smallest-cycle length into large / petite / tiny,
    guesses every set of large SCCs whose smallest cycles fit the budget
    together (fewer than 1/eps, as each is longer than eps * k), seeds the
    knapsack with smallest cycles of the guessed SCCs plus affordable sink
    SCCs, and grows it by a backwards search.  Falls back to the exhaustive
    search when eps <= 1/k.  The trace records, per guess, whether every
    candidate sink was taken (the branch where the result is provably
    optimal).
    """
    require("ud1n-ptas", instance)
    eps = eps_fraction(eps)
    k = instance.solver_budget(k)
    if k == 0:
        return make_solution(instance, (), ONE_NEIGHBOUR, "ud1n-ptas",
                             "exact", k, {"fallback": "trivial"})
    if eps <= Fraction(1, k):
        # k < 1/eps, so trying every vertex subset of size <= k stays
        # polynomial for fixed eps; sizes descend, so the first feasible
        # combination (lexicographically smallest at its size) is optimal.
        chosen = next((c for size in range(min(k, instance.n), 0, -1)
                       for c in combinations(range(instance.n), size)
                       if is_1_neighbour_set(instance, c)), ())
        return make_solution(instance, chosen, ONE_NEIGHBOUR, "ud1n-ptas",
                             "exact", k, {"fallback": "exhaustive"})

    cond = condense(instance)
    cycles = [_smallest_cycle_in_scc(instance, comp) for comp in cond.scc_vertices]
    cycle_len = [len(c) for c in cycles]
    limit = eps.numerator * k  # length > eps * k, in integers
    large = [u for u in range(cond.scc_count) if cycle_len[u] * eps.denominator > limit]
    petite = {u for u in range(cond.scc_count)
              if 1 < cycle_len[u] and cycle_len[u] * eps.denominator <= limit}
    tiny_sinks = [u for u in range(cond.scc_count)
                  if cycle_len[u] == 1 and not cond.dag_adjacency[u]]

    def cost(guess) -> int:
        return sum(cycle_len[u] for u in guess)

    best: Optional[tuple[int, ...]] = None
    best_entry: Optional[dict] = None
    entries: list[dict] = []
    for guess in fitting_picks(large, k, cost):
        in_dx = petite | set(guess)
        petite_sinks = [u for u in sorted(petite)
                        if not any(w in in_dx for w in cond.dag_adjacency[u])]
        zset = sorted(set(tiny_sinks) | set(petite_sinks))
        taken = []
        budget = k - cost(guess)
        for u in sorted(zset, key=lambda u: (cycle_len[u], u)):
            c = cycle_len[u]
            if c <= budget:
                taken.append(u)
                budget -= c
        chosen = set()
        for u in list(guess) + taken:
            chosen.update(cycles[u])
        grow_1n_passes(instance, chosen, k)
        entry = {"guess": guess, "candidate_sinks": tuple(zset),
                 "taken_sinks": tuple(sorted(taken)),
                 "complete": len(taken) == len(zset),
                 "size": len(chosen)}
        entries.append(entry)
        verts = tuple(sorted(chosen))
        if best is None or len(verts) > len(best) or \
                (len(verts) == len(best) and verts < best):
            best, best_entry = verts, entry

    trace = {"guesses": entries, "winner": best_entry,
             "complete": bool(best_entry and best_entry["complete"])}
    return make_solution(instance, best or (), ONE_NEIGHBOUR, "ud1n-ptas",
                         f"{float(1 - eps):g}", k, trace)


# The eps * k <= 1 branch of ``uniform_directed_1n_ptas`` as it was before it
# returned ``exact_1n``'s answer: every vertex subset of size <= k, by
# ``itertools.combinations``.  Differential reference for that branch.

def uniform_directed_1n_combinations(instance: Instance, k: Optional[int] = None,
                                     eps=0.25) -> Solution:
    """Exact answer for unit weights/profits on directed graphs, eps * k <= 1."""
    require("ud1n-ptas", instance)
    eps = eps_fraction(eps)
    k = instance.solver_budget(k)
    assert eps * k <= 1, "the combinations search is the eps * k <= 1 branch only"
    # k <= 1/eps, so trying every vertex subset of size <= k stays
    # polynomial for fixed eps; sizes descend, so the first feasible
    # combination (lexicographically smallest at its size) is optimal.
    chosen = next((c for size in range(min(k, instance.n), 0, -1)
                   for c in combinations(range(instance.n), size)
                   if is_1_neighbour_set(instance, c)), ())
    return make_solution(instance, chosen, ONE_NEIGHBOUR, "ud1n-ptas",
                         "exact", k, {"fallback": "exhaustive"})


@functools.cache
def perfbench_pool(workload: str) -> tuple:
    """Every member of a perfbench workload's pool, as ``(stem, text,
    constraint, variant)``; generated once per test run."""
    return tuple(load_perfbench("workloads").pool_members(workload))


def pool_answers_match_reference(workload: str, directory: Path) -> Counter:
    """Solve every pool member of a perfbench workload as the benchmark does,
    one ``graphsack.cli.main`` call each on a file written to ``directory``,
    and assert that the benchmark's own checker finds no problem against the
    recorded reference answer.  Returns how many members each variant
    solved."""
    workloads, check = load_perfbench("workloads"), load_perfbench("check")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    variants: Counter = Counter()
    for stem, text, constraint, variant in perfbench_pool(workload):
        path = directory / f"{stem}.txt"
        path.write_text(text, encoding="utf-8")
        request = workloads.solve_request(str(path), constraint, variant)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = graphsack.cli.main(list(request.argv))
        assert code == 0, (stem, out.getvalue())
        key = check.reference_key(text.encode(), constraint)
        assert check.check_solve(check.parse_graph(text), str(path), constraint, variant,
                                 out.getvalue(), reference.get(key)) == [], stem
        variants[variant] += 1
    return variants


# ``gen_random`` as it was before it read its draws in bulk: one ``random()``
# call per vertex pair.  Differential reference for the bulk read.

def gen_random_per_pair(n: int, edge_prob: float, directed: bool, w_max: int, p_max: int,
                        k: int, seed: int) -> Instance:
    """Deterministic G(n, p)-style instance with uniform weights/profits.

    Every (ordered, when directed) vertex pair becomes an edge independently
    with probability ``edge_prob``; weights/profits are uniform integers in
    [0, w_max] / [0, p_max].
    """
    if not 0 <= edge_prob <= 1:
        raise ValidationError("edge_prob must lie in [0, 1]")
    if n < 0 or w_max < 0 or p_max < 0 or k < 0:
        raise ValidationError("n, w_max, p_max, k must be non-negative")
    rng = random.Random(seed)
    edges = []
    if directed:
        pairs = ((u, v) for u in range(n) for v in range(n) if u != v)
    else:
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
    for u, v in pairs:
        if rng.random() < edge_prob:
            edges.append((u, v))
    weights = [rng.randint(0, w_max) for _ in range(n)]
    profits = [rng.randint(0, p_max) for _ in range(n)]
    prov = (f"gen_random n={n} edge_prob={edge_prob} directed={directed} "
            f"w_max={w_max} p_max={p_max} k={k} seed={seed}")
    return Instance(directed, n, edges, weights, profits, k, provenance=prov)


# ``graphsack.cli.route_auto`` as it was before it read the requirements
# table: its own ``if`` tree over the instance classes, copied unchanged.
# Differential reference for the table-driven routing.

def route_auto_if_tree(constraint: str, instance: Instance, oracle_max_n: int) -> str:
    """Pick the variant for (constraint, direction, weights and profits).

    Directed non-unit instances go to the exhaustive oracle when small
    enough; above that, weight = profit all-neighbour ones go to uda-ptas
    and the rest, hard to approximate, are refused.
    """
    uniform = instance.is_uniform()
    if constraint == ONE_NEIGHBOUR:
        if not instance.directed:
            return "uu1n-linear" if uniform else "greedy-1n"
        if uniform:
            return "ud1n-ptas"
        if instance.n <= oracle_max_n:
            return "exact-1n"
        raise UnsupportedVariantError(
            "general directed one-neighbour instances have no approximation "
            "variant (the problem is 1/Omega(log^(1-eps) n)-hard to "
            f"approximate); the exhaustive search is limited to n <= {oracle_max_n}")
    if not instance.directed:
        return "uua-subsetsum" if uniform else "gua-fptas"
    if uniform:
        return "uda-ptas"
    if instance.n <= oracle_max_n:
        return "exact-all"
    if instance.weights == instance.profits:
        return "uda-ptas"
    raise UnsupportedVariantError(
        "general directed all-neighbour instances have no approximation "
        "variant (the problem is 2^(log^d n)-hard to approximate); the "
        f"exhaustive search is limited to n <= {oracle_max_n}")
