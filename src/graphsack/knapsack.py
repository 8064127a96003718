"""Classic 0-1 knapsack primitives built on a min-weight-per-profit table.

:class:`ProfitTable` alone decides which items fit the capacity; it drops the
heavier ones before it scales profits, so the exact solver and the FPTAS
hand it their raw items.

All arithmetic is exact: weights/profits are Python ints and every ratio
comparison goes through :func:`ratio_key`, an int key that orders
profit/weight pairs exactly (a floor of the ratio scaled by 2**256), with
explicit conventions for zero weights.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ValidationError
from .graphs import _is_int

PROFIT_TABLE_BOUND = 1 << 40
_ONE = Fraction(1)
_CELL_FORMATS = {2: "H", 4: "I", 8: "Q"}  # memoryview formats by cell size
_ITEM_FIELDS = attrgetter("id", "weight", "profit")


@dataclass(frozen=True)
class Item:
    """One knapsack item.  ``id`` must be unique within an item list."""

    id: int
    weight: int
    profit: int

    def __post_init__(self):
        try:
            negative = self.weight < 0 or self.profit < 0
        except TypeError:  # the message of ``_check_items``
            raise ValidationError(
                f"item {self.id!r}: id, weight and profit must be integers") from None
        if negative:
            raise ValidationError(f"item {self.id}: negative weight or profit")


def eps_fraction(eps) -> Fraction:
    """Validate an approximation parameter and return it as an exact Fraction.

    Floats are read through their decimal string form, so ``0.1`` means 1/10.
    Anything that is not a number, ``nan``, ``inf`` and strings included, is rejected.
    """
    if type(eps) is Fraction and 0 < eps.numerator < eps.denominator:
        return eps
    try:
        if isinstance(eps, str):  # Fraction would parse it
            raise TypeError(f"a string is not a number: {eps!r}")
        value = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ValidationError(f"epsilon must be a number in (0, 1), got {eps!r}") from exc
    if not 0 < value < 1:
        raise ValidationError(f"epsilon must be in (0, 1), got {eps}")
    return value


_RATIO_LIMIT = 1 << 128  # profits and weights must stay below it
_RATIO_TOP = 1 << 384    # zero weight, positive profit: above every finite key


def ratio_key(profit: int, weight: int) -> int:
    """Sort key realizing the exact profit-to-weight total order, as an int.

    For non-negative integers, ``(p1,w1) >= (p2,w2)`` iff ``p1*w2 >= p2*w1``,
    with two conventions on top: every zero-weight positive-profit set ranks
    above all positive-weight sets (and ties with the others of its kind),
    and a (0, 0) set ranks above the (0, w>0) sets and below every positive
    ratio.  Keys are plain ints, so sorts, ``max`` and tuple keys compare
    them in C.

    A positive weight gives ``(profit << 256) // weight``.  Both values must
    be below 2**128, else :class:`ValidationError`: then two different ratios
    differ by at least ``1 / (w1 * w2) > 2**-256``, so their scaled values
    differ by more than 1 and their floors differ in the same direction,
    while equal ratios scale to equal floors.  A positive ratio is at least
    ``2**256 / 2**128 > 1``, above (0, 0)'s key 1 and (0, w>0)'s key 0, and
    every finite key is below ``2**128 << 256``, the zero-weight class's key.
    Every total of an :class:`~graphsack.graphs.Instance` is below
    ``n * 2**63``, well inside the domain.
    """
    if profit >= _RATIO_LIMIT or weight >= _RATIO_LIMIT:
        raise ValidationError("ratio_key needs profit and weight below 2^128")
    if weight:
        return (profit << 256) // weight
    return _RATIO_TOP if profit else 1


def _check_capacity(capacity, name: str = "capacity") -> None:
    if not _is_int(capacity):
        raise ValidationError(f"{name} must be an integer, got {capacity!r}")
    if capacity < 0:
        raise ValidationError(f"{name} must be non-negative")


def _check_items(items: Iterable[Item]) -> list[Item]:
    out = list(items)
    # plain ints pass at C speed; the loop names the first bad item
    if not {*map(type, chain.from_iterable(map(_ITEM_FIELDS, out)))} <= {int}:
        for it in out:
            if not all(map(_is_int, _ITEM_FIELDS(it))):
                raise ValidationError(f"item {it.id!r}: id, weight and profit must be integers")
    out.sort(key=lambda it: it.id)
    for a, b in zip(out, out[1:]):
        if a.id == b.id:
            raise ValidationError(f"duplicate item id {a.id}")
    return out


class ProfitTable:
    """Minimum subset weight per exact (adjusted) profit level, within a capacity.

    The table is the one place that decides which items fit: after checking
    the capacity and the items it keeps, in ``items``, those of weight within
    the capacity, sorted by id.  ``min_weight(p)`` is the least total weight, within ``capacity``, of any
    subset whose adjusted profit is exactly ``p`` (``None`` if none fits), and
    ``witness(p)`` the lexicographically smallest id set among those
    minimum-weight subsets.  ``levels()`` is the one scan over the table.
    Level 0 always has minimum weight 0 and witness ``()``, so a scan for
    non-empty sets stops before it.  With ``eps`` given, profits are scaled by
    the FPTAS divisor ``eps * max_profit / n`` over the kept items, clamped to
    >= 1 so adjusted profits never exceed true profits (the table is then
    exact).  Their adjusted profits must total below ``PROFIT_TABLE_BOUND``,
    else :class:`ValidationError` before any row is built.

    Row ``i`` covers ``items[i:]`` and ends at the highest level they reach
    within the capacity.  It is built from row ``i + 1`` by a few whole-row
    int operations on packed cells (SWAR; Lamport, CACM 18(8), 1975).  A
    packed cell holds the slack ``capacity + 1 - weight`` under a guard bit,
    and a level no subset reaches within the capacity holds 0, so taking
    item ``i`` is a saturating subtraction of its weight, shifted up its
    adjusted profit, and the new row is the fieldwise maximum of the two.  The
    guard mask of the row's length is carried from item to item.  Rows are
    stored as those slacks, ``bytes`` for one-byte cells, a ``memoryview``
    for cells of 2 to 8 bytes, else a list, and a cell reads as the weight
    ``capacity + 1 - slack``.

    A fitting cell is a non-zero one.  The scan and the witness walk read
    only fitting cells, or compare a cell with a fitting slack plus a weight.
    The walk's ``rem_p`` fits in row ``i`` (in row ``i + 1`` or by taking
    item ``i``), so ``rem_p - a`` is inside row ``i + 1``.
    """

    def __init__(self, items: Iterable[Item], capacity: int, eps=None):
        _check_capacity(capacity)
        self.items = [it for it in _check_items(items) if it.weight <= capacity]
        n = len(self.items)
        profits = [it.profit for it in self.items]
        self.divisor, self.adjusted = _ONE, tuple(profits)
        if eps is not None and n > 0:
            eps = eps_fraction(eps)
            num, den = eps.numerator * max(profits), eps.denominator * n
            if num > den:  # else the divisor is clamped to 1
                self.divisor = Fraction(num, den)
                self.adjusted = tuple(p * den // num for p in profits)
        if sum(self.adjusted) >= PROFIT_TABLE_BOUND:
            raise ValidationError("total profit exceeds the DP table bound (2^40)")
        self._profit = {it.id: it.profit for it in self.items}
        absent = self._absent = capacity + 1

        # A row is one int of ``size`` bytes per cell; a cell holds the slack
        # ``absent - weight`` under a zero guard bit, so an absent cell is 0.
        size = (absent.bit_length() + 8) // 8
        if size <= 8:
            size = 1 << (size - 1).bit_length()  # a memoryview format's width
        bits, top = 8 * size, 8 * size - 1
        guard = (1 << top).to_bytes(size, "little")
        row, length, cells = absent, 1, 1
        guards = h = 1 << top  # the guard bits of ``cells`` cells, and h of ``length``
        rows = [row.to_bytes(size, "little")]
        for it, a in zip(reversed(self.items), reversed(self.adjusted)):
            # take: each slack less the weight, saturating at 0, moved up a cells
            d = (row | h) - (h >> top) * it.weight
            g = d & h
            take = (d & (g - (g >> top))) << a * bits
            if take.bit_length() > length * bits:  # h changes only as the row grows
                length = -(-take.bit_length() // bits)
                if length > cells:
                    cells = max(length, 2 * cells)
                    guards = int.from_bytes(guard * cells, "little")
                h = guards >> (cells - length) * bits
            # the fieldwise max: a guard bit survives where row >= take
            g = ((row | h) - take) & h
            row = take ^ ((row ^ take) & (g - (g >> top)))
            rows.append(row.to_bytes(length * size, "little"))
        rows.reverse()
        if size > 1:  # bytes index as one-byte cells
            fmt = _CELL_FORMATS.get(size) if sys.byteorder == "little" else None
            rows = [memoryview(buf).cast(fmt) if fmt else
                    [int.from_bytes(buf[j:j + size], "little") for j in range(0, len(buf), size)]
                    for buf in rows]
        self._rows, self.level_count = rows, length

    def true_profit(self, ids: Iterable[int]) -> int:
        return sum(self._profit[i] for i in ids)

    def min_weight(self, p: int) -> Optional[int]:
        if not (type(p) is int or _is_int(p)):
            raise ValidationError(f"level must be an integer, got {p!r}")
        if 0 <= p < self.level_count and (slack := self._rows[0][p]):
            return self._absent - slack
        return None

    def levels(self) -> Iterator[tuple[int, int]]:
        """``(p, min_weight(p))`` for each level within the capacity, highest first."""
        row, absent = self._rows[0], self._absent
        return ((p, absent - row[p]) for p in range(self.level_count - 1, -1, -1) if row[p])

    def witness(self, p: int) -> Optional[tuple[int, ...]]:
        """The smallest id set among the minimum-weight subsets at level ``p``."""
        if self.min_weight(p) is None:
            return None
        ids: list[int] = []
        rows, adjusted, absent = self._rows, self.adjusted, self._absent
        rem_p, rem_s = p, rows[0][p]  # rem_s: absent less the weight left to walk
        for i, it in enumerate(self.items):
            if rem_p == 0 and rem_s == absent:
                break
            a = adjusted[i]
            if a <= rem_p and rows[i + 1][rem_p - a] == rem_s + it.weight:
                ids.append(it.id)
                rem_p -= a
                rem_s += it.weight
        assert rem_p == 0 and rem_s == absent, "table walk out of sync"
        return tuple(ids)


def knapsack_exact(items: Sequence[Item], capacity: int) -> tuple[tuple[int, ...], int]:
    """Maximum-profit subset of weight <= capacity, computed exactly.

    Ties break toward smaller weight, then the lexicographically smallest id
    set.  The items that fit must total a profit below 2**40 (table bound);
    items heavier than the capacity do not count.
    """
    table = ProfitTable(items, capacity)  # checks the capacity, the items and the bound
    best_p, _ = next(table.levels())
    return table.witness(best_p), best_p


def knapsack_fptas(items: Sequence[Item], capacity: int, eps) -> tuple[tuple[int, ...], int]:
    """Feasible subset with profit >= (1 - eps) * optimum.

    Runs the profit-scaled min-weight DP, which drops the items heavier than
    the capacity before it scales, and reconstructs fitting levels from
    the top down, keeping the best by true profit, then smaller weight, then
    larger id tuple; so the result is never worse than the classic
    pick-highest-level rule.  With divisor ``num / den``, each fitting item
    loses ``den * profit - num * adjusted`` to rounding, less than ``num``, and
    ``L`` is the sum of those losses.  So a witness at level ``p`` has true
    profit at most ``(p * num + L) / den``, and the scan stops at the first
    level where ``p * num + L < best * den``: no level from there down can
    win or tie.  The test is strict because the bound can be reached, and a
    tie on profit must still be settled by weight and ids; so the result
    equals that of a scan over every level.  At divisor 1, ``L`` is 0 and the
    scan stops after one walk, at the top level: the exact optimum.
    """
    table = ProfitTable(items, capacity, eps_fraction(eps))
    num, den = table.divisor.numerator, table.divisor.denominator
    loss = den * sum(it.profit for it in table.items) - num * sum(table.adjusted)
    best = (-1, 0, ())  # true profit, -weight, ids; below every witness
    for p, w in table.levels():
        if p * num + loss < best[0] * den:
            break
        ids = table.witness(p)
        best = max(best, (table.true_profit(ids), -w, ids))
    return best[2], best[0]


def fitting_picks(candidates: Sequence, k: int,
                  cost: Callable[[tuple], int]) -> Iterator[tuple]:
    """Every pick from ``candidates``, in their order, with ``cost(pick) <= k``.

    Picks come by size, then in :func:`itertools.combinations` order within a
    size.  ``cost`` must not decrease as a pick grows, so only fitting picks
    need extending: the work is the fitting picks times the candidates.
    """
    # the fitting picks of one size, each with the position of its next candidate
    level = [((), 0)] if cost(()) <= k else []
    while level:
        yield from (pick for pick, _ in level)
        level = [(pick + (c,), j + 1) for pick, start in level
                 for j, c in enumerate(candidates[start:], start)
                 if cost(pick + (c,)) <= k]


def subset_sum_max(sizes: Sequence[int], k: int) -> tuple[tuple[int, ...], int]:
    """Index subset of ``sizes`` with maximum total not exceeding ``k``.

    Ties break toward the lexicographically smallest index set.  Achievable
    sums are tracked as bitmasks, one suffix mask per position, which also
    drives the witness walk.
    """
    _check_capacity(k, "k")
    for s in sizes:
        if not _is_int(s) or s <= 0:
            raise ValidationError("sizes must be positive integers")
    n = len(sizes)
    cap = min(k, sum(sizes))
    mask = (1 << (cap + 1)) - 1
    suffix = [0] * (n + 1)
    suffix[n] = 1
    for i in range(n - 1, -1, -1):
        suffix[i] = (suffix[i + 1] | (suffix[i + 1] << sizes[i])) & mask
    total = suffix[0].bit_length() - 1
    ids: list[int] = []
    rem = total
    for i in range(n):
        if rem == 0:
            break
        if sizes[i] <= rem and (suffix[i + 1] >> (rem - sizes[i])) & 1:
            ids.append(i)
            rem -= sizes[i]
    return tuple(ids), total
