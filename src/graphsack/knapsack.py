"""Classic 0-1 knapsack primitives built on a min-weight-per-profit table.

All arithmetic is exact: weights/profits are Python ints and every ratio
comparison goes through :func:`ratio_key`, which orders profit/weight pairs
by cross-multiplication with explicit conventions for zero weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ValidationError

PROFIT_TABLE_BOUND = 1 << 40


@dataclass(frozen=True)
class Item:
    """One knapsack item.  ``id`` must be unique within an item list."""

    id: int
    weight: int
    profit: int

    def __post_init__(self):
        if self.weight < 0 or self.profit < 0:
            raise ValidationError(f"item {self.id}: negative weight or profit")


def eps_fraction(eps) -> Fraction:
    """Validate an approximation parameter and return it as an exact Fraction.

    Floats are read through their decimal string form, so ``0.1`` means 1/10.
    Anything that is not a number, ``nan`` and ``inf`` included, is rejected.
    """
    try:
        value = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ValidationError(f"epsilon must be a number in (0, 1), got {eps!r}") from exc
    if not 0 < value < 1:
        raise ValidationError(f"epsilon must be in (0, 1), got {eps}")
    return value


class _RatioKey:
    """The ratio ``num / den`` (``den == 0`` is infinite), then ``rank``.

    Keys compare by integer cross-multiplication, so nothing is divided or
    reduced; ``rank`` orders keys whose ratios are equal.
    """

    __slots__ = ("num", "den", "rank")

    def __init__(self, num: int, den: int, rank: int):
        self.num, self.den, self.rank = num, den, rank

    def __lt__(self, other):
        d = self.num * other.den - other.num * self.den
        return d < 0 if d else self.rank < other.rank

    def __le__(self, other):
        d = self.num * other.den - other.num * self.den
        return d < 0 if d else self.rank <= other.rank

    def __gt__(self, other):
        d = self.num * other.den - other.num * self.den
        return d > 0 if d else self.rank > other.rank

    def __ge__(self, other):
        d = self.num * other.den - other.num * self.den
        return d > 0 if d else self.rank >= other.rank

    def __eq__(self, other):
        try:
            return self.num * other.den == other.num * self.den and self.rank == other.rank
        except AttributeError:
            return NotImplemented

    def __hash__(self):
        g = gcd(self.num, self.den)
        return hash((self.num // g, self.den // g, self.rank))

    def __repr__(self):
        return f"ratio_key({self.num}/{self.den}, rank={self.rank})"


def ratio_key(profit: int, weight: int) -> _RatioKey:
    """Sort key realizing the exact profit-to-weight total order.

    For non-negative integers, ``(p1,w1) >= (p2,w2)`` iff ``p1*w2 >= p2*w1``,
    with two conventions on top: every zero-weight positive-profit set ranks
    above all positive-weight sets (and ties with the others of its kind),
    and a (0, 0) set ranks above the (0, w>0) sets and below every positive
    ratio.  Keys support ``<``, ``<=``, ``>``, ``>=``, ``==`` and hashing,
    and compare by cross-multiplication without building a Fraction.
    """
    if weight:
        return _RatioKey(profit, weight, 0)
    return _RatioKey(1, 0, 0) if profit else _RatioKey(0, 1, 1)


def _check_items(items: Sequence[Item]) -> list[Item]:
    out = sorted(items, key=lambda it: it.id)
    for a, b in zip(out, out[1:]):
        if a.id == b.id:
            raise ValidationError(f"duplicate item id {a.id}")
    return out


class ProfitTable:
    """Minimum subset weight per exact (adjusted) profit level, within a capacity.

    ``min_weight(p)`` is the least total weight, within ``capacity``, of any
    subset whose adjusted profit is exactly ``p`` (``None`` if none fits), and
    ``witness(p)`` the lexicographically smallest id set among those
    minimum-weight subsets.  ``levels()`` is the one scan over the table.
    Level 0 always has minimum weight 0 and witness ``()``, so a scan for
    non-empty sets stops before it.  With ``eps`` given, profits are scaled by
    the FPTAS divisor ``eps * max_profit / n``, clamped to >= 1 so adjusted
    profits never exceed true profits (the table is then exact).

    Row ``i`` covers ``items[i:]``, is built from row ``i + 1`` by whole-row
    list operations, and ends at the highest level they reach within the
    capacity; heavier cells hold ``capacity + 1``.  A fitting cell is a
    minimum over lighter cells of row ``i + 1``, and the scan and the witness
    walk read only fitting cells or compare a cell plus a weight with a
    fitting weight.  The walk's ``rem_p`` fits in row ``i`` (in row ``i + 1``
    or by taking item ``i``), so ``rem_p - a`` is inside row ``i + 1``.
    """

    def __init__(self, items: Iterable[Item], capacity: int, eps=None):
        if capacity < 0:
            raise ValidationError("capacity must be non-negative")
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
        self._profit = {it.id: it.profit for it in self.items}
        absent = self._absent = capacity + 1

        rows = [[0]]
        for it, a in zip(reversed(self.items), reversed(self.adjusted)):
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
        self._rows, self.level_count = rows, len(rows[0])

    def true_profit(self, ids: Iterable[int]) -> int:
        return sum(self._profit[i] for i in ids)

    def min_weight(self, p: int) -> Optional[int]:
        if 0 <= p < self.level_count and self._rows[0][p] < self._absent:
            return self._rows[0][p]
        return None

    def levels(self) -> Iterator[tuple[int, int]]:
        """``(p, min_weight(p))`` for each level within the capacity, highest first."""
        row, absent = self._rows[0], self._absent
        return ((p, row[p]) for p in range(self.level_count - 1, -1, -1) if row[p] < absent)

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
            a = adjusted[i]
            if a <= rem_p and it.weight + rows[i + 1][rem_p - a] == rem_w:
                ids.append(it.id)
                rem_p -= a
                rem_w -= it.weight
        assert rem_p == 0 and rem_w == 0, "table walk out of sync"
        return tuple(ids)


def knapsack_exact(items: Sequence[Item], capacity: int) -> tuple[tuple[int, ...], int]:
    """Maximum-profit subset of weight <= capacity, computed exactly.

    Ties break toward smaller weight, then the lexicographically smallest id
    set.  Callers must keep the total profit within 2**40 (table bound).
    """
    if capacity < 0:
        raise ValidationError("capacity must be non-negative")
    items = _check_items(items)
    if sum(it.profit for it in items) >= PROFIT_TABLE_BOUND:
        raise ValidationError("total profit exceeds the DP table bound (2^40)")
    table = ProfitTable(items, capacity)
    best_p, _ = next(table.levels())
    return table.witness(best_p), best_p


def knapsack_fptas(items: Sequence[Item], capacity: int, eps) -> tuple[tuple[int, ...], int]:
    """Feasible subset with profit >= (1 - eps) * optimum.

    Runs the profit-scaled min-weight DP and reconstructs fitting levels from
    the top down, keeping the best by true profit, then smaller weight, then
    larger id tuple; so the result is never worse than the classic
    pick-highest-level rule.  With divisor ``d``, every item has true profit
    below ``(adjusted + 1) * d``, so a witness at level ``p`` has true profit
    below ``(p + n) * d``.  Once that is at most the best true profit found,
    no level from ``p`` down can win or tie, and the scan stops: the result
    equals that of a scan over every level.
    """
    eps = eps_fraction(eps)
    if capacity < 0:
        raise ValidationError("capacity must be non-negative")
    fitting = [it for it in _check_items(items) if it.weight <= capacity]
    if not fitting or max(it.profit for it in fitting) == 0:
        return (), 0
    table = ProfitTable(fitting, capacity, eps)
    levels = table.levels()
    if table.divisor == 1:
        best_p, _ = next(levels)
        return table.witness(best_p), best_p
    num, den, n = table.divisor.numerator, table.divisor.denominator, len(fitting)
    best: Optional[tuple[int, int, tuple[int, ...]]] = None  # profit, -weight, ids
    for p, w in levels:
        if best is not None and (p + n) * num <= best[0] * den:
            break
        ids = table.witness(p)
        cand = (table.true_profit(ids), -w, ids)
        if best is None or cand > best:
            best = cand
    return best[2], best[0]


def ratio_fptas(items: Sequence[Item], capacity: int, eps):
    """Non-empty subset whose profit/weight ratio is >= (1 - eps) * best.

    Returns ``(ids, profit, weight)`` or ``None`` when no single item fits.
    Candidates are every fitting single item, then the witnesses of the
    scaled table's fitting levels above 0; since a set's ratio never exceeds
    its best member's, the single items already pin the guarantee, and the
    table scan can only improve the reported set.  Comparison is by
    :func:`ratio_key`, then higher profit, then smaller weight, then smaller
    id set.
    """
    eps = eps_fraction(eps)
    if capacity < 0:
        raise ValidationError("capacity must be non-negative")
    fitting = [it for it in _check_items(items) if it.weight <= capacity]
    if not fitting:
        return None

    best: Optional[tuple[tuple[int, ...], int, int]] = None

    def offer(ids: tuple[int, ...], profit: int, weight: int):
        nonlocal best
        if best is None:
            best = (ids, profit, weight)
            return
        new = (ratio_key(profit, weight), profit, -weight)
        old = (ratio_key(best[1], best[2]), best[1], -best[2])
        if new > old or (new == old and ids < best[0]):
            best = (ids, profit, weight)

    for it in fitting:
        offer((it.id,), it.profit, it.weight)
    table = ProfitTable(fitting, capacity, eps)
    for p, w in table.levels():
        if p == 0:
            break
        ids = table.witness(p)
        offer(ids, table.true_profit(ids), w)
    return best


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
    if k < 0:
        raise ValidationError("k must be non-negative")
    for s in sizes:
        if not isinstance(s, int) or s <= 0:
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
