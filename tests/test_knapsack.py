"""Knapsack primitives against enumeration, plus the exact ratio order."""

import random
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsack import (Item, ProfitTable, ValidationError, connected_components,
                       knapsack_exact, knapsack_fptas, parse, ratio_key, subset_sum_max)
from graphsack.knapsack import _check_capacity, _check_items, eps_fraction, fitting_picks
from helpers import (BruteProfitTable, CapacityProfitTable, NonemptyProfitTable,
                     UnboundedProfitTable, knapsack_fptas_full_scan, list_kernel_rows,
                     perfbench_pool, ratio_key_reference)


def items_of(*pairs):
    return [Item(i, w, p) for i, (w, p) in enumerate(pairs)]


def fitting(items, capacity):
    """The items a table of that capacity keeps."""
    return [it for it in items if it.weight <= capacity]


def enumerate_best(items, capacity):
    """(profit, weight) of the exact optimum by full enumeration."""
    best = (0, 0)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            w = sum(it.weight for it in combo)
            p = sum(it.profit for it in combo)
            if w <= capacity and (p, -w) > (best[0], -best[1]):
                best = (p, w)
    return best


@pytest.mark.parametrize("weight, profit", [(-1, 0), (0, -1)])
def test_item_rejects_negative_values(weight, profit):
    with pytest.raises(ValidationError, match="item 3: negative weight or profit"):
        Item(3, weight, profit)


@pytest.mark.parametrize("solve", [knapsack_exact, partial(knapsack_fptas, eps=0.1),
                                   partial(ProfitTable, eps=0.1)])
def test_solvers_reject_negative_capacity(solve):
    with pytest.raises(ValidationError, match="capacity must be non-negative"):
        solve(items_of((1, 1)), -1)


@pytest.mark.parametrize("call, message", [
    (lambda: knapsack_exact([Item(0, 1.5, 1)], 2), "item 0: id, weight and profit must be"),
    (lambda: knapsack_exact([Item(0, True, 1)], 2), "item 0: id, weight and profit must be"),
    (lambda: knapsack_fptas([Item(0, 1, 1.5)], 2, 0.1), "item 0: id, weight and profit must"),
    (lambda: knapsack_fptas([Item(1, 1, 1), Item("0", 1, 1)], 2, 0.1), "item '0': id, weight"),
    (lambda: knapsack_exact([Item(0, 1, 1)], 2.5), "capacity must be an integer, got 2.5"),
    (lambda: knapsack_fptas([Item(0, 1, 1)], True, 0.1), "capacity must be an integer, got True"),
    (lambda: ProfitTable([Item(0, 1, 1)], "3"), "capacity must be an integer, got '3'"),
    (lambda: subset_sum_max([1, 2], 0.5), "k must be an integer, got 0.5"),
    (lambda: subset_sum_max([1, 2], True), "k must be an integer, got True"),
    (lambda: subset_sum_max([True], 1), "sizes must be positive integers"),
    (lambda: Item(0, "3", 1), "item 0: id, weight and profit must be integers"),
])
def test_knapsack_layer_rejects_values_that_are_not_ints(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("solve", [knapsack_exact, partial(knapsack_fptas, eps=Fraction(1, 10))])
def test_solvers_check_items_and_capacity_once(solve):
    # the table is the one place that checks them, heavy item included
    items = items_of((1, 5), (9, 70), (2, 3), (0, 1))
    with mock.patch("graphsack.knapsack._check_items", wraps=_check_items) as check_items, \
            mock.patch("graphsack.knapsack._check_capacity", wraps=_check_capacity) as check_capacity:
        solve(items, 4)
        solve(items, 12)
    assert check_items.call_count == check_capacity.call_count == 2


class TestRatioKey:
    def test_conventions(self):
        assert ratio_key(5, 0) > ratio_key(100, 1)      # zero weight on top
        assert ratio_key(5, 0) == ratio_key(3, 0)       # one infinite class
        assert ratio_key(0, 0) > ratio_key(0, 3)        # (0,0) above (0,w>0)
        assert ratio_key(1, 10) > ratio_key(0, 0)
        assert ratio_key(10, 1) > ratio_key(10, 2)

    def test_cross_multiplication(self):
        assert ratio_key(3, 7) < ratio_key(4, 9)        # 27 < 28
        assert ratio_key(2, 4) == ratio_key(3, 6)

    NEAR_INT64 = [(1 << 63) - 2, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]
    # the top of the key's domain: profits and weights below 2^128
    NEAR_2_128 = [(1 << 127) - 1, 1 << 127, (1 << 127) + 1, (1 << 128) - 2, (1 << 128) - 1]
    values = st.one_of(st.integers(0, 6), st.sampled_from(NEAR_INT64),
                       st.builds(int.__add__, st.sampled_from(NEAR_INT64), st.integers(0, 6)),
                       st.integers(0, 1 << 65), st.sampled_from(NEAR_2_128),
                       st.builds(int.__sub__, st.sampled_from(NEAR_2_128), st.integers(0, 6)))

    @given(st.lists(st.tuples(values, values), min_size=1, max_size=10))
    @example([(0, 0), (5, 0), (0, 4), (3, 0), (0, 1), (2, 4), (1, 2)])
    @example([((1 << 63) - 1, (1 << 63) - 2), ((1 << 63) - 2, (1 << 63) - 3),
              ((1 << 64) - 2, (1 << 64) - 4), ((1 << 63) - 1, 0), (0, (1 << 63) - 1)])
    @example([((1 << 128) - 1, (1 << 128) - 2), ((1 << 128) - 2, (1 << 128) - 3),
              ((1 << 127) + 1, 1 << 127), (1 << 127, (1 << 127) - 1), ((1 << 128) - 1, 0),
              (1, (1 << 128) - 1), (1, (1 << 128) - 2), (0, (1 << 128) - 1)])
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_order(self, pairs):
        for a in pairs:
            for b in pairs:
                ka, kb = ratio_key(*a), ratio_key(*b)
                ra, rb = ratio_key_reference(*a), ratio_key_reference(*b)
                assert (ka < kb, ka <= kb, ka == kb, ka != kb, ka >= kb, ka > kb) \
                    == (ra < rb, ra <= rb, ra == rb, ra != rb, ra >= rb, ra > rb)
                if ka == kb:
                    assert hash(ka) == hash(kb)
        assert sorted(pairs, key=lambda t: ratio_key(*t)) \
            == sorted(pairs, key=lambda t: ratio_key_reference(*t))

    @pytest.mark.parametrize("profit, weight", [
        (1 << 128, 1), (1, 1 << 128), (1 << 128, 0), (0, 1 << 128), (1 << 130, 1 << 129)])
    def test_refuses_values_from_2_128(self, profit, weight):
        message = r"^ratio_key needs profit and weight below 2\^128$"
        with pytest.raises(ValidationError, match=message):
            ratio_key(profit, weight)

    def test_foreign_objects_are_unequal(self):
        assert ratio_key(1, 2) != (1, 2)
        assert ratio_key(0, 0) != None  # noqa: E711


class TestKnapsackExact:
    def test_simple_choice(self):
        subset, profit = knapsack_exact(items_of((1, 5), (1, 3)), 1)
        assert subset == (0,) and profit == 5

    def test_zero_capacity(self):
        subset, profit = knapsack_exact(items_of((1, 5), (2, 3)), 0)
        assert subset == () and profit == 0

    def test_two_small_beat_one_large(self):
        # all 8 subsets enumerated by hand: {(2,3),(2,3)} wins with 6
        subset, profit = knapsack_exact(items_of((3, 4), (2, 3), (2, 3)), 4)
        assert profit == 6 and subset == (1, 2)

    def test_rejects_profit_overflow(self):
        with pytest.raises(ValidationError, match="table bound"):
            knapsack_exact([Item(0, 1, 1 << 40)], 1)

    def test_profit_bound_counts_only_items_that_fit(self):
        # item 0 could never be taken, so its profit does not count
        assert knapsack_exact([Item(0, 10, 1 << 40), Item(1, 1, 1)], 5) == ((1,), 1)

    def test_matches_enumeration(self):
        rng = random.Random(2024)
        for seed in range(220):
            n = rng.randint(0, 12)
            items = items_of(*((rng.randint(0, 6), rng.randint(0, 6))
                               for _ in range(n)))
            cap = rng.randint(0, 12)
            subset, profit = knapsack_exact(items, cap)
            expect_p, expect_w = enumerate_best(items, cap)
            assert profit == expect_p
            got_w = sum(items[i].weight for i in subset)
            assert got_w == expect_w
            assert sum(items[i].profit for i in subset) == profit


class TestKnapsackFptas:
    def test_exact_when_scaling_is_injective(self):
        # (eps/n) * P <= 1 clamps the divisor, so the DP stays exact.
        items = items_of((2, 3), (3, 4), (4, 5))
        _, profit = knapsack_fptas(items, 6, 0.3)
        assert profit == knapsack_exact(items, 6)[1]

    def test_all_zero_profit(self):
        assert knapsack_fptas(items_of((1, 0), (2, 0)), 3, 0.5) == ((), 0)

    def test_items_that_do_not_fit_are_not_scaled(self):
        # item 0 could never be taken, so its profit sets no divisor: the
        # table over items 1 and 2 stays exact
        items = items_of((10, 1 << 60), (1, 1), (2, 3))
        assert ProfitTable(items, 5, 0.3).divisor == 1
        assert knapsack_fptas(items, 5, 0.3) == ((1, 2), 4)

    def test_bound_random(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(1, 10)
            items = items_of(*((rng.randint(0, 5), rng.randint(0, 8))
                               for _ in range(n)))
            cap = rng.randint(0, 10)
            _, opt = knapsack_exact(items, cap)
            subset, profit = knapsack_fptas(items, cap, 0.3)
            assert sum(items[i].weight for i in subset) <= cap
            assert Fraction(profit) >= Fraction(7, 10) * opt

    def test_bound_with_real_rounding(self):
        # Large profits force divisor > 1; the guarantee must still hold.
        # The reference optimum comes from enumeration (the DP table would
        # be pseudo-polynomial in these profits).
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 8)
            items = items_of(*((rng.randint(0, 4), rng.randint(0, 10 ** 6))
                               for _ in range(n)))
            cap = rng.randint(0, 8)
            opt, _ = enumerate_best(items, cap)
            _, profit = knapsack_fptas(items, cap, 0.4)
            assert Fraction(profit) >= Fraction(6, 10) * opt

    def test_rejects_bad_epsilon(self):
        for eps in (0, 1, -0.5, 1.5):
            with pytest.raises(ValidationError):
                knapsack_fptas(items_of((1, 1)), 1, eps)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"),
                                     "abc", None, "1/0", "1/3", " 0.5 ", "2e-1"])
    def test_rejects_non_numbers(self, eps):
        with pytest.raises(ValidationError, match="epsilon must be a number"):
            eps_fraction(eps)
        with pytest.raises(ValidationError):
            knapsack_fptas(items_of((1, 1)), 1, eps)

    @pytest.mark.parametrize("eps, shown", [(Fraction(0), "0"), (Fraction(1), "1"),
                                            (Fraction(-1, 2), "-1/2"), (Fraction(3, 2), "3/2")])
    def test_rejects_out_of_range_fractions(self, eps, shown):
        with pytest.raises(ValidationError, match=rf"^epsilon must be in \(0, 1\), got {shown}$"):
            eps_fraction(eps)

    def test_in_range_fraction_is_returned_as_is(self):
        eps = Fraction(1, 10)
        assert eps_fraction(eps) is eps

    def test_tie_across_levels(self):
        # divisor 20/3: {0} sits at level 6, {1, 2} at level 3 + 2 = 5, both
        # with true profit 40 and weight 2; the larger id tuple wins the tie.
        items = items_of((2, 40), (1, 21), (1, 19))
        assert ProfitTable(items, 2, Fraction(1, 2)).adjusted == (6, 3, 2)
        assert knapsack_fptas(items, 2, Fraction(1, 2)) == ((1, 2), 40)

    @pytest.mark.parametrize("shape", ["scaled", "divisor 1", "nothing fits", "zero profits"])
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0, 1, 5, 10, 19, 20, 21, 40])),
                    max_size=6),
           st.integers(0, 12), st.integers(40, 60),
           st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 0.9]))
    @settings(max_examples=150, deadline=None)
    def test_stopping_scan_matches_full_scan(self, shape, pairs, capacity, top, eps):
        fit = 1 + sum(w <= capacity for w, _ in pairs)
        items = items_of(*{
            # the heavy item fits, so the divisor is at least (1/3) * 40 / 7 > 1
            "scaled": [(capacity // 2, top), *pairs],
            # no profit above the fitting item count, so the divisor is clamped to 1
            "divisor 1": [(capacity // 2, fit), *((w, p % (fit + 1)) for w, p in pairs)],
            "nothing fits": [(capacity + 1, top), *((capacity + 1 + w, p) for w, p in pairs)],
            "zero profits": [(capacity // 2, 0), *((w, 0) for w, _ in pairs)],
        }[shape])
        divisor = ProfitTable(items, capacity, eps).divisor
        assert (divisor > 1) == (shape == "scaled")
        with mock.patch.object(ProfitTable, "witness", autospec=True,
                               side_effect=ProfitTable.witness) as walk:
            got = knapsack_fptas(items, capacity, eps)
        if shape != "scaled":
            # the rounding loss is 0, so the top level's walk ends the scan
            assert walk.call_count == 1
        if shape in ("nothing fits", "zero profits"):
            assert got == ((), 0)

        def bounded(kept, eps):
            return ProfitTable(kept, capacity, eps)
        assert got == knapsack_fptas_full_scan(items, capacity, eps, bounded)
        assert got == knapsack_fptas_full_scan(items, capacity, eps, BruteProfitTable)

    def test_component_dp_pool_witness_walks(self):
        # The stopping scan's work on the tables gua-fptas builds over the
        # component-dp pool at eps = 1/10; the old (p + n) * d bound walked
        # 2,941 witnesses, the rounding-loss bound walks 736.
        walks = 0
        for _stem, text, _constraint, _variant in perfbench_pool("component-dp"):
            inst = parse(text)
            items = [Item(i, inst.total_weight(c), inst.total_profit(c))
                     for i, c in enumerate(connected_components(inst))]
            with mock.patch.object(ProfitTable, "witness", autospec=True,
                                   side_effect=ProfitTable.witness) as walk:
                knapsack_fptas(items, inst.budget, Fraction(1, 10))
            walks += walk.call_count
        assert walks <= 2941


class TestSubsetSum:
    def test_examples(self):
        assert subset_sum_max([3, 2, 2], 4) == ((1, 2), 4)
        assert subset_sum_max([3, 2, 2], 6) == ((0, 1), 5)
        assert subset_sum_max([3, 2, 2], 0) == ((), 0)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValidationError):
            subset_sum_max([3, 0], 4)

    def test_rejects_negative_k(self):
        with pytest.raises(ValidationError, match="k must be non-negative"):
            subset_sum_max([3, 2], -1)

    def test_matches_enumeration(self):
        rng = random.Random(321)
        for _ in range(200):
            n = rng.randint(0, 15)
            sizes = [rng.randint(1, 9) for _ in range(n)]
            k = rng.randint(0, 30)
            ids, total = subset_sum_max(sizes, k)
            assert sum(sizes[i] for i in ids) == total <= k
            best = max((sum(c) for r in range(n + 1)
                        for c in combinations(sizes, r) if sum(c) <= k), default=0)
            assert total == best


def capacities_around(table):
    """Capacities from 0 up, below, at and above each level's min weight."""
    weights = {table.min_weight(p) for p in range(table.level_count)} - {None}
    return sorted({c for w in weights for c in (w - 1, w, w + 1) if c >= 0})


class TestProfitTable:
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_witnesses_match_entries(self, pairs):
        items = items_of(*pairs)
        by_id = {it.id: it for it in items}
        for capacity in capacities_around(BruteProfitTable(items)):
            table = ProfitTable(items, capacity)
            assert table.min_weight(0) == 0 and table.witness(0) == ()
            levels = list(table.levels())
            assert [p for p, _ in levels] == sorted({p for p, _ in levels}, reverse=True)
            assert {p for p, _ in levels} == {
                p for p in range(table.level_count)
                if table.min_weight(p) is not None and table.min_weight(p) <= capacity}
            for p, w in levels:
                assert w == table.min_weight(p) and w <= capacity
                ids = table.witness(p)
                assert sum(by_id[i].profit for i in ids) == p
                assert sum(by_id[i].weight for i in ids) == w

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6),
                              st.one_of(st.integers(0, 3), st.integers(0, 60))),
                    max_size=7, unique_by=lambda t: t[0]),
           st.sampled_from([None, Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, triples, eps):
        # Ids are unordered and sparse; small profits round to 0 under scaling.
        items = [Item(i, w, p) for i, w, p in triples]
        full = BruteProfitTable(items, eps)
        with pytest.raises(ValidationError):
            ProfitTable(items, -1, eps)
        for capacity in [0] + capacities_around(full):
            table, ref = ProfitTable(items, capacity, eps), BruteProfitTable(
                fitting(items, capacity), eps)
            assert (table.divisor, table.adjusted) == (ref.divisor, ref.adjusted)
            for p in range(-1, ref.level_count + 1):
                fits = ref.min_weight(p) is not None and ref.min_weight(p) <= capacity
                assert table.min_weight(p) == (ref.min_weight(p) if fits else None)
                assert table.witness(p) == (ref.witness(p) if fits else None)
            levels = ref.levels_within(capacity)
            assert list(table.levels()) == levels
            assert table.level_count == levels[0][0] + 1
        # the test-side table behind the full-scan star oracles
        old = NonemptyProfitTable(items, eps)
        for p in range(-1, full.level_count + 1):
            assert old.nonempty_min_weight(p) == full.nonempty_min_weight(p)
            assert old.nonempty_witness(p) == full.nonempty_witness(p)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 9),
                              st.one_of(st.integers(0, 3), st.integers(0, 1000))),
                    max_size=8, unique_by=lambda t: t[0]),
           st.sampled_from([None, Fraction(1, 100), Fraction(1, 10), Fraction(1, 3)]),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_unbounded_table(self, triples, eps, data):
        # Sparse ids, zero weights and profits; the capacity is 0, below, at
        # or above the total weight.
        items = [Item(i, w, p) for i, w, p in triples]
        total = sum(it.weight for it in items)
        capacity = data.draw(st.one_of(st.just(0), st.integers(0, max(total - 1, 0)),
                                       st.just(total), st.integers(total + 1, total + 10)))
        table = ProfitTable(items, capacity, eps)
        ref = UnboundedProfitTable(fitting(items, capacity), eps)
        levels = list(ref.levels_within(capacity))
        assert list(table.levels()) == levels
        for p, _ in levels:
            assert table.witness(p) == ref.witness(p)
        for p in range(-1, ref.level_count + 1):
            w = ref.min_weight(p)
            assert table.min_weight(p) == (w if w is not None and w <= capacity else None)

        def routines():
            out = [knapsack_exact(items, capacity)]
            if eps is not None:
                out.append(knapsack_fptas(items, capacity, eps))
            return out

        got = routines()
        with mock.patch("graphsack.knapsack.ProfitTable", CapacityProfitTable):
            assert got == routines()

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 60)), max_size=6),
           st.lists(st.tuples(st.integers(1, 5),
                              st.one_of(st.integers(0, 3), st.integers(61, 10 ** 6))),
                    min_size=1, max_size=3),
           st.integers(0, 8), st.sampled_from([None, Fraction(1, 10), Fraction(1, 2)]))
    @example([(2, 30), (0, 0), (1, 7)], [(1, 1000)], 4, Fraction(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_heavy_items_change_nothing(self, light, heavy, capacity, eps):
        # Fitting items at even ids, heavier ones at the odd ids between them;
        # a heavy profit above every fitting one would raise the divisor.
        fits = [Item(2 * i, w % (capacity + 1), p) for i, (w, p) in enumerate(light)]
        heavies = [Item(2 * i + 1, capacity + w, p) for i, (w, p) in enumerate(heavy)]
        table, ref = ProfitTable(heavies + fits, capacity, eps), ProfitTable(fits, capacity, eps)
        assert (table.items, table.divisor, table.adjusted, table.level_count) \
            == (ref.items, ref.divisor, ref.adjusted, ref.level_count)
        assert list(table.levels()) == list(ref.levels())
        for p in range(-1, ref.level_count + 1):
            assert table.witness(p) == ref.witness(p)

    def test_row_ends_at_highest_fitting_level(self):
        # Levels 0 and 4 fit within capacity 2; levels 5 and 9 weigh 3 and 4.
        table = ProfitTable(items_of((1, 4), (3, 5)), 2)
        assert table.level_count == 5 and len(table._rows[0]) == 5
        assert list(table.levels()) == [(4, 1), (0, 0)]
        assert table.min_weight(5) is None and table.min_weight(9) is None

    def test_level_zero_is_the_empty_set(self):
        # Items 3 and 5 both fit and round to level 0 with weight 1, and item 7
        # weighs 0; level 0 still has weight 0 and the empty witness.
        table = ProfitTable([Item(7, 0, 60), Item(5, 1, 2), Item(3, 1, 1)], 1, Fraction(1, 2))
        assert table.adjusted == (0, 0, 6)
        assert list(table.levels()) == [(6, 0), (0, 0)]
        assert table.witness(6) == (7,) and table.witness(0) == ()
        zero = ProfitTable([Item(2, 0, 0), Item(1, 3, 0)], 5)
        assert list(zero.levels()) == [(0, 0)] and zero.witness(0) == ()
        assert list(ProfitTable([Item(0, 1, 4)], 0).levels()) == [(0, 0)]
        assert list(ProfitTable([Item(0, 1, 4)], 1).levels()) == [(4, 1), (0, 0)]

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            ProfitTable([Item(1, 1, 1), Item(1, 2, 2)], 3)

    @pytest.mark.parametrize("level", [True, 1.0, "1"])
    def test_rejects_a_level_that_is_not_an_int(self, level):
        # A bool would read level 1, and a float or a string would fail
        # inside the row lookup with a TypeError.
        table = ProfitTable(items_of((1, 1), (2, 3)), 3)
        for query in (table.min_weight, table.witness):
            with pytest.raises(ValidationError, match="level must be an integer"):
                query(level)


def assert_list_kernel_rows(table):
    """``table`` holds the list kernel's rows, cell for cell, as slacks."""
    ref = list_kernel_rows(table.items, table.adjusted, table._absent)
    assert [[table._absent - cell for cell in row] for row in table._rows] == ref
    assert table.level_count == len(ref[0])


class TestPackedRows:
    """The packed-int row kernel builds the list kernel's rows exactly."""

    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.one_of(st.integers(0, 3), st.integers(0, 400),
                                        st.just(2 ** 63 - 1)),
                              st.one_of(st.integers(0, 3), st.integers(0, 200))),
                    max_size=9, unique_by=lambda t: t[0]),
           st.one_of(st.integers(0, 40), st.integers(0, 300),
                     st.sampled_from([0, 126, 127, 2 ** 15 - 2, 2 ** 15 - 1, 2 ** 31 - 2,
                                      2 ** 31 - 1, 2 ** 63 - 2, 2 ** 63 - 1])),
           st.sampled_from([None, Fraction(1, 10), Fraction(1, 2)]))
    @settings(max_examples=400, deadline=None)
    def test_matches_list_kernel(self, triples, capacity, eps):
        # Zero weights and profits, weights above the capacity, capacity 0,
        # and every cell width: 1, 2, 4 and 8 bytes, and the wide cells of
        # capacity 2^63 - 1.
        assert_list_kernel_rows(ProfitTable([Item(*t) for t in triples], capacity, eps))

    @pytest.mark.parametrize("capacity, decoded", [
        (126, bytes), (127, memoryview), (2 ** 63 - 2, memoryview), (2 ** 63 - 1, list),
        (2 ** 70, list)])
    def test_every_decode(self, capacity, decoded):
        # One-byte cells stay bytes, cells of 2 to 8 bytes decode through a
        # memoryview, and wider ones cell by cell.
        items = items_of((0, 5), (3, 2), (capacity, 7), (capacity + 1, 9), (1, 0))
        table = ProfitTable(items, capacity)
        assert_list_kernel_rows(table)
        assert {type(row) for row in table._rows} == {decoded}

    @pytest.mark.parametrize("capacity", [127, 2 ** 15 - 1, 2 ** 31 - 1])
    def test_big_endian_decode(self, monkeypatch, capacity):
        # Without a little-endian memoryview format, cells of 2, 4 and 8
        # bytes are read one by one through int.from_bytes.
        items = items_of((0, 5), (3, 2), (capacity - 2, 7), (capacity, 4),
                         (capacity + 1, 9), (1, 3))
        monkeypatch.setattr(sys, "byteorder", "big")
        table = ProfitTable(items, capacity)
        assert {type(row) for row in table._rows} == {list}
        assert_list_kernel_rows(table)
        ref = BruteProfitTable(fitting(items, capacity))
        assert list(table.levels()) == ref.levels_within(capacity)
        for p, _ in ref.levels_within(capacity):
            assert table.witness(p) == ref.witness(p)

    def test_component_dp_pool(self):
        # The tables gua-fptas builds on every component-dp pool member.
        members = perfbench_pool("component-dp")
        assert len(members) == 144
        for stem, text, _constraint, _variant in members:
            inst = parse(text)
            items = [Item(i, inst.total_weight(c), inst.total_profit(c))
                     for i, c in enumerate(connected_components(inst))]
            assert_list_kernel_rows(ProfitTable(items, inst.budget, Fraction(1, 10)))

    def test_heavy_item_adds_no_cells(self):
        # An item heavier than the capacity is dropped before any row is
        # built, however high its profit: no row is padded up to its level.
        items = [Item(0, 100, 2 ** 39), Item(1, 1, 1)]
        table, ref = ProfitTable(items, 10), ProfitTable(fitting(items, 10), 10)
        assert table.items == ref.items == [Item(1, 1, 1)]
        assert [list(row) for row in table._rows] == [list(row) for row in ref._rows]
        assert [len(row) for row in table._rows] == [2, 1]
        start = time.perf_counter()
        assert knapsack_exact(items, 10) == ((1,), 1)
        assert time.perf_counter() - start < 0.5


def filtered_combinations(candidates, k, cost):
    return [pick for size in range(len(candidates) + 1)
            for pick in combinations(candidates, size) if cost(pick) <= k]


class TestFittingPicks:
    """The budget-pruned enumerator equals a filter over every combination."""

    @given(st.lists(st.integers(0, 4), max_size=8), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_additive_cost(self, weights, k):
        # zero-cost candidates fit in every pick that fits
        candidates = list(range(10, 10 + len(weights)))

        def cost(pick):
            return sum(weights[c - 10] for c in pick)

        assert list(fitting_picks(candidates, k, cost)) == \
            filtered_combinations(candidates, k, cost)

    @given(st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=8),
           st.lists(st.integers(0, 3), min_size=6, max_size=6), st.integers(0, 10))
    @settings(max_examples=300, deadline=None)
    def test_union_cost(self, sets, element_weights, k):
        # the weight of a union of sets, as for closures of heavy SCCs
        candidates = list(range(len(sets)))

        def cost(pick):
            return sum(element_weights[e] for e in frozenset().union(*(sets[c] for c in pick)))

        assert list(fitting_picks(candidates, k, cost)) == \
            filtered_combinations(candidates, k, cost)

    @given(st.lists(st.integers(0, 4), max_size=8), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_extends_only_fitting_picks(self, weights, k):
        asked = []

        def cost(pick):
            asked.append(pick)
            return sum(weights[c] for c in pick)

        list(fitting_picks(range(len(weights)), k, cost))
        assert all(sum(weights[c] for c in pick[:-1]) <= k for pick in asked)

    def test_zero_budget(self):
        assert list(fitting_picks([0, 1, 2], 0, len)) == [()]
        assert list(fitting_picks([0, 1, 2], 0, lambda pick: 0)) == \
            [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]

    def test_empty_pick_over_budget(self):
        assert list(fitting_picks([0, 1], 3, lambda pick: 4 + len(pick))) == []

    def test_many_candidates_few_fit(self):
        # 60 candidates: 2^60 subsets, but only the picks of size <= 2 fit
        picks = list(fitting_picks(range(60), 2, len))
        assert len(picks) == 1 + 60 + 60 * 59 // 2
