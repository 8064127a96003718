"""Knapsack primitives against enumeration, plus the exact ratio order."""

import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsack import (Item, ProfitTable, ValidationError, knapsack_exact,
                       knapsack_fptas, ratio_fptas, ratio_key, subset_sum_max)
from graphsack.knapsack import eps_fraction, fitting_picks
from helpers import (BruteProfitTable, CapacityProfitTable, NonemptyProfitTable,
                     UnboundedProfitTable, best_ratio_subset, knapsack_fptas_full_scan,
                     ratio_key_reference, ratio_meets)


def items_of(*pairs):
    return [Item(i, w, p) for i, (w, p) in enumerate(pairs)]


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
    values = st.one_of(st.integers(0, 6), st.sampled_from(NEAR_INT64),
                       st.builds(int.__add__, st.sampled_from(NEAR_INT64), st.integers(0, 6)),
                       st.integers(0, 1 << 65))

    @given(st.lists(st.tuples(values, values), min_size=1, max_size=10))
    @example([(0, 0), (5, 0), (0, 4), (3, 0), (0, 1), (2, 4), (1, 2)])
    @example([((1 << 63) - 1, (1 << 63) - 2), ((1 << 63) - 2, (1 << 63) - 3),
              ((1 << 64) - 2, (1 << 64) - 4), ((1 << 63) - 1, 0), (0, (1 << 63) - 1)])
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
                                     "abc", None, "1/0"])
    def test_rejects_non_numbers(self, eps):
        with pytest.raises(ValidationError, match="epsilon must be a number"):
            eps_fraction(eps)
        with pytest.raises(ValidationError):
            knapsack_fptas(items_of((1, 1)), 1, eps)

    def test_tie_across_levels(self):
        # divisor 20/3: {0} sits at level 6, {1, 2} at level 3 + 2 = 5, both
        # with true profit 40 and weight 2; the larger id tuple wins the tie.
        items = items_of((2, 40), (1, 21), (1, 19))
        assert ProfitTable(items, 2, Fraction(1, 2)).adjusted == (6, 3, 2)
        assert knapsack_fptas(items, 2, Fraction(1, 2)) == ((1, 2), 40)

    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0, 1, 5, 10, 19, 20, 21, 40])),
                    max_size=6),
           st.integers(0, 12), st.integers(40, 60),
           st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 0.9]))
    @settings(max_examples=150, deadline=None)
    def test_stopping_scan_matches_full_scan(self, pairs, capacity, top, eps):
        # The heavy item fits, so the divisor is at least (1/3) * 40 / 7 > 1.
        items = items_of((capacity // 2, top), *pairs)
        assert ProfitTable(items, capacity, eps).divisor > 1
        got = knapsack_fptas(items, capacity, eps)

        def bounded(fitting, eps):
            return ProfitTable(fitting, capacity, eps)
        assert got == knapsack_fptas_full_scan(items, capacity, eps, bounded)
        assert got == knapsack_fptas_full_scan(items, capacity, eps, BruteProfitTable)


class TestRatioFptas:
    def test_single_item_beats_pairs(self):
        result = ratio_fptas(items_of((1, 10), (2, 10)), 3, 0.3)
        assert result == ((0,), 10, 1)

    def test_zero_weight_class_is_selected(self):
        result = ratio_fptas(items_of((5, 1), (0, 5)), 5, 0.3)
        ids, profit, weight = result
        assert weight == 0 and profit > 0

    def test_none_when_nothing_fits(self):
        assert ratio_fptas(items_of((5, 1)), 4, 0.3) is None
        assert ratio_fptas([], 4, 0.3) is None

    def test_zero_profit_falls_back_to_min_weight_item(self):
        ids, profit, weight = ratio_fptas(items_of((7, 0), (5, 0), (6, 0)), 10, 0.3)
        assert ids == (1,) and profit == 0 and weight == 5

    def test_bound_random(self):
        rng = random.Random(4242)
        for _ in range(150):
            n = rng.randint(1, 12)
            raw = [(i, rng.randint(0, 5), rng.randint(0, 8)) for i in range(n)]
            items = [Item(*t) for t in raw]
            cap = rng.randint(0, 10)
            for eps in (0.1, 0.5):
                result = ratio_fptas(items, cap, eps)
                best = best_ratio_subset(raw, cap)
                if best is None:
                    assert result is None
                    continue
                ids, profit, weight = result
                assert weight <= cap and ids
                assert profit == sum(items[i].profit for i in ids)
                assert weight == sum(items[i].weight for i in ids)
                assert ratio_meets(profit, weight, best[0], best[1], eps)


class TestSubsetSum:
    def test_examples(self):
        assert subset_sum_max([3, 2, 2], 4) == ((1, 2), 4)
        assert subset_sum_max([3, 2, 2], 6) == ((0, 1), 5)
        assert subset_sum_max([3, 2, 2], 0) == ((), 0)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValidationError):
            subset_sum_max([3, 0], 4)

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
        ref = BruteProfitTable(items, eps)
        with pytest.raises(ValidationError):
            ProfitTable(items, -1, eps)
        for capacity in [0] + capacities_around(ref):
            table = ProfitTable(items, capacity, eps)
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
        for p in range(-1, ref.level_count + 1):
            assert old.nonempty_min_weight(p) == ref.nonempty_min_weight(p)
            assert old.nonempty_witness(p) == ref.nonempty_witness(p)

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
        table, ref = ProfitTable(items, capacity, eps), UnboundedProfitTable(items, eps)
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
                out += [knapsack_fptas(items, capacity, eps), ratio_fptas(items, capacity, eps)]
            return out

        got = routines()
        with mock.patch("graphsack.knapsack.ProfitTable", CapacityProfitTable):
            assert got == routines()

    def test_row_ends_at_highest_fitting_level(self):
        # Levels 0 and 4 fit within capacity 2; levels 5 and 9 weigh 3 and 4.
        table = ProfitTable(items_of((1, 4), (3, 5)), 2)
        assert table.level_count == 5 and len(table._rows[0]) == 5
        assert list(table.levels()) == [(4, 1), (0, 0)]
        assert table.min_weight(5) is None and table.min_weight(9) is None

    def test_level_zero_is_the_empty_set(self):
        # Items 3 and 5 both round to level 0 with weight 1, and item 7 weighs
        # 0; level 0 still has weight 0 and the empty witness.
        table = ProfitTable([Item(7, 0, 60), Item(5, 1, 2), Item(3, 1, 1)], 0, Fraction(1, 2))
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
