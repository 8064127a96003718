"""Star partition and the two viable-star oracles against exhaustive search."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsack import (Instance, Star, ValidationError, best_profit_viable_star,
                       best_ratio_viable_star, gen_random, greedy_1_neighbour,
                       is_1_neighbour_set, ratio_key, star_partition, stars, validate_star)
from helpers import (best_profit_viable_star_full_scan, best_ratio_viable_star_full_scan,
                     random_instance, ratio_meets)


def undirected(n, edges, weights=None, profits=None, k=10):
    return Instance(False, n, edges, weights or [1] * n, profits or [1] * n, k)


def all_stars(inst, capacity):
    """Every feasible star as (profit, weight, center, leaves)."""
    out = []
    for v in range(inst.n):
        if inst.degree(v) == 0:
            if inst.weights[v] <= capacity:
                out.append((inst.profits[v], inst.weights[v], v, ()))
            continue
        nbrs = inst.adj[v]
        for r in range(1, len(nbrs) + 1):
            for leaves in combinations(nbrs, r):
                w = inst.weights[v] + sum(inst.weights[u] for u in leaves)
                p = inst.profits[v] + sum(inst.profits[u] for u in leaves)
                if w <= capacity:
                    out.append((p, w, v, leaves))
    return out


class TestStarPartition:
    def test_path_of_three_has_unique_partition(self):
        stars = star_partition(undirected(3, [(0, 1), (1, 2)]))
        assert len(stars) == 1
        assert stars[0].center == 1 and stars[0].leaves == (0, 2)

    def test_isolated_vertex_is_singleton_star(self):
        stars = star_partition(undirected(1, []))
        assert len(stars) == 1 and stars[0].leaves == ()

    def test_path_of_four_splits_into_edges(self):
        stars = star_partition(undirected(4, [(0, 1), (1, 2), (2, 3)]))
        parts = sorted(star.vertices for star in stars)
        assert parts == [(0, 1), (2, 3)]

    def test_rejects_directed(self):
        with pytest.raises(ValidationError):
            star_partition(Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 1))

    def test_partition_properties_random(self):
        rng = random.Random(71)
        for _ in range(150):
            n = rng.randint(0, 30)
            inst = random_instance(rng, n, False, rng.random() * 0.3, 4, 4, 5)
            stars = star_partition(inst)
            flat = [v for star in stars for v in star.vertices]
            assert sorted(flat) == list(range(n))
            assert len(set(flat)) == len(flat)
            for star in stars:
                validate_star(inst, star)
                assert is_1_neighbour_set(inst, star.vertices)


class TestValidateStar:
    def test_accepts_sorted_leaves(self):
        validate_star(undirected(3, [(0, 1), (0, 2)]), Star(0, (1, 2)))

    @pytest.mark.parametrize("leaves", [(1, 1), (2, 1)])
    def test_rejects_repeated_or_unsorted_leaves(self, leaves):
        with pytest.raises(ValidationError):
            validate_star(undirected(3, [(0, 1), (0, 2)]), Star(0, leaves))


class TestBestProfitViableStar:
    def test_single_edge(self):
        inst = undirected(2, [(0, 1)], weights=[1, 1], profits=[5, 3])
        star = best_profit_viable_star(inst, 2, 0.1)
        assert star.vertices == (0, 1)

    def test_none_when_capacity_too_small(self):
        inst = undirected(2, [(0, 1)], weights=[1, 1], profits=[5, 3])
        assert best_profit_viable_star(inst, 1, 0.1) is None

    def test_selects_best_leaf(self):
        # center 0 (w1,p0), leaves 1 (w1,p10) and 2 (w1,p1); capacity 2
        inst = undirected(3, [(0, 1), (0, 2)], weights=[1, 1, 1],
                          profits=[0, 10, 1])
        star = best_profit_viable_star(inst, 2, 0.1)
        assert star.center in (0, 1) and set(star.vertices) == {0, 1}

    def test_zero_profit_leaves_take_the_lightest(self):
        # Every leaf of center 0 has profit 0, so the table has level 0 only;
        # the lightest leaf with the lowest id, 2, makes the best star.
        inst = undirected(4, [(0, 1), (0, 2), (0, 3)], weights=[1, 3, 1, 1],
                          profits=[5, 0, 0, 0])
        for eps in (Fraction(1, 10), 0.5):
            assert best_profit_viable_star(inst, 5, eps) == Star(0, (2,))
            assert best_profit_viable_star_full_scan(inst, 5, eps) == Star(0, (2,))

    def test_bound_random(self):
        rng = random.Random(88)
        for _ in range(120):
            inst = random_instance(rng, rng.randint(1, 10), False,
                                   rng.random() * 0.4, 4, 6, 0)
            cap = rng.randint(0, 12)
            for eps in (0.1, 0.3):
                star = best_profit_viable_star(inst, cap, eps)
                stars = all_stars(inst, cap)
                if not stars:
                    assert star is None
                    continue
                best = max(p for p, _, _, _ in stars)
                got = inst.total_profit(star.vertices)
                assert inst.total_weight(star.vertices) <= cap
                validate_star(inst, star)
                eps_f = Fraction(str(eps))
                assert Fraction(got) >= (1 - eps_f) * best


class TestBestRatioViableStar:
    def test_single_edge(self):
        inst = undirected(2, [(0, 1)], weights=[1, 1], profits=[5, 3])
        star = best_ratio_viable_star(inst, 2, 0.1)
        assert star.vertices == (0, 1)

    def test_light_leaf_beats_heavy(self):
        # center 0 (w1,p0); leaves 1 (w1,p10), 2 (w9,p11); capacity 10:
        # {0,1} at 10/2 beats {0,2} at 11/10 and {0,1,2} at 21/11.
        inst = undirected(3, [(0, 1), (0, 2)], weights=[1, 1, 9],
                          profits=[0, 10, 11])
        star = best_ratio_viable_star(inst, 10, 0.1)
        assert set(star.vertices) == {0, 1}

    def test_zero_weight_pendant_pair_tops(self):
        inst = undirected(4, [(0, 1), (2, 3)], weights=[0, 0, 1, 1],
                          profits=[2, 1, 9, 9])
        star = best_ratio_viable_star(inst, 2, 0.1)
        assert inst.total_weight(star.vertices) == 0
        assert inst.total_profit(star.vertices) > 0

    def test_survives_coarse_scaling(self):
        # A heavy-profit leaf makes the shared scaled table blind to the
        # many small leaves that carry the best star; the per-leaf rescaled
        # tables must recover them.
        n = 13
        edges = [(0, v) for v in range(1, n)]
        weights = [10] + [1] * 10 + [1000, 0]
        profits = [0] + [10] * 10 + [1000, 0]
        inst = undirected(n, edges, weights=weights, profits=profits)
        star = best_ratio_viable_star(inst, 1020, 0.5)
        p = inst.total_profit(star.vertices)
        w = inst.total_weight(star.vertices)
        # best star: center 0 with the ten small leaves, ratio 100/20
        assert ratio_key(p, w) >= ratio_key(100, 20)

    def test_level_that_ties_the_best_is_walked(self):
        # center 1 (w0,p0) with leaves 0 (w0,p0) and 2 (w1,p3); capacity 1.
        # The single {2} and the table's level 3, witness (0, 2), tie at
        # ratio 3 and profit 3, and the smaller leaf tuple (0, 2) wins; the
        # star centered at 2 ties too and loses on its center.
        inst = undirected(3, [(0, 1), (1, 2)], weights=[0, 0, 1], profits=[0, 0, 3])
        assert best_ratio_viable_star(inst, 1, 0.1) == Star(1, (0, 2))

    def test_forced_leaf_table_adds_a_rounded_leaf(self):
        # eps 1/2 gives divisor 15/4: leaf 2 (w0,p1) rounds to level 0, and
        # the shared table's level 4 witness is (1,), not the equally light
        # (1, 2).  Only the table that forces leaf 1 reaches ratio 16/2.
        inst = undirected(3, [(0, 1), (0, 2)], weights=[1, 1, 0], profits=[0, 15, 1])
        assert best_ratio_viable_star(inst, 7, Fraction(1, 2)) == Star(0, (1, 2))

    def test_bound_random(self):
        rng = random.Random(4141)
        for _ in range(120):
            inst = random_instance(rng, rng.randint(1, 10), False,
                                   rng.random() * 0.4, 4, 6, 0)
            cap = rng.randint(0, 12)
            for eps in (0.1, 0.3):
                star = best_ratio_viable_star(inst, cap, eps)
                stars = all_stars(inst, cap)
                if not stars:
                    assert star is None
                    continue
                best = max(((p, w) for p, w, _, _ in stars),
                           key=lambda t: ratio_key(*t))
                got_p = inst.total_profit(star.vertices)
                got_w = inst.total_weight(star.vertices)
                validate_star(inst, star)
                assert got_w <= cap
                assert ratio_meets(got_p, got_w, best[0], best[1], eps)


PROFIT_WEIGHT = st.tuples(st.integers(0, 3) | st.integers(0, 1000),
                          st.integers(0, 3) | st.integers(0, 60))


class TestCenterBound:
    """The ratio oracle's center bound: the best star of the center at any ε."""

    @given(PROFIT_WEIGHT, st.lists(PROFIT_WEIGHT, max_size=8))
    @example((0, 0), [(0, 0), (0, 2), (3, 0), (5, 1)])
    @example((0, 0), [(0, 0), (0, 4)])
    @settings(max_examples=400, deadline=None)
    def test_is_the_best_subset_key(self, center, leaves):
        profits = [center[0]] + [p for p, _ in leaves]
        weights = [center[1]] + [w for _, w in leaves]
        keys = [ratio_key(p, w) for p, w in zip(profits, weights)]
        ids = range(1, len(leaves) + 1)
        brute = max(ratio_key(sum(profits[u] for u in (0,) + subset),
                              sum(weights[u] for u in (0,) + subset))
                    for r in range(len(leaves) + 1) for subset in combinations(ids, r))
        assert stars._center_bound(profits, weights, keys, 0, list(ids)) == brute

    def test_poor_center_builds_no_table(self, monkeypatch):
        # Center 0 (w10, p1) sits next to leaf 1 (w1, p10), so its members'
        # best ratio is 10, but every star of center 0 has ratio at most 1.
        # The star {2, 3} at ratio 5 wins before center 0 is reached.
        inst = undirected(4, [(0, 1), (2, 3)], weights=[10, 1, 1, 1], profits=[1, 10, 5, 5])
        built = []

        class Counting(stars.ProfitTable):
            def __init__(self, items, capacity, eps=None):
                built.append(tuple(it.id for it in items))
                super().__init__(items, capacity, eps)

        monkeypatch.setattr(stars, "ProfitTable", Counting)
        star = best_ratio_viable_star(inst, 20, 0.1)
        assert star == best_ratio_viable_star_full_scan(inst, 20, 0.1) == Star(2, (3,))
        assert (1,) not in built  # center 0's table, over its one leaf
        assert sorted(built) == [(0,), (2,), (3,)]


@st.composite
def star_instances(draw, max_n=8):
    """Small undirected instances with zero weights, zero profits and isolated
    vertices.  Profits up to 1000 make the scaled tables round (divisor > 1),
    so the ratio oracle's forced-leaf tables run."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    weight = draw(st.sampled_from([st.integers(0, 3), st.integers(0, 6)]))
    profit = draw(st.sampled_from([st.integers(0, 3), st.integers(0, 1000),
                                   st.one_of(st.integers(0, 3), st.integers(0, 1000))]))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    profits = draw(st.lists(profit, min_size=n, max_size=n))
    return Instance(False, n, edges, weights, profits, 0)


EPSILONS = st.sampled_from([Fraction(1, 100), Fraction(1, 10), Fraction(1, 3), 0.5])


class TestPruningMatchesFullScan:
    """The pruned oracles return the very star of a scan over every center."""

    @given(star_instances(), st.integers(0, 20), EPSILONS)
    @settings(max_examples=400, deadline=None)
    def test_profit_oracle(self, inst, capacity, eps):
        assert best_profit_viable_star(inst, capacity, eps) \
            == best_profit_viable_star_full_scan(inst, capacity, eps)

    @given(star_instances(), st.integers(0, 20), EPSILONS)
    @settings(max_examples=400, deadline=None)
    def test_ratio_oracle(self, inst, capacity, eps):
        assert best_ratio_viable_star(inst, capacity, eps) \
            == best_ratio_viable_star_full_scan(inst, capacity, eps)

    @given(star_instances(max_n=9), st.integers(0, 24), EPSILONS)
    @settings(max_examples=150, deadline=None)
    def test_greedy(self, inst, k, eps):
        got = greedy_1_neighbour(inst, k, eps)
        ref = greedy_1_neighbour(inst, k, eps,
                                 profit_oracle=best_profit_viable_star_full_scan,
                                 ratio_oracle=best_ratio_viable_star_full_scan)
        assert got.chosen == ref.chosen
        assert got.trace == ref.trace

    @pytest.mark.parametrize("n", [24, 32, 40, 50])
    @pytest.mark.parametrize("d", [3, 6])
    def test_greedy_at_benchmark_scale(self, n, d):
        # Degrees the small instances above rarely reach, as in the
        # star-greedy benchmark pool.
        inst = gen_random(n, d / n, False, 8, 8, 2 * n, seed=100 * n + d)
        got = greedy_1_neighbour(inst, None, Fraction(1, 10))
        ref = greedy_1_neighbour(inst, None, Fraction(1, 10),
                                 profit_oracle=best_profit_viable_star_full_scan,
                                 ratio_oracle=best_ratio_viable_star_full_scan)
        assert got.chosen == ref.chosen
        assert got.trace == ref.trace
