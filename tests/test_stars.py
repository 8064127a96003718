"""Star partition and the two viable-star oracles against exhaustive search."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsack import (Instance, Star, ValidationError, best_profit_viable_star,
                       best_ratio_viable_star, gen_random, greedy_1_neighbour,
                       is_1_neighbour_set, parse, ratio_key, star_partition, stars,
                       validate_star)
from graphsack.knapsack import _RATIO_TOP
from helpers import (applying_floor, best_profit_viable_star_full_scan, best_ratio_subset,
                     best_ratio_viable_star_full_scan, ignoring_floor, item_star,
                     perfbench_pool, random_instance, ratio_meets, star_partition_per_component,
                     star_ratio_key, undirected_shapes)


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

    @given(undirected_shapes())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_per_component_partition(self, inst):
        # one walk per component from its smallest id, with each vertex's
        # earliest-visited neighbour as its parent, is the BFS tree that the
        # components of connected_components were rooted in
        assert star_partition(inst) == star_partition_per_component(inst)


class TestValidateStar:
    def test_accepts_sorted_leaves(self):
        validate_star(undirected(3, [(0, 1), (0, 2)]), Star(0, (1, 2)))

    @pytest.mark.parametrize("leaves", [(1, 1), (2, 1)])
    def test_rejects_repeated_or_unsorted_leaves(self, leaves):
        with pytest.raises(ValidationError):
            validate_star(undirected(3, [(0, 1), (0, 2)]), Star(0, leaves))

    def test_rejects_leaf_not_adjacent_to_center(self):
        with pytest.raises(ValidationError, match="leaf 2 not adjacent to center 0"):
            validate_star(undirected(3, [(0, 1), (1, 2)]), Star(0, (1, 2)))

    def test_rejects_bare_center_of_positive_degree(self):
        with pytest.raises(ValidationError, match="bare center with positive degree"):
            validate_star(undirected(2, [(0, 1)]), Star(0, ()))

    def test_rejects_star_that_is_not_a_1_neighbour_set(self):
        # directed 0 -> 1 -> 2: leaf 1 needs its own out-neighbour 2
        inst = Instance(True, 3, [(0, 1), (1, 2)], [1] * 3, [1] * 3, 3)
        with pytest.raises(ValidationError, match="not a 1-neighbour set"):
            validate_star(inst, Star(0, (1,)))


@pytest.mark.parametrize("oracle", [best_profit_viable_star, best_ratio_viable_star])
def test_star_oracles_reject_bad_arguments(oracle):
    inst = Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 2)
    with pytest.raises(ValidationError, match="require an undirected instance"):
        oracle(inst, 2, 0.1)
    with pytest.raises(ValidationError, match="capacity must be non-negative"):
        oracle(undirected(2, [(0, 1)]), -1, 0.1)


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
        # Center 0 (w10, p1) has two fitting leaves 1 and 2 (w1, p10), so its
        # members' best ratio is 10, but every star of center 0 has ratio at
        # most 21/12.  The triangle 3-4-5 (w1, p5) gives a star at ratio 5,
        # which wins before center 0 is reached.  Centers 1 and 2 have one
        # leaf each and build no table.
        inst = undirected(6, [(0, 1), (0, 2), (3, 4), (3, 5), (4, 5)],
                          weights=[10, 1, 1, 1, 1, 1], profits=[1, 10, 10, 5, 5, 5])
        built = count_tables(monkeypatch)
        star = best_ratio_viable_star(inst, 20, 0.1)
        assert star == best_ratio_viable_star_full_scan(inst, 20, 0.1) == Star(3, (4, 5))
        assert (1, 2) not in built  # center 0's table, over its two leaves
        assert sorted(built) == [(3, 4), (3, 5), (4, 5)]


def count_tables(monkeypatch) -> list[tuple[int, ...]]:
    """The item ids of every ``ProfitTable`` the star oracles build from now on."""
    built = []

    class Counting(stars.ProfitTable):
        def __init__(self, items, capacity, eps=None):
            built.append(tuple(it.id for it in items))
            super().__init__(items, capacity, eps)

    monkeypatch.setattr(stars, "ProfitTable", Counting)
    return built


class TestOneLeafCenter:
    """A center with one fitting leaf builds no table, in either oracle: that
    leaf is its one non-empty leaf set, offered as a single."""

    # The path 0-1 beats the star of center 2 with leaves 3 and 4 by profit
    # and by ratio.  With profits near 1000 at eps 1/100, a table over the
    # one leaf of center 0 or 1 would round (divisor > 1).
    @pytest.mark.parametrize("profits, eps, divisor", [
        ([6, 5, 3, 3, 3], Fraction(1, 10), 1),
        ([1000, 990, 500, 400, 400], Fraction(1, 100), Fraction(99, 10))])
    @pytest.mark.parametrize("oracle, full_scan", [
        (best_profit_viable_star, best_profit_viable_star_full_scan),
        (best_ratio_viable_star, best_ratio_viable_star_full_scan)])
    def test_one_leaf_center_wins(self, monkeypatch, profits, eps, divisor,
                                  oracle, full_scan):
        inst = undirected(5, [(0, 1), (2, 3), (2, 4)], weights=[1, 1, 2, 2, 2],
                          profits=profits)
        assert stars.ProfitTable([stars.Item(1, 1, profits[1])], 19, eps).divisor == divisor
        built = count_tables(monkeypatch)
        assert oracle(inst, 20, eps) == full_scan(inst, 20, eps) == Star(0, (1,))
        assert (0,) not in built and (1,) not in built


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

    @staticmethod
    def assert_greedy_matches_full_scan(inst, k, eps):
        # The full scan takes no floor: one reference ignores it, the other
        # applies it to the scan's star; both give the floored greedy's answer.
        got = greedy_1_neighbour(inst, k, eps)
        for adapt in (ignoring_floor, applying_floor):
            ref = greedy_1_neighbour(inst, k, eps,
                                     profit_oracle=best_profit_viable_star_full_scan,
                                     ratio_oracle=adapt(best_ratio_viable_star_full_scan))
            assert got.chosen == ref.chosen, adapt.__name__
            assert got.trace == ref.trace, adapt.__name__

    @given(star_instances(max_n=9), st.integers(0, 24), EPSILONS)
    @settings(max_examples=150, deadline=None)
    def test_greedy(self, inst, k, eps):
        self.assert_greedy_matches_full_scan(inst, k, eps)

    @pytest.mark.parametrize("n", [24, 32, 40, 50])
    @pytest.mark.parametrize("d", [3, 6])
    def test_greedy_at_benchmark_scale(self, n, d):
        # Degrees the small instances above rarely reach, as in the
        # star-greedy benchmark pool.
        inst = gen_random(n, d / n, False, 8, 8, 2 * n, seed=100 * n + d)
        self.assert_greedy_matches_full_scan(inst, None, Fraction(1, 10))


class TestRatioFloor:
    """``best_ratio_viable_star`` with a floor is its unfloored star, or None
    when that star's ratio key is below the floor."""

    # Floors from the vertices' keys and the star's own, and one either side
    # of the star's, so that ties with the floor come up; 0, 1 and the
    # zero-weight class's key are the edges of the key range.
    @given(star_instances(), st.integers(0, 20), EPSILONS, st.integers(0, 1 << 16))
    @settings(max_examples=400, deadline=None)
    @example(undirected(3, [(0, 1), (0, 2)], weights=[0, 0, 2], profits=[0, 0, 5]),
             0, Fraction(1, 10), 0)
    @example(undirected(3, [(0, 1), (1, 2)], weights=[1, 0, 0], profits=[1000, 0, 7]),
             0, Fraction(1, 100), 1)
    @example(undirected(4, [(0, 1), (0, 2), (0, 3)], weights=[1, 2, 2, 3],
                        profits=[1000, 990, 610, 400]), 5, Fraction(1, 100), 2)
    def test_floor_filters_the_unfloored_star(self, inst, capacity, eps, pick):
        s = best_ratio_viable_star(inst, capacity, eps)
        floors = [ratio_key(p, w) for p, w in zip(inst.profits, inst.weights)] + [0, 1, _RATIO_TOP]
        if s is not None:
            key = star_ratio_key(inst, s)
            floors = [key, key - 1, key + 1] + floors
        f = floors[pick % len(floors)]
        expected = s if s is not None and star_ratio_key(inst, s) >= f else None
        assert best_ratio_viable_star(inst, capacity, eps, f) == expected

    @pytest.mark.parametrize("floor", [True, 1.5, "3"])
    def test_floor_must_be_an_int(self, floor):
        inst = undirected(2, [(0, 1)])
        with pytest.raises(ValidationError):
            best_ratio_viable_star(inst, 2, 0.1, floor)

    def test_floor_above_every_bound_builds_no_table(self, monkeypatch):
        inst = undirected(4, [(0, 1), (0, 2), (0, 3)], weights=[1, 1, 1, 1],
                          profits=[5, 4, 3, 2])
        built = count_tables(monkeypatch)
        # the winner's own key as the floor: same star, same table
        assert best_ratio_viable_star(inst, 4, 0.1, ratio_key(9, 2)) == Star(0, (1,))
        assert built == [(1, 2, 3)]
        built.clear()
        # above center 0's bound, its ratio 5 alone: no center is scanned
        assert best_ratio_viable_star(inst, 4, 0.1, ratio_key(5, 1) + 1) is None
        assert built == []


    def test_floor_equal_to_a_vertex_key_ranks_that_vertex(self, monkeypatch):
        # Each pair 0-1 and 2-3 has one star; 0 and 1 key exactly at the floor,
        # so they and their star are kept, and the pair 2-3 is never ranked.
        inst = undirected(4, [(0, 1), (2, 3)], weights=[1, 1, 1, 1], profits=[4, 4, 1, 1])
        ranked = count_center_bounds(monkeypatch)
        assert best_ratio_viable_star(inst, 4, 0.1, ratio_key(4, 1)) == Star(0, (1,))
        assert ranked == [0, 1]
        ranked.clear()
        assert best_ratio_viable_star(inst, 4, 0.1, ratio_key(4, 1) + 1) is None
        assert ranked == []

    def test_center_whose_only_floor_member_does_not_fit_beside_it(self, monkeypatch):
        # Vertex 1 (w3, p30) reaches the floor and fits alone, but not beside
        # its one neighbour 0 (w1), so center 0 is not ranked; its one star,
        # {0, 2} at ratio 1, is below the floor anyway.  Vertex 1 has no leaf
        # that fits beside it, so it has no star and no bound either.
        inst = undirected(3, [(0, 1), (0, 2)], weights=[1, 3, 1], profits=[1, 30, 1])
        ranked = count_center_bounds(monkeypatch)
        assert best_ratio_viable_star(inst, 3, 0.1) == Star(0, (2,))
        assert sorted(ranked) == [0, 2]
        ranked.clear()
        assert best_ratio_viable_star(inst, 3, 0.1, ratio_key(30, 3)) is None
        assert ranked == []


def test_greedy_tables_built_over_the_star_greedy_pool(monkeypatch):
    # A work pin, with no timing: one greedy-1n pass at eps 1/10 over every
    # star-greedy pool member.  The boundary vertex's ratio key floors the
    # ratio oracle, which then builds no table for a center that cannot beat
    # it; without the floor the pass builds 5,483 tables.
    members = perfbench_pool("star-greedy")
    assert len(members) == 128
    built = count_tables(monkeypatch)
    for _stem, text, _constraint, _variant in members:
        greedy_1_neighbour(parse(text), None, Fraction(1, 10))
    assert len(built) <= 4201


def count_center_bounds(monkeypatch) -> list[int]:
    """The center of every ``_center_bound`` call the ratio oracle makes from now on."""
    ranked = []

    def counting(profits, weights, keys, center, leaves):
        ranked.append(center)
        return bound(profits, weights, keys, center, leaves)

    bound = stars._center_bound
    monkeypatch.setattr(stars, "_center_bound", counting)
    return ranked


def test_greedy_center_bounds_over_the_star_greedy_pool(monkeypatch):
    # A work pin, with no timing, over the same pass.  Under the boundary
    # vertex's floor the ratio oracle ranks only the fitting vertices keyed at
    # the floor or above and their neighbours that fit beside them; ranking
    # every fitting center takes 49,145 bounds.
    ranked = count_center_bounds(monkeypatch)
    for _stem, text, _constraint, _variant in perfbench_pool("star-greedy"):
        greedy_1_neighbour(parse(text), None, Fraction(1, 10))
    assert len(ranked) <= 22879


def ratio_on_item_star(pairs, capacity, eps=0.3):
    """The ratio oracle's star on ``item_star`` of (weight, profit) pairs."""
    raw = [(i, w, p) for i, (w, p) in enumerate(pairs)]
    return best_ratio_viable_star(item_star(raw, capacity), capacity, eps)


class TestRatioOnItemStar:
    """The ratio oracle as a ratio knapsack: on ``item_star`` its stars are
    the non-empty item subsets, the centre ``n`` adding nothing."""

    def test_single_item_beats_pairs(self):
        # item 0 alone at 10/1 beats both items at 20/3
        assert ratio_on_item_star([(1, 10), (2, 10)], 3) == Star(0, (2,))

    def test_zero_weight_class_is_selected(self):
        star = ratio_on_item_star([(5, 1), (0, 5)], 5)
        assert star.vertices == (1, 2)

    def test_none_when_nothing_fits(self):
        assert ratio_on_item_star([(5, 1)], 4) is None

    def test_no_items_leave_the_bare_centre(self):
        # with no item the centre is isolated, and its bare star is feasible
        assert ratio_on_item_star([], 4) == Star(0, ())

    def test_zero_profit_items_tie_on_the_smallest_centre(self):
        # every star has ratio 0 and profit 0, so the smallest (centre,
        # leaves) wins: item 0 as centre with the hub 3 as its leaf
        assert ratio_on_item_star([(7, 0), (5, 0), (6, 0)], 10) == Star(0, (3,))

    def test_bound_random(self):
        rng = random.Random(4242)
        for _ in range(150):
            n = rng.randint(1, 12)
            raw = [(i, rng.randint(0, 5), rng.randint(0, 8)) for i in range(n)]
            cap = rng.randint(0, 10)
            inst, best = item_star(raw, cap), best_ratio_subset(raw, cap)
            for eps in (0.1, 0.5):
                star = best_ratio_viable_star(inst, cap, eps)
                if best is None:
                    assert star is None
                    continue
                validate_star(inst, star)
                profit, weight = inst.total_profit(star.vertices), inst.total_weight(star.vertices)
                assert weight <= cap
                assert ratio_meets(profit, weight, best[0], best[1], eps)

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 6),
                              st.sampled_from([1, 2, 3, 10, 100])), max_size=7),
           st.integers(0, 20), EPSILONS)
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan(self, triples, capacity, eps):
        # Weights up to 12 against capacities up to 20: a leaf may fit beside
        # the centre and not beside a forced leaf, which the forced-leaf
        # tables drop themselves.  Profits p * m make many equal ratios and,
        # at m = 100, scaled tables that round.
        raw = [(i, w, p * m) for i, (w, p, m) in enumerate(triples)]
        inst = item_star(raw, capacity)
        assert best_ratio_viable_star(inst, capacity, eps) \
            == best_ratio_viable_star_full_scan(inst, capacity, eps)
