"""All-neighbour solvers: directed PTAS, subset-sum exact, component FPTAS."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsack.all_neighbour
from graphsack import (Instance, UnsupportedVariantError, closure_catalog,
                       condense, descendants, general_undirected_alln_fptas,
                       is_all_neighbour_set, uniform_directed_alln_ptas,
                       uniform_undirected_alln)
from graphsack.knapsack import fitting_picks
from helpers import (brute_force_profit, opt_at, pool_answers_match_reference,
                     profit_for_every_budget, random_instance, random_uniform,
                     uniform_directed_alln_ptas_rescan)


def assert_closure_union(inst, chosen):
    """Every all-neighbour output is a union of SCC descendant closures."""
    assert is_all_neighbour_set(inst, chosen)
    if not inst.directed:
        return
    cond = condense(inst)
    touched = {cond.membership[v] for v in chosen}
    assert descendants(cond, touched) == touched
    expanded = sorted(v for u in touched for v in cond.scc_vertices[u])
    assert expanded == sorted(chosen)


class TestUniformDirectedPtas:
    def test_single_arc(self):
        inst = Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 2)
        assert uniform_directed_alln_ptas(inst, 2, 0.25).chosen == (0, 1)
        assert uniform_directed_alln_ptas(inst, 1, 0.25).chosen == (1,)

    def test_cycle_too_heavy_leaves_singleton(self):
        # 3-cycle pointing at a singleton: closure of the cycle weighs 4 > 3
        inst = Instance(True, 4, [(0, 1), (1, 2), (2, 0), (2, 3)],
                        [1] * 4, [1] * 4, 3)
        sol = uniform_directed_alln_ptas(inst, 3, 0.25)
        assert sol.chosen == (3,)
        assert brute_force_profit(inst, 3, "all") == 1

    def test_diamond(self):
        inst = Instance(True, 4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                        [1] * 4, [1] * 4, 3)
        sol = uniform_directed_alln_ptas(inst, 3, 0.25)
        assert sol.chosen == (1, 2, 3)
        assert brute_force_profit(inst, 3, "all") == 3

    def test_weight_equals_profit_generalization(self):
        inst = Instance(True, 3, [(0, 1), (1, 2)], [5, 2, 1], [5, 2, 1], 3)
        sol = uniform_directed_alln_ptas(inst, 3, 0.5)
        assert sol.chosen == (1, 2) and sol.total_weight == 3

    def test_rejects_weight_profit_mismatch(self):
        bad = Instance(True, 2, [(0, 1)], [1, 1], [2, 1], 2)
        with pytest.raises(UnsupportedVariantError):
            uniform_directed_alln_ptas(bad, 2, 0.5)

    def test_rejects_undirected(self):
        with pytest.raises(UnsupportedVariantError):
            uniform_directed_alln_ptas(
                Instance(False, 2, [(0, 1)], [1, 1], [1, 1], 2), 2, 0.5)

    def test_guarantee_random(self):
        rng = random.Random(9291)
        for _ in range(80):
            n = rng.randint(1, 10)
            inst = random_uniform(rng, n, True, rng.random() * 0.5, 0)
            k = rng.randint(0, n + 2)
            frontier = profit_for_every_budget(inst, "all")
            opt = opt_at(frontier, k)
            for eps in (0.25, 0.5):
                sol = uniform_directed_alln_ptas(inst, k, eps)
                assert_closure_union(inst, sol.chosen)
                assert sol.total_weight <= k
                need = math.ceil((1 - Fraction(str(eps))) * opt)
                assert sol.total_weight >= need


@st.composite
def weight_equals_profit_digraphs(draw, max_n=10):
    """Directed instances with weight == profit, zero weights, several
    multi-vertex SCCs and budgets from 0 to above the total weight."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    weights = draw(st.lists(st.sampled_from([0, 1, 1, 2, 3, 5]), min_size=n, max_size=n))
    k = draw(st.integers(0, sum(weights) + 1))
    return Instance(True, n, edges, weights, weights, k)


class TestReadyHeapMatchesRescan:
    """The ready heap absorbs light SCCs in the order of a full rescan."""

    @given(weight_equals_profit_digraphs(),
           st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), 0.9]))
    @settings(max_examples=400, deadline=None)
    def test_matches_rescan(self, inst, eps):
        got = uniform_directed_alln_ptas(inst, eps=eps)
        want = uniform_directed_alln_ptas_rescan(inst, eps=eps)
        assert (got.chosen, got.trace) == (want.chosen, want.trace)

    def test_lower_id_that_becomes_ready_goes_first(self):
        # SCC ids: {1} = 0 -> {2} = 1, and {0} = 2, all light.  After {2} is
        # absorbed, {1} (id 0) is ready and beats the earlier-ready {0}
        # (id 2) to the last unit of budget.
        inst = Instance(True, 3, [(1, 2)], [1] * 3, [1] * 3, 2)
        cond = condense(inst)
        assert [cond.membership[v] for v in range(3)] == [2, 0, 1]
        sol = uniform_directed_alln_ptas(inst, eps=Fraction(1, 2))
        assert sol.chosen == (1, 2)
        want = uniform_directed_alln_ptas_rescan(inst, eps=Fraction(1, 2))
        assert (sol.chosen, sol.trace) == (want.chosen, want.trace)

    def test_dropped_scc_stays_dropped(self):
        # SCC ids f=0, g=1, e=2, b=3, d=4 (vertices 4, 3, 2, 1, 0); e -> d.
        # f and g fill 3 of 4, b (light, weight 2) does not fit and is
        # dropped, d fills the budget, and only then is e (weight 0, lower id
        # than b) ready.
        inst = Instance(True, 5, [(2, 0)], [1, 2, 0, 1, 2], [1, 2, 0, 1, 2], 4)
        cond = condense(inst)
        assert [cond.membership[v] for v in range(5)] == [4, 3, 2, 1, 0]
        sol = uniform_directed_alln_ptas(inst, eps=Fraction(1, 2))
        assert sol.chosen == (0, 2, 3, 4) and sol.trace["units"] == (0, 1, 2, 4)
        want = uniform_directed_alln_ptas_rescan(inst, eps=Fraction(1, 2))
        assert (sol.chosen, sol.trace) == (want.chosen, want.trace)


def closure_weight(cond, pick):
    return sum(cond.scc_weight[u] for u in descendants(cond, pick))


class TestGuessesFitTheBudget:
    """uda-ptas guesses the heavy picks whose closure fits, in order, up to
    the first whose padded closure weighs exactly the budget."""

    def test_many_heavy_sccs(self):
        # 33 singleton SCCs, all heavy at k = 2, eps = 1/10 (weight > 0.2):
        # sum of C(33, s) for s <= 10 is about 150.7 million picks of at most
        # 1/eps heavy SCCs, and none of size 3 or more fits.
        arcs = [(0, 3), (3, 6), (1, 9), (12, 15), (18, 2), (21, 24)]
        weights = [1 + v % 3 for v in range(33)]
        inst = Instance(True, 33, arcs, weights, weights, 2)
        cond = condense(inst)
        assert cond.scc_count == 33 and min(cond.scc_weight) >= 1
        sol = uniform_directed_alln_ptas(inst, eps=Fraction(1, 10))
        fitting = [pick for size in range(3) for pick in combinations(range(33), size)
                   if closure_weight(cond, pick) <= 2]
        first_full = next(i for i, pick in enumerate(fitting)
                          if closure_weight(cond, pick) == 2)
        assert 1 < first_full + 1 < len(fitting)
        assert sol.trace["guesses"] == first_full + 1
        assert sol.total_weight == 2

    def test_stops_when_the_empty_pick_fills_the_budget(self):
        # 50 isolated heavy vertices of weight 2 and 10 light ones of weight 1,
        # k = 10, eps = 1/10: every pick of at most 5 heavy vertices fits,
        # over 2.3 million picks, but the empty pick absorbs the ten light
        # vertices and already weighs k.
        weights = [2] * 50 + [1] * 10
        inst = Instance(True, 60, [], weights, weights, 10)
        assert sum(math.comb(50, size) for size in range(6)) > 2_300_000
        sol = uniform_directed_alln_ptas(inst, eps=Fraction(1, 10))
        assert sol.trace == {"guesses": 1, "units": tuple(range(10))}
        assert sol.chosen == tuple(range(50, 60)) and sol.total_weight == 10

    def test_filled_budget_keeps_the_winner(self):
        # the first closure to weigh k wins: later picks that also weigh k
        # are never tried, and could not have replaced it
        weights = [3, 2, 2, 1, 1, 1]
        inst = Instance(True, 6, [(0, 3), (1, 4)], weights, weights, 4)
        sol = uniform_directed_alln_ptas(inst, eps=Fraction(1, 2))
        want = uniform_directed_alln_ptas_rescan(inst, eps=Fraction(1, 2))
        assert (sol.chosen, sol.trace) == (want.chosen, want.trace)
        assert sol.total_weight == 4

    @given(weight_equals_profit_digraphs(max_n=12),
           st.sampled_from([Fraction(1, 10), Fraction(1, 5), Fraction(1, 4),
                            Fraction(1, 3), Fraction(1, 2)]))
    @settings(max_examples=200, deadline=None)
    def test_picks_are_the_fitting_combinations(self, inst, eps):
        seen = []

        def recording(candidates, k, cost):
            for pick in fitting_picks(candidates, k, cost):
                seen.append(pick)
                yield pick

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphsack.all_neighbour, "fitting_picks", recording)
            sol = uniform_directed_alln_ptas(inst, eps=eps)
        k, cond = inst.budget, condense(inst)
        heavy = [u for u in range(cond.scc_count) if cond.scc_weight[u] > eps * k]
        fitting = [pick for size in range(int(1 / eps) + 1)
                   for pick in combinations(heavy, size)
                   if closure_weight(cond, pick) <= k]
        guesses = uniform_directed_alln_ptas_rescan(inst, eps=eps).trace["guesses"]
        assert seen == fitting[:guesses]
        assert max(map(len, seen)) <= int(1 / eps)
        assert sol.trace["guesses"] == len(seen)
        if len(seen) < len(fitting):
            assert sol.total_weight == k


class TestClosureCatalog:
    def test_invariants_random(self):
        rng = random.Random(515)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 10), True,
                                   rng.random() * 0.5, 6, 1, 6)
            cond = condense(inst)
            for eps in (Fraction(1, 5), Fraction(1, 2)):
                catalog = closure_catalog(cond, eps, inst.budget)
                heavy = [u for u in range(cond.scc_count)
                         if cond.scc_weight[u] > eps * inst.budget]
                assert list(catalog) == heavy
                for u in heavy:
                    assert catalog[u] == frozenset(descendants(cond, [u]))

    def test_weight_of_exactly_eps_k_is_light(self):
        # eps * k = 3: SCCs {3} and {0, 1} weigh 3 and are light; {4}
        # weighs 5 and {2} weighs 4, so those two are heavy.
        w = [1, 2, 4, 3, 5]
        inst = Instance(True, 5, [(0, 1), (1, 0), (1, 2), (3, 2), (4, 0)], w, w, 30)
        cond = condense(inst)
        assert cond.scc_vertices == ((4,), (3,), (0, 1), (2,))
        assert cond.scc_weight == (5, 3, 3, 4)
        catalog = closure_catalog(cond, Fraction(1, 10), 30)
        assert catalog == {0: frozenset({0, 2, 3}), 3: frozenset({3})}
        sol = uniform_directed_alln_ptas(inst, 30, Fraction(1, 10))
        assert sol.trace == {"guesses": 4, "units": (0, 1, 2, 3)}


class TestUniformUndirected:
    def test_components_example(self):
        inst = Instance(False, 7, [(0, 1), (0, 2), (3, 4), (5, 6)],
                        [1] * 7, [1] * 7, 4)
        sol = uniform_undirected_alln(inst, 4)
        assert sol.size == 4

    def test_zero_budget(self):
        inst = Instance(False, 2, [(0, 1)], [1, 1], [1, 1], 0)
        assert uniform_undirected_alln(inst, 0).chosen == ()

    def test_budget_above_n(self):
        inst = Instance(False, 3, [(0, 1)], [1] * 3, [1] * 3, 5)
        assert uniform_undirected_alln(inst, 5).size == 3

    def test_rejects_non_uniform(self):
        bad = Instance(False, 2, [(0, 1)], [1, 2], [1, 1], 2)
        with pytest.raises(UnsupportedVariantError):
            uniform_undirected_alln(bad, 2)

    def test_exactness_random(self):
        rng = random.Random(246)
        for _ in range(100):
            n = rng.randint(1, 11)
            inst = random_uniform(rng, n, False, rng.random() * 0.5, 0)
            frontier = profit_for_every_budget(inst, "all")
            for k in range(n + 2):
                sol = uniform_undirected_alln(inst, k)
                assert_closure_union(inst, sol.chosen)
                assert sol.size == opt_at(frontier, k)


class TestGeneralUndirectedFptas:
    def test_component_knapsack_example(self):
        # components (w,p): (3,10), (2,4), (2,5); k=4; optimum is the single
        # (3,10) component, and eps=0.05 forces profit >= 9.5, hence 10.
        inst = Instance(False, 7, [(0, 1), (0, 2), (3, 4), (5, 6)],
                        [1, 1, 1, 1, 1, 1, 1], [4, 3, 3, 2, 2, 2, 3], 4)
        sol = general_undirected_alln_fptas(inst, 4, 0.05)
        assert sol.total_profit == 10

    def test_single_heavy_component(self):
        inst = Instance(False, 2, [(0, 1)], [3, 3], [5, 5], 4)
        sol = general_undirected_alln_fptas(inst, 4, 0.1)
        assert sol.chosen == () and sol.total_profit == 0

    def test_zero_weight_components_all_taken(self):
        inst = Instance(False, 4, [(0, 1)], [0, 0, 0, 0], [1, 1, 0, 2], 0)
        sol = general_undirected_alln_fptas(inst, 0, 0.1)
        assert sol.chosen == (0, 1, 2, 3)

    def test_rejects_directed(self):
        with pytest.raises(UnsupportedVariantError):
            general_undirected_alln_fptas(
                Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 2), 2, 0.1)

    def test_guarantee_random(self):
        rng = random.Random(135)
        for _ in range(100):
            n = rng.randint(1, 10)
            inst = random_instance(rng, n, False, rng.random() * 0.4, 4, 6, 0)
            k = rng.randint(0, 15)
            opt = brute_force_profit(inst, k, "all")
            for eps in (0.1, 0.3):
                sol = general_undirected_alln_fptas(inst, k, eps)
                assert_closure_union(inst, sol.chosen)
                assert sol.total_weight <= k
                assert Fraction(sol.total_profit) >= (1 - Fraction(str(eps))) * opt


def test_scc_closure_pool_matches_the_benchmark_reference(tmp_path):
    # Every scc-closure pool member (uda-ptas at k = sum(w)/2 and sum(w)/4,
    # and ud1n-ptas), solved as the benchmark solves it, must pass the
    # benchmark's own checker against its recorded reference answer.
    assert pool_answers_match_reference("scc-closure", tmp_path) == {"uda-ptas": 192,
                                                                     "ud1n-ptas": 96}


def test_component_dp_pool_matches_the_benchmark_reference(tmp_path):
    # Every component-dp pool member, solved by gua-fptas as the benchmark
    # solves it, must pass the benchmark's checker against its reference.
    assert pool_answers_match_reference("component-dp", tmp_path) == {"gua-fptas": 144}
