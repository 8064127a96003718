"""Greedy, linear-exact, and PTAS solvers for the 1-neighbour constraint."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsack import (Instance, UnsupportedVariantError, ValidationError, condense,
                       gen_max_k_cover, graphs, greedy_1_neighbour, is_1_neighbour_set,
                       one_neighbour, parse, smallest_cycle, uniform_directed_1n_ptas,
                       uniform_undirected_1n)
from helpers import (brute_force_profit, grow_1n_passes, opt_at, perfbench_pool,
                     planted_cycle_graphs, pool_answers_match_reference,
                     profit_for_every_budget, random_instance, random_uniform,
                     undirected_shapes, uniform_directed_1n_combinations,
                     uniform_directed_1n_ptas_all_cycles, uniform_undirected_1n_bfs_parents)


def undirected(n, edges, weights=None, profits=None, k=10):
    return Instance(False, n, edges, weights or [1] * n, profits or [1] * n, k)


class TestGreedy:
    def test_whole_path_is_taken(self):
        inst = undirected(3, [(0, 1), (1, 2)], profits=[1, 0, 1], k=3)
        sol = greedy_1_neighbour(inst, 3, 0.1)
        assert sol.chosen == (0, 1, 2)
        assert sol.total_profit == 2 == brute_force_profit(inst, 3, "one")

    def test_empty_graph(self):
        sol = greedy_1_neighbour(undirected(0, [], k=0), 0, 0.1)
        assert sol.chosen == () and sol.total_profit == 0

    def test_max_k_cover_instance(self):
        # two sets {0,1,2} and {2,3}; k=1 budget buys one set vertex, and the
        # greedy grabs the heavier cover's star: profit = max set size = 3.
        inst = gen_max_k_cover(4, [[0, 1, 2], [2, 3]], 1)
        sol = greedy_1_neighbour(inst, 1, 0.1)
        assert sol.total_profit == 3 == brute_force_profit(inst, 1, "one")

    def test_rejects_directed(self):
        with pytest.raises(UnsupportedVariantError):
            greedy_1_neighbour(Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 1), 1, 0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            greedy_1_neighbour(undirected(1, []), 1, 0.0)

    def test_guarantee_and_feasibility_random(self):
        rng = random.Random(515)
        bound = Fraction(267, 1000)
        for _ in range(60):
            n = rng.randint(1, 10)
            inst = random_instance(rng, n, False, rng.random() * 0.5, 5, 5, 0)
            k = rng.randint(0, 20)
            sol = greedy_1_neighbour(inst, k, 0.1)
            assert is_1_neighbour_set(inst, sol.chosen)
            assert sol.total_weight <= k
            opt = brute_force_profit(inst, k, "one")
            assert Fraction(sol.total_profit) >= bound * opt

    def test_trace_structure(self):
        inst = undirected(4, [(0, 1), (2, 3)], profits=[3, 1, 2, 2], k=4)
        sol = greedy_1_neighbour(inst, 4, 0.1)
        seen = [v for it in sol.trace["iterations"] for v in it["vertices"]]
        assert len(seen) == len(set(seen))
        assert sol.trace["returned"] in ("greedy-set", "best-profit-star")


class TestGreedyRoundTieBreaks:
    """Greedy's own choice per round, with the real oracles: round 1 takes the
    star {0, 1} of ratio 10, and a heavy zero-profit pendant keeps each
    boundary vertex from having a star of its own in the remaining graph."""

    def test_equal_ratio_boundary_vertices_take_the_lower_id(self):
        # 2 and 3 both hang off 0 with ratio 3; the budget leaves room for one
        inst = undirected(6, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5)],
                          weights=[1, 1, 1, 1, 100, 100], profits=[10, 10, 3, 3, 0, 0])
        sol = greedy_1_neighbour(inst, 3, 0.1)
        assert sol.trace["iterations"] == [
            {"index": 1, "kind": "star", "vertices": (0, 1)},
            {"index": 2, "kind": "vertex", "vertices": (2,)}]
        assert sol.chosen == (0, 1, 2) and sol.trace["returned"] == "greedy-set"

    def test_star_wins_a_ratio_tie_with_a_boundary_vertex(self):
        # boundary vertex 2 and the star {4, 5} both have ratio 3
        inst = undirected(6, [(0, 1), (0, 2), (2, 3), (4, 5)],
                          weights=[1, 1, 1, 100, 1, 1], profits=[10, 10, 3, 0, 3, 3])
        sol = greedy_1_neighbour(inst, 4, 0.1)
        assert sol.trace["iterations"] == [
            {"index": 1, "kind": "star", "vertices": (0, 1)},
            {"index": 2, "kind": "star", "vertices": (4, 5)}]
        assert sol.chosen == (0, 1, 4, 5) and sol.trace["returned"] == "greedy-set"

    def test_boundary_vertex_over_the_budget_is_skipped(self):
        # 2 (ratio 9, weight 3) beats 3 (ratio 2, weight 1) but does not fit
        inst = undirected(5, [(0, 1), (0, 2), (0, 3), (3, 4)],
                          weights=[1, 1, 3, 1, 100], profits=[10, 10, 27, 2, 0])
        sol = greedy_1_neighbour(inst, 3, 0.1)
        assert sol.trace["iterations"] == [
            {"index": 1, "kind": "star", "vertices": (0, 1)},
            {"index": 2, "kind": "vertex", "vertices": (3,)}]
        assert sol.chosen == (0, 1, 3) and sol.trace["returned"] == "greedy-set"


def test_star_greedy_pool_matches_the_benchmark_reference(tmp_path):
    # Every star-greedy pool member, solved as the benchmark solves it, must
    # pass the benchmark's own checker against its recorded reference answer.
    assert pool_answers_match_reference("star-greedy", tmp_path) == {"greedy-1n": 128}


class TestUniformUndirected:
    def test_odd_budget_all_pairs(self):
        # components of sizes [2, 2] with k=3: optimum has size k-1 = 2
        inst = undirected(4, [(0, 1), (2, 3)], k=3)
        assert uniform_undirected_1n(inst, 3).size == 2

    def test_prefix_plus_bfs(self):
        inst = undirected(7, [(0, 1), (0, 2), (3, 4), (5, 6)], k=4)
        sol = uniform_undirected_1n(inst, 4)
        assert sol.size == 4 == brute_force_profit(inst, 4, "one")

    def test_budget_above_n_takes_all(self):
        inst = undirected(5, [(0, 1), (2, 3)], k=99)
        assert uniform_undirected_1n(inst, 99).size == 5

    def test_rejects_non_uniform(self):
        with pytest.raises(UnsupportedVariantError):
            uniform_undirected_1n(undirected(2, [(0, 1)], profits=[2, 1]), 1)

    def test_rejects_directed(self):
        with pytest.raises(UnsupportedVariantError):
            uniform_undirected_1n(Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 1), 1)

    def test_exactness_random(self):
        rng = random.Random(8080)
        for _ in range(120):
            n = rng.randint(1, 11)
            inst = random_uniform(rng, n, False, rng.random() * 0.5, 0)
            frontier = profit_for_every_budget(inst, "one")
            for k in range(n + 2):
                sol = uniform_undirected_1n(inst, k)
                assert is_1_neighbour_set(inst, sol.chosen)
                assert sol.total_weight <= k
                assert sol.size == opt_at(frontier, k), (inst.edges, k)

    @given(undirected_shapes())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_bfs_parents_solver_at_every_budget(self, inst):
        for k in range(inst.n + 2):
            sol = uniform_undirected_1n(inst, k)
            assert sol == uniform_undirected_1n_bfs_parents(inst, k), k


class TestUniformDirectedPtas:
    def test_three_node_example(self):
        inst = Instance(True, 3, [(0, 1), (2, 1)], [1] * 3, [1] * 3, 2)
        sol = uniform_directed_1n_ptas(inst, 2, 0.5)
        assert sol.size == 2 == brute_force_profit(inst, 2, "one")

    def test_cycle_below_budget_is_skipped(self):
        cyc = Instance(True, 3, [(0, 1), (1, 2), (2, 0)], [1] * 3, [1] * 3, 2)
        assert uniform_directed_1n_ptas(cyc, 2, 0.9).size == 0

    def test_cycle_fits_exactly(self):
        cyc = Instance(True, 3, [(0, 1), (1, 2), (2, 0)], [1] * 3, [1] * 3, 3)
        assert uniform_directed_1n_ptas(cyc, 3, 0.9).chosen == (0, 1, 2)

    def test_fallback_regime_is_exact(self):
        inst = Instance(True, 4, [(0, 1), (1, 0), (2, 3), (3, 2)], [1] * 4,
                        [1] * 4, 3)
        sol = uniform_directed_1n_ptas(inst, 3, 0.25)  # eps <= 1/k
        assert sol.trace == {"fallback": "exhaustive"}
        assert sol.guarantee == "exact"
        assert sol.size == brute_force_profit(inst, 3, "one") == 2

    def test_zero_budget_and_eps_of_one_over_k_fall_back(self):
        # two 2-cycles and the isolated vertex 4
        inst = Instance(True, 5, [(0, 1), (1, 0), (2, 3), (3, 2)], [1] * 5, [1] * 5, 0)
        sol = uniform_directed_1n_ptas(inst, 0, 0.25)
        assert sol.chosen == () and sol.trace == {"fallback": "exhaustive"}
        # eps * k == 1 still falls back; any larger eps runs the guesses
        sol = uniform_directed_1n_ptas(inst, 4, Fraction(1, 4))
        assert sol.chosen == (0, 1, 2, 3) and sol.trace == {"fallback": "exhaustive"}
        sol = uniform_directed_1n_ptas(inst, 4, Fraction(1, 3))
        assert sol.chosen == (0, 1, 2, 3) and "fallback" not in sol.trace

    def test_rejects_undirected_and_non_uniform(self):
        with pytest.raises(UnsupportedVariantError):
            uniform_directed_1n_ptas(undirected(2, [(0, 1)]), 1, 0.5)
        bad = Instance(True, 2, [(0, 1)], [1, 2], [1, 1], 1)
        with pytest.raises(UnsupportedVariantError):
            uniform_directed_1n_ptas(bad, 1, 0.5)

    def test_guarantee_random(self):
        rng = random.Random(7117)
        for _ in range(80):
            n = rng.randint(1, 10)
            inst = random_uniform(rng, n, True, rng.random() * 0.5, 0)
            k = rng.randint(0, n + 2)
            frontier = profit_for_every_budget(inst, "one")
            opt = opt_at(frontier, k)
            for eps in (0.25, 0.5):
                sol = uniform_directed_1n_ptas(inst, k, eps)
                assert is_1_neighbour_set(inst, sol.chosen)
                assert sol.total_weight <= k
                need = math.ceil((1 - Fraction(str(eps))) * opt)
                assert sol.size >= need
                if sol.trace.get("complete"):
                    assert sol.size == opt, (inst.edges, k, eps)

    def test_cycle_of_exactly_eps_k_is_petite(self):
        # eps * k = 3: the 3-cycle {0, 1, 2} is petite and the 4-cycle
        # {3, 4, 5, 6} large; 7 is a tiny sink, 8 a tiny non-sink.
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (8, 0)]
        inst = Instance(True, 9, edges, [1] * 9, [1] * 9, 30)
        assert condense(inst).scc_vertices == ((8,), (7,), (0, 1, 2), (3, 4, 5, 6))
        sol = uniform_directed_1n_ptas(inst, 30, Fraction(1, 10))
        assert [(e["guess"], e["candidate_sinks"], e["taken_sinks"])
                for e in sol.trace["guesses"]] == [((), (1, 2), (1, 2)),
                                                   ((3,), (1,), (1,))]
        assert sol.trace["winner"]["guess"] == (3,)
        assert sol.chosen == tuple(range(9))


@st.composite
def planted_unit_cases(draw):
    """A unit digraph from ``planted_cycle_graphs`` with n >= 2, a budget k
    from 2 to n, and an eps > 1/k, so that the PTAS branch runs."""
    g = draw(planted_cycle_graphs(max_n=30, values=st.just(1)).filter(lambda g: g.n >= 2))
    k = draw(st.integers(2, g.n))
    eps = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(3, 10),
                                Fraction(1, 2)]).filter(lambda e: e > Fraction(1, k)))
    return g, k, eps


class TestCyclesOnDemand:
    """Computing smallest cycles only for large SCCs and candidate sinks
    changes nothing against the solver that computed one for every SCC."""

    @given(planted_unit_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_all_cycles_solver(self, case):
        inst, k, eps = case
        sol = uniform_directed_1n_ptas(inst, k, eps)
        ref = uniform_directed_1n_ptas_all_cycles(inst, k, eps)
        assert sol == ref
        assert sol.trace == ref.trace
        assert "fallback" not in sol.trace


class TestExhaustiveBranch:
    """Where eps * k <= 1, exact_1n's answer under the ud1n-ptas name equals
    the combinations search it replaced."""

    @given(planted_cycle_graphs(max_n=12, values=st.just(1)))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_combinations_search(self, inst):
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            for k in range(int(1 / eps) + 1):  # k = 0, and k > n on small graphs
                sol = uniform_directed_1n_ptas(inst, k, eps)
                ref = uniform_directed_1n_combinations(inst, k, eps)
                assert sol == ref, (inst.edges, k, eps)
                assert (sol.algorithm, sol.guarantee) == ("ud1n-ptas", "exact")
                assert sol.trace == ref.trace == {"fallback": "exhaustive"}


def ud1n_pool():
    """The ud1n-ptas members of the scc-closure pool, parsed."""
    members = [parse(text) for _stem, text, _c, variant in perfbench_pool("scc-closure")
               if variant == "ud1n-ptas"]
    assert len(members) == 96
    return members


@st.composite
def growth_cases(draw):
    """A unit digraph on up to 14 vertices, with random arcs or a directed
    path either way, and any seed set, the empty one too."""
    n = draw(st.integers(0, 14))
    shape = draw(st.sampled_from(["random", "path up", "path down"]))
    if shape == "path up":
        arcs = {(i, i + 1) for i in range(n - 1)}
    elif shape == "path down":
        arcs = {(i + 1, i) for i in range(n - 1)}
    else:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = draw(st.sets(st.sampled_from(pairs), max_size=3 * n)) if pairs else set()
    seed = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return Instance(True, n, sorted(arcs), [1] * n, [1] * n, n), seed


class TestGrowth:
    """The (scan, id) heap adds vertices in the order of the pass loop it
    replaced; equal sets at every budget pin that order."""

    @given(growth_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_pass_loop_at_every_budget(self, case):
        inst, seed = case
        for k in range(inst.n + 2):
            grown, ref = set(seed), set(seed)
            one_neighbour._grow_1n(inst, grown, k)
            grow_1n_passes(inst, ref, k)
            assert grown == ref, k


class TestOneCycleSearchPerScc:
    """One ud1n-ptas solve searches each SCC's smallest cycle at most once,
    and only an SCC of more than floor(eps * k) vertices or a candidate sink."""

    def assert_searches_only_where_read(self, inst, k, eps):
        calls = Counter()
        search = one_neighbour._smallest_cycle_in_scc

        def counting(instance, members):
            calls[tuple(members)] += 1
            return search(instance, members)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(one_neighbour, "_smallest_cycle_in_scc", counting)
            sol = uniform_directed_1n_ptas(inst, k, eps)
        assert "fallback" not in sol.trace
        cond = condense(inst)
        bound = eps.numerator * k // eps.denominator
        sinks = {u for entry in sol.trace["guesses"] for u in entry["candidate_sinks"]}
        readable = {members for u, members in enumerate(cond.scc_vertices)
                    if len(members) > bound or u in sinks}
        assert set(calls) <= readable
        assert set(calls.values()) <= {1}

    def test_scc_closure_pool(self):
        for inst in ud1n_pool():
            self.assert_searches_only_where_read(inst, inst.budget, Fraction(1, 10))

    @given(planted_unit_cases())
    @settings(max_examples=300, deadline=None)
    def test_planted_cycle_graphs(self, case):
        self.assert_searches_only_where_read(*case)


def test_scc_closure_pool_breadth_first_work(monkeypatch):
    # Arc visits of every breadth-first search that ud1n-ptas runs over the
    # ud1n members of the scc-closure pool at eps = 1/10: 79,385 with a
    # resumable girth search that found 2-cycles source by source, 57,678
    # with the 2-cycle pass, 51,484 once a 3-cycle ends the source scan.
    # Deterministic, so it pins work, not time.
    visits = 0
    layers = graphs._bfs_layers

    def counting(nbrs, s):
        nonlocal visits
        for layer in layers(nbrs, s):
            yield layer
            visits += sum(len(nbrs[v]) for v in layer)  # the next layer's scan

    monkeypatch.setattr(graphs, "_bfs_layers", counting)
    for inst in ud1n_pool():
        uniform_directed_1n_ptas(inst, eps=Fraction(1, 10))
    assert visits <= 51_484


@st.composite
def unit_digraphs_and_budgets(draw, max_n=12):
    """Unit directed instances with several cycles, and a budget above 1/eps."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    # disjoint cycles over a shuffled prefix of the vertices
    order = draw(st.permutations(range(n)))
    start = 0
    for length in draw(st.lists(st.integers(2, 4), max_size=4)):
        cycle = order[start:start + length]
        if len(cycle) > 1:
            edges.update(zip(cycle, cycle[1:] + cycle[:1]))
        start += length
    eps = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 5), Fraction(1, 4),
                                Fraction(1, 3), Fraction(1, 2)]))
    k = draw(st.integers(int(1 / eps) + 1, int(1 / eps) + n + 2))
    return Instance(True, n, sorted(edges), [1] * n, [1] * n, k), eps


class TestGuessesFitTheBudget:
    """ud1n-ptas guesses exactly the large-SCC sets whose cycles fit."""

    @given(unit_digraphs_and_budgets())
    @settings(max_examples=200, deadline=None)
    def test_guesses_are_the_fitting_combinations(self, case):
        inst, eps = case
        k = inst.budget
        cond = condense(inst)
        length = [len(smallest_cycle(inst, c)) for c in cond.scc_vertices]
        large = [u for u in range(cond.scc_count) if length[u] > eps * k]
        guesses = [entry["guess"] for entry in
                   uniform_directed_1n_ptas(inst, eps=eps).trace["guesses"]]
        assert guesses == [g for size in range(int(1 / eps) + 1)
                           for g in combinations(large, size)
                           if sum(length[u] for u in g) <= k]
        assert max(map(len, guesses)) <= int(1 / eps)
