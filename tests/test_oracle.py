"""Exhaustive oracles against raw unpruned enumeration."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsack import (Instance, OracleScaleError, ValidationError, closure_catalog,
                       condense, exact_1n, exact_alln, general_undirected_alln_fptas,
                       greedy_1_neighbour, is_1_neighbour_set, is_all_neighbour_set,
                       parse, uniform_directed_1n_ptas, uniform_directed_alln_ptas,
                       uniform_undirected_1n, uniform_undirected_alln)
from graphsack.graphs import MAX_VALUE
from helpers import (adjacency_masks, exact_1n_pops, exact_1n_profit_bound,
                     exact_1n_support_scan, exact_alln_mask_scan, feasible_all_mask,
                     feasible_one_mask, perfbench_pool, planted_cycle_graphs,
                     random_instance)


def raw_best(inst, k, check):
    """(profit, weight, vertices) by unpruned enumeration with oracle ties."""
    adj = adjacency_masks(inst)
    best = (0, 0, ())
    for mask in range(1 << inst.n):
        verts = tuple(v for v in range(inst.n) if mask >> v & 1)
        w = inst.total_weight(verts)
        p = inst.total_profit(verts)
        if w > k or not check(inst, mask, adj):
            continue
        if (p, -w) > (best[0], -best[1]) or \
                ((p, w) == (best[0], best[1]) and verts < best[2]):
            best = (p, w, verts)
    return best


class TestExact1n:
    def test_path_tie_break(self):
        inst = Instance(False, 3, [(0, 1), (1, 2)], [1, 1, 1], [1, 0, 1], 2)
        sol = exact_1n(inst, 2)
        assert sol.total_profit == 1 and sol.chosen == (0, 1)

    def test_directed_cycle_with_short_budget(self):
        inst = Instance(True, 3, [(0, 1), (1, 2), (2, 0)], [1] * 3, [1] * 3, 2)
        assert exact_1n(inst, 2).chosen == ()

    def test_zero_budget(self):
        inst = Instance(False, 2, [(0, 1)], [1, 1], [3, 3], 0)
        assert exact_1n(inst, 0).chosen == ()

    def test_scale_bound(self):
        inst = Instance(False, 23, [], [1] * 23, [1] * 23, 1)
        with pytest.raises(OracleScaleError, match="oracle-scale-exceeded"):
            exact_1n(inst, 1)
        assert exact_1n(inst, 1, max_n=23).size == 1

    def test_long_path_searches_without_recursion(self):
        # 1200 levels of search, past the default recursion limit
        n = 1200
        inst = Instance(True, n, [(v, v + 1) for v in range(n - 1)], [1] * n, [1] * n, 0)
        sol = exact_1n(inst, 0, max_n=5000)
        assert sol.chosen == () and sol.total_profit == 0

    def test_matches_raw_enumeration(self):
        rng = random.Random(606)
        for _ in range(120):
            n = rng.randint(0, 9)
            inst = random_instance(rng, n, rng.random() < 0.5,
                                   rng.random() * 0.6, 4, 5, 0)
            k = rng.randint(0, 12)
            sol = exact_1n(inst, k)
            p, w, verts = raw_best(inst, k, feasible_one_mask)
            assert (sol.total_profit, sol.total_weight, sol.chosen) == (p, w, verts)
            assert is_1_neighbour_set(inst, sol.chosen)


class TestExactAlln:
    def test_single_arc(self):
        inst = Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 1)
        assert exact_alln(inst, 1).chosen == (1,)

    def test_subset_union_style_instance(self):
        # One 2-element set {x1, x2}: an SCC of M=2 unit vertices per element,
        # a set vertex pointing at both; capacity c=2 elements, target d=1,
        # budget k = c*M + d = 5 is exactly fillable.
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 0), (4, 2)]
        inst = Instance(True, 5, edges, [1] * 5, [1] * 5, 5)
        sol = exact_alln(inst, 5)
        assert sol.total_profit == 5 and sol.chosen == (0, 1, 2, 3, 4)

    def test_undirected_components(self):
        inst = Instance(False, 5, [(0, 1), (2, 3), (3, 4)], [1] * 5, [1] * 5, 4)
        assert exact_alln(inst, 4).total_profit == 3

    def test_matches_raw_enumeration(self):
        rng = random.Random(707)
        for _ in range(120):
            n = rng.randint(0, 9)
            inst = random_instance(rng, n, rng.random() < 0.5,
                                   rng.random() * 0.6, 4, 5, 0)
            k = rng.randint(0, 12)
            sol = exact_alln(inst, k)
            p, w, verts = raw_best(inst, k, feasible_all_mask)
            assert (sol.total_profit, sol.total_weight, sol.chosen) == (p, w, verts)
            assert is_all_neighbour_set(inst, sol.chosen)

    def test_long_path_searches_closed_sets_only(self):
        # 61 closed sets (the suffixes of the path) among 2^60 subsets
        n = 60
        inst = Instance(True, n, [(v, v + 1) for v in range(n - 1)], [1] * n,
                        list(range(n)), 10)
        sol = exact_alln(inst, 10, max_n=60)
        assert sol.chosen == tuple(range(50, 60)) and sol.total_profit == 545

    def test_isolated_units_that_all_fit(self):
        # every one of the 2^30 subsets is a closed set within k; once the
        # whole set is found, the profit bound prunes every other branch
        n = 30
        inst = Instance(True, n, [], [1] * n, list(range(1, n + 1)), n)
        sol = exact_alln(inst, n, max_n=n)
        assert sol.chosen == tuple(range(n)) and sol.total_profit == n * (n + 1) // 2


def totals(sol):
    return sol.chosen, sol.total_profit, sol.total_weight


@st.composite
def oracle_cases(draw):
    """An instance on at most 14 vertices, with weights and profits from 0, 1,
    small values and 2^63 - 1, and a budget of 0, a random value, or at
    least the total weight."""
    values = st.one_of(st.sampled_from([0, 1, MAX_VALUE]), st.integers(2, 9))
    inst = draw(planted_cycle_graphs(st.booleans(), 14, values))
    total = sum(inst.weights)
    k = draw(st.one_of(st.just(0), st.integers(0, total), st.integers(total, total + 3)))
    return inst, k


class TestExactAllnMatchesMaskScan:
    """The closed-set search picks the same set as the old scan of all unit
    subsets, since both keep the best candidate under one total order."""

    @given(oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_instances(self, case):
        inst, k = case
        assert totals(exact_alln(inst, k)) == totals(exact_alln_mask_scan(inst, k))

    def test_bench_corpus_pool(self):
        members = perfbench_pool("bench-corpus")
        assert len(members) == 168
        for stem, text, _constraint, _variant in members:
            inst = parse(text)
            assert totals(exact_alln(inst)) == totals(exact_alln_mask_scan(inst)), stem


class TestExact1nMatchesSupportScan:
    """The one-test ``doomed`` prune picks the same set as the old scan of the
    unsupported members: both prune exactly the nodes where some member's
    neighbours all lie below the next vertex."""

    @given(oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_instances(self, case):
        inst, k = case
        assert totals(exact_1n(inst, k)) == totals(exact_1n_support_scan(inst, k))

    def test_bench_corpus_pool(self):
        members = perfbench_pool("bench-corpus")
        assert len(members) == 168
        for stem, text, _constraint, _variant in members:
            inst = parse(text)
            assert totals(exact_1n(inst)) == totals(exact_1n_support_scan(inst)), stem


@st.composite
def tie_heavy_cases(draw):
    """A directed or undirected graph on at most 11 vertices, with weights and
    profits from one tie-heavy class, and the budgets to try: every budget
    from 0 to the total weight + 1 when that is at most 100, else 0, the
    total weight + 1, and each of up to 16 drawn subset weights, minus one,
    itself and plus one."""
    inst = draw(planted_cycle_graphs(st.booleans(), 11, st.just(1)))
    n = inst.n

    def values(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    kind = draw(st.sampled_from(["unit", "weight = profit", "0-1", "0-3", "large"]))
    if kind == "unit":
        weights = profits = [1] * n
    elif kind == "weight = profit":
        weights = profits = values(st.integers(0, 9))
    else:
        elements = {"0-1": st.integers(0, 1), "0-3": st.integers(0, 3),
                    "large": st.one_of(st.integers(0, 1000), st.just(MAX_VALUE))}[kind]
        weights, profits = values(elements), values(elements)
    inst = Instance(inst.directed, n, inst.edges, weights, profits, 0)
    total = sum(weights)
    if total <= 99:
        return inst, range(total + 2)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    sums = {sum(w for v, w in enumerate(weights) if mask >> v & 1) for mask in masks}
    return inst, sorted({0, total + 1} | {s + d for s in sums for d in (-1, 0, 1) if s + d >= 0})


class TestExact1nMatchesProfitBound:
    """The budget prunes pick the same set as the search without them, on
    classes where (profit, weight) ties are everywhere: they cut only nodes
    that cannot win, or that can at best tie the incumbent with a larger
    vertex tuple."""

    # Isolated vertices where a wrong (b) changes the answer: run without its
    # need > 0 guard it cuts (0,), a prefix of the incumbent (0, 1) that ties
    # it on profit and weight and is the smaller tuple;
    # on ``>= best_weight - 1`` it keeps (0, 1) over the lighter (1,) at equal
    # profit; on ``<=`` it cuts (1,), which beats the incumbent's profit.
    @example((Instance(True, 3, [], [0, 0, 1], [1, 0, 1], 0), range(3)))
    @example((Instance(False, 2, [], [1, 2], [0, 1], 0), range(5)))
    @example((Instance(False, 2, [], [1, 1], [1, 2], 0), range(4)))
    @given(tie_heavy_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_budget(self, case):
        inst, budgets = case
        for k in budgets:
            assert totals(exact_1n(inst, k)) == totals(exact_1n_profit_bound(inst, k)), k


def test_bench_corpus_pool_search_nodes():
    # Nodes popped by exact_1n over the 168 bench-corpus pool members:
    # 93,499 with the profit bound and the doomed mask alone, 18,513 with
    # the budget prunes.
    instances = [parse(text) for _stem, text, _c, _v in perfbench_pool("bench-corpus")]
    _, pops = exact_1n_pops(lambda: [exact_1n(inst) for inst in instances])
    assert pops <= 18_513


@pytest.mark.parametrize("solve, directed", [
    (exact_1n, True), (exact_1n, False), (exact_alln, True), (exact_alln, False),
    (greedy_1_neighbour, False), (uniform_undirected_1n, False),
    (uniform_directed_1n_ptas, True), (uniform_directed_alln_ptas, True),
    (uniform_undirected_alln, False), (general_undirected_alln_fptas, False)])
def test_every_solver_rejects_bad_budgets(solve, directed):
    # Unit weights and profits fit every solver's instance class.
    inst = Instance(directed, 3, [(0, 1), (1, 2)], [1] * 3, [1] * 3, 2)
    assert solve(inst, 2).total_weight <= 2
    for k in (True, False, -1, 1.0):
        with pytest.raises(ValidationError, match="budget"):
            solve(inst, k)


@pytest.mark.parametrize("call, message", [
    (lambda inst: exact_1n(inst, max_n=None), "max_n must be a non-negative integer, got None"),
    (lambda inst: exact_1n(inst, max_n="5"), "max_n must be a non-negative integer, got '5'"),
    (lambda inst: exact_1n(inst, max_n=True), "max_n must be a non-negative integer, got True"),
    (lambda inst: exact_alln(inst, max_n=-1), "max_n must be a non-negative integer, got -1"),
    (lambda inst: exact_alln(inst, max_n=2.0), "max_n must be a non-negative integer, got 2.0"),
    (lambda inst: closure_catalog(condense(inst), 0.5, -1), "k must be non-negative"),
    (lambda inst: closure_catalog(condense(inst), 0.5, "3"), "k must be an integer, got '3'"),
    (lambda inst: closure_catalog(condense(inst), 0.5, True), "k must be an integer, got True"),
])
def test_scale_bounds_and_catalog_budgets_are_checked(call, message):
    inst = Instance(True, 1, [], [1], [1], 1)
    with pytest.raises(ValidationError, match=re.escape(message)):
        call(inst)
