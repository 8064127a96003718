"""Graph core: validation, components, condensation, cycles, predicates."""

import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsack import graphs
from graphsack import (ALL_NEIGHBOUR, ONE_NEIGHBOUR, Instance, ValidationError,
                       condense, connected_components, descendants, first_violation,
                       in_boundary, is_1_neighbour_set, is_all_neighbour_set,
                       parse, smallest_cycle)
from helpers import (condense_tarjan, connected_components_bfs, perfbench_pool,
                     planted_cycle_graphs, random_instance, smallest_cycle_full_scan)


def undirected(n, edges, k=10):
    return Instance(False, n, edges, [1] * n, [1] * n, k)


def directed(n, edges, k=10):
    return Instance(True, n, edges, [1] * n, [1] * n, k)


class TestInstanceValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            undirected(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate"):
            undirected(3, [(0, 1), (1, 0)])
        with pytest.raises(ValidationError, match="duplicate"):
            directed(3, [(0, 1), (0, 1)])

    def test_directed_antiparallel_arcs_are_distinct(self):
        inst = directed(2, [(0, 1), (1, 0)])
        assert inst.m == 2

    def test_rejects_invalid_vertex(self):
        with pytest.raises(ValidationError, match="invalid vertex"):
            undirected(2, [(0, 5)])

    def test_rejects_negative_and_oversize_values(self):
        with pytest.raises(ValidationError):
            Instance(False, 1, [], [-1], [0], 0)
        with pytest.raises(ValidationError):
            Instance(False, 1, [], [0], [1 << 63], 0)
        Instance(False, 1, [], [(1 << 63) - 1], [0], 0)  # max value is fine

    def test_rejects_bad_budget(self):
        with pytest.raises(ValidationError):
            Instance(False, 1, [], [0], [0], -1)

    @pytest.mark.parametrize("weights, profits", [([0], [0, 0]), ([0, 0], [0]),
                                                  ([0, 0, 0], [0, 0])])
    def test_rejects_value_lists_of_the_wrong_length(self, weights, profits):
        with pytest.raises(ValidationError, match="one entry per vertex"):
            Instance(False, 2, [], weights, profits, 0)

    def test_rejects_non_integer_weight(self):
        with pytest.raises(ValidationError, match="weight of vertex 1 is not an integer"):
            Instance(False, 2, [], [0, 1.5], [0, 0], 0)

    @pytest.mark.parametrize("n", [True, 1.0, "1", -1])
    def test_rejects_bad_vertex_count(self, n):
        with pytest.raises(ValidationError, match="vertex count"):
            Instance(False, n, [], [0], [0], 0)

    def test_adjacency_lists_ascend_random(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(0, 9)
            is_directed = rng.random() < 0.5
            pairs = [(u, v) for u in range(n) for v in range(n)
                     if u < v or is_directed and u != v]
            edges = [(v, u) if not is_directed and rng.random() < 0.5 else (u, v)
                     for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
            inst = Instance(is_directed, n, edges, [1] * n, [1] * n, n)
            arcs = set(inst.edges) | ({(v, u) for u, v in inst.edges} if not is_directed
                                      else set())
            for v in range(n):
                assert inst.adj[v] == tuple(sorted(b for a, b in arcs if a == v))
                assert inst.radj[v] == tuple(sorted(a for a, b in arcs if b == v))
            if not is_directed:
                assert inst.radj is inst.adj

    @pytest.mark.parametrize("edge", [(True, 1), (0, True), (0.0, 1), (0, 1.0), ("0", 1)])
    def test_rejects_non_int_edge_endpoints(self, edge):
        with pytest.raises(ValidationError, match="invalid vertex"):
            directed(3, [edge])
        with pytest.raises(ValidationError, match="invalid vertex"):
            undirected(3, [edge])

    @pytest.mark.parametrize("vertices", [[True], [False, 1], [1, True], ["a", 1],
                                          [1.0], [0, None], [[0]]])
    def test_check_vertices_rejects_non_int_ids(self, vertices):
        inst = directed(3, [(0, 1)])
        with pytest.raises(ValidationError, match="invalid vertex id"):
            inst.check_vertices(vertices)

    def test_check_vertices_normalizes(self):
        assert directed(3, []).check_vertices([2, 0, 2]) == (0, 2)

    @pytest.mark.parametrize("weights, profits, uniform", [
        ([], [], True), ([1, 1, 1], [1, 1, 1], True),
        ([1, 2, 1], [1, 1, 1], False), ([1, 1, 1], [1, 1, 0], False)])
    def test_is_uniform(self, weights, profits, uniform):
        inst = Instance(False, len(weights), [], weights, profits, 3)
        assert inst.is_uniform() is uniform


class TestConnectedComponents:
    def test_triangle_plus_isolated(self):
        inst = undirected(4, [(0, 1), (0, 2), (1, 2)])
        assert connected_components(inst) == [(0, 1, 2), (3,)]

    def test_empty_graph(self):
        assert connected_components(undirected(0, [])) == []

    def test_path(self):
        assert connected_components(undirected(3, [(0, 1), (1, 2)])) == [(0, 1, 2)]

    def test_rejects_directed(self):
        with pytest.raises(ValidationError):
            connected_components(directed(2, [(0, 1)]))

    def test_order_and_cover_random(self):
        rng = random.Random(7)
        for _ in range(50):
            inst = random_instance(rng, rng.randint(0, 14), False,
                                   rng.random(), 3, 3, 5)
            comps = connected_components(inst)
            sizes = [len(c) for c in comps]
            assert sizes == sorted(sizes, reverse=True)
            flat = [v for c in comps for v in c]
            assert sorted(flat) == list(range(inst.n))
            assert len(set(flat)) == len(flat)


class TestComponentsMatchBfs:
    """Components read off the condensation equal the old breadth-first ones,
    in the same order."""

    @given(planted_cycle_graphs(directed=st.just(False)))
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, inst):
        assert connected_components(inst) == connected_components_bfs(inst)

    @pytest.mark.parametrize("workload, undirected_count",
                             [("component-dp", 144), ("bench-corpus", 84)])
    def test_undirected_pool_members(self, workload, undirected_count):
        members = perfbench_pool(workload)
        instances = [(stem, parse(text)) for stem, text, _c, _v in members]
        instances = [(stem, inst) for stem, inst in instances if not inst.directed]
        assert len(instances) == undirected_count
        for stem, inst in instances:
            assert connected_components(inst) == connected_components_bfs(inst), stem


class TestCondenseMatchesTarjan:
    """The two-pass condensation equals the old Tarjan one in every field:
    the same SCC ids, so every tie-break that reads them is unchanged."""

    @given(planted_cycle_graphs())
    @settings(max_examples=400, deadline=None)
    def test_random_digraphs(self, inst):
        assert condense(inst) == condense_tarjan(inst)

    @pytest.mark.parametrize("closed", [False, True])
    def test_long_path_and_cycle_do_not_recurse(self, closed):
        n = 20_000
        arcs = [(v, v + 1) for v in range(n - 1)] + ([(n - 1, 0)] if closed else [])
        inst = directed(n, arcs)
        cond = condense(inst)
        assert cond == condense_tarjan(inst)
        assert cond.scc_count == (1 if closed else n)

    def test_scc_closure_pool(self):
        members = perfbench_pool("scc-closure")
        assert len(members) == 288
        for stem, text, _constraint, _variant in members:
            inst = parse(text)
            assert condense(inst) == condense_tarjan(inst), stem


def cycle_lengths(inst, cond):
    return tuple(len(smallest_cycle(inst, c)) for c in cond.scc_vertices)


class TestCondense:
    def test_two_arcs_into_sink(self):
        # u -> v, w -> v: three singleton SCCs, every smallest cycle length 1
        inst = directed(3, [(0, 1), (2, 1)])
        cond = condense(inst)
        assert cond.scc_count == 3
        assert cycle_lengths(inst, cond) == (1, 1, 1)

    def test_three_cycle(self):
        inst = directed(3, [(0, 1), (1, 2), (2, 0)])
        cond = condense(inst)
        assert cond.scc_count == 1
        assert cycle_lengths(inst, cond) == (3,)

    def test_two_cycle_with_tail(self):
        # a <-> b with a tail t -> a; derived by enumerating the cycles.
        inst = directed(3, [(0, 1), (1, 0), (2, 0)])
        cond = condense(inst)
        by_vertices = {cond.scc_vertices[i]: i for i in range(cond.scc_count)}
        ab, t = by_vertices[(0, 1)], by_vertices[(2,)]
        assert len(smallest_cycle(inst, cond.scc_vertices[ab])) == 2
        assert len(smallest_cycle(inst, cond.scc_vertices[t])) == 1
        assert cond.dag_adjacency[t] == (ab,)
        assert cond.dag_adjacency[ab] == ()

    def test_computes_no_cycles(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("condense searched for a cycle")
        monkeypatch.setattr(graphs, "_smallest_cycle_in_scc", forbidden)
        cond = condense(directed(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
        assert cond.scc_vertices == ((0, 1, 2), (3,))

    def test_undirected_units_are_components(self):
        # components {0, 3}, {1, 2, 4} and {5}; every edge is an arc both ways,
        # so no arc joins two units
        inst = Instance(False, 6, [(0, 3), (1, 4), (2, 4)], [1, 2, 3, 4, 5, 6],
                        [0] * 6, 10)
        cond = condense(inst)
        assert cond.scc_count == 3
        assert cond.scc_vertices == ((5,), (1, 2, 4), (0, 3))
        assert cond.membership == (2, 1, 1, 2, 1, 0)
        assert cond.dag_adjacency == ((), (), ())
        assert cond.scc_weight == (6, 10, 5)

    @given(planted_cycle_graphs(directed=st.just(False)))
    @settings(max_examples=200, deadline=None)
    def test_undirected_units_random(self, inst):
        cond = condense(inst)
        assert sorted(cond.scc_vertices) == sorted(connected_components_bfs(inst))
        assert all(nbrs == () for nbrs in cond.dag_adjacency)
        for u, members in enumerate(cond.scc_vertices):
            assert cond.scc_weight[u] == inst.total_weight(members)
            assert all(cond.membership[v] == u for v in members)

    def test_invariants_random(self):
        rng = random.Random(11)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 10), True,
                                   rng.random(), 3, 3, 5)
            cond = condense(inst)
            flat = sorted(v for c in cond.scc_vertices for v in c)
            assert flat == list(range(inst.n))
            for u, nbrs in enumerate(cond.dag_adjacency):
                assert u not in nbrs
                for w in nbrs:
                    assert w > u  # ids are topologically ordered
            for u in range(cond.scc_count):
                single = len(cond.scc_vertices[u]) == 1
                cyc = smallest_cycle(inst, cond.scc_vertices[u])
                assert (len(cyc) == 1) == single
                if not single:
                    arcs = set(inst.edges)
                    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                        assert (a, b) in arcs
                    assert len(set(cyc)) == len(cyc)
                assert cond.scc_weight[u] == inst.total_weight(cond.scc_vertices[u])


def brute_girth_cycle(inst, members):
    """Shortest cycle in the induced subgraph by simple-path enumeration.

    Among all shortest cycles, returns the lexicographically smallest
    rotation, which is the documented tie-break of ``smallest_cycle``.
    """
    for length in range(2, len(members) + 1):
        found = [min(tuple(path[i:] + path[:i]) for i in range(length))
                 for path in permutations(sorted(members), length)
                 if all(b in inst.adj[a] for a, b in zip(path, path[1:]))
                 and path[0] in inst.adj[path[-1]]]
        if found:
            return min(found)
    return None


class TestSmallestCycle:
    def test_singleton(self):
        inst = directed(2, [(0, 1)])
        assert smallest_cycle(inst, [1]) == (1,)

    def test_three_cycle(self):
        inst = directed(3, [(0, 1), (1, 2), (2, 0)])
        assert smallest_cycle(inst, [0, 1, 2]) == (0, 1, 2)

    def test_triangle_with_detour(self):
        # a->b->c->a plus c->d->a: one SCC, shortest cycle [a, b, c]
        inst = directed(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
        assert smallest_cycle(inst, [0, 1, 2, 3]) == (0, 1, 2)

    def test_rejects_non_scc(self):
        inst = directed(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValidationError):
            smallest_cycle(inst, [0, 1])

    def test_rejects_undirected_and_empty(self):
        with pytest.raises(ValidationError):
            smallest_cycle(undirected(2, [(0, 1)]), [0, 1])
        with pytest.raises(ValidationError):
            smallest_cycle(directed(2, [(0, 1), (1, 0)]), [])

    @given(st.integers(1, 12), st.floats(0, 0.5), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_accepts_exactly_the_maximal_sccs(self, n, p, seed, data):
        inst = random_instance(random.Random(seed), n, True, p, 1, 1, 5)
        sccs = set(condense(inst).scc_vertices)
        tried = [set(scc) for scc in sccs]
        tried += [set(scc) | {v} for scc in sccs for v in range(n) if v not in scc]
        tried += [set(scc) - {v} for scc in sccs for v in scc if len(scc) > 1]
        tried.append(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        for members in tried:
            members = tuple(sorted(members))
            if members in sccs:
                assert smallest_cycle(inst, members) \
                    == graphs._smallest_cycle_in_scc(inst, members)
            else:
                with pytest.raises(ValidationError):
                    smallest_cycle(inst, members)

    def test_matches_enumeration_random(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(120):
            inst = random_instance(rng, rng.randint(2, 8), True,
                                   rng.random(), 1, 1, 5)
            cond = condense(inst)
            for u in range(cond.scc_count):
                members = cond.scc_vertices[u]
                if len(members) == 1:
                    continue
                expect = brute_girth_cycle(inst, members)
                assert smallest_cycle(inst, members) == expect
                checked += 1
        assert checked > 40


class TestGirthSearchMatchesFullScan:
    """The depth-bounded girth search against the full scan it replaced."""

    @given(st.integers(2, 60), st.floats(0, 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_scc_of_random_digraphs(self, n, t, seed):
        prob = 1 / n + t * (0.5 - 1 / n)  # from 1/n to 0.5
        inst = random_instance(random.Random(seed), n, True, prob, 1, 1, n)
        for members in condense(inst).scc_vertices:
            assert graphs._smallest_cycle_in_scc(inst, members) \
                == smallest_cycle_full_scan(inst, members)

    @given(planted_cycle_graphs())
    @settings(max_examples=200, deadline=None)
    def test_every_scc_of_planted_cycle_graphs(self, inst):
        for members in condense(inst).scc_vertices:
            assert graphs._smallest_cycle_in_scc(inst, members) \
                == smallest_cycle_full_scan(inst, members)

    def recorded_sources(self, monkeypatch):
        """The list that each breadth-first search appends its source to."""
        sources = []
        layers = graphs._bfs_layers

        def recording(nbrs, s):
            sources.append(s)
            return layers(nbrs, s)

        monkeypatch.setattr(graphs, "_bfs_layers", recording)
        return sources

    def searched_sources(self, monkeypatch, inst):
        """The cycle, and the sources searched in order; the walk back to
        the start is the last breadth-first search and is left out."""
        sources = self.recorded_sources(monkeypatch)
        members = tuple(range(inst.n))
        cycle = graphs._smallest_cycle_in_scc(inst, members)
        assert cycle == smallest_cycle_full_scan(inst, members)
        assert sources[-1] == cycle[0]
        return cycle, sources[:-1]

    def test_later_shorter_cycle_moves_start(self, monkeypatch):
        # 0->1->2->3->4->5->0 is the only cycle through 0 and 1;
        # 2->3->4->5->2 is shorter
        inst = directed(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (5, 2)])
        cycle, sources = self.searched_sources(monkeypatch, inst)
        assert cycle == (2, 3, 4, 5)
        assert sources == [0, 1, 2, 3, 4, 5]

    def test_tie_keeps_smaller_start(self, monkeypatch):
        # 0->4->5->6->0 and 1->2->3->7->1 tie at 4; moving the start to 1 on
        # the tie would give (1, 2, 3, 7)
        inst = directed(8, [(0, 4), (4, 5), (5, 6), (6, 0), (1, 2), (2, 3), (3, 7),
                            (7, 1), (6, 1), (7, 0)])
        cycle, sources = self.searched_sources(monkeypatch, inst)
        assert cycle == (0, 4, 5, 6)
        assert sources == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_three_cycle_ends_the_scan(self, monkeypatch):
        # 0 lies on the 5-cycle 0->1->2->3->4 only; 1->2->3->1 is a 3-cycle,
        # and no 2-cycle exists, so no later source can find a shorter one
        inst = directed(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)])
        cycle, sources = self.searched_sources(monkeypatch, inst)
        assert cycle == (1, 2, 3)
        assert sources == [0, 1]

    @pytest.mark.parametrize("arcs, expect", [
        # 0 and 1 lie on 5-cycles only; 2<->3 and 3<->4 are 2-cycles
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 2), (4, 3)], (2, 3)),
        # 0 lies on the 3-cycle 0->1->2 only; 1 has two 2-cycle partners, 4 and 3
        ([(0, 1), (1, 2), (2, 0), (1, 4), (4, 1), (3, 1), (1, 3), (2, 4)], (1, 3)),
    ])
    def test_two_cycle_runs_no_breadth_first_search(self, monkeypatch, arcs, expect):
        inst = directed(5, arcs)
        sources = self.recorded_sources(monkeypatch)
        members = tuple(range(inst.n))
        assert condense(inst).scc_vertices == (members,)
        assert graphs._smallest_cycle_in_scc(inst, members) == expect \
            == smallest_cycle_full_scan(inst, members)
        assert sources == []


@st.composite
def induced_cases(draw):
    """A directed or undirected instance with isolated vertices appended, a
    budget and a provenance, and a vertex list that may be empty, full,
    unsorted or repeated."""
    g = draw(planted_cycle_graphs(directed=st.booleans(), max_n=12))
    n = g.n + draw(st.integers(0, 3))
    extra = draw(st.lists(st.integers(0, 9), min_size=n - g.n, max_size=n - g.n))
    inst = Instance(g.directed, n, g.edges, g.weights + tuple(extra),
                    g.profits + tuple(extra), draw(st.integers(0, 50)), "parent.txt")
    everything = st.permutations(range(n)).map(list)
    some = st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n) if n else st.just([])
    return inst, draw(st.one_of(st.just([]), everything, some))


class TestInduced:
    """``Instance.induced`` fills the sub-instance from validated fields; it
    equals an ``Instance`` built and validated from the same filtered data."""

    @given(induced_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_validated_build(self, case):
        inst, vertices = case
        sub, ids = inst.induced(vertices)
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        ref = Instance(inst.directed, len(keep),
                       [(index[u], index[v]) for u, v in inst.edges if u in index and v in index],
                       [inst.weights[v] for v in keep], [inst.profits[v] for v in keep],
                       inst.budget)
        assert ids == tuple(keep)
        assert sub == ref
        assert sub.edges == ref.edges
        assert sub.adj == ref.adj
        assert sub.radj == ref.radj
        if not inst.directed:
            assert sub.radj is sub.adj
        assert sub.provenance is None

    @pytest.mark.parametrize("bad", [-1, 4, True, 1.0, "0"])
    def test_invalid_id_raises(self, bad):
        inst = directed(4, [(0, 1), (1, 2)])
        with pytest.raises(ValidationError, match=f"^invalid vertex id {re.escape(repr(bad))}$"):
            inst.induced([0, bad, 2])


@st.composite
def edge_lists(draw, directed, n):
    """A shuffled edge list on ``n`` vertices, each undirected pair given
    either way round."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u < v or directed and u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return [(v, u) if not directed and draw(st.booleans()) else (u, v) for u, v in edges]


def normalised(directed, edges):
    return tuple(sorted(e if directed else (min(e), max(e)) for e in edges))


def fieldwise(directed, n, edges, weights, budget):
    """The fields ``Instance.__eq__`` compared when it stored the edges."""
    return directed, n, normalised(directed, edges), tuple(weights), tuple(weights), budget


@st.composite
def spec_pairs(draw):
    """Two ``(directed, n, edges, weights, budget)`` specs on at most 12
    vertices: the same graph reshuffled, or one field changed."""
    directed, n = draw(st.booleans()), draw(st.integers(0, 12))
    edges = draw(edge_lists(directed, n))
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    budget = draw(st.integers(0, 2))
    a = (directed, n, edges, weights, budget)
    change = draw(st.sampled_from(["same", "edges", "directed", "weights", "budget"]))
    if change == "edges":
        edges = draw(edge_lists(directed, n))
    elif change == "directed":  # pairs that are valid either way
        edges = sorted({(min(e), max(e)) for e in edges})
        a, directed = (directed, n, edges, weights, budget), not directed
    elif change == "weights" and n:
        weights = weights[:-1] + [weights[-1] + 1]
    elif change == "budget":
        budget += 1
    return a, (directed, n, draw(st.permutations(edges)), weights, budget)


class TestEdgesReadOffAdj:
    """``edges``, ``m`` and ``==`` read the one stored graph, ``adj``, and
    agree with the edge list an ``Instance`` was built from."""

    @given(spec_pairs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_edges_m_and_equality_match_the_input(self, specs, data):
        insts, refs = [], []
        keep = data.draw(st.lists(st.integers(0, 11), max_size=12))
        for directed, n, edges, weights, budget in specs:
            inst = Instance(directed, n, edges, weights, weights, budget)
            assert inst.edges == normalised(directed, edges)
            assert inst.m == len(inst.edges) == len(edges)
            kept = sorted({v for v in keep if v < n})
            index = {v: i for i, v in enumerate(kept)}
            sub_edges = [(index[u], index[v]) for u, v in edges if u in index and v in index]
            sub, _ = inst.induced(kept)
            assert sub.edges == normalised(directed, sub_edges)
            assert sub.m == len(sub.edges)
            insts.append((inst, sub))
            refs.append((fieldwise(directed, n, edges, weights, budget),
                         fieldwise(directed, len(kept), sub_edges,
                                   [weights[v] for v in kept], budget)))
        (a, a_sub), (b, b_sub) = insts
        assert (a == b) == (refs[0][0] == refs[1][0])
        assert (a_sub == b_sub) == (refs[0][1] == refs[1][1])

    def test_an_instance_is_not_equal_to_another_type(self):
        inst = undirected(2, [(0, 1)])
        assert inst.__eq__(object()) is NotImplemented
        assert inst != object() and not inst == object()


class TestBoundary:
    def test_path_middle(self):
        inst = undirected(3, [(0, 1), (1, 2)])
        assert in_boundary(inst, [1]) == (0, 2)

    def test_directed_example(self):
        inst = directed(3, [(0, 1), (2, 1)])
        assert in_boundary(inst, [1]) == (0, 2)

    def test_everything_has_empty_boundary(self):
        inst = undirected(3, [(0, 1), (1, 2)])
        assert in_boundary(inst, [0, 1, 2]) == ()

    def test_disjoint_from_set_random(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 10), rng.random() < 0.5,
                                   rng.random(), 1, 1, 5)
            chosen = [v for v in range(inst.n) if rng.random() < 0.4]
            boundary = in_boundary(inst, chosen)
            assert not set(boundary) & set(chosen)
            for u in boundary:
                assert any(v in set(chosen) for v in inst.adj[u])


class TestDescendants:
    def test_chain(self):
        cond = condense(directed(2, [(0, 1)]))
        a = cond.membership[0]
        assert descendants(cond, [a]) == {0, 1}

    def test_empty_roots(self):
        cond = condense(directed(2, [(0, 1)]))
        assert descendants(cond, []) == set()

    def test_diamond(self):
        inst = directed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        cond = condense(inst)
        b, c = cond.membership[1], cond.membership[2]
        d = cond.membership[3]
        assert descendants(cond, [b, c]) == {b, c, d}

    @pytest.mark.parametrize("scc_id", [2, -1, 1.0, "0", None, True, [0]])
    def test_rejects_out_of_range_scc_id(self, scc_id):
        cond = condense(directed(2, [(0, 1)]))
        with pytest.raises(ValidationError, match=re.escape(f"invalid SCC id {scc_id!r}")):
            descendants(cond, [0, scc_id])


class TestPredicates:
    def test_one_neighbour_path(self):
        inst = undirected(3, [(0, 1), (1, 2)])
        assert is_1_neighbour_set(inst, [0, 1])
        assert not is_1_neighbour_set(inst, [0, 2])

    def test_one_neighbour_directed(self):
        inst = directed(3, [(0, 1), (2, 1)])
        assert is_1_neighbour_set(inst, [0, 1])
        assert not is_1_neighbour_set(inst, [0])
        assert is_1_neighbour_set(inst, [1])  # v has out-degree 0

    def test_all_neighbour_arc(self):
        inst = directed(2, [(0, 1)])
        assert is_all_neighbour_set(inst, [1])
        assert not is_all_neighbour_set(inst, [0])
        assert is_all_neighbour_set(inst, [])

    def test_all_neighbour_undirected_edge(self):
        inst = undirected(2, [(0, 1)])
        assert not is_all_neighbour_set(inst, [0])
        assert is_all_neighbour_set(inst, [0, 1])

    def test_first_violation_witnesses(self):
        inst = directed(4, [(0, 1), (0, 2), (2, 3), (3, 2)])
        assert first_violation(inst, [3, 0], ONE_NEIGHBOUR) == (0, None)
        assert first_violation(inst, [0, 1], ONE_NEIGHBOUR) is None
        assert first_violation(inst, [0, 1, 3], ALL_NEIGHBOUR) == (0, 2)
        assert first_violation(inst, [1, 3, 0], ALL_NEIGHBOUR) == (0, 2)
        assert first_violation(inst, [3], ALL_NEIGHBOUR) == (3, 2)
        assert first_violation(inst, [1, 2, 3], ALL_NEIGHBOUR) is None
        assert first_violation(inst, [], ONE_NEIGHBOUR) is None
        with pytest.raises(ValidationError, match="unknown constraint"):
            first_violation(inst, [1], "some-neighbour")
        with pytest.raises(ValidationError):
            first_violation(inst, [4], ALL_NEIGHBOUR)

    def test_first_violation_matches_definition_random(self):
        # the smallest violating member; for all-neighbour, its smallest
        # (out-)neighbour outside the set
        rng = random.Random(29)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(1, 10), rng.random() < 0.5,
                                   rng.random() * 0.5, 1, 1, 5)
            chosen = {v for v in range(inst.n) if rng.random() < 0.5}
            one = next(((v, None) for v in sorted(chosen) if inst.degree(v)
                        and not set(inst.adj[v]) & chosen), None)
            alln = next(((v, min(set(inst.adj[v]) - chosen)) for v in sorted(chosen)
                         if set(inst.adj[v]) - chosen), None)
            assert first_violation(inst, chosen, ONE_NEIGHBOUR) == one
            assert first_violation(inst, chosen, ALL_NEIGHBOUR) == alln
            assert is_1_neighbour_set(inst, chosen) == (one is None)
            assert is_all_neighbour_set(inst, chosen) == (alln is None)

    def test_all_neighbour_sets_are_closure_unions(self):
        # Any feasible all-neighbour set is a union of SCC descendant closures.
        rng = random.Random(13)
        for _ in range(80):
            inst = random_instance(rng, rng.randint(1, 12), True,
                                   rng.random() * 0.5, 1, 1, 5)
            cond = condense(inst)
            for _ in range(10):
                chosen = {v for v in range(inst.n) if rng.random() < 0.5}
                if not is_all_neighbour_set(inst, chosen):
                    continue
                touched = {cond.membership[v] for v in chosen}
                expanded = sorted(v for u in touched for v in cond.scc_vertices[u])
                assert expanded == sorted(chosen)
                assert descendants(cond, touched) == touched


@given(st.integers(0, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_boundary_and_components_properties(n, data):
    pair_count = n * (n - 1) // 2
    mask = data.draw(st.integers(0, (1 << pair_count) - 1 if pair_count else 0))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    inst = Instance(False, n, edges, [1] * n, [1] * n, 3)
    comps = connected_components(inst)
    assert sum(len(c) for c in comps) == n
    subset = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    assert not set(in_boundary(inst, subset)) & set(subset)
