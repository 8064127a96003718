"""Text format round-trips, parse errors, and generator constructions."""

import hashlib
import math
import random
import re
import struct
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsack import (Instance, ParseError, ValidationError, exact_1n,
                       gen_max_k_cover, gen_network_budget, gen_random,
                       gen_set_cover_cycles, instance_io, is_1_neighbour_set,
                       parse, serialize)
from helpers import gen_random_per_pair, load_perfbench, perfbench_pool

SAMPLE = """\
graph undirected 3 2
budget 5
v 0 1 2
v 1 0 7
v 2 3 0
e 0 1
e 1 2
"""
MAX = (1 << 63) - 1


class TestParseSerialize:
    def test_round_trip_is_identity_on_canonical_form(self):
        inst = parse(SAMPLE)
        assert serialize(inst) == SAMPLE
        assert parse(serialize(inst)) == inst

    def test_comments_and_blank_lines_are_ignored(self):
        noisy = "# header\n\n" + SAMPLE.replace("budget 5", "budget 5 # five")
        assert parse(noisy) == parse(SAMPLE)

    def test_provenance_round_trips_through_comments(self):
        inst = gen_random(4, 0.5, False, 3, 3, 2, seed=1)
        text = serialize(inst)
        assert text.startswith("# gen_random")
        assert parse(text) == inst

    def test_self_loop_rejected_with_line_number(self):
        bad = SAMPLE.replace("e 0 1", "e 0 0")
        with pytest.raises(ParseError, match="line 6: self-loop"):
            parse(bad)

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 'e'"):
            parse(SAMPLE.replace("graph undirected 3 2", "graph undirected 3 3"))

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="trailing"):
            parse(SAMPLE + "e 0 2\n")

    def test_vertex_id_gap(self):
        bad = SAMPLE.replace("v 1 0 7", "v 2 0 7").replace("v 2 3 0", "v 1 3 0")
        with pytest.raises(ParseError, match="ids must be 0..n-1"):
            parse(bad)

    def test_undirected_edge_order_enforced(self):
        with pytest.raises(ParseError, match="u < v"):
            parse(SAMPLE.replace("e 0 1", "e 1 0"))

    def test_negative_number_rejected(self):
        with pytest.raises(ParseError, match="non-negative"):
            parse(SAMPLE.replace("budget 5", "budget -5"))

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript 2, Arabic-Indic 3
    def test_non_ascii_digits_rejected(self, digit):
        with pytest.raises(ParseError, match="line 2: budget must be a non-negative integer"):
            parse(SAMPLE.replace("budget 5", f"budget {digit}"))
        with pytest.raises(ParseError, match="line 4: weight"):
            parse(SAMPLE.replace("v 1 0 7", f"v 1 {digit} 7"))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse(SAMPLE.replace("e 1 2", "e 0 1"))

    def test_unknown_direction_rejected(self):
        with pytest.raises(ParseError, match=re.escape(
                "line 1: direction must be directed|undirected, got 'sideways'")):
            parse("graph sideways 1 0\nbudget 0\nv 0 0 0\n")

    def test_directed_round_trip(self):
        inst = gen_random(5, 0.6, True, 2, 2, 3, seed=9)
        assert parse(serialize(inst)) == inst


def outcome(text):
    """What ``parse`` makes of ``text``: the instance, or the error's text and line."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


def line_walk_outcome(text):
    """``outcome`` with the bulk path switched off: the line walk alone."""
    with mock.patch.object(instance_io, "_CANONICAL", re.compile(r"(?!)")):
        return outcome(text)


def bulk_parse(text):
    """``parse`` that fails if the line walk reads a single token."""
    with mock.patch.object(instance_io, "_int_token", side_effect=AssertionError):
        return parse(text)


def mutation_sources():
    """About 50 canonical texts: directed and undirected, with and without
    provenance comments, n = 0 included."""
    texts = []
    for seed in range(48):
        inst = gen_random(seed % 12, 0.3, seed % 2 == 0, 30, 30, 2 * seed, seed=seed)
        if seed % 3 == 0:  # no provenance
            inst = Instance(inst.directed, inst.n, inst.edges, inst.weights,
                            inst.profits, inst.budget)
        texts.append(serialize(inst))
    texts.append("graph directed 0 0\nbudget 0\n")
    texts.append("# empty\ngraph undirected 0 0\nbudget 7\n")
    return texts


def mutations(text, rng):
    """Named variants of ``text``, most of them not canonical."""
    lines = text.splitlines(keepends=True)
    records = [i for i, line in enumerate(lines) if not line.startswith("#")]
    numbers = [(i, j) for i in records for j, token in enumerate(lines[i].split())
               if token.isdigit()]

    def with_line(i, line):
        return "".join(lines[:i] + [line] + lines[i + 1:])

    def with_token(i, j, token):
        tokens = lines[i].split()
        tokens[j] = token
        return with_line(i, " ".join(tokens) + "\n")

    out = {}
    i = rng.choice(records)
    tokens = lines[i].split()
    j = rng.randrange(len(tokens))
    out["drop token"] = with_line(i, " ".join(tokens[:j] + tokens[j + 1:]) + "\n")
    out["duplicate token"] = with_line(i, " ".join(tokens[:j + 1] + tokens[j:]) + "\n")
    i, j = rng.choice(numbers)
    token = lines[i].split()[j]
    out["non-ASCII digit"] = with_token(i, j, token[:-1] + rng.choice("\u0663\u00b2\uff11"))
    out["2^63"] = with_token(i, j, str(1 << 63))
    out["2^63 - 1"] = with_token(i, j, str((1 << 63) - 1))
    out["19 digits, leading zeros"] = with_token(i, j, token.zfill(19))
    out["leading zero"] = with_token(i, j, "0" + token)
    out["sign"] = with_token(i, j, rng.choice("+-") + token)
    out["one more"] = with_token(i, j, str(int(token) + 1))
    a, b = rng.sample(range(len(lines)), 2) if len(lines) > 1 else (0, 0)
    swapped = list(lines)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    out["swap lines"] = "".join(swapped)
    edges = [i for i in records if lines[i].startswith("e ")]
    if edges:
        i = rng.choice(edges)
        u, v = lines[i].split()[1:]
        out["reverse edge"] = with_line(i, f"e {v} {u}\n")
        out["self-loop"] = with_line(i, f"e {u} {u}\n")
        out["repeat edge"] = with_line(i, lines[rng.choice(edges)]) if len(edges) > 1 else text
    i = rng.choice(records)
    header = records[0]
    for j, name in [(2, "n"), (3, "m")]:
        count = int(lines[header].split()[j])
        out[f"{name} + 1"] = with_token(header, j, str(count + 1))
        out[f"{name} - 1"] = with_token(header, j, str(max(count - 1, 0)))
        out[f"huge {name}"] = with_token(header, j, "9" * 18)
    out["truncate"] = text[:rng.randrange(len(text))]
    out["no final newline"] = text[:-1]
    out["CRLF"] = text.replace("\n", "\r\n")
    out["tab"] = text.replace(" ", "\t", 1)
    out["trailing space"] = with_line(i, lines[i][:-1] + " \n")
    out["inline comment"] = with_line(i, lines[i][:-1] + " # note\n")
    at = rng.randrange(len(lines) + 1)
    out["blank line"] = "".join(lines[:at] + ["\n"] + lines[at:])
    out["header in comment"] = "# graph directed 1 0\n" + text
    out["header in comment, inside"] = "".join(lines[:at] + ["# graph directed 1 0\n"] + lines[at:])
    # every str.splitlines boundary other than \n ends a comment for the line walk
    for boundary in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        out[f"{boundary!r} in comment"] = f"# x{boundary}graph directed 1 0\n" + text
    return out


class TestBulkParse:
    """Canonical text is read in bulk; every other text gives what the line
    walk gives, down to the error text and line number."""

    @pytest.mark.parametrize("text", mutation_sources())
    def test_canonical_text_takes_the_bulk_path(self, text):
        assert bulk_parse(text) == parse(text)
        assert outcome(text) == line_walk_outcome(text)

    def test_mutations_match_the_line_walk(self):
        rng = random.Random(12)
        checked = 0
        for text in mutation_sources():
            for name, mutant in mutations(text, rng).items():
                assert outcome(mutant) == line_walk_outcome(mutant), (name, mutant)
                checked += 1
        assert checked > 1000

    @given(st.booleans(), st.integers(0, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, directed, n, data):
        value = st.one_of(st.sampled_from([0, 1, MAX]), st.integers(0, MAX))
        pairs = [(u, v) for u in range(n) for v in range(n)
                 if u != v and (directed or u < v)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        provenance = data.draw(st.one_of(st.none(), st.text(max_size=20)))
        inst = Instance(directed, n, edges, data.draw(st.lists(value, min_size=n, max_size=n)),
                        data.draw(st.lists(value, min_size=n, max_size=n)),
                        data.draw(value), provenance=provenance)
        text = serialize(inst)
        assert parse(text) == inst
        assert outcome(text) == line_walk_outcome(text)


class TestGenRandom:
    def test_same_seed_is_identical(self):
        a = gen_random(8, 0.4, True, 5, 5, 3, seed=77)
        b = gen_random(8, 0.4, True, 5, 5, 3, seed=77)
        assert a == b

    def test_edge_prob_extremes(self):
        assert gen_random(5, 0.0, False, 1, 1, 1, seed=1).m == 0
        assert gen_random(4, 1.0, False, 1, 1, 1, seed=1).m == 6

    def test_value_ranges(self):
        inst = gen_random(30, 0.2, False, 4, 7, 3, seed=5)
        assert all(0 <= w <= 4 for w in inst.weights)
        assert all(0 <= p <= 7 for p in inst.profits)

    @pytest.mark.parametrize("edge_prob", [-0.1, 1.5])
    def test_rejects_edge_prob_outside_unit_interval(self, edge_prob):
        with pytest.raises(ValidationError, match=re.escape("edge_prob must lie in [0, 1]")):
            gen_random(4, edge_prob, False, 1, 1, 1, seed=1)

    @pytest.mark.parametrize("n, w_max, p_max, k", [(-1, 1, 1, 1), (4, -1, 1, 1),
                                                    (4, 1, -1, 1), (4, 1, 1, -1)])
    def test_rejects_negative_sizes(self, n, w_max, p_max, k):
        with pytest.raises(ValidationError, match="n, w_max, p_max, k must be non-negative"):
            gen_random(n, 0.5, False, w_max, p_max, k, seed=1)

    @pytest.mark.parametrize("edge_prob", [None, "0.5", float("nan"), [0.5]])
    def test_rejects_edge_prob_that_is_not_a_number(self, edge_prob):
        with pytest.raises(ValidationError, match=re.escape("edge_prob must lie in [0, 1]")):
            gen_random(4, edge_prob, False, 1, 1, 1, seed=1)

    @pytest.mark.parametrize("n, w_max, p_max, k, seed", [
        (2.5, 1, 1, 1, 1), (True, 1, 1, 1, 1), (4, 1.5, 1, 1, 1), (4, 1, "3", 1, 1),
        (4, 1, 1, 1.0, 1), (4, 1, 1, 1, None), (4, 1, 1, 1, "7"), (4, 1, 1, 1, 2.0)])
    def test_rejects_non_integers(self, n, w_max, p_max, k, seed):
        # seed=None would draw from OS entropy: the instance would not be a
        # function of the arguments
        with pytest.raises(ValidationError, match="n, w_max, p_max, k and seed must be int"):
            gen_random(n, 0.5, False, w_max, p_max, k, seed=seed)

    @pytest.mark.parametrize("w_max, p_max", [(MAX + 1, 1), (1, MAX + 1), (1 << 64, 1 << 64)])
    def test_rejects_value_bounds_above_max_value(self, w_max, p_max):
        # w_max = 2^63 would fail only when a weight drew it
        with pytest.raises(ValidationError, match=re.escape("w_max, p_max below 2^63")):
            gen_random(4, 0.5, False, w_max, p_max, 1, seed=1)

    def test_accepts_max_value_bounds_and_int_subclasses(self):
        class Count(int):
            pass

        inst = gen_random(Count(6), Fraction(1, 2), True, MAX, MAX, Count(2), seed=Count(3))
        assert inst == gen_random_per_pair(6, Fraction(1, 2), True, MAX, MAX, 2, seed=3)


# gen_random reads its draws in bulk; every case below must give the text the
# per-pair loop gave, provenance included.  The list holds the edge
# probabilities next to the exact test's boundaries: the smallest subnormal,
# one and three steps of 2^-53, a screen byte's width (1/256) and just under
# it, and 1 - 2^-53.
EDGE_PROBS = (0, 1, True, 0.0, 1.0, 5e-324, 2.0**-53, 3 * 2.0**-53, 2.0**-27, 1 / 256,
              1 / 255, 1 - 2.0**-53, Fraction(1, 3))
CHUNK = 1 << 16  # pairs per bulk draw in gen_random


def pair_count(n: int, directed: bool) -> int:
    return n * (n - 1) if directed else n * (n - 1) // 2


class TestBulkDraws:
    @given(st.integers(0, 70), st.booleans(),
           st.one_of(st.sampled_from(EDGE_PROBS), st.floats(0, 1),
                     st.floats(0, 1).map(lambda p: p**4)),
           st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 2**64))
    @settings(max_examples=400, deadline=None)
    def test_matches_one_draw_per_pair(self, n, directed, edge_prob, w_max, p_max, seed):
        args = (n, edge_prob, directed, w_max, p_max, 2 * n, seed)
        assert serialize(gen_random(*args)) == serialize(gen_random_per_pair(*args))

    @given(st.integers(2, 70), st.booleans(), st.integers(0, 2**64), st.integers(0, 4900),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_edge_prob_on_a_drawn_value(self, n, directed, seed, index, above):
        # random() < edge_prob fails when edge_prob is the draw itself and
        # holds from the next float up: the exact test at its boundary
        rng = random.Random(seed)
        edge_prob = [rng.random() for _ in range(index % pair_count(n, directed) + 1)][-1]
        if above:
            edge_prob = math.nextafter(edge_prob, 1)
        args = (n, edge_prob, directed, 8, 8, 0, seed)
        assert serialize(gen_random(*args)) == serialize(gen_random_per_pair(*args))

    @pytest.mark.parametrize("n, directed", [(300, True), (363, False)])
    @pytest.mark.parametrize("index", [None, CHUNK - 1, CHUNK])
    def test_draws_across_a_chunk_boundary(self, n, directed, index):
        assert CHUNK < pair_count(n, directed) < 2 * CHUNK
        if index is None:
            edge_prob = 3 / n
        else:  # a pair on either side of the boundary sits on the exact test's edge
            rng = random.Random(n)
            edge_prob = math.nextafter([rng.random() for _ in range(index + 1)][-1], 1)
        args = (n, edge_prob, directed, 8, 8, 0, n)
        assert serialize(gen_random(*args)) == serialize(gen_random_per_pair(*args))


# The two CPython facts the bulk read rests on, on this interpreter.
class TestRandomStream:
    @given(st.integers(0, 2**64), st.integers(0, 300))
    @example(0, 0)
    @settings(max_examples=100, deadline=None)
    def test_randbytes_holds_the_outputs_random_reads(self, seed, count):
        # random() is x / 2^53 with x = (a >> 5) << 26 | b >> 6 for the next
        # two 32-bit outputs a, b; randbytes(8 * c) holds the next 2c outputs,
        # little-endian, and leaves the state that c random() calls leave
        bulk, calls = random.Random(seed), random.Random(seed)
        draws = bulk.randbytes(8 * count)
        for a, b in struct.iter_unpack("<2I", draws):
            assert calls.random() == (a >> 5 << 26 | b >> 6) / 2**53
        assert bulk.getstate() == calls.getstate()
        assert bulk.random() == calls.random()


# SHA-256 of "<stem>\n<serialize(instance)>" over every pool member of the
# four benchmark workloads, in perfbench's order, recorded with the per-pair
# generator.  perfbench/reference.json and calibration.json describe exactly
# these instances.
POOL_DIGEST = "d2775b7277a32fbe8b539cb623b83781f60c4994e7b562c65074e2208fe94edf"


def test_benchmark_pools_are_unchanged():
    digest, members = hashlib.sha256(), 0
    for workload in load_perfbench("workloads").WORKLOADS:
        for stem, text, _constraint, _variant in perfbench_pool(workload):
            digest.update(f"{stem}\n{text}".encode())
            members += 1
    assert (members, digest.hexdigest()) == (728, POOL_DIGEST)


class TestGenMaxKCover:
    def test_single_set_instance(self):
        inst = gen_max_k_cover(2, [[0, 1]], 1)
        assert inst.n == 3 and inst.m == 2 and not inst.directed
        assert exact_1n(inst).total_profit == 2

    def test_zero_budget_covered_elements_are_stuck(self):
        inst = gen_max_k_cover(2, [[0, 1]], 0)
        assert exact_1n(inst).total_profit == 0

    def test_uncovered_element_is_free_profit(self):
        inst = gen_max_k_cover(2, [[0]], 0)
        assert exact_1n(inst).total_profit == 1  # element 1 has degree 0

    def test_budgeted_variant_passthrough(self):
        inst = gen_max_k_cover(2, [[0], [1]], 3,
                               element_profits=[5, 9], set_weights=[2, 3])
        assert inst.profits[:2] == (5, 9)
        assert inst.weights[2:] == (2, 3)
        assert exact_1n(inst).total_profit == 9  # only one set fits k=3

    def test_rejects_empty_collection(self):
        with pytest.raises(ValidationError):
            gen_max_k_cover(2, [], 1)

    def test_rejects_negative_element_count(self):
        with pytest.raises(ValidationError, match="n_elements must be a non-negative integer"):
            gen_max_k_cover(-1, [[]], 1)

    @pytest.mark.parametrize("overrides", [{"element_profits": [1]},
                                           {"set_weights": [1, 1]}])
    def test_rejects_mismatched_overrides(self, overrides):
        with pytest.raises(ValidationError, match="overrides must match the set system"):
            gen_max_k_cover(2, [[0, 1]], 1, **overrides)

    @pytest.mark.parametrize("element", [2, -1])
    def test_rejects_out_of_range_element(self, element):
        with pytest.raises(ValidationError, match=f"set 1 names invalid element {element}"):
            gen_max_k_cover(2, [[0], [1, element]], 1)

    def test_optimum_equals_cover_value(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 4)
            sets = []
            for _ in range(rng.randint(1, 4)):
                sets.append([e for e in range(n) if rng.random() < 0.6] or [0])
            k = rng.randint(0, 4)
            inst = gen_max_k_cover(n, sets, k)
            free = sum(1 for e in range(n) if not any(e in s for s in sets))
            best = 0
            for mask in range(1 << len(sets)):
                if bin(mask).count("1") > k:
                    continue
                covered = set()
                for j, s in enumerate(sets):
                    if mask >> j & 1:
                        covered.update(s)
                best = max(best, len(covered))
            assert exact_1n(inst).total_profit == best + free


class TestGenSetCoverCycles:
    def test_single_set_system(self):
        inst = gen_set_cover_cycles(2, [[0, 1]], 1)
        assert inst.directed and inst.n == 5 and inst.budget == 5
        assert exact_1n(inst).total_profit == 5

    def test_generous_t_fills_budget(self):
        inst = gen_set_cover_cycles(2, [[0], [1]], 2)
        assert exact_1n(inst).total_profit == inst.budget

    def test_uncovered_element_has_degree_zero(self):
        # An element in no set gets no arcs, so it is freely selectable
        # (a vertex with no out-neighbours never violates the constraint).
        inst = gen_set_cover_cycles(2, [[0]], 1)
        free = inst.n - 1  # last vertex is element 1
        assert inst.degree(free) == 0
        assert is_1_neighbour_set(inst, [free])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            gen_set_cover_cycles(2, [], 1)
        with pytest.raises(ValidationError):
            gen_set_cover_cycles(2, [[0]], 0)
        with pytest.raises(ValidationError, match="n_elements must be a non-negative integer"):
            gen_set_cover_cycles(-1, [[]], 1)

    @pytest.mark.parametrize("element", [2, -1])
    def test_rejects_out_of_range_element(self, element):
        with pytest.raises(ValidationError, match=f"set 1 names invalid element {element}"):
            gen_set_cover_cycles(2, [[0], [1, element]], 1)


class TestGenNetworkBudget:
    def test_single_customer_edge(self):
        inst = gen_network_budget(2, [(0, 1)], 0, [5], {1: 7}, 5)
        assert not inst.directed and inst.n == 3
        assert exact_1n(inst).total_profit == 7

    def test_budget_below_cheapest_path(self):
        inst = gen_network_budget(2, [(0, 1)], 0, [5], {1: 7}, 4)
        assert exact_1n(inst).total_profit == 0

    def test_budget_covers_everything(self):
        inst = gen_network_budget(3, [(0, 1), (0, 2)], 0, [2, 3], {1: 4, 2: 6}, 5)
        assert exact_1n(inst).total_profit == 10

    def test_rejects_sink_customer(self):
        with pytest.raises(ValidationError):
            gen_network_budget(2, [(0, 1)], 0, [1], {0: 3}, 2)

    @pytest.mark.parametrize("edge", [(0, 2), (2, 0), (-1, 1)])
    def test_rejects_endpoint_outside_topology(self, edge):
        # vertex 2 is the activation vertex of link 0, not a topology vertex
        with pytest.raises(ValidationError, match=re.escape(f"topology edge {edge}")):
            gen_network_budget(2, [(0, 1), edge], 0, [5, 7], {1: 3}, 10)

    def test_rejects_self_loop_link(self):
        with pytest.raises(ValidationError, match=re.escape("topology edge (1, 1)")):
            gen_network_budget(2, [(0, 1), (1, 1)], 0, [5, 7], {1: 3}, 10)

    @pytest.mark.parametrize("args, message", [
        ((2, [(0, 1)], 2, [5], {1: 7}, 5), "sink must be a topology vertex"),
        ((2, [(0, 1)], -1, [5], {1: 7}, 5), "sink must be a topology vertex"),
        ((2, [(0, 1)], 0, [5, 6], {1: 7}, 5), "edge_costs must align with the topology"),
        ((2, [(0, 1)], 0, [], {1: 7}, 5), "edge_costs must align with the topology"),
        ((2, [(0, 1)], 0, [5], {2: 7}, 5), "customer 2 is not a topology vertex"),
        ((2, [(0, 1)], 0, [5], {-1: 7}, 5), "customer -1 is not a topology vertex"),
        ((2, [(0, 1)], 0, [5], {1: -7}, 5), "customer profits must be non-negative"),
        ((2, [(0, 1)], 0, [-5], {1: 7}, 5), "edge costs must be non-negative"),
    ])
    def test_rejects_bad_arguments(self, args, message):
        with pytest.raises(ValidationError, match=message):
            gen_network_budget(*args)


@pytest.mark.parametrize("call, message", [
    (lambda: gen_network_budget(3, [(0, 1)], 0, [1], {1.5: 3}, 5),
     "customer 1.5 is not a topology vertex"),
    (lambda: gen_network_budget(3, [(0, 1)], 0, [1], {"1": 3}, 5),
     "customer '1' is not a topology vertex"),
    (lambda: gen_network_budget(3, [(0, 1)], True, [1], {2: 3}, 5),
     "sink must be a topology vertex"),
    (lambda: gen_max_k_cover(2.5, [[0]], 1), "n_elements must be a non-negative integer"),
    (lambda: gen_max_k_cover(2, [["0"]], 1), "set 0 names invalid element '0'"),
    (lambda: gen_set_cover_cycles("2", [[0]], 1), "n_elements must be a non-negative integer"),
])
def test_generators_refuse_arguments_that_are_not_ints(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_generator_outputs_pass_validation_and_reserialize():
    gens = [
        gen_random(7, 0.5, True, 3, 3, 4, seed=3),
        gen_max_k_cover(3, [[0, 1], [2]], 2),
        gen_set_cover_cycles(2, [[0], [0, 1]], 1),
        gen_network_budget(3, [(0, 1), (1, 2)], 0, [1, 2], {2: 9}, 3),
    ]
    for inst in gens:
        assert parse(serialize(inst)) == inst
