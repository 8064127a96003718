"""Text format round-trips, parse errors, and generator constructions."""

import random

import pytest

from graphsack import (ParseError, ValidationError, exact_1n,
                       gen_max_k_cover, gen_network_budget, gen_random,
                       gen_set_cover_cycles, is_1_neighbour_set, parse,
                       serialize)

SAMPLE = """\
graph undirected 3 2
budget 5
v 0 1 2
v 1 0 7
v 2 3 0
e 0 1
e 1 2
"""


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

    def test_directed_round_trip(self):
        inst = gen_random(5, 0.6, True, 2, 2, 3, seed=9)
        assert parse(serialize(inst)) == inst


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


def test_generator_outputs_pass_validation_and_reserialize():
    gens = [
        gen_random(7, 0.5, True, 3, 3, 4, seed=3),
        gen_max_k_cover(3, [[0, 1], [2]], 2),
        gen_set_cover_cycles(2, [[0], [0, 1]], 1),
        gen_network_budget(3, [(0, 1), (1, 2)], 0, [1, 2], {2: 9}, 3),
    ]
    for inst in gens:
        assert parse(serialize(inst)) == inst
