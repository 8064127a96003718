"""CLI surface: routing, output formats, exit codes, bench determinism."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsack import Instance, cli, gen_random, serialize
from graphsack.cli import CSV_HEADER, VARIANTS, main, route_auto
from graphsack.errors import (GraphsackError, OracleScaleError, ParseError,
                              UnsupportedVariantError, ValidationError)
from graphsack.solution import (ALL_NEIGHBOUR, ANY, ONE_NEIGHBOUR, REQUIREMENTS, UNIT,
                                WEIGHT_IS_PROFIT, make_solution, refusal)
from helpers import route_auto_if_tree


def write_instance(path, inst):
    path.write_text(serialize(inst), encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_components(tmp_path):
    inst = Instance(False, 4, [(0, 1), (2, 3)], [1] * 4, [1] * 4, 3)
    return write_instance(tmp_path / "pairs.gsk", inst)


def bench_rows(tmp_path, inst, *options):
    """The CSV rows, as dicts, of ``bench`` on a directory holding only ``inst``."""
    directory = tmp_path / "one"
    directory.mkdir(parents=True)
    write_instance(directory / "i.gsk", inst)
    out = tmp_path / "one.csv"
    assert main(["bench", "--dir", str(directory), "--out", str(out), *options]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def bench_variants(tmp_path, inst, oracle_max_n=22):
    return [row["variant"] for row in
            bench_rows(tmp_path, inst, "--oracle-max-n", str(oracle_max_n))]


def unit_cycles(*lengths, k=9):
    """Disjoint unit directed cycles of the given lengths, on consecutive ids."""
    edges, start = [], 0
    for length in lengths:
        edges += [(start + i, start + (i + 1) % length) for i in range(length)]
        start += length
    return Instance(True, start, edges, [1] * start, [1] * start, k)


# eps * k = 9/10 <= 1: ud1n-ptas answers by exact_1n, with no n bound, on a
# 3-cycle beside a 9-cycle (n = 12, the 9-cycle wins) and on a 30-cycle
UD1N_EXHAUSTIVE = [unit_cycles(3, 9), unit_cycles(30)]


def routing_instance(directed, uniform, n, weight_is_profit=False):
    """``n`` isolated vertices: unit weights, and unit profits when uniform
    (twice the weight otherwise, unless ``weight_is_profit``)."""
    weights = [1] * n if uniform else [1 + v % 3 for v in range(n)]
    profits = weights if uniform or weight_is_profit else [2 * w for w in weights]
    return Instance(directed, n, [], weights, profits, n)


VALUE_CLASSES = ("unit", "weight = profit", "general")  # each in no later one
# the table's value classes that hold on each of them
HOLDING = {"unit": {UNIT, WEIGHT_IS_PROFIT, ANY}, "weight = profit": {WEIGHT_IS_PROFIT, ANY},
           "general": {ANY}}


def class_instance(directed, values, n):
    """``n`` isolated vertices (at least one, unless unit) of one value class."""
    weights = [1] * n if values == "unit" else [2 + v % 3 for v in range(n)]
    profits = [w + 1 for w in weights] if values == "general" else weights
    return Instance(directed, n, [], weights, profits, n)


# (directed, value class, n, oracle_max_n): n at the oracle bound and one above it
CLASS_CASES = [(directed, values, n, max_n) for directed in (False, True)
               for values in VALUE_CLASSES for max_n in (0, 1, 22)
               for n in (max_n, max_n + 1) if n or values == "unit"]


@st.composite
def routing_cases(draw):
    """(constraint, instance, oracle_max_n) over every class of ``CLASS_CASES``,
    with values drawn from 0 to 9."""
    oracle_max_n = draw(st.sampled_from([0, 1, 22]))
    n = draw(st.sampled_from([oracle_max_n, oracle_max_n + 1]))
    values = draw(st.sampled_from(VALUE_CLASSES if n else VALUE_CLASSES[:1]))
    numbers = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    if values == "unit":
        weights = profits = [1] * n
    elif values == "weight = profit":
        weights = profits = draw(numbers.filter(lambda ws: ws != [1] * n))
    else:
        weights, profits = draw(st.tuples(numbers, numbers).filter(lambda wp: wp[0] != wp[1]))
    inst = Instance(draw(st.booleans()), n, [], weights, profits, n)
    return draw(st.sampled_from([ONE_NEIGHBOUR, ALL_NEIGHBOUR])), inst, oracle_max_n


def outcome(route, case):
    """A route's variant, or the class and message of its refusal."""
    try:
        return route(*case)
    except GraphsackError as exc:
        return type(exc), str(exc)


class TestRouting:
    @pytest.mark.parametrize("constraint,directed,uniform,expected", [
        (ONE_NEIGHBOUR, False, True, "uu1n-linear"),
        (ONE_NEIGHBOUR, False, False, "greedy-1n"),
        (ONE_NEIGHBOUR, True, True, "ud1n-ptas"),
        (ONE_NEIGHBOUR, True, False, "exact-1n"),
        (ALL_NEIGHBOUR, False, True, "uua-subsetsum"),
        (ALL_NEIGHBOUR, False, False, "gua-fptas"),
        (ALL_NEIGHBOUR, True, True, "uda-ptas"),
        (ALL_NEIGHBOUR, True, False, "exact-all"),
    ])
    def test_auto_table(self, constraint, directed, uniform, expected):
        inst = routing_instance(directed, uniform, 10)
        assert route_auto(constraint, inst, 22) == expected

    def test_hardness_refusals_above_oracle_scale(self):
        inst = routing_instance(True, False, 30)
        with pytest.raises(UnsupportedVariantError, match="hard to"):
            route_auto(ONE_NEIGHBOUR, inst, 22)
        with pytest.raises(UnsupportedVariantError, match="hard to"):
            route_auto(ALL_NEIGHBOUR, inst, 22)

    def test_weight_equals_profit_all_neighbour(self):
        # the exhaustive oracle up to its bound, the directed PTAS above it
        assert route_auto(ALL_NEIGHBOUR, routing_instance(True, False, 22, True), 22) \
            == "exact-all"
        assert route_auto(ALL_NEIGHBOUR, routing_instance(True, False, 23, True), 22) \
            == "uda-ptas"

    def test_weight_equals_profit_one_neighbour_unchanged(self):
        assert route_auto(ONE_NEIGHBOUR, routing_instance(True, False, 22, True), 22) \
            == "exact-1n"
        with pytest.raises(UnsupportedVariantError, match="hard to"):
            route_auto(ONE_NEIGHBOUR, routing_instance(True, False, 23, True), 22)

    @pytest.mark.parametrize("constraint", ["bogus", "one", "all", ""])
    def test_unknown_constraint_is_rejected(self, constraint):
        # "one" and "all" are the CLI's spellings, not constraint names
        with pytest.raises(ValidationError, match=f"unknown constraint {constraint!r}"):
            route_auto(constraint, routing_instance(True, True, 4), 22)

    @given(routing_cases())
    @settings(max_examples=300, deadline=None)
    def test_routes_match_the_if_tree(self, case):
        assert outcome(route_auto, case) == outcome(route_auto_if_tree, case)


class TestRequirements:
    """Each solver refuses an instance exactly where ``REQUIREMENTS`` does,
    with the guard's error, and before it validates epsilon or the budget."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_each_solver_refuses_exactly_where_the_table_does(self, variant):
        req = REQUIREMENTS[variant]
        for directed, values, n, max_n in CLASS_CASES:
            inst = class_instance(directed, values, n)
            refused = (req.directed not in (None, directed) or req.values not in HOLDING[values]
                       or req.bounded and n > max_n)
            expected = refusal(variant, inst, max_n)
            assert (expected is not None) == refused, (directed, values, n, max_n)
            # epsilon 2 and budget -1 are both invalid: a solver that accepts
            # the instance raises ValidationError on one of them
            with pytest.raises(GraphsackError) as info:
                VARIANTS[variant].run(inst, 2, max_n, -1)
            if refused:
                assert (type(info.value), str(info.value)) == (type(expected), str(expected))
            else:
                assert type(info.value) is ValidationError


class TestSolve:
    def test_kv_output(self, pair_components, capsys):
        assert main(["solve", "--input", pair_components,
                     "--constraint", "one"]) == 0
        out = dict(line.split(": ", 1) for line in
                   capsys.readouterr().out.strip().splitlines())
        assert out["algorithm"] == "uu1n-linear"
        assert out["guarantee"] == "exact"
        assert out["count"] == "2"        # k=3 odd, all components are pairs
        assert out["feasible"] == "true"

    def test_csvrow_output(self, pair_components, capsys):
        assert main(["solve", "--input", pair_components, "--constraint", "one",
                     "--format", "csvrow"]) == 0
        row = capsys.readouterr().out.strip().split(",")
        assert len(row) == len(CSV_HEADER)
        assert row[1] == "uu1n-linear" and row[7] == "2"

    def test_budget_override(self, pair_components, capsys):
        assert main(["solve", "--input", pair_components, "--constraint", "one",
                     "--budget", "4"]) == 0
        out = capsys.readouterr().out
        assert "count: 4" in out

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_budget_option_equals_budget_in_file(self, tmp_path, capsys, monkeypatch, variant):
        # the option is the solver's k: the parsed instance is the only one built
        # (greedy-1n also builds one per round, for the remaining graph)
        directed = variant in ("ud1n-ptas", "uda-ptas")
        uniform = variant not in ("exact-1n", "exact-all", "greedy-1n", "gua-fptas")
        weights = [1] * 5 if uniform else [1, 2, 1, 3, 2]
        profits = [1] * 5 if uniform else [3, 1, 2, 4, 1]
        edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
        path = tmp_path / "i.gsk"
        constraint = "one" if VARIANTS[variant].constraint == ONE_NEIGHBOUR else "all"
        built = []
        init = Instance.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(Instance, "__init__", counting)
        outputs = []
        for budget, option in ((9, ["--budget", "3"]), (3, [])):
            write_instance(path, Instance(directed, 5, edges, weights, profits, budget))
            built.clear()
            assert main(["solve", "--input", str(path), "--constraint", constraint,
                         "--variant", variant, *option]) == 0
            outputs.append((capsys.readouterr().out, len(built)))
        assert outputs[0] == outputs[1]
        assert "k: 3\n" in outputs[0][0]
        assert outputs[0][1] == 1 or variant == "greedy-1n"

    def test_greedy_guarantee_string(self, tmp_path, capsys):
        inst = Instance(False, 3, [(0, 1), (1, 2)], [1, 1, 1], [2, 0, 1], 3)
        path = write_instance(tmp_path / "general.gsk", inst)
        assert main(["solve", "--input", path, "--constraint", "one",
                     "--variant", "greedy-1n", "--epsilon", "0.1"]) == 0
        assert "guarantee: (0.45)(1-e^-0.9)" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.gsk"
        bad.write_text("graph undirected 1 1\nbudget 1\nv 0 1 1\ne 0 0\n")
        assert main(["solve", "--input", str(bad), "--constraint", "one"]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope"),
                     "--constraint", "one"]) == 2

    def test_hardness_notice_exit_code(self, tmp_path, capsys):
        inst = gen_random(30, 0.2, True, 4, 9, 10, seed=2)
        path = write_instance(tmp_path / "big.gsk", inst)
        assert main(["solve", "--input", path, "--constraint", "one"]) == 3
        assert "hard to approximate" in capsys.readouterr().err

    def test_weight_equals_profit_above_oracle_bound(self, tmp_path, capsys):
        base = gen_random(60, 0.03, True, 5, 0, 40, seed=4)
        inst = Instance(True, 60, base.edges, base.weights, base.weights, 40)
        assert not inst.is_uniform()
        path = write_instance(tmp_path / "wp.gsk", inst)
        assert main(["solve", "--input", path, "--constraint", "all"]) == 0
        out = dict(line.split(": ", 1) for line in
                   capsys.readouterr().out.strip().splitlines())
        assert out["variant"] == "uda-ptas" and out["feasible"] == "true"
        assert int(out["weight"]) <= 40
        general = Instance(True, 60, base.edges, base.weights,
                           [w + 1 for w in base.weights], 40)
        path = write_instance(tmp_path / "general.gsk", general)
        assert main(["solve", "--input", path, "--constraint", "all"]) == 3
        assert "hard to approximate" in capsys.readouterr().err

    def test_oracle_scale_exit_code(self, tmp_path, capsys):
        inst = gen_random(30, 0.2, True, 4, 9, 10, seed=2)
        path = write_instance(tmp_path / "big.gsk", inst)
        assert main(["solve", "--input", path, "--constraint", "one",
                     "--variant", "exact-1n"]) == 4
        assert "oracle-scale-exceeded" in capsys.readouterr().err

    def test_variant_constraint_mismatch(self, pair_components):
        assert main(["solve", "--input", pair_components, "--constraint", "all",
                     "--variant", "greedy-1n"]) == 3

    def test_epsilon_validation(self, tmp_path):
        inst = Instance(False, 2, [(0, 1)], [1, 1], [2, 1], 2)
        path = write_instance(tmp_path / "g.gsk", inst)
        assert main(["solve", "--input", path, "--constraint", "one",
                     "--variant", "greedy-1n", "--epsilon", "1.5"]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_epsilon_exit_code(self, tmp_path, capsys, eps):
        inst = Instance(False, 2, [(0, 1)], [1, 1], [2, 1], 2)
        path = write_instance(tmp_path / "g.gsk", inst)
        assert main(["solve", "--input", path, "--constraint", "one",
                     "--variant", "greedy-1n", "--epsilon", eps]) == 2
        assert "epsilon must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["7", "nan"])
    def test_epsilon_checked_for_variants_that_ignore_it(self, pair_components, capsys, eps):
        # auto-routed to uu1n-linear, which reads no epsilon
        assert main(["solve", "--input", pair_components, "--constraint", "one",
                     "--epsilon", eps]) == 2
        assert "epsilon must be" in capsys.readouterr().err

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bytes.gsk"
        bad.write_bytes(b"graph undirected 1 0\nbudget \xff\nv 0 1 1\n")
        assert main(["solve", "--input", str(bad), "--constraint", "one"]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_variant_by_name(self, tmp_path, capsys, variant):
        directed = variant in ("ud1n-ptas", "uda-ptas")
        inst = Instance(directed, 4, [(0, 1), (2, 3)], [1] * 4, [1] * 4, 3)
        path = write_instance(tmp_path / "u.gsk", inst)
        constraint = "one" if VARIANTS[variant].constraint == ONE_NEIGHBOUR else "all"
        assert main(["solve", "--input", path, "--constraint", constraint,
                     "--variant", variant]) == 0
        out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert out["variant"] == variant and out["algorithm"] == variant
        assert ("epsilon" in out) == \
            (variant in ("greedy-1n", "gua-fptas", "ud1n-ptas", "uda-ptas"))

    @pytest.mark.parametrize("option,value,message", [
        ("--budget", "1_0", "--budget must be a non-negative integer, got '1_0'"),
        ("--budget", "\u0663", "--budget must be a non-negative integer"),
        ("--budget", "-1", "--budget must be a non-negative integer"),
        ("--budget", str(1 << 63), "--budget out of range [0, 2^63)"),
        ("--oracle-max-n", "2_2", "--oracle-max-n must be a non-negative integer"),
        ("--oracle-max-n", "\u00b2", "--oracle-max-n must be a non-negative integer"),
    ])
    def test_integer_options_follow_the_file_rule(self, pair_components, capsys,
                                                  option, value, message):
        assert main(["solve", "--input", pair_components, "--constraint", "one",
                     option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")

    def test_options_do_not_leak_between_calls(self, pair_components, capsys):
        # the parser is shared by every main call of the process
        solve = ["solve", "--input", pair_components, "--constraint", "one"]
        assert main(solve + ["--budget", "1", "--format", "csvrow"]) == 0
        assert main(solve) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",")[CSV_HEADER.index("k")] == "1"
        assert lines[1:5] == [f"instance: {pair_components}", "n: 4", "m: 2", "k: 3"]

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript 2, Arabic-Indic 3
    def test_non_ascii_digit_exit_code(self, tmp_path, capsys, digit):
        bad = tmp_path / "digit.gsk"
        bad.write_text(f"graph undirected 1 0\nbudget {digit}\nv 0 1 1\n", encoding="utf-8")
        assert main(["solve", "--input", str(bad), "--constraint", "one"]) == 2
        assert "line 2: budget must be a non-negative integer" in capsys.readouterr().err

    def test_exact_1n_on_a_long_path(self, tmp_path, capsys):
        n = 1200
        path = write_instance(tmp_path / "path.gsk", Instance(
            True, n, [(v, v + 1) for v in range(n - 1)], [1] * n, [1] * n, 0))
        assert main(["solve", "--input", path, "--constraint", "one", "--variant",
                     "exact-1n", "--oracle-max-n", "5000"]) == 0
        assert "chosen: \ncount: 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("inst", UD1N_EXHAUSTIVE, ids=lambda inst: f"n={inst.n}")
    def test_ud1n_exhaustive_branch_ignores_the_oracle_bound(self, tmp_path, capsys, inst):
        path = write_instance(tmp_path / "cycles.gsk", inst)
        outputs = []
        for option in ([], ["--oracle-max-n", "0"]):
            assert main(["solve", "--input", path, "--constraint", "one", "--variant",
                         "ud1n-ptas", "--epsilon", "0.1", *option]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "algorithm: ud1n-ptas\n" in outputs[0] and "guarantee: exact\n" in outputs[0]
        assert f"count: {9 if inst.n == 12 else 0}\n" in outputs[0]


@pytest.mark.parametrize("error,code", [
    (ParseError("bad token", 3), 2),
    (ValidationError("bad argument"), 2),
    (UnsupportedVariantError("no variant"), 3),
    (OracleScaleError("too large"), 4),
    (GraphsackError("internal"), 1),
])
def test_exit_code_per_error_class(monkeypatch, capsys, error, code):
    def fail(args):
        raise error
    # the argument parser is built once per process, so it must already exist
    # here: main looks cmd_partition_stars up when it runs, not when it builds
    assert main(["partition-stars", "--input", "unused"]) == 2
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_partition_stars", fail)
    assert main(["partition-stars", "--input", "unused"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


class TestCheck:
    def test_one_neighbour_witness(self, tmp_path, capsys):
        inst = Instance(False, 3, [(0, 1), (1, 2)], [1] * 3, [1] * 3, 3)
        path = write_instance(tmp_path / "p.gsk", inst)
        assert main(["check", "--input", path, "--constraint", "one",
                     "--set", "0,2"]) == 0
        out = capsys.readouterr().out
        assert "feasible: false" in out and "witness: 0" in out
        assert "within_budget: true" in out

    def test_all_neighbour_missing(self, tmp_path, capsys):
        inst = Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 2)
        path = write_instance(tmp_path / "a.gsk", inst)
        assert main(["check", "--input", path, "--constraint", "all",
                     "--set", "0"]) == 0
        out = capsys.readouterr().out
        assert "witness: 0" in out and "missing: 1" in out

    def test_empty_set_is_feasible(self, tmp_path, capsys):
        inst = Instance(True, 2, [(0, 1)], [1, 1], [1, 1], 2)
        path = write_instance(tmp_path / "a.gsk", inst)
        assert main(["check", "--input", path, "--constraint", "all",
                     "--set", ""]) == 0
        assert "feasible: true" in capsys.readouterr().out

    @pytest.mark.parametrize("chosen", ["1_0", "\u0663", "a,b", "-1", "0,2"])
    def test_malformed_set_exit_code(self, tmp_path, capsys, chosen):
        inst = Instance(False, 2, [(0, 1)], [1, 1], [1, 1], 2)
        path = write_instance(tmp_path / "s.gsk", inst)
        assert main(["check", "--input", path, "--constraint", "one",
                     "--set", chosen]) == 2
        assert capsys.readouterr().out == ""

    def test_budget_reported_separately(self, tmp_path, capsys):
        inst = Instance(False, 2, [(0, 1)], [5, 5], [1, 1], 3)
        path = write_instance(tmp_path / "w.gsk", inst)
        main(["check", "--input", path, "--constraint", "one", "--set", "0,1"])
        out = capsys.readouterr().out
        assert "feasible: true" in out and "within_budget: false" in out


class TestPartitionStars:
    def test_output_format(self, tmp_path, capsys):
        inst = Instance(False, 3, [(0, 1), (1, 2)], [1] * 3, [1] * 3, 3)
        path = write_instance(tmp_path / "p.gsk", inst)
        assert main(["partition-stars", "--input", path]) == 0
        assert capsys.readouterr().out == "1: 0 2\n"


class TestBench:
    def make_corpus(self, tmp_path, count=6):
        directory = tmp_path / "corpus"
        directory.mkdir()
        for seed in range(count):
            directed = seed % 2 == 0
            inst = gen_random(5 + seed % 3, 0.4, directed, 3, 3, 4, seed=seed)
            if seed % 3 == 0:
                inst = Instance(directed, inst.n, inst.edges, [1] * inst.n,
                                [1] * inst.n, 4)
            (directory / f"i{seed:02d}.gsk").write_text(serialize(inst))
        return directory

    def test_rows_and_determinism(self, tmp_path, capsys):
        directory = self.make_corpus(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--dir", str(directory), "--epsilon", "0.25",
                     "--out", str(out1)]) == 0
        assert main(["bench", "--dir", str(directory), "--epsilon", "0.25",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) > len(list(directory.iterdir()))

    def test_out_inside_dir_is_not_an_instance(self, tmp_path):
        directory = self.make_corpus(tmp_path, count=3)
        out = directory / "o.csv"
        written = []
        for _ in range(2):
            assert main(["bench", "--dir", str(directory), "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert "o.csv" not in written[1].decode()

    def test_jobs_equal_sequential(self, tmp_path):
        directory = self.make_corpus(tmp_path)
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        main(["bench", "--dir", str(directory), "--out", str(seq)])
        main(["bench", "--dir", str(directory), "--out", str(par),
              "--jobs", "4"])
        assert seq.read_bytes() == par.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        directory = self.make_corpus(tmp_path, count=1)
        out = tmp_path / "o.csv"
        assert main(["bench", "--dir", str(directory), "--out", str(out),
                     "--jobs", jobs]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("jobs,message", [
        ("0", "--jobs must be at least 1, got 0"),
        ("1_0", "--jobs must be a non-negative integer, got '1_0'"),
        ("\u0663", "--jobs must be a non-negative integer"),
    ])
    def test_jobs_message(self, tmp_path, capsys, jobs, message):
        directory = self.make_corpus(tmp_path, count=1)
        assert main(["bench", "--dir", str(directory), "--out", str(tmp_path / "o.csv"),
                     "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_dir_naming_a_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "i.gsk"
        path.write_text(serialize(Instance(False, 1, [], [1], [1], 1)))
        out = tmp_path / "o.csv"
        assert main(["bench", "--dir", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: not a directory: {path}\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/o.csv", "."])
    def test_unwritable_out_rejected_before_solving(self, tmp_path, capsys, monkeypatch, out):
        directory = self.make_corpus(tmp_path, count=1)

        def unexpected(*args):
            raise AssertionError("solved before opening --out")
        monkeypatch.setattr(cli, "_bench_instance", unexpected)
        out = str(tmp_path / out)
        assert main(["bench", "--dir", str(directory), "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")

    def test_each_exact_oracle_runs_once_per_instance(self, tmp_path, monkeypatch):
        directory = self.make_corpus(tmp_path)  # n = 5, 6, 7
        # bench asks the requirements table first, so each oracle is called
        # once on each of the four instances with n <= 6, and never on the others
        calls = {"exact_1n": 0, "exact_alln": 0}

        def counting(name):
            solver = getattr(cli, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return solver(*args, **kwargs)
            return count
        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        assert main(["bench", "--dir", str(directory), "--out", str(tmp_path / "o.csv"),
                     "--oracle-max-n", "6"]) == 0
        assert calls == {"exact_1n": 4, "exact_alln": 4}

    @pytest.mark.parametrize("eps", ["0.25", "1.5"])  # 1.5: solver error rows
    def test_timing_fills_only_the_ms_column(self, tmp_path, eps):
        directory = self.make_corpus(tmp_path)
        (directory / "bad.gsk").write_text("graph undirected 1 0\n")
        tables = []
        for name, timing in (("plain.csv", []), ("timed.csv", ["--timing"])):
            out = tmp_path / name
            assert main(["bench", "--dir", str(directory), "--epsilon", eps,
                         "--out", str(out), *timing]) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                tables.append(list(csv.DictReader(fh)))
        plain, timed = tables
        assert len(plain) == len(timed)
        assert any(row["error"] for row in timed) and any(row["ms"] for row in timed)
        for before, after in zip(plain, timed):
            if after["error"]:
                assert after["ms"] == ""
            else:
                assert after["ms"].isascii() and after["ms"].isdigit()
            assert {**after, "ms": before["ms"]} == before

    @pytest.mark.parametrize("inst", UD1N_EXHAUSTIVE, ids=lambda inst: f"n={inst.n}")
    def test_ud1n_exhaustive_row_ignores_the_oracle_bound(self, tmp_path, inst):
        def rows(name, *options):
            found = bench_rows(tmp_path / name, inst, "--epsilon", "0.1", *options)
            return {row["variant"]: {**row, "instance": None} for row in found}

        plain, bounded = rows("plain"), rows("bounded", "--oracle-max-n", "0")
        assert ("exact-1n" in plain) == (inst.n <= 22) and "exact-1n" not in bounded
        # only the opt column, and the ratio read off it, come from exact-1n
        assert bounded["ud1n-ptas"] == {**plain["ud1n-ptas"], "opt": "", "ratio": ""}
        assert (plain["ud1n-ptas"]["algorithm"], plain["ud1n-ptas"]["guarantee"]) \
            == ("ud1n-ptas", "exact")

    def test_empty_directory(self, tmp_path):
        directory = tmp_path / "empty"
        directory.mkdir()
        out = tmp_path / "o.csv"
        assert main(["bench", "--dir", str(directory), "--out", str(out)]) == 0
        assert out.read_text() == ",".join(CSV_HEADER) + "\n"

    def test_broken_instance_gets_error_row(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / "bad.gsk").write_text("graph undirected 1 0\n")
        (directory / "bytes.gsk").write_bytes(b"graph undirected 1 0\nbudget \xff\nv 0 1 1\n")
        write_instance(directory / "good.gsk", Instance(False, 1, [], [1], [1], 1))
        out = tmp_path / "o.csv"
        assert main(["bench", "--dir", str(directory), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert "budget" in rows[0][-1] and "not UTF-8" in rows[1][-1]
        assert len(rows) > 2 and all(r[0].endswith("good.gsk") and not r[-1]
                                     for r in rows[2:])

    def test_ratio_column_for_exact_solver(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        inst = Instance(False, 4, [(0, 1), (2, 3)], [1] * 4, [1] * 4, 3)
        (directory / "u.gsk").write_text(serialize(inst))
        out = tmp_path / "o.csv"
        main(["bench", "--dir", str(directory), "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        linear = next(r for r in rows if r[1] == "uu1n-linear")
        assert linear[12] == "1.000000"

    def test_greedy_rows_meet_their_ratio_bound(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        for seed in range(12):
            inst = gen_random(7, 0.4, False, 5, 5, 6, seed=seed)
            (directory / f"g{seed:02d}.gsk").write_text(serialize(inst))
        out = tmp_path / "o.csv"
        main(["bench", "--dir", str(directory), "--epsilon", "0.1",
              "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        greedy = [r for r in rows if r[1] == "greedy-1n" and r[12]]
        assert greedy
        assert all(float(r[12]) >= 0.267 for r in greedy)

    def test_solver_errors_get_error_rows(self, tmp_path):
        # epsilon 1.5 is refused by the epsilon variants that accept the
        # instance; the exact rows are normal and the other variants get no row
        inst = Instance(False, 3, [(0, 1)], [1, 2, 1], [1, 1, 1], 2)
        rows = bench_rows(tmp_path, inst, "--epsilon", "1.5")
        assert [r["variant"] for r in rows] == \
            ["exact-1n", "exact-all", "greedy-1n", "gua-fptas"]
        for row in rows[:2]:
            assert row["feasible"] == "true" and row["error"] == ""
        for row in rows[2:]:
            assert row["error"] == "epsilon must be in (0, 1), got 1.5"
            assert {name: value for name, value in row.items() if value} == {
                "instance": str(tmp_path / "one" / "i.gsk"), "variant": row["variant"],
                "n": "3", "m": "1", "k": "2", "error": row["error"]}


class TestInfeasibleSolverOutput:
    """A solver output that fails make_solution's re-check is an internal
    error: exit 1 from solve, an error row from bench."""

    INSTANCE = Instance(False, 3, [(0, 1)], [1, 2, 1], [1, 1, 1], 2)
    VERTICES = [0]  # vertex 0 alone, without a neighbour
    MESSAGE = "greedy-1n produced an infeasible one-neighbour set"

    def broken_greedy(self, instance, k=None, eps=0.1):
        """A stand-in for greedy-1n that hands ``VERTICES`` to make_solution,
        with the budget resolved as the solvers resolve it."""
        return make_solution(instance, self.VERTICES, ONE_NEIGHBOUR, "greedy-1n", "broken",
                             instance.solver_budget(k))

    def test_solve_exits_1(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path / "i.gsk", self.INSTANCE)
        monkeypatch.setattr(cli, "greedy_1_neighbour", self.broken_greedy)
        assert main(["solve", "--input", path, "--constraint", "one",
                     "--variant", "greedy-1n"]) == 1
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"

    def test_bench_writes_an_error_row(self, tmp_path, monkeypatch):
        want = bench_rows(tmp_path / "before", self.INSTANCE)
        monkeypatch.setattr(cli, "greedy_1_neighbour", self.broken_greedy)
        got = bench_rows(tmp_path / "after", self.INSTANCE)
        assert [r["variant"] for r in got] == [r["variant"] for r in want]
        for before, after in zip(want, got):
            before = {**before, "instance": ""}
            after = {**after, "instance": ""}
            if after["variant"] != "greedy-1n":
                assert after == before
                continue
            assert after["error"] == self.MESSAGE
            assert {name: value for name, value in after.items() if value} == {
                "variant": "greedy-1n", "n": "3", "m": "1", "k": "2",
                "error": after["error"]}


class TestInvalidVertexIdOutput(TestInfeasibleSolverOutput):
    """A vertex id outside 0..n-1 from a solver is a solver fault as well, not
    bad input: exit 1 (not 2) from solve, an error row from bench."""

    VERTICES = [7]
    MESSAGE = "greedy-1n produced an invalid vertex id 7"


class TestOverBudgetSolverOutput(TestInfeasibleSolverOutput):
    """A feasible solver output heavier than the budget is a solver fault:
    exit 1 from solve, an error row from bench."""

    VERTICES = [0, 1]  # the edge's endpoints, weight 3 against budget 2
    MESSAGE = "greedy-1n exceeded the budget"


class TestApplicableVariants:
    """``bench`` writes a row for exactly the variants whose solver accepts
    the instance, in sorted order."""

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_exact_variants_sort_first(self, tmp_path, directed, uniform):
        inst = routing_instance(directed, uniform, 5, weight_is_profit=True)
        assert bench_variants(tmp_path, inst)[:2] == ["exact-1n", "exact-all"]

    def test_directed_uniform(self, tmp_path):
        inst = Instance(True, 3, [(0, 1)], [1] * 3, [1] * 3, 2)
        assert bench_variants(tmp_path, inst) == \
            ["exact-1n", "exact-all", "ud1n-ptas", "uda-ptas"]

    def test_directed_weight_equals_profit(self, tmp_path):
        inst = Instance(True, 3, [(0, 1)], [2, 0, 1], [2, 0, 1], 2)
        assert bench_variants(tmp_path / "a", inst) == ["exact-1n", "exact-all", "uda-ptas"]
        assert bench_variants(tmp_path / "b", inst, 2) == ["uda-ptas"]

    def test_undirected_general_large(self, tmp_path):
        inst = Instance(False, 3, [(0, 1)], [1, 2, 1], [1, 1, 1], 2)
        assert bench_variants(tmp_path, inst, 2) == ["greedy-1n", "gua-fptas"]


def test_module_entry_point(tmp_path):
    inst = Instance(False, 2, [(0, 1)], [1, 1], [1, 1], 2)
    path = tmp_path / "e.gsk"
    path.write_text(serialize(inst))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "graphsack", "solve", "--input", str(path),
         "--constraint", "one"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0
    assert "count: 2" in proc.stdout
