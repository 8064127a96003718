"""Span arithmetic and the runtime wrappers of the traced run."""

import sys
import types

import pytest

import graphsack
import graphsack.cli
import tracing
from graphsack import gen_random, serialize


def test_self_time_of_nested_spans():
    t = tracing.Tracer()
    root = t.record("request", 0.0, 10.0)
    a = t.record("a", 1.0, 4.0, parent=root)
    b = t.record("b", 2.0, 3.0, parent=a)
    c = t.record("c", 5.0, 9.0, parent=root)
    d = t.record("d", 6.0, 9.5, parent=root)    # overlaps c, as on a worker thread
    e = t.record("e", 9.8, 10.5, parent=root)   # ends after its parent: clipped
    names, parents, own = t.self_times()
    assert [t.names[names[i]] for i in (root, a, b, c, d, e)] == ["request", "a", "b", "c", "d", "e"]
    assert parents[b] == a and parents[a] == root and parents[root] == -1
    expected = {root: 10 - (3 + 4.5 + 0.2), a: 2.0, b: 1.0, c: 4.0, d: 3.5, e: 0.7}
    for sid, value in expected.items():
        assert own[sid] == pytest.approx(value)


def test_metrics_aggregate_self_time_per_name():
    t = tracing.Tracer()
    root = t.record("request", 0.0, 0.010)
    t.record("graphs.condense", 0.001, 0.004, parent=root)
    t.record("graphs.condense", 0.005, 0.006, parent=root)
    m = t.metrics(requests=2)
    assert m["graphs.condense.calls"] == 1.0
    assert m["graphs.condense.ms"] == pytest.approx(2.0)
    assert m["request.ms"] == pytest.approx(3.0)
    assert m["self_share.graphs"] == pytest.approx(0.4)
    assert set(m) | {"trace.overhead_pct"} == set(tracing.metric_names())


def _graphsack_state():
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "graphsack" or name.startswith("graphsack.")}
    state = {}
    for name, mod in modules.items():
        for attr, value in vars(mod).items():
            state[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                state.update({(name, attr, k): v for k, v in vars(value).items()})
            if isinstance(value, types.FunctionType):
                state[name, attr, "__defaults__"] = value.__defaults__
    return state


def _assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]
               and not (isinstance(before[key], tuple) and before[key] == after[key])]
    assert changed == []


def test_uninstall_restores_every_attribute():
    before = _graphsack_state()
    t = tracing.Tracer()
    t.install()
    try:
        during = _graphsack_state()
        assert graphsack.cli.exact_1n is not before["graphsack.oracle", "exact_1n"]
        assert graphsack.stars.ratio_key is not before["graphsack.knapsack", "ratio_key"]
        defaults = graphsack.one_neighbour.greedy_1_neighbour.__wrapped__.__defaults__
        assert defaults[-1] is not before["graphsack.stars", "best_ratio_viable_star"]
        assert during.keys() == before.keys()
    finally:
        t.uninstall()
    _assert_same(before, _graphsack_state())


def test_wrappers_see_calls_through_every_binding(tmp_path):
    instance = gen_random(20, 0.15, False, 8, 8, 40, seed=5)
    (tmp_path / "g.txt").write_text(serialize(instance))
    before = _graphsack_state()
    t = tracing.Tracer()
    t.install()
    try:
        code = t.run_request(0, graphsack.cli.main,
                             ["solve", "--input", str(tmp_path / "g.txt"), "--constraint", "one"])
    finally:
        t.uninstall()
    _assert_same(before, _graphsack_state())
    assert code == 0
    m = t.metrics(requests=1)
    for name in ("stars.best_ratio_viable_star.calls", "stars.best_profit_viable_star.calls",
                 "knapsack.ProfitTable.calls", "knapsack.ratio_key.calls",
                 "one_neighbour.greedy.rounds", "instance_io.parse.calls",
                 "solution.make_solution.calls", "cli.verify.calls", "cli.route_auto.calls",
                 "cli.output.calls", "graphs.induced.calls", "graphs.feasibility.calls"):
        assert m[name] > 0, name
    assert m["graphs.condense.calls"] == 0
    assert 0 < m["stars.useful_table_ratio"] <= 1
    assert m["request.calls"] == 1
