"""Per-layer tracing of graphsack from outside the program.

``Tracer.install`` replaces the public functions of each graphsack layer by
wrappers that record one span per call: its name, start, end, parent span and
request id.  Spans stay in memory, in flat arrays, until ``metrics`` turns
them into per-layer self times and counts.  ``Tracer.uninstall`` puts every
original back.

Three binding details matter.  A name imported with ``from .x import y`` is
a separate reference in every importing module, so each reference to an
original is re-bound wherever it is found.  Constructors and methods
(``ProfitTable.__init__``, ``Instance.__init__``, ``Instance.induced``) are
wrapped on their class.  Default arguments bound at definition time, like the
two star oracles of ``greedy_1_neighbour``, are re-bound through
``__defaults__``; otherwise those calls would silently count zero.
"""

from __future__ import annotations

import itertools
import sys
import threading
import types
from array import array
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute path); several targets may share one name
SPANS = [
    ("stars.best_ratio_viable_star", "graphsack.stars", "best_ratio_viable_star"),
    ("stars.best_profit_viable_star", "graphsack.stars", "best_profit_viable_star"),
    ("one_neighbour.greedy", "graphsack.one_neighbour", "greedy_1_neighbour"),
    ("one_neighbour.ud1n", "graphsack.one_neighbour", "uniform_directed_1n_ptas"),
    ("all_neighbour.uda", "graphsack.all_neighbour", "uniform_directed_alln_ptas"),
    ("all_neighbour.gua", "graphsack.all_neighbour", "general_undirected_alln_fptas"),
    ("all_neighbour.closure_catalog", "graphsack.all_neighbour", "closure_catalog"),
    ("knapsack.ProfitTable", "graphsack.knapsack", "ProfitTable.__init__"),
    ("knapsack.witness", "graphsack.knapsack", "ProfitTable.witness"),
    ("knapsack.witness", "graphsack.knapsack", "ProfitTable.nonempty_witness"),
    ("knapsack.knapsack_fptas", "graphsack.knapsack", "knapsack_fptas"),
    ("graphs.Instance", "graphsack.graphs", "Instance.__init__"),
    ("graphs.induced", "graphsack.graphs", "Instance.induced"),
    ("graphs.condense", "graphsack.graphs", "condense"),
    ("graphs.descendants", "graphsack.graphs", "descendants"),
    ("graphs.in_boundary", "graphsack.graphs", "in_boundary"),
    ("graphs.connected_components", "graphsack.graphs", "connected_components"),
    ("graphs.feasibility", "graphsack.graphs", "is_1_neighbour_set"),
    ("graphs.feasibility", "graphsack.graphs", "is_all_neighbour_set"),
    ("oracle.exact_1n", "graphsack.oracle", "exact_1n"),
    ("oracle.exact_alln", "graphsack.oracle", "exact_alln"),
    ("instance_io.parse", "graphsack.instance_io", "parse"),
    ("solution.make_solution", "graphsack.solution", "make_solution"),
    ("cli.route_auto", "graphsack.cli", "route_auto"),
    ("cli.verify", "graphsack.cli", "_verify"),
    ("cli.output", "graphsack.cli", "cmd_solve"),
    ("cli.output", "graphsack.cli", "cmd_bench"),
]
# called too often for a span each: counted only, time stays with the caller
COUNTED = [("knapsack.ratio_key", "graphsack.knapsack", "ratio_key")]
ROOT = "request"  # one span per graphsack.cli.main call, opened by the worker
STAR_ORACLES = ("stars.best_ratio_viable_star", "stars.best_profit_viable_star")
ORACLES = ("oracle.exact_1n", "oracle.exact_alln")

SPAN_NAMES = sorted({name for name, _, _ in SPANS})
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES} | {ROOT})
COUNTERS = ["stars.results", "knapsack.ProfitTable.cells", "knapsack.ProfitTable.cells_max",
            "one_neighbour.greedy.rounds", "one_neighbour.ud1n.guesses",
            "one_neighbour.ud1n.fallback", "all_neighbour.uda.guesses"]


def metric_names() -> dict[str, str]:
    """Every per-layer metric ``Tracer.metrics`` reports, with its unit."""
    names = {}
    for span in SPAN_NAMES + [ROOT]:
        names[f"{span}.calls"] = "count/request"
        names[f"{span}.ms"] = "ms/request"
    names.update({name + ".calls": "count/request" for name, _, _ in COUNTED})
    names.update({name: "count/request" for name in COUNTERS})
    names["knapsack.ProfitTable.cells_max"] = "cells"
    names["stars.useful_table_ratio"] = "ratio"
    names["oracle.useful_ratio"] = "ratio"
    names.update({f"self_share.{layer}": "ratio" for layer in LAYERS})
    names["trace.overhead_pct"] = "%"
    names["trace.requests"] = "count"
    names["trace.spans"] = "count"
    return names


def _is_function(value) -> bool:
    return isinstance(value, types.FunctionType)


class _Buffer:
    """Spans finished on one thread, in parallel arrays."""

    def __init__(self):
        self.stack: list[int] = []
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main: _Buffer = self._buffer()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.oracle_keys: dict[tuple[int, str], set] = defaultdict(set)

    # -- span recording ---------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, start: float, end: float, parent: int = -1,
               request: int = -1) -> int:
        """Store one finished span directly; returns its id."""
        buf = self._buffer()
        sid = next(self._ids)
        buf.ids.append(sid)
        buf.names.append(self._name_id(name))
        buf.starts.append(start)
        buf.ends.append(end)
        buf.parents.append(parent)
        buf.requests.append(request)
        return sid

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span per call; ``observe(args, result)`` runs after."""
        name_id = self._name_id(name)
        ids, main, tracer = self._ids, self._main, self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            # a span opened on a worker thread hangs off the main thread's open span
            parent = stack[-1] if stack else (main.stack[-1] if main.stack else -1)
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(name_id)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)
                buf.requests.append(tracer.request)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        lock = self._lock

        def counting(*args, **kwargs):
            with lock:
                counts[key] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def add(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def run_request(self, request: int, fn, *args):
        """Run one request under a root span."""
        self.request = request
        return self.wrap(ROOT, fn)(*args)

    # -- observers: counts read from arguments and return values ----------

    def _observers(self) -> dict[str, object]:
        def profit_table(args, _result):
            table = args[0]
            cells = (len(table.items) + 1) * table.level_count
            with self._lock:
                self.counts["knapsack.ProfitTable.cells"] += cells
                if cells > self.counts["knapsack.ProfitTable.cells_max"]:
                    self.counts["knapsack.ProfitTable.cells_max"] = cells

        def star_oracle(_args, result):
            if result is not None:
                self.add("stars.results")

        def greedy(_args, solution):
            self.add("one_neighbour.greedy.rounds", len(solution.trace["iterations"]))

        def ud1n(_args, solution):
            if "fallback" in solution.trace:
                self.add("one_neighbour.ud1n.fallback")
            self.add("one_neighbour.ud1n.guesses", len(solution.trace.get("guesses", ())))

        def uda(_args, solution):
            self.add("all_neighbour.uda.guesses", solution.trace["guesses"])

        def oracle(name):
            def observe(args, _result):
                inst = args[0]
                key = (inst.directed, inst.n, inst.edges, inst.weights, inst.profits,
                       inst.budget, args[1] if len(args) > 1 else None)
                with self._lock:
                    self.oracle_keys[self.request, name].add(hash(key))
            return observe

        return {"knapsack.ProfitTable": profit_table,
                "stars.best_ratio_viable_star": star_oracle,
                "stars.best_profit_viable_star": star_oracle,
                "one_neighbour.greedy": greedy, "one_neighbour.ud1n": ud1n,
                "all_neighbour.uda": uda,
                "oracle.exact_1n": oracle("oracle.exact_1n"),
                "oracle.exact_alln": oracle("oracle.exact_alln")}

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every target found; a target missing from graphsack is skipped."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        wrappers = {}  # original function -> wrapper, for module-level targets
        for name, module, path in SPANS + COUNTED:
            owner = sys.modules.get(module)
            *cls, attr = path.split(".")
            if cls and owner is not None:
                owner = getattr(owner, cls[0], None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            if (name, module, path) in COUNTED:
                wrapper = self.counted(name, original)
            else:
                wrapper = self.wrap(name, original, observers.get(name))
            if cls:
                self._set(owner, attr, wrapper)
            else:
                wrappers[original] = wrapper
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "graphsack" or key.startswith("graphsack.")]
        for mod in modules:
            for value in list(vars(mod).values()):
                defaults = value.__defaults__ if _is_function(value) else None
                if defaults and any(_is_function(d) and d in wrappers for d in defaults):
                    self._set(value, "__defaults__", tuple(
                        wrappers.get(d, d) if _is_function(d) else d for d in defaults))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if _is_function(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> tuple[array, array, array]:
        """Per span id: name id, parent id and self time.

        Self time is the span's duration minus the union of its children's
        intervals; children on worker threads may overlap each other.  Kept in
        flat arrays, since a run can hold millions of spans.
        """
        count = sum(len(buf.ids) for buf in self._buffers)
        names, parents = array("i", bytes(4 * count)), array("q", bytes(8 * count))
        starts, ends = array("d", bytes(8 * count)), array("d", bytes(8 * count))
        for buf in self._buffers:
            for k, sid in enumerate(buf.ids):
                names[sid], parents[sid] = buf.names[k], buf.parents[k]
                starts[sid], ends[sid] = buf.starts[k], buf.ends[k]
        covered = array("d", bytes(8 * count))
        reach = array("d", starts)  # end of the covered prefix of each span
        for sid in sorted(range(count), key=starts.__getitem__):
            p = parents[sid]
            if p < 0:
                continue
            lo, hi = max(starts[sid], reach[p]), min(ends[sid], ends[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        own = array("d", (ends[i] - starts[i] - covered[i] for i in range(count)))
        return names, parents, own

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics, normalised per request where the unit says so.

        Self times are summed per span name (``.ms``); ``self_share.<layer>``
        is a layer's share of all self time, so shares stay meaningful when
        worker threads overlap.
        """
        per = 1 / max(requests, 1)
        names, parents, own = self.self_times()
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        oracle_ids = {self._name_id(name) for name in STAR_ORACLES}
        table_id = self._name_id("knapsack.ProfitTable")
        tables_in_oracles = 0
        for sid, name_id in enumerate(names):
            calls[name_id] += 1
            self_ms[name_id] += own[sid] * 1000
            if name_id == table_id and parents[sid] >= 0 and names[parents[sid]] in oracle_ids:
                tables_in_oracles += 1
        calls = {self.names[i]: c for i, c in calls.items()}
        self_ms = {self.names[i]: ms for i, ms in self_ms.items()}
        out = {}
        for span in SPAN_NAMES + [ROOT]:
            out[f"{span}.calls"] = calls.get(span, 0) * per
            out[f"{span}.ms"] = self_ms.get(span, 0.0) * per
        for name, _, _ in COUNTED:
            out[name + ".calls"] = self.counts[name + ".calls"] * per
        for name in COUNTERS:
            out[name] = self.counts[name] * per
        out["knapsack.ProfitTable.cells_max"] = self.counts["knapsack.ProfitTable.cells_max"]
        out["stars.useful_table_ratio"] = (
            self.counts["stars.results"] / tables_in_oracles if tables_in_oracles else 0.0)
        oracle_calls = sum(calls.get(name, 0) for name in ORACLES)
        distinct = sum(len(keys) for keys in self.oracle_keys.values())
        out["oracle.useful_ratio"] = distinct / oracle_calls if oracle_calls else 0.0
        total = sum(self_ms.values()) or 1.0
        for layer in LAYERS:
            out[f"self_share.{layer}"] = sum(
                ms for name, ms in self_ms.items() if name.split(".")[0] == layer) / total
        out["trace.spans"] = len(names)
        out["trace.requests"] = requests
        return out
