"""The benchmark's trace gate, at test time.

``perfbench/run.py --trace 1`` fails when a per-layer metric that a workload
is meant to exercise reads zero (``run.REQUIRED``): a zero there means a
tracer wrapper missed its target, for example because a pinned function is
no longer called.  This test runs a few requests of each workload under
``tracing.Tracer``, in this process, and applies the same check.
"""

import contextlib
import io
from pathlib import Path

import pytest

import graphsack.cli
from graphsack import serialize
from helpers import load_perfbench

run = load_perfbench("run")
tracing = load_perfbench("tracing")
workloads = load_perfbench("workloads")
SOLVE_MEMBERS = 2  # pool members per class; a scc-closure member makes three files


def traced_layers(requests) -> dict[str, float]:
    """Per-layer metrics of running ``requests`` through ``cli.main``."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, request in enumerate(requests):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = tracer.run_request(i, graphsack.cli.main, list(request.argv))
            assert code == 0, (request.argv, out.getvalue())
    finally:
        tracer.uninstall()
    return tracer.metrics(len(requests))


def write(path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def solve_requests(workload: str) -> list:
    requests = []
    for cls in workloads.POOLS[workload].classes:
        for i in range(SOLVE_MEMBERS):
            for stem, inst, constraint, variant in workloads.instance_files(workload, cls, i):
                write(f"{stem}.txt", serialize(inst))
                requests.append(workloads.solve_request(f"{stem}.txt", constraint, variant))
    return requests


def bench_requests() -> list:
    """One bench pass, over the first directory of a bench-corpus run."""
    files, requests = workloads.build("bench-corpus", 1)
    for path, text in files.items():
        if path.startswith(requests[0].path + "/"):
            write(path, text)
    return requests[:1]


def test_every_workload_is_gated():
    assert set(run.REQUIRED) == set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_required_metrics_are_nonzero(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    requests = bench_requests() if workload == "bench-corpus" else solve_requests(workload)
    layers = traced_layers(requests)
    assert [name for name in run.REQUIRED[workload] if not layers[name]] == []
