"""graphsack benchmark: seeded solve workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run sets up SETUP_REPS times, each time
in a fresh process (import graphsack, generate and write the seeded corpus,
one warm-up solve), then starts one more fresh process that runs only the
timed phase: a closed loop with one request in flight for S seconds.  The
parent then checks every output with the independent checker in check.py and
prints a summary, with the JSON result as the last line of standard output.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
reports the per-layer metrics from tracing.py instead, and fails when a
metric that the workload is meant to exercise reads zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import check
from tracing import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# as in workloads.py, which imports graphsack; this process never does
WORKLOADS = ("star-greedy", "scc-closure", "component-dp", "bench-corpus")
SETUP_REPS = 3
CHILD_TIMEOUT_S = 120

# Per-layer metrics that must be non-zero on each workload under --trace 1:
# a zero there means a wrapper missed its target.
REQUIRED = {
    "star-greedy": [
        "stars.best_ratio_viable_star.calls", "stars.best_ratio_viable_star.ms",
        "stars.best_profit_viable_star.calls", "stars.best_profit_viable_star.ms",
        "stars.useful_table_ratio", "one_neighbour.greedy.ms", "one_neighbour.greedy.rounds",
        "knapsack.ProfitTable.calls", "knapsack.ProfitTable.ms", "knapsack.ProfitTable.cells",
        "knapsack.ProfitTable.cells_max", "knapsack.witness.calls", "knapsack.witness.ms",
        "knapsack.ratio_key.calls", "graphs.Instance.calls", "graphs.Instance.ms",
        "graphs.induced.calls", "graphs.induced.ms", "graphs.in_boundary.calls",
        "graphs.in_boundary.ms", "graphs.feasibility.calls", "graphs.feasibility.ms"],
    "scc-closure": [
        "graphs.condense.calls", "graphs.condense.ms", "graphs.descendants.calls",
        "graphs.descendants.ms", "all_neighbour.closure_catalog.calls",
        "all_neighbour.closure_catalog.ms", "all_neighbour.uda.ms", "all_neighbour.uda.guesses",
        "one_neighbour.ud1n.ms", "one_neighbour.ud1n.guesses", "instance_io.parse.calls",
        "instance_io.parse.ms", "solution.make_solution.calls", "solution.make_solution.ms",
        "cli.verify.ms", "cli.route_auto.calls", "cli.output.ms"],
    "component-dp": [
        "knapsack.ProfitTable.calls", "knapsack.ProfitTable.ms", "knapsack.ProfitTable.cells",
        "knapsack.ProfitTable.cells_max", "knapsack.witness.calls", "knapsack.witness.ms",
        "knapsack.knapsack_fptas.ms"],
    "bench-corpus": [
        "one_neighbour.ud1n.fallback", "oracle.exact_1n.calls", "oracle.exact_1n.ms",
        "oracle.exact_alln.calls", "oracle.exact_alln.ms", "oracle.useful_ratio",
        "graphs.Instance.calls", "graphs.Instance.ms", "graphs.induced.calls",
        "graphs.induced.ms", "graphs.in_boundary.calls", "graphs.in_boundary.ms",
        "graphs.connected_components.calls", "graphs.connected_components.ms",
        "graphs.feasibility.calls", "graphs.feasibility.ms", "instance_io.parse.calls",
        "instance_io.parse.ms", "solution.make_solution.calls", "solution.make_solution.ms",
        "cli.verify.ms", "cli.output.ms"],
}


class BenchError(Exception):
    pass


def _child(args: list[str], timeout: float) -> str:
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args[0]} failed ({done.returncode}):\n{done.stderr}")
    return done.stdout


def _read_tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def set_up(workload: str, seed: int, work: Path) -> tuple[Path, list[float]]:
    """SETUP_REPS fresh set-ups; their corpora must match byte for byte.
    Returns the corpus directory and each set-up's time at reference speed."""
    times, trees = [], []
    for rep in range(SETUP_REPS):
        target = work / f"setup{rep}"
        out = _child(["setup", "--src", str(ROOT / "src"), "--workload", workload,
                      "--seed", str(seed), "--dir", str(target)], CHILD_TIMEOUT_S)
        timing = json.loads(out.splitlines()[-1])
        times.append(timing["setup_s"] / calibrate.speed(workload, timing["calibration"]))
        trees.append(_read_tree(target))
    if any(tree != trees[0] for tree in trees[1:]):
        raise BenchError("set-ups with the same seed wrote different corpora")
    return work / "setup0", times


def check_outputs(directory: Path, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, sample of problems) over every request of the run."""
    requests = json.loads((directory / "requests.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    files = {path: data for path, data in _read_tree(directory).items()
             if path.startswith("corpus/")}
    graphs = {path: check.parse_graph(data.decode()) for path, data in files.items()}
    outputs = result["outputs"]
    verdicts: dict[tuple[int, int], tuple[int, list[str]]] = {}
    attempted = failed = 0
    problems: list[str] = []
    for index, _latency, code, out in result["solves"]:
        req = requests[index]
        if (index, out) not in verdicts:
            if req["constraint"] == "bench":
                inside = {p: g for p, g in graphs.items() if p.startswith(req["path"] + "/")}
                rows, found = check.check_bench(inside, files, outputs[out], reference)
                if outputs[out].encode() != (directory / req["reference"]).read_bytes():
                    found.append("CSV differs from the --jobs 1 reference")
            else:
                rows = 1
                key = check.reference_key(files[req["path"]], req["constraint"])
                found = check.check_solve(graphs[req["path"]], req["path"], req["constraint"],
                                          req["variant"], outputs[out], reference.get(key))
            verdicts[index, out] = rows, [f"{req['path']}: {p}" for p in found]
        rows, found = verdicts[index, out]
        if code != 0:
            found = found + [f"{req['path']}: exit code {code}"]
        attempted += rows
        if found:
            failed += rows
            problems += found[:3]
    return attempted, failed, problems[:10]


def end_to_end(result: dict, attempted: int, setup_times: list[float], speed: float,
               cpu_speed: float) -> dict:
    """The end-to-end metrics, with wall times divided by ``speed`` and CPU
    times by ``cpu_speed``."""
    latencies_ms = [s[1] * 1000 / speed for s in result["solves"]]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solves_per_s": (attempted * speed / result["wall_s"], "1/s"),
        "solve_ms.p50": (statistics.median(latencies_ms), "ms"),
        "solve_ms.p90": (statistics.quantiles(latencies_ms, n=10, method="inclusive")[8], "ms"),
        "cpu_ms_per_solve": (result["cpu_s"] * 1000 / cpu_speed / attempted, "ms"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
    }


def run(args) -> int:
    if not (ROOT / "src" / "graphsack" / "__init__.py").is_file():
        print(f"error: no graphsack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        directory, setup_times = set_up(args.workload, args.seed, work)
        _child(["timed", "--src", str(ROOT / "src"), "--dir", str(directory),
                "--seconds", str(args.seconds), "--trace", str(args.trace)],
               args.seconds + CHILD_TIMEOUT_S)
        result = json.loads((directory / "result.json").read_text())
        attempted, failed, problems = check_outputs(directory, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    requests = len(result["solves"])
    print(f"workload {args.workload} seed {args.seed}: {requests} requests, "
          f"{attempted} solves checked, {failed} failed")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  fail_rate = {failed / attempted:.6g} ratio")
    if args.trace:
        units = metric_names()
        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        zero = [name for name in REQUIRED[args.workload] if not layers[name]]
        for name in units:
            print(f"  {name} = {layers[name]:.6g} {units[name]}")
        if zero:
            print(f"error: per-layer metrics read zero on {args.workload}: {', '.join(zero)}",
                  file=sys.stderr)
            return 1
    else:
        calibration = result["calibration"]
        speed = calibrate.speed(args.workload, calibration)
        cpu_speed = calibrate.speed(args.workload, calibration, calibrate.CPU)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in
                   end_to_end(result, attempted, setup_times, speed, cpu_speed).items()}
        print(f"  latency samples: {requests} (one per "
              f"{'bench pass' if args.workload == 'bench-corpus' else 'solve'})")
        print(f"  machine speed: {speed:.4g}x the reference wall time, {cpu_speed:.4g}x the "
              f"reference CPU time, over {len(calibration)} calibration requests; the "
              f"times below are divided by them")
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
