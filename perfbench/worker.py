"""Child process of the benchmark: one set-up, or one timed phase.

    worker.py setup --src SRC --workload W --seed S --dir DIR
        Imports graphsack, writes the seeded corpus and request list into DIR
        and makes a warm-up solve (on bench-corpus, one ``--jobs 1`` pass per
        directory, whose CSV is that directory's reference).  Then, untimed,
        writes the calibration set (calibrate.py) and runs it on the frozen
        copy for CALIBRATION_S.  Prints {"setup_s": ..., "calibration": [...]}.
    worker.py timed --src SRC --dir DIR --seconds T --trace 0|1
        Runs the request cycle from DIR in a closed loop, one request in
        flight, for T seconds, and writes DIR/result.json.  With --trace 0,
        calibration requests on the frozen copy (calibrate.py) are interleaved
        with the requests, timed apart and left out of every request and CPU
        time.  With --trace 1
        each request runs twice, untraced then traced, so the tracing
        overhead is measured on the same inputs.

Both modes time from inside the process, so interpreter start-up is not
counted, and neither checks outputs: the parent does that afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter, process_time

import calibrate

CALIBRATION_S = 0.4  # calibration time in each set-up process


def _cli_call(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue() + err.getvalue()


def setup(args) -> None:
    start = perf_counter()
    sys.path.insert(0, args.src)
    import graphsack.cli
    import workloads

    files, requests = workloads.build(args.workload, args.seed)
    for path, text in files.items():
        path = os.path.join(args.dir, path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(args.dir, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump([r.__dict__ for r in requests], fh)
    os.chdir(args.dir)
    if requests[0].constraint == "bench":
        warm_up = [workloads.bench_request(r.path, r.reference, jobs="1") for r in requests]
    else:  # the smallest file, so the warm-up costs about the same for every seed
        warm_up = [min(requests, key=lambda r: (len(files[r.path]), r.path))]
    for request in warm_up:
        code, text = _cli_call(graphsack.cli.main, request.argv)
        if code != 0:
            raise SystemExit(f"warm-up request {request.argv} failed ({code}): {text}")
    setup_s = perf_counter() - start
    files, argvs = calibrate.requests(args.workload)
    calibrate.write(".", files)
    with open("calibration.json", "w", encoding="utf-8") as fh:
        json.dump(argvs, fh)
    meter = calibrate.Meter(argvs)
    meter.run_for(CALIBRATION_S)
    print(json.dumps({"setup_s": setup_s, "calibration": meter.samples}))


def timed(args) -> None:
    sys.path.insert(0, args.src)
    import graphsack.cli
    import tracing

    os.chdir(args.dir)
    with open("requests.json", encoding="utf-8") as fh:
        requests = json.load(fh)
    bench = requests[0]["constraint"] == "bench"
    outputs: dict[str, int] = {}   # distinct output text -> index
    solves = []                    # [request index, latency s, exit code, output index]
    tracer = tracing.Tracer() if args.trace else None
    paired = []                    # (untraced s, traced s) per traced request
    meter = None
    if tracer is None:
        with open("calibration.json", encoding="utf-8") as fh:
            meter = calibrate.Meter(json.load(fh))

    def run(index: int, traced: bool) -> None:
        argv = requests[index]["argv"]
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            if traced:
                code, text = tracer.run_request(len(solves), _cli_call, graphsack.cli.main, argv)
            else:
                code, text = _cli_call(graphsack.cli.main, argv)
            latency = perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if bench:
            with open(requests[index]["argv"][-1], encoding="utf-8") as fh:
                text = fh.read()
        solves.append([index, latency, code, outputs.setdefault(text, len(outputs))])

    run(0, False)  # warm-up: lazy imports and first-call costs, not counted
    solves.clear()
    cpu0, child0 = process_time(), resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    busy = 0.0
    i = 0
    while perf_counter() - start < args.seconds:
        run(i % len(requests), False)
        busy += solves[-1][1]
        if tracer is not None:
            run(i % len(requests), True)
            paired.append((solves[-2][1], solves[-1][1]))
        i += 1
        while meter is not None and meter.wall < calibrate.SHARE * busy:
            meter.step()
    wall = perf_counter() - start
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = process_time() - cpu0 + (child1.ru_utime - child0.ru_utime) \
        + (child1.ru_stime - child0.ru_stime)
    if meter is not None:
        wall -= meter.wall
        cpu -= meter.cpu
    result = {"wall_s": wall, "cpu_s": cpu, "solves": solves,
              "calibration": meter.samples if meter is not None else [],
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "outputs": sorted(outputs, key=outputs.get)}
    if tracer is not None:
        layers = tracer.metrics(len(paired))
        untraced, traced = (sum(x) for x in zip(*paired))
        layers["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
        result["layers"] = layers
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--src", required=True)
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--dir", required=True)
    t = sub.add_parser("timed")
    t.add_argument("--src", required=True)
    t.add_argument("--dir", required=True)
    t.add_argument("--seconds", type=float, required=True)
    t.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    setup(args) if args.mode == "setup" else timed(args)


if __name__ == "__main__":
    main()
