"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on shared hosts whose single-thread speed drifts by up to
1.7x over minutes, for reasons outside the benchmark process (other tenants,
clock changes).  A fixed synthetic loop does not track that drift well: it
slowed 1.6x while graphsack slowed 1.4x.  So the meter is graphsack itself,
frozen: ``frozen_graphsack/`` is a copy of ``src/graphsack`` at the commit
that defined the benchmark, which later changes to ``src/`` do not touch.

Every timed process also runs a fixed calibration set of requests on the
frozen copy, interleaved with its own requests and timed apart from them.
The calibration set of a workload is the first ``SIZE`` requests that
``workloads.build`` makes for seed ``SEED``; it does not depend on the run's
seed.  ``speed`` compares the mean time of each calibration request with
its time in ``calibration.json``, recorded on the reference machine (a
2-core x86-64 VM, Python 3.11), and the benchmark divides every wall time it
reports by that factor, and every CPU time by the same factor computed from
CPU times.  (With ``bench --jobs 2`` the two differ: its wall time also
depends on the second core.)  Times are thus reported at reference speed.
The mean, not the median: the speed can switch within a run, and then the
median of the calibration times jumps between the two speeds while the
request times, which the throughput adds up, follow their mean.

    python3 perfbench/calibrate.py

re-records ``calibration.json`` from REPEATS runs of every request.  Only
the scale of the reported times depends on it, so do it only together with
re-recording every baseline.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "calibration.json"
ROOT = "calib"   # calibration files live under this directory of a run
SEED = 0
SIZE = {"star-greedy": 16, "scc-closure": 12, "component-dp": 9, "bench-corpus": 1}
# calibration time per unit of request time in a timed phase
SHARE = 0.5
WALL, CPU = 1, 2   # columns of a calibration sample (request index, wall s, CPU s)
REPEATS = 15


def requests(workload: str):
    """Files and requests of the calibration set of ``workload``."""
    import workloads  # imports the graphsack under test, to generate inputs

    files, reqs = workloads.build(workload, SEED, ROOT)
    reqs = reqs[:SIZE[workload]]
    used = {r.path for r in reqs}
    files = {path: text for path, text in files.items()
             if path in used or path.rsplit("/", 1)[0] in used}
    return files, [list(r.argv) for r in reqs]


def write(directory: str, files: dict[str, str]) -> None:
    for path, text in files.items():
        path = os.path.join(directory, path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class Meter:
    """Runs calibration requests on the frozen copy and keeps their times.
    Requests run from the current directory, which must hold the files.  The
    first request runs once untimed, so lazy imports and first-call costs
    are not counted."""

    def __init__(self, argvs: list[list[str]]):
        sys.path.insert(0, str(HERE))
        from frozen_graphsack.cli import main

        self.main = main
        self.argvs = argvs
        self.samples: list[tuple[int, float, float]] = []   # (index, WALL s, CPU s)
        self.wall = self.cpu = 0.0
        self.step()
        self.samples.clear()
        self.wall = self.cpu = 0.0

    def step(self) -> None:
        """Run the next calibration request, in cyclic order."""
        index = len(self.samples) % len(self.argvs)
        out = io.StringIO()
        c0 = process_time()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.main(list(self.argvs[index]))
        seconds = perf_counter() - t0
        cpu = process_time() - c0
        if code != 0:
            raise RuntimeError(f"calibration request {self.argvs[index]} failed: "
                               f"{out.getvalue()}")
        self.samples.append((index, seconds, cpu))
        self.wall += seconds
        self.cpu += cpu

    def run_for(self, seconds: float) -> None:
        while not self.samples or self.wall < seconds:
            self.step()


def speed(workload: str, samples: list, column: int = WALL) -> float:
    """How much slower than the reference machine the samples ran, in wall
    or CPU time: 1.0 is reference speed, 2.0 half as fast."""
    reference = json.loads(REFERENCE_FILE.read_text())[workload]
    means = _means(samples, column)
    return sum(means.values()) / sum(reference[index][column - 1] for index in means)


def _means(samples: list, column: int) -> dict[int, float]:
    times = defaultdict(list)
    for sample in samples:
        times[sample[0]].append(sample[column])
    return {index: statistics.fmean(v) for index, v in times.items()}


def record() -> dict[str, list[list[float]]]:
    """Mean wall and CPU time of each calibration request over REPEATS runs."""
    sys.path.insert(0, str(HERE.parent / "src"))
    reference = {}
    cwd = os.getcwd()
    for workload in SIZE:
        files, argvs = requests(workload)
        with tempfile.TemporaryDirectory() as tmp:
            write(tmp, files)
            os.chdir(tmp)
            try:
                meter = Meter(argvs)
                for _ in range(REPEATS * len(argvs)):
                    meter.step()
            finally:
                os.chdir(cwd)
        wall, cpu = _means(meter.samples, WALL), _means(meter.samples, CPU)
        reference[workload] = [[wall[i], cpu[i]] for i in range(len(argvs))]
        print(f"{workload}: {sum(wall.values()):.4f} s per calibration cycle", flush=True)
    return reference


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(record(), indent=1) + "\n")
