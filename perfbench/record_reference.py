"""Record the reference answer for every instance a workload can draw.

    python3 perfbench/record_reference.py

Run from the repository root, at the commit whose answers are the reference.
It solves every pool member of every workload with that commit's graphsack
and writes perfbench/reference.json: per (instance, question) the digest of
the chosen vertex set, or of the bench rows without their path column.  The
checker in check.py compares every benchmark output against these digests.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from worker import _cli_call  # noqa: E402
from graphsack.cli import main as graphsack_main  # noqa: E402


def record(workload: str, work: Path) -> dict[str, str]:
    out = {}
    corpus = work / workload
    corpus.mkdir(parents=True)
    members = list(workloads.pool_members(workload))
    for stem, text, _constraint, _variant in members:
        (corpus / f"{stem}.txt").write_text(text, encoding="utf-8")
    if workload == "bench-corpus":
        csv_path = work / "bench.csv"
        request = workloads.bench_request(str(corpus), str(csv_path), jobs="1")
        code, text = _cli_call(graphsack_main, request.argv)
        if code != 0:
            raise SystemExit(f"bench failed: {text}")
        rows: dict[str, list[list[str]]] = {}
        for row in list(csv.reader(csv_path.open(encoding="utf-8")))[1:]:
            rows.setdefault(Path(row[0]).stem, []).append(row)
        for stem, text, *_ in members:
            out[check.reference_key(text.encode(), "bench")] = check.bench_row_digest(rows[stem])
        return out
    for stem, text, constraint, variant in members:
        request = workloads.solve_request(str(corpus / f"{stem}.txt"), constraint, variant)
        code, output = _cli_call(graphsack_main, request.argv)
        chosen = [line.partition(": ")[2] for line in output.splitlines()
                  if line.startswith("chosen: ")]
        if code != 0 or len(chosen) != 1:
            raise SystemExit(f"{stem}: solve failed ({code}): {output}")
        out[check.reference_key(text.encode(), constraint)] = check.short_hash(chosen[0].encode())
    return out


def main() -> None:
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            found = record(workload, work)
            print(f"{workload}: {len(found)} answers", flush=True)
            reference.update(found)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
