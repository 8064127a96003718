"""Command-line entry point and benchmark harness.

Exit codes: 0 success, 2 parse/validation error, 3 unsupported variant or
known-hardness refusal, 4 exhaustive-oracle scale exceeded, 1 any other
package error, such as a solver output that fails the vertex-id,
feasibility or budget re-check in ``make_solution``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Optional

from .all_neighbour import (general_undirected_alln_fptas, uniform_directed_alln_ptas,
                            uniform_undirected_alln)
from .errors import (GraphsackError, OracleScaleError, ParseError,
                     UnsupportedVariantError, ValidationError)
from .graphs import Instance, first_violation, is_1_neighbour_set, is_all_neighbour_set
from .instance_io import _int_token, parse
from .knapsack import eps_fraction
from .one_neighbour import (greedy_1_neighbour, uniform_directed_1n_ptas,
                            uniform_undirected_1n)
from .oracle import DEFAULT_MAX_N, exact_1n, exact_alln
from .solution import (ALL_NEIGHBOUR, ANY, ONE_NEIGHBOUR, REQUIREMENTS, UNIT, Solution,
                       max_n_error, refusal, require)
from .stars import star_partition

CSV_HEADER = ["instance", "variant", "algorithm", "epsilon", "n", "m", "k",
              "profit", "weight", "feasible", "guarantee", "opt", "ratio",
              "ms", "error"]


class Variant(NamedTuple):
    """A solver variant: its name, a key of ``REQUIREMENTS``, whether it
    reads ``--epsilon``, and ``run(instance, epsilon, oracle_max_n, k)``,
    where a ``k`` of None is the instance's budget."""
    name: str
    reads_epsilon: bool
    run: Callable[[Instance, float, int, Optional[int]], Solution]
    constraint = property(lambda self: REQUIREMENTS[self.name].constraint)


# Each run looks its solver up by module-level name at call time, so a wrapper
# re-bound on that name (a tracer, a test's counter) sees every call.
VARIANTS = {variant.name: variant for variant in (
    Variant("exact-1n", False, lambda g, eps, max_n, k: exact_1n(g, k, max_n=max_n)),
    Variant("exact-all", False, lambda g, eps, max_n, k: exact_alln(g, k, max_n=max_n)),
    Variant("greedy-1n", True, lambda g, eps, _, k: greedy_1_neighbour(g, k, eps)),
    Variant("gua-fptas", True, lambda g, eps, _, k: general_undirected_alln_fptas(g, k, eps)),
    Variant("uda-ptas", True, lambda g, eps, _, k: uniform_directed_alln_ptas(g, k, eps)),
    Variant("ud1n-ptas", True, lambda g, eps, _, k: uniform_directed_1n_ptas(g, k, eps)),
    Variant("uu1n-linear", False, lambda g, eps, _, k: uniform_undirected_1n(g, k)),
    Variant("uua-subsetsum", False, lambda g, eps, _, k: uniform_undirected_alln(g, k)),
)}

CONSTRAINT_NAMES = {"one": ONE_NEIGHBOUR, "all": ALL_NEIGHBOUR}

# route_auto's order of (variant, a value class that must also hold), and the
# hardness of the class none accepts; unit goes to uda-ptas before the n test
ROUTES = {
    ONE_NEIGHBOUR: ((("uu1n-linear", ANY), ("greedy-1n", ANY), ("ud1n-ptas", ANY),
                     ("exact-1n", ANY)), "1/Omega(log^(1-eps) n)"),
    ALL_NEIGHBOUR: ((("uua-subsetsum", ANY), ("gua-fptas", ANY), ("uda-ptas", UNIT),
                     ("exact-all", ANY), ("uda-ptas", ANY)), "2^(log^d n)"),
}

# the first class an error is an instance of gives the exit code
# (ParseError is a ValidationError; every class is a GraphsackError)
EXIT_CODES = ((ValidationError, 2), (UnsupportedVariantError, 3),
              (OracleScaleError, 4), (GraphsackError, 1))


def route_auto(constraint: str, instance: Instance, oracle_max_n: int) -> str:
    """The first variant of ``ROUTES[constraint]`` whose requirements hold, with
    ``oracle_max_n`` as the exhaustive oracles' bound; else a hardness refusal.
    A bad bound is refused first, as the oracles refuse it."""
    if (error := max_n_error(oracle_max_n)) is not None:
        raise error
    if constraint not in ROUTES:
        raise ValidationError(f"unknown constraint {constraint!r}")
    order, hardness = ROUTES[constraint]
    for variant, (holds, _) in order:
        if holds(instance) and refusal(variant, instance, oracle_max_n) is None:
            return variant
    raise UnsupportedVariantError(
        f"general directed {constraint} instances have no approximation variant (the "
        f"problem is {hardness}-hard to approximate); the exhaustive search is limited "
        f"to n <= {oracle_max_n}")


def _verify(instance: Instance, solution: Solution, k: int) -> None:
    """Independent feasibility re-check before anything is emitted."""
    if solution.constraint == ONE_NEIGHBOUR:
        ok = is_1_neighbour_set(instance, solution.chosen)
    else:
        ok = is_all_neighbour_set(instance, solution.chosen)
    if not ok or solution.total_weight > k:
        raise GraphsackError(
            f"internal error: {solution.algorithm} emitted an infeasible solution")


def _read_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from exc


def _csv_row(**columns) -> list[str]:
    """A row of the ``CSV_HEADER`` columns, by name; a column not named, or
    named with None, stays empty."""
    row = [columns.pop(name, None) for name in CSV_HEADER]
    assert not columns, f"not a CSV column: {sorted(columns)}"
    return ["" if value is None else str(value) for value in row]


def _solution_row(path: str, variant: str, instance: Instance, k: int, solution: Solution,
                  eps: float, opt: Optional[int], ms: int) -> list[str]:
    return _csv_row(instance=path, variant=variant, algorithm=solution.algorithm,
                    epsilon=f"{eps:g}" if VARIANTS[variant].reads_epsilon else None,
                    n=instance.n, m=instance.m, k=k,
                    profit=solution.total_profit, weight=solution.total_weight,
                    feasible="true", guarantee=solution.guarantee, opt=opt,
                    ratio=f"{solution.total_profit / opt:.6f}" if opt else None, ms=ms)


def cmd_solve(args) -> int:
    instance = _read_instance(args.input)
    k = instance.budget if args.budget is None else args.budget
    eps_fraction(args.epsilon)  # rejected even where the variant ignores it
    constraint = CONSTRAINT_NAMES[args.constraint]
    variant = args.variant
    if variant == "auto":
        variant = route_auto(constraint, instance, args.oracle_max_n)
    else:
        require(variant, instance, args.oracle_max_n, constraint)
    solution = VARIANTS[variant].run(instance, args.epsilon, args.oracle_max_n, k)
    _verify(instance, solution, k)

    if args.format == "csvrow":
        csv.writer(sys.stdout, lineterminator="\n").writerow(
            _solution_row(args.input, variant, instance, k, solution, args.epsilon, None, 0))
        return 0
    lines = {"instance": args.input, "n": instance.n, "m": instance.m, "k": k,
             "constraint": args.constraint, "variant": variant, "algorithm": solution.algorithm,
             "epsilon": f"{args.epsilon:g}" if VARIANTS[variant].reads_epsilon else None,
             "chosen": " ".join(map(str, solution.chosen)), "count": solution.size,
             "profit": solution.total_profit, "weight": solution.total_weight,
             "feasible": "true", "guarantee": solution.guarantee}
    print(*(f"{key}: {value}" for key, value in lines.items() if value is not None), sep="\n")
    return 0


def cmd_check(args) -> int:
    instance = _read_instance(args.input)
    chosen = instance.check_vertices(
        _int_token(tok, None, "vertex id") for tok in args.set.replace(",", " ").split())
    violation = first_violation(instance, chosen, CONSTRAINT_NAMES[args.constraint])
    weight = instance.total_weight(chosen)
    print(f"set: {' '.join(map(str, chosen))}")
    print(f"constraint: {args.constraint}")
    print(f"feasible: {'false' if violation else 'true'}")
    if violation:
        witness, missing = violation
        print(f"witness: {witness}")
        if missing is not None:
            print(f"missing: {missing}")
    print(f"weight: {weight}")
    print(f"budget: {instance.budget}")
    print(f"within_budget: {'true' if weight <= instance.budget else 'false'}")
    return 0


def _bench_instance(path: str, eps: float, oracle_max_n: int, timing: bool) -> list[list[str]]:
    """A row per variant whose ``REQUIREMENTS`` hold, ``oracle_max_n`` bounding n."""
    rows: list[list[str]] = []
    try:
        instance = _read_instance(path)
    except GraphsackError as exc:
        return [_csv_row(instance=path, error=exc)]
    opts: dict[str, int] = {}  # constraint -> optimum, from the exact-* rows, which sort first
    for variant in (v for v in sorted(VARIANTS) if refusal(v, instance, oracle_max_n) is None):
        try:
            start = time.perf_counter()
            solution = VARIANTS[variant].run(instance, eps, oracle_max_n, None)
            ms = int((time.perf_counter() - start) * 1000) if timing else 0
            if variant.startswith("exact-"):
                opts[solution.constraint] = solution.total_profit
            _verify(instance, solution, instance.budget)
            rows.append(_solution_row(path, variant, instance, instance.budget, solution, eps,
                                      opts.get(solution.constraint), ms))
        except GraphsackError as exc:
            rows.append(_csv_row(instance=path, variant=variant, n=instance.n,
                                 m=instance.m, k=instance.budget, error=exc))
    return rows


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    if not os.path.isdir(args.dir):
        raise ValidationError(f"not a directory: {args.dir}")
    try:
        fh = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc.strerror}") from exc
    with fh, ThreadPoolExecutor(max_workers=args.jobs) as pool:
        paths = sorted(path for name in os.listdir(args.dir)
                       if os.path.isfile(path := os.path.join(args.dir, name))
                       and not os.path.samefile(path, args.out))
        grouped = list(pool.map(
            lambda p: _bench_instance(p, args.epsilon, args.oracle_max_n, args.timing),
            paths))
        rows = [row for group in grouped for row in group]
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows for {len(paths)} instances to {args.out}")
    return 0


def cmd_partition_stars(args) -> int:
    instance = _read_instance(args.input)
    for star in star_partition(instance):
        print(f"{star.center}: {' '.join(map(str, star.leaves))}".rstrip())
    return 0


def _int_option(name: str) -> Callable[[str], int]:
    # a bad value raises ParseError, which main reports like any other
    return lambda token: _int_token(token, None, name)


@functools.cache  # one per process; main looks each cmd_* up when it runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsack",
        description="Knapsack solvers for items with graph dependencies")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--input", required=True)
    solve.add_argument("--constraint", required=True, choices=list(CONSTRAINT_NAMES))
    solve.add_argument("--variant", default="auto",
                       choices=["auto"] + sorted(VARIANTS))
    solve.add_argument("--epsilon", type=float, default=0.1)
    solve.add_argument("--budget", type=_int_option("--budget"), default=None)
    solve.add_argument("--oracle-max-n", type=_int_option("--oracle-max-n"), default=DEFAULT_MAX_N)
    solve.add_argument("--format", default="kv", choices=["kv", "csvrow"])

    check = sub.add_parser("check", help="verify feasibility of a vertex set")
    check.add_argument("--input", required=True)
    check.add_argument("--constraint", required=True, choices=list(CONSTRAINT_NAMES))
    check.add_argument("--set", required=True,
                       help="comma- or space-separated vertex ids")

    bench = sub.add_parser("bench", help="run every solver that accepts each file of a directory")
    bench.add_argument("--dir", required=True)
    bench.add_argument("--epsilon", type=float, default=0.1)
    bench.add_argument("--oracle-max-n", type=_int_option("--oracle-max-n"), default=DEFAULT_MAX_N)
    bench.add_argument("--out", required=True)
    bench.add_argument("--jobs", type=_int_option("--jobs"), default=1)
    bench.add_argument("--timing", action="store_true",
                       help="record wall time in the ms column (breaks "
                            "byte-for-byte reproducibility)")

    stars = sub.add_parser("partition-stars", help="print a star partition")
    stars.add_argument("--input", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except GraphsackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
