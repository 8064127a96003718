"""Acceptance suite: every guarantee the package advertises, at stated scale.

Each criterion prints one ``[acceptance] <name>: PASS|FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them as they complete).
All comparisons against optima use independent brute-force enumeration from
``helpers``, never the code paths under test.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from graphsack import (Instance, Item, best_ratio_viable_star, condense, descendants,
                       exact_1n, gen_max_k_cover, gen_set_cover_cycles,
                       general_undirected_alln_fptas, greedy_1_neighbour,
                       is_1_neighbour_set, is_all_neighbour_set,
                       knapsack_exact, knapsack_fptas, ratio_key,
                       serialize, star_partition, uniform_directed_1n_ptas,
                       uniform_directed_alln_ptas, uniform_undirected_1n,
                       uniform_undirected_alln, validate_star)
from graphsack.cli import main as cli_main
from helpers import (best_ratio_subset, item_star, opt_at, profit_for_every_budget,
                     random_instance, random_uniform, ratio_meets)


def report(criterion, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{extra}")
    assert not failures, f"{criterion}: first failure: {failures[0]}"


def is_closure_union(inst, chosen):
    if not is_all_neighbour_set(inst, chosen):
        return False
    if not inst.directed or not chosen:
        return True
    cond = condense(inst)
    touched = {cond.membership[v] for v in chosen}
    if descendants(cond, touched) != touched:
        return False
    expanded = sorted(v for u in touched for v in cond.scc_vertices[u])
    return expanded == sorted(chosen)


def test_criterion_1_uniform_undirected_exactness():
    """uu1n-linear and uua-subsetsum match brute force on 500 instances."""
    rng = random.Random(10_001)
    failures = []
    for trial in range(500):
        n = rng.randint(1, 12)
        inst = random_uniform(rng, n, False, rng.random() * 0.6, 0)
        frontiers = {c: profit_for_every_budget(inst, c) for c in ("one", "all")}
        for k in range(n + 2):
            one = uniform_undirected_1n(inst, k)
            alln = uniform_undirected_alln(inst, k)
            if not (is_1_neighbour_set(inst, one.chosen) and one.total_weight <= k):
                failures.append((trial, k, "1n infeasible"))
            if one.size != opt_at(frontiers["one"], k):
                failures.append((trial, k, "1n", one.size, inst.edges))
            if alln.size != opt_at(frontiers["all"], k):
                failures.append((trial, k, "alln", alln.size, inst.edges))
    report("criterion-1 exactness-suite", failures, "500 instances, all budgets")


def test_criterion_2_greedy_guarantee():
    """Greedy profit >= 0.267 * OPT at eps=0.1 on 300 general instances."""
    rng = random.Random(20_002)
    bound = Fraction(267, 1000)
    failures = []
    saw_zero_weight = 0
    for trial in range(300):
        n = rng.randint(4, 14)
        inst = random_instance(rng, n, False, rng.random() * 0.45, 8, 8, 0)
        if trial % 3 == 0:
            weights = list(inst.weights)
            weights[rng.randrange(n)] = 0
            inst = Instance(False, n, inst.edges, weights, inst.profits, 0)
        if any(w == 0 for w in inst.weights):
            saw_zero_weight += 1
        k = rng.randint(0, max(1, sum(inst.weights) // 2))
        sol = greedy_1_neighbour(inst, k, 0.1)
        if not (is_1_neighbour_set(inst, sol.chosen) and sol.total_weight <= k):
            failures.append((trial, "infeasible"))
            continue
        opt = opt_at(profit_for_every_budget(inst, "one"), k)
        if Fraction(sol.total_profit) < bound * opt:
            failures.append((trial, sol.total_profit, opt, inst.edges, k))
    if saw_zero_weight < 100:
        failures.append(("too few zero-weight instances", saw_zero_weight))
    report("criterion-2 greedy-guarantee", failures,
           f"300 instances, {saw_zero_weight} with zero-weight vertices")


def test_criterion_3_ptas_guarantees():
    """Both uniform directed PTASes reach ceil((1-eps) * OPT) on 300 instances."""
    rng = random.Random(30_003)
    failures = []
    complete_hits = 0
    for trial in range(300):
        n = rng.randint(1, 12)
        inst = random_uniform(rng, n, True, rng.random() * 0.5, 0)
        k = rng.randint(0, n + 2)
        frontiers = {c: profit_for_every_budget(inst, c) for c in ("one", "all")}
        for eps in (0.25, 0.5):
            need = 1 - Fraction(str(eps))
            one = uniform_directed_1n_ptas(inst, k, eps)
            opt_one = opt_at(frontiers["one"], k)
            if not (is_1_neighbour_set(inst, one.chosen) and one.total_weight <= k):
                failures.append((trial, eps, "1n infeasible"))
            if one.size < math.ceil(need * opt_one):
                failures.append((trial, eps, "1n bound", one.size, opt_one))
            if one.trace and one.trace.get("complete") and one.size != opt_one:
                failures.append((trial, eps, "1n complete-branch inequality",
                                 one.size, opt_one, inst.edges, k))
            elif one.trace and one.trace.get("complete"):
                complete_hits += 1
            alln = uniform_directed_alln_ptas(inst, k, eps)
            opt_all = opt_at(frontiers["all"], k)
            if not is_closure_union(inst, alln.chosen) or alln.total_weight > k:
                failures.append((trial, eps, "alln infeasible"))
            if alln.total_weight < math.ceil(need * opt_all):
                failures.append((trial, eps, "alln bound", alln.total_weight, opt_all))
    report("criterion-3 ptas-guarantees", failures,
           f"300 instances x 2 eps, {complete_hits} optimal-branch hits")


def test_criterion_4_star_oracle_guarantees():
    """Star oracles within (1-eps) of exhaustive star optima, degree <= 8."""
    rng = random.Random(40_004)
    failures = []
    from graphsack import best_profit_viable_star, best_ratio_viable_star

    accepted = 0
    while accepted < 300:
        n = rng.randint(1, 12)
        inst = random_instance(rng, n, False, rng.random() * 0.4, 4, 6, 0)
        if any(inst.degree(v) > 8 for v in range(n)):
            continue
        accepted += 1
        cap = rng.randint(0, 14)
        stars = []
        for v in range(n):
            if inst.degree(v) == 0:
                if inst.weights[v] <= cap:
                    stars.append((inst.profits[v], inst.weights[v]))
                continue
            for r in range(1, inst.degree(v) + 1):
                for leaves in combinations(inst.adj[v], r):
                    w = inst.weights[v] + sum(inst.weights[u] for u in leaves)
                    if w <= cap:
                        stars.append(
                            (inst.profits[v] + sum(inst.profits[u] for u in leaves), w))
        for eps in (0.1, 0.3):
            eps_f = Fraction(str(eps))
            got_p = best_profit_viable_star(inst, cap, eps)
            got_r = best_ratio_viable_star(inst, cap, eps)
            if not stars:
                if got_p is not None or got_r is not None:
                    failures.append((accepted, eps, "expected none"))
                continue
            if got_p is None or got_r is None:
                failures.append((accepted, eps, "missing star"))
                continue
            best_profit = max(p for p, _ in stars)
            profit = inst.total_profit(got_p.vertices)
            if inst.total_weight(got_p.vertices) > cap or \
                    Fraction(profit) < (1 - eps_f) * best_profit:
                failures.append((accepted, eps, "profit", profit, best_profit))
            best_r = max(stars, key=lambda t: ratio_key(*t))
            rp = inst.total_profit(got_r.vertices)
            rw = inst.total_weight(got_r.vertices)
            if rw > cap or not ratio_meets(rp, rw, best_r[0], best_r[1], eps):
                failures.append((accepted, eps, "ratio", (rp, rw), best_r))
    report("criterion-4 star-oracle-guarantees", failures,
           "300 instances x 2 eps, cross-multiplied")


def test_criterion_5_star_partition():
    """Partition into feasible stars on 500 instances up to n=50."""
    rng = random.Random(50_005)
    failures = []
    for trial in range(500):
        n = rng.randint(0, 50)
        inst = random_instance(rng, n, False, rng.random() * 0.15, 3, 3, 0)
        stars = star_partition(inst)
        flat = [v for s in stars for v in s.vertices]
        if sorted(flat) != list(range(n)) or len(set(flat)) != len(flat):
            failures.append((trial, "not a disjoint cover"))
            continue
        for s in stars:
            try:
                validate_star(inst, s)
            except Exception as exc:
                failures.append((trial, str(exc)))
                break
            if not is_1_neighbour_set(inst, s.vertices):
                failures.append((trial, "star not a 1-neighbour set"))
                break
    path3 = Instance(False, 3, [(0, 1), (1, 2)], [1] * 3, [1] * 3, 3)
    stars = star_partition(path3)
    if len(stars) != 1 or stars[0].center != 1 or stars[0].leaves != (0, 2):
        failures.append(("path-of-3 partition not the unique one", stars))
    report("criterion-5 star-partition", failures, "500 instances, n <= 50")


def covered_set_systems(max_elements=3, max_sets=3):
    for n in range(1, max_elements + 1):
        pool = [frozenset(s) for size in range(1, n + 1)
                for s in combinations(range(n), size)]
        for count in range(1, max_sets + 1):
            for collection in combinations(pool, count):
                if set().union(*collection) == set(range(n)):
                    yield n, [sorted(s) for s in collection]


def test_criterion_6_reduction_equivalences():
    """Set-cover-cycles iff, and max-k-cover optima vs brute force."""
    failures = []
    systems = 0
    # The equivalence presumes t <= |R| (the budget t*M+n must be fillable
    # with t distinct cycles, and the yes-direction pads a small cover with
    # spare sets); t > |R| is not a meaningful set-cover decision instance.
    for n, sets in covered_set_systems():
        for t in range(1, min(3, len(sets)) + 1):
            systems += 1
            inst = gen_set_cover_cycles(n, sets, t)
            opt = exact_1n(inst).total_profit
            cover_exists = any(
                set().union(*combo) == set(range(n))
                for r in range(1, t + 1)
                for combo in combinations([set(s) for s in sets], r))
            if (opt == inst.budget) != cover_exists:
                failures.append(("cycles", n, sets, t, opt, inst.budget))

    rng = random.Random(60_006)
    for trial in range(40):
        n = rng.randint(1, 4)
        sets = [[e for e in range(n) if rng.random() < 0.6] or [rng.randrange(n)]
                for _ in range(rng.randint(1, 4))]
        k = rng.randint(0, 4)
        inst = gen_max_k_cover(n, sets, k)
        free = sum(1 for e in range(n) if not any(e in s for s in sets))
        best = max((len(set().union(*(set(sets[j]) for j in combo)))
                    for r in range(1, min(k, len(sets)) + 1)
                    for combo in combinations(range(len(sets)), r)),
                   default=0)
        if exact_1n(inst).total_profit != best + free:
            failures.append(("k-cover", trial, sets, k))
    report("criterion-6 reduction-equivalences", failures,
           f"{systems} cycle systems, 40 coverage systems")


def test_criterion_7_fptas_suites():
    """The knapsack FPTAS, the ratio star oracle and the component FPTAS
    meet (1-eps) on 300 instances.  The ratio oracle runs on the star of a
    centre n, of weight and profit 0, joined to the items 0..n-1, so its
    stars are the non-empty item subsets, at their own ratios."""
    rng = random.Random(70_007)
    failures = []
    for trial in range(300):
        n = rng.randint(1, 12)
        raw = [(i, rng.randint(0, 6), rng.randint(0, 8)) for i in range(n)]
        items = [Item(*t) for t in raw]
        cap = rng.randint(0, 14)
        _, opt = knapsack_exact(items, cap)
        for eps in (0.1, 0.3):
            _, profit = knapsack_fptas(items, cap, eps)
            if Fraction(profit) < (1 - Fraction(str(eps))) * opt:
                failures.append(("knapsack", trial, eps, profit, opt))
        if n <= 12:
            best = best_ratio_subset(raw, cap)
            star_inst = item_star(raw, cap)
            star = best_ratio_viable_star(star_inst, cap, 0.3)
            if best is None:
                if star is not None:
                    failures.append(("ratio none", trial))
            elif star is None:
                failures.append(("ratio", trial, star, best))
            else:
                validate_star(star_inst, star)
                weight = star_inst.total_weight(star.vertices)
                result = (star_inst.total_profit(star.vertices), weight)
                if weight > cap or not ratio_meets(*result, best[0], best[1], 0.3):
                    failures.append(("ratio", trial, star, result, best))

        inst = random_instance(rng, rng.randint(1, 10), False,
                               rng.random() * 0.4, 4, 6, 0)
        k = rng.randint(0, 12)
        from graphsack import connected_components
        comp_items = [Item(i, inst.total_weight(c), inst.total_profit(c))
                      for i, c in enumerate(connected_components(inst))]
        _, comp_opt = knapsack_exact(comp_items, k)
        sol = general_undirected_alln_fptas(inst, k, 0.1)
        if Fraction(sol.total_profit) < Fraction(9, 10) * comp_opt:
            failures.append(("component", trial, sol.total_profit, comp_opt))
    report("criterion-7 fptas-suites", failures, "300 instances x 3 schemes")


def test_criterion_8_closure_property():
    """Every all-neighbour solver output is a union of descendant closures."""
    rng = random.Random(80_008)
    failures = []
    checked = 0
    for trial in range(150):
        n = rng.randint(1, 10)
        k = rng.randint(0, n + 2)
        directed_uniform = random_uniform(rng, n, True, rng.random() * 0.5, k)
        undirected_uniform = random_uniform(rng, n, False, rng.random() * 0.5, k)
        general = random_instance(rng, n, False, rng.random() * 0.4, 3, 4, k)
        outputs = [
            (directed_uniform, uniform_directed_alln_ptas(directed_uniform, k, 0.5)),
            (undirected_uniform, uniform_undirected_alln(undirected_uniform, k)),
            (general, general_undirected_alln_fptas(general, k, 0.2)),
        ]
        for inst, sol in outputs:
            checked += 1
            if not is_closure_union(inst, sol.chosen):
                failures.append((trial, inst.edges, sol.chosen))
    report("criterion-8 closure-property", failures, f"{checked} solver outputs")


def test_criterion_9_cli_determinism(tmp_path):
    """bench output is byte-identical across runs and across --jobs."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(90_009)
    for i in range(100):
        directed = i % 2 == 0
        n = rng.randint(2, 9)
        inst = random_instance(rng, n, directed, rng.random() * 0.5, 3, 3,
                               rng.randint(0, 8))
        if i % 3 == 0:
            inst = Instance(directed, n, inst.edges, [1] * n, [1] * n,
                            inst.budget)
        (corpus / f"i{i:03d}.gsk").write_text(serialize(inst), encoding="utf-8")
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli_main(["bench", "--dir", str(corpus), "--epsilon", "0.25",
                     "--out", str(outs[0])]) == 0
    assert cli_main(["bench", "--dir", str(corpus), "--epsilon", "0.25",
                     "--out", str(outs[1])]) == 0
    assert cli_main(["bench", "--dir", str(corpus), "--epsilon", "0.25",
                     "--jobs", "4", "--out", str(outs[2])]) == 0
    failures = []
    if outs[0].read_bytes() != outs[1].read_bytes():
        failures.append("two sequential runs differ")
    if outs[0].read_bytes() != outs[2].read_bytes():
        failures.append("--jobs 4 differs from sequential")
    rows = outs[0].read_text().splitlines()
    if len(rows) < 101:
        failures.append(f"only {len(rows) - 1} rows for 100 instances")
    report("criterion-9 cli-determinism", failures,
           f"{len(rows) - 1} rows, 100 instances")
