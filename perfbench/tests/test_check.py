"""The independent checker rejects crafted wrong outputs."""

import check

# 0 - 1 - 2 path plus isolated 3; weights 2 1 2 5, profits 3 1 4 9, budget 5
GRAPH_TEXT = """graph undirected 4 2
budget 5
v 0 2 3
v 1 1 1
v 2 2 4
v 3 5 9
e 0 1
e 1 2
"""
GRAPH = check.parse_graph(GRAPH_TEXT)
PATH = "corpus/g.txt"


def solve_output(chosen, count, profit, weight, constraint="one", variant="greedy-1n"):
    return "\n".join([
        f"instance: {PATH}", "n: 4", "m: 2", "k: 5", f"constraint: {constraint}",
        f"variant: {variant}", f"algorithm: {variant}", "epsilon: 0.1",
        f"chosen: {chosen}", f"count: {count}", f"profit: {profit}",
        f"weight: {weight}", "feasible: true", "guarantee: exact"]) + "\n"


def run(text, chosen="0 1", constraint="one", variant="greedy-1n"):
    reference = check.short_hash(chosen.encode())
    return check.check_solve(GRAPH, PATH, constraint, variant, text, reference)


def test_accepts_a_correct_answer():
    assert run(solve_output("0 1", 2, 4, 3)) == []


def test_rejects_infeasible_one_neighbour():
    problems = run(solve_output("0 2", 2, 7, 4), chosen="0 2")
    assert any("infeasible" in p for p in problems)


def test_rejects_open_all_neighbour_set():
    problems = run(solve_output("0 1", 2, 4, 3, "all", "gua-fptas"), constraint="all",
                   variant="gua-fptas")
    assert any("infeasible" in p for p in problems)


def test_rejects_over_budget():
    problems = run(solve_output("0 1 2", 3, 8, 5), chosen="0 1 2")
    assert problems == []
    problems = run(solve_output("0 1 3", 3, 13, 8), chosen="0 1 3")
    assert any("over budget" in p for p in problems)


def test_rejects_wrong_profit_and_weight_sums():
    assert any("profit" in p for p in run(solve_output("0 1", 2, 5, 3)))
    assert any("weight" in p for p in run(solve_output("0 1", 2, 4, 2)))
    assert any("count" in p for p in run(solve_output("0 1", 3, 4, 3)))


def test_rejects_answer_other_than_reference():
    problems = check.check_solve(GRAPH, PATH, "one", "greedy-1n",
                                 solve_output("1 2", 2, 5, 3), check.short_hash(b"0 1"))
    assert problems == ["chosen set differs from the reference answer"]


def test_rejects_wrong_header_fields():
    text = solve_output("0 1", 2, 4, 3).replace("variant: greedy-1n", "variant: uu1n-linear")
    assert any(p.startswith("variant") for p in run(text))


def bench_row(variant, profit, weight, guarantee, opt, ratio=None):
    if ratio is None:
        ratio = f"{profit / opt:.6f}" if opt else ""
    return [PATH, variant, variant, "0.1", "4", "2", "5", str(profit), str(weight), "true",
            guarantee, str(opt), ratio, "0", ""]


def test_bench_rows():
    assert check.check_bench_row(GRAPH, bench_row("exact-1n", 8, 5, "exact", 8)) == []
    assert check.check_bench_row(GRAPH, bench_row("exact-1n", 7, 5, "exact", 8))
    assert check.check_bench_row(GRAPH, bench_row("gua-fptas", 7, 5, "0.8", 8)) == []
    assert check.check_bench_row(GRAPH, bench_row("gua-fptas", 7, 5, "0.9", 8))
    assert check.check_bench_row(GRAPH, bench_row("gua-fptas", 7, 6, "0.8", 8))
    assert check.check_bench_row(GRAPH, bench_row("gua-fptas", 7, 5, "0.8", 8, "0.800000"))
    greedy = "(0.45)(1-e^-0.9)"
    assert check.check_bench_row(GRAPH, bench_row("greedy-1n", 3, 3, greedy, 8)) == []
    assert check.check_bench_row(GRAPH, bench_row("greedy-1n", 2, 3, greedy, 8))


def test_guarantee_factor():
    assert check.guarantee_factor("exact") == 1.0
    assert check.guarantee_factor("0.9") == 0.9
    assert abs(check.guarantee_factor("(0.45)(1-e^-0.9)") - 0.267043) < 1e-6


def test_expected_variants():
    assert check.expected_variants(GRAPH) == ["exact-1n", "exact-all", "greedy-1n", "gua-fptas"]
