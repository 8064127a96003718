"""Every solver variant against brute force, on small graphs of every kind.

Each drawn instance goes through all eight ``cli.VARIANTS`` entries.  A
variant that refuses it with :class:`UnsupportedVariantError` is skipped;
every other output must be a feasible set within k that meets the variant's
advertised guarantee against ``helpers.brute_force_profit``, in exact
``Fraction`` arithmetic.  A solution whose guarantee reads ``"exact"`` must
reach OPT.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from graphsack import Instance, UnsupportedVariantError
from graphsack.cli import VARIANTS
from graphsack.graphs import MAX_VALUE, first_violation
from helpers import brute_force_profit, planted_cycle_graphs

EXACT = {"exact-1n", "exact-all", "uu1n-linear", "uua-subsetsum"}
SCHEMES = {"gua-fptas", "uda-ptas", "ud1n-ptas"}  # (1 - eps) * OPT
VALUES = st.one_of(st.sampled_from([0, 1, MAX_VALUE]), st.integers(2, 9))


def greedy_bound(eps: Fraction) -> Fraction:
    """((1-eps)/2)(1-e^-(1-eps)), rounded down to thousandths as acceptance
    criterion 2 does: 267/1000 at eps = 0.1."""
    factor = float(1 - eps) / 2 * (1 - math.exp(-float(1 - eps)))
    return Fraction(math.floor(1000 * factor), 1000)


@st.composite
def cases(draw):
    """(instance, k, eps): n <= 9, either direction, unit, weight = profit or
    general values, and k of 0, at most the total weight, the total, or 2^63-1."""
    inst = draw(planted_cycle_graphs(directed=st.booleans(), max_n=9, values=VALUES))
    kind = draw(st.sampled_from(["uniform", "weight=profit", "general"]))
    weights = [1] * inst.n if kind == "uniform" else list(inst.weights)
    profits = {"uniform": weights, "weight=profit": weights}.get(kind, inst.profits)
    inst = Instance(inst.directed, inst.n, inst.edges, weights, profits, 0)
    total = sum(weights)
    k = draw(st.one_of(st.sampled_from([0, total, MAX_VALUE]),
                       st.integers(0, min(total, MAX_VALUE))))
    return inst, k, draw(st.sampled_from([0.1, 0.3]))


def test_variant_classes_cover_every_variant():
    assert EXACT | SCHEMES | {"greedy-1n"} == set(VARIANTS)


@given(cases())
@settings(max_examples=1000, deadline=None)
def test_every_variant_meets_its_guarantee(case):
    inst, k, eps = case
    opt = {c: brute_force_profit(inst, k, c) for c in ("one", "all")}
    for name, variant in VARIANTS.items():
        try:
            sol = variant.run(inst, eps, 22, k)
        except UnsupportedVariantError:
            continue
        assert first_violation(inst, sol.chosen, variant.constraint) is None, name
        assert sol.total_weight == inst.total_weight(sol.chosen) <= k, name
        assert sol.total_profit == inst.total_profit(sol.chosen), name
        best = opt["one" if variant.constraint == "one-neighbour" else "all"]
        assert sol.guarantee == "exact" or name not in EXACT, name
        if sol.guarantee == "exact":  # ud1n-ptas too, on its exhaustive branches
            assert sol.total_profit == best, name
        elif name in SCHEMES:
            assert sol.total_profit >= (1 - Fraction(str(eps))) * best, name
        else:
            assert sol.total_profit >= greedy_bound(Fraction(str(eps))) * best, name
