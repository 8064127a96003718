"""Solver output record, verified at construction time; what each solver accepts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .errors import GraphsackError, OracleScaleError, UnsupportedVariantError, ValidationError
from .graphs import ALL_NEIGHBOUR, ONE_NEIGHBOUR, Instance, _is_int, first_violation


@dataclass(frozen=True)
class Solution:
    """A feasible vertex selection plus bookkeeping about how it was found.

    ``guarantee`` is either ``"exact"`` or the approximation factor of the
    producing algorithm, rendered as a string (e.g. ``"0.75"`` or the greedy
    formula ``"(0.45)(1-e^-0.9)"``).
    """

    chosen: tuple[int, ...]
    constraint: str
    total_weight: int
    total_profit: int
    algorithm: str
    guarantee: str
    trace: Optional[dict] = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.chosen)


def make_solution(instance: Instance, vertices, constraint: str, algorithm: str,
                  guarantee: str, budget: int, trace: Optional[dict] = None) -> Solution:
    """Build a Solution, re-verifying ids, feasibility and the budget; a set
    that fails any of them is a solver fault, a plain :class:`GraphsackError`."""
    try:
        chosen = instance.check_vertices(vertices)
    except ValidationError as exc:
        raise GraphsackError(f"{algorithm} produced an {exc}") from exc
    if first_violation(instance, chosen, constraint) is not None:
        raise GraphsackError(f"{algorithm} produced an infeasible {constraint} set")
    weight = instance.total_weight(chosen)
    if weight > budget:
        raise GraphsackError(f"{algorithm} exceeded the budget")
    return Solution(chosen, constraint, weight, instance.total_profit(chosen),
                    algorithm, guarantee, trace)


ANY = (lambda g: True, "any values")
UNIT = (Instance.is_uniform, "unit weights and profits")
WEIGHT_IS_PROFIT = (lambda g: g.weights == g.profits, "weight(v) == profit(v) for every vertex")


class Requirements(NamedTuple):
    """The instances a variant's solver accepts: its constraint, a direction (None:
    either), a value class (a test, and how a refusal words it) and, for the
    exhaustive oracles, n <= max_n."""
    constraint: str
    directed: Optional[bool]
    values: tuple[Callable[[Instance], bool], str]
    bounded: bool = False


REQUIREMENTS = {
    "exact-1n": Requirements(ONE_NEIGHBOUR, None, ANY, bounded=True),
    "exact-all": Requirements(ALL_NEIGHBOUR, None, ANY, bounded=True),
    "greedy-1n": Requirements(ONE_NEIGHBOUR, False, ANY),
    "gua-fptas": Requirements(ALL_NEIGHBOUR, False, ANY),
    "uda-ptas": Requirements(ALL_NEIGHBOUR, True, WEIGHT_IS_PROFIT),
    "ud1n-ptas": Requirements(ONE_NEIGHBOUR, True, UNIT),
    "uu1n-linear": Requirements(ONE_NEIGHBOUR, False, UNIT),
    "uua-subsetsum": Requirements(ALL_NEIGHBOUR, False, UNIT),
}


def refusal(variant: str, instance: Instance, max_n: Optional[int] = None,
            constraint: Optional[str] = None) -> Optional[GraphsackError]:
    """The error ``variant``'s solver refuses ``instance`` with, None if none.  In
    order: ``max_n`` (the exhaustive oracles'), the constraint if given, the
    direction, the values, then n against ``max_n``."""
    req = REQUIREMENTS[variant]
    holds, wording = req.values
    if req.bounded and not (_is_int(max_n) and max_n >= 0):
        return ValidationError(f"max_n must be a non-negative integer, got {max_n!r}")
    if constraint is not None and constraint != req.constraint:
        return UnsupportedVariantError(
            f"variant {variant} solves the {req.constraint} constraint, not {constraint}")
    if req.directed is not None and instance.directed != req.directed:
        return UnsupportedVariantError(
            f"{variant} requires {'a directed' if req.directed else 'an undirected'} instance")
    if not holds(instance):
        return UnsupportedVariantError(f"{variant} requires {wording}")
    if req.bounded and instance.n > max_n:
        return OracleScaleError(f"oracle-scale-exceeded: n={instance.n} above the bound {max_n}")
    return None


def require(variant: str, instance: Instance, max_n: Optional[int] = None,
            constraint: Optional[str] = None) -> None:
    """Raise :func:`refusal`'s error, if any: every solver's first step."""
    if (error := refusal(variant, instance, max_n, constraint)) is not None:
        raise error
