"""Solver output record, verified at construction time."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import GraphsackError, ValidationError
from .graphs import ALL_NEIGHBOUR, ONE_NEIGHBOUR, Instance, first_violation


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
