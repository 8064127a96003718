"""Knapsack solvers for items that live on a dependency graph.

Two selection rules are supported on directed and undirected graphs:

* **one-neighbour** - a vertex may be taken only if at least one of its
  (out-)neighbours is taken too (isolated vertices are free);
* **all-neighbour** - a vertex may be taken only together with all of its
  (out-)neighbours.

The package provides exact solvers where they exist, approximation schemes
with stated guarantees elsewhere, a brute-force oracle for validation, the
instance text format with generators (including two reduction-based
adversarial families), and a CLI/benchmark harness.
"""

from .all_neighbour import (closure_catalog, general_undirected_alln_fptas,
                            uniform_directed_alln_ptas, uniform_undirected_alln)
from .errors import (GraphsackError, OracleScaleError, ParseError,
                     UnsupportedVariantError, ValidationError)
from .graphs import (Condensation, Instance, condense, connected_components,
                     descendants, first_violation, in_boundary,
                     is_1_neighbour_set, is_all_neighbour_set, smallest_cycle)
from .instance_io import (gen_max_k_cover, gen_network_budget, gen_random,
                          gen_set_cover_cycles, parse, serialize)
from .knapsack import (Item, ProfitTable, knapsack_exact, knapsack_fptas, ratio_key,
                       subset_sum_max)
from .one_neighbour import (greedy_1_neighbour, uniform_directed_1n_ptas,
                            uniform_undirected_1n)
from .oracle import exact_1n, exact_alln
from .solution import ALL_NEIGHBOUR, ONE_NEIGHBOUR, Solution
from .stars import (Star, best_profit_viable_star, best_ratio_viable_star,
                    star_partition, validate_star)

__all__ = [
    "ALL_NEIGHBOUR", "ONE_NEIGHBOUR",
    "Condensation", "GraphsackError",
    "Instance", "Item", "OracleScaleError", "ParseError", "ProfitTable",
    "Solution", "Star", "UnsupportedVariantError", "ValidationError",
    "best_profit_viable_star", "best_ratio_viable_star", "closure_catalog",
    "condense", "connected_components", "descendants", "exact_1n",
    "exact_alln", "first_violation", "gen_max_k_cover", "gen_network_budget",
    "gen_random", "gen_set_cover_cycles", "general_undirected_alln_fptas",
    "greedy_1_neighbour", "in_boundary", "is_1_neighbour_set",
    "is_all_neighbour_set", "knapsack_exact", "knapsack_fptas", "parse",
    "ratio_key", "serialize", "smallest_cycle", "star_partition",
    "subset_sum_max", "uniform_directed_1n_ptas", "uniform_directed_alln_ptas",
    "uniform_undirected_1n", "uniform_undirected_alln", "validate_star",
]
