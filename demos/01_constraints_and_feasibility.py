#!/usr/bin/env python3
"""Tour of instances, the two selection constraints, and graph structure.

Run: python demos/01_constraints_and_feasibility.py
"""

from graphsack import (Instance, condense, descendants, in_boundary,
                       is_1_neighbour_set, is_all_neighbour_set, serialize,
                       smallest_cycle)

print("=" * 64)
print("1. An instance is a graph plus vertex weights/profits and a budget")
print("=" * 64)

# An undirected path a-b-c where the endpoints carry the profit.
path = Instance(False, 3, [(0, 1), (1, 2)], weights=[1, 1, 1],
                profits=[1, 0, 1], budget=2)
print(serialize(path))

print("One-neighbour rule: a vertex needs at least one neighbour selected.")
print("  {0,1} feasible?", is_1_neighbour_set(path, [0, 1]))   # True
print("  {0,2} feasible?", is_1_neighbour_set(path, [0, 2]))   # False: 0 and 2
print("                    (each endpoint's only neighbour, 1, is missing)")
print()
print("All-neighbour rule: a selected vertex drags in its whole neighbourhood.")
print("  {0,1} closed?   ", is_all_neighbour_set(path, [0, 1]))  # False: 1-2 edge
print("  {0,1,2} closed? ", is_all_neighbour_set(path, [0, 1, 2]))

print()
print("=" * 64)
print("2. Boundaries drive the greedy solver")
print("=" * 64)
print("in_boundary(X) = vertices outside X with an edge into X.")
print("  path, X={1}:", in_boundary(path, [1]))

print()
print("=" * 64)
print("3. Directed instances: condensation, cycles, closures")
print("=" * 64)

# A 2-cycle {0,1} with a tail 2 -> 0 and an isolated sink 3.
digraph = Instance(True, 4, [(0, 1), (1, 0), (2, 0)], [1] * 4, [1] * 4, 4)
cond = condense(digraph)
print("SCCs:", cond.scc_vertices)
print("condensation arcs:", cond.dag_adjacency)
print("smallest cycle lengths:",
      tuple(len(smallest_cycle(digraph, c)) for c in cond.scc_vertices))
print("smallest cycle of the 2-cycle SCC:",
      smallest_cycle(digraph, [0, 1]))
tail = cond.membership[2]
print("descendants of the tail SCC:", sorted(descendants(cond, [tail])))
print()
print("Under the all-neighbour rule a directed selection is always a union")
print("of SCC descendant closures; selecting vertex 2 forces {0, 1} too:")
print("  {2} closed?    ", is_all_neighbour_set(digraph, [2]))
print("  {0,1,2} closed?", is_all_neighbour_set(digraph, [0, 1, 2]))
