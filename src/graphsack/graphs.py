"""Dependency-graph representation and the structure everything else rests on.

An :class:`Instance` couples a directed or undirected graph with per-vertex
integer weights and profits and a knapsack budget.  This module provides the
component/SCC analysis, the smallest directed cycle of one SCC, boundary and
descendant computations, and the feasibility rule that defines the two
selection constraints (:func:`first_violation`, and a predicate for each):

* a *1-neighbour set* may contain a vertex only if at least one of its
  (out-)neighbours is also in the set (vertices with no neighbours are free);
* an *all-neighbour set* must be closed under the (out-)neighbour relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ValidationError

MAX_VALUE = (1 << 63) - 1
ONE_NEIGHBOUR = "one-neighbour"
ALL_NEIGHBOUR = "all-neighbour"


def _is_int(x) -> bool:
    # Loops over vertex ids test ``type(x) is int`` first, so that plain ints,
    # the common case, skip this call.
    return isinstance(x, int) and not isinstance(x, bool)


class Instance:
    """A dependency graph with vertex weights/profits and a budget.

    Vertices are ``0..n-1``.  The graph is stored once, as the ascending
    (out-)neighbour lists ``adj`` and in-neighbour lists ``radj`` (``adj``
    itself when undirected); ``edges`` is read off ``adj``: sorted unordered
    pairs, smaller endpoint first, for undirected instances and ordered arcs
    ``(tail, head)`` for directed ones.  Self-loops and duplicate edges are
    rejected; the vertex count, vertex ids, weights, profits and the budget
    must be integers (not bools), and weights, profits and the budget
    non-negative and below 2**63.
    """

    __slots__ = ("directed", "n", "weights", "profits", "budget", "adj", "radj",
                 "provenance")

    def __init__(self, directed: bool, n: int, edges: Iterable[tuple[int, int]],
                 weights: Sequence[int], profits: Sequence[int], budget: int,
                 provenance: str | None = None):
        self.directed = bool(directed)
        if not _is_int(n) or n < 0:
            raise ValidationError("vertex count must be a non-negative integer")
        self.n = n
        try:
            sized = len(weights) == n == len(profits)
        except TypeError:  # None, say, has no length
            sized = False
        if not sized:
            raise ValidationError("weights/profits must have one entry per vertex")
        for name, values in (("weight", weights), ("profit", profits)):
            # plain ints in range pass at C speed; the loop names the first bad vertex
            if {*map(type, values)} <= {int} and \
                    0 <= min(values, default=0) and max(values, default=0) <= MAX_VALUE:
                continue
            for v, x in enumerate(values):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValidationError(f"{name} of vertex {v} is not an integer")
                if not 0 <= x <= MAX_VALUE:
                    raise ValidationError(f"{name} of vertex {v} out of range [0, 2^63)")
        if not _is_int(budget) or not 0 <= budget <= MAX_VALUE:
            raise ValidationError("budget out of range [0, 2^63)")
        self.weights = tuple(weights)
        self.profits = tuple(profits)
        self.budget = budget

        norm: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        try:
            for u, v in edges:
                if not ((type(u) is int is type(v) or _is_int(u) and _is_int(v))
                        and 0 <= u < n and 0 <= v < n):
                    raise ValidationError(f"edge ({u}, {v}) names an invalid vertex")
                if u == v:
                    raise ValidationError(f"self-loop at vertex {u}")
                key = (u, v) if self.directed else (min(u, v), max(u, v))
                if key in seen:
                    raise ValidationError(f"duplicate edge ({u}, {v})")
                seen.add(key)
                norm.append(key)
        except (TypeError, ValueError) as exc:  # edges not iterable, or not all pairs
            raise ValidationError(f"edges must be pairs of vertex ids: {exc}") from exc
        # norm keeps the input order: parsed canonical edges arrive sorted,
        # and sorting a sorted list takes one linear pass.
        norm.sort()

        # One walk over the sorted edges appends every list in ascending
        # order; undirected, the lower neighbours (y, x) precede (x, z).
        adj: list[list[int]] = [[] for _ in range(n)]
        radj = [[] for _ in range(n)] if self.directed else adj
        for u, v in norm:
            adj[u].append(v)
            radj[v].append(u)
        self.adj = tuple(map(tuple, adj))
        self.radj = tuple(map(tuple, radj)) if self.directed else self.adj
        self.provenance = provenance

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges in sorted order, read off the ascending ``adj`` lists."""
        directed = self.directed
        return tuple([(i, j) for i, nbrs in enumerate(self.adj) for j in nbrs
                      if directed or i < j])

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // (1 if self.directed else 2)

    def degree(self, v: int) -> int:
        """Degree (undirected) or out-degree (directed) of ``v``."""
        return len(self.adj[v])

    def total_weight(self, vertices: Iterable[int]) -> int:
        return sum(map(self.weights.__getitem__, vertices))

    def total_profit(self, vertices: Iterable[int]) -> int:
        return sum(map(self.profits.__getitem__, vertices))

    def check_vertices(self, vertices: Iterable[int]) -> tuple[int, ...]:
        """Normalize to a strictly increasing vertex tuple, validating ids."""
        vertices = list(vertices)
        for v in vertices:
            if not ((type(v) is int or _is_int(v)) and 0 <= v < self.n):
                raise ValidationError(f"invalid vertex id {v!r}")
        return tuple(sorted(set(vertices)))

    def induced(self, vertices: Iterable[int]) -> tuple["Instance", tuple[int, ...]]:
        """Induced sub-instance on ``vertices`` plus the new->old id map.

        The sub-instance is filled from this instance's validated fields and
        not validated again.  The id map increases, so the filtered neighbour
        lists stay ascending.  Every tuple is built from a list, which keeps
        peak memory down over the many rounds of greedy-1n.
        """
        keep = self.check_vertices(vertices)
        new = dict(zip(keep, range(len(keep))))

        def restrict(lists):
            return tuple([tuple([new[u] for u in lists[v] if u in new]) for v in keep])

        directed = self.directed
        sub = Instance.__new__(Instance)
        sub.directed, sub.n, sub.budget, sub.provenance = directed, len(keep), self.budget, None
        sub.weights = tuple([self.weights[v] for v in keep])
        sub.profits = tuple([self.profits[v] for v in keep])
        sub.adj = restrict(self.adj)
        sub.radj = restrict(self.radj) if directed else sub.adj
        return sub, keep

    def solver_budget(self, k) -> int:
        """``k`` checked as a solver budget; the instance's own budget if None."""
        k = self.budget if k is None else k
        if not _is_int(k) or k < 0:
            raise ValidationError("budget must be a non-negative integer")
        return k

    def is_uniform(self) -> bool:
        """True when every weight and profit equals 1."""
        return self.weights.count(1) == self.n == self.profits.count(1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.directed == other.directed and self.n == other.n
                and self.adj == other.adj and self.weights == other.weights
                and self.profits == other.profits and self.budget == other.budget)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Instance({kind}, n={self.n}, m={self.m}, k={self.budget})"


@dataclass(frozen=True)
class Condensation:
    """The DAG of maximal SCCs of an instance (undirected: its components).

    SCC ids are assigned in a topological order of the DAG (sources first).
    :func:`smallest_cycle` gives the shortest cycle of one SCC.
    """

    scc_count: int
    membership: tuple[int, ...]
    scc_vertices: tuple[tuple[int, ...], ...]
    dag_adjacency: tuple[tuple[int, ...], ...]
    scc_weight: tuple[int, ...]


def connected_components(instance: Instance) -> list[tuple[int, ...]]:
    """Connected components of an undirected instance: its :func:`condense`
    SCCs, in decreasing order of size, ties broken by smallest contained
    vertex id; each component is a sorted vertex tuple.
    """
    if instance.directed:
        raise ValidationError("connected_components requires an undirected instance")
    return sorted(condense(instance).scc_vertices, key=lambda c: (-len(c), c[0]))


def _bfs_layers(nbrs, *sources: int):
    """Breadth-first layers from ``sources`` over ``nbrs``: the sources, then
    one list per distance.  A layer is built only when the caller asks for it."""
    seen = set(sources)
    layer = list(sources)
    while layer:
        yield layer
        nxt = []
        for v in layer:
            for u in nbrs[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layer = nxt


def _smallest_cycle_in_scc(instance: Instance, members: Sequence[int]) -> tuple[int, ...]:
    """Shortest directed cycle within one SCC (assumed strongly connected,
    ``members`` ascending): the lexicographically smallest vertex sequence
    starting at the smallest id that lies on any shortest cycle.

    Self-loops are invalid, so a 2-cycle is shortest, and one pass finds the
    smallest member whose out- and in-lists meet (its partners lie in the
    SCC).  Else sources are searched in ascending id, each only for a cycle
    strictly shorter than the best so far (``girth``), so no search goes
    deeper than ``girth - 2`` arcs, only a strictly shorter cycle moves
    ``start``, and a 3-cycle, the shortest left, ends the scan (Itai and
    Rodeh, "Finding a minimum circuit in a graph", SIAM J. Comput. 7(4), 1978).
    """
    if len(members) == 1:
        return (members[0],)
    for v in members:
        meet = set(instance.adj[v]).intersection(instance.radj[v])
        if meet:
            return (v, min(meet))
    inside = set(members)
    out = {v: [u for u in instance.adj[v] if u in inside] for v in members}
    into = {v: [u for u in instance.radj[v] if u in inside] for v in members}
    girth, start = len(members) + 1, -1
    for s in members:
        into_s = set(into[s])
        for depth, layer in enumerate(_bfs_layers(out, s)):
            if not into_s.isdisjoint(layer):  # a cycle of length depth + 1
                girth, start = depth + 1, s
                break
            if depth + 2 >= girth:  # the next layer closes no shorter cycle
                break
        if girth == 3:
            break

    # Any closed walk of length == girth is a simple cycle, so a greedy
    # lexicographic walk constrained by distance-to-start is safe.
    back = {v: d for d, layer in enumerate(_bfs_layers(into, start))
            for v in layer}  # back[v] = dist(v -> start)
    cycle = [start]
    for left in range(girth - 1, 0, -1):  # arcs left back to start
        cycle.append(min(u for u in out[cycle[-1]] if back.get(u) == left))
    return tuple(cycle)


def condense(instance: Instance) -> Condensation:
    """Contract the maximal SCCs of an instance into a DAG.

    Two passes (Kosaraju and Sharir; Sharir, Comput. Math. Appl. 7(1), 1981):
    a depth-first search over ``adj`` lists the vertices as they finish;
    then, in decreasing finish order, each unclaimed vertex starts the next
    SCC and claims over ``radj`` the unclaimed vertices that reach it.  An
    arc from an SCC numbered earlier is a DAG arc into the new one.
    Undirected, ``radj`` is ``adj``: every edge is an arc both ways, so the
    SCCs are the connected components and the DAG has no arcs.
    """
    adj, radj, weights = instance.adj, instance.radj, instance.weights
    seen = [False] * instance.n
    finished: list[int] = []
    for root in range(instance.n):
        if seen[root]:
            continue
        seen[root] = True
        # The DFS path below the current vertex v, each with its arcs left.
        # A vertex with no out-arcs finishes at once and never gets a frame.
        work: list = []
        v, arcs = root, iter(adj[root])
        while True:
            for w in arcs:
                if not seen[w]:
                    seen[w] = True
                    if adj[w]:
                        work.append((v, arcs))
                        v, arcs = w, iter(adj[w])
                        break
                    finished.append(w)
            else:
                finished.append(v)
                if not work:
                    break
                v, arcs = work.pop()

    membership = [-1] * instance.n
    sccs: list[tuple[int, ...]] = []
    scc_weight: list[int] = []
    dag: list[list[int]] = []  # each list grows in ascending order
    for s in reversed(finished):
        if membership[s] != -1:
            continue
        i = len(sccs)
        membership[s] = i
        comp = [s]
        dag.append([])
        for v in comp:  # grows as members are claimed
            for u in radj[v]:
                j = membership[u]
                if j == -1:
                    membership[u] = i
                    comp.append(u)
                elif j != i and (not dag[j] or dag[j][-1] != i):
                    dag[j].append(i)
        if len(comp) == 1:
            sccs.append((s,))
            scc_weight.append(weights[s])
        else:
            comp.sort()
            sccs.append(tuple(comp))
            scc_weight.append(sum([weights[v] for v in comp]))
    return Condensation(
        scc_count=len(sccs),
        membership=tuple(membership),
        scc_vertices=tuple(sccs),
        dag_adjacency=tuple(map(tuple, dag)),
        scc_weight=tuple(scc_weight),
    )


def smallest_cycle(instance: Instance, scc_vertices: Iterable[int]) -> tuple[int, ...]:
    """Shortest directed cycle inside a maximal SCC of ``instance``.

    A singleton SCC yields its single vertex (length 1, not a true cycle).
    Rejects vertex sets that are not maximal SCCs: the set must be the SCC
    of its smallest member, the vertices that it both reaches and is reached
    from.
    """
    members = instance.check_vertices(scc_vertices)
    if not members:
        raise ValidationError("empty set is not an SCC")
    if not instance.directed:
        raise ValidationError("smallest_cycle requires a directed instance")
    reach = {v for layer in _bfs_layers(instance.adj, members[0]) for v in layer}
    scc = [v for layer in _bfs_layers(instance.radj, members[0]) for v in layer if v in reach]
    if tuple(sorted(scc)) != members:
        raise ValidationError("vertex set is not a maximal SCC")
    return _smallest_cycle_in_scc(instance, members)


def in_boundary(instance: Instance, vertices: Iterable[int]) -> tuple[int, ...]:
    """Vertices outside ``X`` with an edge (or arc pointing) into ``X``."""
    inside = set(instance.check_vertices(vertices))
    out: set[int] = set()
    for v in inside:
        for u in instance.radj[v]:
            if u not in inside:
                out.add(u)
    return tuple(sorted(out))


def descendants(condensation: Condensation, roots: Iterable[int]) -> set[int]:
    """Reflexive-transitive closure of ``roots`` in the condensation DAG."""
    roots = list(roots)
    for u in roots:  # before any hashing, so an unhashable root is named too
        if not ((type(u) is int or _is_int(u)) and 0 <= u < condensation.scc_count):
            raise ValidationError(f"invalid SCC id {u!r}")
    return set().union(*_bfs_layers(condensation.dag_adjacency, *roots))


def first_violation(instance: Instance, vertices: Iterable[int],
                    constraint: str) -> tuple[int, int | None] | None:
    """The first member, in id order, that breaks ``constraint``, or None.

    A one-neighbour violation is ``(v, None)``: ``v`` has (out-)neighbours but
    none inside.  An all-neighbour violation is ``(v, u)`` with ``u`` the
    first (out-)neighbour of ``v`` outside the set.
    """
    chosen = instance.check_vertices(vertices)
    inside = set(chosen)
    if constraint == ONE_NEIGHBOUR:
        return next(((v, None) for v in chosen if instance.adj[v]
                     and inside.isdisjoint(instance.adj[v])), None)
    if constraint == ALL_NEIGHBOUR:
        return next(((v, u) for v in chosen for u in instance.adj[v]
                     if u not in inside), None)
    raise ValidationError(f"unknown constraint {constraint!r}")


def is_1_neighbour_set(instance: Instance, vertices: Iterable[int]) -> bool:
    """True iff every member with positive (out-)degree has a neighbour inside."""
    return first_violation(instance, vertices, ONE_NEIGHBOUR) is None


def is_all_neighbour_set(instance: Instance, vertices: Iterable[int]) -> bool:
    """True iff the set is closed under the (out-)neighbour relation."""
    return first_violation(instance, vertices, ALL_NEIGHBOUR) is None
