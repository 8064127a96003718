"""Instance text format, random generation, and reduction-based generators.

File format (UTF-8, line oriented, ``#`` starts a comment anywhere):

    graph <directed|undirected> <n> <m>
    budget <k>
    v <id> <weight> <profit>      # exactly n lines, ids 0..n-1 in order
    e <u> <v>                     # exactly m lines; undirected edges u < v

All numbers are base-10 non-negative integers below 2**63.  ``parse`` reads
*canonical* text, exactly what ``serialize`` writes (provenance comments
first, single spaces, ``\n`` line ends, numbers of at most 18 digits), in
bulk: each of the ``v`` and ``e`` blocks becomes one JSON array, so a single
``json.loads`` converts all its numbers.  JSON refuses a number with a
leading zero, which ``serialize`` never writes, so such text goes to the line
walk, as does any other valid text; both give the same ``Instance``, and
``parse(serialize(x)) == x``.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import random
import re
import struct
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, compress, repeat
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ParseError, ValidationError
from .graphs import MAX_VALUE, Instance, _is_int


def _int_token(token: str, line: Optional[int], what: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"{what} must be a non-negative integer, got {token!r}", line)
    value = int(token)
    if value > MAX_VALUE:
        raise ParseError(f"{what} out of range [0, 2^63)", line)
    return value


# With re.ASCII, \d is [0-9], and 18 digits are always below 2**63.  A comment
# holds no str.splitlines boundary, so the line walk sees it as one line too.
_CANONICAL = re.compile(
    r"(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*\n)*"
    r"graph (directed|undirected) (\d{1,18}) (\d{1,18})\nbudget (\d{1,18})\n"
    r"((?:v \d{1,18} \d{1,18} \d{1,18}\n)*)((?:e \d{1,18} \d{1,18}\n)*)", re.ASCII)


def _numbers(block: str, tag: str) -> list[int]:
    """The numbers of a canonical block of ``tag`` lines, in order: one JSON
    array, so every token converts in one C-level pass."""
    return json.loads("[" + block[2:].replace(f"\n{tag} ", " ").replace(" ", ",") + "]")


def parse(text: str) -> Instance:
    """Parse instance text, validating every format and graph invariant."""
    # canonical text in bulk; anything else, or a failed check, takes the line
    # walk, the one code that words a ParseError
    match = _CANONICAL.fullmatch(text)
    if match:
        kind, n, m, budget, vertices, edges = match.groups()
        n, directed = int(n), kind == "directed"
        with contextlib.suppress(ValueError, ValidationError):  # ValueError: a leading 0
            vertices, edges = _numbers(vertices, "v"), _numbers(edges, "e")
            tails, heads = edges[0::2], edges[1::2]
            if (len(vertices) == 3 * n and len(tails) == int(m)
                    and vertices[0::3] == list(range(n))
                    and all(map(operator.ne if directed else operator.lt, tails, heads))):
                return Instance(directed, n, zip(tails, heads), vertices[1::3],
                                vertices[2::3], int(budget))
    lines: list[tuple[int, list[str]]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((no, body.split()))
    if not lines:
        raise ParseError("empty instance text")

    cursor = 0

    def take(expect: str, count: int) -> tuple[int, list[str]]:
        nonlocal cursor
        if cursor >= len(lines):
            raise ParseError(f"unexpected end of input, expected {expect!r} line")
        no, tokens = lines[cursor]
        cursor += 1
        if tokens[0] != expect or len(tokens) != count + 1:
            raise ParseError(
                f"expected {expect!r} line with {count} fields, got {' '.join(tokens)!r}", no)
        return no, tokens[1:]

    no, fields = take("graph", 3)
    if fields[0] not in ("directed", "undirected"):
        raise ParseError(f"direction must be directed|undirected, got {fields[0]!r}", no)
    directed = fields[0] == "directed"
    n = _int_token(fields[1], no, "vertex count")
    m = _int_token(fields[2], no, "edge count")

    no, fields = take("budget", 1)
    budget = _int_token(fields[0], no, "budget")

    weights, profits = [], []
    for i in range(n):
        no, fields = take("v", 3)
        vid = _int_token(fields[0], no, "vertex id")
        if vid != i:
            raise ParseError(f"vertex ids must be 0..n-1 in order, expected {i} got {vid}", no)
        weights.append(_int_token(fields[1], no, "weight"))
        profits.append(_int_token(fields[2], no, "profit"))

    edges = []
    for _ in range(m):
        no, fields = take("e", 2)
        u = _int_token(fields[0], no, "edge endpoint")
        v = _int_token(fields[1], no, "edge endpoint")
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", no)
        if not directed and u > v:
            raise ParseError(f"undirected edges must be stored u < v, got {u} {v}", no)
        edges.append((u, v))
    if cursor != len(lines):
        no, tokens = lines[cursor]
        raise ParseError(f"trailing content {' '.join(tokens)!r}", no)

    try:
        return Instance(directed, n, edges, weights, profits, budget)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def serialize(instance: Instance) -> str:
    """Canonical text for an instance; inverse of :func:`parse`."""
    out = []
    if instance.provenance:
        out.extend(f"# {line}" for line in instance.provenance.splitlines())
    kind = "directed" if instance.directed else "undirected"
    out.append(f"graph {kind} {instance.n} {instance.m}")
    out.append(f"budget {instance.budget}")
    for v in range(instance.n):
        out.append(f"v {v} {instance.weights[v]} {instance.profits[v]}")
    for u, v in instance.edges:
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"


def gen_random(n: int, edge_prob: float, directed: bool, w_max: int, p_max: int,
               k: int, seed: int) -> Instance:
    """Deterministic G(n, p)-style instance with uniform weights/profits.

    Each (ordered, when directed) vertex pair, in row order, is an edge when
    one ``random.Random(seed).random()`` draw is below ``edge_prob``; then
    ``randint`` draws weights in [0, w_max] and profits in [0, p_max].  Two
    CPython facts, pinned in ``tests/test_instance_io.py``, give the bulk
    read: ``random()`` is ``x / 2**53`` for ``x = (a >> 5) << 26 | b >> 6``,
    ``a`` and ``b`` the next two 32-bit Mersenne Twister outputs, so the test
    is ``x < t = ceil(edge_prob * 2**53)``; and ``randbytes(8 * c)`` is the
    next 2c outputs, little-endian, leaving the state of c ``random()`` calls.
    Draws and top-byte scans run in C: a pair is an edge when its ``a``'s top
    byte is below that of ``t - 1``, not when above; only an equal one (about
    1/256 of the pairs) and each edge take Python work.
    """
    if not (isinstance(edge_prob, (int, float, Fraction)) and 0 <= edge_prob <= 1):
        raise ValidationError("edge_prob must lie in [0, 1] (an int, float or Fraction)")
    if not all(map(_is_int, (n, w_max, p_max, k, seed))):
        raise ValidationError("n, w_max, p_max, k and seed must be integers")
    if n < 0 or k < 0 or not 0 <= w_max <= MAX_VALUE or not 0 <= p_max <= MAX_VALUE:
        raise ValidationError("n, w_max, p_max, k must be non-negative; w_max, p_max below 2^63")
    rng = random.Random(seed)
    count = n * (n - 1) if directed else n * (n - 1) // 2
    t = math.ceil(edge_prob * (1 << 53))
    top = max(t - 1, 0) >> 45  # the top byte of t - 1
    sure = b"\x01" * top + bytes(256 - top)  # marks the top bytes below it
    hits: list[int] = []  # flat pair indices; Instance sorts the edges
    for start in range(0, count, 1 << 16):  # at most 512 KiB of draws at a time
        draws = rng.randbytes(8 * min(1 << 16, count - start))
        tops = draws[3::8]
        if top:
            hits += compress(range(start, start + len(tops)), tops.translate(sure))
        i = tops.find(top)
        while i >= 0:
            a, b = struct.unpack_from("<2I", draws, 8 * i)
            if (a >> 5 << 26 | b >> 6) < t:
                hits.append(start + i)
            i = tops.find(top, i + 1)
    if directed:  # row u's draw r is column r, or r + 1 from the diagonal on
        edges = [(u, r + (r >= u)) for u, r in map(divmod, hits, repeat(n - 1))]
    else:  # row u ends before flat index ends[u]
        ends = list(accumulate(range(n - 1, 0, -1)))
        edges = [(u, i - ends[u] + n) for i in hits for u in [bisect_right(ends, i)]]
    weights = [rng.randint(0, w_max) for _ in range(n)]
    profits = [rng.randint(0, p_max) for _ in range(n)]
    prov = (f"gen_random n={n} edge_prob={edge_prob} directed={directed} "
            f"w_max={w_max} p_max={p_max} k={k} seed={seed}")
    return Instance(directed, n, edges, weights, profits, k, provenance=prov)


def gen_max_k_cover(n_elements: int, subsets: Sequence[Iterable[int]], k: int,
                    element_profits: Optional[Sequence[int]] = None,
                    set_weights: Optional[Sequence[int]] = None) -> Instance:
    """Bipartite 1-neighbour instance encoding max k-cover.

    Element vertices (ids 0..n_elements-1) carry profit 1 and weight 0; set
    vertices carry profit 0 and weight 1; edges join elements to the sets
    containing them; the budget is ``k``.  Covering ``r`` elements with at
    most ``k`` sets is exactly collecting profit ``r``.  The budgeted-
    coverage generalization passes element profits and set costs through.
    """
    if not subsets:
        raise ValidationError("at least one covering set is required")
    if n_elements < 0:
        raise ValidationError("n_elements must be non-negative")
    n_sets = len(subsets)
    if element_profits is None:
        element_profits = [1] * n_elements
    if set_weights is None:
        set_weights = [1] * n_sets
    if len(element_profits) != n_elements or len(set_weights) != n_sets:
        raise ValidationError("profit/weight overrides must match the set system")
    edges = []
    for j, subset in enumerate(subsets):
        for s in sorted(set(subset)):
            if not 0 <= s < n_elements:
                raise ValidationError(f"set {j} names invalid element {s}")
            edges.append((s, n_elements + j))
    weights = [0] * n_elements + list(set_weights)
    profits = list(element_profits) + [0] * n_sets
    prov = f"gen_max_k_cover n_elements={n_elements} n_sets={n_sets} k={k}"
    return Instance(False, n_elements + n_sets, edges, weights, profits, k,
                    provenance=prov)


def gen_set_cover_cycles(n_elements: int, subsets: Sequence[Iterable[int]],
                         t: int) -> Instance:
    """Directed uniform 1-neighbour instance encoding set cover.

    Each covering set becomes a directed cycle of M = n_elements + 1 unit
    vertices with a marked entry vertex; each element vertex points at the
    entry of every set containing it; the budget is t*M + n_elements.  A
    cover of size <= t exists exactly when the optimum fills the budget.
    """
    if not subsets:
        raise ValidationError("at least one covering set is required")
    if t < 1:
        raise ValidationError("t must be at least 1")
    if n_elements < 0:
        raise ValidationError("n_elements must be non-negative")
    m_cycle = n_elements + 1
    n_sets = len(subsets)
    edges = []
    for j in range(n_sets):
        base = j * m_cycle
        for step in range(m_cycle):
            edges.append((base + step, base + (step + 1) % m_cycle))
    element_base = n_sets * m_cycle
    for j, subset in enumerate(subsets):
        entry = j * m_cycle
        for s in sorted(set(subset)):
            if not 0 <= s < n_elements:
                raise ValidationError(f"set {j} names invalid element {s}")
            edges.append((element_base + s, entry))
    n = element_base + n_elements
    k = t * m_cycle + n_elements
    prov = f"gen_set_cover_cycles n_elements={n_elements} n_sets={n_sets} t={t}"
    return Instance(True, n, edges, [1] * n, [1] * n, k, provenance=prov)


def gen_network_budget(n_vertices: int, topology: Sequence[tuple[int, int]],
                       sink: int, edge_costs: Sequence[int],
                       customer_profits: Mapping[int, int], k: int) -> Instance:
    """Edge-activation network instance as a 1-neighbour knapsack.

    Every topology edge gets a mid-edge vertex carrying the activation cost
    (zero profit); original vertices are weightless, customers carry their
    profit, and the sink is a plain zero/zero vertex.  Selecting a customer
    then forces selecting activated structure next to it.  Each topology edge
    must join two distinct vertices of ``0..n_vertices-1``.
    """
    if not 0 <= sink < n_vertices:
        raise ValidationError("sink must be a topology vertex")
    if len(edge_costs) != len(topology):
        raise ValidationError("edge_costs must align with the topology edges")
    profits = [0] * n_vertices
    for v, p in customer_profits.items():
        if not 0 <= v < n_vertices:
            raise ValidationError(f"customer {v} is not a topology vertex")
        if v == sink:
            raise ValidationError("the sink cannot be a customer")
        if p < 0:
            raise ValidationError("customer profits must be non-negative")
        profits[v] = p
    weights = [0] * n_vertices
    edges = []
    for j, (u, v) in enumerate(topology):
        if not 0 <= u < n_vertices or not 0 <= v < n_vertices or u == v:
            raise ValidationError(f"topology edge ({u}, {v}) needs two distinct topology vertices")
        if edge_costs[j] < 0:
            raise ValidationError("edge costs must be non-negative")
        mid = n_vertices + j
        weights.append(edge_costs[j])
        profits.append(0)
        edges.append((min(u, mid), max(u, mid)))
        edges.append((min(v, mid), max(v, mid)))
    prov = (f"gen_network_budget n={n_vertices} m={len(topology)} sink={sink} "
            f"k={k}")
    return Instance(False, n_vertices + len(topology), edges, weights, profits,
                    k, provenance=prov)
