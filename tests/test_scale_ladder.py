"""A scale ladder pinned by work counts, not by time: solves on inputs large
enough that a super-linear step would show in the count."""

from fractions import Fraction

import pytest

from graphsack import (Instance, gen_random, one_neighbour, star_partition, stars,
                       uniform_directed_1n_ptas, uniform_undirected_1n, validate_star)
from helpers import exact_1n_pops


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_ud1n_grows_a_directed_path_in_linear_heap_pops(monkeypatch, n):
    # On i -> i+1 the sink n - 1 is the only seed, and each later vertex
    # becomes ready only once its successor has joined: a loop of full scans
    # over the ids adds one vertex per scan, n scans of n vertices.
    inst = Instance(True, n, [(i, i + 1) for i in range(n - 1)], [1] * n, [1] * n, n)
    pops = 0
    heappop = one_neighbour.heappop

    def counting(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    monkeypatch.setattr(one_neighbour, "heappop", counting)
    sol = uniform_directed_1n_ptas(inst, n, Fraction(1, 4))
    assert sol.chosen == tuple(range(n))
    assert pops <= n + inst.m


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_ud1n_searches_a_directed_cycle_in_linear_exact_1n_pops(n):
    # eps * k = 9/10 <= 1, so ud1n-ptas is exact_1n.  On i -> i + 1 (mod n) a
    # member whose successor is left out dies two ids later (the doomed
    # mask), so each depth-first path holds one run of consecutive ids, at
    # most k long, and each run node pops two children: about (2k + 1) n.
    k = 9
    inst = Instance(True, n, [(i, (i + 1) % n) for i in range(n)], [1] * n, [1] * n, k)
    sol, pops = exact_1n_pops(lambda: uniform_directed_1n_ptas(inst, k, Fraction(1, 10)))
    assert sol.chosen == () and sol.trace == {"fallback": "exhaustive"}
    assert pops <= (2 * k + 1) * n


def undirected_shape(shape, n):
    """A unit undirected graph on n vertices: sparse random, a path whose ids
    run against its breadth-first order from 0, a star centred on the
    largest id, or n/2 disjoint edges."""
    if shape == "sparse":
        edges = gen_random(n, 2 / n, False, 1, 1, 0, seed=n).edges
    elif shape == "path against ids":
        edges = [(0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)]
    elif shape == "star on the largest id":
        edges = [(i, n - 1) for i in range(n - 1)]
    else:
        edges = [(i, i + 1) for i in range(0, n - 1, 2)]
    return Instance(False, n, edges, [1] * n, [1] * n, n)


SHAPES = ["sparse", "path against ids", "star on the largest id", "disjoint edges"]


def count_walked(monkeypatch, module):
    """Wrap the ``_bfs_layers`` that ``module`` calls; the returned list's one
    entry counts the vertices its walks yield."""
    walked = [0]
    layers = module._bfs_layers

    def counting(nbrs, *sources):
        for layer in layers(nbrs, *sources):
            walked[0] += len(layer)
            yield layer

    monkeypatch.setattr(module, "_bfs_layers", counting)
    return walked


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_star_partition_walks_each_vertex_once(monkeypatch, n, shape):
    inst = undirected_shape(shape, n)
    walked = count_walked(monkeypatch, stars)
    partition = star_partition(inst)
    assert walked[0] <= n
    assert sorted(v for star in partition for v in star.vertices) == list(range(n))
    for star in partition:
        validate_star(inst, star)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_uu1n_walks_at_most_two_components(monkeypatch, n, shape):
    inst = undirected_shape(shape, n)
    walked = count_walked(monkeypatch, one_neighbour)
    for k in (1, 2, 3, n // 2 + 1, n - 1):
        walked[0] = 0
        uniform_undirected_1n(inst, k)
        assert walked[0] <= 2 * n, k
