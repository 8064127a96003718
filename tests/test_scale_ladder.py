"""A scale ladder pinned by work counts, not by time: solves on inputs large
enough that a super-linear step would show in the count."""

from fractions import Fraction

import pytest

from graphsack import Instance, one_neighbour, uniform_directed_1n_ptas


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
