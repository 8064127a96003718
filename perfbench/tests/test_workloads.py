"""Seeded corpora: same seed, same bytes; another seed, other inputs."""

import pytest

import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_corpus(workload):
    first, second = workloads.build(workload, 7), workloads.build(workload, 7)
    assert first == second
    files, requests = first
    assert all(r.path in files or r.constraint == "bench" for r in requests)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_corpus(workload):
    files, _ = workloads.build(workload, 7)
    other, _ = workloads.build(workload, 8)
    assert files != other
    assert len(files) == len(other)


def test_bench_corpus_shape():
    files, requests = workloads.build("bench-corpus", 3)
    assert len(files) == workloads.BENCH_CORPORA * workloads.BENCH_SIZE
    assert [r.argv[0] for r in requests] == ["bench"] * workloads.BENCH_CORPORA


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_size_mix_is_the_same_for_every_seed(workload):
    def graph_lines(seed):
        return sorted(text.split("graph ", 1)[1].split()[1] for text in
                      workloads.build(workload, seed)[0].values())
    assert graph_lines(1) == graph_lines(2)
