"""Shared fixtures: the default five-agent graph, its certificate, random
spanning-tree graph generation, and expensive session-scoped scenario runs
reused by several acceptance criteria."""

import numpy as np
import pytest

from consensus_net import runner
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net.scenario import builtin_scenario
from consensus_net.spectral import solve_P


@pytest.fixture(scope="session")
def default_graph():
    return builtin_scenario("paper-matched").graph


@pytest.fixture(scope="session")
def default_lap(default_graph):
    return build_laplacian(default_graph)


@pytest.fixture(scope="session")
def default_cert(default_lap):
    return solve_P(default_lap)


def random_tree_graph(rng, n, extra_edges=0, w_lo=0.5, w_hi=2.0):
    """Random weighted digraph containing a spanning tree rooted at agent 0."""
    w = np.zeros((n, n))
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        w[i, parent] = rng.uniform(w_lo, w_hi)
    for _ in range(extra_edges):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i != j:
            w[i, j] = rng.uniform(w_lo, w_hi)
    return DirectedGraph(w)


#: the graph families drawn by ``random_family_graph``
GRAPH_FAMILIES = ("tree", "cyclic-root", "no-tree")


def random_family_graph(rng, n, family, w_lo=0.5, w_hi=2.0):
    """Random weighted digraph on ``n`` >= 2 agents with shuffled labels.

    ``tree``: a spanning tree plus up to n extra edges anywhere.
    ``cyclic-root``: a directed cycle of 2..n agents (the root component)
    from which a tree reaches the other agents, plus up to n extra edges.
    ``no-tree``: two disjoint trees with extra edges inside each, so no agent
    reaches both.
    """
    w = np.zeros((n, n))

    def grow(lo, hi, first_child):
        # every agent in [first_child, hi) hears one earlier agent of [lo, hi)
        for i in range(first_child, hi):
            w[i, int(rng.integers(lo, i))] = rng.uniform(w_lo, w_hi)

    def extra(lo, hi, count):
        for _ in range(count):
            i, j = rng.integers(lo, hi, size=2)
            if i != j:
                w[i, j] = rng.uniform(w_lo, w_hi)

    if family == "tree":
        grow(0, n, 1)
        extra(0, n, int(rng.integers(0, n + 1)))
    elif family == "cyclic-root":
        k = int(rng.integers(2, n + 1))
        for i in range(k):
            w[(i + 1) % k, i] = rng.uniform(w_lo, w_hi)
        grow(0, n, k)
        extra(0, n, int(rng.integers(0, n + 1)))
    elif family == "no-tree":
        m = int(rng.integers(1, n))
        grow(0, m, 1)
        grow(m, n, m + 1)
        extra(0, m, int(rng.integers(0, m + 1)))
        extra(m, n, int(rng.integers(0, n - m + 1)))
    else:
        raise ValueError(f"unknown graph family {family!r}")
    perm = rng.permutation(n)
    return DirectedGraph(w[np.ix_(perm, perm)])


@pytest.fixture(scope="session")
def paper_matched_run(tmp_path_factory):
    """The matched benchmark scenario, run twice for the determinism check."""
    sc = builtin_scenario("paper-matched")
    out1 = tmp_path_factory.mktemp("paper_matched_1")
    out2 = tmp_path_factory.mktemp("paper_matched_2")
    arts1 = runner.run(sc, out1)
    arts2 = runner.run(sc, out2)
    return {"scenario": sc, "arts": arts1, "arts_repeat": arts2}


@pytest.fixture(scope="session")
def paper_unmatched_run(tmp_path_factory):
    """The unmatched benchmark scenario at its default 40 s horizon."""
    sc = builtin_scenario("paper-unmatched")
    out = tmp_path_factory.mktemp("paper_unmatched")
    arts = runner.run(sc, out)
    return {"scenario": sc, "arts": arts}
