"""Graph and Laplacian construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_net import graph
from consensus_net.errors import DegenerateSpectrumError, ValidationError
from consensus_net.graph import (
    DirectedGraph,
    build_laplacian,
    graph_from_json,
    graph_to_json,
    has_spanning_tree,
    left_eigenvector,
)

from conftest import GRAPH_FAMILIES, random_family_graph, random_tree_graph


def chain_graph(n):
    """Unit-weight chain 1 -> 2 -> ... -> n."""
    w = np.zeros((n, n))
    for i in range(1, n):
        w[i, i - 1] = 1.0
    return DirectedGraph(w)


def cycle_graph(n):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i - 1) % n] = 1.0
    return DirectedGraph(w)


def test_single_edge_laplacian():
    # agent 2 hears agent 1
    g = DirectedGraph(np.array([[0.0, 0.0], [1.0, 0.0]]))
    lap = build_laplacian(g)
    assert np.array_equal(lap.L, np.array([[0.0, 0.0], [-1.0, 1.0]]))


def test_three_cycle_laplacian():
    lap = build_laplacian(cycle_graph(3))
    expected = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(lap.L, expected)


def test_row_sums_zero_random(default_graph):
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        g = random_tree_graph(rng, n, extra_edges=int(rng.integers(0, n + 1)))
        L = build_laplacian(g).L
        assert np.abs(L @ np.ones(n)).max() < 1e-12


def test_validation_negative_weight():
    w = np.zeros((3, 3))
    w[1, 0] = -0.5
    with pytest.raises(ValidationError, match=r"weights\[1,0\]"):
        DirectedGraph(w)


def test_validation_nonzero_diagonal():
    w = np.zeros((2, 2))
    w[1, 1] = 1.0
    with pytest.raises(ValidationError, match=r"weights\[1,1\]"):
        DirectedGraph(w)


def test_spanning_tree_chain_and_isolated():
    assert has_spanning_tree(chain_graph(3))
    assert not has_spanning_tree(DirectedGraph(np.zeros((2, 2))))


def test_spanning_tree_default_graph(default_graph):
    assert has_spanning_tree(default_graph)


def _reachability_closure(adj):
    """Warshall transitive closure; independent of the BFS implementation."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for k in range(n):
        reach = reach | (reach[:, k][:, None] & reach[k, :][None, :])
    return reach


def test_spanning_tree_matches_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        w = (rng.random((n, n)) < 0.25) * rng.uniform(0.5, 2.0, (n, n))
        np.fill_diagonal(w, 0.0)
        g = DirectedGraph(w)
        # transmit direction j -> i when w[i, j] > 0, so reach[j, i] needs w.T
        reach = _reachability_closure(g.weights.T > 0)
        assert has_spanning_tree(g) == bool(reach.all(axis=1).any())


@given(st.sampled_from(GRAPH_FAMILIES), st.integers(min_value=2, max_value=60),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_laplacian_facts_property(family, n, seed):
    """The spanning-tree flag, spectral norm and left null vector that
    ``build_laplacian`` computes once agree with independent oracles."""
    g = random_family_graph(np.random.default_rng(seed), n, family)
    lap = build_laplacian(g)
    reach = _reachability_closure(g.weights.T > 0)
    assert lap.has_spanning_tree == bool(reach.all(axis=1).any()) == (family != "no-tree")
    assert lap.lambda_L == pytest.approx(np.linalg.norm(lap.L, 2), rel=1e-12, abs=0.0)
    if lap.has_spanning_tree:
        assert np.abs(lap.v_left @ lap.L).max() <= 1e-10
        assert lap.nonzero_eigenvalue_real_parts_positive
    else:
        assert lap.v_left is None


def check_components(w):
    """The component labelling of the Laplacian of weights ``w``, read from
    a dense and from a CSR L, against the Warshall closure: the labels are
    the mutual-reachability classes, numbered 0, 1, ... so that every edge
    between classes runs from a smaller label to a larger one; the root
    mask is the agents that reach everyone, or None when there are none;
    and the spectrum taken block by block is ``eigvals`` of all of L."""
    import scipy.sparse

    L = np.diag(w.sum(axis=1)) - w
    reach = _reachability_closure(w.T > 0)
    brute_root = reach.all(axis=1)
    to, fro = np.nonzero(w)
    full, lambda_L = np.linalg.eigvals(L), np.linalg.norm(L, 2)
    for stored in (L, scipy.sparse.csr_array(L)):
        labels, root = graph._components(stored)
        assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))
        assert np.array_equal(labels[:, None] == labels[None, :], reach & reach.T)
        cross = labels[fro] != labels[to]
        assert np.all(labels[fro][cross] < labels[to][cross])
        if brute_root.any():
            assert np.array_equal(root, brute_root)
        else:
            assert root is None
        blocks = graph._eigenvalues(stored, labels)
        for part in (np.real, np.imag):
            assert np.abs(np.sort(part(blocks)) - np.sort(part(full))).max() <= 1e-8 * lambda_L


@given(st.sampled_from(GRAPH_FAMILIES), st.integers(min_value=2, max_value=60),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_components_match_reachability_oracle(family, n, seed):
    check_components(random_family_graph(np.random.default_rng(seed), n, family).weights)


def test_components_of_one_agent():
    check_components(np.zeros((1, 1)))
    labels, root = graph._components(np.zeros((1, 1)))
    assert labels.tolist() == [0] and root.tolist() == [True]


def full_svd_left_null_vector(L):
    """Oracle: the left null vector from the SVD of all of L^T, normalised and
    clamped as ``left_eigenvector`` does; rounding leaves it nonzero off the
    root component."""
    null = np.linalg.svd(L.T)[2][-1]
    v = null / null.sum()
    v = np.where(v < 0, 0.0, v)
    return v / v.sum()


@given(st.sampled_from(("tree", "cyclic-root")), st.integers(min_value=2, max_value=80),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_left_null_vector_zero_off_root_component(family, n, seed):
    """v is exactly zero on every agent that does not reach every agent,
    agrees with the full SVD's null vector, and ``left_eigenvector`` of L
    reproduces ``build_laplacian``'s bit for bit."""
    g = random_family_graph(np.random.default_rng(seed), n, family)
    lap = build_laplacian(g)
    root = _reachability_closure(g.weights.T > 0).all(axis=1)
    assert root.any()
    assert np.all(lap.v_left[~root] == 0.0)
    assert np.abs(lap.v_left - full_svd_left_null_vector(lap.L)).max() <= 1e-12
    assert np.array_equal(left_eigenvector(lap.L), lap.v_left)


def test_graph_json_edges_in_row_major_order():
    g = DirectedGraph(np.array([[0.0, 0.5, 2.0], [0.0, 0.0, 0.0], [1.5, 0.25, 0.0]]))
    assert graph_to_json(g) == {"n": 3, "edges": [
        {"from": 2, "to": 1, "w": 0.5}, {"from": 3, "to": 1, "w": 2.0},
        {"from": 1, "to": 3, "w": 1.5}, {"from": 2, "to": 3, "w": 0.25}]}


def test_left_eigenvector_two_node_chain():
    lap = build_laplacian(chain_graph(2))
    assert np.allclose(lap.v_left, [1.0, 0.0], atol=1e-12)


def test_left_eigenvector_symmetric_two_cycle():
    g = DirectedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    v = left_eigenvector(build_laplacian(g).L)
    assert np.allclose(v, [0.5, 0.5], atol=1e-12)


def test_left_eigenvector_unit_three_cycle():
    v = build_laplacian(cycle_graph(3)).v_left
    assert np.allclose(v, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_left_eigenvector_degenerate():
    # two isolated nodes: zero eigenvalue has multiplicity two
    with pytest.raises(DegenerateSpectrumError):
        left_eigenvector(np.zeros((2, 2)))


def test_left_eigenvector_residual_and_projector():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_tree_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
        lap = build_laplacian(g)
        v = lap.v_left
        assert np.abs(v @ lap.L).max() < 1e-10
        # v annihilates the projector I - 1 v^T
        proj = np.eye(n) - np.outer(np.ones(n), v)
        assert np.abs(v @ proj).max() < 1e-10
        assert v.min() >= 0
        assert abs(v.sum() - 1.0) < 1e-12


def test_spanning_tree_implies_simple_zero_and_rhp():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_tree_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        lap = build_laplacian(g)
        eigs = np.linalg.eigvals(lap.L)
        order = np.argsort(np.abs(eigs))
        assert abs(eigs[order[0]]) < 1e-10
        assert np.abs(eigs[order[1]]) > 1e-8
        assert lap.nonzero_eigenvalue_real_parts_positive
        rest = np.delete(eigs, order[0])
        assert rest.real.min() > 0


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=40, deadline=None)
def test_laplacian_rows_sum_zero_property(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 3.0, (n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(w, 0.0)
    L = build_laplacian(DirectedGraph(w)).L
    assert np.abs(L.sum(axis=1)).max() < 1e-12


def test_graph_json_round_trip(default_graph):
    doc = graph_to_json(default_graph)
    g2 = graph_from_json(doc)
    assert np.array_equal(default_graph.weights, g2.weights)


def test_graph_json_validation_paths():
    with pytest.raises(ValidationError, match="n:"):
        graph_from_json({"edges": []})
    with pytest.raises(ValidationError, match=r"edges\[0\]\.w"):
        graph_from_json({"n": 2, "edges": [{"from": 1, "to": 2, "w": -1.0}]})
    with pytest.raises(ValidationError, match=r"edges\[1\]\.to"):
        graph_from_json({"n": 2, "edges": [{"from": 1, "to": 2, "w": 1.0},
                                           {"from": 1, "to": 5, "w": 1.0}]})


@given(st.sampled_from(GRAPH_FAMILIES), st.integers(min_value=200, max_value=400),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_sparse_laplacian_is_csr_of_dense_laplacian(family, n, seed):
    """In the sparse regime the CSR L, built from the weights' nonzeros,
    stores the entries of ``csr_array`` of the dense L: the same index
    arrays, their type included, and the same bits, also where an agent
    listens to no one and its row holds no diagonal entry."""
    import scipy.sparse

    rng = np.random.default_rng(seed)
    w = random_family_graph(rng, n, family).weights.copy()
    w[rng.integers(0, n)] = 0.0
    L = build_laplacian(DirectedGraph(w)).L
    expected = scipy.sparse.csr_array(np.diag(w.sum(axis=1)) - w)
    assert isinstance(L, scipy.sparse.csr_array)
    for name in ("indptr", "indices"):
        got, want = getattr(L, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(L.data.view(np.int64), expected.data.view(np.int64))
