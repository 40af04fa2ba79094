"""Lyapunov certificate solver against an independent vectorized oracle."""

import contextlib
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consensus_net import gains, graph, sparsity, spectral
from consensus_net.errors import ConsensusNetError, DegenerateSpectrumError, ValidationError
from consensus_net.gains import MatchedGains, UnmatchedGains
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net.scenario import builtin_scenario
from consensus_net.spectral import (
    _KRON_MAX_N,
    _TRSYL_BLOCK,
    _lyapunov_blocked,
    _shifted_schur,
    solve_P,
)

from conftest import GRAPH_FAMILIES, random_family_graph, random_tree_graph


def kron_solve_P(L, v, Q, alpha):
    """Oracle: solve the certificate equation as one dense linear system in
    vec(P).  Independent of the Schur route that solve_P takes above
    _KRON_MAX_N agents; at or below it solve_P runs this same algorithm, so
    there the Schur route is its oracle (test_small_path_matches_schur_path)."""
    n = L.shape[0]
    L_shift = L + alpha * np.outer(np.ones(n), v)
    A = np.kron(L_shift.T, np.eye(n)) + np.kron(np.eye(n), L_shift.T)
    p = np.linalg.solve(A, Q.reshape(-1))
    return p.reshape(n, n)


def full_shifted_schur(L, v, alpha):
    """Oracle: the real Schur form of all of -Lbar^T, from one factorisation
    that ignores the graph's structure."""
    L_shift = L + alpha * np.outer(np.ones(L.shape[0]), v)
    return scipy.linalg.schur(-L_shift.T, output="real")


def test_scalar_case():
    lap = build_laplacian(DirectedGraph(np.zeros((1, 1))))
    cert = solve_P(lap, Q=np.eye(1), alpha=1.0)
    # the equation collapses to 0 = Q - 2*alpha*P
    assert cert.P[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_two_node_chain_hand_solution():
    g = DirectedGraph(np.array([[0.0, 0.0], [1.0, 0.0]]))
    lap = build_laplacian(g)
    cert = solve_P(lap, Q=np.eye(2), alpha=1.0)
    # shifted matrix is the identity, so P = Q/2
    assert np.allclose(cert.P, np.eye(2) / 2, atol=1e-12)
    # original-form identity: P L + L^T P == Q - [P 1 v^T + v 1^T P]
    lhs = cert.P @ lap.L + lap.L.T @ cert.P
    assert np.allclose(lhs, np.array([[0.0, -0.5], [-0.5, 1.0]]), atol=1e-12)
    ones = np.ones(2)
    rhs = np.eye(2) - (np.outer(cert.P @ ones, lap.v_left) + np.outer(lap.v_left, cert.P @ ones))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_default_graph_certificate(default_lap, default_cert):
    cert = default_cert
    assert cert.residual < 1e-8
    assert cert.min_eig_P > 0
    assert np.abs(cert.P - cert.P.T).max() < 1e-12
    P_oracle = kron_solve_P(default_lap.L, default_lap.v_left, np.eye(5), 1.0)
    assert np.abs(cert.P - P_oracle).max() < 1e-8


def test_random_graphs_residual_and_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        g = random_tree_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        lap = build_laplacian(g)
        Q = np.eye(n)
        cert = solve_P(lap, Q=Q, alpha=1.0)
        assert cert.residual < 1e-8 * max(1.0, np.linalg.norm(Q, 2))
        assert cert.min_eig_P > 0
        P_oracle = kron_solve_P(lap.L, lap.v_left, Q, 1.0)
        assert np.abs(cert.P - P_oracle).max() < 1e-8
    # graphs that take the Schur route, where the oracle is independent
    for _ in range(10):
        n = int(rng.integers(_KRON_MAX_N + 1, _KRON_MAX_N + 9))
        lap = build_laplacian(random_tree_graph(rng, n, extra_edges=int(rng.integers(0, n))))
        cert = solve_P(lap, alpha=1.0)
        assert cert.residual < 1e-8
        assert cert.min_eig_P > 0
        P_oracle = kron_solve_P(lap.L, lap.v_left, np.eye(n), 1.0)
        assert np.abs(cert.P - P_oracle).max() < 1e-8


def test_scaling_linearity(default_lap):
    c = 3.7
    base = solve_P(default_lap, Q=np.eye(5), alpha=1.0)
    scaled = solve_P(default_lap, Q=c * np.eye(5), alpha=1.0)
    assert np.abs(scaled.P - c * base.P).max() < 1e-10 * c


def test_lambda_bounds_tight(default_lap, default_cert):
    assert default_cert.lambda_P == pytest.approx(np.linalg.norm(default_cert.P, 2), rel=1e-12)
    assert default_cert.lambda_L == pytest.approx(np.linalg.norm(default_lap.L, 2), rel=1e-12)


def test_alpha_variation(default_lap):
    # any positive alpha must produce a valid certificate
    for alpha in (0.1, 1.0, 10.0):
        cert = solve_P(default_lap, alpha=alpha)
        assert cert.residual < 1e-8
        assert cert.min_eig_P > 0


def test_rejects_bad_inputs(default_lap):
    with pytest.raises(ValidationError, match="alpha"):
        solve_P(default_lap, alpha=0.0)
    with pytest.raises(ValidationError, match="symmetric"):
        solve_P(default_lap, Q=np.triu(np.ones((5, 5))))
    with pytest.raises(ValidationError, match="positive definite"):
        solve_P(default_lap, Q=-np.eye(5))
    no_tree = build_laplacian(DirectedGraph(np.zeros((2, 2))))
    with pytest.raises(ValidationError, match="spanning tree"):
        solve_P(no_tree)
    # the shifted spectrum is the nonzero spectrum of L plus alpha
    with pytest.raises(DegenerateSpectrumError, match="real part 1.0+e-10"):
        solve_P(default_lap, alpha=1e-10)
    for Q in (np.ones(4), np.ones(6), np.ones((5, 6)), np.ones((5, 5, 1)), np.float64(1.0)):
        with pytest.raises(ValidationError, match="Q: expected shape"):
            solve_P(default_lap, Q=Q)
    with pytest.raises(ValidationError, match="positive definite"):
        solve_P(default_lap, Q=np.array([1.0, 2.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize("case", ["paper-matched", "tree-600", "two-parents-40"])
def test_vector_Q_is_its_diagonal_matrix(case):
    """A 1-D Q stands for the diagonal matrix with those entries: the same P,
    bit for bit, and the same scalars, on the Kronecker route (the builtin
    graph), the tree route (600 agents, a CSR P) and the Schur route."""
    rng = np.random.default_rng(19)
    graph_ = {"paper-matched": lambda: builtin_scenario("paper-matched").graph,
              "tree-600": lambda: _shuffled_tree(rng, 600, "random")[0],
              "two-parents-40": lambda: _two_parent_tree(rng, 40)}[case]()
    lap = build_laplacian(graph_)
    q = rng.uniform(0.5, 2.0, size=lap.n_agents)
    from_vector, from_matrix = solve_P(lap, Q=q, alpha=0.7), solve_P(lap, Q=np.diag(q), alpha=0.7)
    assert isinstance(from_vector.P, np.ndarray) == (case != "tree-600")
    P_v, P_m = from_vector.P, from_matrix.P
    if case == "tree-600":
        assert np.array_equal(P_v.indptr, P_m.indptr) and np.array_equal(P_v.indices, P_m.indices)
        P_v, P_m = P_v.data, P_m.data
    assert np.array_equal(P_v.view(np.int64), P_m.view(np.int64))
    assert from_vector.scalars_json() == from_matrix.scalars_json()


def test_spectral_norm_examples():
    assert graph._spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    # M^T M of [[0,0],[-1,1]] has eigenvalues {2, 0}
    assert graph._spectral_norm(np.array([[0.0, 0.0], [-1.0, 1.0]])) == pytest.approx(
        np.sqrt(2.0), abs=1e-10)
    assert graph._spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)


@given(st.sampled_from(GRAPH_FAMILIES), st.integers(min_value=2, max_value=60),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from((0.1, 1.0, 10.0)))
@settings(max_examples=80, deadline=None)
# lambda_min = 0.62087... has condition number 6.8e5 here: the two
# computations differ by 1.2e-10
@example(family="tree", n=17, seed=789, alpha=1.0)
def test_certificate_property(family, n, seed, alpha):
    """The Schur factorisation that solve_P shares, above _KRON_MAX_N agents,
    between the shifted-spectrum check and the solve reports the spectrum
    eigvals reports, and the certificate solve_P yields meets the residual
    bound and is positive definite."""
    lap = build_laplacian(random_family_graph(np.random.default_rng(seed), n, family))
    if not lap.has_spanning_tree:
        with pytest.raises(ValidationError, match="spanning tree"):
            solve_P(lap, alpha=alpha)
        return
    r, _ = _shifted_schur(lap.L, lap.v_left, alpha)
    L_shift = lap.L + alpha * np.outer(np.ones(n), lap.v_left)
    # both values are exact for matrices within a small multiple of
    # n eps ||L_shift|| of L_shift, so they may differ by that times the
    # condition number kappa of the eigenvalue (1 / |y^H x| for unit left
    # and right eigenvectors y, x)
    w, left, right = scipy.linalg.eig(L_shift, left=True, right=True)
    i = np.argmin(w.real)
    y, x = left[:, i], right[:, i]
    kappa = np.linalg.norm(y) * np.linalg.norm(x) / abs(y.conj() @ x)
    bound = 4 * n * np.finfo(float).eps * np.linalg.norm(L_shift, 2) * kappa
    assert abs(-np.diag(r).max() - np.linalg.eigvals(L_shift).real.min()) <= bound
    cert = solve_P(lap, alpha=alpha)
    assert cert.residual < 1e-8
    assert np.linalg.eigvalsh(cert.P)[0] > 0
    assert cert.lambda_P == pytest.approx(np.linalg.norm(cert.P, 2), rel=1e-12)


def _solve_on_path(lap, alpha, schur, Q=None):
    """solve_P on the Kronecker path, or with the threshold at 0 on the Schur
    path; a rejected input yields its error."""
    with pytest.MonkeyPatch.context() as mp:
        if schur:
            mp.setattr(spectral, "_KRON_MAX_N", 0)
        try:
            return solve_P(lap, Q=Q, alpha=alpha)
        except ConsensusNetError as exc:
            return exc


@given(st.sampled_from(GRAPH_FAMILIES), st.integers(min_value=2, max_value=_KRON_MAX_N),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from((0.1, 1.0, 10.0)))
@settings(max_examples=80, deadline=None)
def test_small_path_matches_schur_path(family, n, seed, alpha):
    """Up to the threshold solve_P solves the Kronecker system; the Schur route
    that larger graphs take must give the same certificate, shifted spectrum
    and errors."""
    lap = build_laplacian(random_family_graph(np.random.default_rng(seed), n, family))
    kron = _solve_on_path(lap, alpha, schur=False)
    schur = _solve_on_path(lap, alpha, schur=True)
    if not lap.has_spanning_tree:
        assert type(kron) is type(schur) is ValidationError
        return
    assert np.abs(kron.P - schur.P).max() <= 1e-12 * np.abs(schur.P).max()
    # the shifted minimum each path read, as its error reports it (the Schur
    # diagonal against eigvals at any alpha is test_certificate_property's)
    tiny = [_solve_on_path(lap, 1e-10, schur) for schur in (False, True)]
    assert [type(exc) for exc in tiny] == [DegenerateSpectrumError] * 2
    shift_kron, shift_schur = (float(re.search(r"real part (\S+);", str(exc)).group(1))
                               for exc in tiny)
    assert abs(shift_kron - shift_schur) <= 1e-12


@pytest.mark.parametrize("name", ["paper-matched", "paper-unmatched"])
def test_builtin_certificate_identical_on_both_paths(name):
    sc = builtin_scenario(name)
    lap = build_laplacian(sc.graph)
    Q = sc.q_scale * np.eye(sc.n_agents)
    assert sc.n_agents <= _KRON_MAX_N
    kron, schur = (_solve_on_path(lap, sc.alpha, schur, Q) for schur in (False, True))
    assert np.array_equal(kron.P, schur.P)


def _schur_form(rng, n, on_midpoints):
    """A random real Schur form of order ``n`` with eigenvalues of real part
    in [-3, -0.5]: about 40 % of its rows in standardised 2x2 blocks (equal
    diagonal entries, off-diagonal entries of opposite signs).  With
    ``on_midpoints`` a 2x2 block straddles the middle row of every diagonal
    block of more than _TRSYL_BLOCK rows that halving at the middle, moved
    one row down past such a block, produces; ``moved`` holds the order and
    split row of each such diagonal block."""
    starts, moved = set(), set()

    def straddle(lo, hi):
        if hi - lo > _TRSYL_BLOCK:
            mid = lo + (hi - lo) // 2
            starts.add(mid - 1)
            moved.add((hi - lo, mid + 1 - lo))
            straddle(lo, mid + 1)
            straddle(mid + 1, hi)

    if on_midpoints:
        straddle(0, n)
    r = np.triu(rng.normal(size=(n, n)) / np.sqrt(n), 1)
    i = 0
    while i < n:
        if i in starts or (i + 1 < n and i + 1 not in starts and rng.random() < 0.25):
            r[i, i] = r[i + 1, i + 1] = -rng.uniform(0.5, 3.0)
            r[i, i + 1] = rng.uniform(0.2, 2.0)
            r[i + 1, i] = -rng.uniform(0.2, 2.0)
            i += 2
        else:
            r[i, i] = -rng.uniform(0.5, 3.0)
            i += 1
    return r, moved


@given(st.integers(min_value=_TRSYL_BLOCK + 1, max_value=300),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
@example(n=300, seed=5, on_midpoints=True)
def test_blocked_lyapunov_matches_one_dtrsyl(n, seed, on_midpoints):
    """The recursive blocked solve of r Y + Y r^T = f agrees with one dtrsyl
    call on the whole matrix, and never splits a 2x2 block."""
    rng = np.random.default_rng(seed)
    r, moved = _schur_form(rng, n, on_midpoints)
    assert np.any(np.diag(r, -1) != 0.0)
    g = rng.normal(size=(n, n))
    f = -(g @ g.T + np.eye(n))
    y_whole, scale, info = scipy.linalg.lapack.dtrsyl(r, r, f, tranb="T")
    assert (scale, info) == (1.0, 0)
    split, splits = spectral._split, set()

    def recording_split(t):
        k = split(t)
        assert t[k, k - 1] == 0.0, "split inside a 2x2 block"
        splits.add((t.shape[0], k))
        return k

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_split", recording_split)
        y = _lyapunov_blocked(r, f)
    assert np.abs(y - y_whole).max() <= 1e-12 * np.abs(y_whole).max()
    assert splits
    if on_midpoints:
        # every split was moved one row down, past the block on the middle
        assert splits == moved


def _whole_dtrsyl_P(lap, alpha=1.0):
    """solve_P with one dtrsyl call for the whole Schur factor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_TRSYL_BLOCK", lap.n_agents)
        return solve_P(lap, alpha=alpha).P


def _two_parent_tree(rng, n):
    """A random tree on ``n`` agents rooted at agent 0 in which one agent of
    depth two or more also listens to the root: acyclic, so its shifted
    Laplacian balances to triangular form, but no tree, so solve_P takes
    the Schur route."""
    w = random_tree_graph(rng, n).weights.copy()
    parent = w.argmax(axis=1)
    j = int(np.flatnonzero(parent[1:] != 0)[0]) + 1
    w[j, 0] = 1.0
    return DirectedGraph(w)


def test_blocked_solve_on_600_agent_tree():
    """A 600-agent tree, the order of the large-graph benchmark, with one
    agent given a second parent so that solve_P takes the Schur route: the
    blocked solve's certificate agrees with the one-call certificate and
    passes the residual gate."""
    lap = build_laplacian(_two_parent_tree(np.random.default_rng(600), 600))
    cert = solve_P(lap)
    P_whole = _whole_dtrsyl_P(lap)
    assert np.abs(cert.P - P_whole).max() <= 1e-13 * np.abs(P_whole).max()
    assert cert.residual < spectral._RESIDUAL_TOL
    assert cert.min_eig_P > 0


@pytest.mark.parametrize("scale, info", [(0.5, 0), (1.0, 1)], ids=["rescaled", "perturbed"])
def test_blocked_solve_falls_back_to_one_dtrsyl(scale, info):
    """When a dtrsyl call of the blocked solve rescales its solution or
    reports an info code, the whole factor is solved by one dtrsyl call, which
    gives today's single-call certificate bit for bit."""
    n = 100
    lap = build_laplacian(random_tree_graph(np.random.default_rng(7), n, extra_edges=n))
    real = scipy.linalg.lapack.dtrsyl
    orders = []

    def flagging_dtrsyl(a, b, c, **kwargs):
        orders.append(a.shape[0])
        x, one, zero = real(a, b, c, **kwargs)
        if a.shape[0] < n:
            return x * scale, scale, info
        return x, one, zero

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg.lapack, "dtrsyl", flagging_dtrsyl)
        P = solve_P(lap).P
    assert orders[0] < n and orders[-1] == n and orders.count(n) == 1
    assert np.array_equal(P, _whole_dtrsyl_P(lap))


@given(st.sampled_from(("tree", "cyclic-root")),
       st.integers(min_value=_KRON_MAX_N + 1, max_value=250),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
# strongly connected: nothing to permute, so the full factorisation
@example(family="cyclic-root", n=13, seed=5)
def test_balanced_schur_matches_full_schur(family, n, seed):
    """The Schur form factorised on the irreducible core alone is a real
    Schur form of -Lbar^T, and the certificate from it agrees with the one
    from the full factorisation."""
    lap = build_laplacian(random_family_graph(np.random.default_rng(seed), n, family))
    a = -(lap.L + np.outer(np.ones(n), lap.v_left)).T
    r, u = _shifted_schur(lap.L, lap.v_left, 1.0)
    assert not np.any(np.tril(r, -2))
    sub = np.flatnonzero(np.diag(r, -1))
    assert not np.any(np.diff(sub) == 1), "overlapping 2x2 blocks"
    for k in sub:
        assert r[k, k] == r[k + 1, k + 1] and r[k, k + 1] * r[k + 1, k] < 0
    # backward stable to a small multiple of n eps: on 300 graphs of 13-39
    # agents both errors stayed below 2 n eps
    tol = 8 * n * np.finfo(float).eps
    assert np.abs(u.T @ u - np.eye(n)).max() <= tol
    assert np.abs(u @ r @ u.T - a).max() <= tol * np.abs(a).max()
    # solved from each form directly, as solve_P takes the tree regime on a
    # large enough tree
    r_full, u_full = full_shifted_schur(lap.L, lap.v_left, 1.0)
    P = spectral._lyapunov_from_schur(r, u, -np.eye(n))
    P_full = spectral._lyapunov_from_schur(r_full, u_full, -np.eye(n))
    assert np.abs(P - P_full).max() <= 1e-12 * np.abs(P_full).max()
    if np.all(lap.v_left > 0):
        assert np.array_equal(r, r_full) and np.array_equal(u, u_full)


def test_tree_certificate_needs_no_schur_factorisation():
    """Below the sparse rule a spanning tree takes the Schur route, and its
    shifted Laplacian permutes to triangular form, so solve_P factorises
    nothing."""
    n = 3 * _KRON_MAX_N
    lap = build_laplacian(random_tree_graph(np.random.default_rng(36), n))

    def no_schur(*args, **kwargs):
        raise AssertionError("scipy.linalg.schur called on a tree")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "schur", no_schur)
        cert = solve_P(lap)
    assert cert.residual < spectral._RESIDUAL_TOL
    assert cert.min_eig_P > 0


def _two_cycle_root_tree(rng, n):
    """A random tree on ``n`` agents whose root is the 2-cycle of agents 0
    and 1, labels shuffled."""
    w = np.zeros((n, n))
    w[0, 1], w[1, 0] = rng.uniform(0.5, 2.0, 2)
    for i in range(2, n):
        w[i, int(rng.integers(0, i))] = rng.uniform(0.5, 2.0)
    perm = rng.permutation(n)
    return DirectedGraph(w[np.ix_(perm, perm)])


def test_two_cycle_root_gives_sparse_schur_factor():
    """Above SPARSE_MIN_N agents a tree with a 2-cycle root balances to a
    two-row core, and u is the permutation plus the core's 2x2 orthogonal
    block, stored sparse; the certificate agrees with the dense-u solve."""
    n = sparsity.SPARSE_MIN_N + 40
    lap = build_laplacian(_two_cycle_root_tree(np.random.default_rng(21), n))
    r, u = _shifted_schur(lap.L, lap.v_left, 1.0)
    assert scipy.sparse.issparse(u) and u.nnz == n + 2
    a = -(lap.L + np.outer(np.ones(n), lap.v_left)).T
    assert np.abs(u @ r @ u.T - a).max() <= 8 * n * np.finfo(float).eps * np.abs(a).max()

    def dense_u(*args):
        r, u = _shifted_schur(*args)
        return r, u.toarray()

    P = solve_P(lap).P
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_shifted_schur", dense_u)
        P_dense_u = solve_P(lap).P
    assert np.abs(P - P_dense_u).max() <= 1e-12 * np.abs(P_dense_u).max()


def _shuffled_tree(rng, n, shape):
    """A tree on ``n`` agents, weights from U(0.5, 2), labels shuffled: a
    random recursive tree, a path (depth n - 1) or a star (depth 1).
    Returns the graph and each agent's parent, the root its own."""
    w = np.zeros((n, n))
    for i in range(1, n):
        parent = int(rng.integers(0, i)) if shape == "random" else (i - 1 if shape == "path" else 0)
        w[i, parent] = rng.uniform(0.5, 2.0)
    perm = rng.permutation(n)
    w = w[np.ix_(perm, perm)]
    parent = w.argmax(axis=1)
    root = int(np.flatnonzero(w.max(axis=1) == 0)[0])
    parent[root] = root
    return DirectedGraph(w), parent


def _ancestor_pairs(parent):
    """Mask of the pairs (a, j) and (j, a) with a equal to j or an ancestor."""
    n = parent.size
    mask = np.zeros((n, n), dtype=bool)
    anc = np.arange(n)
    for _ in range(n):
        mask[anc, np.arange(n)] = True
        anc = parent[anc]
    return mask | mask.T


@given(st.sampled_from(("random", "path", "star")),
       st.integers(min_value=_KRON_MAX_N + 1, max_value=250),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from((0.1, 1.0, 10.0)))
@settings(max_examples=40, deadline=None)
@example(shape="path", n=250, seed=1, alpha=0.1)
@example(shape="star", n=250, seed=2, alpha=10.0)
def test_tree_solve_matches_schur_route(shape, n, seed, alpha):
    """The tree solver, called directly on a CSR L whatever the fill rule
    says, agrees within 1e-12 relative with the Schur route on a random
    positive diagonal Q, and its CSR P stores exactly the
    ancestor-descendant pairs, all nonzero."""
    rng = np.random.default_rng(seed)
    g, parent = _shuffled_tree(rng, n, shape)
    lap = build_laplacian(g)
    L = sparsity.dense(lap.L)
    q = rng.uniform(0.5, 2.0, n)
    tree = spectral._spanning_tree(scipy.sparse.csr_array(L), lap.v_left)
    assert np.array_equal(tree.parent, parent)
    P_csr = spectral._tree_lyapunov(tree, alpha, q)
    P = P_csr.toarray()
    P_schur = spectral._lyapunov_from_schur(*_shifted_schur(L, lap.v_left, alpha), -np.diag(q))
    P_schur = (P_schur + P_schur.T) / 2.0
    assert np.abs(P - P_schur).max() <= 1e-12 * np.abs(P_schur).max()
    assert np.array_equal(P != 0, _ancestor_pairs(parent))
    assert P_csr.nnz == np.count_nonzero(P)


def test_tree_certificate_skips_dgebal_and_dtrsyl():
    """A 600-agent random tree, the order of the large-graph benchmark, takes
    the tree regime: neither LAPACK's balancing nor dtrsyl runs, and the
    certificate passes the gates and agrees with the Schur route."""
    n = 600
    lap = build_laplacian(_shuffled_tree(np.random.default_rng(600), n, "random")[0])

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a tree")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg.lapack, "dgebal", refuse)
        mp.setattr(scipy.linalg.lapack, "dtrsyl", refuse)
        cert = solve_P(lap)
    assert cert.residual < spectral._RESIDUAL_TOL
    assert cert.min_eig_P > 0
    P_schur = spectral._lyapunov_from_schur(*_shifted_schur(lap.L, lap.v_left, 1.0), -np.eye(n))
    assert np.abs(cert.P - P_schur).max() <= 1e-12 * np.abs(P_schur).max()


def _off_tree_case(case):
    """A Laplacian and Q that the tree regime must leave alone."""
    rng = np.random.default_rng(601)
    if case == "two-parents":
        return build_laplacian(_two_parent_tree(rng, 600)), None
    if case == "two-cycle-root":
        return build_laplacian(_two_cycle_root_tree(rng, 600)), None
    if case == "non-diagonal-Q":
        Q = np.eye(600)
        Q[3, 5] = Q[5, 3] = 0.25
        return build_laplacian(_shuffled_tree(rng, 600, "random")[0]), Q
    if case == "path":
        return build_laplacian(_shuffled_tree(rng, 600, "path")[0]), None
    return build_laplacian(_shuffled_tree(rng, _KRON_MAX_N, "random")[0]), None


@pytest.mark.parametrize("case", ["two-parents", "two-cycle-root", "non-diagonal-Q", "path",
                                  "small"])
def test_other_graphs_keep_their_route(case):
    """The tree regime takes only trees with a diagonal Q, a fill under the
    sparse rule and more than _KRON_MAX_N agents: an agent with two parents,
    a 2-cycle root, a non-diagonal Q and a 600-agent path (a dense P) take
    the Schur route, and a small tree the Kronecker system."""
    lap, Q = _off_tree_case(case)
    balanced = []
    real = scipy.linalg.lapack.dgebal

    def no_tree(*args):
        raise AssertionError("tree regime taken")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_tree_lyapunov", no_tree)
        mp.setattr(scipy.linalg.lapack, "dgebal",
                   lambda *args, **kwargs: balanced.append(args[0].shape) or real(*args, **kwargs))
        cert = solve_P(lap, Q=Q)
    n = lap.n_agents
    assert balanced == ([] if case == "small" else [(n, n)])
    assert cert.residual < spectral._RESIDUAL_TOL
    assert cert.min_eig_P > 0


@contextlib.contextmanager
def _regime(regime):
    """Inside the block every set-up layer takes ``regime``: "dense" by
    raising the agent threshold, "sparse" with the default rule.  Yields the
    shapes of the matrices handed to ARPACK, and checks that each solve
    starts from a vector that is not constant: L annihilates the ones
    vector, so ARPACK would find L^T L's start invariant and draw a random
    one."""
    shapes = []
    real = scipy.sparse.linalg.eigsh

    def spy(A, *args, **kwargs):
        shapes.append(A.shape)
        assert np.ptp(kwargs["v0"]) > 0
        return real(A, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.sparse.linalg, "eigsh", spy)
        if regime == "dense":
            mp.setattr(sparsity, "SPARSE_MIN_N", math.inf)
        yield shapes


def _close(a, b):
    return abs(a - b) <= 1e-12 * abs(b)


@given(st.integers(min_value=200, max_value=240), st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=6, deadline=None)
def test_sparse_setup_matches_dense_setup(n, extra, seed):
    """On random trees with extra edges, the sparse regime of build_laplacian
    and solve_P reports the dense regime's facts: the same spanning-tree and
    right-half-plane flags, neighbour lists and root component, spectrum and
    left null vector, the same L, stored as CSR, P within 1e-12 of its
    largest entry (the Schur factor u is sparse in one regime and dense in
    the other), and lambda_L, lambda_P,
    min_eig_P and cond_P within 1e-12 relative; its residual passes the
    gate.  The certificate's P and L are CSR exactly when the sparse rule
    passes on P and L, and dense in the dense regime."""
    g = random_tree_graph(np.random.default_rng(seed), n, extra_edges=extra)
    facts = {}
    for regime in ("sparse", "dense"):
        with _regime(regime) as shapes:
            lap = build_laplacian(g)
            facts[regime] = lap, solve_P(lap), shapes
    (lap, cert, shapes), (lap_d, cert_d, shapes_d) = facts["sparse"], facts["dense"]
    assert shapes_d == [] and (n, n) in shapes
    assert lap.has_spanning_tree and lap_d.has_spanning_tree
    assert (lap.nonzero_eigenvalue_real_parts_positive
            == lap_d.nonzero_eigenvalue_real_parts_positive)
    assert np.array_equal(lap.v_left, lap_d.v_left)
    assert _close(lap.lambda_L, lap_d.lambda_L)
    assert isinstance(lap.L, scipy.sparse.csr_array) and isinstance(lap_d.L, np.ndarray)
    assert np.array_equal(lap.L.toarray(), lap_d.L)
    sparse_P = sparsity.is_sparse(n, np.count_nonzero(sparsity.dense(cert.P))
                                  + np.count_nonzero(lap_d.L))
    for m in (cert.P, cert.L):
        assert isinstance(m, scipy.sparse.csr_array if sparse_P else np.ndarray)
    assert isinstance(cert_d.P, np.ndarray) and isinstance(cert_d.L, np.ndarray)
    # the neighbours read from CSR arrays are the dense scan's, and so is the
    # root component; the spectrum from the components is eigvals' spectrum
    for m, m_d in ((lap.L, lap_d.L), (lap.L.T, lap_d.L.T)):
        assert [sorted(row) for row in graph._neighbours(m)] == graph._neighbours(m_d != 0)
    assert np.array_equal(graph._root_component(lap.L), graph._root_component(lap_d.L != 0))
    blocks = graph._eigenvalues(lap.L)
    full = np.linalg.eigvals(lap_d.L)
    for part in (np.real, np.imag):
        assert np.abs(np.sort(part(blocks)) - np.sort(part(full))).max() <= 1e-8 * lap.lambda_L
    assert (np.abs(sparsity.dense(cert.P) - cert_d.P).max()
            <= 1e-12 * np.abs(cert_d.P).max())
    for name in ("lambda_P", "min_eig_P", "cond_P"):
        assert _close(getattr(cert, name), getattr(cert_d, name)), name
    assert cert.residual < spectral._RESIDUAL_TOL
    assert _close(cert_d.lambda_L, lap_d.lambda_L)


def test_strongly_connected_graph_answers_dense():
    """A strongly connected graph is one component, whose block is all of L,
    and its P is dense, so solve_P takes eigvalsh rather than Lanczos."""
    n = sparsity.SPARSE_MIN_N
    rng = np.random.default_rng(13)
    w = np.zeros((n, n))
    w[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.5, 2.0, n)
    g = DirectedGraph(w)
    counts, blocks, eigvalsh = [], [], []
    real_cc = scipy.sparse.csgraph.connected_components
    real_eigvals, real_eigvalsh = np.linalg.eigvals, np.linalg.eigvalsh

    def spy_cc(*args, **kwargs):
        count, labels = real_cc(*args, **kwargs)
        counts.append(count)
        return count, labels

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.sparse.csgraph, "connected_components", spy_cc)
        mp.setattr(np.linalg, "eigvals", lambda A: blocks.append(A.shape) or real_eigvals(A))
        lap = build_laplacian(g)
        mp.setattr(np.linalg, "eigvalsh", lambda A: eigvalsh.append(A.shape) or real_eigvalsh(A))
        with _regime("sparse") as shapes:
            cert = solve_P(lap)
    assert counts == [1] and blocks == [(n, n)]
    assert np.count_nonzero(cert.P) > sparsity.SPARSE_MAX_FILL * n * n
    assert shapes == [] and eigvalsh == [(n, n)]
    with _regime("dense"):
        lap_d = build_laplacian(g)
        cert_d = solve_P(lap_d)
    assert _close(lap.lambda_L, lap_d.lambda_L)
    assert (cert.lambda_P, cert.min_eig_P) == (cert_d.lambda_P, cert_d.min_eig_P)


def test_indefinite_sparse_P_fails_inertia_check():
    """A sparse P that is not positive definite (here 2x2 blocks [[1, 2],
    [2, 1]], whose diagonal is positive) fails the inertia check of its LU
    factor, so no Lanczos solve runs, and solve_P raises the dense regime's
    error, message and all."""
    n = sparsity.SPARSE_MIN_N
    lap = build_laplacian(random_tree_graph(np.random.default_rng(17), n))
    indefinite = np.eye(n) + 2.0 * np.kron(np.eye(n // 2), [[0.0, 1.0], [1.0, 0.0]])
    verdicts = []
    real_proves = sparsity.proves_positive_definite

    def spy(lu):
        verdicts.append(real_proves(lu))
        return verdicts[-1]

    errors = {}
    for regime in ("sparse", "dense"):
        with _regime(regime) as shapes, pytest.MonkeyPatch.context() as mp:
            # whichever solver the tree takes
            mp.setattr(spectral, "_lyapunov_from_schur", lambda r, u, q: indefinite.copy())
            mp.setattr(spectral, "_tree_lyapunov", lambda tree, alpha, q: indefinite.copy())
            mp.setattr(spectral, "_RESIDUAL_TOL", math.inf)
            mp.setattr(sparsity, "proves_positive_definite", spy)
            with pytest.raises(DegenerateSpectrumError, match="not positive definite") as exc:
                solve_P(lap)
            errors[regime] = str(exc.value)
        assert shapes == []
    assert verdicts == [False]
    assert errors["sparse"] == errors["dense"] == (
        "solution P is not positive definite, min eig = -1.000e+00")


#: gains whose forms the tree-order oracle factorises
_ORDER_MATCHED = MatchedGains(gamma1=6.0, gamma2=17.0, gamma3=4.0, gamma4=25.8)
_ORDER_UNMATCHED = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)


def _sparse_forms(P, L):
    """The matched form, the unmatched form and its Schur test matrix of P
    and L, as CSC arrays, each with the number of its blocks per side."""
    I = scipy.sparse.eye_array(P.shape[0], format="csr")

    def join(blocks):
        return scipy.sparse.block_array(blocks, format="csc")

    M, D = gains._unmatched_forms(_ORDER_UNMATCHED, P, L, I, join)
    return [(gains._matched_form(_ORDER_MATCHED, P, L, I, join), 3), (M, 2), (D.tocsc(), 1)]


@given(st.sampled_from(("random", "path", "star")), st.integers(min_value=200, max_value=800),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
@example(shape="path", n=800, seed=3)
@example(shape="star", n=800, seed=4)
def test_tree_order_factors_match_mmd(shape, n, seed):
    """The deepest-first order of a tree, shuffled labels and all, gives
    P's factor and the three gain forms' factors the MMD route's answers:
    min_eig_P and each form's smallest eigenvalue within 1e-12 relative,
    and the same verdict of ``proves_positive_definite``.  P comes from the
    tree solver whatever the fill rule says, and the forms take the sparse
    regime whatever their fill; a path's P is dense, so its forms are
    factorised up to 400 agents (a path of 800 took 4.7 s)."""
    rng = np.random.default_rng(seed)
    g, _ = _shuffled_tree(rng, n, shape)
    lap = build_laplacian(g)
    tree = spectral._spanning_tree(lap.L, lap.v_left)
    order = tree.deepest_first()
    assert np.all(np.diff(tree.depth[order]) <= 0)
    P = spectral._tree_lyapunov(tree, 1.0, rng.uniform(0.5, 2.0, n))
    assert (sparsity.proves_positive_definite(sparsity.symmetric_lu(P, order))
            == sparsity.proves_positive_definite(sparsity.symmetric_lu(P)))
    (p_min, p_max), (mmd_min, mmd_max) = (spectral._extreme_eigenvalues(P, o) for o in (order, None))
    assert _close(p_min, mmd_min) and p_max == mmd_max
    if shape == "path" and n > 400:
        return

    def dense():
        raise AssertionError("the sparse regime did not answer")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparsity, "SPARSE_MAX_FILL", 1.0)
        for form, blocks in _sparse_forms(P, lap.L):
            tree_min = sparsity.smallest_eigenvalue(form, dense, sparsity.block_order(order, blocks))
            assert _close(tree_min, sparsity.smallest_eigenvalue(form, dense)), blocks


def _splu_orderings(run):
    """The ``permc_spec`` of every sparse LU factor that ``run()`` takes."""
    specs = []
    real = scipy.sparse.linalg.splu

    def spy(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return real(A, permc_spec=permc_spec, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.sparse.linalg, "splu", spy)
        run()
    return specs


def test_tree_order_only_on_the_tree_route():
    """A 600-agent tree's certificate carries its deepest-first order, and
    min_eig_P and every gain form factorise in it; the same tree with one
    agent given a second parent takes the Schur route, its P and forms stay
    sparse, and every factor keeps MMD."""
    for g, spec in ((random_tree_graph(np.random.default_rng(602), 600), "NATURAL"),
                    (_two_parent_tree(np.random.default_rng(602), 600), "MMD_AT_PLUS_A")):
        lap = build_laplacian(g)
        certs = []
        specs = _splu_orderings(lambda: certs.append(solve_P(lap)))
        cert, = certs
        assert isinstance(cert.P, scipy.sparse.csr_array)
        assert (cert.elimination_order is None) == (spec != "NATURAL")
        specs += _splu_orderings(lambda: (gains.certify_matched(_ORDER_MATCHED, cert),
                                          gains.certify_unmatched(_ORDER_UNMATCHED, cert)))
        assert specs == [spec] * 4
