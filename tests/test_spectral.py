"""Lyapunov certificate solver against an independent vectorized oracle."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consensus_net import spectral
from consensus_net.errors import ConsensusNetError, DegenerateSpectrumError, ValidationError
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net.scenario import builtin_scenario
from consensus_net.spectral import _KRON_MAX_N, _shifted_schur, solve_P, spectral_norm

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
        assert cert.residual < 1e-8 * max(1.0, spectral_norm(Q))
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
    assert default_cert.lambda_P == pytest.approx(spectral_norm(default_cert.P), rel=1e-12)
    assert default_cert.lambda_L == pytest.approx(spectral_norm(default_lap.L), rel=1e-12)


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


def test_spectral_norm_examples():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    # M^T M of [[0,0],[-1,1]] has eigenvalues {2, 0}
    assert spectral_norm(np.array([[0.0, 0.0], [-1.0, 1.0]])) == pytest.approx(
        np.sqrt(2.0), abs=1e-10)
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)


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
    bound = 4 * n * np.finfo(float).eps * spectral_norm(L_shift) * kappa
    assert abs(-np.diag(r).max() - np.linalg.eigvals(L_shift).real.min()) <= bound
    cert = solve_P(lap, alpha=alpha)
    assert cert.residual < 1e-8
    assert np.linalg.eigvalsh(cert.P)[0] > 0
    assert cert.lambda_P == pytest.approx(spectral_norm(cert.P), rel=1e-12)


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
