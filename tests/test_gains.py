"""Gain certification: every inequality of the stability chain."""

import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_net import gains, sparsity
from consensus_net.errors import InfeasibleGainError, ValidationError
from consensus_net.gains import (
    MatchedGains,
    UnmatchedGains,
    certify_matched,
    certify_unmatched,
    is_S_hurwitz,
    matched_form_matrix,
    suggest_matched,
    unmatched_form_matrices,
)
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net.spectral import solve_P

from conftest import random_family_graph, random_tree_graph

BENCHMARK_MATCHED = MatchedGains(gamma1=6.0, gamma2=17.0, gamma3=4.0, gamma4=25.8,
                             mu=1.0, b=10.0)
BENCHMARK_UNMATCHED = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0,
                                 alpha2=1.0)


@pytest.fixture(scope="module")
def scalar_cert():
    lap = build_laplacian(DirectedGraph(np.zeros((1, 1))))
    return solve_P(lap)


def test_matched_gains_default_substitutions():
    g = MatchedGains.with_substitutions(6.0, 17.0, 4.0, mu=1.0, b=10.0)
    assert g.gamma4 == pytest.approx(25.8, abs=1e-12)
    assert g.rho == 17.0
    assert g.epsilon == 1.0


def test_positivity_validation():
    with pytest.raises(ValidationError):
        MatchedGains(gamma1=0.0, gamma2=1.0, gamma3=1.0, gamma4=1.0)
    with pytest.raises(ValidationError):
        UnmatchedGains(k_x=1.0, k_d=-1.0, k_s=1.0, alpha1=1.0, nu=1.0)


def test_is_S_hurwitz_paper_gains():
    assert is_S_hurwitz(BENCHMARK_MATCHED)
    eigs = np.linalg.eigvals(np.array([[-17.0, -4.0], [25.8, 0.0]]))
    assert np.allclose(sorted(eigs.real), [-8.5, -8.5], atol=1e-12)
    assert np.allclose(sorted(np.abs(eigs.imag)), [5.5632, 5.5632], atol=1e-4)


def test_is_S_hurwitz_marginal_case():
    # gamma2 -> 0 makes the pair purely imaginary: not Hurwitz
    g = MatchedGains(gamma1=6.0, gamma2=1e-300, gamma3=4.0, gamma4=25.8,
                     rho=1.0, epsilon=1.0)
    # trace is negative but vanishing; the helper checks the sign, so build
    # the marginal matrix directly instead
    S = np.array([[0.0, -4.0], [25.8, 0.0]])
    eigs = np.linalg.eigvals(S)
    assert np.abs(eigs.real).max() < 1e-12
    assert not (eigs.real < 0).all()


@given(st.floats(0.01, 1e6), st.floats(0.01, 1e6), st.floats(0.01, 1e6))
@settings(max_examples=100, deadline=None)
def test_is_S_hurwitz_positive_gains_property(g2, g3, g4):
    g = MatchedGains(gamma1=1.0, gamma2=g2, gamma3=g3, gamma4=g4,
                     rho=g2, epsilon=1.0)
    assert is_S_hurwitz(g)
    eigs = np.linalg.eigvals(np.array([[-g.gamma2, -g.gamma3], [g.gamma4, 0.0]]))
    assert eigs.real.max() < 0


def test_certify_matched_paper_gains_on_default_graph(default_cert):
    report = certify_matched(BENCHMARK_MATCHED, default_cert)
    # substitutions hold exactly for the derived gamma4
    assert report.check("gamma4_substitution").passed
    assert report.check("rho_substitution").passed
    assert report.check("epsilon_substitution").passed
    # the benchmark gamma2 = 17 sits far below the sufficient bound on this
    # graph, so overall certification fails while margins stay reported
    c = report.check("gamma2_bound")
    assert c.right == pytest.approx(
        (default_cert.lambda_P + 88.0) / 12.0 + 36.0 * default_cert.lambda_L ** 2, rel=1e-12)
    assert not c.passed
    assert not report.passed
    # b bound holds: 10 >= (4/6) * lambda_P^2
    assert report.check("b_bound").passed


def test_certify_matched_gross_violation(default_cert):
    g = MatchedGains(gamma1=6.0, gamma2=0.01, gamma3=4.0, gamma4=8.81,
                     mu=1.0, b=10.0, rho=0.01, epsilon=1.0)
    report = certify_matched(g, default_cert)
    assert report.check("gamma2_bound").margin < 0


def test_matched_form_scalar_hand_assembly(scalar_cert):
    g = BENCHMARK_MATCHED
    N = matched_form_matrix(g, scalar_cert)
    P = 0.5
    hand = np.array([
        [6.0 * 1.0, -(17.0 - 17.0) * P, 4.0 * 1.0 * P],
        [-(17.0 - 17.0) * P, 2 * (2 * 10 * 17 - 10 * 25.8 + 2 * 1 * 17) - 2 * P * 1.0,
         2 * 1 * 4 + 2 * 10 * 4 + 10 * 17 - 10 * 25.8],
        [4.0 * 1.0 * P, 2 * 1 * 4 + 2 * 10 * 4 + 10 * 17 - 10 * 25.8, 2 * 4.0 * 10],
    ])
    assert np.allclose(N, hand, atol=1e-12)
    report = certify_matched(g, scalar_cert)
    assert report.min_eig_form == pytest.approx(np.linalg.eigvalsh(hand)[0], abs=1e-12)
    # with lambda_L = 0 and lambda_P = 1/2 every condition holds at n = 1
    assert report.passed


def test_suggest_matched_formula_and_certification(default_cert):
    sg = suggest_matched(6.0, 4.0, 1.0, 10.0, default_cert)
    lam_P, lam_L = default_cert.lambda_P, default_cert.lambda_L
    base = 1.05 * ((lam_P + 2 * 4.0 * 11.0) / 12.0 + 3.0 * 12.0 * lam_L ** 2)
    # the 5% value is the starting point; escalation may raise it further,
    # always by powers of 1.25
    ratio = sg.gamma2 / base
    k = round(np.log(ratio) / np.log(1.25))
    assert sg.gamma2 == pytest.approx(base * 1.25 ** k, rel=1e-12)
    assert sg.gamma4 == pytest.approx(2 * 4.0 * 1.1 + sg.gamma2, rel=1e-12)
    assert certify_matched(sg, default_cert).passed


def test_suggest_scalar_bound_collapses(scalar_cert):
    sg = suggest_matched(6.0, 4.0, 1.0, 10.0, scalar_cert)
    assert sg.gamma2 == pytest.approx(
        1.05 * (scalar_cert.lambda_P + 2 * 4.0 * 11.0) / 12.0, rel=1e-12)
    assert certify_matched(sg, scalar_cert).passed


def test_suggest_infeasible_b(default_cert):
    b_min = (4.0 / 6.0) * default_cert.lambda_P ** 2
    with pytest.raises(InfeasibleGainError) as exc_info:
        suggest_matched(6.0, 4.0, 1.0, 0.9 * b_min, default_cert)
    assert exc_info.value.minimal_value == pytest.approx(b_min, rel=1e-12)


def test_suggested_gamma2_starts_at_the_certified_bound(default_cert):
    """suggest_matched's first candidate gamma2 is 1.05 times the right side
    of the gamma2_bound that certify_matched reports for it, and its gamma4
    the substitution certify_matched checks, bit for bit: both read the one
    statement of each."""
    tried = []

    def spy(g, cert):
        tried.append((g, certify_matched(g, cert)))
        return tried[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gains, "certify_matched", spy)
        suggest_matched(6.0, 4.0, 1.0, 10.0, default_cert)
    first, report = tried[0]
    assert first.gamma2 == 1.05 * report.check("gamma2_bound").right
    check = report.check("gamma4_substitution")
    assert first.gamma4 == check.left == check.right


def test_suggest_names_the_inputs_when_gamma2_overflows(default_cert, monkeypatch):
    """A gamma2 bound that overflows, or a gamma2 escalated past the largest
    float while certification keeps failing, raises ValidationError naming
    the four inputs, never the non-finite gamma2 that ``MatchedGains``
    would reject.  Here ``certify_matched`` fails every candidate, and
    gamma1 = 1e305 puts the first within 20 escalations of overflow."""
    with pytest.raises(ValidationError, match=r"gamma2 bound of gamma1 = 1e\+307, gamma3 = 4.0, "
                                              r"mu = 1.0, b = 10.0 is not finite \(inf\)"):
        suggest_matched(1e307, 4.0, 1.0, 10.0, default_cert)
    tried = []

    def never(g, cert):
        tried.append(g.gamma2)
        return replace(certify_matched(BENCHMARK_MATCHED, cert), passed=False)

    monkeypatch.setattr(gains, "certify_matched", never)
    with pytest.raises(ValidationError, match=r"gamma2 overflowed while escalating for "
                                              r"gamma1 = 1e\+305, gamma3 = 4.0, mu = 1.0, b = 10.0"):
        suggest_matched(1e305, 4.0, 1.0, 10.0, default_cert)
    assert 1 < len(tried) < 200 and all(math.isfinite(g) for g in tried)


def test_infeasible_b_reports_the_certified_b_bound(default_cert):
    """InfeasibleGainError's minimal_value is the right side of the b_bound
    that certify_matched reports, bit for bit."""
    b = 0.5 * (4.0 / 6.0) * default_cert.lambda_P ** 2
    with pytest.raises(InfeasibleGainError) as exc_info:
        suggest_matched(6.0, 4.0, 1.0, b, default_cert)
    report = certify_matched(MatchedGains.with_substitutions(6.0, 17.0, 4.0, mu=1.0, b=b),
                             default_cert)
    assert exc_info.value.minimal_value == report.check("b_bound").right


def test_scalar_bounds_not_sufficient_regression(default_cert):
    """The scalar chain (a)-(d) does not imply joint positive definiteness:
    both Schur arguments draw on the same leading block.  This pins the
    known counterexample so the escalation logic stays necessary."""
    lam_P, lam_L = default_cert.lambda_P, default_cert.lambda_L
    gamma2 = 1.05 * ((lam_P + 2 * 4.0 * 11.0) / 12.0 + 3.0 * 12.0 * lam_L ** 2)
    g = MatchedGains.with_substitutions(6.0, gamma2, 4.0, mu=1.0, b=10.0)
    report = certify_matched(g, default_cert)
    for name in ("H_positive", "gamma2_bound", "b_bound",
                 "gamma4_substitution", "rho_substitution", "epsilon_substitution"):
        assert report.check(name).passed
    assert report.min_eig_form < 0


def test_suggested_gains_positive_definite_on_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_tree_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        cert = solve_P(build_laplacian(g))
        gamma1 = rng.uniform(2.0, 8.0)
        gamma3 = rng.uniform(1.0, 5.0)
        mu = rng.uniform(0.5, 2.0)
        b = max(rng.uniform(5.0, 15.0), 1.05 * (gamma3 / gamma1) * cert.lambda_P ** 2)
        sg = suggest_matched(gamma1, gamma3, mu, b, cert)
        report = certify_matched(sg, cert)
        assert report.passed
        assert report.min_eig_form > 0


def test_certify_unmatched_paper_gains_flags_substitution(default_cert):
    report = certify_unmatched(BENCHMARK_UNMATCHED, default_cert)
    sub = report.check("nu_substitution")
    assert not sub.passed
    assert sub.left == 3.0
    assert sub.right == pytest.approx(1.0, abs=1e-12)
    assert not report.passed


def test_certify_unmatched_consistent_variant(default_cert):
    # alpha1 = k_d with nu = 1 and k_d above its bound certifies
    kd_bound = 0.5 * 1.0 * 3.4 * default_cert.lambda_L ** 2 + default_cert.lambda_P
    k_d = 1.05 * kd_bound
    g = UnmatchedGains(k_x=3.4, k_d=k_d, k_s=5.0, alpha1=k_d, nu=1.0, alpha2=1.0)
    report = certify_unmatched(g, default_cert)
    assert report.passed
    assert report.check("schur_psd").left >= -1e-10
    M, D = unmatched_form_matrices(g, default_cert)
    assert np.linalg.eigvalsh((M + M.T) / 2)[0] > 0
    assert np.linalg.eigvalsh((D + D.T) / 2)[0] > -1e-10


def test_unmatched_scalar_schur_boundary(scalar_cert):
    # n = 1: D = 2*(alpha2*k_d - 1/2), positive iff k_d > 1/(2*alpha2)
    for alpha2, k_d, expect in ((1.0, 0.6, True), (1.0, 0.4, False), (2.0, 0.3, True)):
        g = UnmatchedGains(k_x=1.0, k_d=k_d, k_s=1.0, alpha1=k_d, nu=1.0, alpha2=alpha2)
        _, D = unmatched_form_matrices(g, scalar_cert)
        assert (D[0, 0] > 0) == expect
        assert D[0, 0] == pytest.approx(2 * (alpha2 * k_d - 0.5), abs=1e-12)


def test_reports_deterministic(default_cert):
    r1 = certify_matched(BENCHMARK_MATCHED, default_cert)
    r2 = certify_matched(BENCHMARK_MATCHED, default_cert)
    assert r1 == r2
    assert r1.to_json() == r2.to_json()


def test_report_table_renders(default_cert):
    text = certify_matched(BENCHMARK_MATCHED, default_cert).table()
    assert "gamma2_bound" in text
    assert "FAILED" in text


@contextlib.contextmanager
def _eigsh_calls(regime=None):
    """The shapes of the forms given to the sparse solver inside the block;
    ``regime`` "sparse" or "dense" sends every form to that regime."""
    shapes = []
    real = scipy.sparse.linalg.eigsh

    def spy(A, *args, **kwargs):
        shapes.append(A.shape)
        return real(A, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.sparse.linalg, "eigsh", spy)
        if regime == "sparse":
            mp.setattr(sparsity, "SPARSE_MIN_N", 0)
            mp.setattr(sparsity, "SPARSE_MAX_FILL", math.inf)
        elif regime == "dense":
            mp.setattr(sparsity, "SPARSE_MIN_N", math.inf)
        yield shapes


def _random_gains(rng):
    matched = MatchedGains.with_substitutions(*rng.uniform(0.1, 50.0, 3),
                                              mu=rng.uniform(0.1, 5.0), b=rng.uniform(1.0, 50.0))
    unmatched = UnmatchedGains(*rng.uniform(0.1, 50.0, 5), alpha2=rng.uniform(0.1, 5.0))
    return matched, unmatched


@given(st.sampled_from(("tree", "cyclic-root")), st.integers(min_value=13, max_value=300),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_sparse_regime_matches_dense(family, n, seed):
    """Shift-invert Lanczos finds the smallest eigenvalue of every form, the
    dense P of a cyclic root included, within 1e-12 of the form's norm, and
    no form check passes in one regime and fails in the other unless the
    eigenvalue is that close to zero.  Every other check is the same."""
    rng = np.random.default_rng(seed)
    cert = solve_P(build_laplacian(random_family_graph(rng, n, family)))
    matched, unmatched = _random_gains(rng)
    # the forms take the sparse regime from a certificate stored as CSR
    stored = {"sparse": replace(cert, P=scipy.sparse.csr_array(sparsity.dense(cert.P)),
                                L=scipy.sparse.csr_array(sparsity.dense(cert.L))),
              "dense": replace(cert, P=sparsity.dense(cert.P), L=sparsity.dense(cert.L))}
    reports = {}
    for regime in ("sparse", "dense"):
        with _eigsh_calls(regime) as shapes:
            reports[regime] = (certify_matched(matched, stored[regime]),
                               certify_unmatched(unmatched, stored[regime]))
        assert shapes == {"sparse": [(3 * n, 3 * n), (2 * n, 2 * n), (n, n)], "dense": []}[regime]
    sparse, dense = reports["sparse"], reports["dense"]
    assert sparse[0].checks[:-1] == dense[0].checks[:-1]
    assert sparse[1].checks[:-2] == dense[1].checks[:-2]
    forms = [matched_form_matrix(matched, cert), *unmatched_form_matrices(unmatched, cert)]
    for form, k, name in zip(forms, (0, 1, 1), ("form_posdef", "form_posdef", "schur_psd")):
        eigs = np.linalg.eigvalsh((form + form.T) / 2)
        scale = np.abs(eigs).max()
        assert dense[k].check(name).left == eigs[0]
        assert abs(sparse[k].check(name).left - eigs[0]) <= 1e-12 * scale
        if abs(eigs[0]) > 1e-12 * scale:
            assert sparse[k].check(name).passed == dense[k].check(name).passed


def test_large_tree_takes_sparse_regime():
    """Above SPARSE_MIN_N agents a tree's forms are sparse, and each takes
    the shifted solve with its default thresholds."""
    n = 2 * sparsity.SPARSE_MIN_N
    rng = np.random.default_rng(12)
    cert = solve_P(build_laplacian(random_tree_graph(rng, n)))
    matched, unmatched = _random_gains(rng)
    with _eigsh_calls() as shapes:
        report = certify_matched(matched, cert)
        certify_unmatched(unmatched, cert)
    assert shapes == [(3 * n, 3 * n), (2 * n, 2 * n), (n, n)]
    eigs = np.linalg.eigvalsh(matched_form_matrix(matched, cert))
    assert abs(report.min_eig_form - eigs[0]) <= 1e-12 * np.abs(eigs).max()


def test_star_schur_test_matrix_takes_dense_regime():
    """Every child of a star listens to the root, so L L^T, and with it the
    Schur test matrix D, is dense although P and L are not: M takes the
    shifted solve and D the dense eigvalsh."""
    n = 300
    assert n >= sparsity.SPARSE_MIN_N
    rng = np.random.default_rng(5)
    w = np.zeros((n, n))
    w[1:, 0] = rng.uniform(0.5, 2.0, n - 1)
    cert = solve_P(build_laplacian(DirectedGraph(w)))
    g = UnmatchedGains(k_x=3.4, k_d=50.0, k_s=5.0, alpha1=50.0, nu=1.0)
    with _eigsh_calls() as shapes:
        report = certify_unmatched(g, cert)
    assert shapes == [(2 * n, 2 * n)]
    M, D = unmatched_form_matrices(g, cert)
    assert report.check("schur_psd").left == np.linalg.eigvalsh((D + D.T) / 2)[0]
    eigs = np.linalg.eigvalsh(M)
    assert abs(report.check("form_posdef").left - eigs[0]) <= 1e-12 * np.abs(eigs).max()


def test_sparse_failure_falls_back_to_dense():
    """When ARPACK does not converge, each form's smallest eigenvalue is the
    dense eigvalsh's, bit for bit."""
    n = sparsity.SPARSE_MIN_N + 50
    rng = np.random.default_rng(3)
    cert = solve_P(build_laplacian(random_tree_graph(rng, n)))
    matched, unmatched = _random_gains(rng)
    calls = []

    def no_convergence(A, *args, **kwargs):
        calls.append(A.shape)
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((A.shape[0], 0)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        report_m = certify_matched(matched, cert)
        report_u = certify_unmatched(unmatched, cert)
    assert calls == [(3 * n, 3 * n), (2 * n, 2 * n), (n, n)]
    assert report_m.min_eig_form == np.linalg.eigvalsh(matched_form_matrix(matched, cert))[0]
    M, D = unmatched_form_matrices(unmatched, cert)
    assert report_u.check("form_posdef").left == np.linalg.eigvalsh((M + M.T) / 2)[0]
    assert report_u.check("schur_psd").left == np.linalg.eigvalsh((D + D.T) / 2)[0]
