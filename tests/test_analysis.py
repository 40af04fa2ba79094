"""Trajectory post-processing: errors, mean field, Lyapunov values, fits,
reduced models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_net import runner
from consensus_net.analysis import (
    MeanField,
    averaged_model_matched,
    averaged_model_unmatched,
    consensus_errors,
    estimation_limits,
    first_settling_time,
    fit_exponential_decay,
    fit_orbit,
    lyapunov_H,
    lyapunov_W,
    mean_field,
    row_blocks,
    sync_deviation_windows,
    trajectory_metrics,
)
from consensus_net.dynamics import (
    DisturbanceProfile,
    MatchedLoop,
    Segment,
    SimState,
    UnmatchedLoop,
    eval_disturbance,
)
from consensus_net.errors import NoOrbitError, SignalFitError, ValidationError
from consensus_net.gains import (
    MatchedGains,
    UnmatchedGains,
    certify_matched,
    matched_form_matrix,
    suggest_matched,
    unmatched_form_matrices,
)
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net.scenario import builtin_scenario
from consensus_net.sim import SimParams, integrate
from consensus_net.spectral import solve_P

from conftest import random_tree_graph

MATCHED = MatchedGains(gamma1=6.0, gamma2=17.0, gamma3=4.0, gamma4=25.8)
UNMATCHED = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)


def test_errors_annihilate_consensus_direction():
    v = np.array([0.4, 0.6])
    state = SimState(x=[3.0, 3.0], y=[1.0, 2.0], delta_hat=[0.0, 0.0])
    errs = consensus_errors(state, v, MATCHED, np.zeros(2))
    assert np.abs(errs.e_x).max() < 1e-14


def test_errors_matched_estimate():
    v = np.array([1.0, 0.0])
    d = np.array([0.8, -0.4])
    state = SimState(x=[0.0, 0.0], y=[0.0, 0.0], delta_hat=d / 4.0)
    errs = consensus_errors(state, v, MATCHED, d)
    assert np.abs(errs.e_d).max() < 1e-14


def test_errors_two_node_projector():
    v = np.array([1.0, 0.0])
    state = SimState(x=[1.0, 3.0], y=[0.0, 0.0], delta_hat=[0.0, 0.0])
    errs = consensus_errors(state, v, MATCHED, np.zeros(2))
    assert np.allclose(errs.e_x, [0.0, 2.0], atol=1e-14)


def test_errors_unmatched_transformations():
    v = np.array([0.5, 0.5])
    d = np.array([0.2, -0.2])
    state = SimState(x=[1.0, -1.0], y=[2.0, 0.0], delta_hat=[0.1, 0.3])
    errs = consensus_errors(state, v, UNMATCHED, d)
    yt = state.y - 5.0 * state.delta_hat
    dtil = 5.0 * state.delta_hat + d
    assert np.allclose(errs.e_y, yt - yt.mean(), atol=1e-14)
    assert np.allclose(errs.e_d, dtil - dtil.mean(), atol=1e-14)


def test_mean_field_values():
    v = np.array([0.5, 0.5])
    state = SimState(x=[4.0, 4.0], y=[1.0, 3.0], delta_hat=[0.0, 0.0])
    mf = mean_field(state, v, MATCHED, np.zeros(2))
    assert mf.x_m == pytest.approx(4.0)
    assert mf.y_m == pytest.approx(2.0)
    v2 = np.array([1.0, 0.0])
    mf2 = mean_field(state, v2, MATCHED, np.zeros(2))
    assert mf2.y_m == pytest.approx(1.0)


def test_lyapunov_H_scalar_example():
    from consensus_net.analysis import ErrorTriple

    g = MatchedGains(gamma1=6.0, gamma2=17.0, gamma3=4.0, gamma4=25.8,
                     mu=1.0, b=10.0, rho=17.0, epsilon=1.0)
    errs = ErrorTriple(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    val = lyapunov_H(errs, g, np.array([[0.5]]))
    assert val == pytest.approx(30.75, abs=1e-12)
    zero = ErrorTriple(np.zeros(1), np.zeros(1), np.zeros(1))
    assert lyapunov_H(zero, g, np.array([[0.5]])) == 0.0
    only_d = ErrorTriple(np.zeros(2), np.zeros(2), np.array([2.0, -1.0]))
    assert lyapunov_H(only_d, g, np.eye(2)) == pytest.approx(0.5 * 10.0 * 5.0, abs=1e-12)


def test_lyapunov_W_scalar_example():
    from consensus_net.analysis import ErrorTriple

    g = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=1.0, alpha2=1.0)
    errs = ErrorTriple(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    assert lyapunov_W(errs, g, np.array([[0.5]])) == pytest.approx(3.125, abs=1e-12)
    only_d = ErrorTriple(np.zeros(2), np.zeros(2), np.array([1.0, 2.0]))
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    w = np.array([1.0, 2.0])
    assert lyapunov_W(only_d, g, P) == pytest.approx(0.5 * w @ P @ w, abs=1e-12)


def test_fit_exponential_decay_exact():
    t = np.linspace(0.0, 3.0, 301)
    assert fit_exponential_decay(t, np.exp(-7.5 * t), (0.5, 2.5)) == pytest.approx(
        7.5, abs=1e-9)
    assert fit_exponential_decay(t, 3.0 * np.exp(-2.0 * t), (0.5, 2.5)) == pytest.approx(
        2.0, abs=1e-9)
    # negative-amplitude signals work the same
    assert fit_exponential_decay(t, -0.5 * np.exp(-1.2 * t), (0.5, 2.5)) == pytest.approx(
        1.2, abs=1e-9)


def test_fit_exponential_decay_zero_crossing():
    t = np.linspace(0.0, 3.0, 301)
    sig = np.exp(-t) * np.sin(5 * t)
    with pytest.raises(SignalFitError, match="shorter window"):
        fit_exponential_decay(t, sig, (0.5, 2.5))


def test_fit_orbit_exact_sinusoid():
    t = np.linspace(0.0, 20.0, 4001)
    w_true = math.sqrt(7.5)
    fit = fit_orbit(t, np.sin(w_true * t), (0.0, 20.0))
    assert fit.angular_frequency == pytest.approx(w_true, abs=1e-6)
    assert fit.amplitude == pytest.approx(1.0, abs=1e-8)
    assert fit.residual_ratio < 1e-6


def test_fit_orbit_offset_and_phase():
    t = np.linspace(0.0, 30.0, 3001)
    sig = 2.5 * np.sin(1.7 * t + 0.6) - 0.8
    fit = fit_orbit(t, sig, (0.0, 30.0))
    assert fit.angular_frequency == pytest.approx(1.7, rel=1e-8)
    assert fit.amplitude == pytest.approx(2.5, rel=1e-8)
    assert fit.offset == pytest.approx(-0.8, abs=1e-8)


def test_fit_orbit_rejects_constant():
    t = np.linspace(0.0, 10.0, 501)
    with pytest.raises(NoOrbitError):
        fit_orbit(t, np.ones_like(t), (0.0, 10.0))


def test_fit_orbit_rejects_aperiodic():
    t = np.linspace(0.0, 10.0, 501)
    with pytest.raises(NoOrbitError):
        fit_orbit(t, np.exp(0.3 * t), (0.0, 10.0))


def test_averaged_matched_equilibrium():
    mf0 = MeanField(x_m=2.0, y_m=0.0, delta_m=0.0)
    mf = averaged_model_matched(mf0, MATCHED, 5.0)
    assert mf.x_m == pytest.approx(2.0, abs=1e-12)
    assert mf.y_m == 0.0
    assert mf.delta_m == 0.0


def test_averaged_matched_against_fine_rk4():
    g = MATCHED
    mf0 = MeanField(x_m=0.0, y_m=1.0, delta_m=0.0)
    t_end = 1.0

    def f(t, z):
        return np.array([z[1], -g.gamma2 * z[1] - g.gamma3 * z[2], g.gamma4 * z[1]])

    traj = integrate(f, np.array([0.0, 1.0, 0.0]), SimParams(t_final=t_end, dt=1e-5,
                                                             sample_every=100000))
    mf = averaged_model_matched(mf0, g, t_end)
    assert mf.x_m == pytest.approx(traj.states[-1, 0], abs=1e-8)
    assert mf.y_m == pytest.approx(traj.states[-1, 1], abs=1e-8)
    assert mf.delta_m == pytest.approx(traj.states[-1, 2], abs=1e-8)


def test_averaged_matched_decays():
    mf0 = MeanField(x_m=0.0, y_m=3.0, delta_m=-1.0)
    late = averaged_model_matched(mf0, MATCHED, 50.0)
    assert abs(late.y_m) < 1e-12
    assert abs(late.delta_m) < 1e-12


def test_averaged_unmatched_pure_oscillation():
    g = UNMATCHED
    mf0 = MeanField(x_m=1.0, y_m=0.0, delta_m=0.0)
    period = 2 * math.pi / math.sqrt(g.alpha1)
    assert period == pytest.approx(2.29429, abs=1e-5)
    mf = averaged_model_unmatched(mf0, g, period)
    assert mf.x_m == pytest.approx(1.0, abs=1e-8)
    assert mf.delta_m == pytest.approx(0.0, abs=1e-8)
    quarter = averaged_model_unmatched(mf0, g, period / 4)
    assert quarter.x_m == pytest.approx(0.0, abs=1e-8)


def test_averaged_unmatched_velocity_decay():
    g = UNMATCHED
    mf0 = MeanField(x_m=0.3, y_m=2.0, delta_m=-0.4)
    mf = averaged_model_unmatched(mf0, g, 1.0)
    assert mf.y_m == pytest.approx(2.0 * math.exp(-g.k_d), rel=1e-10)


def test_averaged_unmatched_matches_projected_simulation():
    rng = np.random.default_rng(31)
    g = UNMATCHED
    w = np.zeros((3, 3))
    w[1, 0] = 1.3
    w[2, 1] = 0.7
    w[0, 2] = 1.1
    lap = build_laplacian(DirectedGraph(w))
    d = np.array([0.3, -0.2, 0.1])
    loop = UnmatchedLoop(g, lap, DisturbanceProfile.constant(d))
    x0 = rng.normal(size=3)
    y0 = rng.normal(size=3)
    dh0 = rng.normal(size=3) * 0.2
    traj = integrate(loop, np.concatenate([x0, y0, dh0]),
                     SimParams(t_final=10.0, dt=1e-3, sample_every=200))
    v = lap.v_left
    mf0 = mean_field(SimState(x0, y0, dh0), v, g, d)
    worst = 0.0
    for i, t in enumerate(traj.times):
        ref = averaged_model_unmatched(mf0, g, float(t))
        got = mean_field(SimState(traj.x[i], traj.y[i], traj.delta_hat[i]), v, g, d)
        worst = max(worst, abs(ref.x_m - got.x_m), abs(ref.y_m - got.y_m),
                    abs(ref.delta_m - got.delta_m))
    assert worst < 1e-6


def test_estimation_limits_constant_disturbance(default_lap):
    d = np.full(5, 0.4)
    loop = MatchedLoop(MATCHED, default_lap, DisturbanceProfile.constant(d))
    z0 = np.zeros(15)
    traj = integrate(loop, z0, SimParams(t_final=10.0, dt=1e-3, sample_every=100))
    est = estimation_limits(traj, loop.profile, MATCHED)
    assert np.allclose(est.predicted, 0.1, atol=1e-15)
    assert est.max_abs_error < 1e-8


def test_projector_invariant_along_trajectory(default_lap):
    d = np.array([0.1, -0.1, 0.2, -0.2, 0.1])
    loop = MatchedLoop(MATCHED, default_lap, DisturbanceProfile.constant(d))
    z0 = np.concatenate([np.array([1.0, -0.5, 0.5, -1.0, 0.0]), np.zeros(10)])
    traj = integrate(loop, z0, SimParams(t_final=5.0, dt=1e-3, sample_every=100))
    v = default_lap.v_left
    for i, t in enumerate(traj.times):
        state = SimState(traj.x[i], traj.y[i], traj.delta_hat[i], float(t))
        errs = consensus_errors(state, v, MATCHED, d)
        for e in (errs.e_x, errs.e_y, errs.e_d):
            assert abs(float(v @ e)) < 1e-10


def test_lyapunov_decay_identity_matched():
    """Numerical check that dH/dt equals the negative quadratic form in the
    consensus errors along a certified constant-disturbance run."""
    rng = np.random.default_rng(77)
    g_graph = random_tree_graph(rng, 4, extra_edges=2)
    lap = build_laplacian(g_graph)
    cert = solve_P(lap)
    gains = suggest_matched(4.0, 2.0, 1.0,
                            max(8.0, 1.1 * (2.0 / 4.0) * cert.lambda_P ** 2), cert)
    assert certify_matched(gains, cert).passed
    d = rng.normal(size=4) * 0.5
    loop = MatchedLoop(gains, lap, DisturbanceProfile.constant(d))
    z0 = np.concatenate([rng.normal(size=4), rng.normal(size=4), np.zeros(4)])
    dt = 1e-4
    traj = integrate(loop, z0, SimParams(t_final=0.2, dt=dt))
    v = lap.v_left
    N = matched_form_matrix(gains, cert)
    H = np.empty(traj.times.shape[0])
    forms = np.empty(traj.times.shape[0])
    for i in range(traj.times.shape[0]):
        state = SimState(traj.x[i], traj.y[i], traj.delta_hat[i])
        errs = consensus_errors(state, v, gains, d)
        H[i] = lyapunov_H(errs, gains, cert.P)
        e = np.concatenate([errs.e_x, errs.e_y, errs.e_d])
        forms[i] = -0.5 * e @ N @ e
    dH = (H[2:] - H[:-2]) / (2 * dt)
    mid = forms[1:-1]
    scale = np.abs(mid).max()
    assert np.abs(dH - mid).max() < 1e-3 * scale


def test_lyapunov_decay_identity_unmatched():
    """Same consistency check for the unmatched loop with the certified
    substitution nu = alpha1/k_d = 1."""
    rng = np.random.default_rng(78)
    g_graph = random_tree_graph(rng, 4, extra_edges=1)
    lap = build_laplacian(g_graph)
    cert = solve_P(lap)
    kd = 1.1 * (0.5 * 2.0 * cert.lambda_L ** 2 + cert.lambda_P)
    gains = UnmatchedGains(k_x=2.0, k_d=kd, k_s=3.0, alpha1=kd, nu=1.0, alpha2=1.0)
    d = rng.normal(size=4) * 0.5
    loop = UnmatchedLoop(gains, lap, DisturbanceProfile.constant(d))
    z0 = np.concatenate([rng.normal(size=4), rng.normal(size=4), np.zeros(4)])
    dt = 1e-4
    traj = integrate(loop, z0, SimParams(t_final=0.2, dt=dt))
    v = lap.v_left
    M, _ = unmatched_form_matrices(gains, cert)
    W = np.empty(traj.times.shape[0])
    forms = np.empty(traj.times.shape[0])
    for i in range(traj.times.shape[0]):
        state = SimState(traj.x[i], traj.y[i], traj.delta_hat[i])
        errs = consensus_errors(state, v, gains, d)
        W[i] = lyapunov_W(errs, gains, cert.P)
        exy = np.concatenate([errs.e_x, errs.e_y])
        forms[i] = -0.5 * exy @ M @ exy
    dW = (W[2:] - W[:-2]) / (2 * dt)
    mid = forms[1:-1]
    scale = max(np.abs(mid).max(), 1e-12)
    assert np.abs(dW - mid).max() < 1e-3 * scale


def test_first_settling_time():
    t = np.linspace(0.0, 30.0, 301)
    sig = np.exp(-t)
    st = first_settling_time(t, sig, 1e-3, hold=10.0)
    assert st is not None
    assert st == pytest.approx(6.9, abs=0.2)
    assert first_settling_time(t, np.ones_like(t), 1e-3) is None
    # too little margin before the record ends
    assert first_settling_time(t[:100], sig[:100], 1e-10, hold=10.0) is None


def test_matched_errors_settle_eventually(default_lap, default_cert):
    """The consensus goal with the benchmark gains: every error norm falls
    below 1e-3 and stays there.  The slow -0.23/s error mode puts the
    settling time near 50 s from the benchmark initial conditions."""
    d = np.array([0.1, -0.1, 0.2, -0.2, 0.1])
    profile = DisturbanceProfile.constant(d)
    gains = MATCHED
    loop = MatchedLoop(gains, default_lap, profile)
    z0 = np.concatenate([np.array([1.0, -0.5, 0.5, -1.0, 0.0]), np.zeros(10)])
    traj = integrate(loop, z0, SimParams(t_final=80.0, dt=1e-3, sample_every=10))
    metrics = trajectory_metrics(traj, default_lap.v_left, gains, profile, default_cert.P)
    for name in ("ex_norm", "ey_norm", "ed_norm"):
        settle = first_settling_time(metrics["t"], metrics[name], 1e-3, hold=10.0)
        assert settle is not None
        assert settle < 55.0


def test_trajectory_metrics_shapes(default_lap, default_cert):
    d = np.array([0.1, -0.1, 0.2, -0.2, 0.1])
    profile = DisturbanceProfile.constant(d)
    loop = MatchedLoop(MATCHED, default_lap, profile)
    z0 = np.concatenate([np.ones(5), np.zeros(10)])
    traj = integrate(loop, z0, SimParams(t_final=1.0, dt=1e-3, sample_every=100))
    metrics = trajectory_metrics(traj, default_lap.v_left, MATCHED, profile, default_cert.P)
    for key in ("t", "ex_norm", "ey_norm", "ed_norm", "x_m", "y_m", "delta_m", "lyap"):
        assert metrics[key].shape == traj.times.shape
    assert np.isfinite(metrics["lyap"]).all()


# -- the array pass against the per-sample loop it replaced ------------------

#: the array pass sums in another order than the loop; the cases below
#: deviate by at most 1.5e-15 relative
ORACLE_RTOL = 1e-12
ORACLE_ATOL = 1e-14


def _reference_metrics(traj, v, gains, profile, P):
    """One row per sample: t, the three error norms, the mean field, the
    Lyapunov value and max |v.e|, computed a state at a time with the scalar
    disturbance and the projection and Lyapunov forms written out."""
    matched = isinstance(gains, MatchedGains)
    g = gains
    rows = []
    for i in range(traj.times.shape[0]):
        t = float(traj.times[i])
        x, y, dh = traj.x[i], traj.y[i], traj.delta_hat[i]
        d = eval_disturbance(profile, t)
        if matched:
            coords = (x, y, dh - d / g.gamma3)
        else:
            coords = (x, y - g.k_s * dh, g.k_s * dh + d)
        means = [float(v @ w) for w in coords]
        ex, ey, ed = (w - np.ones_like(w) * m for w, m in zip(coords, means))
        if matched:
            lyap = 0.5 * (g.rho * ex @ P @ ex + 2.0 * g.epsilon * ex @ P @ ey
                          + 2.0 * g.mu * ey @ ey) \
                + 0.5 * g.b * (2.0 * ey @ ey + 2.0 * ey @ ed + ed @ ed)
        else:
            lyap = 0.5 * (g.alpha1 * ex @ P @ ex + 2.0 * g.nu * ex @ P @ ey
                          + g.alpha2 * ey @ ey) + 0.5 * ed @ P @ ed
        residual = max(abs(float(v @ e)) for e in (ex, ey, ed))
        rows.append([t, np.linalg.norm(ex), np.linalg.norm(ey), np.linalg.norm(ed),
                     *means, lyap, residual])
    return np.array(rows)


def _reference_sync_deviations(traj, v, g, profile):
    devs = np.empty(traj.times.shape[0])
    for i, t in enumerate(traj.times):
        d = eval_disturbance(profile, float(t))
        delta_m = float(v @ (g.k_s * traj.delta_hat[i] + d))
        devs[i] = np.abs(traj.y[i] + d - delta_m).max()
    return devs


def _check_against_reference(traj, v, gains, profile, P):
    metrics = trajectory_metrics(traj, v, gains, profile, P)
    names = ("t", "ex_norm", "ey_norm", "ed_norm", "x_m", "y_m", "delta_m", "lyap",
             "projector_residual")
    got = np.column_stack([metrics[name] for name in names])
    np.testing.assert_allclose(got, _reference_metrics(traj, v, gains, profile, P),
                               rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
    if isinstance(gains, UnmatchedGains):
        devs = _reference_sync_deviations(traj, v, gains, profile)
        windows = sync_deviation_windows(traj, v, gains, profile, window_len=0.25)
        assert len(windows) == int(round(traj.times[-1] / 0.25))
        for w in windows:
            mask = (traj.times >= w["window"][0]) & (traj.times <= w["window"][1])
            np.testing.assert_allclose(w["max_deviation"], devs[mask].max(),
                                       rtol=ORACLE_RTOL, atol=ORACLE_ATOL)


@pytest.mark.parametrize("name", ["paper-matched", "paper-unmatched"])
def test_array_pass_matches_loop_on_builtins(name):
    """Full builtin horizons, so the switch sits on a sample time."""
    sc, lap, cert, _, loop = runner.prepare(builtin_scenario(name))
    params = SimParams(t_final=sc.t_final, dt=sc.dt, sample_every=sc.sample_every)
    traj = integrate(loop, np.concatenate([sc.x0, sc.y0, sc.delta_hat0]), params)
    _check_against_reference(traj, lap.v_left, sc.gains, sc.disturbance, cert.P)


@pytest.fixture(scope="module")
def large_network():
    """600 agents with extra edges, so v has many nonzero weights."""
    rng = np.random.default_rng(600)
    lap = build_laplacian(random_tree_graph(rng, 600, extra_edges=300))
    profile = DisturbanceProfile((
        Segment(0.0, rng.uniform(-0.3, 0.3, 600), hyperbolic_coeff=1.0),
        Segment(0.5, rng.uniform(-0.3, 0.3, 600), exp_coeff=1.0, exp_rate=0.2),
    ))
    z0 = np.concatenate([rng.uniform(-1.0, 1.0, 600), rng.uniform(-0.5, 0.5, 600),
                         np.zeros(600)])
    return lap, solve_P(lap).P, profile, z0


@pytest.mark.parametrize("gains", [MATCHED, UNMATCHED], ids=["matched", "unmatched"])
def test_array_pass_matches_loop_on_600_agents(large_network, gains):
    """101 samples of 1800 values: several blocks, the last one partial."""
    lap, P, profile, z0 = large_network
    loop_cls = MatchedLoop if isinstance(gains, MatchedGains) else UnmatchedLoop
    traj = integrate(loop_cls(gains, lap, profile), z0,
                     SimParams(t_final=1.0, dt=1e-3, sample_every=10))
    assert len(row_blocks(traj.times.shape[0], traj.states.shape[1])) > 2
    _check_against_reference(traj, lap.v_left, gains, profile, P)


@st.composite
def _profiles(draw):
    n = draw(st.integers(1, 3))
    n_segments = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(1e-3, 50.0), min_size=n_segments - 1,
                         max_size=n_segments - 1))
    starts = np.concatenate([[0.0], np.cumsum(gaps)])
    coeff = st.floats(-2.0, 2.0)
    segs = tuple(
        Segment(float(start), np.array(draw(st.lists(coeff, min_size=n, max_size=n))),
                hyperbolic_coeff=draw(coeff), exp_coeff=draw(coeff),
                exp_rate=draw(st.floats(0.0, 1.0)))
        for start in starts)
    return DisturbanceProfile(segs)


@given(profile=_profiles(), extra=st.lists(st.floats(0.0, 300.0), max_size=5))
@settings(max_examples=100, deadline=None)
def test_profile_at_matches_eval_disturbance(profile, extra):
    times = [0.0, *extra]
    for s in profile.switch_times:
        times += [s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)]
    for side in ("right", "left"):
        got = profile.at(times, side=side)
        for k, t in enumerate(times):
            assert np.array_equal(got[k], eval_disturbance(profile, t, side=side)), (side, t)


def test_profile_at_rejects_negative_time():
    profile = DisturbanceProfile.constant([0.1, 0.2])
    with pytest.raises(ValidationError, match="t: must be >= 0"):
        profile.at([0.0, -1e-300])
