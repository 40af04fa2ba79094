"""Fixed-step integrator: accuracy, order, determinism, divergence, the
loops' coefficient blocks, and the two closed-loop paths (stage body and
linear recurrence)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from consensus_net.dynamics import (
    DisturbanceProfile,
    MatchedLoop,
    Segment,
    UnmatchedLoop,
)
from consensus_net.errors import IntegrationDivergedError, ValidationError
from consensus_net.gains import MatchedGains, UnmatchedGains
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net import kernels, sparsity
from consensus_net.scenario import builtin_scenario
from consensus_net.sim import (
    EXACT_ORDER,
    SimParams,
    _rk4_generic,
    convergence_order,
    integrate,
)

from conftest import random_tree_graph

MATCHED = MatchedGains(gamma1=6.0, gamma2=17.0, gamma3=4.0, gamma4=25.8)
UNMATCHED = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)


def series_expm(A, t, terms=60):
    """Taylor-series matrix exponential with scaling and squaring; an oracle
    independent of the integrator and of scipy."""
    A = np.asarray(A, dtype=float) * t
    s = max(0, int(np.ceil(np.log2(max(1e-30, np.abs(A).sum(axis=1).max())))) + 1)
    B = A / 2 ** s
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ B / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def chain2_loop(d=(0.0, 0.0)):
    lap = build_laplacian(DirectedGraph(np.array([[0.0, 0.0], [1.0, 0.0]])))
    return MatchedLoop(MATCHED, lap, DisturbanceProfile.constant(np.asarray(d, dtype=float)))


def test_scalar_decay_matches_stability_function():
    params = SimParams(t_final=1.0, dt=0.1)
    traj = integrate(lambda t, z: -z, np.array([1.0]), params)
    z = -0.1
    growth = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    # RK4 on a linear scalar equation is exactly repeated multiplication
    assert traj.states[-1, 0] == pytest.approx(growth ** 10, rel=1e-14)
    # true error of the method at this step size (the Taylor remainder)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 5e-7
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) > 1e-7


def test_harmonic_oscillator_period():
    t_final = 2 * math.pi
    params = SimParams(t_final=t_final, dt=t_final / 628)
    traj = integrate(lambda t, z: np.array([z[1], -z[0]]), np.array([1.0, 0.0]), params)
    assert np.abs(traj.states[-1] - np.array([1.0, 0.0])).max() < 1e-8


def test_zero_field_constant():
    params = SimParams(t_final=1.0, dt=0.05)
    z0 = np.array([1.0, -2.0, 3.0])
    traj = integrate(lambda t, z: np.zeros_like(z), z0, params)
    assert np.array_equal(traj.states[0], z0)
    assert np.array_equal(traj.states[-1], z0)


def test_convergence_order_scalar():
    params = SimParams(t_final=1.0, dt=0.1)
    order = convergence_order(lambda t, z: -z, np.array([1.0]), params)
    assert 3.8 <= order <= 4.2


def test_convergence_order_matched_loop():
    loop = chain2_loop()
    params = SimParams(t_final=1.0, dt=0.01)
    z0 = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    order = convergence_order(loop, z0, params)
    assert 3.8 <= order <= 4.2


def test_convergence_order_exact_sentinel():
    params = SimParams(t_final=1.0, dt=0.1)
    order = convergence_order(lambda t, z: np.ones_like(z), np.array([0.0]), params)
    assert order == EXACT_ORDER
    assert math.isinf(order)


def test_matched_loop_matches_series_oracle():
    """Constant disturbance makes the loop linear in (x, y, dh - d/gamma3);
    compare the kernel result with the series matrix exponential."""
    rng = np.random.default_rng(8)
    for n, seed in ((2, 1), (3, 2)):
        rng = np.random.default_rng(seed)
        w = np.zeros((n, n))
        for i in range(1, n):
            w[i, int(rng.integers(0, i))] = rng.uniform(0.5, 1.5)
        lap = build_laplacian(DirectedGraph(w))
        d = rng.normal(size=n) * 0.3
        loop = MatchedLoop(MATCHED, lap, DisturbanceProfile.constant(d))
        g = MATCHED
        I = np.eye(n)
        Z = np.zeros((n, n))
        A = np.block([
            [Z, I, Z],
            [-g.gamma1 * lap.L, -g.gamma2 * I, -g.gamma3 * I],
            [g.gamma1 * lap.L, g.gamma4 * I, Z],
        ])
        x0 = rng.normal(size=n)
        y0 = rng.normal(size=n)
        dh0 = rng.normal(size=n)
        z0 = np.concatenate([x0, y0, dh0])
        params = SimParams(t_final=10.0, dt=1e-3, sample_every=100)
        traj = integrate(loop, z0, params)
        w0 = np.concatenate([x0, y0, dh0 - d / g.gamma3])
        worst = 0.0
        for i, t in enumerate(traj.times):
            wt = series_expm(A, float(t)) @ w0
            zt = np.concatenate([wt[:n], wt[n:2 * n], wt[2 * n:] + d / g.gamma3])
            worst = max(worst, np.abs(traj.states[i] - zt).max())
        assert worst < 1e-6


def test_kernel_agrees_with_generic_path():
    loop = chain2_loop(d=(0.3, -0.2))
    z0 = np.array([1.0, -0.5, 0.2, 0.1, 0.0, 0.0])
    params = SimParams(t_final=2.0, dt=1e-3, sample_every=10)
    fast = integrate(loop, z0, params)
    slow = integrate(loop.field, z0, params)
    assert np.abs(fast.states - slow.states).max() < 1e-10


def test_determinism_bitwise():
    loop = chain2_loop(d=(0.1, 0.7))
    z0 = np.array([0.3, -0.5, 0.2, 0.1, 0.0, 0.0])
    params = SimParams(t_final=3.0, dt=1e-3, sample_every=5)
    a = integrate(loop, z0, params)
    b = integrate(loop, z0, params)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_switch_steps_use_left_segment():
    """A step that starts exactly at a switch uses the new segment; the stage
    landing on the switch from the left still uses the old one."""
    profile = DisturbanceProfile((
        Segment(0.0, np.array([1.0])),
        Segment(0.5, np.array([-1.0])),
    ))
    lap = build_laplacian(DirectedGraph(np.zeros((1, 1))))
    gains = UnmatchedGains(k_x=1.0, k_d=1.0, k_s=1.0, alpha1=1e-12, nu=1e-12)
    # with negligible feedback, x integrates the disturbance: ramp up then down
    loop = UnmatchedLoop(gains, lap, profile)
    params = SimParams(t_final=1.0, dt=0.01)
    traj = integrate(loop, np.zeros(3), params)
    x = traj.states[:, 0]
    i_mid = 50
    assert x[i_mid] == pytest.approx(0.5, abs=1e-6)
    assert x[-1] == pytest.approx(0.0, abs=1e-6)
    assert x[i_mid - 1] < x[i_mid]
    assert x[i_mid + 1] < x[i_mid]


def test_misaligned_switch_rejected():
    profile = DisturbanceProfile((
        Segment(0.0, np.array([1.0])),
        Segment(0.0105, np.array([-1.0])),
    ))
    lap = build_laplacian(DirectedGraph(np.zeros((1, 1))))
    loop = UnmatchedLoop(UnmatchedGains(k_x=1.0, k_d=1.0, k_s=1.0, alpha1=1.0, nu=1.0),
                         lap, profile)
    with pytest.raises(ValidationError, match="switch"):
        integrate(loop, np.zeros(3), SimParams(t_final=1.0, dt=1e-3))


def test_params_validation():
    with pytest.raises(ValidationError, match="t_final"):
        SimParams(t_final=1.0005, dt=1e-3)
    with pytest.raises(ValidationError, match="dt"):
        SimParams(t_final=1.0, dt=0.0)
    with pytest.raises(ValidationError, match="dt"):
        SimParams(t_final=0.5, dt=1.0)
    with pytest.raises(ValidationError, match="sample_every"):
        SimParams(t_final=1.0, dt=0.1, sample_every=3)


def test_single_step_horizon():
    params = SimParams(t_final=0.001, dt=0.001)
    traj = integrate(lambda t, z: -z, np.array([1.0]), params)
    assert traj.times.shape == (2,)
    assert traj.states.shape == (2, 1)


def test_integrate_accepts_sim_state():
    from consensus_net.dynamics import SimState

    loop = chain2_loop()
    state = SimState(x=[1.0, -1.0], y=[0.5, 0.0], delta_hat=[0.0, 0.0])
    traj = integrate(loop, state, SimParams(t_final=0.5, dt=1e-3, sample_every=10))
    assert np.array_equal(traj.states[0], state.pack())
    final = traj.state_at(0.5)
    assert final.t == pytest.approx(0.5)


def test_divergence_generic_field():
    params = SimParams(t_final=2.0, dt=0.1)
    with pytest.raises(IntegrationDivergedError) as exc_info, np.errstate(over="ignore"):
        integrate(lambda t, z: z * z, np.array([3.0]), params)
    err = exc_info.value
    assert err.partial is not None
    assert err.partial.times.shape[0] >= 1
    assert np.isfinite(err.partial.states).all()
    assert err.last_time < 2.0


def test_divergence_kernel_path():
    # step size far outside the stability region blows up the linear loop
    lap = build_laplacian(DirectedGraph(np.zeros((1, 1))))
    gains = MatchedGains(gamma1=1.0, gamma2=100.0, gamma3=1.0, gamma4=103.0)
    loop = MatchedLoop(gains, lap, DisturbanceProfile.constant(np.array([0.0])))
    params = SimParams(t_final=100.0, dt=0.5)
    with pytest.raises(IntegrationDivergedError) as exc_info:
        integrate(loop, np.array([0.0, 1.0, 0.0]), params)
    partial = exc_info.value.partial
    assert partial is not None
    assert np.isfinite(partial.states).all()


def test_no_nan_in_valid_trajectories():
    loop = chain2_loop(d=(0.5, -0.5))
    traj = integrate(loop, np.zeros(6), SimParams(t_final=5.0, dt=1e-3, sample_every=50))
    assert np.isfinite(traj.states).all()


def _loop(mode, lap, profile):
    if mode == "matched":
        return MatchedLoop(MATCHED, lap, profile)
    return UnmatchedLoop(UNMATCHED, lap, profile)


def _run(path, A, c_E, profile, z0, params):
    """One closed-loop path run directly; (written, out)."""
    out = np.empty((params.n_samples, z0.shape[0]))
    written = path(A, c_E, z0, profile, params.dt, params.n_steps, params.sample_every, out)
    return written, out


def _run_recurrence(A, c_E, profile, z0, params):
    """The recurrence on ``A``, dense or CSR, run directly; (written, out)."""
    out = np.empty((params.n_samples, z0.shape[0]))
    written = kernels._rk4_recurrence(A, kernels._step_operator(A, params.dt), c_E, z0, profile,
                                      params.dt, params.n_steps, params.sample_every, out)
    return written, out


def _both_paths(mode, lap, profile, z0, params):
    """Run the recurrence and the stage body on the dense A; (written, out) each."""
    C_L, C_I, c_E = _loop(mode, lap, profile).blocks()
    A = kernels._dense_system(C_L, C_I, lap.L)
    return (_run_recurrence(A, c_E, profile, z0, params),
            _run(kernels._rk4_stage, A, c_E, profile, z0, params))


@pytest.mark.parametrize("mode", ["matched", "unmatched"])
@pytest.mark.parametrize("sample_every", [1, 10, 200])
def test_recurrence_agrees_with_stage_body(mode, sample_every):
    """Switch at step 100 (on a block boundary for every fold length) and at
    step 255 (strictly inside a block for sample_every 10 and 200)."""
    lap = build_laplacian(DirectedGraph(np.array([[0.0, 0.0, 0.0],
                                                  [1.0, 0.0, 0.0],
                                                  [0.0, 0.7, 0.0]])))
    profile = DisturbanceProfile((
        Segment(0.0, np.array([0.2, -0.1, 0.3]), hyperbolic_coeff=1.0),
        Segment(1.0, np.array([-0.3, 0.1, 0.0]), exp_coeff=1.0, exp_rate=0.2),
        Segment(2.55, np.array([0.1, 0.4, -0.2]), hyperbolic_coeff=-0.5, exp_coeff=2.0,
                exp_rate=1.0),
    ))
    params = SimParams(t_final=4.0, dt=0.01, sample_every=sample_every)
    z0 = np.array([1.0, -0.5, 0.2, 0.1, 0.0, -0.3, 0.05, 0.0, 0.1])
    (w_fast, fast), (w_slow, slow) = _both_paths(mode, lap, profile, z0, params)
    assert w_fast == w_slow == params.n_samples
    assert np.abs(fast - slow).max() < 1e-10


@pytest.mark.parametrize("sample_every", [1, 10, 200])
def test_recurrence_divergence_keeps_partial(sample_every):
    lap = build_laplacian(DirectedGraph(np.zeros((1, 1))))
    profile = DisturbanceProfile.constant(np.array([0.0]))
    params = SimParams(t_final=1000.0, dt=0.5, sample_every=sample_every)
    z0 = np.array([0.0, 1.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        (w_fast, fast), (w_slow, slow) = _both_paths("matched", lap, profile, z0, params)
    assert 1 < w_fast < params.n_samples
    assert w_fast == w_slow
    assert np.isfinite(fast[:w_fast]).all()
    assert np.abs(fast[:w_fast] - slow[:w_slow]).max() <= 1e-10 * np.abs(slow[:w_slow]).max()


def _three_agent_case(mode, sample_every):
    """The 3-agent graph of ``test_recurrence_agrees_with_stage_body`` over
    4610 steps (4600 for sample_every 200; more than two chunks), with a
    switch at step 2555, strictly inside a block for every fold above 1;
    (A, c_E, profile, z0, params), the arguments of ``_run_recurrence``."""
    lap = build_laplacian(DirectedGraph(np.array([[0.0, 0.0, 0.0],
                                                  [1.0, 0.0, 0.0],
                                                  [0.0, 0.7, 0.0]])))
    profile = DisturbanceProfile((
        Segment(0.0, np.array([0.2, -0.1, 0.3]), hyperbolic_coeff=1.0),
        Segment(2.555, np.array([-0.3, 0.1, 0.0]), exp_coeff=1.0, exp_rate=0.2),
    ))
    params = SimParams(t_final=4.6 if sample_every == 200 else 4.61, dt=1e-3,
                       sample_every=sample_every)
    z0 = np.array([1.0, -0.5, 0.2, 0.1, 0.0, -0.3, 0.05, 0.0, 0.1])
    C_L, C_I, c_E = _loop(mode, lap, profile).blocks()
    return kernels._dense_system(C_L, C_I, lap.L), c_E, profile, z0, params


@pytest.mark.parametrize("mode", ["matched", "unmatched"])
@pytest.mark.parametrize("sample_every", [1, 10, 200])
def test_scan_agrees_with_block_loop(monkeypatch, mode, sample_every):
    """The dense recurrence's blocked scan against its plain block loop
    (K = 1) within 1e-12 of max|z|: n_steps above ``_CHUNK_STEPS`` and not
    a multiple of K f, so the last chunk ends in a short superblock
    (sample_every 1 and 10) or is shorter than K (200, two blocks per
    sample)."""
    A, c_E, profile, z0, params = _three_agent_case(mode, sample_every)
    f = kernels.fold_length(sample_every)
    K = kernels._scan_length(A.shape[0])
    assert K > 1 and params.n_steps > kernels._CHUNK_STEPS and params.n_steps % (K * f)
    assert 2555 % f or f == 1
    scans = _spy(monkeypatch, "_scan_blocks")
    w_scan, scan = _run_recurrence(A, c_E, profile, z0, params)
    assert scans
    monkeypatch.setattr(kernels, "_scan_length", lambda N: 1)
    w_loop, loop = _run_recurrence(A, c_E, profile, z0, params)
    assert w_scan == w_loop == params.n_samples
    assert np.abs(scan - loop).max() <= 1e-12 * np.abs(loop).max()


def test_path_choice_estimate():
    for name, sample_every in (("paper-matched", None), ("paper-unmatched", None),
                               ("paper-unmatched", 1)):
        sc = builtin_scenario(name)
        n_steps = round(sc.t_final / sc.dt)
        nnz = np.count_nonzero(build_laplacian(sc.graph).L)
        assert kernels.prefer_recurrence(sc.n_agents, nnz, n_steps,
                                         sample_every or sc.sample_every,
                                         len(sc.disturbance.bases))
    # the builtins' 15 states scan 12 blocks at a time
    assert kernels._scan_length(15) == 12
    # a 600-agent tree (599 edges, 599 nonzero diagonal entries) over 1000
    # steps: the O(n^3) set-up outweighs the steps
    assert not kernels.prefer_recurrence(600, 1198, 1000, 10, 2)
    assert kernels.fold_length(10) == 10
    assert kernels.fold_length(200) == 100
    assert kernels.fold_length(97) == 97
    assert kernels.fold_length(101) == 1


def _frozen_segment_field(loop_cls, gains, lap, profile, dt):
    """``f(t, z)`` of a closed loop that keeps, for all four stages of a step,
    the segment active at the step's left endpoint (the kernels' rule).

    ``_rk4_generic`` calls the field four times per step, first at the left
    endpoint, which is how a step start is recognised."""
    # a segment's value does not depend on its start, so each one becomes a
    # single-segment profile active from t = 0
    loops = [loop_cls(gains, lap, DisturbanceProfile((replace(seg, t_start=0.0),)))
             for seg in profile.segments]
    thresholds = [seg.t_start - 0.25 * dt for seg in profile.segments[1:]]
    state = {"calls": 0, "loop": loops[0]}

    def field(t, z):
        if state["calls"] % 4 == 0:
            state["loop"] = loops[sum(t >= s for s in thresholds)]
        state["calls"] += 1
        return state["loop"].field(t, z)
    return field


def _run_and_dense(mode, lap, profile, z0, params):
    """``rk4_closed_loop`` as a run calls it, on a graph for which the
    estimate rejects the dense A (so the recurrence on the CSR A, replayed
    by the stage body near overflow), and the stage body on the dense A;
    (written, out) each.  The run's samples are the same bits whether L is
    stored as CSR, as ``build_laplacian`` stores it here, or dense."""
    C_L, C_I, c_E = _loop(mode, lap, profile).blocks()
    # the estimate must reject the dense recurrence, or no CSR path is tested
    assert not kernels.prefer_recurrence(lap.n_agents, lap.L.nnz,
                                         params.n_steps, params.sample_every,
                                         len(profile.bases))
    sparse, from_dense = (np.empty((params.n_samples, z0.shape[0])) for _ in range(2))
    w_sparse, w_from_dense = (
        kernels.rk4_closed_loop(C_L, C_I, c_E, L, z0, profile,
                                params.dt, params.n_steps, params.sample_every, out)
        for L, out in ((lap.L, sparse), (lap.L.toarray(), from_dense)))
    assert w_from_dense == w_sparse
    assert np.array_equal(from_dense[:w_sparse], sparse[:w_sparse])
    dense = _run(kernels._rk4_stage, kernels._dense_system(C_L, C_I, lap.L), c_E,
                 profile, z0, params)
    return (w_sparse, sparse), dense


def _large_shuffled_lap(seed, n=200):
    rng = np.random.default_rng(seed)
    w = random_tree_graph(rng, n, extra_edges=n // 2).weights
    perm = rng.permutation(n)
    return build_laplacian(DirectedGraph(w[np.ix_(perm, perm)])), rng


def _csr_system(mode, lap, profile):
    C_L, C_I, c_E = _loop(mode, lap, profile).blocks()
    return kernels._csr_system(C_L, C_I, lap.L), c_E


@pytest.mark.parametrize("mode", ["matched", "unmatched"])
def test_sparse_stage_body_oracle(mode):
    """200 agents, a tree with extra edges and shuffled labels, and a switch
    at step 255, strictly inside the sample block of steps 250-260: the run's
    path (the recurrence on the CSR A), the stage body on the CSR A and on
    the dense A agree, and all three match the generic RK4 oracle."""
    lap, rng = _large_shuffled_lap(5)
    n = lap.n_agents
    profile = DisturbanceProfile((
        Segment(0.0, rng.uniform(-0.3, 0.3, n), hyperbolic_coeff=1.0),
        Segment(0.255, rng.uniform(-0.3, 0.3, n), exp_coeff=1.0, exp_rate=0.2),
    ))
    params = SimParams(t_final=0.5, dt=1e-3, sample_every=10)
    z0 = np.concatenate([rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 0.5, n), np.zeros(n)])
    (w_run, run), (w_dense, dense) = _run_and_dense(mode, lap, profile, z0, params)
    w_csr, csr = _run(kernels._rk4_stage, *_csr_system(mode, lap, profile), profile, z0, params)
    assert w_run == w_csr == w_dense == params.n_samples
    for path in (run, csr):
        assert np.abs(path - dense).max() <= 1e-12 * np.abs(dense).max()

    loop_cls, gains = (MatchedLoop, MATCHED) if mode == "matched" else (UnmatchedLoop, UNMATCHED)
    oracle = np.empty_like(dense)
    field = _frozen_segment_field(loop_cls, gains, lap, profile, params.dt)
    assert _rk4_generic(field, z0, params, oracle) == params.n_samples
    for path in (run, csr, dense):
        assert np.abs(path - oracle).max() < 1e-10


def _diverging_case(y_dhat0):
    """200 agents, constant disturbance and dt = 0.5, far outside the
    stability region: the state overflows long before t_final.  Every y and
    delta_hat starts at ``y_dhat0``."""
    lap, rng = _large_shuffled_lap(6)
    n = lap.n_agents
    profile = DisturbanceProfile.constant(rng.uniform(-0.3, 0.3, n))
    params = SimParams(t_final=400.0, dt=0.5, sample_every=2)
    x0 = rng.uniform(-1.0, 1.0, n)
    return lap, profile, params, np.concatenate([x0, np.full(2 * n, y_dhat0)])


@pytest.mark.parametrize("mode", ["matched", "unmatched"])
def test_sparse_stage_body_divergence(mode):
    """With y0 = delta_hat0 = 0 the fastest mode of the unmatched loop (the
    root agent's y - k_s*delta_hat at -k_d) has no share of z0, so rounding
    noise seeds it, and two summation orders (CSR and dense A) reach
    overflow a sample apart.  The run must still stop at its own first
    non-finite sample and keep the finite prefix."""
    lap, profile, params, z0 = _diverging_case(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        (written, out), _ = _run_and_dense(mode, lap, profile, z0, params)
        assert 1 < written < params.n_samples
        assert np.isfinite(out[:written]).all()
        # one more sample from the last finite state overflows; the constant
        # disturbance makes the continuation independent of the start time
        one = replace(params, t_final=params.sample_dt)
        assert not kernels.prefer_recurrence(lap.n_agents, lap.L.nnz,
                                             one.n_steps, one.sample_every,
                                             len(profile.bases))
        nxt = np.empty((2, z0.shape[0]))
        assert kernels.rk4_closed_loop(*_loop(mode, lap, profile).blocks(), lap.L,
                                       out[written - 1], profile,
                                       one.dt, one.n_steps, one.sample_every, nxt) == 1


@pytest.mark.parametrize("mode", ["matched", "unmatched"])
def test_divergence_well_conditioned_paths_agree(mode):
    """With y0 = delta_hat0 = 1 the fastest modes start at order one, so the
    run (on the CSR A), the recurrence on the dense A, the stage body on the
    dense A and the generic path overflow at the same sample."""
    lap, profile, params, z0 = _diverging_case(1.0)
    C_L, C_I, c_E = _loop(mode, lap, profile).blocks()
    with np.errstate(over="ignore", invalid="ignore"):
        (w_sparse, sparse), (w_dense, dense) = _run_and_dense(mode, lap, profile, z0, params)
        w_rec, rec = _run_recurrence(kernels._dense_system(C_L, C_I, lap.L), c_E, profile, z0,
                                     params)
        oracle = np.empty_like(dense)
        w_oracle = _rk4_generic(_loop(mode, lap, profile).field, z0, params, oracle)
    assert 1 < w_sparse < params.n_samples
    assert w_sparse == w_dense == w_rec == w_oracle
    scale = np.abs(oracle[:w_oracle]).max(axis=1)
    for path in (sparse, rec, dense):
        assert np.isfinite(path[:w_sparse]).all()
        assert (np.abs(path[:w_sparse] - oracle[:w_oracle]).max(axis=1) <= 1e-10 * scale).all()


def _spy(monkeypatch, name):
    """Wrap ``kernels.<name>`` so that each call's arguments and result are
    recorded; returns the list of (args, kwargs, result)."""
    calls = []
    real = getattr(kernels, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result
    monkeypatch.setattr(kernels, name, spy)
    return calls


def _two_segment_case(lap, rng, t_switch):
    n = lap.n_agents
    profile = DisturbanceProfile((
        Segment(0.0, rng.uniform(-0.3, 0.3, n), hyperbolic_coeff=1.0),
        Segment(t_switch, rng.uniform(-0.3, 0.3, n), exp_coeff=1.0, exp_rate=0.2),
    ))
    z0 = np.concatenate([rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 0.5, n), np.zeros(n)])
    return profile, z0


@pytest.mark.parametrize("mode", ["matched", "unmatched"])
@pytest.mark.parametrize("sample_every", [1, 10, 200])
def test_sparse_recurrence_agrees_with_stage_bodies(monkeypatch, mode, sample_every):
    """The recurrence on the CSR A (cap raised so that it folds as deep as
    its set-up allows) and on the dense A, and the stage body on the CSR A
    and on the dense A agree within 1e-12 and stay within 1e-10 of the
    generic RK4 oracle.  A tree with extra edges; the switch at step 253
    lies strictly inside a block for every fold above 1."""
    monkeypatch.setattr(sparsity, "SPARSE_MAX_FILL", 1.0)
    folds = _spy(monkeypatch, "_sparse_fold")
    lap, rng = _large_shuffled_lap(8, n=60)
    profile, z0 = _two_segment_case(lap, rng, 0.253)
    params = SimParams(t_final=0.6, dt=1e-3, sample_every=sample_every)
    C_L, C_I, c_E = _loop(mode, lap, profile).blocks()
    A = kernels._csr_system(C_L, C_I, lap.L)
    w_rec, rec = _run_recurrence(A, c_E, profile, z0, params)
    (_, _, (f, _)), = folds
    assert f > 1 or sample_every == 1
    assert 253 % f or f == 1
    A_dense = kernels._dense_system(C_L, C_I, lap.L)
    w_rec_dense, rec_dense = _run_recurrence(A_dense, c_E, profile, z0, params)
    w_csr, csr = _run(kernels._rk4_stage, A, c_E, profile, z0, params)
    w_dense, dense = _run(kernels._rk4_stage, A_dense, c_E, profile, z0, params)
    assert w_rec == w_rec_dense == w_csr == w_dense == params.n_samples
    scale = np.abs(dense).max()
    for path in (rec, rec_dense, csr):
        assert np.abs(path - dense).max() <= 1e-12 * scale

    loop_cls, gains = (MatchedLoop, MATCHED) if mode == "matched" else (UnmatchedLoop, UNMATCHED)
    oracle = np.empty_like(dense)
    field = _frozen_segment_field(loop_cls, gains, lap, profile, params.dt)
    assert _rk4_generic(field, z0, params, oracle) == params.n_samples
    for path in (rec, rec_dense, csr, dense):
        assert np.abs(path - oracle).max() < 1e-10


def test_fill_cap_limits_fold_on_long_path(monkeypatch):
    """On a path the powers of M fill in (bandwidth grows with the power), so
    the default cap, not the step count, stops the fold: on 150 agents M^4
    passes 5 % of N^2, so sample_every = 10 folds 2 steps, not 10."""
    n = 150
    lap = build_laplacian(DirectedGraph(np.diag(np.ones(n - 1), -1)))
    profile, z0 = _two_segment_case(lap, np.random.default_rng(2), 0.253)
    params = SimParams(t_final=1.0, dt=1e-3, sample_every=10)
    blocks = _loop("matched", lap, profile).blocks()
    A = kernels._csr_system(*blocks[:2], lap.L)
    M = kernels._step_operator(A, params.dt)
    cap = sparsity.SPARSE_MAX_FILL * A.shape[0] ** 2
    powers = [M]
    for _ in range(3):
        powers.append(powers[-1] @ M)
    assert powers[2].nnz <= cap < powers[3].nnz
    folds = _spy(monkeypatch, "_sparse_fold")
    recurrence = _spy(monkeypatch, "_rk4_recurrence")
    out = np.empty((params.n_samples, z0.shape[0]))
    written = kernels.rk4_closed_loop(*blocks, lap.L, z0, profile, params.dt, params.n_steps,
                                      params.sample_every, out)
    (args, _, _), = recurrence
    assert args[1].format == "csr"
    (_, _, (f, M_f)), = folds
    assert f == kernels.largest_divisor_at_most(10, 3) == 2
    assert (M_f != powers[1]).nnz == 0
    w_csr, csr = _run(kernels._rk4_stage, A, blocks[2], profile, z0, params)
    assert written == w_csr == params.n_samples
    assert np.abs(out - csr).max() <= 1e-12 * np.abs(csr).max()


def test_zero_cap_falls_back_to_stage_body(monkeypatch):
    """With a fill cap of 0 even M is too full: the stage body runs on the
    CSR A, with the same bits as calling it directly."""
    monkeypatch.setattr(sparsity, "SPARSE_MAX_FILL", 0.0)
    stage = _spy(monkeypatch, "_rk4_stage")
    recurrence = _spy(monkeypatch, "_rk4_recurrence")
    lap, rng = _large_shuffled_lap(9, n=200)
    profile, z0 = _two_segment_case(lap, rng, 0.253)
    params = SimParams(t_final=0.3, dt=1e-3, sample_every=10)
    C_L, C_I, c_E = _loop("matched", lap, profile).blocks()
    out = np.empty((params.n_samples, z0.shape[0]))
    assert kernels.rk4_closed_loop(C_L, C_I, c_E, lap.L, z0, profile, params.dt,
                                   params.n_steps, params.sample_every, out) == params.n_samples
    assert not recurrence
    (args, _, _), = stage
    assert args[0].format == "csr"
    _, direct = _run(kernels._rk4_stage, kernels._csr_system(C_L, C_I, lap.L), c_E,
                     profile, z0, params)
    assert np.array_equal(out, direct)


def test_600_agent_tree_takes_sparse_recurrence(monkeypatch):
    """A 600-agent tree, the benchmark's large graph: with the default cap the
    run folds on the CSR operator, and the stage body does not run."""
    stage = _spy(monkeypatch, "_rk4_stage")
    recurrence = _spy(monkeypatch, "_rk4_recurrence")
    folds = _spy(monkeypatch, "_sparse_fold")
    rng = np.random.default_rng(4)
    lap = build_laplacian(random_tree_graph(rng, 600))
    profile, z0 = _two_segment_case(lap, rng, 0.05)
    params = SimParams(t_final=0.1, dt=1e-3, sample_every=10)
    C_L, C_I, c_E = _loop("matched", lap, profile).blocks()
    out = np.empty((params.n_samples, z0.shape[0]))
    assert kernels.rk4_closed_loop(C_L, C_I, c_E, lap.L, z0, profile, params.dt,
                                   params.n_steps, params.sample_every, out) == params.n_samples
    (args, _, _), = recurrence
    assert args[1].format == "csr" and not stage
    (_, _, (f, _)), = folds
    assert f > 1
    _, csr = _run(kernels._rk4_stage, kernels._csr_system(C_L, C_I, lap.L), c_E,
                  profile, z0, params)
    assert np.abs(out - csr).max() <= 1e-12 * np.abs(csr).max()


class _TrackedPower:
    """A power M^k of a CSR ``M`` whose products record, in ``formed``, the
    exponent of each power they form."""

    def __init__(self, M, k, formed):
        self.M, self.k, self.formed = M, k, formed
        self.shape, self.nnz = M.shape, M.nnz

    def __matmul__(self, other):
        self.formed.append(self.k + other.k)
        return _TrackedPower(self.M @ other.M, self.k + other.k, self.formed)


@pytest.mark.parametrize("n_steps, formed", [(1000, [2, 4, 5, 10]), (100, [2])])
def test_sparse_fold_forms_only_powers_toward_a_fold(n_steps, formed):
    """On a 600-agent tree, the benchmark's large graph, sampled every 10
    steps: over its 1000 steps the fold squares its way to M^10 through M^2,
    M^4 and M^5 = M^4 M, every power a candidate fold (a divisor of 10) but
    M^4, the square that M^5 needs, and none above the fold.  Formed one
    product at a time, the powers went up to M^9, and M^6 ... M^9 can never
    be a fold.  Over the benchmark's 100-step warm-up the cost stop keeps
    the shallow fold 2.  The fold is M^f within rounding."""
    rng = np.random.default_rng(4)
    lap = build_laplacian(random_tree_graph(rng, 600))
    profile, _ = _two_segment_case(lap, rng, 0.05)
    C_L, C_I, _ = _loop("matched", lap, profile).blocks()
    M = kernels._step_operator(kernels._csr_system(C_L, C_I, lap.L), 1e-3)
    exponents = []
    f, M_f = kernels._sparse_fold(_TrackedPower(M, 1, exponents), 10, n_steps)
    assert exponents == formed and f == M_f.k == formed[-1]
    power = M
    for _ in range(f - 1):
        power = power @ M
    assert abs(M_f.M - power).max() <= 1e-13 * abs(power).max()


class _PoisonedBlock:
    """``M^f`` whose product goes NaN at one block, as an overflow would."""

    def __init__(self, M_f, bad_call):
        self.M_f, self.bad_call, self.calls = M_f, bad_call, 0

    def __matmul__(self, z):
        self.calls += 1
        return self.M_f @ z * (np.nan if self.calls == self.bad_call else 1.0)


def _poisoned_run(monkeypatch, storage, fold=1):
    """The recurrence on a ``storage`` A folding ``fold`` steps, with a block
    of its second chunk poisoned; returns the stage body's calls in the run,
    the run's (written, out), the stage body's own run, the parameters and
    the number of steps in the first chunk.

    CSR: a 20-agent tree whose ``M^f`` goes NaN at one block.  Dense: the
    unmatched ``_three_agent_case``, every step sampled, whose scan returns
    NaN at one block of its second chunk."""
    if storage == "csr":
        n_steps = kernels._CHUNK_STEPS + 500
        monkeypatch.setattr(kernels, "_sparse_fold", lambda M, se, steps: (
            fold, _PoisonedBlock(M if fold == 1 else M @ M, kernels._CHUNK_STEPS // fold + 100)))
        lap, rng = _large_shuffled_lap(10, n=20)
        profile, z0 = _two_segment_case(lap, rng, 1.0)
        params = SimParams(t_final=n_steps * 1e-3, dt=1e-3, sample_every=fold)
        A, c_E = _csr_system("unmatched", lap, profile)
        chunks = [kernels._CHUNK_STEPS]
    else:
        A, c_E, profile, z0, params = _three_agent_case("unmatched", fold)
        real_scan, chunks = kernels._scan_blocks, []

        def poisoned(T, P, F, z):
            # the first chunk is whole superblocks, so the second call is the
            # second chunk's, not a short superblock's
            chunks.append(len(F) * fold)
            real_scan(T, P, F, z)
            if len(chunks) == 2:
                F[100] = np.nan
        monkeypatch.setattr(kernels, "_scan_blocks", poisoned)
    direct = _run(kernels._rk4_stage, A, c_E, profile, z0, params)
    stage = _spy(monkeypatch, "_rk4_stage")
    run = _run_recurrence(A, c_E, profile, z0, params)
    return stage, run, direct, params, chunks[0]


@pytest.mark.parametrize("storage", ["csr", "dense"])
def test_non_finite_block_is_replayed_by_stage_body(monkeypatch, storage):
    """A block of the second chunk goes non-finite where the stage body stays
    finite: the chunk is replayed from its first step by the stage body,
    whose count (all samples) is returned, not the recurrence's."""
    stage, (written, out), (_, direct), params, first_chunk = _poisoned_run(monkeypatch, storage)
    (args, kwargs, result), = stage
    assert first_chunk < params.n_steps
    assert kwargs == {"k_start": first_chunk}
    assert written == result == params.n_samples
    assert np.isfinite(out).all()
    assert np.abs(out - direct).max() <= 1e-12 * np.abs(direct).max()


def test_non_finite_folded_block_is_replayed_at_its_step(monkeypatch):
    """As above on the CSR A with two steps per block: the replay starts at
    the chunk's first step, not at its first block."""
    stage, (written, out), (_, direct), params, first_chunk = _poisoned_run(monkeypatch, "csr", 2)
    (args, kwargs, result), = stage
    assert kwargs == {"k_start": first_chunk}
    assert written == result == params.n_samples
    assert np.abs(out - direct).max() <= 1e-12 * np.abs(direct).max()
