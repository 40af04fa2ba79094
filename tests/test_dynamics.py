"""Disturbance profiles and closed-loop vector fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_net import kernels
from consensus_net.dynamics import (
    DisturbanceProfile,
    MatchedLoop,
    Segment,
    SimState,
    eval_disturbance,
    matched_control,
    matched_field,
    profile_from_json,
    profile_to_json,
    unmatched_control,
    unmatched_field,
    UnmatchedLoop,
)
from consensus_net.errors import ValidationError
from consensus_net.gains import MatchedGains, UnmatchedGains
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net.scenario import builtin_scenario

from conftest import GRAPH_FAMILIES, random_family_graph, random_tree_graph

MATCHED = MatchedGains(gamma1=6.0, gamma2=17.0, gamma3=4.0, gamma4=25.8)


def scalar_lap():
    return build_laplacian(DirectedGraph(np.zeros((1, 1))))


def chain2_lap():
    return build_laplacian(DirectedGraph(np.array([[0.0, 0.0], [1.0, 0.0]])))


@pytest.fixture(scope="module")
def benchmark_profile():
    return builtin_scenario("paper-matched").disturbance


def test_benchmark_profile_left_of_switch(benchmark_profile):
    d = eval_disturbance(benchmark_profile, 50.0, side="left")
    expected = np.array([0.1, -0.1, 0.2, -0.2, 0.1]) + 1.0 / 62.0
    assert np.allclose(d, expected, atol=1e-15)
    # the scalar term quoted for t = 50
    assert 1.0 / 62.0 == pytest.approx(0.0161, abs=5e-5)


def test_benchmark_profile_right_continuity(benchmark_profile):
    d_right = eval_disturbance(benchmark_profile, 50.0)
    expected = np.array([0.2, -0.2, -0.1, 0.2, -0.3]) + np.exp(-0.2 * 50.0) / 62.0
    assert np.allclose(d_right, expected, atol=1e-15)


def test_benchmark_profile_long_time_limit(benchmark_profile):
    d = eval_disturbance(benchmark_profile, 1e6)
    assert np.allclose(d, [0.2, -0.2, -0.1, 0.2, -0.3], atol=1e-9)


def test_constant_profile():
    p = DisturbanceProfile.constant([1.0, 2.0])
    for t in (0.0, 3.3, 1e4):
        assert np.array_equal(eval_disturbance(p, t), [1.0, 2.0])


def test_profile_validation():
    with pytest.raises(ValidationError, match=r"segments\[0\]\.t_start"):
        DisturbanceProfile((Segment(1.0, np.zeros(2)),))
    with pytest.raises(ValidationError, match="strictly increase"):
        DisturbanceProfile((Segment(0.0, np.zeros(2)), Segment(0.0, np.ones(2))))


def test_profile_json_round_trip(benchmark_profile):
    doc = profile_to_json(benchmark_profile)
    p2 = profile_from_json(doc)
    for t in (0.0, 12.5, 50.0, 80.0):
        assert np.array_equal(eval_disturbance(benchmark_profile, t), eval_disturbance(p2, t))


@given(st.floats(0.0, 99.0))
@settings(max_examples=60, deadline=None)
def test_profile_continuous_within_segments(t):
    p = builtin_scenario("paper-matched").disturbance
    switch = 50.0
    if abs(t - switch) < 1e-6:
        return
    eps = min(1e-7, abs(t - switch) / 4) or 1e-7
    d0 = eval_disturbance(p, t)
    d1 = eval_disturbance(p, t + eps)
    assert np.abs(d1 - d0).max() < 1e-5


def test_matched_control_consensus_state(default_lap):
    n = 5
    state = SimState(x=3.2 * np.ones(n), y=np.zeros(n), delta_hat=np.zeros(n))
    u = matched_control(state, MATCHED, default_lap)
    assert np.abs(u).max() < 1e-12


def test_matched_control_scalar():
    state = SimState(x=[7.0], y=[2.0], delta_hat=[1.0])
    u = matched_control(state, MATCHED, scalar_lap())
    assert u[0] == pytest.approx(-17.0 * 2.0 - 4.0 * 1.0, abs=1e-12)  # -38


def test_matched_control_two_node_chain():
    state = SimState(x=[1.0, 0.0], y=[0.0, 0.0], delta_hat=[0.0, 0.0])
    u = matched_control(state, MATCHED, chain2_lap())
    assert np.allclose(u, [0.0, 6.0], atol=1e-12)


def test_matched_field_equilibrium():
    n = 5
    lap = build_laplacian(random_tree_graph(np.random.default_rng(1), n, extra_edges=2))
    d = np.array([0.4, -0.4, 0.8, -0.8, 0.4])
    p = DisturbanceProfile.constant(d)
    state = SimState(x=2.0 * np.ones(n), y=np.zeros(n), delta_hat=d / MATCHED.gamma3)
    ds = matched_field(state, MATCHED, lap, p)
    for comp in (ds.x, ds.y, ds.delta_hat):
        assert np.abs(comp).max() < 1e-12


def test_matched_field_zero():
    p = DisturbanceProfile.constant([0.0])
    state = SimState(x=[0.0], y=[0.0], delta_hat=[0.0])
    ds = matched_field(state, MATCHED, scalar_lap(), p)
    assert ds.x[0] == 0 and ds.y[0] == 0 and ds.delta_hat[0] == 0


def test_matched_field_scalar_values():
    p = DisturbanceProfile.constant([0.0])
    state = SimState(x=[0.0], y=[1.0], delta_hat=[0.0])
    ds = matched_field(state, MATCHED, scalar_lap(), p)
    assert ds.x[0] == pytest.approx(1.0)
    assert ds.y[0] == pytest.approx(-17.0)
    assert ds.delta_hat[0] == pytest.approx(25.8)


def test_unmatched_control_zero_state():
    g = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)
    state = SimState(x=[0.0], y=[0.0], delta_hat=[0.0])
    assert unmatched_control(state, g, scalar_lap())[0] == 0.0


def test_unmatched_control_position_feedthrough():
    # the integral feedthrough applies (alpha1*x + nu*yt) once, unscaled, so
    # the consensus-manifold position feedback is exactly alpha1
    g = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)
    state = SimState(x=[1.0], y=[0.0], delta_hat=[0.0])
    assert unmatched_control(state, g, scalar_lap())[0] == pytest.approx(-7.5, abs=1e-12)


def test_unmatched_control_velocity_terms():
    g = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)
    state = SimState(x=[0.0], y=[2.0], delta_hat=[1.0])
    # yt = 2 - 5 = -3; u = -k_d*yt - nu*yt = 22.5 + 9
    assert unmatched_control(state, g, scalar_lap())[0] == pytest.approx(31.5, abs=1e-12)


def test_unmatched_field_zero_state_with_disturbance():
    g = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)
    n = 5
    lap = build_laplacian(random_tree_graph(np.random.default_rng(5), n))
    p = DisturbanceProfile.constant(np.ones(n))
    state = SimState(x=np.zeros(n), y=np.zeros(n), delta_hat=np.zeros(n))
    ds = unmatched_field(state, g, lap, p)
    assert np.allclose(ds.x, 1.0, atol=1e-15)
    assert np.abs(ds.y).max() == 0.0
    assert np.abs(ds.delta_hat).max() == 0.0


def test_unmatched_field_velocity_offset_kills_drive():
    g = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)
    p = DisturbanceProfile.constant([0.0])
    state = SimState(x=[0.0], y=[5.0 * 0.7], delta_hat=[0.7])  # yt = 0
    ds = unmatched_field(state, g, scalar_lap(), p)
    assert ds.delta_hat[0] == 0.0
    assert ds.x[0] == pytest.approx(5.0 * 0.7)


def test_unmatched_field_integrator_scaling():
    # with k_s = 1 the integrator rate equals the drive: dhat' = -alpha1*x
    g = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=1.0, alpha1=7.5, nu=3.0)
    p = DisturbanceProfile.constant([0.0])
    state = SimState(x=[1.0], y=[0.0], delta_hat=[0.0])
    ds = unmatched_field(state, g, scalar_lap(), p)
    assert ds.delta_hat[0] == pytest.approx(-7.5, abs=1e-12)
    # general k_s scales the integrator so the feedthrough equals k_s*dhat'
    g5 = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)
    ds5 = unmatched_field(state, g5, scalar_lap(), p)
    assert g5.k_s * ds5.delta_hat[0] == pytest.approx(-7.5, abs=1e-12)


def test_translation_invariance_matched():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        lap = build_laplacian(random_tree_graph(rng, n, extra_edges=1))
        p = DisturbanceProfile.constant(rng.normal(size=n))
        state = SimState(x=rng.normal(size=n), y=rng.normal(size=n),
                         delta_hat=rng.normal(size=n))
        shift = rng.normal()
        shifted = SimState(x=state.x + shift, y=state.y, delta_hat=state.delta_hat)
        d0 = matched_field(state, MATCHED, lap, p)
        d1 = matched_field(shifted, MATCHED, lap, p)
        assert np.abs(d0.y - d1.y).max() < 1e-10
        assert np.abs(d0.delta_hat - d1.delta_hat).max() < 1e-10


def test_mean_field_consistency_matched():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        lap = build_laplacian(random_tree_graph(rng, n, extra_edges=2))
        x = rng.normal(size=n)
        # the weighted average never sees the coupling term
        assert abs(lap.v_left @ (MATCHED.gamma1 * (lap.L @ x))) < 1e-10


def test_mean_field_consistency_unmatched():
    g = UnmatchedGains(k_x=3.4, k_d=7.5, k_s=5.0, alpha1=7.5, nu=3.0)
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        lap = build_laplacian(random_tree_graph(rng, n, extra_edges=2))
        p = DisturbanceProfile.constant(rng.normal(size=n))
        state = SimState(x=rng.normal(size=n), y=rng.normal(size=n),
                         delta_hat=rng.normal(size=n))
        ds = unmatched_field(state, g, lap, p)
        v = lap.v_left
        yt = state.y - g.k_s * state.delta_hat
        # v . (y' - k_s*dh') = -k_d * v.yt : the average-velocity decay law
        lhs = v @ (ds.y - g.k_s * ds.delta_hat)
        assert lhs == pytest.approx(-g.k_d * float(v @ yt), abs=1e-10)


def test_dimension_mismatch():
    state = SimState(x=[1.0, 2.0], y=[0.0, 0.0], delta_hat=[0.0, 0.0])
    with pytest.raises(ValidationError):
        matched_control(state, MATCHED, scalar_lap())


_GAIN = st.floats(min_value=0.05, max_value=40.0)


@given(st.sampled_from(GRAPH_FAMILIES), st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.lists(_GAIN, min_size=5, max_size=5),
       st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_blocks_reproduce_fields(family, n, seed, gains, t):
    """``A z + E d(t)`` from each loop's ``blocks()`` is the loop's field, and
    the CSR A the stage body steps equals the dense A entry for entry."""
    rng = np.random.default_rng(seed)
    lap = build_laplacian(random_family_graph(rng, n, family))
    profile = DisturbanceProfile((
        Segment(0.0, rng.normal(size=n), hyperbolic_coeff=rng.normal()),
        Segment(float(rng.uniform(0.0, 100.0)), rng.normal(size=n), exp_coeff=rng.normal(),
                exp_rate=float(rng.uniform(0.0, 1.0))),
    ))
    z = rng.normal(size=3 * n)
    d = eval_disturbance(profile, t)
    for loop in (MatchedLoop(MatchedGains(*gains[:4]), lap, profile),
                 UnmatchedLoop(UnmatchedGains(*gains), lap, profile)):
        C_L, C_I, c_E = loop.blocks()
        A = kernels._dense_system(C_L, C_I, lap.L)
        Ed = np.kron(c_E, d)
        # relative to the size of the terms the field sums
        scale = (np.abs(A) @ np.abs(z) + np.abs(Ed)).max()
        assert np.abs(A @ z + Ed - loop.field(t, z)).max() <= 1e-12 * scale
        assert np.array_equal(kernels._csr_system(C_L, C_I, lap.L).toarray(), A)
