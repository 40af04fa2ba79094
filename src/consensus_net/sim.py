"""Fixed-step classical Runge-Kutta integration of the closed loops.

The integrator is deliberately fixed-step: the loops are non-stiff for
sensible gains, disturbance switches can be aligned exactly to the step grid,
and repeated runs are bitwise identical.  Switch times that do not sit on
the grid are rejected up front rather than rounded; scenario loading can
adjust dt on request instead.

``integrate`` accepts either a ``dynamics.ClosedLoop``, which
``kernels.rk4_closed_loop`` steps from its coefficient blocks and its
``DisturbanceProfile`` (fast path, with the frozen-segment switching rule),
or an arbitrary ``f(t, z) -> dz`` callable (plain Python path, for oracles
and smooth test systems).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dynamics import ClosedLoop, DisturbanceProfile, SimState
from .errors import IntegrationDivergedError, ValidationError

#: returned by convergence_order when both refinement errors vanish
EXACT_ORDER = math.inf

_GRID_TOL = 1e-9

#: most steps a horizon may take: above 2**53 a float no longer tells
#: consecutive step counts apart, so the grid check below means nothing
_MAX_STEPS = 2 ** 53


@dataclass(frozen=True)
class SimParams:
    """Integration horizon and step control.

    ``sample_every`` records every k-th step (the first sample is always the
    initial state).
    """

    t_final: float
    dt: float = 1e-3
    sample_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValidationError(f"dt: must be positive, got {self.dt}")
        if not (self.t_final > 0 and math.isfinite(self.t_final)):
            raise ValidationError(f"t_final: must be positive, got {self.t_final}")
        if self.dt > self.t_final:
            raise ValidationError(f"dt: {self.dt} exceeds t_final {self.t_final}")
        if not self.t_final / self.dt <= _MAX_STEPS:
            raise ValidationError(
                f"t_final: {self.t_final} is more than 2**53 steps of dt = {self.dt}")
        n_steps = round(self.t_final / self.dt)
        if n_steps < 1 or abs(n_steps * self.dt - self.t_final) > _GRID_TOL * max(1.0, self.t_final):
            raise ValidationError(
                f"t_final: {self.t_final} is not an integer multiple of dt = {self.dt}")
        if not (isinstance(self.sample_every, int) and self.sample_every >= 1):
            raise ValidationError(f"sample_every: must be a positive integer, got {self.sample_every}")
        if n_steps % self.sample_every != 0:
            raise ValidationError(
                f"sample_every: {self.sample_every} does not divide the step count {n_steps}")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def n_samples(self) -> int:
        return self.n_steps // self.sample_every + 1

    @property
    def sample_dt(self) -> float:
        return self.dt * self.sample_every


@dataclass
class Trajectory:
    """Sampled history: uniform times and one state row per sample.

    Closed-loop runs use the stacked (x, y, delta_hat) layout, which the
    accessor properties assume; generic fields may have any state width.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.shape[0]:
            raise ValidationError("trajectory: times and states must have matching length")

    @property
    def n_agents(self) -> int:
        if self.states.shape[1] % 3 != 0:
            raise ValidationError("trajectory: state width is not 3*n_agents")
        return self.states.shape[1] // 3

    @property
    def x(self) -> np.ndarray:
        return self.states[:, : self.n_agents]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, self.n_agents: 2 * self.n_agents]

    @property
    def delta_hat(self) -> np.ndarray:
        return self.states[:, 2 * self.n_agents:]

    def index_at(self, t: float) -> int:
        """Index of the sample closest to t (must lie within half a sample)."""
        if self.times.shape[0] == 0:
            raise ValidationError("trajectory: empty")
        idx = int(np.argmin(np.abs(self.times - t)))
        step = self.times[1] - self.times[0] if self.times.shape[0] > 1 else math.inf
        if abs(self.times[idx] - t) > 0.51 * step:
            raise ValidationError(f"no sample near t = {t}")
        return idx

    def state_at(self, t: float) -> SimState:
        idx = self.index_at(t)
        return SimState.unpack(self.states[idx].copy(), float(self.times[idx]))


def _check_switches_on_grid(profile: DisturbanceProfile, params: SimParams):
    for s in profile.switch_times:
        steps = s / params.dt
        if not math.isfinite(steps):
            raise ValidationError(
                f"disturbance switch at t = {s} is out of range for dt = {params.dt}")
        k = round(steps)
        if abs(k * params.dt - s) > _GRID_TOL * max(1.0, abs(s)):
            raise ValidationError(
                f"disturbance switch at t = {s} is not an integer multiple of dt = {params.dt}; "
                "choose a compatible dt or use the align-dt option")


def _as_initial_vector(x0) -> np.ndarray:
    if isinstance(x0, SimState):
        z0 = x0.pack()
    else:
        z0 = np.asarray(x0, dtype=float).ravel().copy()
    if not np.all(np.isfinite(z0)):
        raise ValidationError("initial state: non-finite entries")
    return z0


def integrate(loop_or_field, x0, params: SimParams) -> Trajectory:
    """Run classical RK4 over the horizon and return the sampled trajectory.

    ``loop_or_field`` is either a ``ClosedLoop`` (fast path, disturbance
    switches validated against the grid and its coefficient blocks checked
    finite; ``kernels`` describes its two paths and the switching rule) or a
    callable ``f(t, z) -> dz`` (plain path; the field must be smooth over the
    horizon).

    A non-finite state aborts with IntegrationDivergedError carrying the
    partial trajectory up to the last finite sample, and that sample's time.
    """
    z0 = _as_initial_vector(x0)
    times = np.arange(params.n_samples) * params.sample_dt
    out = np.empty((params.n_samples, z0.shape[0]))

    if isinstance(loop_or_field, ClosedLoop):
        loop = loop_or_field
        if z0.shape[0] != 3 * loop.n_agents:
            raise ValidationError(
                f"initial state: expected {3 * loop.n_agents} entries, got {z0.shape[0]}")
        _check_switches_on_grid(loop.profile, params)
        blocks = loop.blocks()
        if not all(np.isfinite(block).all() for block in blocks):
            raise ValidationError(
                f"{loop.mode} loop: the gains give non-finite system coefficients")
        written = kernels.rk4_closed_loop(*blocks, loop.lap.L, z0, loop.profile,
                                          params.dt, params.n_steps, params.sample_every, out)
    else:
        field_fn = loop_or_field
        written = _rk4_generic(field_fn, z0, params, out)

    if written < params.n_samples:
        partial = Trajectory(times[:written], out[:written].copy())
        last_t = float(times[written - 1]) if written > 0 else 0.0
        raise IntegrationDivergedError(
            f"state became non-finite after t = {last_t}", last_time=last_t, partial=partial)
    return Trajectory(times, out)


def _rk4_generic(f, z0, params: SimParams, out) -> int:
    dt = params.dt
    z = z0.copy()
    out[0] = z
    for k in range(params.n_steps):
        t = k * dt
        k1 = f(t, z)
        k2 = f(t + 0.5 * dt, z + (0.5 * dt) * k1)
        k3 = f(t + 0.5 * dt, z + (0.5 * dt) * k2)
        k4 = f(t + dt, z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % params.sample_every == 0:
            row = (k + 1) // params.sample_every
            if not np.isfinite(z).all():
                return row
            out[row] = z
    return params.n_samples


def convergence_order(loop_or_field, x0, params: SimParams) -> float:
    """Observed order from runs at dt and dt/2 against a dt/100 reference.

    Returns EXACT_ORDER (inf) when both refinement errors are at rounding
    level, e.g. for constant fields.
    """
    def final_state(dt_scale: int):
        p = SimParams(t_final=params.t_final, dt=params.dt / dt_scale, sample_every=1)
        traj = integrate(loop_or_field, x0, p)
        return traj.states[-1]

    z_ref = final_state(100)
    e1 = float(np.abs(final_state(1) - z_ref).max())
    e2 = float(np.abs(final_state(2) - z_ref).max())
    if max(e1, e2) < 1e-13:
        return EXACT_ORDER
    if e2 == 0.0:
        return EXACT_ORDER
    return math.log2(e1 / e2)
