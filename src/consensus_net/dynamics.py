"""Disturbance signals and the two closed-loop vector fields.

A disturbance is a ``DisturbanceProfile``: piecewise base vectors plus a
scalar vanishing term, written once in ``DisturbanceProfile.vanishing``;
``eval_disturbance``, the integrator and the analysis layer all evaluate it
through the profile.

The simulator always integrates physical per-agent coordinates
``(x, y, delta_hat)``: positions, velocities and the controller's internal
integral states.  Transformed coordinates (velocity offsets, estimate
errors) are derived in the analysis layer, never integrated, so the true
disturbance stays out of the controller path.

Matched loop (disturbance enters the velocity equation):

    x'  = y
    y'  = u + d(t),   u = -gamma1*L x - gamma2*y - gamma3*delta_hat
    dh' = gamma1*L x + gamma4*y

Unmatched loop (disturbance enters the position equation):

    x'  = y + d(t)
    y'  = u,          u = -k_x*L x - k_d*yt - (alpha1*x + nu*yt)
    dh' = -(alpha1*x + nu*yt) / k_s,   yt = y - k_s*delta_hat

Both loops are linear, z' = A z + E d(t); each loop's ``blocks()`` gives the
3x3 coefficient blocks from which ``kernels`` builds A and E.  The field
functions below stay written out as the equations above: they are the
independent reference the integrator is tested against.

In the unmatched loop the integral feedthrough in u equals k_s * dh', so the
scaled state k_s*delta_hat carries the integral action and the closed loop is
invariant to k_s up to that relabeling; the velocity offset yt then obeys
yt' = -k_x*L x - k_d*yt with no disturbance term at all, which is what makes
the weighted-average velocity decay at exactly rate k_d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, finite_number
from .gains import MatchedGains, UnmatchedGains
from .graph import LaplacianData

#: the vanishing disturbance terms share the denominator (12 + t)
HYPERBOLIC_OFFSET = 12.0


@dataclass(frozen=True)
class Segment:
    """One piece of a piecewise disturbance: active from ``t_start`` until the
    next segment starts.

    Value at time t:  base + (c_h + c_e * exp(-r*t)) / (HYPERBOLIC_OFFSET + t)
    per agent, where the scalar vanishing term is broadcast to every agent.
    """

    t_start: float
    base: np.ndarray
    hyperbolic_coeff: float = 0.0
    exp_coeff: float = 0.0
    exp_rate: float = 0.0

    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        if base.ndim != 1:
            raise ValidationError(f"segment base: expected a vector, got shape {base.shape}")
        base.setflags(write=False)
        object.__setattr__(self, "base", base)


@dataclass(frozen=True)
class DisturbanceProfile:
    """Ordered disturbance segments; evaluation is right-continuous at the
    switch times.

    The segments are also held as read-only arrays with one entry per
    segment: ``starts``, ``bases`` (segments x agents), ``c_h``, ``c_e`` and
    ``rates``.  The integrator and the analysis layer read these.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValidationError("disturbance: needs at least one segment")
        if segs[0].t_start != 0.0:
            raise ValidationError(f"segments[0].t_start: must be 0, got {segs[0].t_start}")
        n = segs[0].base.shape[0]
        for k, seg in enumerate(segs):
            if seg.base.shape[0] != n:
                raise ValidationError(f"segments[{k}].base: expected length {n}, got {seg.base.shape[0]}")
            if k > 0 and not seg.t_start > segs[k - 1].t_start:
                raise ValidationError(f"segments[{k}].t_start: start times must strictly increase")
        object.__setattr__(self, "segments", segs)
        for name, values in (("starts", [s.t_start for s in segs]),
                             ("bases", [s.base for s in segs]),
                             ("c_h", [s.hyperbolic_coeff for s in segs]),
                             ("c_e", [s.exp_coeff for s in segs]),
                             ("rates", [s.exp_rate for s in segs])):
            arr = np.array(values, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_agents(self) -> int:
        return self.bases.shape[1]

    @property
    def switch_times(self) -> tuple:
        return tuple(seg.t_start for seg in self.segments[1:])

    @classmethod
    def constant(cls, d) -> "DisturbanceProfile":
        return cls((Segment(0.0, np.asarray(d, dtype=float)),))

    def segment_index(self, t, side: str = "right"):
        """Index of the segment active at t, or an array of indices for an
        array of times; ``side='left'`` gives the segment just before a switch
        time instead."""
        k = np.maximum(np.searchsorted(self.starts, t, side=side) - 1, 0)
        return int(k) if np.ndim(k) == 0 else k

    def vanishing(self, t, k):
        """The scalar vanishing term of segment ``k`` at time ``t``,
        elementwise over arrays of ``t`` and ``k``."""
        return (self.c_h[k] + self.c_e[k] * np.exp(-self.rates[k] * t)) / (HYPERBOLIC_OFFSET + t)

    def at(self, times, side: str = "right") -> np.ndarray:
        """Disturbance rows at each of ``times``: the array form of
        ``eval_disturbance``, with the sides of ``segment_index``."""
        times = np.asarray(times, dtype=float)
        if np.any(times < 0):
            raise ValidationError(f"t: must be >= 0, got {times[times < 0][0]}")
        k = self.segment_index(times, side)
        return self.bases[k] + self.vanishing(times, k)[:, None]


def eval_disturbance(profile: DisturbanceProfile, t: float, side: str = "right") -> np.ndarray:
    """Disturbance vector at time t (right-continuous at switches)."""
    if t < 0:
        raise ValidationError(f"t: must be >= 0, got {t}")
    k = profile.segment_index(t, side)
    return profile.bases[k] + profile.vanishing(t, k)


def profile_to_json(profile: DisturbanceProfile) -> dict:
    return {
        "segments": [
            {
                "t_start": seg.t_start,
                "base": [float(x) for x in seg.base],
                "hyperbolic_coeff": seg.hyperbolic_coeff,
                "exp_coeff": seg.exp_coeff,
                "exp_rate": seg.exp_rate,
            }
            for seg in profile.segments
        ]
    }


def profile_from_json(doc: dict) -> DisturbanceProfile:
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise ValidationError("disturbance: expected an object with a 'segments' list")
    segs = []
    for k, s in enumerate(doc["segments"]):
        try:
            base = [finite_number(x) for x in s["base"]]
            t_start = finite_number(s["t_start"])
            coeffs = [finite_number(s.get(key, 0.0))
                      for key in ("hyperbolic_coeff", "exp_coeff", "exp_rate")]
        except (KeyError, TypeError, ValueError):
            raise ValidationError(
                f"disturbance.segments[{k}]: needs 't_start' and a numeric 'base' vector, "
                "all values finite") from None
        segs.append(Segment(t_start, base, *coeffs))
    return DisturbanceProfile(tuple(segs))


@dataclass
class SimState:
    """Per-agent stacked state at one time instant."""

    x: np.ndarray
    y: np.ndarray
    delta_hat: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.delta_hat = np.asarray(self.delta_hat, dtype=float)
        n = self.x.shape[0]
        if self.y.shape[0] != n or self.delta_hat.shape[0] != n:
            raise ValidationError("SimState: x, y, delta_hat must have equal length")

    @property
    def n_agents(self) -> int:
        return self.x.shape[0]

    def pack(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.delta_hat])

    @classmethod
    def unpack(cls, z: np.ndarray, t: float = 0.0) -> "SimState":
        n = z.shape[0] // 3
        return cls(z[:n].copy(), z[n:2 * n].copy(), z[2 * n:].copy(), t)


def _check_dims(state: SimState, lap: LaplacianData):
    if state.n_agents != lap.n_agents:
        raise ValidationError(
            f"state has {state.n_agents} agents but Laplacian is {lap.n_agents}x{lap.n_agents}")


def matched_control(state: SimState, g: MatchedGains, lap: LaplacianData) -> np.ndarray:
    """u = -gamma1*L x - gamma2*y - gamma3*delta_hat."""
    _check_dims(state, lap)
    return -g.gamma1 * (lap.L @ state.x) - g.gamma2 * state.y - g.gamma3 * state.delta_hat


def matched_field(state: SimState, g: MatchedGains, lap: LaplacianData,
                  p: DisturbanceProfile) -> SimState:
    """Time derivative of the matched closed loop at the state's time."""
    _check_dims(state, lap)
    lx = lap.L @ state.x
    d = eval_disturbance(p, state.t)
    u = -g.gamma1 * lx - g.gamma2 * state.y - g.gamma3 * state.delta_hat
    return SimState(
        x=state.y.copy(),
        y=u + d,
        delta_hat=g.gamma1 * lx + g.gamma4 * state.y,
        t=state.t,
    )


def unmatched_control(state: SimState, g: UnmatchedGains, lap: LaplacianData) -> np.ndarray:
    """u = -k_x*L x - k_d*yt - (alpha1*x + nu*yt) with yt = y - k_s*delta_hat."""
    _check_dims(state, lap)
    yt = state.y - g.k_s * state.delta_hat
    return -g.k_x * (lap.L @ state.x) - g.k_d * yt - (g.alpha1 * state.x + g.nu * yt)


def unmatched_field(state: SimState, g: UnmatchedGains, lap: LaplacianData,
                    p: DisturbanceProfile) -> SimState:
    """Time derivative of the unmatched closed loop at the state's time."""
    _check_dims(state, lap)
    yt = state.y - g.k_s * state.delta_hat
    drive = g.alpha1 * state.x + g.nu * yt
    u = -g.k_x * (lap.L @ state.x) - g.k_d * yt - drive
    d = eval_disturbance(p, state.t)
    return SimState(
        x=state.y + d,
        y=u,
        delta_hat=-drive / g.k_s,
        t=state.t,
    )


@dataclass(frozen=True)
class ClosedLoop:
    """A closed loop bundled for the integrator: gains, graph and
    disturbance.  Subclasses name their ``mode``, their written-out
    ``vector_field`` and their coefficient ``blocks()``."""

    gains: MatchedGains | UnmatchedGains
    lap: LaplacianData
    profile: DisturbanceProfile

    def __post_init__(self):
        if self.profile.n_agents != self.lap.n_agents:
            raise ValidationError(
                f"disturbance has {self.profile.n_agents} agents but graph has {self.lap.n_agents}")

    @property
    def n_agents(self) -> int:
        return self.lap.n_agents

    def field(self, t: float, z: np.ndarray) -> np.ndarray:
        state = SimState.unpack(z, t)
        return self.vector_field(state, self.gains, self.lap, self.profile).pack()


class MatchedLoop(ClosedLoop):
    """Matched closed loop: d enters y'."""

    mode = "matched"
    vector_field = staticmethod(matched_field)

    def blocks(self) -> tuple:
        """``(C_L, C_I, c_E)`` with ``A = kron(C_L, L) + kron(C_I, I_n)`` and
        ``E = kron(c_E, I_n)``, so that z' = A z + E d(t): d enters y'."""
        g = self.gains
        C_L = np.array([[0.0, 0.0, 0.0],
                        [-g.gamma1, 0.0, 0.0],
                        [g.gamma1, 0.0, 0.0]])
        C_I = np.array([[0.0, 1.0, 0.0],
                        [0.0, -g.gamma2, -g.gamma3],
                        [0.0, g.gamma4, 0.0]])
        return C_L, C_I, np.array([0.0, 1.0, 0.0])


class UnmatchedLoop(ClosedLoop):
    """Unmatched closed loop: d enters x'."""

    mode = "unmatched"
    vector_field = staticmethod(unmatched_field)

    def blocks(self) -> tuple:
        """``(C_L, C_I, c_E)`` with ``A = kron(C_L, L) + kron(C_I, I_n)`` and
        ``E = kron(c_E, I_n)``, so that z' = A z + E d(t): d enters x'."""
        g = self.gains
        C_L = np.array([[0.0, 0.0, 0.0],
                        [-g.k_x, 0.0, 0.0],
                        [0.0, 0.0, 0.0]])
        C_I = np.array([[0.0, 1.0, 0.0],
                        [-g.alpha1, -(g.k_d + g.nu), (g.k_d + g.nu) * g.k_s],
                        [-(g.alpha1 / g.k_s), -(g.nu / g.k_s), g.nu]])
        return C_L, C_I, np.array([1.0, 0.0, 0.0])
