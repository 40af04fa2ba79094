"""Derived quantities computed from trajectories.

This is the only layer that sees the true disturbance, evaluated at the
sample times by ``DisturbanceProfile.at``: it forms the estimate errors
(delta_hat - d/gamma3 in the matched case, k_s*delta_hat + d in the
unmatched case), projects states through I - 1 v^T to get consensus errors,
evaluates the Lyapunov functions, fits decay rates and periodic orbits, and
evolves the closed-form weighted-average models used as oracles for the full
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DisturbanceProfile, SimState, eval_disturbance
from .errors import NoOrbitError, SignalFitError, ValidationError
from .gains import MatchedGains, UnmatchedGains
from .sim import Trajectory


@dataclass(frozen=True)
class ErrorTriple:
    """Projector-applied consensus errors (state minus weighted average)."""

    e_x: np.ndarray
    e_y: np.ndarray
    e_d: np.ndarray


@dataclass(frozen=True)
class MeanField:
    """Weighted-average coordinates: position, velocity-like, integral-like.

    In the matched case these are (v.x, v.y, v.(dh - d/gamma3)); in the
    unmatched case (v.x, v.yt, v.(k_s dh + d)) with yt = y - k_s dh.
    """

    x_m: float
    y_m: float
    delta_m: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x_m, self.y_m, self.delta_m])


@dataclass(frozen=True)
class OrbitFit:
    """Least-squares sinusoid fit A*sin(w t + phi) + offset over a window."""

    angular_frequency: float
    amplitude: float
    phase: float
    offset: float
    residual: float
    residual_ratio: float

    def to_json(self) -> dict:
        return {
            "angular_frequency": self.angular_frequency,
            "amplitude": self.amplitude,
            "phase": self.phase,
            "offset": self.offset,
            "residual": self.residual,
            "residual_ratio": self.residual_ratio,
        }


#: values per block of rows in the array passes below and in the CSV
#: writers.  A block is large enough for numpy to amortise its per-call
#: overhead.  With 64k-value blocks, repeated runs of the unmatched builtin
#: sampled every step left the process peak RSS about 3 MiB higher than with
#: 8k to 32k; the run time did not differ measurably.
BLOCK_VALUES = 1 << 14


def row_blocks(n_rows: int, n_columns: int) -> list:
    """Slices that cut ``n_rows`` rows of ``n_columns`` values each into
    consecutive blocks of about ``BLOCK_VALUES`` values; a row wider than
    that is a block of its own."""
    step = max(1, BLOCK_VALUES // max(1, n_columns))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _coordinates(gains, x, y, delta_hat, d):
    """The three coordinates the projector acts on, for one state or a block
    of states (one per row): (x, y, delta_hat - d/gamma3) in the matched
    case, (x, y - k_s*delta_hat, k_s*delta_hat + d) in the unmatched case."""
    if isinstance(gains, MatchedGains):
        return x, y, delta_hat - d / gains.gamma3
    if isinstance(gains, UnmatchedGains):
        return x, y - gains.k_s * delta_hat, gains.k_s * delta_hat + d
    raise ValidationError(f"gains: expected MatchedGains or UnmatchedGains, got {type(gains)!r}")


def _errors_and_means(v: np.ndarray, gains, x, y, delta_hat, d) -> tuple:
    """((e_x, e_y, e_d), (x_m, y_m, delta_m)) of one state or of a block of
    states: each coordinate w gives the weighted average m = v.w and the
    consensus error (I - 1 v^T) w = w - m."""
    coords = _coordinates(gains, x, y, delta_hat, d)
    means = tuple(w @ v for w in coords)
    return tuple(w - m[..., None] for w, m in zip(coords, means)), means


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis: a scalar for vectors, one value per
    row for blocks."""
    return np.einsum("...i,...i->...", a, b)


def _lyapunov_matched(ex, ey, ed, g: MatchedGains, P: np.ndarray):
    exP = ex @ P
    hs = 0.5 * (g.rho * _dot(exP, ex) + 2.0 * g.epsilon * _dot(exP, ey)
                + 2.0 * g.mu * _dot(ey, ey))
    hd = 0.5 * g.b * (2.0 * _dot(ey, ey) + 2.0 * _dot(ey, ed) + _dot(ed, ed))
    return hs + hd


def _lyapunov_unmatched(ex, ey, ed, g: UnmatchedGains, P: np.ndarray):
    exP = ex @ P
    w = 0.5 * (g.alpha1 * _dot(exP, ex) + 2.0 * g.nu * _dot(exP, ey) + g.alpha2 * _dot(ey, ey))
    return w + 0.5 * _dot(ed @ P, ed)


def consensus_errors(state: SimState, v: np.ndarray, gains, d: np.ndarray) -> ErrorTriple:
    """Consensus errors at one state; ``d`` is the disturbance value there.

    The gains object selects the mode: MatchedGains uses the estimate error
    delta_hat - d/gamma3, UnmatchedGains uses the velocity offset
    y - k_s*delta_hat and the shifted estimate k_s*delta_hat + d.
    """
    d = np.asarray(d, dtype=float)
    if d.shape[0] != state.n_agents:
        raise ValidationError(f"d: expected length {state.n_agents}, got {d.shape[0]}")
    errs, _ = _errors_and_means(v, gains, state.x, state.y, state.delta_hat, d)
    return ErrorTriple(*errs)


def mean_field(state: SimState, v: np.ndarray, gains, d: np.ndarray) -> MeanField:
    """Weighted-average coordinates of one state (mode chosen by gains type)."""
    d = np.asarray(d, dtype=float)
    _, means = _errors_and_means(v, gains, state.x, state.y, state.delta_hat, d)
    return MeanField(*(float(m) for m in means))


def lyapunov_H(errs: ErrorTriple, g: MatchedGains, P: np.ndarray) -> float:
    """Matched-case Lyapunov value: a (rho, epsilon, mu) weighted quadratic
    form in (e_x, e_y) plus b times a fixed coupling form in (e_y, e_d)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return float(_lyapunov_matched(errs.e_x, errs.e_y, errs.e_d, g, P))


def lyapunov_W(errs: ErrorTriple, g: UnmatchedGains, P: np.ndarray) -> float:
    """Unmatched-case Lyapunov value."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return float(_lyapunov_unmatched(errs.e_x, errs.e_y, errs.e_d, g, P))


def _window_mask(times: np.ndarray, window) -> np.ndarray:
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise SignalFitError(f"window: expected (lo, hi) with hi > lo, got {window}")
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 4:
        raise SignalFitError(f"window [{lo}, {hi}] contains fewer than 4 samples")
    return mask


def fit_exponential_decay(times: np.ndarray, values: np.ndarray, window) -> float:
    """Decay rate from a log-linear least-squares fit of |signal| over the
    window.  The signal must not vanish or change sign inside the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = _window_mask(times, window)
    seg = values[mask]
    if np.any(seg == 0.0) or np.any(np.sign(seg) != np.sign(seg[0])):
        raise SignalFitError(
            "signal crosses zero inside the fit window; use a shorter window")
    slope = np.polyfit(times[mask], np.log(np.abs(seg)), 1)[0]
    return float(-slope)


def _sinusoid_design(t: np.ndarray, w: float) -> np.ndarray:
    return np.column_stack([np.sin(w * t), np.cos(w * t), np.ones_like(t)])


def fit_orbit(times: np.ndarray, values: np.ndarray, window) -> OrbitFit:
    """Fit A*sin(w t + phi) + offset over the window.

    The frequency is seeded from the mean zero-crossing spacing of the
    detrended signal and refined by Gauss-Newton on all four parameters.
    Raises NoOrbitError when fewer than three crossings exist or the final
    residual exceeds half the detrended signal RMS.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = _window_mask(times, window)
    t = times[mask]
    sig = values[mask]
    centered = sig - sig.mean()
    rms = float(np.sqrt(np.mean(centered ** 2)))
    if rms == 0.0:
        raise NoOrbitError("signal is constant over the window; no orbit to fit")

    sgn = np.sign(centered)
    crossings = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    if crossings.size < 3:
        raise NoOrbitError(
            f"only {crossings.size} zero crossings in the window; no oscillation detected")
    # linear interpolation of each crossing instant
    tc = t[crossings] - centered[crossings] * (t[crossings + 1] - t[crossings]) \
        / (centered[crossings + 1] - centered[crossings])
    w = math.pi * (tc.size - 1) / (tc[-1] - tc[0])

    # Gauss-Newton on (a, b, c, w) for a*sin(wt) + b*cos(wt) + c
    design = _sinusoid_design(t, w)
    abc, *_ = np.linalg.lstsq(design, sig, rcond=None)
    params = np.array([abc[0], abc[1], abc[2], w])
    for _ in range(60):
        a, b, c, w = params
        s = np.sin(w * t)
        co = np.cos(w * t)
        model = a * s + b * co + c
        r = model - sig
        J = np.column_stack([s, co, np.ones_like(t), (a * co - b * s) * t])
        try:
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        params = params + step
        if np.abs(step).max() < 1e-12 * max(1.0, np.abs(params).max()):
            break
    a, b, c, w = params
    model = a * np.sin(w * t) + b * np.cos(w * t) + c
    residual = float(np.sqrt(np.mean((model - sig) ** 2)))
    ratio = residual / rms
    if not (w > 0) or ratio > 0.5:
        raise NoOrbitError(
            f"sinusoid fit explains the signal poorly (residual {ratio:.1%} of RMS)")
    return OrbitFit(
        angular_frequency=float(w),
        amplitude=float(math.hypot(a, b)),
        phase=float(math.atan2(b, a)),
        offset=float(c),
        residual=residual,
        residual_ratio=float(ratio),
    )


def averaged_model_matched(mf0: MeanField, g: MatchedGains, t: float) -> MeanField:
    """Closed-form flow of the matched weighted-average dynamics.

    (y_m, delta_m) evolve under the 2x2 matrix [[-gamma2, -gamma3],
    [gamma4, 0]]; x_m integrates y_m, done in closed form through the matrix
    inverse (the matrix is invertible since gamma3*gamma4 > 0).
    """
    import scipy.linalg  # not at module level: runs never need it (see spectral)

    S = np.array([[-g.gamma2, -g.gamma3], [g.gamma4, 0.0]])
    yd0 = np.array([mf0.y_m, mf0.delta_m])
    expSt = scipy.linalg.expm(S * t)
    yd = expSt @ yd0
    x_m = mf0.x_m + float(np.array([1.0, 0.0]) @ np.linalg.solve(S, (expSt - np.eye(2)) @ yd0))
    return MeanField(x_m=x_m, y_m=float(yd[0]), delta_m=float(yd[1]))


def averaged_model_unmatched(mf0: MeanField, g: UnmatchedGains, t: float) -> MeanField:
    """Closed-form flow of the unmatched weighted-average dynamics.

    The average velocity decays as exp(-k_d t) and forces the harmonic
    oscillator in (x_m, delta_m) with natural frequency sqrt(alpha1); the
    three states together are linear, so the flow is a single 3x3 matrix
    exponential.
    """
    import scipy.linalg  # not at module level: runs never need it (see spectral)

    A = np.array([
        [0.0, 1.0, 1.0],
        [-g.alpha1, 0.0, -g.nu],
        [0.0, 0.0, -g.k_d],
    ])
    r0 = np.array([mf0.x_m, mf0.delta_m, mf0.y_m])
    r = scipy.linalg.expm(A * t) @ r0
    return MeanField(x_m=float(r[0]), y_m=float(r[2]), delta_m=float(r[1]))


@dataclass(frozen=True)
class EstimationLimits:
    """Final integral-action values against the predicted d/gamma3."""

    t: float
    delta_hat: np.ndarray
    predicted: np.ndarray

    @property
    def max_abs_error(self) -> float:
        return float(np.abs(self.delta_hat - self.predicted).max())

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "delta_hat": [float(x) for x in self.delta_hat],
            "predicted": [float(x) for x in self.predicted],
            "max_abs_error": self.max_abs_error,
        }


def estimation_limits(traj: Trajectory, profile: DisturbanceProfile, g: MatchedGains,
                      at_time: float | None = None, side: str = "left") -> EstimationLimits:
    """delta_hat at a sample time (default: final) next to the predicted
    d/gamma3 there.

    ``side='left'`` evaluates the disturbance as the limit from below, which
    is what the continuous state delta_hat can have tracked when the query
    time sits exactly on a switch.
    """
    t = float(traj.times[-1]) if at_time is None else float(at_time)
    idx = traj.index_at(t)
    t_sample = float(traj.times[idx])
    d = eval_disturbance(profile, t_sample, side=side)
    return EstimationLimits(
        t=t_sample,
        delta_hat=traj.delta_hat[idx].copy(),
        predicted=d / g.gamma3,
    )


def trajectory_metrics(traj: Trajectory, v: np.ndarray, gains, profile: DisturbanceProfile,
                       P: np.ndarray) -> dict:
    """Per-sample metric arrays: error norms, mean field, Lyapunov value, and
    ``projector_residual``, the largest |v.e| over the three errors (zero up
    to rounding).

    Disturbance values use the active segment at each sample time
    (right-continuous), matching what the controller experienced.  The
    samples are processed as arrays, one block of rows at a time.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    lyapunov = _lyapunov_matched if isinstance(gains, MatchedGains) else _lyapunov_unmatched
    n_samples = traj.times.shape[0]
    out = {"t": traj.times.copy()}
    for name in ("ex_norm", "ey_norm", "ed_norm", "x_m", "y_m", "delta_m", "lyap",
                 "projector_residual"):
        out[name] = np.empty(n_samples)
    for rows in row_blocks(n_samples, traj.states.shape[1]):
        d = profile.at(traj.times[rows])
        errs, means = _errors_and_means(v, gains, traj.x[rows], traj.y[rows],
                                        traj.delta_hat[rows], d)
        for name, e in zip(("ex_norm", "ey_norm", "ed_norm"), errs):
            out[name][rows] = np.sqrt(_dot(e, e))
        for name, m in zip(("x_m", "y_m", "delta_m"), means):
            out[name][rows] = m
        out["lyap"][rows] = lyapunov(*errs, gains, P)
        out["projector_residual"][rows] = np.max([np.abs(e @ v) for e in errs], axis=0)
    return out


def first_settling_time(times: np.ndarray, values: np.ndarray, threshold: float,
                        hold: float = 10.0) -> float | None:
    """Earliest time from which the signal stays below the threshold for at
    least ``hold`` seconds and through the end of the record."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    below = values < threshold
    if not below[-1]:
        return None
    # last index where the signal is at/above threshold
    above = np.flatnonzero(~below)
    start = 0 if above.size == 0 else above[-1] + 1
    if start >= times.shape[0]:
        return None
    t0 = float(times[start])
    if times[-1] - t0 < hold:
        return None
    return t0


def sync_deviation_windows(traj: Trajectory, v: np.ndarray, g: UnmatchedGains,
                           profile: DisturbanceProfile, window_len: float = 5.0,
                           start: float = 0.0) -> list:
    """Max deviation |y_i + d_i - delta_m| per consecutive window.

    This is the output-orbit synchronization measure: every agent's
    disturbance-shifted velocity should approach the common average of the
    shifted integral states.
    """
    times = traj.times
    devs = np.empty(times.shape[0])
    for rows in row_blocks(times.shape[0], traj.states.shape[1]):
        d = profile.at(times[rows])
        y, delta_hat = traj.y[rows], traj.delta_hat[rows]
        delta_m = _coordinates(g, traj.x[rows], y, delta_hat, d)[2] @ v
        devs[rows] = np.abs(y + d - delta_m[:, None]).max(axis=1)
    windows = []
    lo = start
    while lo + window_len <= times[-1] + 1e-9:
        hi = lo + window_len
        mask = (times >= lo) & (times <= hi)
        if mask.any():
            windows.append({"window": [lo, hi], "max_deviation": float(devs[mask].max())})
        lo = hi
    return windows
