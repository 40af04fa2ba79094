"""Output checks applied to every timed run, and the references they use.

A run passes when
  * its four artifacts are byte-identical to the first timed run's
    (acceptance criterion 10),
  * ``max_projector_residual`` in summary.json is below 1e-9 (criterion 8),
  * the certificate residual is within the Lyapunov solver's own tolerance,
  * its final state and key summary numbers match a reference computed on
    the plain generic RK4 path (``integrate`` given a field callable), which
    shares no stepping code with the closed-loop fast path.

``STATE_TOL`` passes rounding-level differences between integrators (about
1e-13) and rejects a 1e-6 perturbation; a disturbance switch taken one step
early or late kicks the velocities by about dt * |delta base| ~ 5e-4, which
is far outside it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

#: relative to max(1, |reference|), per state entry and per summary number
STATE_TOL = 1e-9
SUMMARY_TOL = 1e-7

#: the Lyapunov residual bound in consensus_net.spectral, relative to max(1, ||Q||_2)
CERT_RESIDUAL_TOL = 1e-8

#: criterion 8
PROJECTOR_TOL = 1e-9

ARTIFACTS = ("trajectory.csv", "metrics.csv", "summary.json", "certification.json")


def read_facts(out_dir) -> dict:
    """What the checks need from one run's artifacts."""
    blobs = {name: (Path(out_dir) / name).read_bytes() for name in ARTIFACTS}
    last_row = blobs["trajectory.csv"].rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return {
        "digest": {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()},
        "bytes": sum(len(b) for b in blobs.values()),
        "final_state": [float(v) for v in last_row.split(b",")[1:]],
        "results": json.loads(blobs["summary.json"])["results"],
        "cert_residual": json.loads(blobs["certification.json"])["certificate"]["residual"],
    }


def _lookup(doc: dict, dotted: str):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def _close(value, expected, tol) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def check_facts(facts: dict, reference: dict, doc: dict, first_digest: dict | None) -> list:
    """Failed checks of one run, as messages; empty when the run passes."""
    failures = []
    if first_digest is not None and facts["digest"] != first_digest:
        changed = sorted(k for k in ARTIFACTS if facts["digest"][k] != first_digest[k])
        failures.append(f"artifacts differ from the first timed run: {', '.join(changed)}")
    residual = facts["results"]["max_projector_residual"]
    if not residual < PROJECTOR_TOL:
        failures.append(f"max_projector_residual {residual:.3e} >= {PROJECTOR_TOL:.0e}")
    bound = CERT_RESIDUAL_TOL * max(1.0, doc["lyapunov"]["q_scale"])
    if not facts["cert_residual"] < bound:
        failures.append(f"certificate residual {facts['cert_residual']:.3e} >= {bound:.3e}")
    state = np.asarray(facts["final_state"])
    ref_state = np.asarray(reference["final_state"])
    if state.shape != ref_state.shape:
        failures.append(f"final state has {state.size} entries, reference {ref_state.size}")
    else:
        excess = np.abs(state - ref_state) / np.maximum(1.0, np.abs(ref_state))
        if not excess.max() <= STATE_TOL:
            failures.append(f"final state off the reference by {excess.max():.3e} (relative)")
    for key, expected in reference["results"].items():
        value = _lookup(facts["results"], key)
        if not _close(value, expected, SUMMARY_TOL):
            failures.append(f"{key} = {value!r}, reference {expected!r}")
    return failures


class _FrozenSegmentField:
    """``f(t, z)`` of a closed loop with the fast path's switching rule.

    Each RK4 step uses the disturbance segment active at the step's left
    endpoint, so a stage landing exactly on a switch time still sees the old
    segment.  The generic integrator calls the field four times per step,
    first at the left endpoint, which is how the step start is recognised.
    """

    def __init__(self, sc, lap):
        from consensus_net.dynamics import DisturbanceProfile, MatchedLoop, UnmatchedLoop

        loop_cls = MatchedLoop if sc.mode == "matched" else UnmatchedLoop
        segments = sc.disturbance.segments
        # a segment's value does not depend on its start, so each one becomes
        # a single-segment profile that is active from t = 0
        self._loops = [loop_cls(sc.gains, lap, DisturbanceProfile((replace(seg, t_start=0.0),)))
                       for seg in segments]
        self._switches = [seg.t_start - 0.25 * sc.dt for seg in segments[1:]]
        self._calls = 0
        self._active = self._loops[0]

    def __call__(self, t, z):
        if self._calls % 4 == 0:
            self._active = self._loops[sum(t >= s for s in self._switches)]
        self._calls += 1
        return self._active.field(t, z)


def derive_reference(doc: dict) -> dict:
    """Final state and key summary numbers of ``doc`` on the generic RK4 path."""
    from consensus_net import analysis, runner
    from consensus_net.graph import build_laplacian
    from consensus_net.scenario import scenario_from_json
    from consensus_net.sim import SimParams, integrate
    from consensus_net.spectral import solve_P

    sc = scenario_from_json(doc)
    lap = build_laplacian(sc.graph)
    params = SimParams(t_final=sc.t_final, dt=sc.dt, sample_every=sc.sample_every)
    z0 = np.concatenate([sc.x0, sc.y0, sc.delta_hat0])
    traj = integrate(_FrozenSegmentField(sc, lap), z0, params)
    results = {}
    if sc.mode == "matched":
        est = analysis.estimation_limits(traj, sc.disturbance, sc.gains, side="left")
        results["estimation.max_abs_error"] = est.max_abs_error
    else:
        cert = solve_P(lap, Q=sc.q_scale * np.eye(sc.n_agents), alpha=sc.alpha)
        metrics = analysis.trajectory_metrics(traj, lap.v_left, sc.gains, sc.disturbance, cert.P)
        results["decay_fit.rate"] = analysis.fit_exponential_decay(
            metrics["t"], metrics["y_m"], runner.DECAY_FIT_WINDOW)
        start = max([s for s in sc.disturbance.switch_times if s < sc.t_final], default=0.0)
        windows = analysis.sync_deviation_windows(traj, lap.v_left, sc.gains, sc.disturbance,
                                                  window_len=runner.SYNC_WINDOW_LEN, start=start)
        results["late_window_max_deviation"] = windows[-1]["max_deviation"]
    return {"final_state": traj.states[-1].tolist(), "results": results}
