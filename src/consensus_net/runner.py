"""Scenario execution pipeline and artifact writing.

A run builds the Laplacian, solves the Lyapunov certificate, certifies the
gain conditions (advisory: failures are recorded, not fatal), integrates the
closed loop, post-processes the trajectory, and writes four artifacts into
the output directory:

    trajectory.csv      t, x_1..x_n, y_1..y_n, dhat_1..dhat_n
    metrics.csv         t, ||e_x||, ||e_y||, ||e_d||, x_m, y_m, delta_m, lyap
    summary.json        scenario echo plus derived results
    certification.json  gain checks, certificate facts

All files are written atomically (temp file + rename) with fixed formatting
(17 significant digits, '.' decimal separator, '\\n' line endings) so a rerun
of the same scenario produces identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .dynamics import MatchedLoop, UnmatchedLoop
from .errors import IntegrationDivergedError, NoOrbitError, SignalFitError
from .gains import certify_matched, certify_unmatched, is_S_hurwitz
from .graph import build_laplacian
from .kernels import active_backend
from .scenario import Scenario, aligned_dt, scenario_to_json
from .sim import SimParams, Trajectory, integrate
from .spectral import solve_P

#: decay-rate fit window for the average-velocity signal
DECAY_FIT_WINDOW = (0.5, 2.5)

#: settling threshold and hold used in the summary
SETTLE_THRESHOLD = 1e-3
SETTLE_HOLD = 10.0

#: length of the output-synchronization windows
SYNC_WINDOW_LEN = 5.0

#: metrics.csv columns, in order
METRIC_COLUMNS = ("t", "ex_norm", "ey_norm", "ed_norm", "x_m", "y_m", "delta_m", "lyap")


@dataclass(frozen=True)
class RunArtifacts:
    trajectory_csv: Path
    metrics_csv: Path
    summary_json: Path
    certification_json: Path

    def paths(self):
        return (self.trajectory_csv, self.metrics_csv, self.summary_json,
                self.certification_json)


def _atomic_write(path: Path, chunks: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_chunks(doc) -> list:
    return [json.dumps(doc, indent=2, sort_keys=True), "\n"]


def _csv_chunks(header, columns: list) -> list:
    """CSV text as a list of chunks: the header line, then one chunk per block
    of rows.  ``columns`` holds 1-D and 2-D arrays with one row per CSV line;
    every value is written with 17 significant digits."""
    n_rows = columns[0].shape[0]
    chunks = [",".join(header) + "\n"]
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    for rows in analysis.row_blocks(n_rows, len(header)):
        block = np.column_stack([c[rows] for c in columns])
        chunks.append((row_format * block.shape[0]) % tuple(block.ravel().tolist()))
    return chunks


def trajectory_csv_text(traj: Trajectory) -> list:
    n = traj.n_agents
    header = ["t"]
    header += [f"x_{i + 1}" for i in range(n)]
    header += [f"y_{i + 1}" for i in range(n)]
    header += [f"dhat_{i + 1}" for i in range(n)]
    return _csv_chunks(header, [traj.times, traj.states])


def metrics_csv_text(metrics: dict) -> list:
    return _csv_chunks(METRIC_COLUMNS, [metrics[c] for c in METRIC_COLUMNS])


def _orbit_window(sc: Scenario) -> tuple[float, float]:
    switches = [s for s in sc.disturbance.switch_times if s < sc.t_final]
    lo = max(switches) if switches else sc.t_final / 2.0
    return (lo, sc.t_final)


def _summary(sc: Scenario, traj: Trajectory, metrics: dict, lap, cert, report) -> dict:
    results: dict = {
        "final_time": float(traj.times[-1]),
        "certification_passed": report.passed,
        "final_errors": {
            "ex_norm": float(metrics["ex_norm"][-1]),
            "ey_norm": float(metrics["ey_norm"][-1]),
            "ed_norm": float(metrics["ed_norm"][-1]),
        },
        "settling_times": {
            name: analysis.first_settling_time(metrics["t"], metrics[name],
                                               SETTLE_THRESHOLD, hold=SETTLE_HOLD)
            for name in ("ex_norm", "ey_norm", "ed_norm")
        },
        "max_projector_residual": float(metrics["projector_residual"].max()),
        "mean_field_final": {
            "x_m": float(metrics["x_m"][-1]),
            "y_m": float(metrics["y_m"][-1]),
            "delta_m": float(metrics["delta_m"][-1]),
        },
        # measured, never predicted: the offset the average position picks up
        # while the average velocity decays
        "mean_position_drift": float(metrics["x_m"][-1] - metrics["x_m"][0]),
    }
    if sc.mode == "matched":
        est = analysis.estimation_limits(traj, sc.disturbance, sc.gains, side="left")
        results["estimation"] = est.to_json()
        results["averaged_subsystem_hurwitz"] = is_S_hurwitz(sc.gains)
        results["decay_fit"] = None
        results["orbit_fits"] = None
        results["sync_windows"] = None
    else:
        g = sc.gains
        try:
            rate = analysis.fit_exponential_decay(metrics["t"], metrics["y_m"], DECAY_FIT_WINDOW)
            results["decay_fit"] = {
                "window": list(DECAY_FIT_WINDOW),
                "rate": rate,
                "expected_rate": g.k_d,
            }
        except SignalFitError as exc:
            results["decay_fit"] = {"window": list(DECAY_FIT_WINDOW), "error": str(exc)}
        window = _orbit_window(sc)
        fits = []
        for i in range(traj.n_agents):
            try:
                fit = analysis.fit_orbit(traj.times, traj.x[:, i], window)
                fits.append({"agent": i + 1, **fit.to_json()})
            except NoOrbitError as exc:
                fits.append({"agent": i + 1, "error": str(exc)})
        results["orbit_fits"] = {"window": list(window), "series": "x", "fits": fits}
        start = max([s for s in sc.disturbance.switch_times if s < sc.t_final], default=0.0)
        windows = analysis.sync_deviation_windows(traj, lap.v_left, g, sc.disturbance,
                                                  window_len=SYNC_WINDOW_LEN, start=start)
        results["sync_windows"] = windows
        results["late_window_max_deviation"] = windows[-1]["max_deviation"] if windows else None
        results["expected_orbit_frequency"] = float(np.sqrt(g.alpha1))
        results["estimation"] = None
    return {
        "scenario": scenario_to_json(sc),
        "backend": active_backend(),
        "results": results,
    }


def _largest_divisor_at_most(n: int, k: int) -> int:
    for cand in range(min(n, max(k, 1)), 0, -1):
        if n % cand == 0:
            return cand
    return 1


def prepare(sc: Scenario, align_dt_to: float | None = None):
    """Build the Laplacian, certificate, report and loop for a scenario."""
    if align_dt_to is not None:
        dt = aligned_dt(sc, align_dt_to)
        # keep samples uniform and ending on t_final under the new grid
        n_steps = round(sc.t_final / dt)
        sc = sc.with_overrides(dt=dt,
                               sample_every=_largest_divisor_at_most(n_steps, sc.sample_every))
    lap = build_laplacian(sc.graph)
    n = sc.n_agents
    cert = solve_P(lap, Q=sc.q_scale * np.eye(n), alpha=sc.alpha)
    if sc.mode == "matched":
        report = certify_matched(sc.gains, cert)
        loop = MatchedLoop(sc.gains, lap, sc.disturbance)
    else:
        report = certify_unmatched(sc.gains, cert)
        loop = UnmatchedLoop(sc.gains, lap, sc.disturbance)
    return sc, lap, cert, report, loop


def run(sc: Scenario, out_dir, backend: str | None = None,
        align_dt_to: float | None = None) -> RunArtifacts:
    """Execute a scenario and write all four artifacts into ``out_dir``.

    Certification failures do not stop the run (the report records them).
    Numerical divergence writes the partial trajectory and certification
    artifacts, then re-raises IntegrationDivergedError.
    """
    out = Path(out_dir)
    sc, lap, cert, report, loop = prepare(sc, align_dt_to)
    arts = RunArtifacts(
        trajectory_csv=out / "trajectory.csv",
        metrics_csv=out / "metrics.csv",
        summary_json=out / "summary.json",
        certification_json=out / "certification.json",
    )
    cert_doc = {
        "report": report.to_json(),
        "certificate": cert.to_json(),
        "scenario": sc.name,
        "mode": sc.mode,
    }
    params = SimParams(t_final=sc.t_final, dt=sc.dt, sample_every=sc.sample_every)
    z0 = np.concatenate([sc.x0, sc.y0, sc.delta_hat0])
    try:
        traj = integrate(loop, z0, params, scenario_id=sc.name,
                         gain_report=report, backend=backend)
    except IntegrationDivergedError as exc:
        if exc.partial is not None:
            _atomic_write(arts.trajectory_csv, trajectory_csv_text(exc.partial))
        _atomic_write(arts.certification_json, _json_chunks(cert_doc))
        raise
    metrics = analysis.trajectory_metrics(traj, lap.v_left, sc.gains, sc.disturbance, cert.P)
    summary = _summary(sc, traj, metrics, lap, cert, report)
    _atomic_write(arts.trajectory_csv, trajectory_csv_text(traj))
    _atomic_write(arts.metrics_csv, metrics_csv_text(metrics))
    _atomic_write(arts.summary_json, _json_chunks(summary))
    _atomic_write(arts.certification_json, _json_chunks(cert_doc))
    return arts


def read_csv(path) -> tuple[list, np.ndarray]:
    """Read one of the artifact CSVs back: (column names, data matrix)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        names = header.split(",")
        body = fh.read().strip()
    if not body:
        return names, np.empty((0, len(names)))
    rows = [line.split(",") for line in body.split("\n")]
    return names, np.array(rows, dtype=float)
