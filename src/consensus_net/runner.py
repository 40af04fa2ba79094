"""Scenario execution pipeline and artifact writing.

A run checks the scenario's step grid, builds the Laplacian, solves the
Lyapunov certificate, certifies the gain conditions (advisory: failures are
recorded, not fatal), integrates the closed loop, post-processes the
trajectory, and writes four artifacts into the output directory.  It runs
the scenario as given; ``scenario.align_dt`` rewrites a grid beforehand.

    trajectory.csv      t, x_1..x_n, y_1..y_n, dhat_1..dhat_n
    metrics.csv         t, ||e_x||, ||e_y||, ||e_d||, x_m, y_m, delta_m, lyap
    summary.json        scenario echo plus derived results
    certification.json  gain checks, certificate facts

All files are written atomically (temp file + rename) with fixed formatting
(17 significant digits, '.' decimal separator, '\\n' line endings) so a rerun
of the same scenario produces identical bytes.  The JSON files are
``json.dumps(doc, indent=2, sort_keys=True)``; ``certification_json_text``
splices P's rows into that text instead of encoding them, with the same
bytes.  ``run`` hands it ``P`` as the certificate stores it, dense or CSR;
it formats each distinct nonzero bit pattern of P once (P is symmetric, so
about half of its n^2 entries repeat) and each run of zeros in a row as one
string (on a tree, 98 % of P is exactly zero, and a CSR P stores the rest).

The two CSV files are text from ``_csv_chunks``, whoever formats it.  When
their tables hold more than ``FORK_MIN_VALUES`` values and two CPUs are
free, ``_write_csvs`` forks one child that formats the last ``TAIL_SHARE``
of each table's rows into a part file, while this process computes the
summary and formats the head rows; it then writes head and part as one
file.  If the child fails, this process formats the tail itself.  The
bytes do not depend on which process formatted which rows.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis
from .dynamics import MatchedLoop, UnmatchedLoop
from .errors import IntegrationDivergedError, NoOrbitError, SignalFitError, ValidationError
from .gains import certify_matched, certify_unmatched, is_S_hurwitz
from .graph import build_laplacian
from .scenario import Scenario, scenario_to_json
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

#: CSV tables of more than this many values in all are formatted on two
#: CPUs.  On a 2-vCPU x86 VM the fork, the child's start and exit and the
#: part files cost about what the second CPU saved between 25k and 100k
#: values, and the fork won clearly from 200k (90-100 ms against 130-140 ms)
FORK_MIN_VALUES = 100_000

#: the share of each table's rows that the forked child formats.  Measured
#: on the same VM, the two processes waited least for each other at 0.48 to
#: 0.50 of the rows on the benchmark's paper-matched and large-graph runs,
#: and at 0.54 to 0.56 on unmatched-dense, whose summary this process
#: computes meanwhile
TAIL_SHARE = 0.52


@dataclass(frozen=True)
class RunArtifacts:
    trajectory_csv: Path
    metrics_csv: Path
    summary_json: Path
    certification_json: Path

    def paths(self):
        return (self.trajectory_csv, self.metrics_csv, self.summary_json,
                self.certification_json)


def _atomic_write(path: Path, chunks) -> None:
    """Write ``chunks``, each text (as UTF-8) or bytes, to ``path``: into a
    temporary file beside it, renamed over it once complete."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(c if isinstance(c, bytes) else c.encode() for c in chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_chunks(doc) -> list:
    return [json.dumps(doc, indent=2, sort_keys=True), "\n"]


#: stands in for ``certificate.P`` while the rest of the document is dumped
_P_SLOT = "P rows"

#: what ``json.dumps(indent=2)`` puts between two entries of a row of P
_P_SEP = ",\n        "


def certification_json_text(doc: dict):
    """``_json_chunks(doc)`` for the certification document, without running
    the n^2 entries of ``doc["certificate"]["P"]`` (rows of floats, a dense
    or a CSR array) through the pure-Python encoder that ``indent`` selects.

    The rest of the document is dumped with ``P`` replaced by a placeholder,
    and ``P``'s text is built from ``repr``, which spells every finite float
    as ``json`` does, in ``json``'s 2-space layout.  Each distinct nonzero
    bit pattern of ``P`` is formatted once and gathered back into place, and
    each run of ``0.0`` in a row is one string, made once per run length (a
    tree's ``P`` is mostly zeros; a CSR ``P`` gives its stored entries).
    Bit patterns, not values, so that ``-0.0`` keeps its own spelling.  The
    keys are sorted, and ``certificate`` is the first key of the document
    and ``P`` the first of the certificate, so the placeholder's first
    occurrence is the one to replace.  JSON has no spelling for a non-finite
    float, so such a ``P`` raises ``ValueError`` here, before any text.  The
    chunks come one row of ``P`` at a time, not as one string.
    """
    P = doc["certificate"]["P"]
    if hasattr(P, "nnz"):
        P = P.tocoo()
        P.sum_duplicates()  # which sorts the entries into row-major order
        rows, cols, values = P.row, P.col, P.data
    else:
        P = np.asarray(P, dtype=np.float64)
        rows, cols = np.nonzero(P.view(np.int64))
        values = P[rows, cols]
    patterns, index = np.unique(values.view(np.int64), return_inverse=True)
    values = patterns.view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("certificate P has non-finite entries, which JSON cannot hold")
    head, tail = json.dumps(
        {**doc, "certificate": {**doc["certificate"], "P": _P_SLOT}},
        indent=2, sort_keys=True).split(json.dumps(_P_SLOT), 1)
    spelled = np.array([repr(v) for v in values.tolist()], dtype=object)
    return _p_chunks(head, _row_texts(P.shape, rows, cols, spelled[index]), tail)


def _row_texts(shape, rows, cols, texts):
    """The text of each row, one at a time, of a matrix of ``shape`` whose
    nonzero entries, spelled ``texts``, sit at ``(rows, cols)`` in row-major
    order and whose other entries are ``0.0``.

    Row r is its pieces joined by ``_P_SEP``: for each nonzero, the run of
    zeros before it and its text, then the run of zeros after the last one.
    Each piece has its place in one array: the nonzero q of row r at
    2q + r + 1, its zero run at 2q + r, and row r's last run at
    2 * (nonzeros up to row r) + r.  Empty runs are dropped.
    """
    n_rows, n_cols = shape
    row_start = np.arange(n_rows) * n_cols
    flat = row_start[rows] + cols
    # where the previous nonzero ended, before each one and after the last
    ended = np.concatenate(([0], flat + 1))
    ends = np.searchsorted(rows, np.arange(1, n_rows + 1))
    text_at = 2 * np.arange(rows.size) + rows + 1
    run_at = np.concatenate((text_at - 1, 2 * ends + np.arange(n_rows)))
    run = np.concatenate((flat - np.maximum(ended[:-1], row_start[rows]),
                          row_start + n_cols - np.maximum(ended[ends], row_start)))
    lengths, which = np.unique(run, return_inverse=True)
    zeros = np.array([_P_SEP.join(["0.0"] * k) for k in lengths.tolist()], dtype=object)
    pieces = np.empty(text_at.size + run_at.size, dtype=object)
    pieces[text_at] = texts
    pieces[run_at] = zeros[which]
    kept = np.ones(pieces.size, dtype=bool)
    kept[run_at] = run > 0
    bounds = np.concatenate(([0], np.cumsum(kept)[run_at[rows.size:]]))
    pieces = pieces[kept].tolist()
    return (_P_SEP.join(pieces[a:b]) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _p_chunks(head: str, row_texts, tail: str):
    """The certification text around ``P``, one chunk per row of ``P``."""
    yield head
    yield "[\n      [\n        "
    for i, text in enumerate(row_texts):
        if i:
            yield "\n      ],\n      [\n        "
        yield text
    yield "\n      ]\n    ]"
    yield tail
    yield "\n"


def _csv_chunks(header, columns: list, start: int = 0, stop: int | None = None) -> list:
    """CSV text of rows ``start:stop`` as a list of chunks: the header line
    when ``start`` is 0, then one chunk per block of rows.  ``columns`` holds
    1-D and 2-D arrays with one row per CSV line; every value is written with
    17 significant digits.  Runs in ``_write_csvs``' child too, so it calls
    no BLAS: ``np.column_stack``, ``tolist`` and ``%`` only."""
    columns = [c[start:stop] for c in columns]
    chunks = [",".join(header) + "\n"] if start == 0 else []
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    for rows in analysis.row_blocks(columns[0].shape[0], len(header)):
        block = np.column_stack([c[rows] for c in columns])
        chunks.append((row_format * block.shape[0]) % tuple(block.ravel().tolist()))
    return chunks


def trajectory_csv_text(traj: Trajectory, start: int = 0, stop: int | None = None) -> list:
    n = traj.n_agents
    header = ["t"]
    header += [f"x_{i + 1}" for i in range(n)]
    header += [f"y_{i + 1}" for i in range(n)]
    header += [f"dhat_{i + 1}" for i in range(n)]
    return _csv_chunks(header, [traj.times, traj.states], start, stop)


def metrics_csv_text(metrics: dict, start: int = 0, stop: int | None = None) -> list:
    return _csv_chunks(METRIC_COLUMNS, [metrics[c] for c in METRIC_COLUMNS], start, stop)


class _CsvTable(NamedTuple):
    """A CSV artifact to write: ``text(start, stop)`` gives the chunks of rows
    ``start:stop``, the header with row 0, of a table of ``n_rows`` rows of
    ``n_columns`` values."""
    path: Path
    text: Callable
    n_rows: int
    n_columns: int


def _trajectory_table(path: Path, traj: Trajectory) -> _CsvTable:
    return _CsvTable(path, partial(trajectory_csv_text, traj), traj.times.shape[0],
                    1 + traj.states.shape[1])


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_csvs(tables: list, meanwhile=None):
    """Write each ``_CsvTable`` atomically and return ``meanwhile()``, which
    runs (if given) while the tables are formatted.

    When the tables hold more than ``FORK_MIN_VALUES`` values, ``os.fork``
    exists and this process may run on two CPUs, one forked child formats
    the last ``TAIL_SHARE`` of each table's rows into a part file, table by
    table, while this process runs ``meanwhile`` and formats the head rows.
    This process writes each table as its head and then its part, read back
    as soon as the child reports it complete, so that the first table is
    written while the child formats the second.  Should the child fail
    before it completes a part, or a part not be read, this process formats
    that tail itself; the fork failing leaves all rows to it.  Either way
    ``text`` formats every row, so the bytes do not depend on who ran it.
    On every path the child is reaped (killed first, if this process
    raises) and the part files are removed.
    """
    fork = (sum(t.n_rows * t.n_columns for t in tables) > FORK_MIN_VALUES
            and hasattr(os, "fork") and _cpus() >= 2)
    # the head holds row 0 or, in an empty table, the header alone
    heads = [max(1, t.n_rows - (round(TAIL_SHARE * t.n_rows) if fork else 0)) for t in tables]
    parts, pid, done = [], None, None
    try:
        if fork:
            pid, done = _fork_tails(tables, heads, parts)
        result = None if meanwhile is None else meanwhile()
        for k, (table, head) in enumerate(zip(tables, heads)):
            part = parts[k] if done is not None else None
            _atomic_write(table.path, _table_text(table, head, done, part))
        if pid is not None:
            os.waitpid(pid, 0)
            pid = None
        return result
    finally:
        if done is not None:
            os.close(done)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            Path(part).unlink(missing_ok=True)


def _fork_tails(tables: list, heads: list, parts: list):
    """Fork the one child that writes rows ``heads[k]:`` of table k into a
    part file beside it, appended to ``parts`` first, and then one byte to a
    pipe; the child's pid and the pipe's read end, or two Nones when the
    fork fails.  The child only formats, since numpy's BLAS threads do not
    exist in it, and writes as ``_atomic_write`` does.  It ends in
    ``os._exit``, so it never returns into the caller nor flushes the stdio
    buffers it inherited."""
    fds = []
    try:
        for table in tables:
            table.path.parent.mkdir(parents=True, exist_ok=True)
            fd, part = tempfile.mkstemp(dir=table.path.parent, prefix="." + table.path.name + ".",
                                        suffix=".tmp")
            fds.append(fd)
            parts.append(part)
        done_r, done_w = os.pipe()
        fds.append(done_w)
        try:
            pid = os.fork()
        except OSError:
            os.close(done_r)
            return None, None
        if pid == 0:
            code = 1
            try:
                # fds ends with the pipe's write end, which zip leaves out
                for table, head, fd in zip(tables, heads, fds):
                    with os.fdopen(fd, "wb") as fh:
                        fh.writelines(c.encode() for c in table.text(head, table.n_rows))
                    os.write(done_w, b"1")
                code = 0
            finally:
                os._exit(code)
        return pid, done_r
    finally:
        for fd in fds:
            os.close(fd)


def _table_text(table: _CsvTable, head: int, done, part) -> list:
    """All of ``table``'s text: rows ``:head`` formatted here, then rows
    ``head:``.  Those are the child's ``part``, once the child reports it
    complete by one byte on the pipe ``done``; otherwise (no child, a child
    that failed first, a part that cannot be read) they are formatted here.

    The part is read whole and as bytes, which ``_atomic_write`` writes as
    they are.  Each other way measured raised the benchmark's peak RSS: read
    in 256 KiB pieces by 6-12 MiB on unmatched-dense, and decoded to text,
    which the write encodes again, the run's own peak by 6 MiB.  The caller
    passes the list on and drops it, so that no table's text is held while
    the next one is formatted."""
    text = table.text(0, head)
    if done is not None and os.read(done, 1):
        try:
            with open(part, "rb") as fh:
                return text + [fh.read()]
        except OSError:
            pass
    return text + table.text(head, table.n_rows)


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
        "results": results,
    }


def certificate(sc: Scenario):
    """The Laplacian and Lyapunov certificate of a scenario's graph, as
    ``(lap, cert)``."""
    lap = build_laplacian(sc.graph)
    return lap, solve_P(lap, Q=np.full(sc.n_agents, sc.q_scale), alpha=sc.alpha)


def prepare(sc: Scenario):
    """The Laplacian, certificate, certification report and closed loop of a
    scenario, as ``(lap, cert, report, loop)``."""
    lap, cert = certificate(sc)
    if sc.mode == "matched":
        report = certify_matched(sc.gains, cert)
        loop = MatchedLoop(sc.gains, lap, sc.disturbance)
    else:
        report = certify_unmatched(sc.gains, cert)
        loop = UnmatchedLoop(sc.gains, lap, sc.disturbance)
    return lap, cert, report, loop


def run(sc: Scenario, out_dir) -> RunArtifacts:
    """Execute a scenario and write all four artifacts into ``out_dir``.

    The grid is checked before the set-up.  Certification failures do not
    stop the run (the report records them).  Numerical divergence writes the
    partial trajectory and certification artifacts, then re-raises
    IntegrationDivergedError.  The summary is computed while
    ``_write_csvs``' child, if it forks one, formats the CSV tails.
    """
    out = Path(out_dir)
    params = SimParams(t_final=sc.t_final, dt=sc.dt, sample_every=sc.sample_every)
    lap, cert, report, loop = prepare(sc)
    arts = RunArtifacts(
        trajectory_csv=out / "trajectory.csv",
        metrics_csv=out / "metrics.csv",
        summary_json=out / "summary.json",
        certification_json=out / "certification.json",
    )
    cert_doc = {
        "report": report.to_json(),
        "certificate": {**cert.scalars_json(), "P": cert.P},
        "scenario": sc.name,
        "mode": sc.mode,
    }
    z0 = np.concatenate([sc.x0, sc.y0, sc.delta_hat0])
    try:
        traj = integrate(loop, z0, params)
    except IntegrationDivergedError as exc:
        if exc.partial is not None:
            _write_csvs([_trajectory_table(arts.trajectory_csv, exc.partial)])
        _atomic_write(arts.certification_json, certification_json_text(cert_doc))
        raise
    metrics = analysis.trajectory_metrics(traj, lap.v_left, sc.gains, sc.disturbance, cert.P)
    tables = [_trajectory_table(arts.trajectory_csv, traj),
              _CsvTable(arts.metrics_csv, partial(metrics_csv_text, metrics),
                       metrics["t"].shape[0], len(METRIC_COLUMNS))]
    summary = _write_csvs(tables, lambda: _summary(sc, traj, metrics, lap, cert, report))
    _atomic_write(arts.summary_json, _json_chunks(summary))
    _atomic_write(arts.certification_json, certification_json_text(cert_doc))
    return arts


def read_csv(path) -> tuple[list, np.ndarray]:
    """Read one of the artifact CSVs back: (column names, data matrix).

    Raises ValidationError naming the file, for bytes that are not UTF-8,
    and the line of a row whose field count differs from the header's or
    that holds a non-number."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            body = fh.read().strip()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    if not header:
        raise ValidationError(f"{path}: empty file")
    names = header.split(",")
    if not body:
        return names, np.empty((0, len(names)))
    rows = [line.split(",") for line in body.split("\n")]
    for line, row in enumerate(rows, start=2):
        if len(row) != len(names):
            raise ValidationError(f"{path}, line {line}: {len(row)} fields, "
                                  f"but the header has {len(names)}")
    try:
        return names, np.array(rows, dtype=float)
    except ValueError:
        for line, row in enumerate(rows, start=2):
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise ValidationError(f"{path}, line {line}: {exc}") from None
        raise
