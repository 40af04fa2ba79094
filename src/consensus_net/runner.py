"""Scenario execution pipeline and artifact writing.

A run checks the scenario's step grid, builds the Laplacian, integrates the
closed loop, solves the Lyapunov certificate, certifies the gain conditions
(advisory: failures are recorded, not fatal), post-processes the trajectory,
and writes four artifacts into the output directory.  It runs the scenario
as given; ``scenario.align_dt`` rewrites a grid beforehand.

    trajectory.csv      t, x_1..x_n, y_1..y_n, dhat_1..dhat_n
    metrics.csv         t, ||e_x||, ||e_y||, ||e_d||, x_m, y_m, delta_m, lyap
    summary.json        scenario echo plus derived results
    certification.json  gain checks, certificate facts

All files are written atomically (temp file + rename) with fixed formatting
(17 significant digits, '.' decimal separator, '\\n' line endings) so a rerun
of the same scenario produces identical bytes.  The JSON files are
``json.dumps(doc, indent=2, sort_keys=True)``, written by the package's one
indented-JSON writer, ``jsontext.indented_json``.  ``run`` hands
``certification_json_text`` the certificate's P as it stores it: a dense P
is written as its rows, a CSR P (a tree's, on which 98 % of P is exactly
zero) as its stored entries.

The two CSV files are bytes from ``_csv_chunks``, whoever formats them, one
block of rows (``analysis.row_blocks``) at a time: one call per block of
``csvtext.rows_text``, the package's one CSV number formatter.  The
certificate and the simulation are independent consumers of the graph, so
only the Laplacian and the integration run before the CSV writer starts.
``_write_csv`` writes trajectory.csv.  When the two tables hold more than
``FORK_MIN_VALUES`` values and two CPUs are free, it forks one child as
soon as the trajectory exists, and the queue that the child and this
process share holds trajectory.csv's blocks alone: each claims the next
unclaimed block and formats it.  Meanwhile this process solves the
certificate, certifies the gains, computes the metrics and the summary,
writes both JSON files and writes all of metrics.csv (whose rows do not
exist when the child is forked) itself, then joins in, and writes
trajectory.csv from its own blocks and the child's.  If the child fails,
this process formats the blocks that the child did not report.  The bytes
do not depend on which process formatted which rows.
"""

from __future__ import annotations

import contextlib
import os
import signal
import struct
import tempfile
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import analysis, csvtext
from .dynamics import MatchedLoop, UnmatchedLoop
from .errors import IntegrationDivergedError, NoOrbitError, SignalFitError, ValidationError
from .gains import certify_matched, certify_unmatched, is_S_hurwitz
from .graph import build_laplacian
from .jsontext import indented_json
from .scenario import Scenario, scenario_to_json
from .sim import SimParams, Trajectory, integrate
from .spectral import require_spanning_tree, solve_P

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
#: CPUs.  On a 2-vCPU x86 VM (the unmatched builtin sampled every step,
#: medians of 11-15 alternating runs of ``run``) the fork, the child's start
#: and exit and the part files cost more than the second CPU saved up to
#: 100k values (25k: 27 against 14 ms; 50k: 31 against 21 ms; 100k: 45-57
#: against 43 ms), and the fork won from 125k (45 against 60 ms) and at 200k
#: (96-104 against 111-117 ms)
FORK_MIN_VALUES = 100_000


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
    return [indented_json(doc), "\n"]


def certification_json_text(doc: dict) -> list:
    """``_json_chunks`` of the certification document, with
    ``doc["certificate"]["P"]`` spelled as it is stored.  A dense ``P`` (rows
    of floats, or an array) is its rows.  A CSR ``P`` is its stored entries,
    ``{"shape": [n, n], "rows": [...], "cols": [...], "values": [...]}``,
    0-based and in row-major order, explicit zeros included, from which
    ``scipy.sparse.csr_array((values, (rows, cols)), shape)`` rebuilds it bit
    for bit: on the 600-agent large-graph tree of seed 5 that is 7,850
    entries of 360,000, and 430 kB of text against 4.8 MB.  JSON has no spelling for a
    non-finite float, so such a ``P`` raises ``ValueError`` here, before any
    text."""
    P = doc["certificate"]["P"]
    if hasattr(P, "nnz"):
        P = P.tocoo()
        P.sum_duplicates()  # which sorts the entries into row-major order
        values = P.data
        spelled = {"shape": list(P.shape), "rows": P.row.tolist(), "cols": P.col.tolist(),
                   "values": values}
    else:
        spelled = values = np.asarray(P, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("certificate P has non-finite entries, which JSON cannot hold")
    return _json_chunks({**doc, "certificate": {**doc["certificate"], "P": spelled}})


def _csv_chunks(header, columns: list, start: int = 0, stop: int | None = None) -> list:
    """CSV text of rows ``start:stop`` as a list of bytes chunks: the header
    line when ``start`` is 0, then one chunk per block of rows.  ``columns``
    holds 1-D and 2-D arrays with one row per CSV line; every value is
    written with 17 significant digits by ``csvtext.rows_text``, one call per
    block.  Runs in ``_write_csv``'s child too, so it calls no BLAS:
    ``np.column_stack`` and ``csvtext`` only."""
    columns = [c[start:stop] for c in columns]
    chunks = [(",".join(header) + "\n").encode()] if start == 0 else []
    for rows in analysis.row_blocks(columns[0].shape[0], len(header)):
        chunks.append(csvtext.rows_text(np.column_stack([c[rows] for c in columns])))
    return chunks


@cache
def _trajectory_header(n: int) -> tuple:
    """trajectory.csv's column names for ``n`` agents, spelled once per ``n``
    although ``_write_csv`` asks for the text one block of rows at a time."""
    return ("t", *(f"{s}_{i + 1}" for s in ("x", "y", "dhat") for i in range(n)))


def trajectory_csv_text(traj: Trajectory, start: int = 0, stop: int | None = None) -> list:
    return _csv_chunks(_trajectory_header(traj.n_agents), [traj.times, traj.states], start, stop)


def metrics_csv_text(metrics: dict, start: int = 0, stop: int | None = None) -> list:
    return _csv_chunks(METRIC_COLUMNS, [metrics[c] for c in METRIC_COLUMNS], start, stop)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _table_chunks(text, span, block=None):
    """The chunks of the table whose rows ``text(start, stop)`` formats, cut
    into the blocks of ``span``: the header alone when it has no rows, else
    each block's chunks in order, ``block(k)``'s for block k or, by default,
    ``text``'s, formatted here as each is asked for."""
    if not span:
        yield from text(0, 0)  # the header alone
    for k, rows in enumerate(span):
        yield from (text(rows.start, rows.stop) if block is None else block(k))


def _write_csv(path: Path, text, span: list, values: int, meanwhile) -> None:
    """Write the table whose rows ``text(start, stop)`` formats, cut into the
    blocks of ``span`` (``analysis.row_blocks``), atomically to ``path``, and
    call ``meanwhile()`` before any of its rows are formatted here.

    When ``values`` (the table's values and those ``meanwhile`` writes)
    exceeds ``FORK_MIN_VALUES``, ``os.fork`` exists and this process may run
    on two CPUs, one forked child (``_fork_formatter``) starts on the blocks
    while this process runs ``meanwhile``.  The two then share the blocks as
    a queue: each claims the next unclaimed block, formats it and claims
    again, until none is left.  So whichever process is free formats the
    next block, and no split has to be guessed beforehand.  This process
    then writes the table from its own blocks, the child's reported bytes,
    and its own formatting of any block that the child claimed but never
    reported (it failed first) or whose bytes cannot be read back whole.
    Without a child this process formats every block, each as the write
    asks for it.  Either way ``text`` formats every block, so the bytes do
    not depend on who ran it.  On every path the child is reaped (killed
    first) and the part file removed.
    """
    fork = values > FORK_MIN_VALUES and hasattr(os, "fork") and _cpus() >= 2
    with contextlib.ExitStack() as cleanup:
        child = _fork_formatter(text, span, path.parent, cleanup) if fork else None
        meanwhile()
        if child is None:
            _atomic_write(path, _table_chunks(text, span))
            return
        mine = {k: text(span[k].start, span[k].stop) for k in _claims(child.queue)}

        def block(k):
            if k in mine:
                return mine.pop(k)
            data = child.bytes_of(k)
            return text(span[k].start, span[k].stop) if data is None else [data]

        _atomic_write(path, _table_chunks(text, span, block))


class _Formatter:
    """The child that ``_fork_formatter`` forked, as this process sees it:
    the queue of block numbers that the two share, the part file the child
    writes, and the pipe on which it reports each block it formatted."""

    #: a block number in the queue
    token = struct.Struct("=I")
    #: a block the child formatted: its number, then its offset and length
    #: in the part file
    report = struct.Struct("=3Q")

    def __init__(self, queue: int, part: int, reports):
        self.queue, self.part, self.reports = queue, part, reports

    def bytes_of(self, k: int):
        """The child's bytes of block ``k``, from its next report, waited for
        if need be.  Only the blocks the child claimed are asked for, in the
        increasing order in which it claimed, formatted and reported them,
        so the next report names ``k`` unless the child ended first.  None
        when no report, or one naming another block, comes, or when the
        reported bytes cannot be read back whole."""
        record = self.reports.read(self.report.size)
        if len(record) < self.report.size:
            return None  # every copy of the write end is closed
        block, offset, length = self.report.unpack(record)
        if block != k:
            return None
        try:
            data = os.pread(self.part, length, offset)
        except OSError:
            return None
        return data if len(data) == length else None


def _claims(queue: int):
    """The numbers of the blocks this process claims, in order, until none is
    left: each is the next token read from the file ``queue``, whose open
    file description both processes share.  Reads that share one move its
    offset atomically, so each token is read by one process alone.  A read
    of a regular file never blocks, however many tokens it holds, where a
    pipe would hold 64 KiB of them and block the one who fills it."""
    while token := os.read(queue, _Formatter.token.size):
        yield _Formatter.token.unpack(token)[0]


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _format_claims(text, span: list, queue: int, part: int, reports: int) -> None:
    """In the forked child: format each block of ``span`` claimed from
    ``queue`` with ``text`` into the file ``part``, then report its number,
    offset and length on the pipe ``reports``.  A report follows its bytes,
    so this process uses no byte that the child wrote after its last
    report."""
    offset = 0
    for k in _claims(queue):
        data = b"".join(text(span[k].start, span[k].stop))
        _write_all(part, data)
        os.write(reports, _Formatter.report.pack(k, offset, len(data)))
        offset += len(data)


def _reap(pid: int) -> None:
    """Kill the child, whatever it still does, and wait for it."""
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _make_directory(directory: Path, cleanup: contextlib.ExitStack) -> None:
    """Make ``directory`` with its missing parents, and let ``cleanup``
    remove those it made, if they are still empty, when it exits on an
    exception: a run that fails before it writes an artifact leaves no new
    directory behind."""
    made = [d for d in (directory, *directory.parents) if not d.exists()]
    directory.mkdir(parents=True, exist_ok=True)

    def remove(exc_type, exc, tb):
        if exc_type is not None:
            for d in made:  # the deepest first
                with contextlib.suppress(OSError):
                    d.rmdir()

    cleanup.push(remove)


def _fork_formatter(text, span: list, directory: Path, cleanup: contextlib.ExitStack):
    """Fork the one child that claims the blocks of ``span`` beside this
    process and formats them with ``text``, and return it as a
    ``_Formatter``; None when the fork fails, or when ``directory``, the
    queue, the part file or the pipe cannot be made (an unwritable output
    directory, say).  Then this process formats every block, and the fault,
    if it lasts, surfaces in its own writes, after whatever
    ``_write_csv``'s ``meanwhile`` raises first.

    The queue (an unnamed file of every block number), the part file in
    ``directory`` (prefix ``.``, suffix ``.tmp``, like ``_atomic_write``'s)
    and the report pipe are made before the fork, and ``cleanup`` closes
    them, removes the part and reaps the child.  The child only formats,
    since numpy's BLAS threads do not exist in it.  It ends in
    ``os._exit``, so it never returns into the caller nor flushes the stdio
    buffers it inherited.  This process closes its copy of the pipe's write
    end, so that the child's exit ends the reports."""
    try:
        _make_directory(directory, cleanup)
        queue = cleanup.enter_context(tempfile.TemporaryFile(dir=directory, buffering=0)).fileno()
        _write_all(queue, b"".join(map(_Formatter.token.pack, range(len(span)))))
        os.lseek(queue, 0, os.SEEK_SET)
        part, path = tempfile.mkstemp(dir=directory, prefix=".csv-blocks.", suffix=".tmp")
        cleanup.callback(os.close, part)
        cleanup.callback(Path(path).unlink, missing_ok=True)
        reports_r, reports_w = os.pipe()
    except OSError:
        return None
    reports = cleanup.enter_context(os.fdopen(reports_r, "rb"))
    try:
        try:
            pid = os.fork()
        except OSError:
            return None
        if pid == 0:
            code = 1
            try:
                _format_claims(text, span, queue, part, reports_w)
                code = 0
            finally:
                os._exit(code)
        cleanup.callback(_reap, pid)
        return _Formatter(queue, part, reports)
    finally:
        os.close(reports_w)


def _last_switch(sc: Scenario, default: float) -> float:
    """The last disturbance switch before ``t_final``, else ``default``."""
    return max([s for s in sc.disturbance.switch_times if s < sc.t_final], default=default)


def _orbit_window(sc: Scenario) -> tuple[float, float]:
    return (_last_switch(sc, sc.t_final / 2.0), sc.t_final)


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
        results["orbit_fits"] = {"window": list(window), "series": "x"}
        try:
            # every agent's fit shares the window, whose samples may be too few
            analysis.window_mask(traj.times, window)
        except SignalFitError as exc:
            results["orbit_fits"]["error"] = str(exc)
        else:
            fits = []
            for i in range(traj.n_agents):
                try:
                    fit = analysis.fit_orbit(traj.times, traj.x[:, i], window)
                    fits.append({"agent": i + 1, **fit.to_json()})
                except NoOrbitError as exc:
                    fits.append({"agent": i + 1, "error": str(exc)})
            results["orbit_fits"]["fits"] = fits
        windows = analysis.sync_deviation_windows(traj, lap.v_left, g, sc.disturbance,
                                                  window_len=SYNC_WINDOW_LEN,
                                                  start=_last_switch(sc, 0.0))
        results["sync_windows"] = windows
        results["late_window_max_deviation"] = windows[-1]["max_deviation"] if windows else None
        results["expected_orbit_frequency"] = float(np.sqrt(g.alpha1))
        results["estimation"] = None
    return {
        "scenario": scenario_to_json(sc),
        "results": results,
    }


def _solve_P(sc: Scenario, lap):
    return solve_P(lap, Q=np.full(sc.n_agents, sc.q_scale), alpha=sc.alpha)


def _certify(sc: Scenario, cert):
    return (certify_matched if sc.mode == "matched" else certify_unmatched)(sc.gains, cert)


def _closed_loop(sc: Scenario, lap):
    return (MatchedLoop if sc.mode == "matched" else UnmatchedLoop)(sc.gains, lap, sc.disturbance)


def certificate(sc: Scenario):
    """The Laplacian and Lyapunov certificate of a scenario's graph, as
    ``(lap, cert)``."""
    lap = build_laplacian(sc.graph)
    return lap, _solve_P(sc, lap)


def prepare(sc: Scenario):
    """The Laplacian, certificate, certification report and closed loop of a
    scenario, as ``(lap, cert, report, loop)``."""
    lap, cert = certificate(sc)
    return lap, cert, _certify(sc, cert), _closed_loop(sc, lap)


def run(sc: Scenario, out_dir) -> RunArtifacts:
    """Execute a scenario and write all four artifacts into ``out_dir``.

    The grid is checked and the Laplacian built first, and a graph without
    a spanning tree is rejected before integrating.  Then the closed loop is
    integrated, and ``_write_csv`` forks its child, if it forks one, as
    soon as the trajectory exists.  Its fork rule counts the values of both
    tables, although only trajectory.csv's blocks are queued.  While the
    child starts on them, this process solves the certificate, certifies
    the gains (failures do not stop the run: the report records them),
    computes the metrics and the summary, writes both JSON files and then
    writes metrics.csv alone, block after block as each is formatted.

    The certificate's errors win, as if it came first: when building the
    closed loop or integrating raises, the certificate is solved before the
    error is handled, and its own error, if any, is raised instead.  A
    certificate that fails after the fork leaves no artifact and no new
    directory.  Numerical divergence writes the partial trajectory and
    certification artifacts, then re-raises IntegrationDivergedError.
    """
    out = Path(out_dir)
    params = SimParams(t_final=sc.t_final, dt=sc.dt, sample_every=sc.sample_every)
    lap = build_laplacian(sc.graph)
    require_spanning_tree(lap)
    arts = RunArtifacts(
        trajectory_csv=out / "trajectory.csv",
        metrics_csv=out / "metrics.csv",
        summary_json=out / "summary.json",
        certification_json=out / "certification.json",
    )
    z0 = np.concatenate([sc.x0, sc.y0, sc.delta_hat0])

    def certified():
        cert = _solve_P(sc, lap)
        return cert, _certify(sc, cert)

    def write_certification(cert, report):
        _atomic_write(arts.certification_json, certification_json_text({
            "report": report.to_json(),
            "certificate": {**cert.scalars_json(), "P": cert.P},
            "scenario": sc.name,
            "mode": sc.mode,
        }))

    def write_trajectory(traj, meanwhile, later_columns=0):
        # the fork rule counts the values of the rows that meanwhile writes
        rows, columns = traj.times.shape[0], 1 + traj.states.shape[1]
        _write_csv(arts.trajectory_csv, partial(trajectory_csv_text, traj),
                   analysis.row_blocks(rows, columns), rows * (columns + later_columns), meanwhile)

    try:
        traj = integrate(_closed_loop(sc, lap), z0, params)
    except Exception as exc:
        cert, report = certified()
        if isinstance(exc, IntegrationDivergedError):
            if exc.partial is None:
                write_certification(cert, report)
            else:
                write_trajectory(exc.partial, partial(write_certification, cert, report))
        raise

    def write_the_rest():
        cert, report = certified()
        metrics = analysis.trajectory_metrics(traj, lap.v_left, sc.gains, sc.disturbance, cert.P)
        _atomic_write(arts.summary_json, _json_chunks(_summary(sc, traj, metrics, lap, cert, report)))
        write_certification(cert, report)
        _atomic_write(arts.metrics_csv, _table_chunks(
            partial(metrics_csv_text, metrics),
            analysis.row_blocks(metrics["t"].shape[0], len(METRIC_COLUMNS))))

    write_trajectory(traj, write_the_rest, later_columns=len(METRIC_COLUMNS))
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
