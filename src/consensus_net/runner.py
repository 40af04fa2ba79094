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
``FORK_MIN_VALUES`` values and two CPUs are free, it opens trajectory.csv's
temporary file and forks one child as soon as the trajectory exists.  The
two share trajectory.csv's blocks through a claim file of one byte per
block, read from both ends: the child claims blocks from the first, this
process from the last.  The child writes its blocks straight into the
temporary file, in order, and reports by its exit status alone.
Meanwhile this process solves the certificate, certifies the gains,
computes the metrics and the summary, writes both JSON files and writes
all of metrics.csv (whose rows do not exist when the child is forked)
itself, then joins in.  Once the child has exited 0 it appends its own
blocks; if the child failed, it empties the file and formats every block.
The bytes do not depend on which process formatted which rows.
"""

from __future__ import annotations

import contextlib
import os
import signal
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

#: length of the output-synchronization windows, unless the samples are
#: too far apart for it (``_summary``)
SYNC_WINDOW_LEN = 5.0

#: metrics.csv columns, in order
METRIC_COLUMNS = ("t", "ex_norm", "ey_norm", "ed_norm", "x_m", "y_m", "delta_m", "lyap")

#: CSV tables of more than this many values in all are formatted on two
#: CPUs.  On a 2-vCPU x86 VM (the unmatched builtin sampled every step, the
#: median of 15 runs of ``run`` in a fresh process per side, four alternating
#: pairs) the fork lost every pair at 25k values (11-12 against 9-10 ms) and
#: at 30k (11.6-12.1 against 11.4-11.5 ms), and won every pair from 40k
#: (13.2-13.5 against 13.6-21 ms), at 100k (22-24 against 27-28 ms) and at
#: 200k (41-43 against 58-60 ms).  The threshold sits above that crossover;
#: every benchmark workload counts at least 182k values and forks either way.
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


@contextlib.contextmanager
def _atomic_file(path: Path):
    """The descriptor of a temporary file beside ``path``, renamed over it
    when the block exits, and removed when the block raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        try:
            yield fd
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, chunks) -> None:
    """Write ``chunks``, each text (as UTF-8) or bytes, to ``path`` through
    ``_atomic_file``."""
    with _atomic_file(path) as fd:
        for chunk in chunks:
            _write_all(fd, chunk if isinstance(chunk, bytes) else chunk.encode())


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


def _table_chunks(text, span):
    """The chunks of the table whose rows ``text(start, stop)`` formats, block
    after block of ``span``, each formatted as it is asked for; a table
    without rows is its header alone."""
    for rows in span or [slice(0, 0)]:
        yield from text(rows.start, rows.stop)


def _write_csv(path: Path, text, span: list, values: int, meanwhile) -> None:
    """Write the table whose rows ``text(start, stop)`` formats, cut into the
    blocks of ``span`` (``analysis.row_blocks``), atomically to ``path``, and
    call ``meanwhile()`` before any of its rows are formatted here.

    When ``values`` (the table's values and those ``meanwhile`` writes)
    exceeds ``FORK_MIN_VALUES``, ``os.fork`` exists and this process may run
    on two CPUs, one forked child (``_fork_writer``) starts on the blocks
    while this process runs ``meanwhile``.  The two claim blocks by reading
    one byte at a time from a claim file of one byte per block, whose offset
    they share: the child's i-th read claims block i, this process's j-th
    block N-1-j.  So whichever process is free formats the next block, no
    split is guessed beforehand, and the child's blocks are a prefix
    0..c-1, which it writes straight into ``path``'s temporary file, in
    order.  Its exit status is its only report: when it exits 0, this
    process appends its own blocks c..N-1; otherwise it empties the file and
    formats every block.  Without a child this process formats every block
    as the write asks for it.  Either way ``text`` formats every block, so
    the bytes do not depend on who ran it, and on every path the child is
    reaped (killed first if it still runs).
    """
    span = span or [slice(0, 0)]  # a table without rows is one block: its header
    fork = values > FORK_MIN_VALUES and hasattr(os, "fork") and _cpus() >= 2
    with contextlib.ExitStack() as cleanup:
        child = _fork_writer(text, span, path, cleanup) if fork else None
        meanwhile()
        if child is None:
            _atomic_write(path, _table_chunks(text, span))
            return
        pid, claims, out = child
        n = len(span)
        mine = {k: text(span[k].start, span[k].stop) for k in _claims(claims, reversed(range(n)))}
        first = n - len(mine)  # the child claimed blocks 0..first-1
        if os.waitpid(pid, 0)[1] != 0:  # it failed, perhaps halfway through a block
            os.ftruncate(out, 0)
            os.lseek(out, 0, os.SEEK_SET)
            first = 0
        for k in range(first, n):
            for chunk in mine[k] if k in mine else text(span[k].start, span[k].stop):
                _write_all(out, chunk)


def _claims(claims: int, blocks):
    """The blocks of ``blocks`` that this process claims, in that order,
    until none is left: one per byte read from the file ``claims``, whose
    open file description both processes share.  Reads that share one move
    its offset atomically, so each byte is read by one process alone, and
    what it holds means nothing.  A read of a regular file never blocks,
    however many bytes it holds, where a pipe would hold 64 KiB of them and
    block the one who fills it."""
    for k in blocks:
        if not os.read(claims, 1):
            return
        yield k


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _reap(pid: int) -> None:
    """Kill the child if it still runs, and wait for it, unless it was
    waited for already."""
    with contextlib.suppress(ChildProcessError):
        if os.waitpid(pid, os.WNOHANG)[0] == 0:
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


def _fork_writer(text, span: list, path: Path, cleanup: contextlib.ExitStack):
    """Fork the one child that claims blocks of ``span`` beside this process
    and writes each, formatted with ``text``, into ``path``'s temporary file,
    and return ``(pid, claims, out)``: the child, the claim file's and the
    temporary file's descriptors.  None when ``path``'s directory, the
    temporary file, the claim file or the fork cannot be made (an unwritable
    output directory, say), and then nothing made here is left.  Then this
    process formats every block, and the fault, if it lasts, surfaces in its
    own writes, after whatever ``_write_csv``'s ``meanwhile`` raises first.

    The temporary file is ``_atomic_file``'s, which ``cleanup`` renames over
    ``path`` when it exits cleanly; the claim file is an unnamed file of one
    byte per block.  Both are made before the fork, and ``cleanup`` reaps
    the child first, then closes them.  The child only formats and writes,
    since numpy's BLAS threads do not exist in it.  It ends in ``os._exit``,
    so it never returns into the caller nor flushes the stdio buffers it
    inherited."""
    try:
        with contextlib.ExitStack() as made:
            _make_directory(path.parent, made)
            out = made.enter_context(_atomic_file(path))
            claims = made.enter_context(
                tempfile.TemporaryFile(dir=path.parent, buffering=0)).fileno()
            _write_all(claims, bytes(len(span)))
            os.lseek(claims, 0, os.SEEK_SET)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for k in _claims(claims, range(len(span))):
                        _write_all(out, b"".join(text(span[k].start, span[k].stop)))
                    code = 0
                finally:
                    os._exit(code)
            made.callback(_reap, pid)
            cleanup.push(made.pop_all())
    except OSError:
        return None
    return pid, claims, out


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

        def sync_windows(window_len):
            return analysis.sync_deviation_windows(traj, lap.v_left, g, sc.disturbance,
                                                   window_len=window_len,
                                                   start=_last_switch(sc, 0.0),
                                                   deviations=metrics["sync_deviation"])
        try:
            windows = sync_windows(window_len=SYNC_WINDOW_LEN)
        except ValidationError:
            # samples so far apart that the windows outnumber them: one
            # window per sample spacing, which never does
            windows = sync_windows(window_len=sc.dt * sc.sample_every)
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
