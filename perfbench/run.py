#!/usr/bin/env python3
"""End-to-end benchmark of one ``consensus_net.runner.run`` per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a full checkout; the program is imported from
``src/`` next to this directory, and all files go to ``.perfbench-out/``.

One invocation generates the workload's scenario document from the seed,
measures set-up in separate processes (import, scenario build, one
short-horizon warm-up run), then repeats ``runner.run`` for ``--seconds``
seconds and checks every run's artifacts (see ``checks.py``).  Operations run
one after another in this process (a closed loop with one client).

``--trace 0`` reports the end-to-end metrics ``run_s`` (median time of one
run), ``setup_s`` (median set-up time) and ``peak_rss_mb``.

The host is shared, and its speed drifts by tens of percent within seconds,
which no number of runs in one invocation averages out.  So while a run (or
a set-up) is timed, ``SpeedProbe`` interrupts it every ``PROBE_INTERVAL_S``
to time a small fixed piece of interpreter-bound work (``speed_unit``, none
of the program's code).  A timing is reported as its wall time minus those
interruptions, scaled to the machine speed at which the unit takes
``NOMINAL_UNIT_S``; the raw wall-time medians are printed next to it.

``--trace 1`` alternates untraced and traced runs, without speed samples,
and reports the per-layer split of the traced ones (see ``tracing.py``) and
the tracing overhead: the traced minus the untraced median wall time, which
host drift can make negative.

The last line of standard output is one JSON object; the exit code is 1
when any run raised or failed a check.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
REFERENCES = BENCH_DIR / "references.json"

#: set-up is measured in fresh processes, at least this many times and for
#: at least this long per invocation
SETUP_PROBES = 3
SETUP_MIN_S = 4.0
#: samples in the warm-up run's horizon
WARMUP_SAMPLES = 10
#: repetitions of scenario_from_json behind scenario.build_s
BUILD_REPEATS = 5
PROBE_TIMEOUT_S = 120

#: how often a timed call is interrupted to sample the machine's speed
PROBE_INTERVAL_S = 0.1
#: seconds one ``speed_unit`` takes on the reference host (2-core Xeon VM,
#: Python 3.11, numpy 2.4) while the benchmark runs
NOMINAL_UNIT_S = 0.004


def speed_unit() -> float:
    """Seconds for a fixed piece of the kind of work that bounds the program:
    interpreter-bound steps on small arrays, and float formatting."""
    t0 = time.perf_counter()
    z = np.zeros(15)
    a = np.ones(15)
    for _ in range(1000):
        z = z * 0.999 + 0.001 * a
        z[0:5] = z[5:10] - 0.5 * z[10:15]
    ",".join(f"{v:.17g}" for v in z)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed, on the measured process's own CPU, while
    the ``with`` body runs: a SIGALRM handler times one ``speed_unit`` every
    ``PROBE_INTERVAL_S``."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum, _frame):
        self.samples.append(speed_unit())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside_s = sum(self.samples)
        if not self.samples:
            # too short to be interrupted: sample once right after it
            self.samples.append(speed_unit())
        self.unit_s = statistics.mean(self.samples)
        return False

    def scaled(self, wall_s: float) -> float:
        return scale(wall_s, self.inside_s, self.unit_s)


def scale(wall_s: float, inside_s: float, unit_s: float) -> float:
    """Wall time without the speed samples, at the nominal machine speed."""
    return (wall_s - inside_s) * NOMINAL_UNIT_S / unit_s


def set_up(doc_path: Path, out_dir: Path):
    """Import the program, build the scenario from its document and make
    one untimed short-horizon run, as a command-line user would."""
    from consensus_net import runner
    from consensus_net.scenario import scenario_from_json

    sc = scenario_from_json(json.loads(doc_path.read_text()))
    runner.run(sc.with_overrides(t_final=sc.dt * sc.sample_every * WARMUP_SAMPLES), out_dir)
    return sc


def measure_setup(doc_path: Path, out_dir: Path) -> float:
    """Seconds from starting a fresh interpreter until it could begin a timed
    run: (wall, scaled by the probe's own speed samples)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(doc_path),
           "--out-dir", str(out_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    fields = line.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, scale(elapsed, float(fields[1]), float(fields[2]))


def load_reference(workload: str, doc: dict) -> dict:
    """Stored reference for the fixed workloads; seeded ones derive theirs."""
    stored = json.loads(REFERENCES.read_text())
    if workload in stored:
        return stored[workload]
    return checks.derive_reference(doc)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], q[2])


def _row(name, value, unit, samples=None, spread=None) -> str:
    text = f"  {name:<32} {value:>14.6g} {unit:<6}"
    if samples is not None:
        text += f" n={samples}"
    if spread is not None:
        text += f"  q1={spread[0]:.6g} q3={spread[1]:.6g}"
    return text


def bench(args) -> int:
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    doc = workloads.scenario_document(args.workload, args.seed)
    doc_path = work / "scenario.json"
    doc_path.write_text(json.dumps(doc, indent=1) + "\n")

    setup = []
    t_begin = time.perf_counter()
    while not args.trace and (len(setup) < SETUP_PROBES
                              or time.perf_counter() - t_begin < SETUP_MIN_S):
        setup.append(measure_setup(doc_path, work / "probe"))
    sc = set_up(doc_path, work / "warmup")
    from consensus_net import runner
    from consensus_net.scenario import scenario_from_json

    build_times = []
    if args.trace:
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            scenario_from_json(doc)
            build_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    run_dir = work / "run"
    ops = []

    t_begin = time.perf_counter()
    while len(ops) < 1 + args.trace or time.perf_counter() - t_begin < args.seconds:
        # trace mode alternates untraced and traced runs, starting untraced
        op = {"id": len(ops), "traced": bool(args.trace) and len(ops) % 2 == 1, "error": None}
        ops.append(op)
        try:
            if args.trace:
                # no speed samples here: they would land in the spans
                t0 = time.perf_counter()
                if op["traced"]:
                    tracer.traced_run(runner.run, op["id"], sc, run_dir)
                else:
                    runner.run(sc, run_dir)
                op["seconds"] = time.perf_counter() - t0
            else:
                with SpeedProbe() as probe:
                    t0 = time.perf_counter()
                    runner.run(sc, run_dir)
                    op["seconds"] = time.perf_counter() - t0
                op["scaled"] = probe.scaled(op["seconds"])
        except Exception as exc:  # a run that raises is a failed op, not a crash
            op["error"] = f"{type(exc).__name__}: {exc}"
            continue
        op["facts"] = checks.read_facts(run_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = load_reference(args.workload, doc)
    first_digest = None
    for op in ops:
        if op["error"] is None:
            first_digest = first_digest or op["facts"]["digest"]
            failures = checks.check_facts(op["facts"], reference, doc, first_digest)
            if failures:
                op["error"] = "; ".join(failures)
    failed = [op for op in ops if op["error"] is not None]
    passed = [op for op in ops if op["error"] is None]

    print(f"workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    for op in failed:
        print(f"  op {op['id']} FAILED: {op['error']}")
    if args.trace:
        metrics = trace_metrics(tracer, passed, sc, build_times)
        (work / "spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    else:
        metrics = {}
        if passed:
            scaled = [op["scaled"] for op in passed]
            metrics["run_s"] = {"value": statistics.median(scaled), "unit": "s"}
            print(_row("run_s", metrics["run_s"]["value"], "s", len(scaled), quartiles(scaled))
                  + f"  wall {statistics.median(op['seconds'] for op in passed):.6g}")
        scaled = [t for _wall, t in setup]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        print(_row("setup_s", metrics["setup_s"]["value"], "s", len(scaled), quartiles(scaled))
              + f"  wall {statistics.median(wall for wall, _t in setup):.6g}")
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
        print(_row("peak_rss_mb", peak_rss_mb, "MiB", 1))
    print(_row("ops_attempted", len(ops), "count"))
    print(_row("ops_failed", len(failed), "count"))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


def trace_metrics(tracer, passed: list, sc, build_times: list) -> dict:
    """Per-layer metrics: medians over the traced runs that passed."""
    traced = [op for op in passed if op["traced"]]
    untraced = [op["seconds"] for op in passed if not op["traced"]]
    if not traced or not untraced:
        return {}
    split = tracing.median_split([tracer.split(op["id"]) for op in traced])
    steps = round(sc.t_final / sc.dt)
    samples = steps // sc.sample_every + 1
    analysis_s = split["trajectory_metrics_s"] + split["summary_s"]
    rows = [
        ("graph.build_laplacian_s", split["build_laplacian_s"], "s"),
        ("spectral.solve_P_s", split["solve_P_s"], "s"),
        ("gains.certify_s", split["certify_s"], "s"),
        ("sim.integrate_s", split["integrate_s"], "s"),
        ("sim.steps", steps, "count"),
        ("sim.us_per_step", 1e6 * split["integrate_s"] / steps, "us"),
        ("analysis.trajectory_metrics_s", split["trajectory_metrics_s"], "s"),
        ("analysis.summary_s", split["summary_s"], "s"),
        ("analysis.samples", samples, "count"),
        ("analysis.us_per_sample", 1e6 * analysis_s / samples, "us"),
        ("analysis.consensus_errors_calls", split["consensus_errors_calls"], "count"),
        ("dynamics.eval_disturbance_calls", split["eval_disturbance_calls"], "count"),
        ("runner.csv_text_s", split["csv_text_s"], "s"),
        ("runner.self_s", split["runner_self_s"], "s"),
        ("runner.bytes_written", traced[0]["facts"]["bytes"], "bytes"),
        ("scenario.build_s", statistics.median(build_times), "s"),
    ]
    rows += [(f"{layer}.self_s", seconds, "s") for layer, seconds in split["self_s"].items()]
    rows += [
        ("traced_run_s", split["run_s"], "s"),
        ("trace_overhead_s", split["run_s"] - statistics.median(untraced), "s"),
    ]
    print(f"per-layer split: median of {len(traced)} traced run(s), "
          f"{len(untraced)} untraced run(s) for the overhead; % of the traced run")
    for name, value, unit in rows:
        line = _row(name, value, unit)
        if name.endswith(".self_s") or name == "runner.csv_text_s":
            line += f"  {100 * value / split['run_s']:5.1f} %"
        print(line)
    accounted = sum(split["self_s"].values()) + split["csv_text_s"] + split["runner_self_s"]
    print(_row("sum of layer self times", accounted, "s")
          + f"  of traced run {split['run_s']:.6g} s")
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "consensus_net" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'consensus_net'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        with SpeedProbe() as probe:
            set_up(args.setup_probe, args.out_dir)
        print(f"ready {probe.inside_s!r} {probe.unit_s!r}", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
