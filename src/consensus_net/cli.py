"""Command-line front end.

Subcommands:

    graph analyze <file>            Laplacian, spanning tree, left eigenvector
    gains certify <scenario>        evaluate the gain conditions, print table
    gains suggest <scenario>        pick a certified gain set (matched mode)
    simulate <scenario> --out DIR   run and write CSV/JSON artifacts
    plot <dir> --series NAME        render one SVG chart from run artifacts

``<scenario>`` is a JSON file path or a builtin name (``paper-matched``,
``paper-unmatched``); ``--align-dt`` applies ``scenario.align_dt`` to it.
The CONSENSUS_NET_OUT environment variable overrides the default output
directory.  Exit codes: 0 success, 2 invalid input (bad data, a graph whose
spectrum cannot be certified, infeasible gains, values so extreme that a
matrix routine or the certificate's arithmetic fails, a grid of more than
2**53 steps, arrays that cannot be allocated, a plot range that overflows),
3 numerical divergence, 4 I/O failure.  An error exit prints one
``error: <message>`` line on stderr and nothing else there; after exit 0
each warning the command raised is one ``warning: <message>`` line there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import runner, sparsity, svgchart
from .errors import (
    DegenerateSpectrumError,
    InfeasibleGainError,
    IntegrationDivergedError,
    ValidationError,
)
from .gains import certify_matched, suggest_matched
from .graph import build_laplacian, graph_from_json
from .jsontext import indented_json
from .scenario import BUILTIN_NAMES, align_dt, load_scenario, read_json_file
from .spectral import solve_P

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

PLOT_SERIES = ("x", "y", "dhat", "errors", "lyapunov")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consensus-net",
        description="Simulate and certify integral consensus controllers on directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_analyze = graph_sub.add_parser("analyze", help="analyze a graph JSON file")
    p_analyze.add_argument("file", help="graph JSON file")
    p_analyze.add_argument("--json", dest="json_out", help="also write the analysis as JSON")

    p_gains = sub.add_parser("gains", help="gain certification utilities")
    gains_sub = p_gains.add_subparsers(dest="gains_command", required=True)
    p_certify = gains_sub.add_parser("certify", help="certify a scenario's gains")
    p_certify.add_argument("scenario", help=f"scenario file or one of: {', '.join(BUILTIN_NAMES)}")
    p_certify.add_argument("--json", dest="json_out", help="also write the report as JSON")
    p_suggest = gains_sub.add_parser("suggest", help="suggest certified matched gains")
    p_suggest.add_argument("scenario", help="matched-mode scenario file or builtin name")
    p_suggest.add_argument("--gamma1", type=float, help="override gamma1")
    p_suggest.add_argument("--gamma3", type=float, help="override gamma3")
    p_suggest.add_argument("--mu", type=float, help="override mu")
    p_suggest.add_argument("--b", type=float, help="override b")

    p_sim = sub.add_parser("simulate", help="run a scenario and write artifacts")
    p_sim.add_argument("scenario", help=f"scenario file or one of: {', '.join(BUILTIN_NAMES)}")
    p_sim.add_argument("--out", help="output directory (default: $CONSENSUS_NET_OUT/<name> "
                                     "or ./runs/<name>)")
    p_sim.add_argument("--t-final", type=float, dest="t_final", help="override the horizon")
    p_sim.add_argument("--dt", type=float, help="override the step size")
    p_sim.add_argument("--align-dt", action="store_true", dest="align_dt",
                       help="shrink dt to the largest value that divides all switch times")

    p_plot = sub.add_parser("plot", help="render an SVG chart from run artifacts")
    p_plot.add_argument("run_dir", help="directory written by 'simulate'")
    p_plot.add_argument("--series", required=True,
                        help=f"one of: {', '.join(PLOT_SERIES)}")
    p_plot.add_argument("--out", help="output SVG path (default: <run_dir>/<series>.svg)")
    return parser


def _cmd_graph_analyze(args) -> int:
    doc = read_json_file(args.file, "graph")
    try:
        g = graph_from_json(doc)
    except ValidationError as exc:
        raise ValidationError(f"graph file {args.file}: {exc}") from None
    lap = build_laplacian(g)
    print(f"agents: {g.n_agents}")
    print(f"spanning tree: {'yes' if lap.has_spanning_tree else 'no'}")
    print(f"|L| (spectral norm): {lap.lambda_L:.6g}")
    if lap.has_spanning_tree:
        print("left eigenvector:", " ".join(f"{v:.6g}" for v in lap.v_left))
        print(f"nonzero eigenvalues in right half plane: "
              f"{'yes' if lap.nonzero_eigenvalue_real_parts_positive else 'no'}")
        cert = solve_P(lap)
        print(f"lyapunov certificate: residual {cert.residual:.3e}, "
              f"|P| = {cert.lambda_P:.6g}, min eig P = {cert.min_eig_P:.6g}, "
              f"cond P = {cert.cond_P:.6g}")
    out = {
        "n": g.n_agents,
        "has_spanning_tree": lap.has_spanning_tree,
        "lambda_L": lap.lambda_L,
        "v_left": None if lap.v_left is None else [float(v) for v in lap.v_left],
        "L": sparsity.dense(lap.L).tolist(),
    }
    if args.json_out:
        Path(args.json_out).write_text(indented_json(out) + "\n")
        print(f"analysis written to {args.json_out}")
    return EXIT_OK


def _cmd_gains_certify(args) -> int:
    sc = load_scenario(args.scenario)
    _, cert, report, _ = runner.prepare(sc)
    print(f"scenario: {sc.name} ({sc.mode})")
    print(f"lambda_P = {cert.lambda_P:.6g}, lambda_L = {cert.lambda_L:.6g}")
    print(report.table())
    if args.json_out:
        doc = {"scenario": sc.name, "mode": sc.mode, "report": report.to_json()}
        Path(args.json_out).write_text(indented_json(doc) + "\n")
        print(f"report written to {args.json_out}")
    return EXIT_OK


def _cmd_gains_suggest(args) -> int:
    sc = load_scenario(args.scenario)
    if sc.mode != "matched":
        raise ValidationError("gains suggest: only matched-mode scenarios are supported")
    g = sc.gains
    gamma1 = args.gamma1 if args.gamma1 is not None else g.gamma1
    gamma3 = args.gamma3 if args.gamma3 is not None else g.gamma3
    mu = args.mu if args.mu is not None else g.mu
    b = args.b if args.b is not None else g.b
    # the certificate of the graph alone: the scenario's own gains, which the
    # suggestion replaces, need not certify or even stay finite
    _, cert = runner.certificate(sc)
    suggestion = suggest_matched(gamma1, gamma3, mu, b, cert)
    print(f"suggested gains for {sc.name}:")
    for field in fields(suggestion):
        print(f"  {field.name} = {getattr(suggestion, field.name):.10g}")
    print(certify_matched(suggestion, cert).table())
    return EXIT_OK


def _default_out_dir(name: str) -> Path:
    root = os.environ.get("CONSENSUS_NET_OUT")
    base = Path(root) if root else Path("runs")
    return base / name


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario).with_overrides(t_final=args.t_final, dt=args.dt)
    if args.align_dt:
        sc = align_dt(sc)
    out_dir = Path(args.out) if args.out else _default_out_dir(sc.name)
    try:
        arts = runner.run(sc, out_dir)
    except IntegrationDivergedError as exc:
        print(f"error: integration diverged: state non-finite after t = {exc.last_time}; "
              f"partial trajectory retained in {out_dir}", file=sys.stderr)
        return EXIT_DIVERGED
    summary = json.loads(arts.summary_json.read_text())
    results = summary["results"]
    print(f"scenario: {sc.name} ({sc.mode})")
    print(f"certification passed: {results['certification_passed']}")
    fe = results["final_errors"]
    print(f"final error norms: ex = {fe['ex_norm']:.3e}, ey = {fe['ey_norm']:.3e}, "
          f"ed = {fe['ed_norm']:.3e}")
    if sc.mode == "matched" and results.get("estimation"):
        est = results["estimation"]
        print(f"estimation at t = {est['t']:g}: max |dhat - d/gamma3| = {est['max_abs_error']:.3e}")
    if sc.mode == "unmatched":
        decay = results.get("decay_fit") or {}
        if "rate" in decay:
            print(f"average-velocity decay rate: {decay['rate']:.6g} "
                  f"(expected {decay['expected_rate']:g})")
        if results.get("late_window_max_deviation") is not None:
            print(f"late-window max |ybar_i - delta_m|: "
                  f"{results['late_window_max_deviation']:.3e}")
    for p in arts.paths():
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    series = args.series
    if series not in PLOT_SERIES:
        raise ValidationError(
            f"unknown series {series!r}; valid options: {', '.join(PLOT_SERIES)}")
    if series in ("x", "y", "dhat"):
        csv_path = run_dir / "trajectory.csv"
    else:
        csv_path = run_dir / "metrics.csv"
    if not csv_path.exists():
        raise ValidationError(f"missing artifact: {csv_path}")
    names, data = runner.read_csv(csv_path)
    if data.shape[0] == 0:
        raise ValidationError(f"{csv_path}: no samples to plot")
    t = data[:, 0]
    if series in ("x", "y", "dhat"):
        cols = [(name, data[:, k]) for k, name in enumerate(names) if name.startswith(series + "_")]
        title = {"x": "positions", "y": "velocities", "dhat": "integral actions"}[series]
        y_label = series
    else:
        if series == "errors":
            wanted = ("ex_norm", "ey_norm", "ed_norm")
            title = "consensus error norms"
            y_label = "norm"
        else:
            wanted = ("lyap",)
            title = "Lyapunov value"
            y_label = "value"
        missing = [name for name in wanted if name not in names]
        if missing:
            raise ValidationError(f"{csv_path}: missing column(s) {', '.join(missing)}")
        cols = [(name, data[:, names.index(name)]) for name in wanted]
    out_path = Path(args.out) if args.out else run_dir / f"{series}.svg"
    try:
        svgchart.write_line_chart(out_path, title, "time [s]", y_label, t, cols)
    except ValidationError as exc:
        raise ValidationError(f"{csv_path}: {exc}") from None
    print(f"wrote {out_path}")
    return EXIT_OK


# extreme inputs overflow on their way to an error or divergence exit code;
# numpy's warnings would only add source lines to stderr
@np.errstate(all="ignore")
def main(argv=None) -> int:
    """Run one command and return its exit code.  The warnings it raises are
    recorded: after exit 0 each is printed as one ``warning:`` line on
    stderr, and an error exit prints its own line alone."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        code = _run(parser, args)
    if code == EXIT_OK:
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    return code


def _run(parser, args) -> int:
    try:
        if args.command == "graph":
            return _cmd_graph_analyze(args)
        if args.command == "gains":
            if args.gains_command == "certify":
                return _cmd_gains_certify(args)
            return _cmd_gains_suggest(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "plot":
            return _cmd_plot(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValidationError, DegenerateSpectrumError, InfeasibleGainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except np.linalg.LinAlgError as exc:
        # input so extreme (a gain of 1e308, say) that a matrix routine fails
        print(f"error: linear algebra failed on this input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # a horizon so long, or a dt so small, that its arrays cannot exist
        print(f"error: not enough memory for this input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: i/o failed: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
