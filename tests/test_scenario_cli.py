"""Scenario documents, the run pipeline, and the command-line interface."""

import contextlib
import fnmatch
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from functools import partial
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import scipy.sparse
from hypothesis import event, given, settings
from hypothesis import strategies as st

from consensus_net import analysis, cli, runner, sparsity, spectral
from consensus_net.analysis import BLOCK_VALUES
from consensus_net.dynamics import eval_disturbance
from consensus_net.errors import (
    DegenerateSpectrumError,
    IntegrationDivergedError,
    ValidationError,
)
from consensus_net.gains import certify_matched
from consensus_net.graph import DirectedGraph, build_laplacian, graph_to_json
from consensus_net.scenario import (
    BUILTIN_NAMES,
    aligned_dt,
    builtin_scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from consensus_net.sim import SimParams, Trajectory

from conftest import random_tree_graph


def test_builtin_paper_matched_values():
    sc = builtin_scenario("paper-matched")
    g = sc.gains
    assert (g.gamma1, g.gamma2, g.gamma3, g.b) == (6.0, 17.0, 4.0, 10.0)
    assert g.gamma4 == pytest.approx(25.8)
    assert g.mu == 1.0
    assert sc.disturbance.switch_times == (50.0,)
    assert sc.t_final == 100.0
    assert np.array_equal(sc.x0, [1.0, -0.5, 0.5, -1.0, 0.0])
    assert sc.fig1_substitute
    # the stand-in topology: root 1 with edges 1->2, 2->3, 3->4, 2->5
    w = sc.graph.weights
    expected = np.zeros((5, 5))
    expected[1, 0] = expected[2, 1] = expected[3, 2] = expected[4, 1] = 1.0
    assert np.array_equal(w, expected)


def test_builtin_paper_unmatched_values():
    sc = builtin_scenario("paper-unmatched")
    g = sc.gains
    assert (g.alpha1, g.k_d, g.nu, g.k_s, g.k_x) == (7.5, 7.5, 3.0, 5.0, 3.4)
    assert g.alpha2 == 1.0
    assert sc.disturbance.switch_times == (20.0,)
    assert sc.t_final == 40.0


def test_builtin_disturbance_shapes():
    sc = builtin_scenario("paper-matched")
    d0 = eval_disturbance(sc.disturbance, 0.0)
    assert np.allclose(d0, np.array([0.1, -0.1, 0.2, -0.2, 0.1]) + 1.0 / 12.0)
    d_after = eval_disturbance(sc.disturbance, 60.0)
    assert np.allclose(d_after,
                       np.array([0.2, -0.2, -0.1, 0.2, -0.3]) + math.exp(-12.0) / 72.0)


def test_scenario_round_trip(tmp_path):
    """Both builtins, and a matched document without rho and epsilon, whose
    filled-in defaults (rho = gamma2, epsilon = 1) are echoed and read back."""
    doc = scenario_to_json(builtin_scenario("paper-matched"))
    del doc["gains"]["rho"], doc["gains"]["epsilon"]
    filled = scenario_from_json(doc)
    assert (filled.gains.rho, filled.gains.epsilon) == (17.0, 1.0)
    path = tmp_path / "scenario.json"
    for sc in (builtin_scenario("paper-matched"), builtin_scenario("paper-unmatched"), filled):
        save_scenario(sc, path)
        sc2 = load_scenario(path)
        assert sc2.gains == sc.gains
        assert scenario_to_json(sc) == scenario_to_json(sc2)


def test_scenario_validation_paths():
    base = scenario_to_json(builtin_scenario("paper-matched"))

    bad = json.loads(json.dumps(base))
    bad["graph"]["edges"][2]["w"] = -1.0
    with pytest.raises(ValidationError, match=r"edges\[2\]\.w"):
        scenario_from_json(bad)

    bad = json.loads(json.dumps(base))
    del bad["gains"]["gamma2"]
    with pytest.raises(ValidationError, match=r"gains\.gamma2"):
        scenario_from_json(bad)

    bad = json.loads(json.dumps(base))
    bad["mode"] = "both"
    with pytest.raises(ValidationError, match="mode"):
        scenario_from_json(bad)

    bad = json.loads(json.dumps(base))
    bad["initial"]["x"] = [1.0, 2.0]
    with pytest.raises(ValidationError, match=r"initial\.x"):
        scenario_from_json(bad)


def test_scenario_seeded_initial():
    doc = scenario_to_json(builtin_scenario("paper-matched"))
    doc["initial"] = {"seed": 1234}
    sc1 = scenario_from_json(doc)
    sc2 = scenario_from_json(doc)
    assert np.array_equal(sc1.x0, sc2.x0)
    assert np.abs(sc1.x0).max() <= 1.0
    assert np.array_equal(sc1.y0, np.zeros(5))


def test_unknown_builtin():
    with pytest.raises(ValidationError, match="paper-matched"):
        load_scenario("paper-matchedd")


def test_aligned_dt():
    sc = builtin_scenario("paper-matched")  # switch at 50, horizon 100
    dt = aligned_dt(sc, 0.003)
    assert dt <= 0.003
    k = 50.0 / dt
    assert abs(k - round(k)) < 1e-6
    # the aligned value passes the integrator's grid validation
    SimParams(t_final=100.0, dt=dt)
    sc2 = sc.with_overrides(t_final=1.0)
    assert aligned_dt(sc2, 0.25) == pytest.approx(0.25)


def test_run_writes_artifacts(tmp_path):
    sc = builtin_scenario("paper-matched").with_overrides(t_final=1.0)
    arts = runner.run(sc, tmp_path / "out")
    for p in arts.paths():
        assert p.exists()
    names, data = runner.read_csv(arts.trajectory_csv)
    assert names[0] == "t"
    assert names[1:6] == [f"x_{i}" for i in range(1, 6)]
    assert data.shape == (101, 16)
    summary = json.loads(arts.summary_json.read_text())
    assert summary["scenario"]["name"] == "paper-matched"
    assert "estimation" in summary["results"]
    cert_doc = json.loads(arts.certification_json.read_text())
    assert "report" in cert_doc and "certificate" in cert_doc


def test_run_byte_reproducible(tmp_path):
    sc = builtin_scenario("paper-unmatched").with_overrides(t_final=2.0)
    a = runner.run(sc, tmp_path / "a")
    b = runner.run(sc, tmp_path / "b")
    for pa, pb in zip(a.paths(), b.paths()):
        assert pa.read_bytes() == pb.read_bytes()


def test_run_single_step(tmp_path):
    sc = builtin_scenario("paper-matched").with_overrides(t_final=0.001, dt=0.001,
                                                          sample_every=1)
    arts = runner.run(sc, tmp_path / "tiny")
    _, data = runner.read_csv(arts.trajectory_csv)
    assert data.shape[0] == 2


_SPARSE_IMPORT_PROBE = """
import sys
import numpy as np
from consensus_net import kernels, runner
from consensus_net.dynamics import DisturbanceProfile
from consensus_net.scenario import builtin_scenario
for name in ("paper-matched", "paper-unmatched"):
    runner.run(builtin_scenario(name).with_overrides(t_final=2.0), sys.argv[1] + "/" + name)
print("scipy.sparse" in sys.modules)
# the stage body (many agents, few steps) does import it
L = np.diag(np.ones(300)) - np.diag(np.ones(299), -1)
L[0, 0] = 0.0
out = np.empty((2, 900))
kernels.rk4_closed_loop(np.zeros((3, 3)), np.eye(3), np.ones(3), L, np.zeros(900),
                        DisturbanceProfile.constant(np.zeros(300)), 0.01, 1, 1, out)
print("scipy.sparse" in sys.modules)
"""


def _fresh_interpreter(script, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_builtin_runs_do_not_import_scipy_sparse(tmp_path):
    """The recurrence, which the builtins take, never needs scipy.sparse;
    importing it would add tens of milliseconds and about 2 MiB to each
    process.  A fresh interpreter, since the test process has it loaded."""
    assert _fresh_interpreter(_SPARSE_IMPORT_PROBE, tmp_path) == ["False", "True"]


_LINALG_IMPORT_PROBE = """
import contextlib
import io
import sys
import numpy as np
from consensus_net import cli, runner
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net.scenario import builtin_scenario
from consensus_net.spectral import _KRON_MAX_N, solve_P
for name in ("paper-matched", "paper-unmatched"):
    runner.run(builtin_scenario(name).with_overrides(t_final=2.0), sys.argv[1] + "/" + name)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["simulate", "paper-matched", "--out", sys.argv[1] + "/cli", "--t-final", "1.0"])
print(rc, "scipy" in sys.modules, "scipy.linalg" in sys.modules)
# a chain one agent above the threshold takes the Schur path, which does
# import it, but not scipy.sparse: the balancing permutation is a gather
n = _KRON_MAX_N + 1
solve_P(build_laplacian(DirectedGraph(np.diag(np.ones(n - 1), -1))))
print("scipy.linalg" in sys.modules, "scipy.sparse" in sys.modules)
"""

_AVERAGED_MODEL_PROBE = """
import sys
import numpy as np
from consensus_net import analysis
from consensus_net.scenario import builtin_scenario
mf0 = analysis.MeanField(x_m=1.0, y_m=0.5, delta_m=-0.25)
mf = getattr(analysis, sys.argv[1])(mf0, builtin_scenario(sys.argv[2]).gains, 1.0)
print(np.isfinite(mf.as_array()).all(), "scipy.linalg" in sys.modules)
"""


_SPARSE_SETUP_PROBE = """
import sys
import numpy as np
from consensus_net.gains import MatchedGains, certify_matched
from consensus_net.graph import DirectedGraph, build_laplacian
from consensus_net.spectral import solve_P
n = 240
rng = np.random.default_rng(240)
w = np.zeros((n, n))
for i in range(1, n):
    w[i, rng.integers(0, i)] = rng.uniform(0.5, 2.0)
gains = MatchedGains.with_substitutions(6.0, 17.0, 4.0)
for _ in range(2):
    lap = build_laplacian(DirectedGraph(w))
    cert = solve_P(lap)
    report = certify_matched(gains, cert)
    print(*(x.hex() for x in (cert.lambda_L, cert.lambda_P, cert.min_eig_P,
                              report.min_eig_form)), sep=",")
print("scipy.sparse.csgraph" in sys.modules)
"""


def test_sparse_setup_scalars_are_deterministic():
    """Every ARPACK solve starts from a fixed vector, so the sparse regime's
    lambda_L, lambda_P, min_eig_P and min_eig_form are the same bits in two
    calls in one process and in two fresh interpreters.  That the start is
    not the ones vector, which L^T L annihilates, is checked on every solve
    of test_spectral's sparse-regime oracle.  The graph's components come
    from graph's own labelling, so the sparse set-up never loads
    scipy.sparse.csgraph."""
    first, second = _fresh_interpreter(_SPARSE_SETUP_PROBE), _fresh_interpreter(_SPARSE_SETUP_PROBE)
    assert first == second
    assert first[0] == first[1] and first[2] == "False"


def test_builtin_runs_do_not_import_scipy_linalg(tmp_path):
    """Graphs of at most spectral._KRON_MAX_N agents solve the certificate in
    numpy, so a builtin run, through runner.run or the CLI, never loads scipy;
    importing scipy.linalg would add about 0.2 s and 25 MiB to the process.
    Larger graphs load it inside their first solve_P, and the averaged models,
    which import it inside the call, still run in a fresh process.  The
    Schur route of a small chain loads no scipy.sparse."""
    assert (_fresh_interpreter(_LINALG_IMPORT_PROBE, tmp_path)
            == ["0", "False", "False", "True", "False"])
    for fn, name in (("averaged_model_matched", "paper-matched"),
                     ("averaged_model_unmatched", "paper-unmatched")):
        assert _fresh_interpreter(_AVERAGED_MODEL_PROBE, fn, name) == ["True", "True"]


def test_kronecker_solve_failure_exit_code(tmp_path, monkeypatch, capsys):
    """A pivot breakdown in the small-graph Lyapunov solve is a degenerate
    spectrum (exit code 2), not a traceback."""
    def singular(*_args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(spectral.np.linalg, "solve", singular)
    lap = build_laplacian(builtin_scenario("paper-matched").graph)
    with pytest.raises(DegenerateSpectrumError, match="Kronecker system is singular"):
        spectral.solve_P(lap)
    rc = cli.main(["simulate", "paper-matched", "--out", str(tmp_path / "o"), "--t-final", "1.0"])
    assert rc == cli.EXIT_VALIDATION == 2
    assert "Kronecker system is singular" in capsys.readouterr().err


def _diverging_scenario_doc():
    return {
        "name": "blowup",
        "mode": "matched",
        "graph": {"n": 1, "edges": []},
        "gains": {"gamma1": 1.0, "gamma2": 100.0, "gamma3": 1.0, "gamma4": 103.0},
        "disturbance": {"segments": [{"t_start": 0.0, "base": [0.0]}]},
        "initial": {"x": [0.0], "y": [1.0], "delta_hat": [0.0]},
        "sim": {"t_final": 100.0, "dt": 0.5, "sample_every": 1},
    }


def test_cli_simulate_and_plot(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["simulate", "paper-matched", "--out", str(out), "--t-final", "1.0"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "certification passed" in captured.out
    for series, n_lines in (("x", 5), ("dhat", 5), ("errors", 3), ("lyapunov", 1)):
        rc = cli.main(["plot", str(out), "--series", series])
        assert rc == 0
        svg = (out / f"{series}.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == n_lines


def test_cli_plot_unknown_series(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["simulate", "paper-matched", "--out", str(out),
                     "--t-final", "0.5"]) == 0
    rc = cli.main(["plot", str(out), "--series", "velocity"])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    for name in cli.PLOT_SERIES:
        assert name in err


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "matched"}))
    rc = cli.main(["simulate", str(bad), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def _warning_tree_document() -> dict:
    """The paper-matched document on a 200-agent tree of seed 1, in which
    each agent listens to one of the first 10-30 agents, with one edge weight
    of 1e100: its Lyapunov solve warns of a near-zero eigenvalue sum, then
    fails its residual check."""
    doc = scenario_to_json(builtin_scenario("paper-matched"))
    rng = np.random.default_rng(1)
    n = 200
    hubs = rng.integers(10, 31)
    edges = [{"from": int(rng.integers(0, min(child, hubs))) + 1, "to": child + 1,
              "w": float(rng.uniform(0.5, 2.0))} for child in range(1, n)]
    edges[rng.integers(0, n - 1)]["w"] = 1e100
    doc["graph"] = {"n": n, "edges": edges}
    for segment in doc["disturbance"]["segments"]:
        segment["base"] = [0.1] * n
    doc["initial"] = {"x": [0.0] * n, "y": [0.0] * n, "delta_hat": [0.0] * n}
    doc["sim"].update(t_final=0.1, sample_every=10)
    return doc


def test_cli_error_exit_prints_its_line_alone_in_a_real_process(tmp_path):
    """A ``simulate`` process whose certificate warns before it fails prints
    one ``error:`` line on stderr and nothing else.  A real process, since
    pytest records the warnings of the commands it runs in process."""
    doc = _warning_tree_document()
    with pytest.warns(RuntimeWarning, match="eigenvalue pair"), \
            pytest.raises(DegenerateSpectrumError, match="residual"):
        runner.certificate(scenario_from_json(doc))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    proc = _cli_process("simulate", path, "--out", tmp_path / "out")
    assert proc.returncode == cli.EXIT_VALIDATION
    assert proc.stderr.splitlines() == [
        "error: Lyapunov solve residual 2.000e+00 exceeds tolerance 1.000e-08"]


def _cli_process(*args) -> subprocess.CompletedProcess:
    """``python -m consensus_net.cli *args`` in a process of its own, with
    this checkout's ``src`` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "consensus_net.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def _no_tree_arguments(tmp_path) -> list:
    doc = scenario_to_json(builtin_scenario("paper-matched"))
    doc["graph"]["edges"] = []
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return [path, "--out", tmp_path / "out"]


def _diverging_arguments(tmp_path) -> list:
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(_diverging_scenario_doc()))
    return [path, "--out", tmp_path / "out"]


def _out_below_a_file_arguments(tmp_path) -> list:
    (tmp_path / "file").write_text("")
    return ["paper-matched", "--out", tmp_path / "file" / "out"]


@pytest.mark.parametrize("arguments, code, line", [
    (_no_tree_arguments, cli.EXIT_VALIDATION,
     "error: solve_P: graph has no directed spanning tree"),
    (_diverging_arguments, cli.EXIT_DIVERGED,
     "error: integration diverged: state non-finite after t = "),
    (_out_below_a_file_arguments, cli.EXIT_IO, "error: i/o failed: "),
], ids=["exit-2", "exit-3", "exit-4"])
def test_cli_error_exit_prints_one_error_line_in_a_real_process(tmp_path, arguments, code,
                                                                line):
    """Exits 2 (no spanning tree), 3 (divergence) and 4 (an ``--out`` below
    a regular file) each print exactly one line on stderr: ``error: ...``."""
    args = arguments(tmp_path)
    proc = _cli_process("simulate", *args)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line), lines
    if code == cli.EXIT_DIVERGED:
        assert lines[0].endswith(f"; partial trajectory retained in {args[-1]}")


def test_cli_success_prints_each_warning_as_one_line(tmp_path, capsys, monkeypatch):
    """After exit 0 each warning the command raised is one ``warning:``
    line on stderr, in the order raised, with nothing else there."""
    real_run = runner.run

    def run(sc, out_dir):
        warnings.warn("the first warning", RuntimeWarning)
        arts = real_run(sc, out_dir)
        warnings.warn("the second warning", UserWarning)
        return arts

    monkeypatch.setattr(runner, "run", run)
    rc = cli.main(["simulate", "paper-matched", "--t-final", "1", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().err.splitlines() == ["warning: the first warning",
                                                    "warning: the second warning"]


def test_cli_divergence_exit_code(tmp_path, capsys):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(_diverging_scenario_doc()))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["simulate", str(path), "--out", str(out)])
    assert rc == cli.EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err
    # partial trajectory retained
    assert (out / "trajectory.csv").exists()
    _, data = runner.read_csv(out / "trajectory.csv")
    assert np.isfinite(data).all()
    assert data.shape[0] >= 1


@pytest.mark.parametrize("t_final, sample_every", [
    (0.01, 10), (0.02, 10), (0.05, 10), (1.0, 1000), (0.3, 50)])
def test_unmatched_orbit_window_with_too_few_samples(tmp_path, t_final, sample_every):
    """An orbit window of fewer than 4 samples, from a short horizon or a
    coarse sampling, is recorded in ``orbit_fits`` as its error, as
    ``decay_fit`` records its own: the run exits 0 with its four artifacts."""
    doc = scenario_to_json(builtin_scenario("paper-unmatched"))
    doc["sim"].update(t_final=t_final, sample_every=sample_every)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == _ARTIFACTS
    fits = json.loads((out / "summary.json").read_text())["results"]["orbit_fits"]
    assert "fewer than 4 samples" in fits["error"] and "fits" not in fits
    assert fits["window"] == list(runner._orbit_window(scenario_from_json(doc)))


@pytest.mark.parametrize("nu", [3.0, 1e308])
def test_no_spanning_tree_rejected_before_integrating(tmp_path, capsys, monkeypatch, nu):
    """A graph without a spanning tree is invalid input, whatever else the
    document holds (here also a gain whose coefficient blocks overflow).
    Nothing is integrated and no directory is made."""
    doc = scenario_to_json(builtin_scenario("paper-unmatched"))
    doc["graph"]["edges"] = []
    doc["gains"]["nu"] = nu
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    integrated = []
    monkeypatch.setattr(runner, "integrate", lambda *args: integrated.append(args))
    rc = cli.main(["simulate", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION and integrated == []
    assert capsys.readouterr().err == "error: solve_P: graph has no directed spanning tree\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("weight", [1e154, 1e200])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lambda_L_squared_overflow_is_an_input_error(tmp_path, capsys, name, weight):
    """An edge weight (here of edge 2->5) whose ``lambda_L`` squares past the
    largest float: the gain bound that holds ``lambda_L^2`` is infinite, and
    ``simulate``, ``gains certify`` and, in the matched mode, ``gains
    suggest`` end in exit 2 with one ``error:`` line, not in an
    ``OverflowError``.  The short run makes no directory."""
    doc = scenario_to_json(builtin_scenario(name))
    edge = doc["graph"]["edges"][3]
    assert (edge["from"], edge["to"]) == (2, 5)
    edge["w"] = weight
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    commands = [["simulate", str(path), "--t-final", "0.1", "--out", str(out)],
                ["gains", "certify", str(path)]]
    if doc["mode"] == "matched":
        commands.append(["gains", "suggest", str(path)])
    for argv in commands:
        rc = cli.main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert rc == cli.EXIT_VALIDATION, argv
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    assert not out.exists()


#: a gain, disturbance entry or edge weight at an edge of its range
_EXTREMES = st.sampled_from([0.0, -1.0, 1e-300, 1e308])


def _graph_edit(draw, edges: list, n: int) -> None:
    edit = draw(st.sampled_from(["self-loop", "no-root", "id-out-of-range", "duplicate",
                                 "weight"]))
    if edit == "self-loop":
        agent = draw(st.integers(1, n))
        edges.append({"from": agent, "to": agent, "w": 1.0})
    elif edit == "no-root":  # every edge of the builtin tree is needed
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif edit == "id-out-of-range":
        edges.append({"from": draw(st.sampled_from([0, n + 1])), "to": 1, "w": 1.0})
    elif edit == "duplicate":
        edges.append({**draw(st.sampled_from(edges)), "w": draw(_EXTREMES | st.just(2.0))})
    elif edit == "weight":  # up to where lambda_L^2, and more, overflows
        draw(st.sampled_from(edges))["w"] = draw(st.floats(1.0, 1e307))


@st.composite
def _scenario_documents(draw):
    """A builtin's document, either mode, over 1 to 3,000 steps of 1 ms,
    sampled every k steps (k a divisor of the step count or anything up to
    past it), with up to two gains at an extreme, and perhaps one
    disturbance entry at an extreme and one graph edit.  Its tables stay
    below the fork threshold."""
    doc = scenario_to_json(builtin_scenario(draw(st.sampled_from(BUILTIN_NAMES))))
    steps = draw(st.integers(1, 3000))
    divisors = [k for k in range(1, steps + 1) if steps % k == 0]
    doc["sim"].update(t_final=steps * doc["sim"]["dt"], sample_every=draw(
        st.sampled_from(divisors) | st.integers(1, 2 * steps + 1)))
    for name in draw(st.lists(st.sampled_from(sorted(doc["gains"])), max_size=2, unique=True)):
        doc["gains"][name] = draw(_EXTREMES)
    if draw(st.booleans()):
        segment = draw(st.sampled_from(doc["disturbance"]["segments"]))
        segment["base"][draw(st.integers(0, doc["graph"]["n"] - 1))] = draw(_EXTREMES)
    if draw(st.booleans()):
        _graph_edit(draw, doc["graph"]["edges"], doc["graph"]["n"])
    return doc


@given(doc=_scenario_documents())
@settings(max_examples=100, deadline=None)
def test_generated_scenarios_end_in_a_documented_exit_code(doc):
    """Every generated document, run by ``simulate`` in this process, ends in
    exit code 0, 2, 3 or 4, never in an exception: 0 with the four
    artifacts and only ``warning:`` lines on stderr, any other with exactly
    one line there, ``error: ...``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["simulate", str(path), "--out", str(Path(tmp) / "out")])
        event(f"exit {rc}")
        assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_DIVERGED, cli.EXIT_IO)
        lines = err.getvalue().splitlines()
        if rc == cli.EXIT_OK:
            assert sorted(p.name for p in (Path(tmp) / "out").iterdir()) == _ARTIFACTS
            assert all(line.startswith("warning: ") for line in lines), lines
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _tree_document(mode: str, rng, n: int, hubs: int) -> dict:
    """The builtin document of ``mode`` on a random tree of ``n`` agents,
    labels shuffled, in which each agent listens to one of the first
    ``hubs`` agents before it, with random disturbance bases and initial
    positions."""
    doc = scenario_to_json(builtin_scenario(f"paper-{mode}"))
    perm = rng.permutation(n)
    doc["graph"] = {"n": n, "edges": [
        {"from": int(perm[rng.integers(0, min(child, hubs))]) + 1, "to": int(perm[child]) + 1,
         "w": float(rng.uniform(0.5, 2.0))} for child in range(1, n)]}
    for segment in doc["disturbance"]["segments"]:
        segment["base"] = rng.uniform(-0.3, 0.3, n).tolist()
    doc["initial"] = {"x": rng.uniform(-1.0, 1.0, n).tolist(), "y": [0.0] * n,
                      "delta_hat": [0.0] * n}
    return doc


def _simulate_document(doc: dict) -> tuple[int, list, object]:
    """``simulate`` of ``doc`` in this process: its exit code, its standard
    error's lines and, after exit 0, which wrote the four artifacts, the P
    of certification.json (else None)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["simulate", str(path), "--out", str(Path(tmp) / "out")])
        P = None
        if rc == cli.EXIT_OK:
            assert sorted(p.name for p in (Path(tmp) / "out").iterdir()) == _ARTIFACTS
            P = json.loads((Path(tmp) / "out" / "certification.json").read_text())["certificate"]["P"]
    return rc, err.getvalue().splitlines(), P


@st.composite
def _sparse_tree_documents(draw):
    """A 200-agent random tree in either mode, over 1 to 300 steps of the
    builtin's step sampled every 1 or 10 steps, with one edge weight drawn
    from 1 to 1e307.  One to 30 hubs: a few make a shallow tree whose P
    takes the tree route, its deepest-first factors and the entries form
    of certification.json; more make a deeper tree whose P is dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    doc = _tree_document(draw(st.sampled_from(["matched", "unmatched"])), rng, 200,
                         draw(st.integers(1, 30)))
    draw(st.sampled_from(doc["graph"]["edges"]))["w"] = draw(st.floats(1.0, 1e307))
    doc["sim"].update(t_final=draw(st.integers(1, 300)) * doc["sim"]["dt"],
                      sample_every=draw(st.sampled_from([1, 10])))
    return doc


@given(doc=_sparse_tree_documents())
@settings(max_examples=25, deadline=None)
def test_generated_sparse_trees_end_in_a_documented_exit_code(doc):
    """The sparse regime's sibling of the test above: every generated tree
    ends in exit code 0, 2, 3 or 4, 2 with exactly one ``error:`` line."""
    rc, lines, P = _simulate_document(doc)
    event(f"exit {rc}" + ("" if P is None else ", P as entries" if "values" in P else ", P as rows"))
    assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_DIVERGED, cli.EXIT_IO)
    if rc == cli.EXIT_VALIDATION:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("mode", ["matched", "unmatched"])
@pytest.mark.parametrize("weight, code", [(1e150, 3), (1e200, 2), (1e307, 2)])
def test_heavy_edge_on_600_agent_tree_exit_code(mode, weight, code):
    """A 600-agent random tree, the size of the large-graph benchmark, with
    one edge weight of 1e150 diverges at once (exit 3); from 1e154 on,
    lambda_L^2 overflows a gain bound (exit 2, one ``error:`` line)."""
    doc = _tree_document(mode, np.random.default_rng(600), 600, 600)
    doc["graph"]["edges"][17]["w"] = weight
    doc["sim"].update(t_final=0.05, sample_every=10)
    rc, lines, _ = _simulate_document(doc)
    assert rc == code
    if rc == cli.EXIT_VALIDATION:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_cli_align_dt(tmp_path):
    # 0.003 does not divide the 50 s switch; --align-dt shrinks it until it does
    out = tmp_path / "aligned"
    rc = cli.main(["simulate", "paper-matched", "--out", str(out),
                   "--dt", "0.003", "--t-final", "100", "--align-dt"])
    assert rc == 0
    rc_bad = cli.main(["simulate", "paper-matched", "--out", str(tmp_path / "x"),
                       "--dt", "0.003", "--t-final", "100"])
    assert rc_bad == cli.EXIT_VALIDATION


def test_cli_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CONSENSUS_NET_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["simulate", "paper-matched", "--t-final", "0.5"])
    assert rc == 0
    assert (tmp_path / "envout" / "paper-matched" / "trajectory.csv").exists()


def test_cli_graph_analyze(tmp_path, capsys):
    from consensus_net.graph import graph_to_json

    sc = builtin_scenario("paper-matched")
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_to_json(sc.graph)))
    rc = cli.main(["graph", "analyze", str(gpath), "--json", str(tmp_path / "a.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "spanning tree: yes" in out
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["has_spanning_tree"] is True
    assert doc["v_left"][0] == pytest.approx(1.0)


def test_cli_graph_json_writes_dense_L_rows(tmp_path, capsys):
    """A 250-agent tree's L is stored as CSR; the analysis document still
    holds it as the dense rows of the Laplacian of the weights."""
    g = random_tree_graph(np.random.default_rng(250), 250)
    assert not isinstance(build_laplacian(g).L, np.ndarray)
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_to_json(g)))
    assert cli.main(["graph", "analyze", str(gpath), "--json", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    w = g.weights
    doc = json.loads((tmp_path / "a.json").read_text())
    assert json.dumps(doc["L"]) == json.dumps((np.diag(w.sum(axis=1)) - w).tolist())


def test_cli_gains_certify(capsys):
    rc = cli.main(["gains", "certify", "paper-unmatched"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nu_substitution" in out
    assert "FAILED" in out


def test_cli_gains_suggest(capsys):
    rc = cli.main(["gains", "suggest", "paper-matched"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma2" in out
    assert "PASSED" in out


def test_cli_gains_suggest_ignores_the_scenario_gains(tmp_path, capsys):
    """The suggestion needs only the graph's certificate: gains in the
    scenario that overflow the gamma2 bound do not stop a suggestion from
    the overriding gamma1."""
    doc = scenario_to_json(builtin_scenario("paper-matched"))
    doc["gains"]["gamma1"] = 1e308
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["gains", "suggest", str(path), "--gamma1", "6"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "  gamma1 = 6\n" in out
    assert "certified: PASSED" in out


def _write_uncertifiable_inputs(tmp_path):
    """paper-unmatched with one edge weight at 1e-300: the graph keeps its
    spanning tree, but the zero eigenvalue of L is numerically not simple."""
    doc = scenario_to_json(builtin_scenario("paper-unmatched"))
    doc["graph"]["edges"][0]["w"] = 1e-300
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    (tmp_path / "graph.json").write_text(json.dumps(doc["graph"]))


@pytest.mark.parametrize("argv", [
    ["simulate", "{tmp}/scenario.json", "--out", "{tmp}/out"],
    ["gains", "certify", "{tmp}/scenario.json"],
    ["graph", "analyze", "{tmp}/graph.json"],
    ["gains", "suggest", "paper-matched", "--b", "0.0001"],
], ids=["simulate", "gains-certify", "graph-analyze", "gains-suggest"])
def test_cli_spectral_and_gain_errors_exit_2(tmp_path, capsys, argv):
    """A degenerate spectrum and infeasible gains are invalid input: exit code
    2 and one error line, no traceback."""
    _write_uncertifiable_inputs(tmp_path)
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _set(path, value):
    """A change to a scenario document: ``value`` at the key ``path``."""
    def apply(doc):
        *parents, key = path
        for k in parents:
            doc = doc[k]
        doc[key] = value
    return apply


def _unmatched(change):
    """``change`` made to the paper-unmatched document, with the horizon of the
    document it replaces."""
    def apply(doc):
        t_final = doc["sim"]["t_final"]
        doc.clear()
        doc.update(scenario_to_json(builtin_scenario("paper-unmatched")))
        doc["sim"]["t_final"] = t_final
        change(doc)
    return apply


@pytest.mark.parametrize("change, says", [
    (_set(["lyapunov"], 3), "lyapunov:"),
    (_set(["disturbance"], {"segments": 5}), "disturbance:"),
    (_set(["initial"], {"seed": -1}), "initial.seed:"),
    (_set(["initial"], {"seed": 1, "x_high": math.inf}), "initial.x_high:"),
    (_set(["disturbance", "segments", 1, "t_start"], 1e308), "disturbance switch"),
    (_set(["disturbance", "segments", 1, "t_start"], math.inf), "disturbance.segments[1]:"),
    (_set(["lyapunov", "alpha"], math.inf), "lyapunov.alpha:"),
    (_set(["lyapunov", "q_scale"], math.inf), "lyapunov.q_scale:"),
    (_set(["gains", "gamma1"], 1e308), "gamma2_bound:"),
    (_set(["sim"], "fast"), "sim:"),
    (_set(["sim", "sample_every"], 2.5), "sim.sample_every:"),
    (_set(["graph", "n"], 5.7), "n:"),
    # finite gains whose unmatched coefficient blocks overflow
    (_unmatched(_set(["gains", "nu"], 1e308)), "unmatched loop:"),
    (_unmatched(_set(["gains", "k_s"], 1e308)), "unmatched loop:"),
    # more steps than a float counts, checked before the certificate
    (_set(["sim", "dt"], 1e-320), "t_final:"),
    (_set(["sim", "t_final"], 1e308), "t_final:"),
    # finite inputs whose certificate arithmetic overflows
    (_set(["lyapunov", "q_scale"], 1e154), "b_bound:"),
    (_unmatched(_set(["gains", "alpha2"], 1e308)), "W_positive:"),
    # JSON booleans and strings are not numbers, although Python counts
    # True as 1 and numpy reads "1" as 1.0
    (_set(["graph", "edges", 0], {"from": True, "to": 2, "w": True}), "edges[0]:"),
    (_set(["sim", "sample_every"], True), "sim.sample_every:"),
    (_set(["gains", "mu"], True), "gains.mu:"),
    (_set(["initial", "x"], ["1"] * 5), "initial.x[0]:"),
    # a gain that is no float is named once, not prefixed by its section again
    (_set(["gains", "gamma1"], True), "error: gains.gamma1: expected a finite float, got True\n"),
    # the topology flag is a JSON boolean, not a truthy value
    (_set(["graph", "fig1_substitute"], "false"),
     "error: graph.fig1_substitute: expected true or false, got 'false'\n"),
    (_set(["graph", "fig1_substitute"], 1), "graph.fig1_substitute: expected true or false"),
    (_set(["graph", "fig1_substitute"], None), "graph.fig1_substitute: expected true or false"),
], ids=["lyapunov-not-object", "segments-not-list", "negative-seed", "infinite-x-high",
        "huge-switch", "infinite-switch", "infinite-alpha", "infinite-q-scale", "huge-gain",
        "sim-not-object", "fractional-sample-every", "fractional-n", "huge-nu", "huge-k-s",
        "tiny-dt", "huge-t-final", "huge-q-scale", "huge-alpha2", "true-edge",
        "true-sample-every", "true-gain", "string-initial-x", "true-gamma1",
        "string-fig1", "number-fig1", "null-fig1"])
@pytest.mark.filterwarnings("error")
def test_cli_malformed_scenario_exit_2(tmp_path, capsys, change, says):
    """Every malformed field of a scenario is invalid input: exit code 2 and
    one error line that names the field, never a traceback, a warning or a
    silently altered value.  Where ``says`` is a whole line, it is the
    line."""
    doc = scenario_to_json(builtin_scenario("paper-matched"))
    doc["sim"]["t_final"] = 1.0
    change(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["simulate", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err and (err == says or not says.startswith("error: "))
    assert "Traceback" not in err


def test_cli_gains_suggest_rejects_unmatched(capsys):
    rc = cli.main(["gains", "suggest", "paper-unmatched"])
    assert rc == cli.EXIT_VALIDATION


def test_plot_empty_trajectory(tmp_path):
    (tmp_path / "trajectory.csv").write_text("t,x_1,y_1,dhat_1\n")
    rc = cli.main(["plot", str(tmp_path), "--series", "x"])
    assert rc == cli.EXIT_VALIDATION


def test_plot_escapes_its_text(tmp_path, capsys):
    """Column names with ``&`` and ``<`` are escaped in the SVG: it parses as
    XML, and its text reads back the title, the axis labels and the column
    names as written."""
    (tmp_path / "trajectory.csv").write_text("t,x_a&b,x_<2>\n0,1,2\n0.5,3,4\n")
    assert cli.main(["plot", str(tmp_path), "--series", "x"]) == cli.EXIT_OK
    texts = [el.text for el in ElementTree.parse(tmp_path / "x.svg").iter()
             if el.tag.endswith("}text")]
    assert {"positions", "time [s]", "x", "x_a&b", "x_<2>"} <= set(texts)


def test_cli_horizon_too_long_for_memory_exit_2(tmp_path, capsys):
    """A 1 s horizon at dt = 1e-15 has 1e14 samples, a 728 TiB time grid: more
    than the x86-64 user address space, so the allocation fails at once under
    any overcommit setting.  Exit 2, not a MemoryError traceback."""
    rc = cli.main(["simulate", "paper-matched", "--dt", "1e-15", "--t-final", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "memory" in err


@pytest.mark.parametrize("grid", [
    ["--t-final", "1e300"],
    ["--t-final", "1e308"],
    ["--dt", "1e-320", "--t-final", "1"],
], ids=["t-final-1e300", "t-final-1e308", "dt-1e-320"])
def test_cli_aligned_horizon_too_many_steps_exit_2(tmp_path, capsys, grid):
    """--align-dt on a horizon of 1e300 s keeps dt = 1e-3: 1e303 steps, which
    the grid check rejects before any array is sized.  At 1e308 s, or at
    dt = 1e-320, the step count overflows a float, so the rewrite counts the
    steps in rationals.  Exit 2, never a ValueError or OverflowError
    traceback."""
    rc = cli.main(["simulate", "paper-matched", *grid, "--align-dt",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2**53 steps" in err


@pytest.mark.parametrize("option, value", [
    ("--dt", "nan"), ("--dt", "inf"), ("--t-final", "nan"), ("--t-final", "inf"),
])
def test_cli_aligned_non_finite_grid_exit_2(tmp_path, capsys, option, value):
    """--align-dt with a non-finite dt or t_final, which has no decimal form
    to align in rationals, exits 2 with one error line naming the field,
    never a ValueError traceback, and writes nothing."""
    out = tmp_path / "out"
    rc = cli.main(["simulate", "paper-matched", option, value, "--align-dt", "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option[2:].replace('-', '_')}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("artifact, text, series, says", [
    ("metrics.csv", "t,ey_norm,ed_norm\n0,1,2\n", "errors", "missing column(s) ex_norm"),
    ("metrics.csv", "t,ex_norm,ey_norm,ed_norm\n0,1,2,3\n", "lyapunov", "missing column(s) lyap"),
    ("trajectory.csv", "t,x_1\n0,1\n0.5,abc\n", "x", "line 3"),
    ("trajectory.csv", "t,x_1\n0,1\n0.5\n", "x", "line 3"),
    ("trajectory.csv", "t,x_1\n0,1e308\n0.5,-1e308\n", "x", "span more than a float"),
    # 16 apart at 1e17, where floats are 16 apart: a tick step of 5 adds nothing
    ("trajectory.csv", "t,x_1\n0,1e17\n0.5,100000000000000016\n", "x", "float resolves"),
    # a constant 1e17, widened by 1 to either side, is still one float
    ("trajectory.csv", "t,x_1\n0,1e17\n0.5,1e17\n", "x", "less than it resolves"),
], ids=["no-ex-norm", "no-lyap", "non-numeric-cell", "ragged-row", "overflowing-range",
        "range-below-resolution", "constant-below-resolution"])
def test_cli_plot_malformed_artifact_exit_2(tmp_path, capsys, artifact, text, series, says):
    """A malformed artifact is invalid input: exit 2 and one error line that
    names the file, never a traceback."""
    (tmp_path / artifact).write_text(text)
    rc = cli.main(["plot", str(tmp_path), "--series", series])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert artifact in err and says in err


@pytest.mark.parametrize("argv, name, data, says", [
    (["graph", "analyze", "{file}"], "graph.json", b"\xff\xfe{\x00}\x00", "not UTF-8"),
    (["simulate", "{file}", "--out", "{tmp}/out"], "scenario.json", b"\xff\xfe{\x00}\x00",
     "not UTF-8"),
    (["gains", "certify", "{file}"], "scenario.json", b"\xff\xfe{\x00}\x00", "not UTF-8"),
    (["plot", "{tmp}", "--series", "errors"], "metrics.csv",
     b"t,ex_norm,ey_norm,ed_norm\n0,1,2,\xff\n", "not UTF-8"),
    # an n x n weight matrix of 8e20 bytes, more than numpy can size
    (["graph", "analyze", "{file}"], "graph.json", b'{"n": 10000000000, "edges": []}',
     "too many"),
], ids=["graph-analyze", "simulate", "gains-certify", "plot", "graph-too-many-agents"])
def test_cli_non_utf8_input_exit_2(tmp_path, capsys, argv, name, data, says):
    """An input file whose bytes are not UTF-8, or that describes a graph no
    array can hold, is invalid input: exit 2 and one error line that names
    the file, never a UnicodeDecodeError or ValueError traceback."""
    path = tmp_path / name
    path.write_bytes(data)
    rc = cli.main([a.format(file=path, tmp=tmp_path) for a in argv])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and says in err


def _reference_csv(header, rows) -> str:
    """The writer the block writer replaced: one f-string per value."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def _reference_trajectory_csv(traj) -> str:
    n = traj.n_agents
    header = ["t"] + [f"{s}_{i + 1}" for s in ("x", "y", "dhat") for i in range(n)]
    return _reference_csv(header, ([t, *z] for t, z in zip(traj.times, traj.states)))


def _assert_same_text(got: str, want: str):
    # compare without asking pytest to diff megabytes of text
    if got != want:
        a, b = got.split("\n"), want.split("\n")
        k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"texts differ first at line {k}: {a[k:k + 1]!r} != {b[k:k + 1]!r}")


def _awkward_values(rng, shape):
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, 0.1]
    flat = values.reshape(-1)
    flat[:len(specials)] = specials
    flat[rng.integers(0, flat.size, size=50)] = rng.choice(specials, size=50)
    return values


def test_csv_blocks_match_per_value_writer():
    rng = np.random.default_rng(17)
    # 16 columns: two full blocks and a partial one
    n_rows = 2 * (BLOCK_VALUES // 16) + 7
    traj = Trajectory(np.arange(n_rows) * 0.1, _awkward_values(rng, (n_rows, 15)))
    _assert_same_text(b"".join(runner.trajectory_csv_text(traj)).decode(), _reference_trajectory_csv(traj))
    # a row wider than a block: one row per block
    wide = Trajectory([0.0, 0.5, 1.0], _awkward_values(rng, (3, 3 * (BLOCK_VALUES // 3 + 1))))
    assert wide.states.shape[1] + 1 > BLOCK_VALUES
    chunks = runner.trajectory_csv_text(wide)
    assert len(chunks) == 1 + 3
    _assert_same_text(b"".join(chunks).decode(), _reference_trajectory_csv(wide))
    n_rows = BLOCK_VALUES // len(runner.METRIC_COLUMNS) + 3
    table = _awkward_values(rng, (n_rows, len(runner.METRIC_COLUMNS)))
    metrics = {name: table[:, k] for k, name in enumerate(runner.METRIC_COLUMNS)}
    _assert_same_text(b"".join(runner.metrics_csv_text(metrics)).decode(),
                      _reference_csv(runner.METRIC_COLUMNS, table))
    empty = Trajectory(np.empty(0), np.empty((0, 3)))
    _assert_same_text(b"".join(runner.trajectory_csv_text(empty)).decode(), _reference_trajectory_csv(empty))


def test_run_writes_reference_bytes(tmp_path):
    sc = builtin_scenario("paper-unmatched").with_overrides(t_final=2.0)
    arts = runner.run(sc, tmp_path / "out")
    names, data = runner.read_csv(arts.trajectory_csv)
    _assert_same_text(arts.trajectory_csv.read_bytes().decode(), _reference_csv(names, data))


class _WriterSpy:
    """What ``_spy_writer`` sees: the pids forked; the (columns, start, stop)
    of every row range formatted in this process, in order; and the status
    of the child as this process waited for it.  The child's own ranges, in
    order, are appended to ``log``, a file this process reads back."""

    def __init__(self):
        self.forks, self.ranges, self.statuses = [], [], []
        self.parent = os.getpid()
        self.log = tempfile.TemporaryFile(buffering=0)

    def child_ranges(self) -> list:
        """The ranges the child has formatted so far, read without moving
        the offset that its writes share."""
        text = os.pread(self.log.fileno(), 1 << 24, 0).decode()
        return [tuple(map(int, r.split(","))) for r in text.split()]

    def from_child(self) -> list:
        """The ranges whose bytes came from the child: those it formatted when
        it exited 0, else none."""
        return self.child_ranges() if self.statuses == [0] else []


def _spy_writer(monkeypatch, in_child=None) -> _WriterSpy:
    """Spies on ``os.fork``, ``os.waitpid`` and ``runner._csv_chunks`` as
    ``runner._write_csv`` uses them, in this process and in the child.
    ``in_child``, if given, runs first in the child, which it must never
    leave by returning into pytest."""
    spy = _WriterSpy()
    real_fork, real_waitpid, real_chunks = os.fork, os.waitpid, runner._csv_chunks

    def fork():
        pid = real_fork()
        if pid == 0 and in_child is not None:
            try:
                in_child()
            except BaseException:
                os._exit(70)
        spy.forks.append(pid)
        return pid

    def waitpid(pid, options):
        waited, status = real_waitpid(pid, options)
        if spy.forks and waited == spy.forks[0]:
            spy.statuses.append(status)
        return waited, status

    def chunks(header, columns, start=0, stop=None):
        if os.getpid() == spy.parent:
            spy.ranges.append((len(header), start, stop))
        else:  # FileIO.write, not os.write, which some cases count in the child
            spy.log.write(f"{len(header)},{start},{stop} ".encode())
        return real_chunks(header, columns, start, stop)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(runner, "_csv_chunks", chunks)
    return spy


def _queue(*tables) -> list:
    """The (columns, start, stop) of each block of tables of (rows, columns),
    table after table, each cut as ``runner._write_csv`` cuts its queue."""
    return [(n_columns, rows.start, rows.stop) for n_rows, n_columns in tables
            for rows in analysis.row_blocks(n_rows, n_columns)]


def _who_formatted(spy: _WriterSpy, queue: list) -> tuple:
    """The sets of blocks this process formatted and whose bytes came from
    the child.  Each block was formatted at most once in each process, and
    the ranges formatted are blocks of the queue (or an empty table's
    header)."""
    position = {block: k for k, block in enumerate(queue)}
    here = [position[r] for r in spy.ranges if r[1] != r[2]]
    child = [position[r] for r in spy.from_child() if r[1] != r[2]]
    assert len(here) == len(set(here)) and len(child) == len(set(child))
    return set(here), set(child)


def _assert_claims_split(spy: _WriterSpy, blocks: list) -> None:
    """The claims of the table whose blocks are ``blocks`` split as
    ``runner._write_csv`` says.  When the child exits 0, it formatted blocks
    0..c-1 in order and this process c..N-1, claimed from the end.  Else
    this process formatted every block: its claims from the end, then the
    child's, in order."""
    position = {block: k for k, block in enumerate(blocks)}
    here = [position[r] for r in spy.ranges if r in position]
    n = len(blocks)
    if spy.statuses == [0]:
        c = n - len(here)
        assert here == list(range(n - 1, c - 1, -1))
        assert [position[r] for r in spy.child_ranges() if r in position] == list(range(c))
    else:
        assert any(here == [*range(n - 1, c - 1, -1), *range(c)] for c in range(n + 1))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wait_for_child_exit(spy: _WriterSpy):
    """Return once the child has exited, without reaping it."""
    os.waitid(os.P_PID, spy.forks[0], os.WEXITED | os.WNOWAIT)


def _write_trajectory(path, traj, meanwhile=None, values=None):
    """``runner._write_csv`` of ``traj`` as ``runner.run`` calls it, the fork
    rule counting ``values`` (by default the table's own)."""
    rows, columns = traj.times.shape[0], 1 + traj.states.shape[1]
    runner._write_csv(path, partial(runner.trajectory_csv_text, traj),
                      analysis.row_blocks(rows, columns),
                      rows * columns if values is None else values, meanwhile or (lambda: None))


def test_forked_csv_writer_matches_per_value_writer(tmp_path):
    """A table above ``FORK_MIN_VALUES``, of awkward values, written by this
    process and one child from a queue of its blocks: the bytes are the
    per-value writer's.  The blocks this process formats and the blocks the
    child writes are disjoint and together cover the queue, split as the
    claims say; a ``meanwhile`` that lasts until the child has exited leaves
    every block to the child, and a child that formats nothing leaves every
    block to this process.  An empty table, forked for because of the values
    ``meanwhile`` writes, is its header alone."""
    rng = np.random.default_rng(19)
    n_rows = 2 * runner.FORK_MIN_VALUES // 16 + 5
    full = Trajectory(np.arange(n_rows) * 0.1, _awkward_values(rng, (n_rows, 15)))
    empty = Trajectory(np.empty(0), np.empty((0, 15)))
    assert 16 * n_rows > 2 * runner.FORK_MIN_VALUES
    for case in ("shared", "meanwhile-outlasts-child", "child-formats-nothing"):
        for sub, traj in (("rows", full), ("empty", empty)):
            out = tmp_path / case / sub
            with pytest.MonkeyPatch.context() as mp:
                spy = _spy_writer(mp, partial(os._exit, 0) if case == "child-formats-nothing"
                                  else None)
                meanwhile = partial(_wait_for_child_exit, spy) \
                    if case == "meanwhile-outlasts-child" else None
                _write_trajectory(out / "trajectory.csv", traj, meanwhile, values=16 * n_rows)
            assert len(spy.forks) == 1 and spy.forks[0] > 0 and spy.statuses == [0]
            queue = _queue((traj.times.shape[0], 16))
            here, child = _who_formatted(spy, queue)
            assert not here & child and here | child == set(range(len(queue)))
            _assert_claims_split(spy, queue or [(16, 0, 0)])
            if case != "shared":
                assert {"meanwhile-outlasts-child": child,
                        "child-formats-nothing": here}[case] == set(range(len(queue)))
            _assert_same_text((out / "trajectory.csv").read_text(),
                              _reference_trajectory_csv(traj))
            assert [p.name for p in out.iterdir()] == ["trajectory.csv"]
            _assert_no_child_left()


def test_this_process_claims_from_the_end(tmp_path, monkeypatch):
    """A child that sleeps after each block it formats keeps few of the
    blocks: this process, once its ``meanwhile`` has seen the child's first
    block, claims the rest from the end, so its blocks, in the order it
    formats them, are N-1, N-2, ..., c for some c >= 1, and the child's are
    0..c-1.  The bytes are the per-value writer's."""
    rng = np.random.default_rng(29)
    n_rows = 12 * (BLOCK_VALUES // 16)
    traj = Trajectory(np.arange(n_rows) * 0.1, rng.normal(size=(n_rows, 15)))

    def slow():
        chunks = runner._csv_chunks

        def slow_chunks(*args):
            text = chunks(*args)
            time.sleep(0.02)
            return text

        runner._csv_chunks = slow_chunks

    spy = _spy_writer(monkeypatch, slow)

    def meanwhile():
        deadline = time.monotonic() + 60.0
        while not spy.child_ranges():
            assert time.monotonic() < deadline
            time.sleep(0.001)

    _write_trajectory(tmp_path / "trajectory.csv", traj, meanwhile, values=math.inf)
    blocks = _queue((n_rows, 16))
    here = [blocks.index(r) for r in spy.ranges]
    c = len(blocks) - len(here)
    assert len(blocks) == 12 and c >= 1 and spy.statuses == [0]
    assert here == list(range(len(blocks) - 1, c - 1, -1))
    assert [blocks.index(r) for r in spy.child_ranges()] == list(range(c))
    _assert_same_text((tmp_path / "trajectory.csv").read_text(), _reference_trajectory_csv(traj))
    _assert_no_child_left()


def test_child_writes_into_the_tables_temporary_file(tmp_path, monkeypatch):
    """While the child writes, the output directory holds one temporary
    file, trajectory.csv's own, which becomes trajectory.csv."""
    rng = np.random.default_rng(31)
    n_rows = 3 * (BLOCK_VALUES // 16)
    traj = Trajectory(np.arange(n_rows) * 0.1, rng.normal(size=(n_rows, 15)))
    spy = _spy_writer(monkeypatch)
    seen = []
    _write_trajectory(tmp_path / "trajectory.csv", traj,
                      lambda: seen.extend(p.name for p in tmp_path.iterdir()), values=math.inf)
    assert len(spy.forks) == 1
    assert len(seen) == 1 and fnmatch.fnmatch(seen[0], "trajectory.csv.*.tmp")
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
    _assert_same_text((tmp_path / "trajectory.csv").read_text(), _reference_trajectory_csv(traj))
    _assert_no_child_left()


def test_queue_longer_than_a_pipe(tmp_path, monkeypatch):
    """With one row per block, the table makes more blocks than a pipe holds
    one-byte claims (64 KiB, 65,536): claiming still never blocks this
    process, one child is all that is forked, and the bytes are the
    per-value writer's."""
    monkeypatch.setattr(analysis, "BLOCK_VALUES", 1)
    rng = np.random.default_rng(23)
    n_rows = 66_000
    traj = Trajectory(np.arange(n_rows) * 0.1, _awkward_values(rng, (n_rows, 3)))
    queue = _queue((n_rows, 4))
    assert len(queue) > 64 << 10
    spy = _spy_writer(monkeypatch)
    _write_trajectory(tmp_path / "trajectory.csv", traj, values=math.inf)
    assert len(spy.forks) == 1
    here, child = _who_formatted(spy, queue)
    assert not here & child and here | child == set(range(len(queue)))
    _assert_claims_split(spy, queue)
    _assert_same_text((tmp_path / "trajectory.csv").read_text(), _reference_trajectory_csv(traj))
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
    _assert_no_child_left()


#: the unmatched builtin sampled every step for 5 s: 5,001 rows of 16 and of
#: 8 values, above ``runner.FORK_MIN_VALUES``
_FORKING_RUN = dict(t_final=5.0, sample_every=1)

#: the blocks of ``_FORKING_RUN``'s two tables
_FORKING_QUEUE = _queue((5001, 16), (5001, 8))

_ARTIFACTS = ["certification.json", "metrics.csv", "summary.json", "trajectory.csv"]


@pytest.fixture(scope="module")
def serial_run_bytes(tmp_path_factory):
    """The four artifacts of ``_FORKING_RUN`` written by this process alone."""
    sc = builtin_scenario("paper-unmatched").with_overrides(**_FORKING_RUN)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "FORK_MIN_VALUES", math.inf)
        arts = runner.run(sc, tmp_path_factory.mktemp("serial"))
    return [p.read_bytes() for p in arts.paths()]


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _fail_formatting():
    def boom(*args):
        raise RuntimeError("formatting failed in the child")

    runner._csv_chunks = boom


def _kill_self_at_write(n: int, share: float):
    """In the child: die by a signal in its ``n``-th ``os.write``, once
    ``share`` of its bytes are written.  The child's writes are its blocks'
    bytes, one block each, into trajectory.csv's temporary file."""
    real, calls = os.write, []

    def write(fd, data):
        calls.append(fd)
        if len(calls) == n:
            real(fd, data[:int(share * len(data))])
            _kill_self()
        return real(fd, data)

    os.write = write


#: how many blocks of ``_FORKING_QUEUE`` each case takes from the child
_FROM_CHILD = {"child-exits-1": 0, "child-killed": 0, "child-formats-nothing": 0,
               "child-killed-after-first-part": 0, "child-killed-mid-block": 0,
               "fork-fails": 0}


@pytest.mark.parametrize("case", ["forked", *_FROM_CHILD])
def test_run_bytes_do_not_depend_on_who_formats(tmp_path, monkeypatch, serial_run_bytes, case):
    """A run large enough to fork writes the serial run's bytes, whoever
    formats which block: the child and this process sharing the queue; and,
    formatting every block itself, when the child exits 1, dies by a signal
    (before any block, after writing its first whole, or halfway through
    writing its second, so that the file holds bytes of a block never
    finished), formats nothing and exits 0, or when the fork fails.  This
    process and the child never both format a block whose bytes are used,
    and together they format every one, split as the claims say.  Either way
    no child is left unreaped, and the output directory holds the four
    artifacts alone.  The forked trajectory is also the per-value writer's
    text.  Where the child is made to end early, this process waits for
    that before its summary, so that the child gets as far as the case says
    however the two are scheduled."""
    out = tmp_path / "out"
    in_child = {"child-exits-1": _fail_formatting, "child-killed": _kill_self,
                "child-formats-nothing": partial(os._exit, 0),
                "child-killed-after-first-part": partial(_kill_self_at_write, 2, 0.0),
                "child-killed-mid-block": partial(_kill_self_at_write, 2, 0.5)}.get(case)
    spy = _spy_writer(monkeypatch, in_child)
    if in_child is not None:
        real_summary = runner._summary

        def summary(*args):
            _wait_for_child_exit(spy)
            return real_summary(*args)

        monkeypatch.setattr(runner, "_summary", summary)
    if case == "fork-fails":
        def fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", fork)
    sc = builtin_scenario("paper-unmatched").with_overrides(**_FORKING_RUN)
    arts = runner.run(sc, out)
    assert [p.read_bytes() for p in arts.paths()] == serial_run_bytes
    assert len(spy.forks) == (0 if case == "fork-fails" else 1)
    here, child = _who_formatted(spy, _FORKING_QUEUE)
    assert not here & child and here | child == set(range(len(_FORKING_QUEUE)))
    _assert_claims_split(spy, _queue((5001, 16)))
    if case != "forked":
        assert len(child) == _FROM_CHILD[case]
    if case.startswith("child-killed"):
        assert [os.waitstatus_to_exitcode(s) for s in spy.statuses] == [-signal.SIGKILL]
        assert len(spy.child_ranges()) == (0 if case == "child-killed" else 2)
    assert sorted(p.name for p in out.iterdir()) == _ARTIFACTS
    _assert_no_child_left()
    if case == "forked":
        names, data = runner.read_csv(arts.trajectory_csv)
        _assert_same_text(arts.trajectory_csv.read_text(), _reference_csv(names, data))


@pytest.mark.parametrize("failing", ["_atomic_write", "_summary", "table-write", "solve_P"])
def test_parent_failure_reaps_child_and_removes_parts(tmp_path, monkeypatch, failing):
    """When this process raises while the child formats (solving the
    certificate, in the summary, or writing ``summary.json``) or after the
    blocks are claimed (renaming trajectory.csv's temporary file into
    place), the child is reaped, killed first if it still runs, and no
    temporary file is left.  A certificate that fails after the fork leaves
    no artifact and no output directory, as it did when it was solved
    before the integration; here the fork threshold is 0, so a short run
    forks too."""
    spy = _spy_writer(monkeypatch)
    real_write, real_replace = runner._atomic_write, os.replace

    def fail(*args, **kwargs):
        raise OSError(f"{failing} failed")

    def replace(src, dst):
        if Path(dst).name == "trajectory.csv":
            fail()
        return real_replace(src, dst)

    if failing == "table-write":
        monkeypatch.setattr(os, "replace", replace)
    else:
        monkeypatch.setattr(runner, failing, fail)
    overrides = _FORKING_RUN
    if failing == "solve_P":
        monkeypatch.setattr(runner, "FORK_MIN_VALUES", 0)
        overrides = dict(t_final=1.0)
    out = tmp_path / "out"
    sc = builtin_scenario("paper-unmatched").with_overrides(**overrides)
    with pytest.raises(OSError, match=failing):
        runner.run(sc, out)
    assert len(spy.forks) == 1
    _assert_no_child_left()
    assert list(out.glob("*.tmp")) == list(out.glob(".*.tmp")) == []
    if failing == "solve_P":
        assert not out.exists()


def test_unwritable_output_directory_keeps_the_certificate_error(tmp_path, monkeypatch):
    """trajectory.csv's temporary file and the claim file cannot be made
    where the output directory cannot be: no child is forked, and the
    certificate's error, not the directory's, is what the run raises (exit
    2, not 4).  With a sound certificate the directory's error follows, from
    the first write."""
    monkeypatch.setattr(runner, "FORK_MIN_VALUES", 0)
    spy = _spy_writer(monkeypatch)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    sc = builtin_scenario("paper-unmatched").with_overrides(t_final=1.0)
    with pytest.raises(OSError):
        runner.run(sc, out)

    def fail(*args, **kwargs):
        raise DegenerateSpectrumError("certificate failed")

    monkeypatch.setattr(runner, "solve_P", fail)
    with pytest.raises(DegenerateSpectrumError, match="certificate failed"):
        runner.run(sc, out)
    assert spy.forks == []


def test_child_formats_trajectory_blocks_only(tmp_path, monkeypatch, serial_run_bytes):
    """The child is forked before metrics.csv's rows exist, so its queue
    holds trajectory.csv's blocks alone.  This process formats every block
    of metrics.csv exactly once, in order, before it claims any block of
    trajectory.csv; the bytes are the serial run's."""
    spy = _spy_writer(monkeypatch)
    queued = []
    real_fork_writer = runner._fork_writer

    def fork_writer(text, span, *args):
        queued.append((text.func, [(16, rows.start, rows.stop) for rows in span]))
        return real_fork_writer(text, span, *args)

    monkeypatch.setattr(runner, "_fork_writer", fork_writer)
    sc = builtin_scenario("paper-unmatched").with_overrides(**_FORKING_RUN)
    arts = runner.run(sc, tmp_path / "out")
    assert [p.read_bytes() for p in arts.paths()] == serial_run_bytes
    trajectory_blocks = _queue((5001, 16))
    assert queued == [(runner.trajectory_csv_text, trajectory_blocks)] and len(spy.forks) == 1
    metrics_ranges = [r for r in spy.ranges if r[0] == len(runner.METRIC_COLUMNS)]
    assert metrics_ranges == _queue((5001, len(runner.METRIC_COLUMNS)))
    assert spy.ranges[:len(metrics_ranges)] == metrics_ranges
    assert set(spy.child_ranges()) <= set(trajectory_blocks)
    _assert_no_child_left()


@pytest.mark.parametrize("threshold, forks", [(96_024, 0), (96_023, 1)])
def test_fork_rule_counts_both_tables(tmp_path, monkeypatch, threshold, forks):
    """Only trajectory.csv's blocks are queued, but the fork rule compares
    the values of both tables with ``FORK_MIN_VALUES``: the unmatched
    builtin sampled every step for 4 s writes 4,001 rows of 16 and of 8
    values, 96,024 in all and 64,016 in trajectory.csv.  The run forks once
    when the threshold is one below that, and not at all at 96,024; the
    bytes are the serial run's either way."""
    sc = builtin_scenario("paper-unmatched").with_overrides(t_final=4.0, sample_every=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "FORK_MIN_VALUES", math.inf)
        serial = [p.read_bytes() for p in runner.run(sc, tmp_path / "serial").paths()]
    monkeypatch.setattr(runner, "FORK_MIN_VALUES", threshold)
    spy = _spy_writer(monkeypatch)
    arts = runner.run(sc, tmp_path / "out")
    names, data = runner.read_csv(arts.trajectory_csv)
    assert data.shape == (4001, 16) and data.size + 4001 * len(runner.METRIC_COLUMNS) == 96_024
    assert len(spy.forks) == forks
    assert [p.read_bytes() for p in arts.paths()] == serial
    _assert_no_child_left()


def test_divergence_partial_goes_through_the_writer(tmp_path, monkeypatch):
    """The partial trajectory of a diverging run is written by the same
    writer, here made to fork although the table is small, while this
    process writes ``certification.json``."""
    monkeypatch.setattr(runner, "FORK_MIN_VALUES", 0)
    spy = _spy_writer(monkeypatch)
    sc = scenario_from_json(_diverging_scenario_doc())
    out = tmp_path / "out"
    with pytest.raises(IntegrationDivergedError), np.errstate(over="ignore", invalid="ignore"):
        runner.run(sc, out)
    assert len(spy.forks) == 1
    names, data = runner.read_csv(out / "trajectory.csv")
    assert data.shape[0] > 2
    queue = _queue(data.shape)
    here, child = _who_formatted(spy, queue)
    assert not here & child and here | child == set(range(len(queue)))
    _assert_claims_split(spy, queue)
    _assert_same_text((out / "trajectory.csv").read_text(), _reference_csv(names, data))
    assert sorted(p.name for p in out.iterdir()) == ["certification.json", "trajectory.csv"]
    _assert_no_child_left()


def _certification_doc(P, name="writer"):
    """A certification document as runner.run builds it, around ``P``."""
    sc = builtin_scenario("paper-matched")
    report = certify_matched(sc.gains, spectral.solve_P(build_laplacian(sc.graph)))
    certificate = {"n": np.shape(P)[0], "P": P, "alpha": 1.0, "residual": 5e-17, "lambda_P": 1.5,
                   "lambda_L": 2.0, "min_eig_P": 0.25, "cond_P": 6.0}
    return {"report": report.to_json(), "certificate": certificate, "scenario": name,
            "mode": "matched"}


#: literal P for the writer's edge cases: runs of zeros (the writer spells
#: each run as one string) and the spellings a zero run must not swallow
_WRITER_CASES = {
    "awkward-values": [[-0.0, 5e-324, 1e-300], [1e300, 1.0, 0.0], [1e16, 0.1, -5e-324]],
    "all-zero-row": [[0.0, 0.0, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 2.0]],
    "zero-runs-at-row-ends": [[0.0, 0.0, 1.5, 0.0], [0.0, 0.0, 0.0, 2.5],
                              [3.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
    "row-without-zeros": [[1.0, -2.0, 0.25], [0.0, 0.0, 0.0], [0.1, 1e16, -3.0]],
    "negative-zero-between-zeros": [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]],
    "subnormal": [[0.0, 5e-324, 0.0], [5e-324, 0.0, -5e-324], [0.0, 0.0, 5e-324]],
    "n1-zero": [[0.0]],
    "n1-negative-zero": [[-0.0]],
}


def _writer_P(case):
    """P of a solved certificate of 1, 2 or 600 agents, or a literal case."""
    if case in _WRITER_CASES:
        return _WRITER_CASES[case]
    graph = {"n1": lambda: DirectedGraph(np.zeros((1, 1))),
             "n2": lambda: DirectedGraph(np.array([[0.0, 0.0], [1.0, 0.0]])),
             "n600": lambda: random_tree_graph(np.random.default_rng(3), 600)}[case]()
    return sparsity.dense(spectral.solve_P(build_laplacian(graph)).P).tolist()


def _csr_copies(P):
    """P as two CSR arrays: one that stores every entry, zeros of both signs
    included, and one that stores the entries whose bit pattern is not zero,
    so -0.0 but not 0.0."""
    P = np.array(P, dtype=float)
    return [scipy.sparse.csr_array((P[mask], np.nonzero(mask)), shape=P.shape)
            for mask in (np.ones(P.shape, dtype=bool), P.view(np.int64) != 0)]


def _assert_entries_form(csr, name="writer"):
    """A CSR P is spelled as its stored entries: the certification text is
    the indented, key-sorted dump of the document whose P is
    ``{"shape", "rows", "cols", "values"}``, one entry per stored entry,
    0-based and in row-major order, from which ``csr_array`` rebuilds P bit
    for bit, explicit zeros of both signs and subnormals included."""
    doc = _certification_doc(csr, name)
    text = "".join(runner.certification_json_text(doc))
    entries = json.loads(text)["certificate"]["P"]
    assert sorted(entries) == ["cols", "rows", "shape", "values"]
    spelled = {**doc, "certificate": {**doc["certificate"], "P": entries}}
    _assert_same_text(text, json.dumps(spelled, indent=2, sort_keys=True) + "\n")
    rows, cols = np.array(entries["rows"], dtype=int), np.array(entries["cols"], dtype=int)
    assert entries["shape"] == list(csr.shape) and rows.size == csr.nnz
    assert (np.diff(rows * csr.shape[1] + cols) > 0).all()
    rebuilt = scipy.sparse.csr_array((entries["values"], (rows, cols)), shape=entries["shape"])
    assert np.array_equal(rebuilt.indptr, csr.indptr)
    assert np.array_equal(rebuilt.indices, csr.indices)
    assert np.array_equal(rebuilt.data.view(np.int64), csr.data.view(np.int64))


@pytest.mark.parametrize("case", ["n1", "n2", "n600", *_WRITER_CASES])
def test_certification_json_is_the_indented_dump(case):
    """A dense P gives the indented, key-sorted dump, character for
    character, given as rows of floats or as an array, also when the
    scenario is named "P rows", like the placeholder an earlier writer
    spliced; a CSR P (``runner.run`` passes a certificate's P as stored),
    with explicit zeros or without, gives its stored entries
    (``_assert_entries_form``)."""
    P = _writer_P(case)
    for name in ("writer", "P rows"):
        doc = _certification_doc(P, name)
        text = "".join(runner.certification_json_text(doc))
        _assert_same_text(text, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert "".join(runner.certification_json_text(_certification_doc(np.array(P), name))) == text
        for csr in _csr_copies(P):
            _assert_entries_form(csr, name)


#: few values, so that draws repeat them; both zeros, so that a writer that
#: merges equal values instead of equal bit patterns misspells one of them
_P_POOL = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, 1e16, 0.1, 1.0, -2.0, 3.0, 1e5)


@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(_P_POOL), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=100, deadline=None)
def test_certification_json_of_any_square_P(P):
    """Any square P, symmetric or not, with repeated values: dense, the
    text is the indented, key-sorted dump, from rows or an array; its CSR
    copies give their stored entries."""
    doc = _certification_doc(P)
    text = "".join(runner.certification_json_text(doc))
    _assert_same_text(text, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert "".join(runner.certification_json_text(_certification_doc(np.array(P)))) == text
    for csr in _csr_copies(P):
        _assert_entries_form(csr)


@pytest.mark.parametrize("sample_every, windows", [
    (10000, [[20.0, 25.0], [25.0, 30.0], [30.0, 35.0], [35.0, 40.0]]),
    (20000, [[20.0, 40.0]]),
], ids=["5-samples", "3-samples"])
def test_run_sync_windows_on_sparse_samples(tmp_path, sample_every, windows):
    """The unmatched builtin sampled every 10 s keeps its 5 s windows after
    the switch at 20 s.  Sampled every 20 s, its 3 samples are fewer than
    those 4 windows, which ``sync_deviation_windows`` rejects; the run then
    takes one window per sample spacing and still exits 0."""
    sc = builtin_scenario("paper-unmatched").with_overrides(sample_every=sample_every)
    runner.run(sc, tmp_path / "run")
    results = json.loads((tmp_path / "run" / "summary.json").read_text())["results"]
    assert [w["window"] for w in results["sync_windows"]] == windows


@pytest.mark.parametrize("name", ["paper-matched", "paper-unmatched"])
def test_run_writes_indented_certification_json(tmp_path, name):
    arts = runner.run(builtin_scenario(name).with_overrides(t_final=2.0), tmp_path / "out")
    text = arts.certification_json.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_certification_json_rejects_non_finite_P(bad):
    """JSON cannot spell a non-finite float; the writer raises instead."""
    with pytest.raises(ValueError, match="non-finite"):
        runner.certification_json_text(_certification_doc([[1.0, bad], [bad, 1.0]]))


def test_large_tree_run_repeats_certification_json(tmp_path):
    """A 600-agent tree takes the sparse regime for its smallest form
    eigenvalue, whose ARPACK start is fixed: two runs in one process write
    the same certification.json."""
    n = 600
    rng = np.random.default_rng(11)
    doc = scenario_to_json(builtin_scenario("paper-matched"))
    doc["graph"] = graph_to_json(random_tree_graph(rng, n))
    segments = doc["disturbance"]["segments"]
    segments[1]["t_start"] = 0.01
    for seg in segments:
        seg["base"] = rng.uniform(-0.3, 0.3, n).tolist()
    doc["initial"] = {"x": rng.uniform(-1.0, 1.0, n).tolist(), "y": [0.0] * n,
                      "delta_hat": [0.0] * n}
    doc["sim"] = {"t_final": 0.02, "dt": 1e-3, "sample_every": 10}
    sc = scenario_from_json(doc)
    texts = [runner.run(sc, tmp_path / f"run{k}").certification_json.read_bytes()
             for k in range(2)]
    assert texts[0] == texts[1]
