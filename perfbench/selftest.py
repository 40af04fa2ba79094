#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery, not of the program.

    python3 perfbench/selftest.py            (or: python3 -m pytest perfbench/selftest.py)

It checks that the output checks accept an unchanged run and reject a
trajectory perturbed by 1e-6 or a disturbance switch moved by one step, that
the workload generator is deterministic per seed, that tracing accounts for
the whole traced run and leaves the program as it found it, and that no
benchmark file depends on the stepping-kernel selection.  It takes a few
seconds; its files go to ``.perfbench-out/selftest``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = run.WORK / "selftest"


def _short_document(switch_time: float = 1.0) -> dict:
    """paper-matched cut to 2 s, with its switch inside the horizon."""
    doc = workloads.scenario_document("paper-matched", 0)
    doc["sim"]["t_final"] = 2.0
    doc["disturbance"]["segments"][1]["t_start"] = switch_time
    return doc


def _run(doc: dict, name: str) -> tuple:
    from consensus_net import runner
    from consensus_net.scenario import scenario_from_json

    out = OUT / name
    runner.run(scenario_from_json(doc), out)
    return out, checks.read_facts(out)


def test_checks_accept_run_and_reject_perturbed_trajectory():
    doc = _short_document()
    reference = checks.derive_reference(doc)
    out, facts = _run(doc, "perturbed")
    assert checks.check_facts(facts, reference, doc, facts["digest"]) == []

    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) + 1e-6)
    path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    failures = checks.check_facts(checks.read_facts(out), reference, doc, facts["digest"])
    assert any(f.startswith("final state") for f in failures), failures
    assert any(f.startswith("artifacts differ") for f in failures), failures


def test_checks_reject_switch_one_step_late():
    doc = _short_document()
    moved = _short_document(switch_time=1.0 + doc["sim"]["dt"])
    _, facts = _run(moved, "moved-switch")
    failures = checks.check_facts(facts, checks.derive_reference(doc), doc, None)
    assert any(f.startswith("final state") for f in failures), failures


def _facts_from_reference(reference: dict) -> dict:
    results = {"max_projector_residual": 0.0}
    for dotted, value in reference["results"].items():
        *parents, leaf = dotted.split(".")
        node = results
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return {"digest": {}, "final_state": list(reference["final_state"]),
            "results": results, "cert_residual": 0.0}


def test_stored_references_reject_perturbation():
    import json

    stored = json.loads(run.REFERENCES.read_text())
    assert set(stored) == set(workloads.WORKLOADS) - set(workloads.SEEDED)
    for name, reference in stored.items():
        doc = workloads.scenario_document(name, 0)
        facts = _facts_from_reference(reference)
        assert checks.check_facts(facts, reference, doc, None) == [], name
        for i in range(len(facts["final_state"])):
            bumped = _facts_from_reference(reference)
            bumped["final_state"][i] += 1e-6
            assert checks.check_facts(bumped, reference, doc, None), (name, i)


def test_generator_is_deterministic_per_seed():
    a = workloads.scenario_document("large-graph", 7)
    assert a == workloads.scenario_document("large-graph", 7)
    b = workloads.scenario_document("large-graph", 8)
    assert a["graph"] != b["graph"]
    assert a["initial"] != b["initial"]
    for seed in range(5):
        edges = workloads.scenario_document("large-graph", seed)["graph"]["edges"]
        receivers = {e["to"] for e in edges}
        roots = set(range(1, workloads.LARGE_N + 1)) - receivers
        assert len(edges) == workloads.LARGE_N - 1 and len(roots) == 1 and 1 not in roots
    for name in set(workloads.WORKLOADS) - set(workloads.SEEDED):
        assert workloads.scenario_document(name, 1) == workloads.scenario_document(name, 2)


def test_trace_accounts_for_run_and_restores_program():
    from consensus_net import analysis, runner
    from consensus_net.scenario import scenario_from_json

    before = (runner.integrate, analysis.trajectory_metrics, analysis.consensus_errors)
    tracer = tracing.Tracer()
    tracer.traced_run(runner.run, 0, scenario_from_json(_short_document()), OUT / "traced")
    assert (runner.integrate, analysis.trajectory_metrics, analysis.consensus_errors) == before
    split = tracer.split(0)
    accounted = sum(split["self_s"].values()) + split["csv_text_s"] + split["runner_self_s"]
    assert abs(accounted - split["run_s"]) < 1e-9
    assert split["integrate_s"] > 0 and split["solve_P_s"] > 0
    assert split["eval_disturbance_calls"] > 0 and split["consensus_errors_calls"] > 0


#: what the benchmark must not touch, so that it still measures the program
#: after the kernel-selection layer is deleted
_FORBIDDEN_NAMES = {"kernels", "warm_up", "active_backend", "HAVE_NUMBA"}
_FORBIDDEN_TEXT = ("CONSENSUS_NET_NO_NUMBA",)


def test_no_kernel_selection_dependency():
    for path in sorted(BENCH_DIR.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        source = path.read_text()
        assert not any(text in source for text in _FORBIDDEN_TEXT), path.name
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                names = {node.module or ""} | {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.keyword):
                names = {f"{node.arg}="}
            else:
                continue
            parts = {p for name in names for p in name.split(".")}
            assert not parts & (_FORBIDDEN_NAMES | {"backend="}), (path.name, names)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail at the end
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
