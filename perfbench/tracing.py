"""Spans and counters around the calls ``runner.run`` makes into each layer.

The program is not changed: while a ``Tracer`` is installed, the names that
``consensus_net.runner`` and ``consensus_net.analysis`` look up at call time
are replaced by timing wrappers, and restored afterwards.  Calls into
``graph``, ``spectral``, ``gains``, ``sim`` and ``analysis`` become spans;
the per-sample calls (``eval_disturbance``, ``consensus_errors``) are timed
counters, so that tracing them records no span per sample.

A span's self time is its duration minus the time its child spans and
counted calls took, so the layer self times add up to the traced run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: (module attribute, recorded name, kind); the layer is the name's prefix
_RUNNER_TARGETS = (
    ("build_laplacian", "graph.build_laplacian", "span"),
    ("solve_P", "spectral.solve_P", "span"),
    ("certify_matched", "gains.certify_matched", "span"),
    ("certify_unmatched", "gains.certify_unmatched", "span"),
    ("is_S_hurwitz", "gains.is_S_hurwitz", "span"),
    ("integrate", "sim.integrate", "span"),
    ("trajectory_csv_text", "runner.trajectory_csv_text", "span"),
    ("metrics_csv_text", "runner.metrics_csv_text", "span"),
    ("eval_disturbance", "dynamics.eval_disturbance", "count"),
)
_ANALYSIS_TARGETS = (
    ("trajectory_metrics", "analysis.trajectory_metrics", "span"),
    ("first_settling_time", "analysis.first_settling_time", "span"),
    ("estimation_limits", "analysis.estimation_limits", "span"),
    ("fit_exponential_decay", "analysis.fit_exponential_decay", "span"),
    ("fit_orbit", "analysis.fit_orbit", "span"),
    ("sync_deviation_windows", "analysis.sync_deviation_windows", "span"),
    ("consensus_errors", "analysis.consensus_errors", "count"),
    ("eval_disturbance", "dynamics.eval_disturbance", "count"),
)

RUN_SPAN = "runner.run"
LAYERS = ("graph", "spectral", "gains", "sim", "analysis", "dynamics", "runner")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory spans (name, start, end, parent, run id) and timed counters."""

    def __init__(self):
        self.spans: list[dict] = []
        #: (run id, name, parent span name) -> [calls, seconds]
        self.counters: dict[tuple, list] = {}
        self._stack: list[int] = []

    def _close_child(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]]["child_s"] += seconds

    def wrap_span(self, name: str, fn, run_id: int):
        def traced(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name, "run": run_id,
                   "parent": self._stack[-1] if self._stack else None,
                   "start": perf_counter(), "end": None, "child_s": 0.0}
            self._stack.append(rec["id"])
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self._stack.pop()
                self._close_child(rec["end"] - rec["start"])
        return traced

    def wrap_count(self, name: str, fn, run_id: int):
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                parent = self.spans[self._stack[-1]]["name"] if self._stack else None
                entry = self.counters.setdefault((run_id, name, parent), [0, 0.0])
                entry[0] += 1
                entry[1] += seconds
                self._close_child(seconds)
        return counted

    def traced_run(self, run_fn, run_id: int, *args, **kwargs):
        """Call ``run_fn`` (``runner.run``) with every layer target wrapped."""
        from consensus_net import analysis, runner

        saved = []
        for module, targets in ((runner, _RUNNER_TARGETS), (analysis, _ANALYSIS_TARGETS)):
            for attr, name, kind in targets:
                # a target the program no longer has is simply not traced
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                wrap = self.wrap_span if kind == "span" else self.wrap_count
                saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original, run_id))
        try:
            return self.wrap_span(RUN_SPAN, run_fn, run_id)(*args, **kwargs)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def split(self, run_id: int) -> dict:
        """Per-layer figures of one traced run, in seconds and counts.

        ``self_s`` holds the self time of every layer but ``runner``, whose
        time is reported as ``csv_text_s`` plus ``runner_self_s``; together
        they add up to ``run_s``.
        """
        spans = [s for s in self.spans if s["run"] == run_id]
        counters = {k[1:]: v for k, v in self.counters.items() if k[0] == run_id}
        run = next(s for s in spans if s["name"] == RUN_SPAN)

        def duration(s):
            return s["end"] - s["start"]

        def total(*names):
            return sum(duration(s) for s in spans if s["name"] in names)

        def calls(name):
            return sum(c for (n, _parent), (c, _s) in counters.items() if n == name)

        self_s = {layer: 0.0 for layer in LAYERS if layer != "runner"}
        for s in spans:
            if _layer(s["name"]) != "runner":
                self_s[_layer(s["name"])] += duration(s) - s["child_s"]
        for (name, _parent), (_calls, seconds) in counters.items():
            self_s[_layer(name)] += seconds
        # the analysis calls runner makes itself while it builds the summary
        summary_s = sum(duration(s) for s in spans
                        if s["parent"] == run["id"] and _layer(s["name"]) == "analysis"
                        and s["name"] != "analysis.trajectory_metrics")
        summary_s += sum(seconds for (name, parent), (_c, seconds) in counters.items()
                         if parent == RUN_SPAN and _layer(name) == "analysis")
        return {
            "run_s": duration(run),
            "self_s": self_s,
            "runner_self_s": duration(run) - run["child_s"],
            "csv_text_s": total("runner.trajectory_csv_text", "runner.metrics_csv_text"),
            "build_laplacian_s": total("graph.build_laplacian"),
            "solve_P_s": total("spectral.solve_P"),
            "certify_s": total("gains.certify_matched", "gains.certify_unmatched"),
            "integrate_s": total("sim.integrate"),
            "trajectory_metrics_s": total("analysis.trajectory_metrics"),
            "summary_s": summary_s,
            "consensus_errors_calls": calls("analysis.consensus_errors"),
            "eval_disturbance_calls": calls("dynamics.eval_disturbance"),
        }

    def to_json(self) -> dict:
        return {
            "spans": [{k: s[k] for k in ("id", "name", "start", "end", "parent", "run")}
                      for s in self.spans],
            "counters": [{"run": r, "name": n, "parent": p, "calls": c, "seconds": s}
                         for (r, n, p), (c, s) in self.counters.items()],
        }


def median_split(splits: list[dict]) -> dict:
    """Median over runs of every figure in ``Tracer.split``."""
    out = {}
    for key, value in splits[0].items():
        if isinstance(value, dict):
            out[key] = {k: statistics.median(s[key][k] for s in splits) for k in value}
        else:
            out[key] = statistics.median(s[key] for s in splits)
    return out
