"""Scenario documents: everything one simulation run needs, as JSON.

Two scenarios ship embedded, ``paper-matched`` and ``paper-unmatched``.  Both
use a five-agent spanning tree (root agent 1, unit edges 1->2, 2->3, 3->4,
2->5) standing in for the original benchmark topology (``fig1_substitute``),
the published gain sets, and the published switching disturbances: a step
change of the base vector plus vanishing terms 1/(12+t) before the switch and
exp(-0.2 t)/(12+t) after it.

This module alone reads, writes and rewrites (``align_dt``) scenarios.  The
gain dataclasses state the ``gains`` keys, and the mode their class serves.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dynamics import DisturbanceProfile, profile_from_json, profile_to_json
from .errors import ValidationError, finite_number
from .gains import MatchedGains, UnmatchedGains
from .graph import DirectedGraph, graph_from_json, graph_to_json
from .jsontext import indented_json
from .kernels import largest_divisor_at_most

BUILTIN_NAMES = ("paper-matched", "paper-unmatched")

_GAINS_BY_MODE = {cls.mode: cls for cls in (MatchedGains, UnmatchedGains)}

_DEFAULT_GRAPH = {
    "n": 5,
    "edges": [
        {"from": 1, "to": 2, "w": 1.0},
        {"from": 2, "to": 3, "w": 1.0},
        {"from": 3, "to": 4, "w": 1.0},
        {"from": 2, "to": 5, "w": 1.0},
    ],
    "fig1_substitute": True,
}

_BASE_BEFORE = [0.1, -0.1, 0.2, -0.2, 0.1]
_BASE_AFTER = [0.2, -0.2, -0.1, 0.2, -0.3]


def _switching_disturbance(switch_time: float) -> dict:
    return {
        "segments": [
            {"t_start": 0.0, "base": _BASE_BEFORE, "hyperbolic_coeff": 1.0,
             "exp_coeff": 0.0, "exp_rate": 0.0},
            {"t_start": switch_time, "base": _BASE_AFTER, "hyperbolic_coeff": 0.0,
             "exp_coeff": 1.0, "exp_rate": 0.2},
        ]
    }


_BUILTINS = {
    "paper-matched": {
        "name": "paper-matched",
        "mode": "matched",
        "graph": _DEFAULT_GRAPH,
        "gains": {"gamma1": 6.0, "gamma2": 17.0, "gamma3": 4.0, "gamma4": 25.8,
                  "mu": 1.0, "b": 10.0, "rho": 17.0, "epsilon": 1.0},
        "lyapunov": {"q_scale": 1.0, "alpha": 1.0},
        "disturbance": _switching_disturbance(50.0),
        "initial": {"x": [1.0, -0.5, 0.5, -1.0, 0.0],
                    "y": [0.0, 0.0, 0.0, 0.0, 0.0],
                    "delta_hat": [0.0, 0.0, 0.0, 0.0, 0.0]},
        "sim": {"t_final": 100.0, "dt": 1e-3, "sample_every": 10},
    },
    "paper-unmatched": {
        "name": "paper-unmatched",
        "mode": "unmatched",
        "graph": _DEFAULT_GRAPH,
        "gains": {"k_x": 3.4, "k_d": 7.5, "k_s": 5.0, "alpha1": 7.5, "nu": 3.0,
                  "alpha2": 1.0},
        "lyapunov": {"q_scale": 1.0, "alpha": 1.0},
        "disturbance": _switching_disturbance(20.0),
        # nonzero velocities give the average-velocity decay a clean signal
        "initial": {"x": [1.0, -0.5, 0.5, -1.0, 0.0],
                    "y": [1.0, 0.5, -0.5, 0.25, -0.25],
                    "delta_hat": [0.0, 0.0, 0.0, 0.0, 0.0]},
        "sim": {"t_final": 40.0, "dt": 1e-3, "sample_every": 10},
    },
}


@dataclass(frozen=True)
class Scenario:
    """A validated simulation scenario; its mode is that of its gains."""

    name: str
    graph: DirectedGraph
    gains: MatchedGains | UnmatchedGains
    q_scale: float
    alpha: float
    disturbance: DisturbanceProfile
    x0: np.ndarray
    y0: np.ndarray
    delta_hat0: np.ndarray
    t_final: float
    dt: float
    sample_every: int
    fig1_substitute: bool = False

    def __post_init__(self):
        for name in ("x0", "y0", "delta_hat0"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def mode(self) -> str:
        return self.gains.mode

    @property
    def n_agents(self) -> int:
        return self.graph.n_agents

    def with_overrides(self, t_final: float | None = None, dt: float | None = None,
                       sample_every: int | None = None) -> "Scenario":
        return replace(
            self,
            t_final=self.t_final if t_final is None else float(t_final),
            dt=self.dt if dt is None else float(dt),
            sample_every=self.sample_every if sample_every is None else int(sample_every),
        )


def _get(doc: dict, path: str, key: str, kind, required=True, default=None):
    """``doc[key]`` converted by ``kind``; a float must be finite, an int integral."""
    loc = f"{path}.{key}" if path else key
    if key not in doc:
        if required:
            raise ValidationError(f"{loc}: missing")
        return default
    value = doc[key]
    try:
        return kind(value) if kind is str else finite_number(value, kind)
    except (TypeError, ValueError):
        raise ValidationError(f"{loc}: expected a finite {kind.__name__}, got {value!r}") from None


def _section(doc: dict, key: str, required: bool = False) -> dict:
    """The object ``doc[key]``; an optional section that is absent is empty."""
    section = doc.get(key, None if required else {})
    if not isinstance(section, dict):
        raise ValidationError(f"{key}: missing or not an object")
    return section


def _vector(doc: dict, path: str, key: str, n: int) -> np.ndarray:
    loc = f"{path}.{key}"
    if key not in doc:
        raise ValidationError(f"{loc}: missing")
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{loc}: expected a numeric vector") from None
    if arr.shape != (n,):
        raise ValidationError(f"{loc}: expected length {n}, got shape {arr.shape}")
    return arr


def scenario_from_json(doc: dict) -> Scenario:
    """Validate a scenario document; errors carry the JSON path of the
    offending field."""
    if not isinstance(doc, dict):
        raise ValidationError("scenario: expected a JSON object")
    name = _get(doc, "", "name", str, required=False, default="unnamed")
    mode = _get(doc, "", "mode", str)
    if mode not in _GAINS_BY_MODE:
        raise ValidationError(f"mode: expected 'matched' or 'unmatched', got {mode!r}")

    if "graph" not in doc:
        raise ValidationError("graph: missing")
    graph = graph_from_json(doc["graph"])
    fig1 = bool(doc["graph"].get("fig1_substitute", False))
    n = graph.n_agents

    gdoc = _section(doc, "gains", required=True)
    gains_cls = _GAINS_BY_MODE[mode]
    try:
        # a gain is required when its field has no default
        gains = gains_cls(**{f.name: _get(gdoc, "gains", f.name, float)
                             for f in fields(gains_cls)
                             if f.name in gdoc or f.default is MISSING})
    except ValidationError as exc:
        # gain positivity failures surface with the gains. prefix
        raise ValidationError(f"gains: {exc}") from None

    lyap = _section(doc, "lyapunov")
    q_scale = _get(lyap, "lyapunov", "q_scale", float, required=False, default=1.0)
    alpha = _get(lyap, "lyapunov", "alpha", float, required=False, default=1.0)
    if q_scale <= 0:
        raise ValidationError(f"lyapunov.q_scale: must be > 0, got {q_scale}")
    if alpha <= 0:
        raise ValidationError(f"lyapunov.alpha: must be > 0, got {alpha}")

    if "disturbance" not in doc:
        raise ValidationError("disturbance: missing")
    disturbance = profile_from_json(doc["disturbance"])
    if disturbance.n_agents != n:
        raise ValidationError(
            f"disturbance.segments[0].base: expected length {n}, got {disturbance.n_agents}")

    init = _section(doc, "initial", required=True)
    if "seed" in init:
        seed = _get(init, "initial", "seed", int)
        if seed < 0:
            raise ValidationError(f"initial.seed: must be >= 0, got {seed}")
        lo = _get(init, "initial", "x_low", float, required=False, default=-1.0)
        hi = _get(init, "initial", "x_high", float, required=False, default=1.0)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(lo, hi, size=n)
        y0 = np.zeros(n)
        dh0 = np.zeros(n)
    else:
        x0 = _vector(init, "initial", "x", n)
        y0 = _vector(init, "initial", "y", n)
        dh0 = _vector(init, "initial", "delta_hat", n)

    sdoc = _section(doc, "sim")
    t_final = _get(sdoc, "sim", "t_final", float, required=False, default=100.0)
    dt = _get(sdoc, "sim", "dt", float, required=False, default=1e-3)
    sample_every = _get(sdoc, "sim", "sample_every", int, required=False, default=10)

    return Scenario(
        name=name, graph=graph, gains=gains, q_scale=q_scale, alpha=alpha,
        disturbance=disturbance, x0=x0, y0=y0, delta_hat0=dh0,
        t_final=t_final, dt=dt, sample_every=sample_every, fig1_substitute=fig1,
    )


def scenario_to_json(sc: Scenario) -> dict:
    graph_doc = graph_to_json(sc.graph)
    if sc.fig1_substitute:
        graph_doc["fig1_substitute"] = True
    return {
        "name": sc.name,
        "mode": sc.mode,
        "graph": graph_doc,
        "gains": asdict(sc.gains),
        "lyapunov": {"q_scale": sc.q_scale, "alpha": sc.alpha},
        "disturbance": profile_to_json(sc.disturbance),
        "initial": {"x": [float(v) for v in sc.x0],
                    "y": [float(v) for v in sc.y0],
                    "delta_hat": [float(v) for v in sc.delta_hat0]},
        "sim": {"t_final": sc.t_final, "dt": sc.dt, "sample_every": sc.sample_every},
    }


def builtin_scenario(name: str) -> Scenario:
    if name not in _BUILTINS:
        raise ValidationError(
            f"unknown builtin scenario {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return scenario_from_json(json.loads(json.dumps(_BUILTINS[name])))


def load_scenario(path_or_name) -> Scenario:
    """Load a scenario from a JSON file, or by builtin name."""
    text = str(path_or_name)
    if text in _BUILTINS:
        return builtin_scenario(text)
    return scenario_from_json(read_json_file(path_or_name, "scenario"))


def read_json_file(path, kind: str):
    """The JSON document in the UTF-8 file ``path``; a missing file, bytes
    that are not UTF-8 and malformed JSON raise ValidationError naming the
    ``kind`` of file and its path."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{kind} file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{kind} file {path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{kind} file {path}: invalid JSON ({exc})") from None


def save_scenario(sc: Scenario, path) -> None:
    Path(path).write_text(indented_json(scenario_to_json(sc)) + "\n")


def _as_fraction(x: float) -> Fraction:
    # decimal-style times round-trip exactly through their string form
    return Fraction(str(float(x)))


def aligned_dt(sc: Scenario, requested_dt: float) -> float:
    """Largest dt <= requested that divides every switch time and t_final.

    Exact rational arithmetic on the decimal representations keeps the result
    reproducible; returns a float that satisfies the integrator's grid check.
    """
    if requested_dt <= 0:
        raise ValidationError(f"dt: must be > 0, got {requested_dt}")
    anchors = [_as_fraction(sc.t_final)]
    anchors += [_as_fraction(s) for s in sc.disturbance.switch_times]
    g = anchors[0]
    for a in anchors[1:]:
        g = Fraction(math.gcd(g.numerator * a.denominator, a.numerator * g.denominator),
                     g.denominator * a.denominator)
    req = _as_fraction(requested_dt)
    k = math.ceil(g / req)
    return float(g / k)


def align_dt(sc: Scenario) -> Scenario:
    """``sc`` with dt shrunk to ``aligned_dt(sc, sc.dt)``, and sample_every
    to the largest divisor of the new step count not above it, so that the
    samples stay uniform and end on t_final."""
    dt = aligned_dt(sc, sc.dt)
    # in rationals: the float quotient of an extreme horizon is infinite
    n_steps = round(_as_fraction(sc.t_final) / _as_fraction(dt))
    return sc.with_overrides(dt=dt, sample_every=largest_divisor_at_most(n_steps, sc.sample_every))
