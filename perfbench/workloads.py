"""Seeded scenario documents for the benchmark workloads.

Each workload is one JSON scenario document; the program under test only
ever sees that document, through ``scenario_from_json``.  The builtin-based
workloads ignore the seed; ``large-graph`` draws everything random from it.
"""

from __future__ import annotations

import numpy as np

#: one sentence per workload: what it stresses and why it is in the benchmark
WHY = {
    "paper-matched":
        "the published matched run unchanged (n = 5, 100k steps, 10,001 samples): the "
        "per-step RK4 loop in sim does most of the work",
    "unmatched-dense":
        "the published unmatched run sampled every step (40k steps, 40,001 samples): "
        "per-sample analysis and CSV text outweigh sim",
    "large-graph":
        "a seeded random spanning tree on 600 agents over 1 s: O(n^3) graph, spectral "
        "and gains setup and the 10 MB certificate JSON dominate",
}

WORKLOADS = tuple(WHY)

#: workloads whose document depends on the seed; their references are
#: derived in every run instead of being stored
SEEDED = ("large-graph",)

LARGE_N = 600
LARGE_SWITCH_TIME = 0.5

#: the published matched gain set, as in the builtin paper-matched scenario
_MATCHED_GAINS = {"gamma1": 6.0, "gamma2": 17.0, "gamma3": 4.0, "gamma4": 25.8,
                  "mu": 1.0, "b": 10.0, "rho": 17.0, "epsilon": 1.0}


def _builtin_document(name: str) -> dict:
    from consensus_net.scenario import builtin_scenario, scenario_to_json

    return scenario_to_json(builtin_scenario(name))


def _random_tree_edges(rng: np.random.Generator, n: int) -> list:
    """Random recursive spanning tree, labels shuffled so the root is not agent 1."""
    perm = rng.permutation(n)
    if perm[0] == 0:
        perm[[0, 1]] = perm[[1, 0]]
    edges = []
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        edges.append({"from": int(perm[parent]) + 1, "to": int(perm[child]) + 1,
                      "w": float(rng.uniform(0.5, 2.0))})
    return edges


def _large_graph_document(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = LARGE_N
    edges = _random_tree_edges(rng, n)
    x0 = rng.uniform(-1.0, 1.0, size=n)
    base_before = rng.uniform(-0.3, 0.3, size=n)
    base_after = rng.uniform(-0.3, 0.3, size=n)
    return {
        "name": "large-graph",
        "mode": "matched",
        "graph": {"n": n, "edges": edges},
        "gains": dict(_MATCHED_GAINS),
        "lyapunov": {"q_scale": 1.0, "alpha": 1.0},
        "disturbance": {"segments": [
            {"t_start": 0.0, "base": base_before.tolist(), "hyperbolic_coeff": 1.0,
             "exp_coeff": 0.0, "exp_rate": 0.0},
            {"t_start": LARGE_SWITCH_TIME, "base": base_after.tolist(),
             "hyperbolic_coeff": 0.0, "exp_coeff": 1.0, "exp_rate": 0.2},
        ]},
        "initial": {"x": x0.tolist(), "y": [0.0] * n, "delta_hat": [0.0] * n},
        "sim": {"t_final": 1.0, "dt": 1e-3, "sample_every": 10},
    }


def scenario_document(workload: str, seed: int) -> dict:
    """The scenario JSON document for a workload and workload seed."""
    if workload == "paper-matched":
        return _builtin_document("paper-matched")
    if workload == "unmatched-dense":
        doc = _builtin_document("paper-unmatched")
        doc["name"] = "unmatched-dense"
        doc["sim"]["sample_every"] = 1
        return doc
    if workload == "large-graph":
        return _large_graph_document(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
