"""Weighted directed interconnection graphs and their Laplacian matrices.

The convention throughout: ``weights[i, j] > 0`` means agent ``i`` listens to
agent ``j`` (information flows j -> i).  The Laplacian has ``L[i, j] = -w_ij``
off the diagonal and row sums equal to zero, so the all-ones vector is always
a right null vector.  When the transmit-direction graph contains a rooted
spanning tree, the zero eigenvalue is simple, the rest of the spectrum lies in
the open right half plane, and a nonnegative left null vector exists; that
vector (normalized to sum 1) defines the weighted average the network agrees
on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ValidationError, finite_number

#: second-smallest |eigenvalue| below this means the zero eigenvalue is
#: numerically non-simple
_SIMPLE_ZERO_TOL = 1e-8

#: tolerance on the left-eigenvector residual ||v^T L||_inf
_LEFT_RESIDUAL_TOL = 1e-10


def _freeze(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DirectedGraph:
    """Weighted digraph on ``n`` agents.

    ``weights[i, j]`` is the coupling from agent j into agent i; all entries
    are nonnegative and the diagonal is zero (no self connections).
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weights: expected a square matrix, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValidationError("weights: need at least one agent")
        if not np.all(np.isfinite(w)):
            i, j = np.argwhere(~np.isfinite(w))[0]
            raise ValidationError(f"weights[{i},{j}]: non-finite entry")
        neg = np.argwhere(w < 0)
        if neg.size:
            i, j = neg[0]
            raise ValidationError(f"weights[{i},{j}]: negative weight {w[i, j]}")
        nz_diag = np.argwhere(np.diag(w) != 0)
        if nz_diag.size:
            i = int(nz_diag[0][0])
            raise ValidationError(f"weights[{i},{i}]: self connections are not allowed")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n_agents(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_edges(cls, n: int, edges) -> "DirectedGraph":
        """Build from ``(sender, receiver, weight)`` triples with 0-based ids."""
        w = np.zeros((n, n))
        for j, i, wij in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"edge ({j}->{i}): agent id out of range for n={n}")
            w[i, j] = wij
        return cls(w)


@dataclass(frozen=True)
class LaplacianData:
    """Laplacian of a directed graph plus the spectral facts used downstream.

    ``v_left`` is None when the graph has no spanning tree (the left null
    space is then not one-dimensional).  ``lambda_L`` bounds the spectral
    norm of L (tight: it equals it).
    """

    L: np.ndarray
    has_spanning_tree: bool
    v_left: np.ndarray | None
    lambda_L: float
    nonzero_eigenvalue_real_parts_positive: bool

    def __post_init__(self):
        object.__setattr__(self, "L", _freeze(self.L))
        if self.v_left is not None:
            object.__setattr__(self, "v_left", _freeze(self.v_left))

    @property
    def n_agents(self) -> int:
        return self.L.shape[0]


def build_laplacian(g: DirectedGraph) -> LaplacianData:
    """Assemble L from the weights and record its relevant spectral facts.

    Row i has diagonal entry sum_k w_ik and off-diagonal entries -w_ij, so
    L @ ones == 0 holds by construction.  The spanning-tree flag, the left
    eigenvector of the zero eigenvalue and the spectral-norm bound are
    computed here once and carried along with the matrix: one eigenvalue
    decomposition serves the simple-zero and right-half-plane checks, and one
    SVD of L^T gives both the left null vector and the spectral norm.
    """
    w = g.weights
    L = np.diag(w.sum(axis=1)) - w
    tree = has_spanning_tree(g)
    s, vt = np.linalg.svd(L.T)[1:]
    if tree:
        eigs = np.linalg.eigvals(L)
        v = _left_null_vector(L, eigs, vt[-1])
        # all eigenvalues except the (simple) zero one must sit strictly in
        # the right half plane
        rhp = L.shape[0] == 1 or bool(np.sort(eigs.real)[1] > 0)
    else:
        v = None
        rhp = False
    return LaplacianData(
        L=L,
        has_spanning_tree=tree,
        v_left=v,
        lambda_L=float(s[0]),
        nonzero_eigenvalue_real_parts_positive=rhp,
    )


def _reach(succ: list, root: int, seen: np.ndarray) -> None:
    """Mark in ``seen`` every agent reachable from ``root`` through unseen agents."""
    seen[root] = True
    frontier = [root]
    while frontier:
        for i in succ[frontier.pop()]:
            if not seen[i]:
                seen[i] = True
                frontier.append(i)


def has_spanning_tree(g: DirectedGraph) -> bool:
    """True iff some root agent reaches every agent along transmit direction.

    Transmit direction: j -> i exists when weights[i, j] > 0.  Checked with
    two reachability passes (the mother-vertex argument): the first sweeps
    all agents, starting a new search from each agent not yet reached; if any
    agent reaches everyone, so does the last start of that sweep, because an
    earlier search that reached such an agent would have reached every later
    start too.  The second pass searches from that last start alone.
    """
    n = g.n_agents
    src, dst = np.nonzero(g.weights.T > 0)  # edge src -> dst, sorted by src
    succ = [a.tolist() for a in np.split(dst, np.searchsorted(src, np.arange(1, n)))]
    seen = np.zeros(n, dtype=bool)
    last = 0
    for root in range(n):
        if not seen[root]:
            last = root
            _reach(succ, root, seen)
    seen[:] = False
    _reach(succ, last, seen)
    return bool(seen.all())


def left_eigenvector(L: np.ndarray) -> np.ndarray:
    """Nonnegative left null vector of L, normalized so its entries sum to 1.

    Computed from the null space of L^T via SVD (rank-revealing, robust for
    the exactly known zero eigenvalue).  Raises DegenerateSpectrumError when
    the zero eigenvalue is numerically non-simple.  Entries may be exactly
    zero when the graph is not strongly connected; tiny negative entries
    (>= -1e-12) are clamped to zero.
    """
    L = np.asarray(L, dtype=float)
    return _left_null_vector(L, np.linalg.eigvals(L), np.linalg.svd(L.T)[2][-1])


def _left_null_vector(L: np.ndarray, eigs: np.ndarray, null: np.ndarray) -> np.ndarray:
    """``left_eigenvector`` from the eigenvalues of L and the last right
    singular vector of L^T, both computed by the caller."""
    n = L.shape[0]
    if n == 1:
        return np.array([1.0])
    second = np.sort(np.abs(eigs))[1]
    if second < _SIMPLE_ZERO_TOL:
        raise DegenerateSpectrumError(
            f"zero eigenvalue of L is not simple: second-smallest |eig| = {second:.3e}"
        )
    s = null.sum()
    if abs(s) < 1e-12:
        raise DegenerateSpectrumError("left null vector has zero sum; cannot normalize")
    v = null / s
    if np.any(v < -1e-12):
        raise DegenerateSpectrumError(
            f"left eigenvector has a significantly negative entry: min = {v.min():.3e}"
        )
    v = np.where(v < 0, 0.0, v)
    v = v / v.sum()
    residual = float(np.abs(v @ L).max())
    if residual > _LEFT_RESIDUAL_TOL:
        raise DegenerateSpectrumError(f"left eigenvector residual too large: {residual:.3e}")
    return v


def graph_to_json(g: DirectedGraph) -> dict:
    """Serialize as ``{"n": ..., "edges": [{"from": j, "to": i, "w": ...}]}``.

    Agent indices are 1-based in the document.
    """
    rows, cols = np.nonzero(g.weights)
    edges = [{"from": j + 1, "to": i + 1, "w": wij}
             for i, j, wij in zip(rows.tolist(), cols.tolist(), g.weights[rows, cols].tolist())]
    return {"n": g.n_agents, "edges": edges}


def graph_from_json(doc: dict) -> DirectedGraph:
    """Parse the JSON object form; errors name the offending field."""
    if not isinstance(doc, dict):
        raise ValidationError("graph: expected a JSON object")
    try:
        n = finite_number(doc["n"], int)
    except (KeyError, TypeError, ValueError):
        raise ValidationError("n: missing or not an integer") from None
    if n < 1:
        raise ValidationError(f"n: must be >= 1, got {n}")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ValidationError("edges: expected a list")
    w = np.zeros((n, n))
    for k, e in enumerate(edges):
        if not isinstance(e, dict):
            raise ValidationError(f"edges[{k}]: expected an object")
        try:
            j = finite_number(e["from"], int)
            i = finite_number(e["to"], int)
            wij = finite_number(e["w"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"edges[{k}]: needs integer 'from', 'to' and a finite 'w'") from None
        if not (1 <= i <= n):
            raise ValidationError(f"edges[{k}].to: agent index {i} out of range 1..{n}")
        if not (1 <= j <= n):
            raise ValidationError(f"edges[{k}].from: agent index {j} out of range 1..{n}")
        if wij < 0:
            raise ValidationError(f"edges[{k}].w: negative weight {wij}")
        if i == j and wij != 0:
            raise ValidationError(f"edges[{k}]: self connection on agent {i}")
        w[i - 1, j - 1] = wij
    return DirectedGraph(w)
