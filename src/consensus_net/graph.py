"""Weighted directed interconnection graphs and their Laplacian matrices.

The convention throughout: ``weights[i, j] > 0`` means agent ``i`` listens to
agent ``j`` (information flows j -> i).  The Laplacian has ``L[i, j] = -w_ij``
off the diagonal and row sums equal to zero, so the all-ones vector is always
a right null vector.  When the transmit-direction graph contains a rooted
spanning tree, the zero eigenvalue is simple, the rest of the spectrum lies in
the open right half plane, and a nonnegative left null vector exists; that
vector (normalized to sum 1) defines the weighted average the network agrees
on.

``build_laplacian`` stores L in one of two storages, picked by
``sparsity.is_sparse`` from n and L's nonzeros: a numpy array, or (200
agents or more, at most 5 % nonzeros) a CSR array built from the weights'
nonzeros without a dense L (``_csr_laplacian``), which every later layer
reads as it is.  ``DirectedGraph`` itself stays a dense n x n array of
weights.  Both storages find the graph facts the same way.  One labelling
of the strongly connected components (``_components``, Kosaraju's two
passes over neighbour lists read from L's stored entries) gives the root
component, and L's spectrum: ordered by its components, L is block
triangular, so its spectrum is the union of its diagonal blocks' spectra.
A one-agent block's eigenvalue is its diagonal entry, and only larger
blocks go to ``eigvals``; the smallest real part of the nonzero
eigenvalues, which ``spectral.solve_P``'s shifted-spectrum gate reads,
comes from them.  The spectral norm is ``eigvalsh`` of L^T L, or Lanczos
on a CSR L^T L: 12 ms against 0.69 s dense on the random 2,000-agent tree
of the large-graph document (seed 3, best of 3, 2-vCPU x86 VM with
OpenBLAS); should ARPACK fail, the dense spectral norm answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sparsity
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


@dataclass(frozen=True)
class LaplacianData:
    """Laplacian of a directed graph plus the spectral facts used downstream.

    ``L`` is a read-only numpy array, or a CSR array in the sparse regime.
    ``v_left`` is None when the graph has no spanning tree (the left null
    space is then not one-dimensional), so ``has_spanning_tree`` reads it.
    ``lambda_L`` bounds the spectral norm of L (tight: it equals it).
    ``min_nonzero_real_part`` is the smallest real part of L's spectrum once
    its (simple) zero eigenvalue is set aside: inf for one agent, None
    without a spanning tree.  The shifted matrix L + alpha 1 v^T of
    ``spectral.solve_P`` has that spectrum plus alpha, so its gate reads this
    number.  ``build_laplacian`` is the one constructor.
    """

    L: np.ndarray
    v_left: np.ndarray | None
    lambda_L: float
    min_nonzero_real_part: float | None

    def __post_init__(self):
        if isinstance(self.L, np.ndarray):
            object.__setattr__(self, "L", _freeze(self.L))
        if self.v_left is not None:
            object.__setattr__(self, "v_left", _freeze(self.v_left))

    @property
    def n_agents(self) -> int:
        return self.L.shape[0]

    @property
    def has_spanning_tree(self) -> bool:
        """Whether some agent reaches every agent along transmit direction."""
        return self.v_left is not None

    @property
    def nonzero_eigenvalue_real_parts_positive(self) -> bool:
        """Whether L's nonzero eigenvalues lie in the open right half plane."""
        return self.min_nonzero_real_part is not None and self.min_nonzero_real_part > 0


def build_laplacian(g: DirectedGraph) -> LaplacianData:
    """Assemble L from the weights and record its relevant spectral facts.

    Row i has diagonal entry sum_k w_ik and off-diagonal entries -w_ij, so
    L @ ones == 0 holds by construction.  The left eigenvector of the zero
    eigenvalue, whose presence is the spanning-tree flag, and the
    spectral-norm bound are computed here once and carried along with the
    matrix.  One labelling of L's strongly connected components
    (``_components``) gives the root component and L's spectrum block by
    block (``_eigenvalues``); that spectrum serves the simple-zero check and
    gives the smallest real part of the nonzero eigenvalues, the second
    smallest of all (the smallest is the zero one's).  ``_spectral_norm``
    gives the spectral norm, and the left null vector comes from the SVD of
    the root component's block alone (``_left_null_vector``), with exact
    zeros everywhere else.
    """
    w = g.weights
    n = w.shape[0]
    degree = w.sum(axis=1)
    # row-major flat indices of the weights' nonzeros: a 2-D np.nonzero
    # took 2.1 ms on the 600-agent tree, this 0.25 ms
    edges = np.flatnonzero(w != 0)
    if sparsity.is_sparse(n, edges.size + int(np.count_nonzero(degree))):
        L = _csr_laplacian(w, degree, edges)
    else:
        L = np.diag(degree) - w
    labels, root = _components(L)
    v = real_min = None
    if root is not None:
        eigs = _eigenvalues(L, labels)
        v = _left_null_vector(L, eigs, root)
        real_min = np.inf if n == 1 else float(np.partition(eigs.real, 1)[1])
    return LaplacianData(L=L, v_left=v, lambda_L=_spectral_norm(L), min_nonzero_real_part=real_min)


def _csr_laplacian(w: np.ndarray, degree: np.ndarray, edges: np.ndarray):
    """``np.diag(degree) - w`` as a CSR array, from the row-major flat
    indices ``edges`` of w's nonzeros and the nonzero entries of ``degree``,
    w's row sums, without building the dense L: scipy's constructor sorts
    the entries into rows.  The indices take scipy's rule for a dense L, 32
    bits where the count of rows and of entries fits."""
    import scipy.sparse

    n = w.shape[0]
    diagonal = np.flatnonzero(degree)
    index = np.int32 if max(n, edges.size + diagonal.size) <= np.iinfo(np.int32).max else np.int64
    rows, cols = (np.concatenate([part, diagonal]).astype(index) for part in np.divmod(edges, n))
    data = np.concatenate([-w.ravel()[edges], degree[diagonal]])
    return scipy.sparse.csr_array((data, (rows, cols)), shape=(n, n))


def _eigenvalues(L, labels: np.ndarray) -> np.ndarray:
    """Eigenvalues of L, dense or CSR, in no particular order, block by block
    over the strongly connected components that ``labels`` numbers.

    An edge runs only from an earlier component to a later one in a
    topological order of the components, so in that order L is block
    triangular, and its spectrum is the union of its diagonal blocks'
    spectra.  A one-agent block is its diagonal entry; the rest are taken
    by ``eigvals`` one block at a time.  A strongly connected graph is one
    block, which is all of L.
    """
    sizes = np.bincount(labels)
    eigs = [L.diagonal()[sizes[labels] == 1]]
    for label in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == label)
        eigs.append(np.linalg.eigvals(sparsity.dense(L[np.ix_(idx, idx)])))
    return np.concatenate(eigs)


def _spectral_norm(L) -> float:
    """Largest singular value of L: the square root of the largest eigenvalue
    of L^T L, on a 600-agent tree a third of the cost of all of L's singular
    values, and within 1e-15 relative of them.  L is first divided by the
    power of two just above its largest magnitude, which is exact and keeps
    L^T L from overflowing or underflowing; the factor is put back after the
    square root.  For a CSR L that eigenvalue comes from Lanczos on the CSR
    L^T L, and from ``eigvalsh`` should ARPACK fail.
    """
    scale = np.ldexp(1.0, np.frexp(abs(L).max())[1])
    if not isinstance(L, np.ndarray):
        Ls = L / scale
        try:
            return float(scale * np.sqrt(sparsity.largest_eigenvalue(Ls.T @ Ls)))
        except RuntimeError:
            L = L.toarray()
    Ls = L / scale
    return float(scale * np.sqrt(np.linalg.eigvalsh(Ls.T @ Ls)[-1]))


def has_spanning_tree(g: DirectedGraph) -> bool:
    """True iff some root agent reaches every agent along transmit direction.

    Transmit direction: j -> i exists when weights[i, j] > 0.
    """
    return _components(g.weights)[1] is not None


def _neighbours(m) -> list:
    """Column indices of the nonzero entries of each row of ``m``, a numpy
    or a ``scipy.sparse`` array: ``nonzero()`` of either, sorted stably by
    row into one list of all the indices, which is sliced row by row."""
    rows, cols = m.nonzero()
    by_row = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[by_row], np.arange(m.shape[0] + 1))
    cols, bounds = cols[by_row].tolist(), bounds.tolist()
    return [cols[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _components(listens) -> tuple[np.ndarray, np.ndarray | None]:
    """Strongly connected component of each agent, and the mask of the root
    component, the agents that reach every agent, or None when none does.

    ``listens[i, j]`` nonzero means the edge j -> i (a nonzero diagonal is a
    self loop, which changes no reachability); ``listens`` is a numpy array,
    or, on a sparse graph, the CSR Laplacian, whose stored entries and its
    transpose's give the neighbours without a scan over all n^2 entries.
    Found by Kosaraju's two passes (Sharir 1981), both iterative.  The first
    searches the edges depth first and lists the agents as their searches
    finish.  The second takes the agents in the reverse of that list and
    gathers, against the edges, the unlabelled agents that reach each one:
    one component each time, numbered in a topological order of the
    components, so an edge j -> i between components has
    ``labels[j] < labels[i]``.  Component 0 is a source.  It is the root
    component when every other component hears from another one; it then
    listens to no agent outside it, so the left null vector of the
    Laplacian is zero off it.
    """
    n = listens.shape[0]
    succ, pred = _neighbours(listens.T), _neighbours(listens)
    finished, seen = [], [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, iter(succ[start]))]
        while stack:
            agent, rest = stack[-1]
            for i in rest:
                if not seen[i]:
                    seen[i] = True
                    stack.append((i, iter(succ[i])))
                    break
            else:
                stack.pop()
                finished.append(agent)
    labels, count, sources = [-1] * n, 0, 0
    for start in reversed(finished):
        if labels[start] >= 0:
            continue
        labels[start], frontier, heard = count, [start], False
        while frontier:
            for i in pred[frontier.pop()]:
                if labels[i] < 0:
                    labels[i] = count
                    frontier.append(i)
                elif labels[i] != count:
                    heard = True
        sources += not heard
        count += 1
    labels = np.array(labels)
    return labels, (labels == 0 if sources == 1 else None)


def left_eigenvector(L: np.ndarray) -> np.ndarray:
    """Nonnegative left null vector of L, normalized so its entries sum to 1.

    Computed from the null space of the root component's block of L^T via SVD
    (rank-revealing, robust for the exactly known zero eigenvalue), and
    exactly zero off that component; agent i listens to agent j where
    L[i, j] != 0.  Raises DegenerateSpectrumError when the zero eigenvalue
    is numerically non-simple or no agent reaches every agent.  Tiny
    negative entries (>= -1e-12) are clamped to zero.
    """
    L = np.asarray(L, dtype=float)
    labels, root = _components(L)
    return _left_null_vector(L, _eigenvalues(L, labels), root)


def _left_null_vector(L, eigs: np.ndarray, root: np.ndarray | None) -> np.ndarray:
    """``left_eigenvector`` from L, dense or CSR, its eigenvalues and the mask
    of its root component, both computed by the caller.

    The agents of the root component listen to no one outside it, so its
    block of L has zero row sums, and the block's left null vector, padded
    with zeros, is L's.  An SVD of the block alone finds it without the
    rounding noise a full SVD leaves on the other agents.
    """
    n = L.shape[0]
    if n == 1:
        return np.array([1.0])
    second = np.sort(np.abs(eigs))[1]
    if second < _SIMPLE_ZERO_TOL:
        raise DegenerateSpectrumError(
            f"zero eigenvalue of L is not simple: second-smallest |eig| = {second:.3e}"
        )
    if root is None:
        raise DegenerateSpectrumError("no agent reaches every agent; the left null "
                                      "space of L is not one-dimensional")
    idx = np.flatnonzero(root)
    v = np.zeros(n)
    v[idx] = np.linalg.svd(sparsity.dense(L[np.ix_(idx, idx)]).T)[2][-1]
    s = v.sum()
    if abs(s) < 1e-12:
        raise DegenerateSpectrumError("left null vector has zero sum; cannot normalize")
    v = v / s
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
    flat = np.flatnonzero(g.weights != 0)
    rows, cols = np.divmod(flat, g.n_agents)
    edges = [{"from": j + 1, "to": i + 1, "w": wij}
             for i, j, wij in zip(rows.tolist(), cols.tolist(), g.weights.ravel()[flat].tolist())]
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
    try:
        w = np.zeros((n, n))
    except (ValueError, MemoryError):
        raise ValidationError(f"n: {n} agents, too many for an n x n weight matrix") from None
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
