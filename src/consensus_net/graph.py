"""Weighted directed interconnection graphs and their Laplacian matrices.

The convention throughout: ``weights[i, j] > 0`` means agent ``i`` listens to
agent ``j`` (information flows j -> i).  The Laplacian has ``L[i, j] = -w_ij``
off the diagonal and row sums equal to zero, so the all-ones vector is always
a right null vector.  When the transmit-direction graph contains a rooted
spanning tree, the zero eigenvalue is simple, the rest of the spectrum lies in
the open right half plane, and a nonnegative left null vector exists; that
vector (normalized to sum 1) defines the weighted average the network agrees
on.

``build_laplacian`` stores L and finds the spectral facts in one of two
regimes, picked by ``sparsity.is_sparse`` from n and L's nonzeros:

* dense, L a numpy array: ``eigvals`` of all of L for the simple-zero and
  right-half-plane checks, and ``eigvalsh`` of L^T L for the spectral norm;
* sparse (200 agents or more, at most 5 % nonzeros), L a CSR array, built
  from the weights' nonzeros without a dense L (``_csr_laplacian``), which
  every later layer reads as it is: ordered by its strongly connected
  components, L is block triangular, so its spectrum is the union of its
  diagonal blocks' spectra.  ``scipy.sparse.csgraph`` finds the
  components; a one-agent block's eigenvalue is its diagonal entry, and only
  larger blocks go to ``eigvals``.  The spectral norm comes from Lanczos on
  the CSR L^T L.  On the random 2,000-agent tree of the large-graph
  document (seed 3, best of 3, 2-vCPU x86 VM with OpenBLAS) the spectral
  norm took 12 ms against 0.69 s dense, and the spectrum 0.2 ms against
  0.12 s, with the same eigenvalues.  Should ARPACK fail, the dense spectral
  norm answers.  The root component is found from the index arrays of the
  CSR L and its transpose (``_root_component``), sliced into neighbour
  lists as Python lists.  ``DirectedGraph`` itself stays a dense n x n
  array of weights.
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

#: largest agent count whose spectral norm comes from all singular values.
#: They take microseconds there, and the two routes differ in the last bit,
#: which the builtin scenarios' certification.json records
_SVD_MAX_N = 12


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
    space is then not one-dimensional).  ``lambda_L`` bounds the spectral
    norm of L (tight: it equals it).
    """

    L: np.ndarray
    has_spanning_tree: bool
    v_left: np.ndarray | None
    lambda_L: float
    nonzero_eigenvalue_real_parts_positive: bool

    def __post_init__(self):
        if isinstance(self.L, np.ndarray):
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
    computed here once and carried along with the matrix: one spectrum of L
    (``_eigenvalues``) serves the simple-zero and right-half-plane checks,
    ``_spectral_norm`` gives the spectral norm, and the left null vector
    comes from the SVD of the root component's block alone
    (``_left_null_vector``), with exact zeros everywhere else.
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
    root = _root_component(L)
    if root is not None:
        eigs = _eigenvalues(L)
        v = _left_null_vector(L, eigs, root)
        # all eigenvalues except the (simple) zero one must sit strictly in
        # the right half plane
        rhp = n == 1 or bool(np.sort(eigs.real)[1] > 0)
    else:
        v = None
        rhp = False
    return LaplacianData(
        L=L,
        has_spanning_tree=root is not None,
        v_left=v,
        lambda_L=_spectral_norm(L),
        nonzero_eigenvalue_real_parts_positive=rhp,
    )


def _csr_laplacian(w: np.ndarray, degree: np.ndarray, edges: np.ndarray):
    """``np.diag(degree) - w`` as a CSR array, from the row-major flat
    indices ``edges`` of w's nonzeros and the nonzero entries of ``degree``,
    w's row sums: the entries, their order and their bits of
    ``scipy.sparse.csr_array`` of the dense L, without building it.  The
    diagonal (w's is zero) goes where it sorts within its row."""
    import scipy.sparse

    n = w.shape[0]
    diagonal = np.flatnonzero(degree)
    keys = np.concatenate([edges, diagonal * (n + 1)])
    entries = np.argsort(keys, kind="stable")
    data = np.concatenate([-w.ravel()[edges], degree[diagonal]])[entries]
    # scipy's index type: 32 bits where the count of rows and of entries fits
    index = np.int32 if max(n, keys.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    return scipy.sparse.csr_array((data, (keys[entries] % n).astype(index), indptr.astype(index)),
                                  shape=(n, n))


def _eigenvalues(L) -> np.ndarray:
    """Eigenvalues of L, in no particular order: from ``eigvals`` of all of a
    dense L, or block by block over the strongly connected components of a
    CSR L.

    An edge runs only from an earlier component to a later one in a
    topological order of the components, so in that order L is block
    triangular, and its spectrum is the union of its diagonal blocks'
    spectra.  A one-agent block is its diagonal entry; the rest are taken
    by ``eigvals`` one block at a time.  A strongly connected graph is one
    block, which is all of L.
    """
    if isinstance(L, np.ndarray):
        return np.linalg.eigvals(L)
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(L, directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=count)
    single = sizes[labels] == 1
    eigs = [L.diagonal()[single]]
    for label in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == label)
        eigs.append(np.linalg.eigvals(L[np.ix_(idx, idx)].toarray()))
    return np.concatenate(eigs)


def _spectral_norm(L) -> float:
    """Largest singular value of L.

    Above ``_SVD_MAX_N`` agents it is the square root of the largest
    eigenvalue of L^T L: on a 600-agent tree a third of the cost of all of
    L's singular values, and within 1e-15 relative of them.  L is first
    divided by the power of two just above its largest magnitude, which is
    exact and keeps L^T L from overflowing or underflowing; the factor is put
    back after the square root.  For a CSR L that eigenvalue comes from
    Lanczos on the CSR L^T L, and from ``eigvalsh`` should ARPACK fail.
    """
    if L.shape[0] <= _SVD_MAX_N:
        return float(np.linalg.svd(L.T, compute_uv=False)[0])
    scale = np.ldexp(1.0, np.frexp(abs(L).max())[1])
    if not isinstance(L, np.ndarray):
        Ls = L / scale
        try:
            return float(scale * np.sqrt(sparsity.largest_eigenvalue(Ls.T @ Ls)))
        except RuntimeError:
            L = L.toarray()
    Ls = L / scale
    return float(scale * np.sqrt(np.linalg.eigvalsh(Ls.T @ Ls)[-1]))


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

    Transmit direction: j -> i exists when weights[i, j] > 0.
    """
    return _root_component(g.weights > 0) is not None


def _neighbours(m) -> list:
    """Column indices of the nonzero entries of each row of ``m``: a numpy
    array, or a ``scipy.sparse`` array, whose CSR form lists them.  One list
    of all the indices is sliced row by row."""
    if isinstance(m, np.ndarray):
        rows, cols = np.divmod(np.flatnonzero(m != 0), m.shape[1])
        bounds = np.searchsorted(rows, np.arange(m.shape[0] + 1))
    else:
        m = m.tocsr()
        cols, bounds = m.indices, m.indptr
    cols, bounds = cols.tolist(), bounds.tolist()
    return [cols[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _root_component(listens) -> np.ndarray | None:
    """Mask of the agents that reach every agent, or None when none does.

    ``listens[i, j]`` nonzero means the edge j -> i (a nonzero diagonal is a
    self loop, which changes no reachability); ``listens`` is a numpy array,
    or, on a sparse graph, the CSR Laplacian, whose index arrays and its
    transpose's give the neighbours without a scan over all n^2 entries.
    Found with three reachability passes (the mother-vertex argument).  The
    first sweeps all agents, starting a new search from each agent not yet
    reached; if any agent reaches everyone, so does the last start of that
    sweep, because an earlier search that reached such an agent would have
    reached every later start too.  The second pass searches from that last start alone.  The third,
    against the edges, finds the agents that reach it: exactly those that
    reach everyone.  They form the root component, a strongly connected set
    that listens to no agent outside it, so the left null vector of the
    Laplacian is zero off it.
    """
    n = listens.shape[0]
    succ, pred = _neighbours(listens.T), _neighbours(listens)
    seen = np.zeros(n, dtype=bool)
    last = 0
    for root in range(n):
        if not seen[root]:
            last = root
            _reach(succ, root, seen)
    seen[:] = False
    _reach(succ, last, seen)
    if not seen.all():
        return None
    seen[:] = False
    _reach(pred, last, seen)
    return seen


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
    return _left_null_vector(L, np.linalg.eigvals(L), _root_component(L))


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
