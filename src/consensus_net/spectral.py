"""Lyapunov matrix certificates for directed-graph Laplacians.

For a Laplacian L with a simple zero eigenvalue and left eigenvector v, and
any symmetric Q > 0 and scalar alpha > 0, there is a unique symmetric P > 0
with

    P L + L^T P = Q - alpha * (P 1 v^T + v 1^T P).

Moving the rank-one terms to the left shows this is the ordinary continuous
Lyapunov equation for the shifted matrix Lbar = L + alpha * 1 v^T, whose
spectrum is the nonzero spectrum of L plus the eigenvalue alpha, i.e. it lies
entirely in the open right half plane.  The dense equation is solved in one
of three regimes, picked from the agent count n, the graph's structure and Q:

* n <= ``_KRON_MAX_N`` (12): the vectorised system
  (Lbar^T (x) I + I (x) Lbar^T) vec P = vec Q, n^2 x n^2, by ``np.linalg.solve``.
  This keeps scipy out of the process for the small graphs of the builtin
  scenarios: importing ``scipy.linalg`` costs more than the whole solve.
* a spanning tree (``_spanning_tree``, from a CSR L: every agent but the root
  listens to exactly one agent, and v is exactly the root's unit vector) with
  a diagonal Q, whose P passes ``sparsity.is_sparse``: P is nonzero only on
  the tree's ancestor-descendant pairs, n + 2 sum_j depth(j) entries, which
  the rule counts with L's 2 (n - 1) and which a CSR P stores.  Written entry
  by entry, the equation gives each pair from pairs one step further from the
  root (``_tree_lyapunov``): P_aj from P_ak, k a child of j, and from P_cj, c
  the child of a on the path to j; the root's pairs also from P's row sums.
  The non-root pairs are solved in descending wavefronts of 2 depth(j) - g, g
  the distance from j up to a, each a few vectorised steps that read only the
  wavefront before; then the root's pairs, deepest first; and the root's
  diagonal last.  On the 600-agent tree of the large-graph document (seed
  18301, best of 5, 2-vCPU x86 VM with OpenBLAS) the tree check and solve
  took 3 ms against 83 ms for the Schur route below, and at 2,000 agents
  26 ms against 0.77 s.  A long path fails the fill rule: its P is dense,
  and the wavefronts, two per agent, lose to the blocked solve.
* any other graph: Bartels-Stewart on a real Schur form of -Lbar^T.  The
  Kronecker system grows as n^4 in memory and n^6 in time, so it cannot
  serve here.  Both run on a dense L, built from a CSR one where needed.
  The form comes from the graph's structure (``_shifted_schur``): v is
  exactly zero off the root component, so LAPACK's permutation balancing
  ``dgebal`` orders -Lbar^T block triangular, and ``scipy.linalg.schur``
  factorises only the core that balancing leaves:
  the agents on cycles (the root component among them) and those ordered
  between them.  An acyclic graph's core is one row and needs no
  factorisation; a strongly connected graph's is the whole matrix.
  The triangular equation left by the factorisation is
  - up to ``_TRSYL_BLOCK`` (64) rows, one call of LAPACK's unblocked ``dtrsyl``;
  - above it, split recursively at the middle of the Schur factor, never
    inside a 2x2 block, into Lyapunov and Sylvester equations on blocks of at
    most ``_TRSYL_BLOCK`` rows, each one ``dtrsyl`` call, joined by matrix
    products (``_lyapunov_blocked``).
  Should any ``dtrsyl`` call of the split solve rescale its solution or
  report an ``info`` code, the whole equation is solved by one call instead.

An eigendecomposition of Lbar would be cheaper than any of these but is not
safe: L can be defective (the builtin graph's L has a size-3 Jordan block).
Before it picks a route, ``solve_P`` gates the shifted spectrum once: its
smallest real part is min(alpha, ``lap.min_nonzero_real_part``), which
``graph.build_laplacian`` read from the spectrum of L it computed for the
simple-zero check.  All paths then apply the same gates (residual of the
original form, positive definiteness of P) with the same messages.

The gates and the scalars of the certificate are found in one of two
regimes, read from the storage of P, which the certificate keeps with L:

* dense: the residual from dense products, and every eigenvalue of P from
  ``eigvalsh``;
* sparse, P and L CSR arrays (from the tree route, or where the other routes'
  P and L pass ``sparsity.is_sparse``, as for an acyclic graph with a
  two-parent agent): the residual from CSR products, ``lambda_P`` by Lanczos,
  and ``min_eig_P`` by shift-invert Lanczos at 0 on one sparse LU factor of P
  under a symmetric ordering (``sparsity.symmetric_lu``): the tree's agents
  deepest first on the tree route, which the certificate carries on for the
  gain forms (``elimination_order``), and MMD otherwise.  That factor is
  trusted only when it proves P positive definite
  (``sparsity.proves_positive_definite``); otherwise, and should ARPACK fail,
  ``eigvalsh`` answers, so the positive-definiteness gate and its message are
  the dense regime's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sparsity
from .errors import DegenerateSpectrumError, ValidationError
from .graph import LaplacianData

#: acceptable residual, relative to max(1, ||Q||_2)
_RESIDUAL_TOL = 1e-8
#: largest agent count solved by the Kronecker system.  On a 2-vCPU x86 VM
#: with OpenBLAS its eigvals and solve took 0.09 ms at n = 5 and 0.48 ms at
#: n = 12, against 0.04-0.06 ms for Schur and dtrsyl, and 5.7 ms at n = 20:
#: far below the 0.2 s scipy import it saves, but growing as n^6
_KRON_MAX_N = 12
#: largest Schur factor solved by one LAPACK ``dtrsyl`` call; larger ones are
#: split recursively into blocks of at most this many rows
_TRSYL_BLOCK = 64


@dataclass(frozen=True)
class LyapunovCertificate:
    """Solution P of the graph Lyapunov equation plus its audit trail.

    lambda_P and lambda_L are the spectral norms of P and L (tight upper
    bounds used by the gain inequalities); ``residual`` is the max-norm of
    the original equation's defect; ``cond_P`` records the conditioning of P
    for diagnostics.  L itself is kept so gain certification needs nothing
    but the certificate.  P and L are both dense or both CSR, as given.
    ``elimination_order`` lists the agents deepest first when the tree route
    solved P, an order in which the sparse factors of P and of the gain
    forms take no fill outside the tree's pattern (``sparsity.symmetric_lu``);
    None otherwise.
    """

    P: np.ndarray
    L: np.ndarray
    alpha: float
    residual: float
    lambda_P: float
    lambda_L: float
    min_eig_P: float
    cond_P: float
    elimination_order: np.ndarray | None = None

    @property
    def n_agents(self) -> int:
        return self.P.shape[0]

    def scalars_json(self) -> dict:
        """The certificate's scalars, for a writer that spells ``P`` itself."""
        return {
            "n": self.n_agents,
            "alpha": self.alpha,
            "residual": self.residual,
            "lambda_P": self.lambda_P,
            "lambda_L": self.lambda_L,
            "min_eig_P": self.min_eig_P,
            "cond_P": self.cond_P,
        }


def require_spanning_tree(lap: LaplacianData) -> None:
    """Raise ValidationError unless the graph has a directed spanning tree,
    which every certificate needs (``solve_P``'s first check)."""
    if not lap.has_spanning_tree:
        raise ValidationError("solve_P: graph has no directed spanning tree")


def solve_P(lap: LaplacianData, Q: np.ndarray | None = None, alpha: float = 1.0) -> LyapunovCertificate:
    """Solve the graph Lyapunov equation and certify the solution.

    Q is an n x n matrix, or a length-n vector that stands for the diagonal
    Q with those entries (no n x n array is built unless a dense route
    runs); it defaults to the identity.  Fails when the graph has no
    spanning tree, when alpha is not finite and positive, when Q is not
    finite, symmetric and positive definite, or when the shifted matrix is
    numerically degenerate (an eigenvalue with real part below 1e-9, meaning
    alpha is too small relative to rounding).
    """
    require_spanning_tree(lap)
    if not 0 < alpha < np.inf:
        raise ValidationError(f"alpha: must be finite and > 0, got {alpha}")
    L = lap.L
    n = lap.n_agents
    Q = np.ones(n) if Q is None else np.asarray(Q, dtype=float)
    if Q.shape not in ((n,), (n, n)):
        raise ValidationError(f"Q: expected shape {(n,)} or {(n, n)}, got {Q.shape}")
    if not np.isfinite(Q).all():
        raise ValidationError("Q: must be finite")
    q = Q if Q.ndim == 1 else np.diag(Q)
    # a diagonal Q, such as the default, is symmetric, its eigenvalues on it
    q_diagonal = Q.ndim == 1 or np.count_nonzero(Q) == np.count_nonzero(q)
    if not q_diagonal and np.abs(Q - Q.T).max() > 1e-12 * max(1.0, np.abs(Q).max()):
        raise ValidationError("Q: must be symmetric")
    q_eigs = np.sort(q) if q_diagonal else np.linalg.eigvalsh((Q + Q.T) / 2)
    if q_eigs[0] <= 0:
        raise ValidationError(f"Q: must be positive definite, min eig = {q_eigs[0]:.3e}")
    # Lbar's spectrum is L's nonzero spectrum plus alpha
    shift_min = min(alpha, lap.min_nonzero_real_part)
    if shift_min < 1e-9:
        raise DegenerateSpectrumError(
            "shifted Laplacian has an eigenvalue with real part "
            f"{shift_min:.3e}; alpha too small or upstream invariant violated")

    v = lap.v_left
    ones = np.ones(n)
    # a CSR L is one that passed the sparse rule, which the tree's P needs too
    tree = None if isinstance(L, np.ndarray) or not q_diagonal else _spanning_tree(L, v)
    order = None
    if tree is not None and sparsity.is_sparse(n, n + 2 * int(tree.depth.sum()) + L.nnz):
        P = _tree_lyapunov(tree, alpha, q)
        order = tree.deepest_first()
    else:
        L = sparsity.dense(L)
        Q = np.diag(q) if Q.ndim == 1 else Q
        if n <= _KRON_MAX_N:
            P = _kron_lyapunov(L + alpha * np.outer(ones, v), Q)
        else:
            P = _lyapunov_from_schur(*_shifted_schur(L, v, alpha), -Q)
        P = (P + P.T) / 2.0
        if sparsity.is_sparse(n, int(np.count_nonzero(P) + np.count_nonzero(L))):
            import scipy.sparse

            # then L passes the rule on its own, and lap.L is CSR
            P, L = scipy.sparse.csr_array(P), lap.L

    if isinstance(P, np.ndarray):
        defect = P @ L + L.T @ P - Q + alpha * (np.outer(P @ ones, v) + np.outer(v, P @ ones))
    else:
        import scipy.sparse

        p1 = P @ ones
        # alpha (P 1 v^T + v 1^T P), nonzero only in v's columns and rows
        rank_one = alpha * scipy.sparse.csr_array(p1[:, None]) @ scipy.sparse.csr_array(v[None, :])
        Q_sparse = scipy.sparse.diags_array(q) if q_diagonal else scipy.sparse.csr_array(Q)
        defect = P @ L + L.T @ P - Q_sparse + rank_one + rank_one.T
    residual = float(abs(defect).max())
    q_norm = float(q_eigs[-1])  # Q is symmetric positive definite
    if residual >= _RESIDUAL_TOL * max(1.0, q_norm):
        raise DegenerateSpectrumError(
            f"Lyapunov solve residual {residual:.3e} exceeds tolerance "
            f"{_RESIDUAL_TOL * max(1.0, q_norm):.3e}"
        )
    p_min, p_max = _extreme_eigenvalues(P, order)
    if p_min <= 0:
        raise DegenerateSpectrumError(f"solution P is not positive definite, min eig = {p_min:.3e}")

    return LyapunovCertificate(
        P=P,
        L=L,
        alpha=float(alpha),
        residual=residual,
        lambda_P=p_max,
        lambda_L=lap.lambda_L,
        min_eig_P=p_min,
        cond_P=p_max / p_min,
        elimination_order=order,
    )


def _extreme_eigenvalues(P, order=None) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric P: by Lanczos on a
    CSR P whose symmetric LU factor, taken in ``order`` when given, proves it
    positive definite, else (and should ARPACK fail) from ``eigvalsh``.

    The smallest comes from shift-invert at 0 on that factor: about 13 ms on
    the 600-agent tree of the large-graph benchmark under MMD.  A shift at the
    Gershgorin bound, as the gain forms take, needs a second factor and took
    1.2 s there, and LOBPCG did not converge in 200 iterations.
    """
    if not isinstance(P, np.ndarray):
        try:
            factor = sparsity.symmetric_lu(P, order)
            if sparsity.proves_positive_definite(factor):
                return sparsity.nearest_eigenvalue(P, 0.0, factor), sparsity.largest_eigenvalue(P)
        except RuntimeError:
            # ARPACK's errors and an exactly singular factor
            pass
    p_eigs = np.linalg.eigvalsh(sparsity.dense(P))
    return float(p_eigs[0]), float(p_eigs[-1])


def _kron_lyapunov(L_shift: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve P Lbar + Lbar^T P = Q as one dense system in vec(P).

    With row-major vec, (A (x) B) vec X = vec(A X B^T), so the system matrix
    is Lbar^T (x) I + I (x) Lbar^T.  Its eigenvalues are the pairwise sums of
    Lbar's, so it is singular only where the shifted-spectrum gate already
    failed; an exact pivot breakdown is reported like that gate.
    """
    n = L_shift.shape[0]
    eye = np.eye(n)
    K = np.kron(L_shift.T, eye) + np.kron(eye, L_shift.T)
    try:
        p = np.linalg.solve(K, Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise DegenerateSpectrumError(
            f"Lyapunov solve: Kronecker system is singular ({exc})") from None
    return p.reshape(n, n)


class _Tree(NamedTuple):
    """A spanning tree: its root, each agent's parent (the root its own) and
    in-edge weight (0 at the root), and each agent's depth."""

    root: int
    parent: np.ndarray
    w: np.ndarray
    depth: np.ndarray

    def deepest_first(self) -> np.ndarray:
        """The agents deepest first, those of one depth in index order."""
        return np.argsort(-self.depth, kind="stable")


def _spanning_tree(L, v: np.ndarray) -> _Tree | None:
    """The spanning tree whose CSR Laplacian is L, or None when L is not one.

    L is a tree's Laplacian, rooted where v is one, when v is exactly a unit
    vector and, as L's index arrays show, every row but the root's stores
    one off-diagonal entry, -w_i at its parent, and the root's none.  A
    Laplacian's row sums are zero, so such a row's diagonal is w_i.  Depths
    come from pointer doubling, which also tells a cycle among the parents
    from a tree.
    """
    support = np.flatnonzero(v)
    if support.size != 1 or v[support[0]] != 1.0:
        return None
    root = int(support[0])
    n = L.shape[0]
    w = L.diagonal()
    rows = np.repeat(np.arange(n), np.diff(L.indptr))
    off = L.indices != rows
    rest = np.arange(n) != root
    if not np.array_equal(rows[off], np.flatnonzero(rest)):
        return None
    parent = np.full(n, root)
    parent[rest] = L.indices[off]
    depth = rest.astype(np.intp)
    anc = parent
    for _ in range(n.bit_length() + 1):
        if (anc == root).all():
            return _Tree(root, parent, w, depth)
        depth, anc = depth + depth[anc], anc[anc]
    return None


def _tree_lyapunov(tree: _Tree, alpha: float, q: np.ndarray):
    """Solve P L + L^T P = diag(q) - alpha (P 1 e_r^T + e_r 1^T P) on a
    spanning tree rooted at r, over its ancestor-descendant pairs: a CSR P.

    P_aj is nonzero only where a is j or one of its ancestors.  With w_j the
    weight of j's in-edge, ch(j) its children and c the child of a on the
    path to j, the equation reads entry by entry
    - 2 w_j P_jj = q_j + 2 sum_{k in ch(j)} w_k P_jk;
    - (w_a + w_j) P_aj = sum_{k in ch(j)} w_k P_ak + w_c P_cj for a
      non-root ancestor a of j;
    - the same with w_a := alpha and an extra -alpha R_j, where
      R_j = sum_{l != r} P_jl, for a = r;
    - 2 alpha P_rr = q_r + 2 sum_{k in ch(r)} w_k P_rk - 2 alpha R_r.
    Indexing the pair of j and its g-th ancestor by 2 depth(j) - g, each
    non-root pair reads only pairs one index higher, so the non-root pairs
    are solved in descending wavefronts of that index, one vectorised step
    each; then the root's pairs, deepest first, which need the non-root
    pairs' R_j; and the root's diagonal last.
    """
    import scipy.sparse

    root, parent, w, depth = tree
    n = parent.size
    # the agents deepest first, so that those of one depth are contiguous
    order = tree.deepest_first()
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    # the pairs of level g join the agents order[:m[g]], those deeper than
    # g, to their g-th ancestors; pair (j, g) is number start[g] + pos[j]
    counts = np.bincount(depth)
    m = n - np.cumsum(counts)[:-1]
    start = np.r_[0, np.cumsum(m)]
    j = np.concatenate([order[:k] for k in m])
    g = np.repeat(np.arange(m.size), m)
    a = np.empty_like(j)
    a[:m[0]] = order[:m[0]]
    for level in range(1, m.size):
        a[start[level]:start[level + 1]] = parent[a[start[level - 1]:start[level - 1] + m[level]]]
    # renumber the pairs in descending wavefronts of 2 depth(j) - g
    key = 2 * depth[j] - g
    wave = np.argsort(-key, kind="stable")
    new = np.empty_like(wave)
    new[wave] = np.arange(wave.size)
    j, g, a, key = j[wave], g[wave], a[wave], key[wave]
    diagonal = g == 0
    off = np.flatnonzero(g)
    # P_cj is pair (j, g - 1), and a diagonal pair reads itself, times 0
    below = np.arange(wave.size)
    below[off] = new[start[g[off] - 1] + pos[j[off]]]
    c_weight = np.where(diagonal, 0.0, w[a[below]])
    # pair (j, g) adds w_j P_aj to pair (parent(j), g - 1), and a diagonal
    # pair to a sink past the end
    target = np.full(wave.size, wave.size)
    target[off] = new[start[g[off] - 1] + pos[parent[j[off]]]]
    child_weight = np.where(diagonal, 0.0, w[j])
    base = np.where(diagonal, q[j] / 2.0, 0.0)
    denominator = np.where(diagonal, w[j], w[a] + w[j])
    P = np.zeros(wave.size)
    S = np.zeros(wave.size + 1)
    bounds = np.r_[0, np.flatnonzero(np.diff(key)) + 1, wave.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        front = slice(lo, hi)
        P[front] = (base[front] + S[front] + c_weight[front] * P[below[front]]) / denominator[front]
        np.add.at(S, target[front], child_weight[front] * P[front])
    R = np.bincount(j, P, minlength=n) + np.bincount(a, np.where(diagonal, 0.0, P), minlength=n)
    # the root's pairs, one depth at a time: P_cj is pair (j, depth(j) - 1)
    top = new[start[depth[order[:m[0]]] - 1] + np.arange(m[0])]
    P_root, S_root = np.zeros(n), np.zeros(n)
    ends = np.r_[0, np.cumsum(counts[:0:-1])]
    for lo, hi in zip(ends[:-1], ends[1:]):
        J = order[lo:hi]
        P_root[J] = ((S_root[J] + w[a[top[lo:hi]]] * P[top[lo:hi]] - alpha * R[J])
                     / (w[J] + alpha))
        np.add.at(S_root, parent[J], w[J] * P_root[J])
    P_rr = (q[root] + 2.0 * S_root[root] - 2.0 * alpha * P_root.sum()) / (2.0 * alpha)
    rest = np.flatnonzero(depth)
    at_root = np.full(rest.size, root)
    rows = np.concatenate([a, j[off], at_root, rest, [root]])
    cols = np.concatenate([j, a[off], rest, at_root, [root]])
    data = np.concatenate([P, P[off], P_root[rest], P_root[rest], [P_rr]])
    return scipy.sparse.csr_array((data, (rows, cols)), shape=(n, n))


def _shifted_schur(L: np.ndarray, v: np.ndarray, alpha: float):
    """Real Schur form of -Lbar^T, with Lbar = L + alpha 1 v^T, as
    ``(r, perm, core, u_c)``: -Lbar^T = u r u^T with u = p diag(I, u_c, I)
    and p[perm[j], j] = 1.

    P Lbar + Lbar^T P = Q is the Lyapunov equation (-Lbar^T) P + P (-Lbar) = -Q,
    whose Bartels-Stewart solution starts from this factorisation.

    v is exactly zero off the graph's root component, so -Lbar^T keeps the
    structure of L^T there: block triangular in a topological order of the
    strongly connected components.  LAPACK's permutation balancing
    (``dgebal``, Parlett and Reinsch 1969) finds such an order, leaving
    a = p^T (-Lbar^T) p = [[t1, x, y], [0, c, z], [0, 0, t2]] with t1, t2
    upper triangular and the core c, which no permutation reduces further, in
    rows ``core``.  Only c is factorised, c = u_c r_c u_c^T, and then
    r = [[t1, x u_c, y], [0, r_c, u_c^T z], [0, 0, t2]].  An acyclic graph's
    core is one row, which needs no factorisation (u_c = [[1]]); a strongly
    connected graph's is the whole matrix.

    ``scipy.linalg`` is imported here and in ``_lyapunov_from_schur``, not at
    module level: the import costs about 0.2 s and 25 MiB per process, and
    only graphs above ``_KRON_MAX_N`` agents take this path.
    """
    import scipy.linalg

    n = L.shape[0]
    r, lo, hi, pivscale, info = scipy.linalg.lapack.dgebal(
        -(L + alpha * np.outer(np.ones(n), v)).T, scale=0, permute=1)
    if info < 0:
        raise ValueError(f"?GEBAL: illegal value in argument number {-info}")
    # LAPACK swapped row and column pivscale[j] with j, first for j = n-1
    # down to hi + 1, then for j = 0 up to lo - 1 (the decoding of
    # scipy.linalg.matrix_balance)
    swaps = pivscale.astype(int) - 1
    perm = np.arange(n)
    for j in [*range(n - 1, hi, -1), *range(lo)]:
        perm[[j, swaps[j]]] = perm[[swaps[j], j]]
    core = slice(lo, hi + 1)
    if hi == lo:
        return r, perm, core, np.ones((1, 1))
    r_c, u_c = scipy.linalg.schur(r[core, core], output="real")
    r[core, core] = r_c
    r[:lo, core] = r[:lo, core] @ u_c
    r[core, hi + 1:] = u_c.T @ r[core, hi + 1:]
    return r, perm, core, u_c


def _lyapunov_from_schur(r: np.ndarray, perm, core, u_c, q: np.ndarray) -> np.ndarray:
    """Solve a X + X a^T = q given ``_shifted_schur``'s form a = u r u^T,
    applying u, never formed, as a gather by ``perm`` and products of the
    ``core`` rows and columns with u_c.

    The triangular equation is solved by ``_lyapunov_blocked``, which up to
    ``_TRSYL_BLOCK`` rows is one LAPACK ``dtrsyl`` call.  Should any of its
    calls rescale or report an ``info`` code, the whole equation is solved by
    one call, with the same steps as ``scipy.linalg.solve_continuous_lyapunov``
    after its own factorisation, including its handling of ``info``.
    """
    import scipy.linalg

    f = q[np.ix_(perm, perm)]
    f[core] = u_c.T @ f[core]
    f[:, core] = f[:, core] @ u_c
    try:
        y = _lyapunov_blocked(r, f)
    except _Rescaled:
        y, scale, info = scipy.linalg.lapack.dtrsyl(r, r, f, tranb="T")
        if info < 0:
            raise ValueError('?TRSYL exited with the internal error '
                             f'"illegal value in argument number {-info}.". See '
                             'LAPACK documentation for the ?TRSYL error codes.')
        if info == 1:
            warnings.warn("the shifted Laplacian has an eigenvalue pair whose sum is very "
                          "close to or exactly zero; the solution is obtained by perturbing "
                          "the coefficients", RuntimeWarning, stacklevel=3)
        y *= scale
    y[:, core] = y[:, core] @ u_c.T
    y[core] = u_c @ y[core]
    y[np.ix_(perm, perm)] = y.copy()  # X = p y p^T
    return y


class _Rescaled(Exception):
    """A ``dtrsyl`` call of the blocked solve scaled its solution or reported
    a nonzero ``info``."""


def _trsyl(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve a X + X b^T = c, a and b quasi-triangular, by one ``dtrsyl`` call."""
    import scipy.linalg

    x, scale, info = scipy.linalg.lapack.dtrsyl(a, b, c, tranb="T")
    if scale != 1.0 or info != 0:
        raise _Rescaled
    return x


def _split(t: np.ndarray) -> int:
    """Row at which to halve the quasi-triangular ``t``: its middle, or one
    row below where the middle would cut a 2x2 block in two."""
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0.0 else k


def _lyapunov_blocked(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve r Y + Y r^T = f, r quasi-triangular and f symmetric.

    The recursive blocked scheme of Jonsson and Kagstrom (ACM TOMS 28(4),
    2002): with r = [[r11, r12], [0, r22]] split by ``_split``, Y22 solves the
    equation of r22, Y12 the Sylvester equation r11 Y12 + Y12 r22^T =
    f12 - r12 Y22, Y21 = Y12^T, and Y11 the equation of r11 with f11 less
    r12 Y12^T and its transpose.  The work moves from LAPACK's unblocked
    ``dtrsyl`` into matrix products; blocks of at most ``_TRSYL_BLOCK`` rows
    are one ``dtrsyl`` call each.
    """
    if r.shape[0] <= _TRSYL_BLOCK:
        return _trsyl(r, r, f)
    k = _split(r)
    r11, r12, r22 = r[:k, :k], r[:k, k:], r[k:, k:]
    y22 = _lyapunov_blocked(r22, f[k:, k:])
    y12 = _sylvester_blocked(r11, r22, f[:k, k:] - r12 @ y22)
    m = r12 @ y12.T
    y11 = _lyapunov_blocked(r11, f[:k, :k] - m - m.T)
    return np.block([[y11, y12], [y12.T, y22]])


def _sylvester_blocked(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve a X + X b^T = c, a and b quasi-triangular, halving the larger of
    a and b until both have at most ``_TRSYL_BLOCK`` rows."""
    m, n = c.shape
    if max(m, n) <= _TRSYL_BLOCK:
        return _trsyl(a, b, c)
    if m >= n:
        k = _split(a)
        x2 = _sylvester_blocked(a[k:, k:], b, c[k:])
        x1 = _sylvester_blocked(a[:k, :k], b, c[:k] - a[:k, k:] @ x2)
        return np.vstack([x1, x2])
    k = _split(b)
    x2 = _sylvester_blocked(a, b[k:, k:], c[:, k:])
    x1 = _sylvester_blocked(a, b[:k, :k], c[:, :k] - x2 @ b[:k, k:].T)
    return np.hstack([x1, x2])
