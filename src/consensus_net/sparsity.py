"""The sparse regime of set-up: when it applies, and its Lanczos solves.

``graph.build_laplacian``, ``spectral.solve_P`` and the gain certificate in
``gains`` each find a few scalars of an n x n matrix: the largest or the
smallest eigenvalue of a symmetric one.  Dense, each is an O(n^3)
``eigvalsh``.  On a sparse matrix Lanczos (ARPACK through
``scipy.sparse.linalg.eigsh``) finds one end of the spectrum from
matrix-vector products, or from solves with one sparse LU factor
(``symmetric_lu``), ordered by MMD or, for a tree's certificate and gain
forms, by the tree's deepest-first order.
``is_sparse`` is the one rule that picks the regime: at least
``SPARSE_MIN_N`` agents, and at most ``SPARSE_MAX_FILL`` of the entries
nonzero.  Below that the dense regime keeps its arithmetic, so small graphs,
the builtin scenarios among them, never import ``scipy.sparse``.  The
integrator in ``kernels`` caps the fill of its CSR operators at the same
``SPARSE_MAX_FILL``.  The rule also decides storage, once: ``graph`` stores
L, and ``spectral`` P and the certificate's L, as CSR arrays where it
passes; later layers read the storage they are given.

The helpers raise ``RuntimeError`` on ARPACK's errors and on an exactly
singular LU factor, and the callers then take the dense regime.  ARPACK's
default start vector is random, so every solve starts from the fixed vector
(1, 2, ..., n), and each scalar, which ``certification.json`` records, is
the same on every run.

scipy is imported inside the functions, not at module level: importing
``scipy.sparse`` adds tens of milliseconds and about 2 MiB to a process.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: smallest agent count that takes the sparse regime.  On a 2-vCPU x86 VM
#: with OpenBLAS, trees of 100 agents took 6 ms dense against 9 ms sparse for
#: the matched form's smallest eigenvalue, 200 agents about 23 ms on both,
#: and 400 agents 0.13 s dense against 0.02 s sparse
SPARSE_MIN_N = 200

#: largest share of nonzeros that takes the sparse regime.  Measured on the
#: same VM: at 400 agents the matched form with 1.2 % nonzeros took 0.02 s
#: sparse against 0.13 s dense, with 8 % 0.10 s against 0.13 s, and with
#: 31 % (a dense P) 0.33 s against 0.13 s.  For the integrator's CSR
#: operators at N = 1800 rows, one product at 5 % fill took about 155 us
#: against 116 us for one step of the stage body, so even an unfolded step
#: operator at the cap costs about one stage step
SPARSE_MAX_FILL = 0.05


def is_sparse(n: int, nnz: int) -> bool:
    """Whether an n x n matrix (or the n x n blocks of a form) with ``nnz``
    nonzeros takes the sparse regime."""
    return n >= SPARSE_MIN_N and nnz <= SPARSE_MAX_FILL * n * n


def dense(M) -> np.ndarray:
    """``M``, or a ``scipy.sparse`` M as a numpy array, for a dense regime."""
    return M if isinstance(M, np.ndarray) else M.toarray()


def _start_vector(n: int) -> np.ndarray:
    """ARPACK's fixed start vector, (1, 2, ..., n).

    Not the ones vector: L 1 = 0 for a Laplacian, so ones is an eigenvector
    of L^T L, and ARPACK, handed an invariant start, draws a random one."""
    return np.arange(1.0, n + 1.0)


def largest_eigenvalue(A) -> float:
    """Largest eigenvalue of the symmetric ``scipy.sparse`` array ``A``."""
    import scipy.sparse.linalg

    return float(scipy.sparse.linalg.eigsh(
        A, k=1, which="LA", tol=0, v0=_start_vector(A.shape[0]),
        return_eigenvectors=False)[0])


class SymmetricLU(NamedTuple):
    """A sparse LU factor of a symmetric A: ``lu`` factors A itself, or
    A[order][:, order] when an ``order`` of its rows is given, and ``solve``
    solves with A either way."""

    lu: object
    order: np.ndarray | None

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.order is None:
            return self.lu.solve(b)
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x


def symmetric_lu(A, order=None) -> SymmetricLU:
    """Sparse LU factor of the symmetric ``A`` under one symmetric ordering.

    Without ``order``, ``MMD_AT_PLUS_A`` orders the graph of A + A^T.  With
    it, A is permuted symmetrically into that order and factorised in it
    (``NATURAL``): a spanning tree's deepest-first order
    (``LyapunovCertificate.elimination_order``) eliminates a pattern of
    ancestor-descendant pairs without fill, since the later neighbours of
    an agent are its ancestors, which are all linked with each other.
    ``SymmetricMode`` with ``diag_pivot_thresh=0`` keeps the pivots on the
    diagonal where they are nonzero.  scipy's default, COLAMD, is a column
    ordering for unsymmetric matrices: the 600-agent matched form's
    shift-invert solve took 36 ms with it and 14 ms with MMD (best of 5)."""
    import scipy.sparse.linalg

    if order is not None:
        A = A[order][:, order]
    return SymmetricLU(scipy.sparse.linalg.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
        diag_pivot_thresh=0, options={"SymmetricMode": True}), order)


def block_order(order: np.ndarray | None, blocks: int) -> np.ndarray | None:
    """The order of a form of ``blocks`` x ``blocks`` blocks of n x n
    matrices that lists the agents in ``order``, each agent's ``blocks``
    variables together; None without an ``order``."""
    if order is None:
        return None
    return (order[:, None] + order.size * np.arange(blocks)).ravel()


def proves_positive_definite(factor: SymmetricLU) -> bool:
    """Whether the LU factor of a symmetric matrix shows it positive definite.

    With equal row and column permutations the factor is of a symmetric
    permutation of the matrix, taken without pivoting, so U = D L^T with D
    the diagonal of U; by Sylvester's law of inertia the matrix is positive
    definite exactly when every entry of D is positive.  A symmetric
    permutation keeps the inertia, so ``factor.order`` changes nothing."""
    lu = factor.lu
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0).all())


def nearest_eigenvalue(A, sigma: float, factor: SymmetricLU) -> float:
    """Eigenvalue of the symmetric ``A`` nearest ``sigma``, by shift-invert
    Lanczos on ``factor``, the ``symmetric_lu`` factor of A - sigma I."""
    import scipy.sparse.linalg

    n = A.shape[0]
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=factor.solve, dtype=float)
    return float(scipy.sparse.linalg.eigsh(
        A, k=1, sigma=sigma, which="LM", OPinv=op, tol=0, v0=_start_vector(n),
        return_eigenvectors=False)[0])


def smallest_eigenvalue(sparse, dense, order=None) -> float:
    """Smallest eigenvalue of a symmetric form: by shift-invert Lanczos on the
    ``scipy.sparse`` array ``sparse`` when it is given, finite and sparse
    enough, its factor taken in ``order`` when given (``symmetric_lu``), else
    (and when that solve fails) ``eigvalsh`` of ``dense()``.

    Every eigenvalue lies at or above the Gershgorin bound
    min_i (N_ii - sum_{j != i} |N_ij|), so with the shift one below it the
    shifted form is positive definite and the eigenvalue nearest the shift is
    the smallest.
    """
    if sparse is not None and is_sparse(sparse.shape[0], sparse.nnz):
        diag = sparse.diagonal()
        radius = abs(sparse).sum(axis=1)
        if np.isfinite(radius).all():
            import scipy.sparse

            sigma = float((diag + np.abs(diag) - radius).min()) - 1.0
            try:
                factor = symmetric_lu(sparse - sigma * scipy.sparse.eye_array(sparse.shape[0]),
                                      order)
                return nearest_eigenvalue(sparse, sigma, factor)
            except RuntimeError:
                # ARPACK's errors, ArpackNoConvergence among them, and an
                # exactly singular factor of the shifted form
                pass
    return float(np.linalg.eigvalsh(dense())[0])
