"""Lyapunov matrix certificates for directed-graph Laplacians.

For a Laplacian L with a simple zero eigenvalue and left eigenvector v, and
any symmetric Q > 0 and scalar alpha > 0, there is a unique symmetric P > 0
with

    P L + L^T P = Q - alpha * (P 1 v^T + v 1^T P).

Moving the rank-one terms to the left shows this is the ordinary continuous
Lyapunov equation for the shifted matrix Lbar = L + alpha * 1 v^T, whose
spectrum is the nonzero spectrum of L plus the eigenvalue alpha, i.e. it lies
entirely in the open right half plane.  The dense equation is solved in one
of three regimes, picked from the agent count n alone:

* n <= ``_KRON_MAX_N`` (12): the vectorised system
  (Lbar^T (x) I + I (x) Lbar^T) vec P = vec Q, n^2 x n^2, by ``np.linalg.solve``,
  with the shifted spectrum's real parts from ``np.linalg.eigvals(Lbar)``.
  This keeps scipy out of the process for the small graphs of the builtin
  scenarios: importing ``scipy.linalg`` costs more than the whole solve.
* larger n: Bartels-Stewart on a real Schur form of -Lbar^T, which also
  yields the shifted spectrum's real parts.  The Kronecker system grows as
  n^4 in memory and n^6 in time, so it cannot serve here.  The form comes
  from the graph's structure (``_shifted_schur``): v is exactly zero off the
  root component, so LAPACK's permutation balancing ``dgebal`` orders -Lbar^T
  block triangular, and ``scipy.linalg.schur`` factorises only the core that
  balancing leaves: the agents on cycles (the root component among them)
  and those ordered between them.  A tree's core is one row and needs no
  factorisation; a strongly connected graph's is the whole matrix.  The
  triangular equation left by the factorisation is
  - up to ``_TRSYL_BLOCK`` (64) rows, one call of LAPACK's unblocked ``dtrsyl``;
  - above it, split recursively at the middle of the Schur factor, never
    inside a 2x2 block, into Lyapunov and Sylvester equations on blocks of at
    most ``_TRSYL_BLOCK`` rows, each one ``dtrsyl`` call, joined by matrix
    products (``_lyapunov_blocked``).  On the 600-agent tree of the
    large-graph benchmark this took 0.03 s against 0.28 s for one call.
  Should any ``dtrsyl`` call of the split solve rescale its solution or
  report an ``info`` code, the whole equation is solved by one call instead.

An eigendecomposition of Lbar would be cheaper than any of these but is not
safe: L can be defective (the builtin graph's L has a size-3 Jordan block).
All paths apply the same gates (shifted spectrum, residual of the original
form, positive definiteness of P) with the same messages.

The gates and the scalars of the certificate are found in one of two
regimes, picked by ``sparsity.is_sparse`` from the agent count and the
nonzeros of P and L:

* dense: the residual from dense products, and every eigenvalue of P from
  ``eigvalsh``;
* sparse (200 agents or more, at most 5 % nonzeros, as the random trees of
  the large-graph benchmark give): the residual from CSR products,
  ``lambda_P`` by Lanczos, and ``min_eig_P`` by shift-invert Lanczos at 0 on
  one sparse LU factor of P under a symmetric ordering
  (``sparsity.symmetric_lu``).  That factor is trusted only when it proves P
  positive definite (``sparsity.proves_positive_definite``); otherwise, and
  should ARPACK fail, ``eigvalsh`` answers, so the positive-definiteness gate
  and its message are the dense regime's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of a real matrix."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValidationError("spectral_norm: matrix has non-finite entries")
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class LyapunovCertificate:
    """Solution P of the graph Lyapunov equation plus its audit trail.

    lambda_P and lambda_L are the spectral norms of P and L (tight upper
    bounds used by the gain inequalities); ``residual`` is the max-norm of
    the original equation's defect; ``cond_P`` records the conditioning of P
    for diagnostics.  L itself is kept so gain certification needs nothing
    but the certificate.
    """

    P: np.ndarray
    L: np.ndarray
    alpha: float
    residual: float
    lambda_P: float
    lambda_L: float
    min_eig_P: float
    cond_P: float

    def __post_init__(self):
        for name in ("P", "L"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_agents(self) -> int:
        return self.P.shape[0]

    def to_json(self) -> dict:
        return {**self.scalars_json(), "P": self.P.tolist()}

    def scalars_json(self) -> dict:
        """``to_json`` without ``P``, for a writer that spells ``P`` itself."""
        return {
            "n": self.n_agents,
            "alpha": self.alpha,
            "residual": self.residual,
            "lambda_P": self.lambda_P,
            "lambda_L": self.lambda_L,
            "min_eig_P": self.min_eig_P,
            "cond_P": self.cond_P,
        }


def solve_P(lap: LaplacianData, Q: np.ndarray | None = None, alpha: float = 1.0) -> LyapunovCertificate:
    """Solve the graph Lyapunov equation and certify the solution.

    Q defaults to the identity.  Fails when the graph has no spanning tree,
    when Q is not symmetric positive definite, or when the shifted matrix is
    numerically degenerate (an eigenvalue with real part below 1e-9, meaning
    alpha is too small relative to rounding).
    """
    if not lap.has_spanning_tree:
        raise ValidationError("solve_P: graph has no directed spanning tree")
    if alpha <= 0:
        raise ValidationError(f"alpha: must be > 0, got {alpha}")
    L = lap.L
    n = lap.n_agents
    if Q is None:
        Q = np.eye(n)
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (n, n):
        raise ValidationError(f"Q: expected shape {(n, n)}, got {Q.shape}")
    if np.abs(Q - Q.T).max() > 1e-12 * max(1.0, np.abs(Q).max()):
        raise ValidationError("Q: must be symmetric")
    # a diagonal Q, such as the default, holds its eigenvalues on its diagonal
    q_eigs = (np.sort(np.diag(Q)) if np.count_nonzero(Q) == np.count_nonzero(np.diag(Q))
              else np.linalg.eigvalsh((Q + Q.T) / 2))
    if q_eigs[0] <= 0:
        raise ValidationError(f"Q: must be positive definite, min eig = {q_eigs[0]:.3e}")

    v = lap.v_left
    ones = np.ones(n)
    if n <= _KRON_MAX_N:
        L_shift = L + alpha * np.outer(ones, v)
        _require_shifted_spectrum(float(np.linalg.eigvals(L_shift).real.min()))
        P = _kron_lyapunov(L_shift, Q)
    else:
        r, u = _shifted_schur(L, v, alpha)
        # in the standardised real Schur form a 2x2 block's diagonal holds the
        # real part of its eigenvalue pair, so diag(r) lists every real part of
        # -Lbar^T's spectrum
        _require_shifted_spectrum(-float(np.diag(r).max()))
        P = _lyapunov_from_schur(r, u, -Q)
    P = (P + P.T) / 2.0

    P_csr = None
    if sparsity.is_sparse(n, int(np.count_nonzero(P) + np.count_nonzero(L))):
        import scipy.sparse

        P_csr, L_csr = scipy.sparse.csr_array(P), scipy.sparse.csr_array(L)
        p1 = P_csr @ ones
        # alpha (P 1 v^T + v 1^T P), nonzero only in v's columns and rows
        rank_one = alpha * scipy.sparse.csr_array(p1[:, None]) @ scipy.sparse.csr_array(v[None, :])
        defect = P_csr @ L_csr + L_csr.T @ P_csr - scipy.sparse.csr_array(Q) \
            + rank_one + rank_one.T
        residual = float(abs(defect).max())
    else:
        defect = P @ L + L.T @ P - Q + alpha * (np.outer(P @ ones, v) + np.outer(v, P @ ones))
        residual = float(np.abs(defect).max())
    q_norm = float(q_eigs[-1])  # Q is symmetric positive definite
    if residual >= _RESIDUAL_TOL * max(1.0, q_norm):
        raise DegenerateSpectrumError(
            f"Lyapunov solve residual {residual:.3e} exceeds tolerance "
            f"{_RESIDUAL_TOL * max(1.0, q_norm):.3e}"
        )
    p_min, p_max = _extreme_eigenvalues(P_csr, P)
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
    )


def _extreme_eigenvalues(P_csr, P: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric P: by Lanczos on its
    CSR copy ``P_csr`` when one is given and its symmetric LU factor proves
    P positive definite, else (and should ARPACK fail) from ``eigvalsh``.

    The smallest comes from shift-invert at 0 on that factor: about 13 ms on
    the 600-agent tree of the large-graph benchmark.  A shift at the
    Gershgorin bound, as the gain forms take, needs a second factor and took
    1.2 s there, and LOBPCG did not converge in 200 iterations.
    """
    if P_csr is not None:
        try:
            lu = sparsity.symmetric_lu(P_csr)
            if sparsity.proves_positive_definite(lu):
                return (sparsity.nearest_eigenvalue(P_csr, 0.0, lu),
                        sparsity.largest_eigenvalue(P_csr))
        except RuntimeError:
            # ARPACK's errors and an exactly singular factor
            pass
    p_eigs = np.linalg.eigvalsh(P)
    return float(p_eigs[0]), float(p_eigs[-1])


def _require_shifted_spectrum(shift_min: float) -> None:
    """Raise unless every eigenvalue of Lbar has real part >= 1e-9."""
    if shift_min < 1e-9:
        raise DegenerateSpectrumError(
            "shifted Laplacian has an eigenvalue with real part "
            f"{shift_min:.3e}; alpha too small or upstream invariant violated"
        )


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


def _shifted_schur(L: np.ndarray, v: np.ndarray, alpha: float):
    """Real Schur form ``(r, u)`` of -Lbar^T, with Lbar = L + alpha 1 v^T.

    P Lbar + Lbar^T P = Q is the Lyapunov equation (-Lbar^T) P + P (-Lbar) = -Q,
    whose Bartels-Stewart solution starts from this factorisation.

    v is exactly zero off the graph's root component, so -Lbar^T keeps the
    structure of L^T there: block triangular in a topological order of the
    strongly connected components.  LAPACK's permutation balancing
    (``dgebal``, Parlett and Reinsch 1969) finds such an order, leaving
    a = p^T (-Lbar^T) p = [[t1, x, y], [0, c, z], [0, 0, t2]] with t1, t2
    upper triangular and the core c, which no permutation reduces further, in
    rows ``lo:hi+1``.  Only c is factorised, c = u_c r_c u_c^T, and then
    r = [[t1, x u_c, y], [0, r_c, u_c^T z], [0, 0, t2]] and u = p diag(I, u_c, I).
    For a tree the core is one row and u the permutation p, which is returned
    as a ``scipy.sparse`` array, so that transforming with it gathers rather
    than multiplies: on the 600-agent tree of the large-graph benchmark the
    two transforms of ``_lyapunov_from_schur`` took about 4 ms against
    33 ms dense.  A larger core gives a sparse u, the permutation and the
    core's orthogonal block, where ``sparsity.is_sparse`` takes its entries
    for sparse, and a dense u otherwise; for a strongly connected graph
    nothing is permuted and this is the full factorisation.

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
    # p as a gather: a = (-Lbar^T)[perm][:, perm].  LAPACK swapped row and
    # column pivscale[j] with j, first for j = n-1 down to hi + 1, then for
    # j = 0 up to lo - 1 (the decoding of scipy.linalg.matrix_balance)
    swaps = pivscale.astype(int) - 1
    perm = np.arange(n)
    for j in [*range(n - 1, hi, -1), *range(lo)]:
        perm[[j, swaps[j]]] = perm[[swaps[j], j]]
    if hi == lo:
        import scipy.sparse

        return r, scipy.sparse.csr_array((np.ones(n), (perm, np.arange(n))), shape=(n, n))
    core = slice(lo, hi + 1)
    r_c, u_c = scipy.linalg.schur(r[core, core], output="real")
    r[core, core] = r_c
    r[:lo, core] = r[:lo, core] @ u_c
    r[core, hi + 1:] = u_c.T @ r[core, hi + 1:]
    m = hi + 1 - lo
    if sparsity.is_sparse(n, n - m + m * m):
        import scipy.sparse

        outside = np.r_[:lo, hi + 1:n]
        rows = np.concatenate([perm[outside], np.repeat(perm[core], m)])
        cols = np.concatenate([outside, np.tile(np.arange(lo, hi + 1), m)])
        data = np.concatenate([np.ones(n - m), u_c.ravel()])
        return r, scipy.sparse.csr_array((data, (rows, cols)), shape=(n, n))
    u = np.zeros((n, n))
    u[perm, np.arange(n)] = 1.0
    u[perm[core], core] = u_c
    return r, u


def _lyapunov_from_schur(r: np.ndarray, u, q: np.ndarray) -> np.ndarray:
    """Solve a X + X a^T = q given the real Schur form a = u r u^T, u a numpy
    or a ``scipy.sparse`` array.

    The triangular equation is solved by ``_lyapunov_blocked``, which up to
    ``_TRSYL_BLOCK`` rows is one LAPACK ``dtrsyl`` call.  Should any of its
    calls rescale or report an ``info`` code, the whole equation is solved by
    one call, with the same steps as ``scipy.linalg.solve_continuous_lyapunov``
    after its own factorisation, including its handling of ``info``.
    """
    import scipy.linalg

    f = u.T @ (q @ u)
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
    return u @ y @ u.T


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
