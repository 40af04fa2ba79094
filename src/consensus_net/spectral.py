"""Lyapunov matrix certificates for directed-graph Laplacians.

For a Laplacian L with a simple zero eigenvalue and left eigenvector v, and
any symmetric Q > 0 and scalar alpha > 0, there is a unique symmetric P > 0
with

    P L + L^T P = Q - alpha * (P 1 v^T + v 1^T P).

Moving the rank-one terms to the left shows this is the ordinary continuous
Lyapunov equation for the shifted matrix Lbar = L + alpha * 1 v^T, whose
spectrum is the nonzero spectrum of L plus the eigenvalue alpha, i.e. it lies
entirely in the open right half plane.  We solve that dense equation by
Bartels-Stewart on one real Schur factorisation, which also yields the
shifted spectrum's real parts, and verify the residual of the original form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateSpectrumError, ValidationError
from .graph import LaplacianData

#: acceptable residual, relative to max(1, ||Q||_2)
_RESIDUAL_TOL = 1e-8


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
    Q: np.ndarray
    L: np.ndarray
    alpha: float
    residual: float
    lambda_P: float
    lambda_L: float
    min_eig_P: float
    cond_P: float

    def __post_init__(self):
        for name in ("P", "Q", "L"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_agents(self) -> int:
        return self.P.shape[0]

    def to_json(self) -> dict:
        return {
            "n": self.n_agents,
            "P": self.P.tolist(),
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
    q_eigs = np.linalg.eigvalsh((Q + Q.T) / 2)
    if q_eigs[0] <= 0:
        raise ValidationError(f"Q: must be positive definite, min eig = {q_eigs[0]:.3e}")

    v = lap.v_left
    ones = np.ones(n)
    r, u = _shifted_schur(L, v, alpha)
    # in the standardised real Schur form a 2x2 block's diagonal holds the
    # real part of its eigenvalue pair, so diag(r) lists every real part of
    # -Lbar^T's spectrum
    shift_min = -float(np.diag(r).max())
    if shift_min < 1e-9:
        raise DegenerateSpectrumError(
            "shifted Laplacian has an eigenvalue with real part "
            f"{shift_min:.3e}; alpha too small or upstream invariant violated"
        )

    P = _lyapunov_from_schur(r, u, -Q)
    P = (P + P.T) / 2.0

    defect = P @ L + L.T @ P - Q + alpha * (np.outer(P @ ones, v) + np.outer(v, P @ ones))
    residual = float(np.abs(defect).max())
    q_norm = float(q_eigs[-1])  # Q is symmetric positive definite
    if residual >= _RESIDUAL_TOL * max(1.0, q_norm):
        raise DegenerateSpectrumError(
            f"Lyapunov solve residual {residual:.3e} exceeds tolerance "
            f"{_RESIDUAL_TOL * max(1.0, q_norm):.3e}"
        )
    p_eigs = np.linalg.eigvalsh(P)
    if p_eigs[0] <= 0:
        raise DegenerateSpectrumError(f"solution P is not positive definite, min eig = {p_eigs[0]:.3e}")

    return LyapunovCertificate(
        P=P,
        Q=Q,
        L=L,
        alpha=float(alpha),
        residual=residual,
        lambda_P=float(p_eigs[-1]),
        lambda_L=lap.lambda_L,
        min_eig_P=float(p_eigs[0]),
        cond_P=float(p_eigs[-1] / p_eigs[0]),
    )


def _shifted_schur(L: np.ndarray, v: np.ndarray, alpha: float):
    """Real Schur form ``(r, u)`` of -Lbar^T, with Lbar = L + alpha 1 v^T.

    P Lbar + Lbar^T P = Q is the Lyapunov equation (-Lbar^T) P + P (-Lbar) = -Q,
    whose Bartels-Stewart solution starts from this factorisation.
    """
    L_shift = L + alpha * np.outer(np.ones(L.shape[0]), v)
    return scipy.linalg.schur(-L_shift.T, output="real")


def _lyapunov_from_schur(r: np.ndarray, u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve a X + X a^T = q given the real Schur form a = u r u^T.

    The same steps as ``scipy.linalg.solve_continuous_lyapunov`` after its
    own factorisation, including its handling of the LAPACK ``info`` code.
    """
    f = u.T.dot(q.dot(u))
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
    return u.dot(y).dot(u.T)
