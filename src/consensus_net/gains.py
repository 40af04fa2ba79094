"""Controller gain sets and numerical certification of the stability
inequalities.

Both controllers come with a Lyapunov-based stability argument whose chain of
sufficient conditions involves only the gains and two spectral bounds: the
norm of the certificate matrix P (lambda_P) and the norm of the Laplacian
(lambda_L).  ``certify_matched`` and ``certify_unmatched`` evaluate every
inequality in that chain with zero slack, assemble the quadratic-form matrix
whose positive definiteness makes the Lyapunov derivative negative, and
report its smallest eigenvalue.  Certification is advisory: the simulator
runs uncertified gains and records the report alongside the trajectory.

Each form is written once, as blocks of P, L and the identity that numpy
arrays and ``scipy.sparse`` arrays evaluate alike.  Its smallest eigenvalue
comes from one of two regimes, read from the storage of the certificate's P
and L, as ``spectral.solve_P`` chose it; nothing here counts or converts them:

* dense: ``np.linalg.eigvalsh`` of the whole form.  Graphs below 200 agents
  take it, so the builtin scenarios never import ``scipy.sparse``, and so
  does a dense P, which a long path or a large cycle gives, or a form whose
  share of nonzeros exceeds 5 %, such as the Schur test matrix's L L^T on a
  star, where every child shares the root;
* sparse, for a CSR P and L: shift-invert Lanczos
  (``sparsity.smallest_eigenvalue``) at a shift below the Gershgorin bound,
  so the eigenvalue nearest the shift is the smallest, on one sparse LU
  factor under a symmetric ordering.  When the tree route solved P, the
  certificate's ``elimination_order`` lists the agents deepest first, and
  each form is factorised in it, each agent's variables together
  (``sparsity.block_order``): P, L and L L^T are nonzero only on the tree's
  ancestor-descendant and sibling pairs, so the factors take no fill
  outside them.  Every other certificate orders its forms by MMD.  On the
  600-agent random trees of the large-graph benchmark, P is about 98 %
  exact zeros and so are the forms; the matched form's factor took 6 ms in
  the tree's order against 15 ms under MMD (best of 7), and its smallest
  eigenvalue about 0.017 s against 0.4 s for ``eigvalsh``.

Should the sparse solve fail (ARPACK does not converge, or the shifted form
has an exactly singular factor), or a form hold a non-finite entry or row
sum, the dense regime answers instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from . import sparsity
from .errors import InfeasibleGainError, ValidationError
from .spectral import LyapunovCertificate

#: tolerance for the exact-equality substitution checks
_SUBSTITUTION_TOL = 1e-12


def _require_positive(gains):
    for field in fields(gains):
        value = getattr(gains, field.name)
        if not (value > 0) or not math.isfinite(value):
            raise ValidationError(f"{field.name}: must be a positive finite number, got {value}")


@dataclass(frozen=True)
class MatchedGains:
    """Gains of the matched-disturbance controller plus Lyapunov parameters.

    gamma1..gamma4 enter the control law; mu, b, rho, epsilon parametrize the
    Lyapunov function.  The stability analysis substitutes
    gamma4 = 2*gamma3*(1 + mu/b) + gamma2, epsilon = rho/gamma2 and
    rho = gamma2; gains violating those are still simulated but flagged.
    """

    #: the scenario mode whose controller takes these gains
    mode: ClassVar[str] = "matched"

    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float
    mu: float = 1.0
    b: float = 10.0
    rho: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.rho is None:
            object.__setattr__(self, "rho", float(self.gamma2))
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", float(self.rho) / float(self.gamma2))
        _require_positive(self)

    @classmethod
    def with_substitutions(cls, gamma1, gamma2, gamma3, mu=1.0, b=10.0) -> "MatchedGains":
        """Fill gamma4, rho, epsilon from the stability-analysis substitutions
        (the defaults of rho and epsilon are two of them)."""
        return cls(gamma1, gamma2, gamma3, _gamma4_substitution(gamma2, gamma3, mu, b),
                   mu=mu, b=b)


@dataclass(frozen=True)
class UnmatchedGains:
    """Gains of the unmatched-disturbance controller.

    k_x, k_d, k_s, alpha1, nu enter the control law; alpha2 parametrizes the
    Lyapunov function.  The stability analysis substitutes nu = alpha1/k_d and alpha1 = k_d.
    """

    mode: ClassVar[str] = "unmatched"

    k_x: float
    k_d: float
    k_s: float
    alpha1: float
    nu: float
    alpha2: float = 1.0

    def __post_init__(self):
        _require_positive(self)


@dataclass(frozen=True)
class Check:
    """One certified inequality: ``left (relation) right`` with its margin.

    margin > 0 means the requirement holds; margin is left - right for
    strict lower bounds and tolerance - |left - right| for equalities.
    """

    name: str
    requirement: str
    left: float
    right: float
    margin: float

    def __post_init__(self):
        # JSON cannot spell a non-finite number, and none certifies anything
        if not all(map(math.isfinite, (self.left, self.right, self.margin))):
            raise ValidationError(
                f"{self.name}: {self.requirement} overflows on this input "
                f"(left {self.left}, right {self.right})")

    @property
    def passed(self) -> bool:
        return self.margin > 0

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a gain certification: ordered checks plus the smallest
    eigenvalue of the assembled quadratic form."""

    passed: bool
    checks: tuple
    min_eig_form: float

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "min_eig_form": self.min_eig_form,
            "checks": [c.to_json() for c in self.checks],
        }

    def table(self) -> str:
        """Human-readable fixed-width table of the checks."""
        rows = [("check", "requirement", "left", "right", "margin", "ok")]
        for c in self.checks:
            rows.append(
                (c.name, c.requirement, f"{c.left:.6g}", f"{c.right:.6g}", f"{c.margin:.6g}",
                 "yes" if c.passed else "NO")
            )
        widths = [max(len(r[k]) for r in rows) for k in range(6)]
        lines = ["  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)) for row in rows]
        lines.append(f"min eig of quadratic form: {self.min_eig_form:.6g}")
        lines.append(f"certified: {'PASSED' if self.passed else 'FAILED'}")
        return "\n".join(lines)


def _equality_check(name, requirement, left, right) -> Check:
    return Check(name, requirement, float(left), float(right),
                 _SUBSTITUTION_TOL - abs(float(left) - float(right)))


def _bound_check(name, requirement, left, right) -> Check:
    return Check(name, requirement, float(left), float(right), float(left) - float(right))


# the matched analysis' gamma4 substitution and its gamma2 and b lower bounds,
# which certify_matched checks and suggest_matched and with_substitutions fill
def _gamma4_substitution(gamma2, gamma3, mu, b) -> float:
    return 2.0 * gamma3 * (1.0 + mu / b) + gamma2


def _gamma2_bound(gamma1, gamma3, mu, b, cert: LyapunovCertificate) -> float:
    return (cert.lambda_P + 2.0 * gamma3 * (mu + b)) / (2.0 * mu + b) \
        + 0.5 * gamma1 * (2.0 * mu + b) * (cert.lambda_L * cert.lambda_L)


def _b_bound(gamma1, gamma3, cert: LyapunovCertificate) -> float:
    return (gamma3 / gamma1) * (cert.lambda_P * cert.lambda_P)


def is_S_hurwitz(g: MatchedGains) -> bool:
    """Stability of the 2x2 averaged (velocity, integral) subsystem.

    The matrix [[-gamma2, -gamma3], [gamma4, 0]] is Hurwitz iff its trace is
    negative and its determinant positive; for strictly positive gains both
    hold automatically.
    """
    trace = -g.gamma2
    det = g.gamma3 * g.gamma4
    return trace < 0 and det > 0


def certify_matched(g: MatchedGains, cert: LyapunovCertificate) -> CertificationReport:
    """Evaluate the matched-case gain conditions against a certificate.

    Checks, in order: positivity of the Lyapunov function, the three design
    substitutions, the gamma2 lower bound, the b lower bound, and finally the
    smallest eigenvalue of the assembled 3n x 3n quadratic-form matrix.
    """
    checks = []

    checks.append(_bound_check(
        "H_positive", "sqrt(2*rho*mu/lambda_P) > epsilon",
        math.sqrt(2.0 * g.rho * g.mu / cert.lambda_P), g.epsilon))
    checks.append(_equality_check(
        "gamma4_substitution", "gamma4 = 2*gamma3*(1 + mu/b) + gamma2",
        g.gamma4, _gamma4_substitution(g.gamma2, g.gamma3, g.mu, g.b)))
    checks.append(_equality_check(
        "epsilon_substitution", "epsilon = rho/gamma2", g.epsilon, g.rho / g.gamma2))
    checks.append(_equality_check("rho_substitution", "rho = gamma2", g.rho, g.gamma2))
    checks.append(_bound_check(
        "gamma2_bound",
        "gamma2 > (lambda_P + 2*gamma3*(mu+b))/(2*mu+b) + gamma1*(2*mu+b)*lambda_L^2/2",
        g.gamma2, _gamma2_bound(g.gamma1, g.gamma3, g.mu, g.b, cert)))
    checks.append(_bound_check(
        "b_bound", "b >= (gamma3/gamma1)*lambda_P^2",
        g.b, _b_bound(g.gamma1, g.gamma3, cert)))

    sparse = _sparse_operands(cert)
    min_eig = sparsity.smallest_eigenvalue(
        None if sparse is None else _matched_form(g, *sparse),
        lambda: matched_form_matrix(g, cert), sparsity.block_order(cert.elimination_order, 3))
    checks.append(_bound_check("form_posdef", "min eig of quadratic form > 0", min_eig, 0.0))

    passed = all(c.passed for c in checks)
    return CertificationReport(passed=passed, checks=tuple(checks), min_eig_form=min_eig)


def matched_form_matrix(g: MatchedGains, cert: LyapunovCertificate) -> np.ndarray:
    """Assemble the symmetric 3n x 3n matrix of the matched Lyapunov decay,
    in (e_x, e_y, e_d) block order."""
    return _matched_form(g, sparsity.dense(cert.P), sparsity.dense(cert.L),
                         np.eye(cert.n_agents), np.block)


def _matched_form(g: MatchedGains, P, L, I, join):
    """The matched form from P, L and the identity, numpy or ``scipy.sparse``
    arrays alike, its blocks joined by ``join``."""
    N11 = g.gamma1 * g.epsilon * I
    N12 = g.gamma1 * (2.0 * g.mu + g.b) * L.T - (g.rho - g.epsilon * g.gamma2) * P
    N13 = g.gamma3 * g.epsilon * P
    N22 = 2.0 * (2.0 * g.b * g.gamma2 - g.b * g.gamma4 + 2.0 * g.mu * g.gamma2) * I \
        - 2.0 * g.epsilon * P
    N23 = (2.0 * g.mu * g.gamma3 + 2.0 * g.b * g.gamma3 + g.b * g.gamma2 - g.b * g.gamma4) * I
    N33 = 2.0 * g.gamma3 * g.b * I
    return join([
        [N11, N12, N13],
        [N12.T, N22, N23],
        [N13.T, N23.T, N33],
    ])


def _sparse_operands(cert: LyapunovCertificate):
    """``(P, L, I, join)`` as ``scipy.sparse`` arrays, with a ``join`` that
    makes a CSC array, when the certificate stores P and L as CSR arrays;
    else None."""
    if isinstance(cert.P, np.ndarray):
        return None
    import scipy.sparse

    return (cert.P, cert.L, scipy.sparse.eye_array(cert.n_agents, format="csr"),
            lambda blocks: scipy.sparse.block_array(blocks, format="csc"))


def suggest_matched(gamma1: float, gamma3: float, mu: float, b: float,
                    cert: LyapunovCertificate) -> MatchedGains:
    """Pick gamma2 5% above its lower bound and fill the design substitutions.

    The scalar bounds alone do not guarantee joint positive definiteness of
    the assembled form: its two Schur-complement arguments share the same
    leading block.  When the 5% choice leaves the form indefinite, gamma2 is
    escalated geometrically until certification passes; this terminates
    because the b bound keeps a factor-2 reserve on the remaining coupling.
    Raises InfeasibleGainError (carrying the minimal admissible b) when b is
    below (gamma3/gamma1)*lambda_P^2, and ValidationError naming the inputs
    when the gamma2 bound, or gamma2 as it is escalated, is not finite, or
    when the eigenvalue solve of the form_posdef check fails on a form
    whose entries are that large.
    """
    for name, value in (("gamma1", gamma1), ("gamma3", gamma3), ("mu", mu), ("b", b)):
        if not (value > 0 and math.isfinite(value)):
            raise ValidationError(f"{name}: must be a positive finite number, got {value}")
    given = f"gamma1 = {gamma1}, gamma3 = {gamma3}, mu = {mu}, b = {b}"
    b_min = _b_bound(gamma1, gamma3, cert)
    if b < b_min:
        raise InfeasibleGainError(
            f"b = {b} is below the minimal admissible value {b_min}", minimal_value=b_min)
    gamma2 = 1.05 * _gamma2_bound(gamma1, gamma3, mu, b, cert)
    if not math.isfinite(gamma2):
        raise ValidationError(f"the gamma2 bound of {given} is not finite ({gamma2})")
    for _ in range(200):
        if not math.isfinite(gamma2):
            raise ValidationError(f"gamma2 overflowed while escalating for {given}")
        gains = MatchedGains.with_substitutions(gamma1, gamma2, gamma3, mu=mu, b=b)
        try:
            report = certify_matched(gains, cert)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"form_posdef: the quadratic form for {given} has no "
                                  f"computable eigenvalues ({exc})") from None
        if report.passed:
            return gains
        gamma2 *= 1.25
    raise InfeasibleGainError(f"could not certify any gamma2 for {given}", minimal_value=b_min)


def unmatched_form_matrices(g: UnmatchedGains,
                            cert: LyapunovCertificate) -> tuple[np.ndarray, np.ndarray]:
    """The 2n x 2n quadratic-form matrix and its Schur-complement test matrix."""
    return _unmatched_forms(g, sparsity.dense(cert.P), sparsity.dense(cert.L),
                            np.eye(cert.n_agents), np.block)


def _unmatched_forms(g: UnmatchedGains, P, L, I, join):
    """``unmatched_form_matrices`` from P, L and the identity, numpy or
    ``scipy.sparse`` arrays alike, the blocks of M joined by ``join``."""
    M = join([
        [(g.alpha1 * g.k_x / g.k_d) * I, g.alpha2 * g.k_x * L.T],
        [g.alpha2 * g.k_x * L, 2.0 * (g.alpha2 * g.k_d * I - (g.alpha1 / g.k_d) * P)],
    ])
    D = 2.0 * (g.alpha2 * g.k_d * I - P) - (g.alpha2 * g.alpha2) * g.k_x * (L @ L.T)
    return M, D


def certify_unmatched(g: UnmatchedGains, cert: LyapunovCertificate) -> CertificationReport:
    """Evaluate the unmatched-case gain conditions against a certificate.

    Checks: positivity of the Lyapunov function, the two design substitutions
    (nu = alpha1/k_d, alpha1 = k_d), the k_d lower bound, and the smallest
    eigenvalues of the assembled quadratic form and its Schur test matrix.
    """
    checks = []
    checks.append(_bound_check(
        "W_positive", "sqrt(alpha1*alpha2/lambda_P) > nu",
        math.sqrt(g.alpha1 * g.alpha2 / cert.lambda_P), g.nu))
    checks.append(_equality_check(
        "nu_substitution", "nu = alpha1/k_d", g.nu, g.alpha1 / g.k_d))
    checks.append(_equality_check(
        "alpha1_substitution", "alpha1 = k_d", g.alpha1, g.k_d))
    kd_bound = 0.5 * g.alpha2 * g.k_x * (cert.lambda_L * cert.lambda_L) + cert.lambda_P / g.alpha2
    checks.append(_bound_check(
        "k_d_bound", "k_d > alpha2*k_x*lambda_L^2/2 + lambda_P/alpha2",
        g.k_d, kd_bound))

    sparse = _sparse_operands(cert)
    M, D = (None, None) if sparse is None else _unmatched_forms(g, *sparse)
    dense = functools.cache(lambda: [(X + X.T) / 2 for X in unmatched_form_matrices(g, cert)])
    order = cert.elimination_order
    min_eig_M = sparsity.smallest_eigenvalue(M, lambda: dense()[0], sparsity.block_order(order, 2))
    min_eig_D = sparsity.smallest_eigenvalue(D, lambda: dense()[1], order)
    checks.append(_bound_check("form_posdef", "min eig of quadratic form > 0", min_eig_M, 0.0))
    checks.append(_bound_check("schur_psd", "min eig of Schur test matrix > 0", min_eig_D, 0.0))

    passed = all(c.passed for c in checks)
    return CertificationReport(passed=passed, checks=tuple(checks), min_eig_form=min_eig_M)
