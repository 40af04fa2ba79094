"""Hot RK4 stepping loops for the two closed loops.

Both closed loops are linear in the stacked state z = (x, y, delta_hat):

    z' = A z + E (base + s(t) 1),   s(t) = (c_h + c_e exp(-r t)) / (12 + t)

with ``A`` and ``E`` from ``matched_system`` / ``unmatched_system`` and
``base``, ``c_h``, ``c_e``, ``r`` taken from the active disturbance segment.
Each loop has two numpy paths that compute the same classical RK4 steps:

* the stage body (``_rk4_matched``, ``_rk4_unmatched``) evaluates the field
  four times per step, about 80 numpy calls per step; its cost grows with the
  step count.  It is also the source body of the numba twins.
* the recurrence (``_rk4_affine``) uses that one RK4 step of a linear system
  is exactly ``z+ = M z + Cb base + c0 s(t) + ch s(t + h/2) + c1 s(t + h)``.
  ``M``, ``Cb`` and ``c*`` come from applying one RK4 step to identity
  columns; ``fold_length`` steps are folded into one block operator, so
  Python loops once per block (once per sample for ``sample_every`` up to
  100).  Setting it up costs O((3n)^3) flops.

``rk4_matched_numpy`` / ``rk4_unmatched_numpy`` choose between the two with
``prefer_recurrence``, an operation-count estimate from n, the step count and
``sample_every``: the recurrence for small graphs over long horizons, the
stage body for large graphs over short ones.  A numba-compiled twin of the
stage body is built when numba imports successfully.  Backend selection
order: an explicit ``backend=`` argument wins, then the environment flag
``CONSENSUS_NET_NO_NUMBA=1`` forces numpy, otherwise numba is used when
available.

Switching rule, shared by both paths: step k (t = k*dt) uses the last
segment whose start satisfies ``t >= start - dt/4``, and keeps it for all
four stages.  A stage landing exactly on a switch time still sees the old
segment; the step starting at the switch sees the new one (right-continuous
switching aligned to the step grid).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ValidationError

ENV_DISABLE_NUMBA = "CONSENSUS_NET_NO_NUMBA"

_STAGE_OFFSETS = np.array([0.0, 0.5, 0.5, 1.0])
_STAGE_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])


def _rk4_matched(z0, L, g1, g2, g3, g4,
                 seg_starts, seg_base, seg_ch, seg_ce, seg_rate,
                 dt, n_steps, sample_every, out):
    """Step the matched loop; write every sample_every-th state into ``out``.

    Returns the number of finite samples written; fewer than out.shape[0]
    means the state went non-finite at the first missing sample.
    """
    n = L.shape[0]
    n_seg = seg_starts.shape[0]
    z = z0.copy()
    out[0] = z
    seg = 0
    kcur = np.zeros(3 * n)  # defined before the stage loop for type stability
    for k in range(n_steps):
        t = k * dt
        while seg + 1 < n_seg and t >= seg_starts[seg + 1] - 0.25 * dt:
            seg += 1
        base = seg_base[seg]
        ch = seg_ch[seg]
        ce = seg_ce[seg]
        rate = seg_rate[seg]
        acc = np.zeros(3 * n)
        for s in range(4):
            if s == 0:
                zs = z
            else:
                zs = z + (dt * _STAGE_OFFSETS[s]) * kcur
            ts = t + _STAGE_OFFSETS[s] * dt
            x = zs[0:n]
            y = zs[n:2 * n]
            dh = zs[2 * n:3 * n]
            lx = np.dot(L, x)
            scal = (ch + ce * np.exp(-rate * ts)) / (12.0 + ts)
            kcur = np.empty(3 * n)
            kcur[0:n] = y
            kcur[n:2 * n] = -g1 * lx - g2 * y - g3 * dh + base + scal
            kcur[2 * n:3 * n] = g1 * lx + g4 * y
            acc = acc + _STAGE_WEIGHTS[s] * kcur
        z = z + (dt / 6.0) * acc
        if (k + 1) % sample_every == 0:
            row = (k + 1) // sample_every
            if not np.isfinite(z).all():
                return row
            out[row] = z
    return out.shape[0]


def _rk4_unmatched(z0, L, kx, kd, ks, a1, nu,
                   seg_starts, seg_base, seg_ch, seg_ce, seg_rate,
                   dt, n_steps, sample_every, out):
    """Unmatched-loop twin of ``_rk4_matched``."""
    n = L.shape[0]
    n_seg = seg_starts.shape[0]
    z = z0.copy()
    out[0] = z
    seg = 0
    kcur = np.zeros(3 * n)  # defined before the stage loop for type stability
    for k in range(n_steps):
        t = k * dt
        while seg + 1 < n_seg and t >= seg_starts[seg + 1] - 0.25 * dt:
            seg += 1
        base = seg_base[seg]
        ch = seg_ch[seg]
        ce = seg_ce[seg]
        rate = seg_rate[seg]
        acc = np.zeros(3 * n)
        for s in range(4):
            if s == 0:
                zs = z
            else:
                zs = z + (dt * _STAGE_OFFSETS[s]) * kcur
            ts = t + _STAGE_OFFSETS[s] * dt
            x = zs[0:n]
            y = zs[n:2 * n]
            dh = zs[2 * n:3 * n]
            yt = y - ks * dh
            drive = a1 * x + nu * yt
            lx = np.dot(L, x)
            scal = (ch + ce * np.exp(-rate * ts)) / (12.0 + ts)
            kcur = np.empty(3 * n)
            kcur[0:n] = y + base + scal
            kcur[n:2 * n] = -kx * lx - kd * yt - drive
            kcur[2 * n:3 * n] = -drive / ks
            acc = acc + _STAGE_WEIGHTS[s] * kcur
        z = z + (dt / 6.0) * acc
        if (k + 1) % sample_every == 0:
            row = (k + 1) // sample_every
            if not np.isfinite(z).all():
                return row
            out[row] = z
    return out.shape[0]


def matched_system(L, g1, g2, g3, g4):
    """``(A, E)`` of the matched loop: z' = A z + E d, d entering y'."""
    n = L.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    A = np.block([[zero, eye, zero],
                  [-g1 * L, -g2 * eye, -g3 * eye],
                  [g1 * L, g4 * eye, zero]])
    return A, np.vstack([zero, eye, zero])


def unmatched_system(L, kx, kd, ks, a1, nu):
    """``(A, E)`` of the unmatched loop: z' = A z + E d, d entering x'."""
    n = L.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    A = np.block([[zero, eye, zero],
                  [-kx * L - a1 * eye, -(kd + nu) * eye, (kd + nu) * ks * eye],
                  [-(a1 / ks) * eye, -(nu / ks) * eye, nu * eye]])
    return A, np.vstack([eye, zero, zero])


#: the recurrence folds at most this many steps into one block operator
MAX_FOLD = 100

#: steps whose disturbance terms are evaluated together; bounds the
#: recurrence's transient arrays to a few MiB
_CHUNK_STEPS = 4096

#: numpy calls per step of the stage body, and per block of the recurrence
_STAGE_CALLS = 80
_BLOCK_CALLS = 4

#: unit costs of the estimate in seconds, measured on a 2-core x86 host
#: with OpenBLAS: one numpy call's fixed overhead, one flop of a
#: matrix-vector or elementwise operation, one flop of a matrix product
_CALL_S = 1e-6
_MATVEC_FLOP_S = 1.0 / 4e9
_MATMUL_FLOP_S = 1.0 / 3e10


def fold_length(sample_every: int) -> int:
    """Steps per recurrence block: the largest divisor of ``sample_every``
    not above ``MAX_FOLD``, so samples fall on block boundaries."""
    return next(f for f in range(min(sample_every, MAX_FOLD), 0, -1) if sample_every % f == 0)


def prefer_recurrence(n: int, n_steps: int, sample_every: int) -> bool:
    """Whether the recurrence is estimated to run faster than the stage body.

    The estimate counts numpy calls and flops and weighs them with the unit
    costs above.  With N = 3n and f = ``fold_length(sample_every)``:

    * stage body, per step: ``_STAGE_CALLS`` calls and four products with
      L, 8 n^2 matrix-vector flops;
    * recurrence set-up, in matrix-product flops: one RK4 step on N + n + 3
      columns (8 N^2 (N + n + 3)), f - 1 products for the block forcing
      (2 N^2 (n + 3) each) and M^f by squaring (4 N^3 log2 f);
    * recurrence, per block: ``_BLOCK_CALLS`` calls and one N x N
      matrix-vector product (2 N^2 flops); per step, 6 N + 30 flops for
      the vanishing terms and their block forcing.

    The set-up grows as n^3 and the stage body as n^2 per step, so the
    recurrence wins for small graphs over long horizons (the builtins: 100x
    faster) and loses for large graphs over short ones (600 agents over
    1000 steps: set-up about 2 s against 0.6 s for the stage body).
    """
    N = 3 * n
    f = fold_length(sample_every)
    stage = n_steps * (_STAGE_CALLS * _CALL_S + 8 * n * n * _MATVEC_FLOP_S)
    setup_flops = 8 * N * N * (N + n + 3) + 2 * N * N * (n + 3) * (f - 1) \
        + 4 * N ** 3 * math.log2(f)
    recurrence = setup_flops * _MATMUL_FLOP_S \
        + (n_steps // f) * (_BLOCK_CALLS * _CALL_S + 2 * N * N * _MATVEC_FLOP_S) \
        + n_steps * (6 * N + 30) * _MATVEC_FLOP_S
    return recurrence < stage


def _linear_rk4_step(A, Z, F0, Fh, F1, h):
    """One classical RK4 step of z' = A z + f(t), column by column; F0, Fh
    and F1 hold f at the step's start, midpoint and end."""
    k1 = A @ Z + F0
    k2 = A @ (Z + (0.5 * h) * k1) + Fh
    k3 = A @ (Z + (0.5 * h) * k2) + Fh
    k4 = A @ (Z + h * k3) + F1
    return Z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_affine(A, E, z0, seg_starts, seg_base, seg_ch, seg_ce, seg_rate,
                dt, n_steps, sample_every, out):
    """The recurrence: same contract and switching rule as ``_rk4_matched``."""
    N, n = E.shape
    f = fold_length(sample_every)
    blocks_per_sample = sample_every // f
    n_blocks = n_steps // f

    # one step from identity columns: [M | Cb | c0 ch c1]
    e = E.sum(axis=1)  # the scalar vanishing term reaches every agent
    cols = N + n + 3
    Z = np.zeros((N, cols))
    Z[:, :N] = np.eye(N)
    forcing = []
    for stage in range(3):
        F = np.zeros((N, cols))
        F[:, N:N + n] = E
        F[:, N + n + stage] = e
        forcing.append(F)
    step = _linear_rk4_step(A, Z, *forcing, dt)
    M, D = step[:, :N], step[:, N:]

    # block of f steps: z_f = M^f z_0 + sum_j M^(f-1-j) D [base_j; s_j]
    W = np.empty((f, N, n + 3))
    W[f - 1] = D
    for j in range(f - 2, -1, -1):
        W[j] = M @ W[j + 1]
    M_block = np.linalg.matrix_power(M, f)
    G = W[:, :, n:].transpose(1, 0, 2).reshape(N, 3 * f)
    base_forcing = seg_base @ W[:, :, :n].sum(axis=0).T

    thresholds = seg_starts[1:] - 0.25 * dt
    offsets = np.array([0.0, 0.5, 1.0]) * dt
    z = z0.copy()
    out[0] = z
    chunk = max(1, _CHUNK_STEPS // f)
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, n_blocks, chunk):
            b1 = min(b0 + chunk, n_blocks)
            t = np.arange(b0 * f, b1 * f) * dt
            seg = np.searchsorted(thresholds, t, side="right")
            ts = t[:, None] + offsets
            s = (seg_ch[seg, None] + seg_ce[seg, None] * np.exp(-seg_rate[seg, None] * ts)) \
                / (12.0 + ts)
            seg = seg.reshape(-1, f)
            F = s.reshape(-1, 3 * f) @ G.T + base_forcing[seg[:, 0]]
            for i in np.flatnonzero(seg[:, 0] != seg[:, -1]):
                # a switch strictly inside the block: build its forcing step by step
                w = np.zeros(N)
                for j in range(f):
                    w = M @ w + D @ np.concatenate([seg_base[seg[i, j]], s[i * f + j]])
                F[i] = w
            for i in range(b1 - b0):
                z = M_block @ z + F[i]
                b = b0 + i + 1
                if b % blocks_per_sample == 0:
                    out[b // blocks_per_sample] = z
            first, last = b0 // blocks_per_sample + 1, b1 // blocks_per_sample
            bad = np.flatnonzero(~np.isfinite(out[first:last + 1]).all(axis=1))
            if bad.size:
                return first + int(bad[0])
    return out.shape[0]


def rk4_matched_numpy(z0, L, g1, g2, g3, g4,
                      seg_starts, seg_base, seg_ch, seg_ce, seg_rate,
                      dt, n_steps, sample_every, out):
    """Matched loop on numpy: the recurrence or the stage body, whichever
    ``prefer_recurrence`` estimates cheaper; same contract as ``_rk4_matched``."""
    segs = (seg_starts, seg_base, seg_ch, seg_ce, seg_rate)
    if prefer_recurrence(L.shape[0], n_steps, sample_every):
        A, E = matched_system(L, g1, g2, g3, g4)
        return _rk4_affine(A, E, z0, *segs, dt, n_steps, sample_every, out)
    return _rk4_matched(z0, L, g1, g2, g3, g4, *segs, dt, n_steps, sample_every, out)


def rk4_unmatched_numpy(z0, L, kx, kd, ks, a1, nu,
                        seg_starts, seg_base, seg_ch, seg_ce, seg_rate,
                        dt, n_steps, sample_every, out):
    """Unmatched-loop counterpart of ``rk4_matched_numpy``."""
    segs = (seg_starts, seg_base, seg_ch, seg_ce, seg_rate)
    if prefer_recurrence(L.shape[0], n_steps, sample_every):
        A, E = unmatched_system(L, kx, kd, ks, a1, nu)
        return _rk4_affine(A, E, z0, *segs, dt, n_steps, sample_every, out)
    return _rk4_unmatched(z0, L, kx, kd, ks, a1, nu, *segs, dt, n_steps, sample_every, out)


try:
    from numba import njit

    rk4_matched_numba = njit(cache=True)(_rk4_matched)
    rk4_unmatched_numba = njit(cache=True)(_rk4_unmatched)
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    rk4_matched_numba = None
    rk4_unmatched_numba = None
    HAVE_NUMBA = False


def active_backend(backend: str | None = None) -> str:
    """Resolve 'numba' or 'numpy' from the argument and the environment.

    Asking for a backend that is unknown or, for numba, not importable is a
    ValidationError."""
    if backend is not None:
        if backend not in ("numba", "numpy"):
            raise ValidationError(f"backend: expected 'numba' or 'numpy', got {backend!r}")
        if backend == "numba" and not HAVE_NUMBA:
            raise ValidationError("backend: numba was requested but is not installed "
                                  "(install the 'numba' extra, or use the numpy backend)")
        return backend
    if os.environ.get(ENV_DISABLE_NUMBA, "").strip() not in ("", "0"):
        return "numpy"
    return "numba" if HAVE_NUMBA else "numpy"


def matched_kernel(backend: str | None = None):
    return rk4_matched_numba if active_backend(backend) == "numba" else rk4_matched_numpy


def unmatched_kernel(backend: str | None = None):
    return rk4_unmatched_numba if active_backend(backend) == "numba" else rk4_unmatched_numpy


def warm_up():
    """Trigger JIT compilation of both kernels on a tiny problem."""
    if active_backend() != "numba":
        return
    L = np.zeros((1, 1))
    seg = (np.array([0.0]), np.zeros((1, 1)), np.zeros(1), np.zeros(1), np.zeros(1))
    out = np.zeros((2, 3))
    z0 = np.zeros(3)
    rk4_matched_numba(z0, L, 1.0, 1.0, 1.0, 1.0, *seg, 0.01, 1, 1, out)
    rk4_unmatched_numba(z0, L, 1.0, 1.0, 1.0, 1.0, 1.0, *seg, 0.01, 1, 1, out)
