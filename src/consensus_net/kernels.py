"""One classical RK4 integrator for both closed loops.

Both closed loops are linear in the stacked state z = (x, y, delta_hat):

    z' = A z + E (base + s(t) 1)

with ``A = kron(C_L, L) + kron(C_I, I_n)`` and ``E = kron(c_E, I_n)`` built
from the loop's coefficient blocks (``MatchedLoop.blocks`` /
``UnmatchedLoop.blocks``), and ``base`` and the scalar vanishing term s(t)
those of the active segment of the loop's ``DisturbanceProfile``
(``profile.bases`` and ``profile.vanishing``).  ``rk4_closed_loop`` steps
either loop one of two ways, both built on the same RK4 step
(``_linear_rk4_step``):

* the stage body (``_rk4_stage``) takes that step once per time step on a
  CSR ``A``; graphs that contain a spanning tree are typically sparse (a
  tree has n - 1 edges), so each ``A @ z`` costs O(nnz) instead of O(n^2).
  Its cost grows with the step count.
* the recurrence (``_rk4_affine``) uses that one RK4 step of a linear system
  is exactly ``z+ = M z + Cb base + c0 s(t) + ch s(t + h/2) + c1 s(t + h)``.
  ``M`` comes from applying the step to the identity columns of a dense
  ``A``, and ``Cb`` and ``c*`` from applying it to zero columns under the
  forcing ``E`` and ``E 1``; ``fold_length`` steps are folded into one block
  operator, so Python loops once per block (once per sample for
  ``sample_every`` up to 100).  Setting it up costs O((3n)^3) flops.

``prefer_recurrence`` chooses between the two with an operation-count
estimate from n, the stored entries of L, the step count and
``sample_every``: the recurrence for small graphs over long horizons, the
stage body for large graphs over short ones.

Switching rule, shared by both paths through ``_step_terms``: step k
(t = k*dt) uses the last segment whose start satisfies ``t >= start - dt/4``,
and keeps it for all four stages.  A stage landing exactly on a switch time
still sees the old segment; the step starting at the switch sees the new one
(right-continuous switching aligned to the step grid).
"""

from __future__ import annotations

import math

import numpy as np

#: the recurrence folds at most this many steps into one block operator
MAX_FOLD = 100

#: steps whose disturbance terms are evaluated together; bounds the
#: transient arrays of both paths to a few MiB
_CHUNK_STEPS = 4096

#: numpy calls per block of the recurrence
_BLOCK_CALLS = 4

#: unit costs of the estimate in seconds, measured on a 2-core x86 host
#: with OpenBLAS: one numpy call's fixed overhead, one flop of a
#: matrix-vector or elementwise operation, one flop of a matrix product,
#: one step of the stage body at n = 5 (about 25 numpy and scipy calls),
#: and one flop of its sparse products, fitted over trees of 5 to 1200
#: agents with the elementwise work on 3n-vectors folded in
_CALL_S = 1e-6
_MATVEC_FLOP_S = 1.0 / 4e9
_MATMUL_FLOP_S = 1.0 / 3e10
_STAGE_STEP_S = 33e-6
_SPARSE_FLOP_S = 1.0 / 1e9


def largest_divisor_at_most(n: int, k: int) -> int:
    """Largest divisor of ``n`` not above ``max(k, 1)``; 1 when ``n`` < 1."""
    return next((f for f in range(min(n, max(k, 1)), 0, -1) if n % f == 0), 1)


def fold_length(sample_every: int) -> int:
    """Steps per recurrence block: the largest divisor of ``sample_every``
    not above ``MAX_FOLD``, so samples fall on block boundaries."""
    return largest_divisor_at_most(sample_every, MAX_FOLD)


def prefer_recurrence(n: int, nnz: int, n_steps: int, sample_every: int) -> bool:
    """Whether the recurrence is estimated to run faster than the stage body.

    The estimate weighs numpy calls and flops with the unit costs above.
    With N = 3n and f = ``fold_length(sample_every)``:

    * stage body, per step: ``_STAGE_STEP_S`` and four sparse products with
      ``A``, 8 (2 nnz + 7 n) flops (``nnz`` counts the stored entries of L;
      ``A`` stores at most two copies of L and seven diagonals of I_n);
    * recurrence set-up, in matrix-product flops: one RK4 step on N identity
      and n + 3 forcing columns (8 N^2 (N + n + 3)), f - 1 products for the
      block forcing (2 N^2 (n + 3) each) and M^f by squaring (4 N^3 log2 f);
    * recurrence, per block: ``_BLOCK_CALLS`` calls and one N x N
      matrix-vector product (2 N^2 flops); per step, 6 N + 30 flops for
      the vanishing terms and their block forcing.

    The set-up grows as n^3 and the stage body as nnz per step, so the
    recurrence wins for small graphs over long horizons (the builtins: 100x
    faster) and loses for large graphs over short ones (a 600-agent tree over
    1000 steps: set-up about 2 s against 0.09 s for the stage body).
    """
    N = 3 * n
    f = fold_length(sample_every)
    stage = n_steps * (_STAGE_STEP_S + 8 * (2 * nnz + 7 * n) * _SPARSE_FLOP_S)
    setup_flops = 8 * N * N * (N + n + 3) + 2 * N * N * (n + 3) * (f - 1) \
        + 4 * N ** 3 * math.log2(f)
    recurrence = setup_flops * _MATMUL_FLOP_S \
        + (n_steps // f) * (_BLOCK_CALLS * _CALL_S + 2 * N * N * _MATVEC_FLOP_S) \
        + n_steps * (6 * N + 30) * _MATVEC_FLOP_S
    return recurrence < stage


def _step_terms(profile, dt, k0, k1):
    """Segment index of steps k0 .. k1-1 (the switching rule) and the scalar
    vanishing term at each step's start, midpoint and end, one row per step."""
    t = np.arange(k0, k1) * dt
    seg = np.searchsorted(profile.starts[1:] - 0.25 * dt, t, side="right")
    ts = t[:, None] + np.array([0.0, 0.5, 1.0]) * dt
    return seg, profile.vanishing(ts, seg[:, None])


def _linear_rk4_step(A, Z, F0, Fh, F1, h):
    """One classical RK4 step of z' = A z + f(t), column by column; F0, Fh
    and F1 hold f at the step's start, midpoint and end."""
    k1 = A @ Z + F0
    k2 = A @ (Z + (0.5 * h) * k1) + Fh
    k3 = A @ (Z + (0.5 * h) * k2) + Fh
    k4 = A @ (Z + h * k3) + F1
    return Z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_stage(A, c_E, z0, profile, dt, n_steps, sample_every, out):
    """The stage body: one ``_linear_rk4_step`` per time step.

    ``A`` is the 3n x 3n system matrix, dense or sparse.  Writes every
    sample_every-th state into ``out`` and returns the number of finite
    samples written; fewer than out.shape[0] means the state went non-finite
    at the first missing sample.
    """
    n = profile.n_agents
    # E base per segment, and E 1 for the scalar term that reaches every agent
    forcing = (c_E[None, :, None] * profile.bases[:, None, :]).reshape(-1, 3 * n)
    e = np.repeat(c_E, n)
    z = z0.copy()
    out[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, _CHUNK_STEPS):
            k1 = min(k0 + _CHUNK_STEPS, n_steps)
            seg, s = _step_terms(profile, dt, k0, k1)
            for k in range(k0, k1):
                base = forcing[seg[k - k0]]
                s0, sh, s1 = s[k - k0]
                z = _linear_rk4_step(A, z, base + s0 * e, base + sh * e, base + s1 * e, dt)
                if (k + 1) % sample_every == 0:
                    row = (k + 1) // sample_every
                    if not np.isfinite(z).all():
                        return row
                    out[row] = z
    return out.shape[0]


def _rk4_affine(A, c_E, z0, profile, dt, n_steps, sample_every, out):
    """The recurrence: same contract and switching rule as ``_rk4_stage``;
    ``A`` is dense."""
    N = A.shape[0]
    n = N // 3
    E = np.kron(c_E[:, None], np.eye(n))
    f = fold_length(sample_every)
    blocks_per_sample = sample_every // f
    n_blocks = n_steps // f

    # M: one step from identity columns, unforced; D = [Cb | c0 ch c1]: one
    # step from zero columns forced by E and, at one stage each, by E 1 (the
    # scalar vanishing term reaches every agent)
    M = _linear_rk4_step(A, np.eye(N), 0.0, 0.0, 0.0, dt)
    forcing = np.zeros((3, N, n + 3))
    forcing[:, :, :n] = E
    forcing[range(3), :, range(n, n + 3)] = E.sum(axis=1)
    D = _linear_rk4_step(A, np.zeros((N, n + 3)), *forcing, dt)

    # block of f steps: z_f = M^f z_0 + sum_j M^(f-1-j) D [base_j; s_j]
    W = np.empty((f, N, n + 3))
    W[f - 1] = D
    for j in range(f - 2, -1, -1):
        W[j] = M @ W[j + 1]
    M_block = np.linalg.matrix_power(M, f)
    G = W[:, :, n:].transpose(1, 0, 2).reshape(N, 3 * f)
    base_forcing = profile.bases @ W[:, :, :n].sum(axis=0).T

    z = z0.copy()
    out[0] = z
    chunk = max(1, _CHUNK_STEPS // f)
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, n_blocks, chunk):
            b1 = min(b0 + chunk, n_blocks)
            seg, s = _step_terms(profile, dt, b0 * f, b1 * f)
            seg = seg.reshape(-1, f)
            F = s.reshape(-1, 3 * f) @ G.T + base_forcing[seg[:, 0]]
            for i in np.flatnonzero(seg[:, 0] != seg[:, -1]):
                # a switch strictly inside the block: build its forcing step by step
                w = np.zeros(N)
                for j in range(f):
                    w = M @ w + D @ np.concatenate([profile.bases[seg[i, j]], s[i * f + j]])
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


def _dense_system(C_L, C_I, L):
    """``A = kron(C_L, L) + kron(C_I, I_n)`` as a dense array."""
    return np.kron(C_L, L) + np.kron(C_I, np.eye(L.shape[0]))


def _csr_system(C_L, C_I, L):
    """``A`` as a ``scipy.sparse.csr_array``.

    ``scipy.sparse`` is imported here, not at module level: importing it adds
    tens of milliseconds and about 2 MiB to every process, and runs that take
    the recurrence (the builtins) never need it."""
    from scipy import sparse

    return (sparse.kron(C_L, sparse.csr_array(L))
            + sparse.kron(C_I, sparse.eye_array(L.shape[0]))).tocsr()


def rk4_closed_loop(C_L, C_I, c_E, L, z0, profile, dt, n_steps, sample_every, out):
    """Step z' = A z + E d(t) with ``A = kron(C_L, L) + kron(C_I, I_n)``,
    ``E = kron(c_E, I_n)`` and d the ``DisturbanceProfile`` ``profile`` over
    ``n_steps`` steps of ``dt``: the recurrence on a dense ``A`` or the stage
    body on a CSR ``A``, whichever ``prefer_recurrence`` estimates cheaper.

    Writes every sample_every-th state into ``out`` and returns the number of
    finite samples written; fewer than out.shape[0] means the state went
    non-finite at the first missing sample.
    """
    args = (z0, profile, dt, n_steps, sample_every, out)
    if prefer_recurrence(L.shape[0], np.count_nonzero(L), n_steps, sample_every):
        return _rk4_affine(_dense_system(C_L, C_I, L), c_E, *args)
    return _rk4_stage(_csr_system(C_L, C_I, L), c_E, *args)
