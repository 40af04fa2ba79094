"""One classical RK4 integrator for both closed loops.

Both closed loops are linear in the stacked state z = (x, y, delta_hat):

    z' = A z + E (base + s(t) 1)

with ``A = kron(C_L, L) + kron(C_I, I_n)`` and ``E = kron(c_E, I_n)`` built
from the loop's coefficient blocks (``MatchedLoop.blocks`` /
``UnmatchedLoop.blocks``), and ``base`` and the scalar vanishing term s(t)
those of the active segment of the loop's ``DisturbanceProfile``
(``profile.bases`` and ``profile.vanishing``).  ``rk4_closed_loop`` steps
either loop one of three ways, all built on the same RK4 step
(``_linear_rk4_step``):

* the dense recurrence (``_rk4_affine``) uses that one RK4 step of a linear
  system is exactly
  ``z+ = M z + Cb base + c0 s(t) + ch s(t + h/2) + c1 s(t + h)``.  ``M``
  comes from applying the step to the identity columns of a dense ``A``,
  and ``Cb`` and ``c*`` from applying it to zero columns under the forcing
  ``E`` and ``E 1``; ``fold_length`` steps are folded into one block
  operator, so Python loops once per block (once per sample for
  ``sample_every`` up to 100).  Setting it up costs O((3n)^3) flops.
* the sparse recurrence (``_rk4_sparse``) is the same recurrence on a CSR
  ``A``: graphs that contain a spanning tree are typically sparse (a tree
  has n - 1 edges), and so are ``M`` and its first powers.  Its forcing
  columns are ``E base`` of each segment rather than E's n columns, and
  ``_sparse_fold`` picks the fold: powers of ``M`` one product at a time,
  while they store at most ``_SPARSE_MAX_FILL`` of the (3n)^2 entries and
  their set-up stays below the run's block products.  On the benchmark's
  600-agent tree, ``M`` stores 13.7k entries and ``M^5`` 33k to 38k (1.0 to
  1.2 %); 1000 steps fold 5 at a time and take about 0.03 s, against
  0.12 s for the stage body.
  Near overflow the stage body replays the chunk (``_TRUSTED_MAGNITUDE``).
* the stage body (``_rk4_stage``) takes that step once per time step on a
  CSR ``A``, each ``A @ z`` in O(nnz); it runs where even ``M`` stores more
  than ``_SPARSE_MAX_FILL`` of its entries.

``prefer_recurrence`` chooses the dense recurrence or a CSR path with an
operation-count estimate from n, the stored entries of L, the step count and
``sample_every``: the dense recurrence for small graphs over long horizons,
a CSR path for large graphs over short ones.

Switching rule, shared by all three paths through ``_step_terms``: step k
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

#: largest share of N^2 = (3n)^2 entries that the sparse recurrence's
#: operators may store.  Measured on the same host at N = 1800: one product
#: with a CSR matrix of 5 % fill takes about 155 us against 116 us for one
#: step of the stage body, so even an unfolded ``M`` at the cap costs about
#: one stage step, and every fold of 2 or more is cheaper; at N = 600 a
#: 10 % fill still beats the stage step (34 against 42 us)
_SPARSE_MAX_FILL = 0.05

#: cost of forming one stored entry of a power of ``M`` (a CSR product and
#: its block forcing), in units of one stored entry of a block product in
#: the run: about 42 ns against 2.5 ns with the per-block overhead, measured
#: on the 600-agent tree, where M^k saturates at 33k entries
_PRODUCT_ENTRY_COST = 17

#: the sparse recurrence trusts a sample only up to this magnitude, far
#: below overflow: the RK4 stages of a diverging state overflow before
#: ``M^f z`` does, so beyond it the stage body decides where the run stops
_TRUSTED_MAGNITUDE = math.sqrt(np.finfo(np.float64).max)


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
    1000 steps: set-up about 2 s against 0.12 s for the stage body).  When it
    loses, the sparse recurrence usually runs, which is cheaper still than
    the stage body (0.03 s on that tree); the estimate does not model it.
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


def _segment_forcing(c_E, profile):
    """``E base`` for each segment of ``profile``, one row per segment."""
    return (c_E[None, :, None] * profile.bases[:, None, :]).reshape(len(profile.bases), -1)


def _rk4_stage(A, c_E, z0, profile, dt, n_steps, sample_every, out, k_start=0):
    """The stage body: one ``_linear_rk4_step`` per time step.

    ``A`` is the 3n x 3n system matrix, dense or sparse, and ``z0`` the state
    at step ``k_start`` (the initial state, written as out[0], when 0).
    Writes every sample_every-th state into ``out`` and returns the number of
    finite samples written; fewer than out.shape[0] means the state went
    non-finite at the first missing sample.
    """
    n = profile.n_agents
    # E base per segment, and E 1 for the scalar term that reaches every agent
    forcing = _segment_forcing(c_E, profile)
    e = np.repeat(c_E, n)
    z = z0.copy()
    if not k_start:
        out[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(k_start, n_steps, _CHUNK_STEPS):
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


def _forced_step(A, columns, scalar, dt):
    """``D = [Cb | c0 ch c1]``: one RK4 step from zero columns, forced by
    ``columns`` and, at one stage each, by ``scalar`` (``E 1``: the scalar
    vanishing term reaches every agent)."""
    N, m = columns.shape
    forcing = np.zeros((3, N, m + 3))
    forcing[:, :, :m] = columns
    forcing[range(3), :, range(m, m + 3)] = scalar
    return _linear_rk4_step(A, np.zeros((N, m + 3)), *forcing, dt)


def _rk4_affine(A, c_E, z0, profile, dt, n_steps, sample_every, out):
    """The dense recurrence: same contract and switching rule as
    ``_rk4_stage``; ``A`` is dense."""
    N = A.shape[0]
    E = np.kron(c_E[:, None], np.eye(N // 3))
    f = fold_length(sample_every)
    # M: one step from identity columns, unforced; D forced by E's columns
    M = _linear_rk4_step(A, np.eye(N), 0.0, 0.0, 0.0, dt)
    D = _forced_step(A, E, E.sum(axis=1), dt)
    return _affine_blocks(M, D, np.linalg.matrix_power(M, f), f, profile.bases,
                          z0, profile, dt, n_steps, sample_every, out)


def _sparse_fold(M, sample_every, n_steps):
    """Fold length f and ``M^f`` for the sparse recurrence.

    Powers of the CSR ``M`` are formed one product at a time, up to
    ``fold_length(sample_every)``; the search stops at the first power whose
    stored entries pass ``_SPARSE_MAX_FILL`` of N^2, and after the first
    whose set-up (``_PRODUCT_ENTRY_COST`` per stored entry of every power
    formed so far) outweighs the run's block products at that fold.  f is
    the largest divisor of ``sample_every`` not above the last power kept,
    so samples fall on block boundaries.  Only the current power and
    ``M^f`` are held.
    """
    cap = _SPARSE_MAX_FILL * M.shape[0] ** 2
    f, M_f, power, formed = 1, M, M, 0
    for k in range(2, fold_length(sample_every) + 1):
        power = power @ M
        if power.nnz > cap:
            break
        if sample_every % k == 0:
            f, M_f = k, power
        formed += power.nnz
        if _PRODUCT_ENTRY_COST * formed > n_steps / k * power.nnz:
            break
    return f, M_f


def _rk4_sparse(A, M, c_E, z0, profile, dt, n_steps, sample_every, out):
    """The sparse recurrence: same contract and switching rule as
    ``_rk4_stage``; ``A`` and its one-step operator ``M`` are CSR.

    The forcing columns are ``E base`` of each segment, not E's n columns,
    so set-up stays O(nnz).  On the first chunk with a non-finite sample (or
    one above ``_TRUSTED_MAGNITUDE``), the stage body replays that chunk from
    its first state and its count is returned: the RK4 stages can overflow
    where ``M^f z`` is still finite.
    """
    f, M_f = _sparse_fold(M, sample_every, n_steps)
    D = _forced_step(A, _segment_forcing(c_E, profile).T, np.repeat(c_E, profile.n_agents), dt)

    def replay(k, z):
        return _rk4_stage(A, c_E, z, profile, dt, n_steps, sample_every, out, k_start=k)

    return _affine_blocks(M, D, M_f, f, np.eye(len(profile.bases)), z0, profile, dt,
                          n_steps, sample_every, out, replay)


def _affine_blocks(M, D, M_block, f, coords, z0, profile, dt, n_steps, sample_every, out,
                   replay=None):
    """Step the recurrence in blocks of f steps: ``z_f = M^f z_0 + sum_j
    M^(f-1-j) D [c_j; s_j]``, with ``M_block`` = M^f, ``c_j`` the row of
    ``coords`` for step j's segment (D's first columns) and ``s_j`` its three
    vanishing terms (D's last three).  Writes samples as ``_rk4_stage`` does;
    on the first chunk of blocks with a non-finite sample, returns
    ``replay(first step, first state)`` of that chunk if given, else the
    recurrence's own count.  With ``replay``, a sample above
    ``_TRUSTED_MAGNITUDE`` counts as non-finite.
    """
    N = M.shape[0]
    m = coords.shape[1]
    blocks_per_sample = sample_every // f
    n_blocks = n_steps // f

    W = np.empty((f, N, m + 3))
    W[f - 1] = D
    for j in range(f - 2, -1, -1):
        W[j] = M @ W[j + 1]
    G = W[:, :, m:].transpose(1, 0, 2).reshape(N, 3 * f)
    base_forcing = coords @ W[:, :, :m].sum(axis=0).T

    z = z0.copy()
    out[0] = z
    chunk = max(1, _CHUNK_STEPS // f)
    limit = np.finfo(np.float64).max if replay is None else _TRUSTED_MAGNITUDE
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, n_blocks, chunk):
            b1 = min(b0 + chunk, n_blocks)
            z_start = z
            seg, s = _step_terms(profile, dt, b0 * f, b1 * f)
            seg = seg.reshape(-1, f)
            F = s.reshape(-1, 3 * f) @ G.T + base_forcing[seg[:, 0]]
            for i in np.flatnonzero(seg[:, 0] != seg[:, -1]):
                # a switch strictly inside the block: build its forcing step by step
                w = np.zeros(N)
                for j in range(f):
                    w = M @ w + D @ np.concatenate([coords[seg[i, j]], s[i * f + j]])
                F[i] = w
            for i in range(b1 - b0):
                z = M_block @ z + F[i]
                b = b0 + i + 1
                if b % blocks_per_sample == 0:
                    out[b // blocks_per_sample] = z
            first, last = b0 // blocks_per_sample + 1, b1 // blocks_per_sample
            bad = np.flatnonzero(~(np.abs(out[first:last + 1]) <= limit).all(axis=1))
            if bad.size:
                if replay is not None:
                    return replay(b0 * f, z_start)
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


def _step_operator(A, dt):
    """One RK4 step's operator ``M`` of the CSR ``A``: the step applied to
    the identity columns, unforced."""
    from scipy import sparse

    return _linear_rk4_step(A, sparse.eye_array(A.shape[0], format="csr"), 0.0, 0.0, 0.0, dt)


def rk4_closed_loop(C_L, C_I, c_E, L, z0, profile, dt, n_steps, sample_every, out):
    """Step z' = A z + E d(t) with ``A = kron(C_L, L) + kron(C_I, I_n)``,
    ``E = kron(c_E, I_n)`` and d the ``DisturbanceProfile`` ``profile`` over
    ``n_steps`` steps of ``dt``: the dense recurrence where
    ``prefer_recurrence`` estimates it cheaper, else the sparse recurrence on
    a CSR ``A``, or the stage body when even one step's operator ``M`` stores
    more than ``_SPARSE_MAX_FILL`` of its entries.

    Writes every sample_every-th state into ``out`` and returns the number of
    finite samples written; fewer than out.shape[0] means the state went
    non-finite at the first missing sample.
    """
    args = (z0, profile, dt, n_steps, sample_every, out)
    if prefer_recurrence(L.shape[0], np.count_nonzero(L), n_steps, sample_every):
        return _rk4_affine(_dense_system(C_L, C_I, L), c_E, *args)
    A = _csr_system(C_L, C_I, L)
    M = _step_operator(A, dt)
    if M.nnz > _SPARSE_MAX_FILL * A.shape[0] ** 2:
        return _rk4_stage(A, c_E, *args)
    return _rk4_sparse(A, M, c_E, *args)
