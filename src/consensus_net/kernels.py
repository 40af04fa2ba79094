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

* the recurrence (``_rk4_recurrence``, dense or CSR operator) uses that one
  RK4 step of a linear system is exactly
  ``z+ = M z + Cb base + c0 s(t) + ch s(t + h/2) + c1 s(t + h)``.  ``M``
  (``_step_operator``) comes from applying the step to the identity columns
  of ``A``, and ``Cb base`` and ``c*`` from applying it to zero columns
  under the forcing ``E base`` of each segment and ``E 1``; f steps are
  folded into one block operator ``M^f``.  The storage of ``A`` decides
  only the fold.  A dense ``M`` folds ``fold_length`` steps, and up to
  ``_DOUBLING_MAX_N`` states (30 agents) a chunk of its blocks is stepped by
  recursive doubling (``_double_blocks``): ceil(log2 B) products with the
  powers ``M^f``, ``M^(2f)``, ``M^(4f)``, ... give all B block ends; above
  it the blocks are stepped one at a time.  Set-up costs O((3n)^3) flops a
  power.  A CSR
  ``M`` serves graphs that contain a spanning tree, which are typically
  sparse (a tree has n - 1 edges), and so are ``M`` and its first powers:
  ``_sparse_fold`` squares its way towards ``M^fold_length`` and keeps the
  last power on the way whose exponent divides ``sample_every``, while the
  powers store at most ``sparsity.SPARSE_MAX_FILL`` (5 %) of the (3n)^2
  entries and their set-up can still pay for itself in the run's block
  products, and the blocks are stepped one at a time.  On the benchmark's
  600-agent tree, ``M`` stores 13.8k entries and ``M^10`` 38k (1.2 %); 1000
  steps fold 10 at a time, through M^2, M^4 and M^5, and take about 0.015 s,
  against 0.12 s for the stage body.  Near overflow (``_TRUSTED_MAGNITUDE``)
  the stage body replays the chunk, for either storage.
* the stage body (``_rk4_stage``) takes that step once per time step on a
  CSR ``A``, each ``A @ z`` in O(nnz); it runs where even ``M`` stores more
  than ``sparsity.SPARSE_MAX_FILL`` of its entries.

``prefer_recurrence`` chooses a dense or a CSR ``A``, from L stored either
way, by an operation-count estimate from n, L's stored entries, the steps,
``sample_every`` and the segments: the dense recurrence for small graphs
over long horizons, a CSR path for large graphs over short ones.

Switching rule, shared by both paths through ``_step_terms``: step k
(t = k*dt) uses the last segment whose start satisfies ``t >= start - dt/4``,
and keeps it for all four stages.  A stage landing exactly on a switch time
still sees the old segment; the step starting at the switch sees the new one
(right-continuous switching aligned to the step grid).
"""

from __future__ import annotations

import math

import numpy as np

from . import sparsity

#: the recurrence folds at most this many steps into one block operator
MAX_FOLD = 100

#: steps whose disturbance terms are evaluated together; bounds the
#: transient arrays of all paths to a few MiB (4096 steps raised the
#: builtins' peak RSS by about 1 MiB)
_CHUNK_STEPS = 2048

#: numpy calls per block of the recurrence's plain loop; the estimate
#: charges as many per pass of its doubling (``_block_seconds``)
_BLOCK_CALLS = 4

#: the most states N = 3n whose dense recurrence steps its blocks by
#: doubling (``_double_blocks``); above it the blocks are stepped one at a
#: time.  A chunk there holds under 65 blocks (``_chunk_blocks``), and at
#: N = 120 (36 blocks) doubling and loop took the same time
_DOUBLING_MAX_N = 90

#: most multiply-adds (m n k) of one matrix product of the recurrence
#: (``_matmul_rows``, and each pass of the doubling).  OpenBLAS runs
#: products this small on one thread; larger ones are split across its
#: thread pool, and on a 2-vCPU host such a product can stall about 16 ms
#: per call (a 170 x 180 by 180 x 180 product: 16 ms in some processes
#: against 0.2 ms in others)
_GEMM_MAX_MNK = 2 ** 19

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

#: cost of forming one stored entry of a power of ``M`` by a CSR product, in
#: units of one stored entry of a block product in the run: 32 ns against
#: 1.3 ns, measured on the 600-agent tree over the products M^2, M^4, M^5
#: and M^10 (135k entries in 4.4 ms) and 100 blocks of M^10 (38k entries,
#: 50 us each)
_PRODUCT_ENTRY_COST = 24

#: the recurrence trusts a sample only up to this magnitude, far
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


def prefer_recurrence(n: int, nnz: int, n_steps: int, sample_every: int,
                      segments: int) -> bool:
    """Whether the recurrence is estimated to run faster than the stage body.

    The estimate weighs numpy calls and flops with the unit costs above.
    With N = 3n, f = ``fold_length(sample_every)`` and B the blocks of one
    chunk (``_chunk_blocks``, at most the run's n_steps / f):

    * stage body, per step: ``_STAGE_STEP_S`` and four sparse products with
      ``A``, 8 (2 nnz + 7 n) flops (``nnz`` counts the stored entries of L;
      ``A`` stores at most two copies of L and seven diagonals of I_n);
    * recurrence set-up, in matrix-product flops: one RK4 step on N identity
      and m + 3 forcing columns, m = ``segments`` (8 N^2 (N + m + 3)),
      f - 1 products for the block forcing (2 N^2 (m + 3) each), M^f by
      squaring (4 N^3 log2 f) and 2 N^3 for each power of M^f that steps
      the blocks (the doubling's ceil(log2 B), the loop's M^f alone);
    * recurrence, per block: ``_block_seconds(N, B)``; per step, 6 N + 30
      flops for the vanishing terms and their block forcing.

    The set-up grows as n^3 and the stage body as nnz per step, so the
    recurrence wins for small graphs over long horizons (the builtins: 100x
    faster) and loses for large graphs over short ones (a 600-agent tree over
    1000 steps: set-up about 2 s against 0.12 s for the stage body).  When it
    loses, the recurrence usually runs on a CSR operator, which is cheaper
    still than the stage body (0.015 s on that tree); the estimate does not
    model it.
    """
    N = 3 * n
    f = fold_length(sample_every)
    doubling = N <= _DOUBLING_MAX_N
    B = min(n_steps // f, _chunk_blocks(N, f, doubling))
    powers = max(1, doubling * (B - 1).bit_length())
    stage = n_steps * (_STAGE_STEP_S + 8 * (2 * nnz + 7 * n) * _SPARSE_FLOP_S)
    setup_flops = 8 * N * N * (N + segments + 3) + 2 * N * N * (segments + 3) * (f - 1) \
        + 4 * N ** 3 * math.log2(f) + 2 * N ** 3 * powers
    recurrence = setup_flops * _MATMUL_FLOP_S + (n_steps // f) * _block_seconds(N, B) \
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


def _sparse_fold(M, sample_every, n_steps):
    """Fold length f and ``M^f`` of the recurrence on a CSR ``M``.

    Powers of ``M`` are formed by squaring, from the leading bit of
    F = ``fold_length(sample_every)`` down: each further bit squares the
    power, and a set bit then multiplies it by ``M`` (M^10 = ((M^2)^2 M)^2),
    so no power above F is formed.  The powers whose exponent divides
    ``sample_every`` are the candidate folds, on whose block boundaries
    samples fall.  The search moves on from the current fold d to the next
    candidate d', c products away, only while
    ``_PRODUCT_ENTRY_COST`` c < n_steps (1/d - 1/d'): M is near the identity,
    its diagonal nonzero, so each further power stores at least the entries
    of ``M^d``, and the run's block products save at most n_steps
    (1/d - 1/d') times that many.  Over 100 steps sampled every 10, the
    benchmark's warm-up, that keeps the fold 2.  The search stops at the
    first power whose stored entries pass ``sparsity.SPARSE_MAX_FILL`` of
    N^2, keeping the fold before it.  Only the current power and ``M^f`` are
    held.
    """
    cap = sparsity.SPARSE_MAX_FILL * M.shape[0] ** 2
    exponents = [1]
    for bit in bin(fold_length(sample_every))[3:]:
        exponents.append(2 * exponents[-1])
        if bit == "1":
            exponents.append(exponents[-1] + 1)
    # power is M^exponents[at], and M^f the last candidate formed
    f, M_f, power, at = 1, M, M, 0
    for i in [i for i, k in enumerate(exponents) if i and sample_every % k == 0]:
        if _PRODUCT_ENTRY_COST * (i - at) >= n_steps * (1 / f - 1 / exponents[i]):
            break
        for k in exponents[at + 1:i + 1]:
            power = power @ (M if k % 2 else power)
            if power.nnz > cap:
                return f, M_f
        f, M_f, at = exponents[i], power, i
    return f, M_f


def _chunk_blocks(N, f, doubling):
    """Blocks per chunk of the recurrence on N states folding f steps: those
    of ``_CHUNK_STEPS`` steps, and where the doubling steps them at most
    ``_GEMM_MAX_MNK // N^2``, so that each of its passes is one product
    (2,048 blocks on the builtins sampled every step, 64 at N = 90)."""
    blocks = max(1, _CHUNK_STEPS // f)
    return min(blocks, _GEMM_MAX_MNK // (N * N)) if doubling else blocks


def _block_seconds(N, B):
    """Estimated seconds per block of the dense recurrence on an N x N
    block operator over chunks of B blocks.  The plain block loop costs
    ``_BLOCK_CALLS`` calls and one matrix-vector product a block.  Up to
    ``_DOUBLING_MAX_N`` the doubling costs, per chunk, ``_BLOCK_CALLS``
    calls for the chunk's start and ceil(log2 B) passes, each of as many
    calls, at most 2 B N^2 matrix-product flops and 4 B N elementwise ones
    (the product's rows written, then added).  Timed over whole chunks of
    random M near the identity (best of 30, N from 6 to 90, f from 1 to
    100, three processes on a shared 2-vCPU host), the doubling took 0.44
    to 1.04 times its estimate and the plain loop 0.35 to 0.87 times its
    own; the doubling ran 1.3 (N = 90) to 35 (N = 6, 2,048 blocks) times
    faster than the loop."""
    if N > _DOUBLING_MAX_N:
        return _BLOCK_CALLS * _CALL_S + 2 * N * N * _MATVEC_FLOP_S
    passes = (B - 1).bit_length()
    pass_s = _BLOCK_CALLS * _CALL_S + B * N * (2 * N * _MATMUL_FLOP_S + 4 * _MATVEC_FLOP_S)
    return (_BLOCK_CALLS * _CALL_S + passes * pass_s) / B


def _doubling_powers(M_block, B):
    """``(M_block^d)^T`` for d = 1, 2, 4, ... below B (d = 1 alone for one
    block), each the square of the one before."""
    powers = [M_block.T]
    for _ in range(1, (B - 1).bit_length()):
        powers.append(powers[-1] @ powers[-1])
    return powers


def _matmul_rows(a, b, out=None):
    """``a @ b``, into ``out`` if given: one product per piece of rows of
    ``a`` of at most ``_GEMM_MAX_MNK`` multiply-adds."""
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    rows = max(1, _GEMM_MAX_MNK // (a.shape[1] * b.shape[1]))
    for r in range(0, a.shape[0], rows):
        np.matmul(a[r:r + rows], b, out=out[r:r + rows])
    return out


def _double_blocks(powers, F, z):
    """Overwrite each row of ``F`` (one per block) with the block end of
    ``z_(i+1) = M_block z_i + F[i]`` from ``z_0 = z``, by recursive doubling
    (Kogge & Stone 1973); ``powers`` are ``_doubling_powers`` of ``M_block``
    over at least len(F) blocks.  With ``M_block z`` added to F[0], row i is
    the sum of ``M_block^(i-j) F[j]`` over rows j <= i; after the pass with
    d = 1, 2, 4, ... each row holds that sum over its last 2d rows, so
    ceil(log2 len(F)) passes complete it."""
    F[0] += z @ powers[0]
    for k, P in enumerate(powers):
        if 1 << k >= len(F):
            break
        F[1 << k:] += F[:-(1 << k)] @ P


def _rk4_recurrence(A, M, c_E, z0, profile, dt, n_steps, sample_every, out):
    """The recurrence: same contract and switching rule as ``_rk4_stage``;
    ``M`` is one step's operator of ``A`` (``_step_operator``), both dense or
    both CSR.

    Steps blocks of f steps: ``z_f = M^f z_0 + sum_j M^(f-1-j) D [e_j; s_j]``,
    with ``D`` one step from zero columns forced by ``E base`` of each
    segment and by ``E 1`` (``_forced_step``), ``e_j`` the unit vector of
    step j's segment and ``s_j`` its three vanishing terms.  The storage
    decides only the fold: a dense ``M`` folds ``fold_length`` steps, and
    up to ``_DOUBLING_MAX_N`` states its blocks are stepped by doubling
    (``_double_blocks``); a CSR ``M`` folds as ``_sparse_fold`` finds.  Other
    blocks are stepped one at a time.  On the
    first chunk with a sample that is non-finite or above
    ``_TRUSTED_MAGNITUDE``, the stage body replays the run from that chunk's
    first step and its count is returned: the RK4 stages can overflow where
    ``M^f z`` is still finite.
    """
    N = M.shape[0]
    m = len(profile.bases)
    if isinstance(M, np.ndarray):
        f, doubling = fold_length(sample_every), N <= _DOUBLING_MAX_N
        M_f = np.linalg.matrix_power(M, f)
    else:
        (f, M_f), doubling = _sparse_fold(M, sample_every, n_steps), False
    D = _forced_step(A, _segment_forcing(c_E, profile).T, np.repeat(c_E, profile.n_agents), dt)
    blocks_per_sample = sample_every // f
    n_blocks = n_steps // f

    W = np.empty((f, N, m + 3))
    W[f - 1] = D
    for j in range(f - 2, -1, -1):
        W[j] = M @ W[j + 1]
    G = W[:, :, m:].transpose(1, 0, 2).reshape(N, 3 * f)
    base_forcing = W[:, :, :m].sum(axis=0).T

    z = z0.copy()
    out[0] = z
    chunk = _chunk_blocks(N, f, doubling)
    with np.errstate(over="ignore", invalid="ignore"):
        if doubling:
            # powers of a diverging M^f may overflow: their chunk replays
            powers = _doubling_powers(M_f, min(chunk, n_blocks))
        for b0 in range(0, n_blocks, chunk):
            b1 = min(b0 + chunk, n_blocks)
            z_start = z
            seg, s = _step_terms(profile, dt, b0 * f, b1 * f)
            seg = seg.reshape(-1, f)
            F = _matmul_rows(s.reshape(-1, 3 * f), G.T) + base_forcing[seg[:, 0]]
            for i in np.flatnonzero(seg[:, 0] != seg[:, -1]):
                # a switch strictly inside the block: build its forcing step by step
                w = np.zeros(N)
                for j in range(f):
                    w = M @ w + D @ np.concatenate([np.arange(m) == seg[i, j], s[i * f + j]])
                F[i] = w
            # block ends overwrite the forcing
            if doubling:
                _double_blocks(powers, F, z)
                z = F[-1].copy()
            else:
                for i in range(b1 - b0):
                    z = F[i] = M_f @ z + F[i]
            # the first block of the chunk that ends on a sample
            i0 = -(b0 + 1) % blocks_per_sample
            first = (b0 + i0 + 1) // blocks_per_sample
            rows = out[first:b1 // blocks_per_sample + 1]
            rows[:] = F[i0::blocks_per_sample]
            if not (np.abs(rows) <= _TRUSTED_MAGNITUDE).all():
                return _rk4_stage(A, c_E, z_start, profile, dt, n_steps, sample_every, out,
                                  k_start=b0 * f)
    return out.shape[0]


def _dense_system(C_L, C_I, L):
    """``A = kron(C_L, L) + kron(C_I, I_n)`` as a dense array."""
    return np.kron(C_L, sparsity.dense(L)) + np.kron(C_I, np.eye(L.shape[0]))


def _csr_system(C_L, C_I, L):
    """``A`` as a ``scipy.sparse.csr_array``, from L stored dense or CSR (a
    sparse C_L makes ``kron`` return an array, not a matrix, for a dense L).

    ``scipy.sparse`` is imported here, not at module level: importing it adds
    tens of milliseconds and about 2 MiB to every process, and runs that take
    the recurrence (the builtins) never need it."""
    from scipy import sparse

    return (sparse.kron(sparse.coo_array(C_L), L)
            + sparse.kron(C_I, sparse.eye_array(L.shape[0]))).tocsr()


def _step_operator(A, dt):
    """One RK4 step's operator ``M`` of ``A``, stored as ``A`` is (dense or
    CSR): the step applied to the identity columns, unforced."""
    if isinstance(A, np.ndarray):
        identity = np.eye(A.shape[0])
    else:
        from scipy import sparse

        identity = sparse.eye_array(A.shape[0], format="csr")
    return _linear_rk4_step(A, identity, 0.0, 0.0, 0.0, dt)


def rk4_closed_loop(C_L, C_I, c_E, L, z0, profile, dt, n_steps, sample_every, out):
    """Step z' = A z + E d(t) with ``A = kron(C_L, L) + kron(C_I, I_n)``,
    ``E = kron(c_E, I_n)`` and d the ``DisturbanceProfile`` ``profile`` over
    ``n_steps`` steps of ``dt``: the recurrence on a dense ``A`` where
    ``prefer_recurrence`` estimates it cheaper, else on a CSR ``A``, or the
    stage body when even one step's CSR operator ``M`` stores more than
    ``sparsity.SPARSE_MAX_FILL`` of its entries.

    Writes every sample_every-th state into ``out`` and returns the number of
    finite samples written; fewer than out.shape[0] means the state went
    non-finite at the first missing sample.
    """
    args = (z0, profile, dt, n_steps, sample_every, out)
    nnz = np.count_nonzero(L) if isinstance(L, np.ndarray) else L.nnz
    if prefer_recurrence(L.shape[0], nnz, n_steps, sample_every, len(profile.bases)):
        A = _dense_system(C_L, C_I, L)
        return _rk4_recurrence(A, _step_operator(A, dt), c_E, *args)
    A = _csr_system(C_L, C_I, L)
    M = _step_operator(A, dt)
    if M.nnz > sparsity.SPARSE_MAX_FILL * A.shape[0] ** 2:
        return _rk4_stage(A, c_E, *args)
    return _rk4_recurrence(A, M, c_E, *args)
