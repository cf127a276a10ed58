"""Tiled forward and backward passes for smoothed cross-entropy that never
materialize the full |V| x N logit matrix.

The forward walks (token-block, vocab-block) tile pairs, computing each
V_B x N_B logit tile in one full-depth GEMM that reads panels of the
classifier and embedding matrices in place (no staged copies), then folds
the tile into each token's softmax normaliser by an online merge
(Milakov & Gimelshein, arXiv:1805.02867): a running max M and a running
sum S of exp(z - M), rescaled when M grows, and lse = M + log S after the
last tile. The backward recomputes tiles the same way from the inputs plus
the saved LSE vector; a backward tile adds only its softmax part, from
P = exp(z - lse), and one whose largest probability bound falls below the
filter threshold may be skipped entirely.

The tiles never see the target. The smoothed target
q_i = (1-beta) e_{x_i} + beta/|V| enters the loss and both gradients
linearly, and its uniform share is whole arrays: with the D-vector
u = (beta/|V|) sum_v C[:, v] (`_smoothing_row`), the forward's target
score starts as u @ E, and the backward's gradients start as their
uniform columns, -w u in every `grad_e` column and -(beta/|V|) w E 1 in
every `grad_c` column, before the tiles add into them. After the tiles
one per-token pass adds the (1-beta) share: (1-beta) C[:, x_i] . E_i to
the score, or -(1-beta) w times C[:, x_i] to `grad_e[:, i]` and E_i to
`grad_c[:, x_i]`.

Filtering is one number, `filter_epsilon`: 0 (the default) skips nothing.
It touches only the softmax part, so skipped tiles can never drop the
target part, whose magnitude does not shrink with the probabilities.

The plan is the one place a call's worker count is set: one `_TileRunner`
runs each pass's tiles on `plan.workers` threads (None: every CPU this
process may run on). Of k workers, worker w runs token blocks w, w + k,
w + 2k, ... in index order, each through its vocabulary blocks in index
order. Per-token state (the running max and sum, `grad_e` columns) needs
no locks, and each `grad_c[:, v-block]` takes its products in token-block
order through a per-vocabulary-block turn counter. Every sum therefore
runs in the same order as on one worker, and for given tile sizes results
are bit-identical for any `replace(plan, workers=k)`. While more than one
worker runs, numpy's OpenBLAS is held at one thread, so BLAS threads do
not compete with the workers.

Every GEMM goes through `dgemm`, c = alpha op(a) op(b) + beta c on the
ILP64 `cblas_dgemm` of numpy's own OpenBLAS. A logit tile is written with
beta 0; the backward adds its two products, with the uniform token weight
as alpha, straight into the gradients with beta 1: C_panel P into
`grad_e[:, token block]`, and E_panel P^T into `grad_c[:, vocab block]`
inside that block's turn. E, C and both gradients are stored
panel-contiguous (F-ordered D x N and D x |V|: each token's and each
vocabulary entry's D-vector is contiguous), so every operand is one
contiguous panel. Only where numpy's BLAS exports no such symbol does a
product go through a tracked full-depth chunk and a `+=` into the gradient.

Every tile-sized buffer (the logit tile, the forward's one N_B row) flows
through its worker's own TrackingAllocator, and the pass's MemoryStats
report the sum of the workers' peaks, which thread timing cannot move;
peak auxiliary bytes stay O(N_B*V_B) per tile in flight regardless of |V|
(plus D*max(N_B, V_B) for a staged product chunk).
The returned outputs and O(D) or O(N) temporaries are not tracked.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager, nullcontext

import numpy as np

from .memtrack import MemoryStats, TrackingAllocator
from .reference import (Gradients, LossOutput, _reduce, _validate, check_finite_loss,
                        token_weights)
from .tensors import (BlockPlan, DenseMatrix, TokenSequence,
                      plan_working_set_bytes, tiles_in_flight)

__all__ = ["blocked_forward", "blocked_backward", "loss_and_grad",
           "aux_bound_bytes"]


def aux_bound_bytes(plan: BlockPlan, n: int, v: int, d: int) -> int:
    """Ceiling for the peak auxiliary bytes of one engine call on `plan`:
    the tile working set times the tiles in flight (one per plan worker, at
    most one per token block), plus a fixed bookkeeping allowance. Without
    the accumulating kernel each tile also holds one staged D-row product
    chunk."""
    eff = plan.clamped(n, v)
    per_tile = plan_working_set_bytes(eff)
    if _cblas_dgemm() is None:
        per_tile += 8 * d * max(eff.n_block, eff.v_block)
    return tiles_in_flight(n, eff.n_block, eff.workers) * per_tile + 4096


def _smoothing_row(Ca, beta: float, v: int) -> np.ndarray:
    """(beta/|V|) * sum_v C[:, v]: the uniform share of the smoothed target
    seen from the embedding side, D floats."""
    return (beta / v) * Ca.sum(axis=1)


@functools.cache
def _blas_library():
    """numpy's multiarray extension opened with ctypes, whose symbol lookup
    covers the BLAS it links; None if it cannot be opened."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        return ctypes.CDLL(umath.__file__)
    except OSError:
        return None


@functools.cache
def _cblas_dgemm():
    """numpy's ILP64 `cblas_dgemm`, or None. Only a `64_`-suffixed symbol
    is used: the integer width of an unsuffixed one is unknown."""
    lib = _blas_library()
    if lib is None:
        return None
    for name in ("scipy_cblas_dgemm64_", "cblas_dgemm64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            enum, i64, f64, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
            fn.argtypes = [enum, enum, enum, i64, i64, i64,
                           f64, ptr, i64, ptr, i64, f64, ptr, i64]
            fn.restype = None
            return fn
    return None


_ROW_MAJOR, _COL_MAJOR, _NO_TRANS, _TRANS = 101, 102, 111, 112  # CBLAS enums


def _blas_layout(x, name: str) -> tuple[bool, int]:
    """(rows contiguous, leading dimension) under which BLAS reads the 2-D
    float64 array `x` in place. As in numpy's blasable-2d rule, the stride
    of an axis of extent 1 is never read, so that axis takes the smallest
    legal leading dimension instead."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 2
            and x.flags.aligned):
        raise ValueError(f"dgemm operand {name} must be an aligned 2-D float64 array")
    (r, c), (sr, sc) = x.shape, x.strides
    unit = False
    for rows, inner, outer, n_in, n_out in ((True, sc, sr, c, r), (False, sr, sc, r, c)):
        if inner == 8 or n_in == 1:
            unit = True
            if n_out == 1:
                return rows, max(1, n_in)
            if outer % 8 == 0 and outer >= 8 * max(1, n_in):
                return rows, outer // 8
    if not unit:
        raise ValueError(f"dgemm operand {name} has no unit stride (strides {x.strides})")
    raise ValueError(f"dgemm operand {name} has a leading dimension below its "
                     f"extent (shape {x.shape}, strides {x.strides})")


def dgemm(alpha, a, b, c, trans_a=0, trans_b=0, beta=0.0):
    """c = alpha * op(a) @ op(b) + beta * c, in place; returns `c`.

    The engine's only GEMM entry, on numpy's ILP64 `cblas_dgemm`. Every
    operand is read in place, so each needs one unit stride and a leading
    dimension that covers its other extent, and `c` must be writable;
    anything else raises ValueError before BLAS is called. Without the
    kernel, np.matmul writes `c`, so beta must be 0.
    """
    opa = a.T if trans_a else a
    opb = b.T if trans_b else b
    a_rows, lda = _blas_layout(opa, "a")
    b_rows, ldb = _blas_layout(opb, "b")
    c_rows, ldc = _blas_layout(c, "c")
    if not c.flags.writeable:
        raise ValueError("dgemm output c is read-only")
    (m, k), (k2, p) = opa.shape, opb.shape
    if k != k2 or c.shape != (m, p):
        raise ValueError(f"dgemm shapes {opa.shape} @ {opb.shape} -> {c.shape} do not match")
    kernel = _cblas_dgemm()
    if kernel is None:
        if beta != 0.0:
            raise ValueError("dgemm accumulates (beta != 0) only on an ILP64 cblas_dgemm")
        if c_rows:
            np.matmul(opa, opb, out=c)
        else:
            np.matmul(opb.T, opa.T, out=c.T)
        if alpha != 1.0:
            c *= alpha
        return c
    kernel(_ROW_MAJOR if c_rows else _COL_MAJOR,
           _NO_TRANS if a_rows == c_rows else _TRANS,
           _NO_TRANS if b_rows == c_rows else _TRANS,
           m, p, k, alpha, opa.ctypes.data, lda, opb.ctypes.data, ldb,
           beta, c.ctypes.data, ldc)
    return c


def _logit_tile(alloc, Ea, Ca, n0, nb, v0, vb):
    """tile[v, i] = sum_d C[d, v0+v] * E[d, n0+i], in one full-depth GEMM."""
    tile = alloc.empty((vb, nb), order="C")
    return dgemm(1.0, Ca[:, v0:v0 + vb], Ea[:, n0:n0 + nb], tile, trans_a=1)


@functools.cache
def _openblas_thread_calls():
    """(get, set) for numpy's OpenBLAS thread count, or None when numpy
    links a BLAS without them."""
    lib = _blas_library()
    if lib is None:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _OneBlasThread:
    """Holds numpy's OpenBLAS at one thread while any multi-worker tile run
    is in progress; the last run to end restores the count the first found.
    The count is process-wide, hence one shared holder."""

    def __init__(self):
        self._lock = threading.Lock()
        self._runs = 0
        self._saved = None

    @contextmanager
    def held(self):
        calls = _openblas_thread_calls()
        if calls is None:
            yield
            return
        get, set_ = calls
        with self._lock:
            if self._runs == 0:
                self._saved = get()
                set_(1)
            self._runs += 1
        try:
            yield
        finally:
            with self._lock:
                self._runs -= 1
                if self._runs == 0:
                    set_(self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()

# numpy allocates its ufunc buffers (8192 elements per operand by default)
# even for the same-dtype broadcast and strided in-place updates of the tile
# work, where they hold nothing; 16 elements keeps them out of the peak.
# numpy keeps the size per thread, so each worker thread sets its own and
# the caller's is never touched.
_UFUNC_BUFFER = 16


class _Abandoned(Exception):
    """Another worker failed; this one stops without adding more."""


class _TileRunner:
    """Runs every tile of one pass on up to `eff.workers` threads in one
    fixed order of accumulation, and keeps the pass's counters.

    Worker k runs token blocks k, k + in_flight, ... in index order, each
    through its vocabulary blocks in index order, so everything indexed by
    token needs no lock. Sums over token blocks (into `grad_c`) go through
    `wait_turn`/`pass_turn`: token block i may add into vocabulary block j
    once blocks 0..i-1 have passed it. A block waits only on lower blocks,
    and each worker takes its blocks in increasing order, so the waits
    cannot cycle.
    """

    def __init__(self, n: int, v: int, eff: BlockPlan):
        self.eff = eff
        self.n, self.v = n, v
        self.in_flight = tiles_in_flight(n, eff.n_block, eff.workers)
        self._cond = threading.Condition()
        self._turns = [0] * -(-v // eff.v_block)
        self._failed = False

    def wait_turn(self, i: int, j: int) -> None:
        with self._cond:
            self._cond.wait_for(lambda: self._turns[j] == i or self._failed)
            if self._failed:
                raise _Abandoned

    def pass_turn(self, j: int) -> None:
        with self._cond:
            self._turns[j] += 1
            self._cond.notify_all()

    def _work(self, k, alloc, run_tile, counts, errors) -> None:
        """Worker k: its token blocks, until another worker fails;
        run_tile returns True for a tile it skipped."""
        nbk, vbk = self.eff.n_block, self.eff.v_block
        np.setbufsize(_UFUNC_BUFFER)
        # overflowing logits are refused by each pass's own result check
        np.seterr(over="ignore", invalid="ignore")
        try:
            for i in range(k, -(-self.n // nbk), self.in_flight):
                if self._failed:
                    return
                n0 = i * nbk
                nb = min(nbk, self.n - n0)
                for j, v0 in enumerate(range(0, self.v, vbk)):
                    skipped = run_tile(alloc, i, n0, nb, j, v0, min(vbk, self.v - v0))
                    counts[1 if skipped else 0] += 1
        except _Abandoned:
            pass
        except BaseException as exc:
            errors.append(exc)
            self._abandon()

    def _abandon(self) -> None:
        """Stop every worker at its next turn or token block."""
        with self._cond:
            self._failed = True
            self._cond.notify_all()

    def run(self, run_tile) -> MemoryStats:
        """Run every tile on `in_flight` worker threads, each with its own
        allocator; return the tile counts and the sum of the workers' peaks."""
        # this module's name, read per pass
        allocs = [TrackingAllocator() for _ in range(self.in_flight)]
        counts = [[0, 0] for _ in allocs]
        errors: list[BaseException] = []
        threads = [threading.Thread(target=self._work, args=(k, a, run_tile, c, errors),
                                    name=f"smoothce-tiles-{k}")
                   for k, (a, c) in enumerate(zip(allocs, counts))]
        with _ONE_BLAS_THREAD.held() if self.in_flight > 1 else nullcontext():
            for t in threads:
                t.start()
            try:
                for t in threads:
                    t.join()
            except BaseException:  # interrupted: stop the workers first
                self._abandon()
                for t in threads:
                    t.join()
                raise
        if errors:
            raise errors[0]
        return MemoryStats(sum(a.peak_bytes for a in allocs), sum(c[0] for c in counts),
                           sum(c[1] for c in counts), self.in_flight)


def _columns(col: np.ndarray, k: int) -> np.ndarray:
    """A D x k F-ordered array whose every column is the D-vector `col`."""
    out = np.empty((col.size, k), order="F")
    out[:] = col[:, None]
    return out


def blocked_forward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                    plan: BlockPlan, *, reduction: str = "sum"):
    """Tiled smoothed cross-entropy forward pass on the plan's worker
    count; for given tile sizes the result does not depend on the count.

    Returns (LossOutput, MemoryStats); matches naive_forward per token while
    allocating only tile-sized transients. A token whose loss is not finite
    raises ValueError.
    """
    Ea, Ca, xa, n, v, _, _ = _validate(E, C, x, beta, reduction)
    runner = _TileRunner(n, v, plan.clamped(n, v))

    lse = np.full(n, -np.inf)  # running max M until the runner ends
    sums = np.zeros(n)  # running sum S of exp(z - M)

    def run_tile(alloc, i, n0, nb, j, v0, vb):
        tile = _logit_tile(alloc, Ea, Ca, n0, nb, v0, vb)
        m = alloc.empty(nb)
        run_max, run_sum = lse[n0:n0 + nb], sums[n0:n0 + nb]
        # m = max(tile max, M); S *= exp(M - m); M = m; S += sum exp(tile - m)
        np.max(tile, axis=0, out=m)
        np.maximum(m, run_max, out=m)
        run_max -= m
        np.exp(run_max, out=run_max)
        run_sum *= run_max
        run_max[:] = m
        tile -= m
        np.exp(tile, out=tile)
        np.sum(tile, axis=0, out=m)
        run_sum += m
        alloc.release(m)
        alloc.release(tile)

    stats = runner.run(run_tile)
    np.log(sums, out=sums)
    lse += sums

    # target score q_i . z_i, with q_i = (1-beta) e_{x_i} + beta/|V|:
    # the uniform share u . E_i for every token, then the indexed share
    with np.errstate(over="ignore", invalid="ignore"):
        o = _smoothing_row(Ca, beta, v) @ Ea
        keep = 1.0 - beta
        o += np.fromiter((keep * (Ca[:, t] @ Ea[:, i]) for i, t in enumerate(xa)),
                         np.float64, n)
        per_token = lse - o
    check_finite_loss(per_token)
    out = LossOutput(lse, o, per_token, _reduce(per_token, reduction, None), reduction)
    return out, stats


def blocked_backward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                     plan: BlockPlan, lse: np.ndarray, *, upstream: float = 1.0,
                     filter_epsilon: float = 0.0,
                     reduction: str = "sum"):
    """Tiled backward pass from inputs plus the forward's LSE vector, on
    the plan's worker count; for given tile sizes the result does not
    depend on the count.

    At `filter_epsilon` 0 the result matches naive_backward; above it, tiles
    whose probability upper bound exp(max z - lse) falls below the epsilon
    contribute nothing to the softmax part.
    """
    Ea, Ca, xa, n, v, _, _ = _validate(E, C, x, beta, reduction)
    lse = np.asarray(lse, dtype=np.float64)
    if lse.shape != (n,):
        raise ValueError(f"lse must have length {n}, got shape {lse.shape}")
    if not np.isfinite(lse).all():
        raise ValueError("lse must be finite")
    if not 0.0 <= filter_epsilon < 1.0:
        raise ValueError(f"filter epsilon must lie in [0, 1), got {filter_epsilon}")

    runner = _TileRunner(n, v, plan.clamped(n, v))
    # every token weighs the same, so the weight is the products' alpha
    w = float(token_weights(n, reduction, upstream)[0]) if n else 0.0
    # the uniform share of the target part, -w beta/|V| per logit, as the
    # gradients' starting columns
    grad_e = _columns(-w * _smoothing_row(Ca, beta, v), n)
    grad_c = _columns(-(beta / v) * w * Ea.sum(axis=1), v)
    staged = _cblas_dgemm() is None

    def add_products(alloc, a, b, out, trans_b):
        """out += w a op(b): straight into `out`, or without the kernel
        through a tracked chunk laid out like `out`, dropped at release so
        that the next one is not held beside it."""
        if not staged:
            dgemm(w, a, b, out, trans_b=trans_b, beta=1.0)
            return
        chunk = dgemm(w, a, b, alloc.empty(out.shape), trans_b=trans_b)
        out += chunk
        alloc.release(chunk)
        del chunk

    def run_tile(alloc, i, n0, nb, j, v0, vb):
        tile = _logit_tile(alloc, Ea, Ca, n0, nb, v0, vb)
        tile -= lse[n0:n0 + nb]
        if filter_epsilon and math.exp(float(tile.max())) < filter_epsilon:
            alloc.release(tile)
            del tile
            runner.wait_turn(i, j)  # later token blocks wait on this turn
            runner.pass_turn(j)
            return True
        np.exp(tile, out=tile)
        add_products(alloc, Ca[:, v0:v0 + vb], tile, grad_e[:, n0:n0 + nb], 0)
        runner.wait_turn(i, j)
        add_products(alloc, Ea[:, n0:n0 + nb], tile, grad_c[:, v0:v0 + vb], 1)
        runner.pass_turn(j)
        alloc.release(tile)
        return False

    stats = runner.run(run_tile)

    # the indexed share of the target part, never filtered: -(1-beta) w
    # per target logit
    keep_w = (1.0 - beta) * w
    for i, t in enumerate(xa):
        grad_e[:, i] -= keep_w * Ca[:, t]
        grad_c[:, t] -= keep_w * Ea[:, i]

    grads = Gradients(DenseMatrix._wrap(grad_e), DenseMatrix._wrap(grad_c))
    return grads, stats


def loss_and_grad(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                  plan: BlockPlan, *, filter_epsilon: float = 0.0,
                  reduction: str = "sum", upstream: float = 1.0):
    """Forward followed by recompute-based backward, both on the plan's
    worker count; stats take the max of the two peaks and sum the tile
    counters."""
    out, fstats = blocked_forward(E, C, x, beta, plan, reduction=reduction)
    grads, bstats = blocked_backward(E, C, x, beta, plan, out.lse, upstream=upstream,
                                     filter_epsilon=filter_epsilon, reduction=reduction)
    stats = MemoryStats(
        max(fstats.peak_auxiliary_bytes, bstats.peak_auxiliary_bytes),
        fstats.tiles_processed + bstats.tiles_processed,
        fstats.tiles_skipped_by_filter + bstats.tiles_skipped_by_filter,
        max(fstats.tiles_in_flight, bstats.tiles_in_flight),
    )
    return out, grads, stats
