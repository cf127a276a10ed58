"""Tiled forward and backward passes for smoothed cross-entropy that never
materialize the full |V| x N logit matrix.

The forward walks (token-block, vocab-block) tile pairs, computing each
V_B x N_B logit tile in one full-depth GEMM that reads strided views of the
classifier and embedding matrices in place (no staged copies), then folds
the tile into running per-token log-sum-exp and smoothed-target-score
accumulators. The backward recomputes tiles the same way from the inputs
plus the saved LSE vector and splits the gradient into three parts:

  softmax part   per-tile P = exp(z - lse) contributions; a tile whose
                 largest probability bound falls below the filter threshold
                 may be skipped entirely,
  target part    a scatter of -(1-beta) times the target rows/columns,
  smoothing part a closed-form rank-one update worth -beta/|V| everywhere.

Filtering is one number, `filter_epsilon`: 0 (the default) skips nothing.
It touches only the softmax part, so skipped tiles can never drop the
target or smoothing contributions, whose magnitudes do not shrink with the
probabilities.

Tiles run on `workers` threads (default: every CPU this process may run
on), one token block per worker at a time, handed out in index order; a
worker walks its block's vocabulary blocks in index order. Per-token state
(`lse`, `o`, `grad_e` columns) belongs to one token block, so it needs no
locks, and each `grad_c[:, v-block]` takes its product chunks in
token-block order through a per-vocabulary-block turn counter. Every sum
therefore runs in the same order as on one worker, and for a given plan
results are bit-identical for any worker count. While more than one
worker runs, numpy's OpenBLAS is held at one thread, so BLAS threads do
not compete with the workers.

Every GEMM goes through `dgemm`, numpy's BLAS via `np.matmul`; the
backward's two products are chunked over depth, D_B rows at a time. Every
tile-sized buffer flows through a TrackingAllocator; peak auxiliary bytes
stay O(N + N_B*V_B + D_B*max(N_B, V_B)) per tile in flight regardless of
|V|, one tile per worker. The returned outputs and O(D) or O(N_B)
temporaries are not tracked.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager

import numpy as np

from .memtrack import MemoryStats, TrackingAllocator
from .reference import Gradients, LossOutput, _validate, token_weights
from .tensors import (BlockPlan, DenseMatrix, TokenSequence,
                      plan_working_set_bytes, tiles_in_flight)

__all__ = ["blocked_forward", "blocked_backward", "loss_and_grad",
           "aux_bound_bytes"]


def aux_bound_bytes(plan: BlockPlan, n: int, v: int, d: int,
                    workers: int | None = None) -> int:
    """Ceiling for the peak auxiliary bytes of one engine call: the tile
    working set times the tiles in flight (one per worker, at most one per
    token block), plus the per-token weight vector and a fixed bookkeeping
    allowance."""
    eff = plan.clamped(n, v, d)
    in_flight = tiles_in_flight(n, eff.n_block, workers)
    return in_flight * plan_working_set_bytes(eff) + 8 * n + 4096


def _alloc_limit(n: int, v: int, d: int, eff: BlockPlan) -> int | None:
    # Refuse any single transient buffer within 1/8 of the full logit
    # matrix's bytes. Only meaningful when the planned buffers themselves
    # sit below that line; a deliberately degenerate plan (single tile over
    # a tiny instance) disables the guard because its tile IS the matrix.
    limit = n * v  # == bytes(N x |V| float64) / 8
    nb, vb, db = eff.n_block, eff.v_block, eff.d_block
    largest = 8 * max(nb * vb, db * vb, db * nb, n)
    return limit if limit > largest else None


def dgemm(alpha, a, b, c, trans_a=0, trans_b=0):
    """c = alpha * op(a) @ op(b), written into the C-ordered buffer `c`.

    The engine's only GEMM entry. `a` and `b` may be strided views of the
    inputs: with one unit stride numpy passes them to BLAS with a leading
    dimension instead of copying them.
    """
    np.matmul(a.T if trans_a else a, b.T if trans_b else b, out=c)
    if alpha != 1.0:
        c *= alpha
    return c


def _logit_tile(alloc, Ea, Ca, n0, nb, v0, vb):
    """tile[v, i] = sum_d C[d, v0+v] * E[d, n0+i], in one full-depth GEMM."""
    tile = alloc.empty((vb, nb), order="C")
    return dgemm(1.0, Ca[:, v0:v0 + vb], Ea[:, n0:n0 + nb], tile, trans_a=1)


@functools.cache
def _openblas_thread_calls():
    """(get, set) for numpy's OpenBLAS thread count, or None when numpy
    links a BLAS without them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)  # symbol lookup covers its BLAS
    except OSError:
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
_UFUNC_BUFFER = 16


@contextmanager
def _small_ufunc_buffers():
    """numpy's ufunc buffer size at `_UFUNC_BUFFER` in this thread (numpy
    keeps it per thread), restored on exit."""
    saved = np.setbufsize(_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(saved)


class _Abandoned(Exception):
    """Another worker failed; this one stops without adding more."""


class _TileRunner:
    """Runs every tile of a plan on up to `workers` threads in one fixed
    order of accumulation.

    Token blocks are handed out in index order; the worker that takes one
    walks its vocabulary blocks in index order, so everything indexed by
    token needs no lock. Sums over token blocks (into `grad_c`) go through
    `wait_turn`/`pass_turn`: token block i may add into vocabulary block j
    once blocks 0..i-1 have passed it. A waited-for block was handed out
    earlier and only waits on earlier blocks, so the waits cannot cycle.
    """

    def __init__(self, n: int, v: int, eff: BlockPlan, workers: int | None):
        self.eff = eff
        self.n, self.v = n, v
        self.in_flight = tiles_in_flight(n, eff.n_block, workers)
        self._cond = threading.Condition()
        self._turns = [0] * -(-v // eff.v_block)
        self._next_block = 0
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

    def _take_block(self):
        with self._cond:
            i = self._next_block
            if self._failed or i * self.eff.n_block >= self.n:
                return None
            self._next_block += 1
            return i

    def _work(self, run_tile, counts, errors) -> None:
        """One worker: take token blocks until none are left; run_tile
        returns True for a tile it skipped."""
        nbk, vbk = self.eff.n_block, self.eff.v_block
        try:
            with _small_ufunc_buffers():
                while (i := self._take_block()) is not None:
                    n0 = i * nbk
                    nb = min(nbk, self.n - n0)
                    for j, v0 in enumerate(range(0, self.v, vbk)):
                        skipped = run_tile(i, n0, nb, j, v0, min(vbk, self.v - v0))
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

    def run(self, run_tile) -> tuple[int, int]:
        """Run every tile; return (tiles processed, tiles skipped)."""
        counts = [[0, 0] for _ in range(self.in_flight)]
        errors: list[BaseException] = []
        if self.in_flight == 1:
            self._work(run_tile, counts[0], errors)
        else:
            threads = [threading.Thread(target=self._work, args=(run_tile, c, errors),
                                        name=f"smoothce-tiles-{k}")
                       for k, c in enumerate(counts)]
            with _ONE_BLAS_THREAD.held():
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
        return sum(c[0] for c in counts), sum(c[1] for c in counts)


def blocked_forward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                    plan: BlockPlan, reduction: str = "sum",
                    workers: int | None = None):
    """Tiled smoothed cross-entropy forward pass on `workers` threads
    (None: every available CPU); for a given plan the result does not
    depend on the count.

    Returns (LossOutput, MemoryStats); matches naive_forward per token while
    allocating only tile-sized transients.
    """
    Ea, Ca, xa, n, v, d, _ = _validate(E, C, x, beta, reduction)
    eff = plan.clamped(n, v, d)
    alloc = TrackingAllocator(_alloc_limit(n, v, d, eff))
    runner = _TileRunner(n, v, eff, workers)

    lse = np.full(n, -np.inf)
    o = np.zeros(n)

    def run_tile(i, n0, nb, j, v0, vb):
        tile = _logit_tile(alloc, Ea, Ca, n0, nb, v0, vb)
        tgt = xa[n0:n0 + nb]
        in_block = (tgt >= v0) & (tgt < v0 + vb)
        m = alloc.empty(nb)
        s = alloc.empty(nb)
        t1 = alloc.empty(nb)
        t2 = alloc.empty(nb)
        o_view = o[n0:n0 + nb]
        lse_view = lse[n0:n0 + nb]
        if beta != 0.0:
            np.sum(tile, axis=0, out=t1)
            t1 *= beta / v
            o_view += t1
        if in_block.any():
            idx = np.nonzero(in_block)[0]
            o_view[idx] += (1.0 - beta) * tile[tgt[idx] - v0, idx]
        # per-tile LSE, destroying the tile, then online merge
        np.max(tile, axis=0, out=m)
        tile -= m
        np.exp(tile, out=tile)
        np.sum(tile, axis=0, out=s)
        np.log(s, out=s)
        s += m
        np.maximum(lse_view, s, out=t1)
        np.minimum(lse_view, s, out=t2)
        t2 -= t1
        np.exp(t2, out=t2)
        np.log1p(t2, out=t2)
        t1 += t2
        lse_view[:] = t1
        for buf in (t2, t1, s, m, tile):
            alloc.release(buf)

    processed, _ = runner.run(run_tile)

    per_token = lse - o
    total = float(per_token.sum()) if reduction == "sum" else float(per_token.mean())
    out = LossOutput(lse, o, per_token, total, reduction)
    return out, MemoryStats(alloc.peak_bytes, processed, 0, runner.in_flight)


def blocked_backward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                     plan: BlockPlan, lse: np.ndarray, upstream: float = 1.0,
                     filter_epsilon: float = 0.0,
                     reduction: str = "sum", workers: int | None = None):
    """Tiled backward pass from inputs plus the forward's LSE vector, on
    `workers` threads (None: every available CPU); for a given plan the
    result does not depend on the count.

    At `filter_epsilon` 0 the result matches naive_backward; above it, tiles
    whose probability upper bound exp(max z - lse) falls below the epsilon
    contribute nothing to the softmax part.
    """
    Ea, Ca, xa, n, v, d, _ = _validate(E, C, x, beta, reduction)
    eff = plan.clamped(n, v, d)
    lse = np.asarray(lse, dtype=np.float64)
    if lse.shape != (n,):
        raise ValueError(f"lse must have length {n}, got shape {lse.shape}")
    if not 0.0 <= filter_epsilon < 1.0:
        raise ValueError(f"filter epsilon must lie in [0, 1), got {filter_epsilon}")

    alloc = TrackingAllocator(_alloc_limit(n, v, d, eff))
    runner = _TileRunner(n, v, eff, workers)
    grad_e = np.zeros((d, n))
    grad_c = np.zeros((d, v))

    w = alloc.empty(n)
    w[:] = token_weights(n, reduction, upstream)

    def run_tile(i, n0, nb, j, v0, vb):
        tile = _logit_tile(alloc, Ea, Ca, n0, nb, v0, vb)
        tile -= lse[n0:n0 + nb]
        if filter_epsilon and math.exp(float(tile.max())) < filter_epsilon:
            alloc.release(tile)
            del tile
            runner.wait_turn(i, j)  # later token blocks wait on this turn
            runner.pass_turn(j)
            return True
        np.exp(tile, out=tile)
        tile *= w[n0:n0 + nb]
        # D_B-deep product chunks, C-ordered like grad_e and grad_c; each is
        # dropped at release so that the next one is not held beside it
        for d0 in range(0, d, eff.d_block):
            db = min(eff.d_block, d - d0)
            pe = dgemm(1.0, Ca[d0:d0 + db, v0:v0 + vb], tile,
                       alloc.empty((db, nb), order="C"))
            grad_e[d0:d0 + db, n0:n0 + nb] += pe
            alloc.release(pe)
            del pe
            pc = dgemm(1.0, Ea[d0:d0 + db, n0:n0 + nb], tile,
                       alloc.empty((db, vb), order="C"), trans_b=1)
            if d0 == 0:
                runner.wait_turn(i, j)
            grad_c[d0:d0 + db, v0:v0 + vb] += pc
            alloc.release(pc)
            del pc
        runner.pass_turn(j)
        alloc.release(tile)
        return False

    processed, skipped = runner.run(run_tile)

    # target part: scatter -(1-beta) * w_i into the target row/column pair
    if beta != 1.0:
        coef = 1.0 - beta
        for i in range(n):
            wi = w[i]
            if wi == 0.0:
                continue
            ti = xa[i]
            grad_e[:, i] -= (coef * wi) * Ca[:, ti]
            grad_c[:, ti] -= (coef * wi) * Ea[:, i]

    # smoothing part: exact rank-one update, never filtered
    if beta != 0.0:
        coef = beta / v
        col_c = Ca.sum(axis=1)
        for n0 in range(0, n, eff.n_block):
            nb = min(eff.n_block, n - n0)
            for d0 in range(0, d, eff.d_block):
                db = min(eff.d_block, d - d0)
                pe = alloc.empty((db, nb), order="C")
                np.multiply(col_c[d0:d0 + db, None], w[None, n0:n0 + nb], out=pe)
                pe *= coef
                grad_e[d0:d0 + db, n0:n0 + nb] -= pe
                alloc.release(pe)
                del pe
        row_e = Ea @ w
        np.subtract(grad_c, (coef * row_e)[:, None], out=grad_c)

    alloc.release(w)
    grads = Gradients(DenseMatrix._wrap(grad_e), DenseMatrix._wrap(grad_c))
    return grads, MemoryStats(alloc.peak_bytes, processed, skipped, runner.in_flight)


def loss_and_grad(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                  plan: BlockPlan, filter_epsilon: float = 0.0,
                  reduction: str = "sum", upstream: float = 1.0,
                  workers: int | None = None):
    """Forward followed by recompute-based backward; stats take the max of
    the two peaks and sum the tile counters."""
    out, fstats = blocked_forward(E, C, x, beta, plan, reduction, workers)
    grads, bstats = blocked_backward(E, C, x, beta, plan, out.lse, upstream,
                                     filter_epsilon, reduction, workers)
    stats = MemoryStats(
        max(fstats.peak_auxiliary_bytes, bstats.peak_auxiliary_bytes),
        fstats.tiles_processed + bstats.tiles_processed,
        fstats.tiles_skipped_by_filter + bstats.tiles_skipped_by_filter,
        max(fstats.tiles_in_flight, bstats.tiles_in_flight),
    )
    return out, grads, stats
