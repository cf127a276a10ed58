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

Tiles are visited token block by token block, vocabulary blocks in index
order. Every GEMM goes through `dgemm`, numpy's BLAS via `np.matmul`; the
backward's two products are chunked over depth, D_B rows at a time. Every
tile-sized buffer flows through a TrackingAllocator; peak auxiliary bytes
stay O(N + N_B*V_B + D_B*max(N_B, V_B)) per tile in flight regardless of
|V| (one tile in deterministic mode, one per worker on the thread pool).
The returned outputs and O(D) or O(N_B) temporaries are not tracked.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .memtrack import MemoryStats, TrackingAllocator
from .reference import Gradients, LossOutput, _validate, token_weights
from .tensors import BlockPlan, DenseMatrix, TokenSequence, plan_working_set_bytes

__all__ = ["blocked_forward", "blocked_backward", "loss_and_grad",
           "aux_bound_bytes"]


def _pool_size(workers: int | None) -> int:
    """Threads the non-deterministic path runs tiles on."""
    return workers or os.cpu_count() or 1


def aux_bound_bytes(plan: BlockPlan, n: int, v: int, d: int,
                    workers: int | None = None) -> int:
    """Ceiling for the peak auxiliary bytes of one engine call: the tile
    working set times the tiles in flight (1 in deterministic mode, else the
    pool size for `workers`), plus the per-token weight vector and a fixed
    bookkeeping allowance."""
    eff = plan.clamped(n, v, d)
    in_flight = 1 if eff.deterministic else _pool_size(workers)
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


def _tile_ranges(n: int, v: int, eff: BlockPlan):
    return [
        (n0, min(eff.n_block, n - n0), v0, min(eff.v_block, v - v0))
        for n0 in range(0, n, eff.n_block)
        for v0 in range(0, v, eff.v_block)
    ]


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


def _run_tiles(tiles, work, deterministic: bool, workers: int | None):
    if deterministic:
        for t in tiles:
            work(*t)
        return
    # Scrambled submission plus completion-order accumulation: merge order
    # is whatever the pool produces, which the LSE merge tolerates.
    scrambled = sorted(tiles, key=lambda t: (t[0] * 2654435761 + t[2] * 40503) & 0xFFFFFFFF)
    with ThreadPoolExecutor(max_workers=_pool_size(workers)) as pool:
        for _ in pool.map(lambda t: work(*t), scrambled):
            pass


def blocked_forward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                    plan: BlockPlan, reduction: str = "sum",
                    workers: int | None = None):
    """Tiled smoothed cross-entropy forward pass.

    Returns (LossOutput, MemoryStats); matches naive_forward per token while
    allocating only tile-sized transients.
    """
    Ea, Ca, xa, n, v, d, _ = _validate(E, C, x, beta, reduction)
    eff = plan.clamped(n, v, d)
    alloc = TrackingAllocator(_alloc_limit(n, v, d, eff))

    lse = np.full(n, -np.inf)
    o = np.zeros(n)
    n_locks = {n0: threading.Lock() for n0 in range(0, n, eff.n_block)}
    tiles_done = [0]
    count_lock = threading.Lock()

    def run_tile(n0, nb, v0, vb):
        tile = _logit_tile(alloc, Ea, Ca, n0, nb, v0, vb)
        tgt = xa[n0:n0 + nb]
        in_block = (tgt >= v0) & (tgt < v0 + vb)
        with n_locks[n0]:
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
            for buf in (t2, t1, s, m):
                alloc.release(buf)
        alloc.release(tile)
        with count_lock:
            tiles_done[0] += 1

    _run_tiles(_tile_ranges(n, v, eff), run_tile, eff.deterministic, workers)

    per_token = lse - o
    total = float(per_token.sum()) if reduction == "sum" else float(per_token.mean())
    out = LossOutput(lse, o, per_token, total, reduction)
    return out, MemoryStats(alloc.peak_bytes, tiles_done[0], 0)


def blocked_backward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                     plan: BlockPlan, lse: np.ndarray, upstream: float = 1.0,
                     filter_epsilon: float = 0.0,
                     reduction: str = "sum", workers: int | None = None):
    """Tiled backward pass from inputs plus the forward's LSE vector.

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
    grad_e = np.zeros((d, n))
    grad_c = np.zeros((d, v))

    w = alloc.empty(n)
    w[:] = token_weights(n, reduction, upstream)

    n_locks = {n0: threading.Lock() for n0 in range(0, n, eff.n_block)}
    v_locks = {v0: threading.Lock() for v0 in range(0, v, eff.v_block)}
    counts = [0, 0]  # processed, skipped
    count_lock = threading.Lock()

    def run_tile(n0, nb, v0, vb):
        tile = _logit_tile(alloc, Ea, Ca, n0, nb, v0, vb)
        tile -= lse[n0:n0 + nb]
        if filter_epsilon and math.exp(float(tile.max())) < filter_epsilon:
            alloc.release(tile)
            with count_lock:
                counts[1] += 1
            return
        np.exp(tile, out=tile)
        tile *= w[n0:n0 + nb]
        # D_B-deep product chunks, C-ordered like grad_e and grad_c
        for d0 in range(0, d, eff.d_block):
            db = min(eff.d_block, d - d0)
            pe = dgemm(1.0, Ca[d0:d0 + db, v0:v0 + vb], tile,
                       alloc.empty((db, nb), order="C"))
            with n_locks[n0]:
                grad_e[d0:d0 + db, n0:n0 + nb] += pe
            alloc.release(pe)
            pc = dgemm(1.0, Ea[d0:d0 + db, n0:n0 + nb], tile,
                       alloc.empty((db, vb), order="C"), trans_b=1)
            with v_locks[v0]:
                grad_c[d0:d0 + db, v0:v0 + vb] += pc
            alloc.release(pc)
        alloc.release(tile)
        with count_lock:
            counts[0] += 1

    _run_tiles(_tile_ranges(n, v, eff), run_tile, eff.deterministic, workers)

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
        row_e = Ea @ w
        np.subtract(grad_c, (coef * row_e)[:, None], out=grad_c)

    alloc.release(w)
    grads = Gradients(DenseMatrix._wrap(grad_e), DenseMatrix._wrap(grad_c))
    return grads, MemoryStats(alloc.peak_bytes, counts[0], counts[1])


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
    )
    return out, grads, stats
