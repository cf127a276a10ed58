"""Tiled forward and backward passes for smoothed cross-entropy that never
materialize the full |V| x N logit matrix.

Every call runs its tiles in one sweep over token blocks. For each token
block, the forward walks the vocabulary blocks, computing each V_B x N_B
logit tile in one full-depth GEMM that reads panels of the classifier and
embedding matrices in place (no staged copies), and folds the tile into
each token's softmax normaliser by an online merge (Milakov & Gimelshein,
arXiv:1805.02867): a running max M and a running sum S of exp(z - M),
rescaled when M grows, and lse = M + log S after the block's last tile.
The block's target score follows. Its backward recomputes the same tiles
from the inputs and the block's finished lse (the recompute design of Cut
Cross-Entropy, arXiv:2411.09009). A backward tile adds only its softmax
part, from P = exp(z - lse), and one whose largest probability bound
falls below the filter threshold may be skipped entirely.

Each engine call is one `_TileRunner`, built from the entry's arguments:
it holds the checked inputs, the smoothing column and the clamped plan.
The forward and the backward are each built on it by one function
(`_forward_block`, `_backward_block`) that checks its own options, weighs
its tokens and returns its block function with the finisher that makes
its result. The forward's finisher is `reference.loss_output` on the
call's kept-token flags (all true: the blocked engine takes no mask), the
one loss rule every naive entry ends or refuses through too.
`call.run(*block_fns)` hands each token block, as one `cols` slice, to the
block functions in turn: `blocked_forward` and `blocked_backward` pass
one, and `loss_and_grad` both. `call.stats()`, after the finishers, makes
the call's MemoryStats.

The tiles never see the target. The smoothed target
q_i = (1-beta) e_{x_i} + beta/|V| enters the loss and both gradients
linearly. Seen from the embedding side it is the D-vector
g_i = (1-beta) C[:, x_i] + u, with u = (beta/|V|) sum_v C[:, v]
(`_smoothing_row`, summed once per call and only when beta > 0). The
forward gathers a chunk of the block's g_i at a time into one tracked
buffer for the target score o_i = g_i . E_i; the backward gathers the
block's C[:, x_i] straight into `grad_e`, which starts at -w g_i before
the backward tiles add into it. Each `grad_c`
column starts at the uniform share -(beta/|V|) w E 1 (0 at beta 0),
which token block 0 writes into each vocabulary block inside its turn,
while the block is in cache, before its product; after the runner one
ordered per-token scatter adds -(1-beta) w E_i to `grad_c[:, x_i]`.

Filtering is one number, `filter_epsilon`: 0 (the default) skips nothing.
It touches only the softmax part, so skipped tiles can never drop the
target part, whose magnitude does not shrink with the probabilities.

The plan is the one place a call's worker count is set: one `_TileRunner`
runs a call's token blocks on `plan.workers` threads (None: every CPU this
process may run on). Of k workers, worker w runs token blocks w, w + k,
w + 2k, ... in index order, each through its vocabulary blocks in index
order. Per-token state (lse, o, `grad_e` columns) needs no locks, and each
`grad_c[:, v-block]` takes its products in token-block order through a
per-vocabulary-block turn counter. Every sum therefore runs in the same
order as on one worker, and for given tile sizes results are
bit-identical for any `replace(plan, workers=k)`. Every run holds numpy's
OpenBLAS at one thread, so no GEMM's sum order depends on the host's BLAS
threads, and BLAS threads do not compete with the workers. A run has one
stop path: a worker's error, a thread that fails to start or an interrupt
stops every worker at its next token block or `grad_c` turn, and the call
raises only once every started worker has ended and, after them, the BLAS
thread count is restored.

Every GEMM goes through `dgemm`, c = alpha a b + beta c on the ILP64
`cblas_dgemm` of numpy's own OpenBLAS, with a transpose passed as a `.T`
view. A logit tile is written with beta 0; the backward adds its two
products, with the uniform token weight as alpha, straight into the
gradients with beta 1: C_panel P into `grad_e[:, token block]`, and
E_panel P^T into `grad_c[:, vocab block]` inside that block's turn.
Every `DenseMatrix` is column-major (F-ordered D x N and D x |V|:
each token's and each vocabulary entry's D-vector is contiguous), so every
operand is one contiguous panel or its `.T`. Only where numpy's BLAS
exports no such symbol does an adding product go through a tracked
full-depth chunk and a `+=` into the gradient.

Every tile-sized buffer (the logit tile, the forward's one N_B row, and
the forward's target gather chunk: as many tokens' D-vectors as fit in
one tile's working set, at least one, held only while no tile is) flows
through its worker's own TrackingAllocator, and the call's MemoryStats
report the sum of the workers' peaks, which thread timing cannot move;
peak auxiliary bytes stay O(N_B*V_B) per tile in flight regardless of |V|
(plus D*max(N_B, V_B) for a staged product chunk, and never below one
D-vector). The returned outputs and O(D) temporaries are not tracked; the
running sum S lives in the `o` output until the block's lse is finished.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import time
from contextlib import contextmanager

import numpy as np

from .memtrack import MemoryStats, TrackingAllocator, ufunc_buffer
from .reference import Gradients, _validate, check_upstream, loss_output, token_weight
from .tensors import (BlockPlan, DenseMatrix, TokenSequence,
                      plan_working_set_bytes, tiles_in_flight)

__all__ = ["blocked_forward", "blocked_backward", "loss_and_grad",
           "aux_bound_bytes"]


def aux_bound_bytes(plan: BlockPlan, n: int, v: int, d: int) -> int:
    """Ceiling for the peak auxiliary bytes of one engine call on `plan`:
    the tile working set times the tiles in flight (one per plan worker, at
    most one per token block). Without the accumulating kernel each tile
    also holds one staged D-row product chunk. A worker's share is at least
    one token's D-vector: the forward's smallest target gather, never held
    beside a tile."""
    eff = plan.clamped(n, v)
    per_tile = plan_working_set_bytes(eff)
    if _cblas_dgemm() is None:
        per_tile += 8 * d * max(eff.n_block, eff.v_block)
    per_tile = max(per_tile, 8 * d)
    return tiles_in_flight(n, eff.n_block, eff.workers) * per_tile


_SUM_CHUNK = 1024  # vocabulary entries per gemv of the smoothing row


def _smoothing_row(Ca, beta: float, v: int) -> np.ndarray:
    """(beta/|V|) * sum_v C[:, v]: the uniform share of the smoothed target
    seen from the embedding side, D floats. Summed by one gemv with a short
    ones vector per chunk of vocabulary entries; `Ca.sum(axis=1)` would
    run one short strided add per entry of the column-major C."""
    ones = np.ones(min(v, _SUM_CHUNK))
    total = np.zeros(Ca.shape[0])
    for v0 in range(0, v, ones.size):
        total += Ca[:, v0:v0 + ones.size] @ ones[:v - v0]
    return (beta / v) * total


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


def _blas_function(names, restype, *argtypes):
    """The first of `names` that numpy's BLAS exports, typed; None if it
    exports none of them or could not be opened (`lib` None has no such
    attribute)."""
    lib = _blas_library()
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, list(argtypes)
            return fn
    return None


@functools.cache
def _cblas_dgemm():
    """numpy's ILP64 `cblas_dgemm`, or None. Only a `64_`-suffixed symbol
    is used: the integer width of an unsuffixed one is unknown."""
    enum, i64, f64, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    return _blas_function(("scipy_cblas_dgemm64_", "cblas_dgemm64_"), None,
                          enum, enum, enum, i64, i64, i64,
                          f64, ptr, i64, ptr, i64, f64, ptr, i64)


_ROW_MAJOR, _COL_MAJOR, _NO_TRANS, _TRANS = 101, 102, 111, 112  # CBLAS enums


def _blas_layout(x, name: str) -> tuple[bool, int]:
    """(rows contiguous, leading dimension) under which BLAS reads the 2-D
    float64 array `x` in place: C-contiguous is row-major with leading
    dimension max(1, cols), F-contiguous is column-major with max(1, rows).
    numpy's contiguity flags ignore the stride of an axis of extent 1, as
    BLAS does. Any other array is refused."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 2
            and x.flags.aligned):
        raise ValueError(f"dgemm operand {name} must be an aligned 2-D float64 array")
    if x.flags.c_contiguous:
        return True, max(1, x.shape[1])
    if x.flags.f_contiguous:
        return False, max(1, x.shape[0])
    raise ValueError(f"dgemm operand {name} is neither C- nor F-contiguous "
                     f"(shape {x.shape}, strides {x.strides})")


def dgemm(alpha, a, b, c, beta=0.0):
    """c = alpha * a @ b + beta * c, in place; returns `c`.

    The engine's only GEMM entry, on numpy's ILP64 `cblas_dgemm`. Each
    operand is read in place exactly as passed (a transpose is a `.T`
    view), so each must be C- or F-contiguous, and `c` must be writable;
    anything else raises ValueError before BLAS is called. Without the
    kernel, np.matmul writes `c`, so beta must be 0.
    """
    a_rows, lda = _blas_layout(a, "a")
    b_rows, ldb = _blas_layout(b, "b")
    c_rows, ldc = _blas_layout(c, "c")
    if not c.flags.writeable:
        raise ValueError("dgemm output c is read-only")
    (m, k), (k2, p) = a.shape, b.shape
    if k != k2 or c.shape != (m, p):
        raise ValueError(f"dgemm shapes {a.shape} @ {b.shape} -> {c.shape} do not match")
    kernel = _cblas_dgemm()
    if kernel is None:
        if beta != 0.0:
            raise ValueError("dgemm accumulates (beta != 0) only on an ILP64 cblas_dgemm")
        if c_rows:
            np.matmul(a, b, out=c)
        else:
            np.matmul(b.T, a.T, out=c.T)
        if alpha != 1.0:
            c *= alpha
        return c
    kernel(_ROW_MAJOR if c_rows else _COL_MAJOR,
           _NO_TRANS if a_rows == c_rows else _TRANS,
           _NO_TRANS if b_rows == c_rows else _TRANS,
           m, p, k, alpha, a.ctypes.data, lda, b.ctypes.data, ldb,
           beta, c.ctypes.data, ldc)
    return c


@functools.cache
def _openblas_thread_calls():
    """(get, set) for numpy's OpenBLAS thread count, both from one library
    variant, or None when numpy links a BLAS without them."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = _blas_function((f"{prefix}_get_num_threads{suffix}",), ctypes.c_int)
            set_ = _blas_function((f"{prefix}_set_num_threads{suffix}",), None, ctypes.c_int)
            if get is not None and set_ is not None:
                return get, set_
    return None


class _OneBlasThread:
    """Holds numpy's OpenBLAS at one thread while any tile run is in
    progress; the last run to end restores the count the first found. The
    count is process-wide, hence one shared holder."""

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


class _Abandoned(Exception):
    """Another worker failed; this one stops without adding more."""


class _TileRunner:
    """One engine call: its checked inputs, its smoothing column u and its
    clamped plan, and the run of its token blocks on up to `eff.workers`
    threads in one fixed order of accumulation.

    Built from the entry's arguments, it starts the call's clock, runs
    `_validate`, sums u (D x 1; 0.0 at beta 0, where nothing is summed) and
    clamps the plan. `run(*block_fns)` hands each token block, as one
    `cols` slice, to every block function in turn: a forward or a
    backward over `vocab_blocks()`, or the two, so everything indexed by
    token needs no lock. `stats()`, called after the finishers, makes the
    call's MemoryStats.

    Worker k runs token blocks k, k + in_flight, ... in index order. Sums
    over token blocks (into `grad_c`) go through `wait_turn`/`pass_turn`:
    token block i may add into vocabulary block j once blocks 0..i-1 have
    passed it. A block waits only on lower blocks, and each worker takes
    its blocks in increasing order, so the waits cannot cycle.
    """

    def __init__(self, E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                 plan: BlockPlan, reduction: str):
        self._start = time.perf_counter()
        self.Ea, self.Ca, self.xa, self.n, self.v, self.d, self.keep = _validate(
            E, C, x, beta, reduction)
        self.beta, self.reduction = beta, reduction
        self.u = _smoothing_row(self.Ca, beta, self.v)[:, None] if beta else 0.0
        self.eff = plan.clamped(self.n, self.v)
        self.in_flight = tiles_in_flight(self.n, self.eff.n_block, self.eff.workers)
        self._cond = threading.Condition()
        self._turns = [0] * -(-self.v // self.eff.v_block)
        self._error: BaseException | None = None

    def vocab_blocks(self):
        """(index, first entry, extent) of each vocabulary block, in order."""
        vbk = self.eff.v_block
        for j, v0 in enumerate(range(0, self.v, vbk)):
            yield j, v0, min(vbk, self.v - v0)

    def logit_tile(self, alloc, cols, v0: int, vb: int) -> np.ndarray:
        """tile[v, i] = sum_d C[d, v0+v] * E[d, cols][i], in one full-depth
        GEMM."""
        tile = alloc.empty((vb, cols.stop - cols.start), order="C")
        return dgemm(1.0, self.Ca[:, v0:v0 + vb].T, self.Ea[:, cols], tile)

    def target_rows(self, cols, out: np.ndarray) -> np.ndarray:
        """out = (1-beta) C[:, x[cols]] + u, the target columns g_i;
        returns `out`. A row gather from the C-ordered view of C, where "clip"
        (the indices are checked) lets np.take write `out` in place."""
        np.take(self.Ca.T, self.xa[cols], axis=0, out=out.T, mode="clip")
        out *= 1.0 - self.beta
        out += self.u
        return out

    def wait_turn(self, i: int, j: int) -> None:
        with self._cond:
            self._cond.wait_for(lambda: self._turns[j] == i or self._error is not None)
            if self._error is not None:
                raise _Abandoned

    def pass_turn(self, j: int) -> None:
        with self._cond:
            self._turns[j] += 1
            self._cond.notify_all()

    def _work(self, k, alloc, block_fns, counts) -> None:
        """Worker k: its token blocks, until a failure is recorded; the
        block functions add their processed and skipped tiles to `counts`.
        Its own failure is recorded, unless another came first (an
        `_Abandoned` worker's always did)."""
        nbk = self.eff.n_block
        # the tile work's broadcasts and strided updates run at the small
        # ufunc buffer, for speed and to keep it out of the peak; numpy keeps
        # the size per thread, so the caller's is never touched. Overflowing
        # logits are refused by each entry's own result check.
        try:
            with ufunc_buffer(), np.errstate(over="ignore", invalid="ignore"):
                for i in range(k, -(-self.n // nbk), self.in_flight):
                    if self._error is not None:
                        return
                    cols = slice(i * nbk, min((i + 1) * nbk, self.n))
                    for block_fn in block_fns:
                        block_fn(alloc, i, cols, counts)
        except BaseException as exc:
            self._abandon(exc)

    def _abandon(self, exc: BaseException) -> None:
        """Keep the first failure and stop every worker at its next turn or
        token block."""
        with self._cond:
            if self._error is None:
                self._error = exc
            self._cond.notify_all()

    def run(self, *block_fns) -> None:
        """Run every token block through `block_fns` on `in_flight` worker
        threads, each with its own allocator; keep the tile counts, the sum
        of the workers' peaks and the runner's wall time. Whatever stops
        the run (a worker's error, a failed start, an interrupt) stops
        every worker, and the call raises only once every started worker
        has ended and the BLAS thread count is restored."""
        start = time.perf_counter()
        # looked up in this module on each call: bench/tracer.py swaps
        # `blocked.TrackingAllocator` for a tracing one
        allocs = [TrackingAllocator() for _ in range(self.in_flight)]
        counts = [[0, 0] for _ in allocs]
        threads = [threading.Thread(target=self._work, args=(k, a, block_fns, c),
                                    name=f"smoothce-tiles-{k}")
                   for k, (a, c) in enumerate(zip(allocs, counts))]
        with _ONE_BLAS_THREAD.held():
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            except BaseException as exc:  # a failed start or an interrupt
                self._abandon(exc)
                for t in threads:
                    if t.is_alive():
                        t.join()
                raise
        if self._error is not None:
            raise self._error
        self._totals = (sum(a.peak_bytes for a in allocs), sum(c[0] for c in counts),
                        sum(c[1] for c in counts))
        self._runner_seconds = time.perf_counter() - start

    def stats(self) -> MemoryStats:
        """The call's counters, with its wall time so far split into the
        runner's and the rest."""
        runner = self._runner_seconds
        return MemoryStats(*self._totals, self.in_flight, {
            "runner": runner, "outside": time.perf_counter() - self._start - runner})


def _forward_block(call: _TileRunner):
    """The forward's lse, its finisher and its block function: the token
    block's sweep over every vocabulary block, its finished lse, then its
    target score o_i = g_i . E_i, with g_i = (1-beta) C[:, x_i] + u. The
    finisher is `loss_output` on lse, o and the call's `keep`, which
    refuses a token whose loss is not finite and reduces."""
    Ea, d = call.Ea, call.d
    # o holds a token block's running sum S until its lse is finished
    lse, o = np.empty(call.n), np.empty(call.n)
    # target columns are gathered a chunk of tokens at a time: as many as
    # fit in one tile's working set, at least one
    gather = max(1, plan_working_set_bytes(call.eff) // (8 * max(d, 1)))

    def forward_tile(alloc, cols, v0, vb):
        tile = call.logit_tile(alloc, cols, v0, vb)
        m = alloc.empty(tile.shape[1])
        run_max, run_sum = lse[cols], o[cols]
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

    def forward(alloc, i, cols, counts):
        lse[cols] = -np.inf
        o[cols] = 0.0
        for _, v0, vb in call.vocab_blocks():
            forward_tile(alloc, cols, v0, vb)
            counts[0] += 1
        run_sum = o[cols]
        np.log(run_sum, out=run_sum)
        lse[cols] += run_sum
        for c0 in range(cols.start, cols.stop, gather):
            chunk = slice(c0, min(c0 + gather, cols.stop))
            g = call.target_rows(chunk, alloc.empty((d, chunk.stop - c0)))
            g *= Ea[:, chunk]
            np.sum(g, axis=0, out=o[chunk])
            alloc.release(g)
            del g

    return lse, functools.partial(loss_output, lse, o, call.reduction, call.keep), forward


def _backward_block(call: _TileRunner, lse, upstream: float, filter_epsilon: float):
    """The backward's `gradients()` finisher and its block function: the
    token block's `grad_e` columns start at -w g_i, the target part no
    filter may drop, and then it sweeps every vocabulary block, adding each
    tile's softmax part from P = exp(z - lse). The finisher adds the
    (1-beta) share of `grad_c` after the runner. Its options are refused
    before any gradient is allocated."""
    check_upstream(upstream)
    if not 0.0 <= filter_epsilon < 1.0:
        raise ValueError(f"filter epsilon must lie in [0, 1), got {filter_epsilon}")
    Ea, Ca, beta, n, v, d = call.Ea, call.Ca, call.beta, call.n, call.v, call.d
    # every token weighs the same, so the weight is the products' alpha
    w = token_weight(n, call.reduction, upstream)
    grad_e = np.empty((d, n), order="F")
    grad_c = np.zeros((d, v), order="F") if n == 0 else np.empty((d, v), order="F")
    # the uniform share of grad_c, -w beta/|V| per logit, as the column
    # that token block 0 starts each vocabulary block from
    c_start = -(beta / v) * w * Ea.sum(axis=1)[:, None] if beta else 0.0
    staged = _cblas_dgemm() is None

    def add_products(alloc, a, b, out):
        """out += w a b: straight into `out`, or without the kernel through
        a tracked chunk laid out like `out`, dropped at release so that the
        next one is not held beside it."""
        if not staged:
            dgemm(w, a, b, out, beta=1.0)
            return
        chunk = dgemm(w, a, b, alloc.empty(out.shape))
        out += chunk
        alloc.release(chunk)
        del chunk

    def backward_tile(alloc, i, cols, j, v0, vb) -> bool:
        """Adds one tile's softmax part; True if the filter skipped it. A
        skipped tile still takes its `grad_c` turn, in which token block 0
        starts the vocabulary block."""
        tile = call.logit_tile(alloc, cols, v0, vb)
        tile -= lse[cols]
        skip = filter_epsilon > 0 and math.exp(float(tile.max())) < filter_epsilon
        if not skip:
            np.exp(tile, out=tile)
            add_products(alloc, Ca[:, v0:v0 + vb], tile, grad_e[:, cols])
        out_c = grad_c[:, v0:v0 + vb]
        call.wait_turn(i, j)
        if i == 0:
            out_c[:] = c_start
        if not skip:
            add_products(alloc, Ea[:, cols], tile.T, out_c)
        call.pass_turn(j)
        alloc.release(tile)
        return skip

    def backward(alloc, i, cols, counts):
        # the block's target columns, gathered straight into its gradient
        call.target_rows(cols, grad_e[:, cols])
        grad_e[:, cols] *= -w
        for j, v0, vb in call.vocab_blocks():
            counts[backward_tile(alloc, i, cols, j, v0, vb)] += 1

    def gradients() -> Gradients:
        """Scatter the (1-beta) share of the target part into `grad_c`, in
        token order, and hand both gradients over."""
        keep_w = (1.0 - beta) * w
        for i, t in enumerate(call.xa):
            grad_c[:, t] -= keep_w * Ea[:, i]
        return Gradients(DenseMatrix._wrap(grad_e), DenseMatrix._wrap(grad_c))

    return gradients, backward


def blocked_forward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                    plan: BlockPlan, *, reduction: str = "sum"):
    """Tiled smoothed cross-entropy forward pass on the plan's worker
    count; for given tile sizes the result does not depend on the count.

    Returns (LossOutput, MemoryStats); matches naive_forward per token while
    allocating only tile-sized transients. A token whose loss is not finite
    raises ValueError.
    """
    call = _TileRunner(E, C, x, beta, plan, reduction)
    _, loss, forward = _forward_block(call)
    call.run(forward)
    return loss(), call.stats()


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
    call = _TileRunner(E, C, x, beta, plan, reduction)
    lse = np.asarray(lse, dtype=np.float64)
    if lse.shape != (call.n,):
        raise ValueError(f"lse must have length {call.n}, got shape {lse.shape}")
    if not np.isfinite(lse).all():
        raise ValueError("lse must be finite")
    gradients, backward = _backward_block(call, lse, upstream, filter_epsilon)
    call.run(backward)
    return gradients(), call.stats()


def loss_and_grad(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                  plan: BlockPlan, *, filter_epsilon: float = 0.0,
                  reduction: str = "sum", upstream: float = 1.0):
    """Forward and recompute-based backward in one sweep on the plan's
    worker count: each token block runs the forward's block function,
    which finishes its lse, then the backward's. Bit-identical to
    `blocked_forward` followed by `blocked_backward(lse)`; the stats sum
    both block functions' tile counters."""
    call = _TileRunner(E, C, x, beta, plan, reduction)
    lse, loss, forward = _forward_block(call)
    gradients, backward = _backward_block(call, lse, upstream, filter_epsilon)
    call.run(forward, backward)
    return loss(), gradients(), call.stats()
