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
`call.run(words, *block_fns)` hands each token block, as one `cols` slice,
to the block functions in turn: `blocked_forward` and `blocked_backward`
pass one, and `loss_and_grad` both; `words` sizes the workers' buffers. `call.stats()`, after the finishers, makes
the call's MemoryStats.

The tiles never see the target. The smoothed target
q_i = (1-beta) e_{x_i} + beta/|V| enters the loss and both gradients
linearly. Seen from the embedding side it is the D-vector
g_i = (1-beta) C[:, x_i] + u, with u = (beta/|V|) sum_v C[:, v]
(`_smoothing_row`, summed once per call and only when beta > 0). The
forward gathers a chunk of the block's g_i at a time into its block's
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

Every tile GEMM is c = alpha a b + beta c on the ILP64 `cblas_dgemm` of
numpy's own OpenBLAS, made by one call of the module-level seam
`_kernel_gemm(g, a, b, c)`: `g` holds the CBLAS arguments (order,
transposes, extents, alpha, beta, leading dimensions), which `_gemm_args`
resolves with `dgemm`'s own checks from the first views of each tile
shape a call meets, and a, b, c are integer addresses: the base addresses
of E, C and the gradients, taken on the calling thread, plus column
offsets, or the worker's buffer. A logit tile is written with beta
0; the backward adds its two products, with the uniform token weight as
alpha, straight into the gradients with beta 1: C_panel P into
`grad_e[:, token block]`, and E_panel P^T into `grad_c[:, vocab block]`
inside that block's turn. Every `DenseMatrix` is column-major (F-ordered
D x N and D x |V|: each token's and each vocabulary entry's D-vector is
contiguous), so every operand is one contiguous panel or its transpose.
`dgemm` is the checked array entry to the same kernel. Tile GEMMs go
through it only where numpy's BLAS exports no such symbol, where an
adding product goes through a staged full-depth chunk and a `+=`, or
while a wrapper replaces it, which then sees every tile GEMM as arrays.

Each worker holds one tracked buffer for the whole call. The runner
takes them all from one TrackingAllocator on the calling thread before
any worker starts, each sized for its worker's first token block, the
largest it runs, and drops them once the workers have joined, before
the finishers run; no tile thread allocates. The forward and
`loss_and_grad` size it by `_block_words`: max(N_B (V_B + 1), D) floats
on the kernel path. Its first V_B x N_B words are the C-ordered tile
buffer, whose first rows hold each vocabulary block's tile, the next N_B
the merge row m, and after the block's last tile the same words hold the
target gather chunks, as many tokens' D-vectors as fit and at least one.
`blocked_backward` sizes it by `_tile_words`, the V_B x N_B tile buffer
alone. Without the kernel each staged product chunk, D x N_B or D x V_B,
is the view that ends the buffer, after the tile, and both rules count
D max(N_B, V_B) words for it beside the tile; in `_block_words` it
shares them with the merge row. The call's peak is the buffers' sum,
which thread timing cannot move: O(N_B*V_B) per tile in flight
regardless of |V|, and `aux_bound_bytes` is `_block_words` for a full
token block times the tiles in flight, the peak itself whenever every
worker's first block is full. The returned outputs and O(D) temporaries
are not tracked; the running sum S lives in the `o` output until the
block's lse is finished.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from ._args import integer, real
from .memtrack import MemoryStats, TrackingAllocator, ufunc_buffer
from .reference import Gradients, _validate, check_upstream, loss_output, token_weight
from .tensors import BlockPlan, DenseMatrix, TokenSequence, tiles_in_flight

__all__ = ["blocked_forward", "blocked_backward", "loss_and_grad",
           "aux_bound_bytes"]


def _tile_words(nb: int, v_block: int, d: int) -> int:
    """Floats in a worker's tracked buffer for `blocked_backward` alone,
    for a token block of nb tokens: its V_B x N_B logit tiles and, without
    the accumulating kernel, the staged D x max(N_B, V_B) product chunk
    that ends the buffer, after the tile."""
    return nb * v_block + (d * max(nb, v_block) if _cblas_dgemm() is None else 0)


def _block_words(nb: int, v_block: int, d: int) -> int:
    """Floats in a worker's tracked buffer for the forward and
    `loss_and_grad`, for a token block of nb tokens: the backward's
    (`_tile_words`), or the tiles and the N_B merge row after them if more,
    which after the last tile hold the target gather chunks, at least one
    token's D-vector. The merge row and the staged chunk share words: only
    the forward holds the one, only the backward the other."""
    return max(_tile_words(nb, v_block, d), nb * (v_block + 1), d)


def aux_bound_bytes(plan: BlockPlan, n: int, v: int, d: int) -> int:
    """Ceiling for the peak auxiliary bytes of one engine call on `plan`:
    one full token block's buffer (`_block_words`) per tile in flight (one
    per plan worker, at most one per token block). The extents must be
    integers >= 0, as `plan_blocks` takes them."""
    for name, size in (("n", n), ("v", v), ("d", d)):
        integer(size, name, 0)
    eff = plan.clamped(n, v)
    return (8 * tiles_in_flight(n, eff.n_block, eff.workers)
            * _block_words(eff.n_block, eff.v_block, d))


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
    from numpy._core import _multiarray_umath as umath
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


class _Gemm(NamedTuple):
    """The CBLAS arguments of c = alpha op(a) op(b) + beta c but the three
    operand addresses; op(a) is m x k and op(b) k x n."""

    order: int
    trans_a: int
    trans_b: int
    m: int
    n: int
    k: int
    alpha: float
    lda: int
    ldb: int
    beta: float
    ldc: int


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


def _gemm_args(alpha, a, b, c, beta) -> _Gemm:
    """The arguments under which the kernel computes c = alpha a @ b + beta c,
    reading each array in place as passed; ValueError for an operand it
    cannot read and for a `c` it cannot write."""
    a_rows, lda = _blas_layout(a, "a")
    b_rows, ldb = _blas_layout(b, "b")
    c_rows, ldc = _blas_layout(c, "c")
    if not c.flags.writeable:
        raise ValueError("dgemm output c is read-only")
    (m, k), (k2, p) = a.shape, b.shape
    if k != k2 or c.shape != (m, p):
        raise ValueError(f"dgemm shapes {a.shape} @ {b.shape} -> {c.shape} do not match")
    return _Gemm(_ROW_MAJOR if c_rows else _COL_MAJOR,
                 _NO_TRANS if a_rows == c_rows else _TRANS,
                 _NO_TRANS if b_rows == c_rows else _TRANS,
                 m, p, k, alpha, lda, ldb, beta, ldc)


def _address(x: np.ndarray) -> int:
    """The address of x's first element, read from its array interface: an
    `x.ctypes` lookup leaves allocations behind on every new thread."""
    return x.__array_interface__["data"][0]


def _columns(x: np.ndarray) -> tuple[int, int]:
    """(address, column step in bytes) of a column-major matrix: column j
    starts at address + j * step."""
    return _address(x), x.strides[1]


def _kernel_gemm(g: _Gemm, a: int, b: int, c: int) -> None:
    """`g` on the operands at addresses a, b and c: the one call of numpy's
    ILP64 `cblas_dgemm`, which every product made on the kernel passes,
    each tile GEMM's and `dgemm`'s."""
    order, trans_a, trans_b, m, n, k, alpha, lda, ldb, beta, ldc = g
    _cblas_dgemm()(order, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)


def dgemm(alpha, a, b, c, beta=0.0):
    """c = alpha * a @ b + beta * c, in place; returns `c`.

    The checked array entry, on numpy's ILP64 `cblas_dgemm`. Each operand
    is read in place exactly as passed (a transpose is a `.T` view), so
    each must be C- or F-contiguous, and `c` must be writable; anything
    else raises ValueError before BLAS is called. Without the kernel,
    np.matmul writes `c`, so beta must be 0. The engine's tile GEMMs come
    here only without the kernel, or while a wrapper replaces this name.
    """
    g = _gemm_args(alpha, a, b, c, beta)
    if _cblas_dgemm() is None:
        if beta != 0.0:
            raise ValueError("dgemm accumulates (beta != 0) only on an ILP64 cblas_dgemm")
        if g.order == _ROW_MAJOR:
            np.matmul(a, b, out=c)
        else:
            np.matmul(b.T, a.T, out=c.T)
        if alpha != 1.0:
            c *= alpha
        return c
    _kernel_gemm(g, _address(a), _address(b), _address(c))
    return c


_DGEMM = dgemm  # the checked entry, told apart from a wrapper put in its place


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


class _Worker:
    """One tile thread's tracked buffer, with its address, and its
    counters: tiles processed and skipped by the filter, GEMMs and their
    flops. The runner takes the buffer before the thread starts, sized for
    the worker's first token block, its largest; each of its token blocks'
    tiles, merge row, target gather chunks and staged product chunks is a
    view of it. Only its thread touches it until the join."""

    def __init__(self, buf: np.ndarray):
        self.buf, self.buf_at = buf, _address(buf)
        self.processed = self.skipped = self.gemm_calls = self.gemm_flop = 0


class _TileRunner:
    """One engine call: its checked inputs, its smoothing column u and its
    clamped plan, and the run of its token blocks on up to `eff.workers`
    threads in one fixed order of accumulation.

    Built from the entry's arguments, it starts the call's clock, runs
    `_validate`, sums u (D x 1; 0.0 at beta 0, where nothing is summed),
    clamps the plan and takes the base addresses of E and C.
    `run(words, *block_fns)` hands each token block, as one `cols` slice,
    to every block function in turn: a forward or a backward over
    `vocab_blocks()`, or the two, so everything indexed by token needs no
    lock. `stats()`, called after the
    finishers, makes the call's MemoryStats.

    Each tile GEMM goes through `gemm`. On the bound path (the kernel is
    there and `dgemm` is the checked entry) it is one `_kernel_gemm` call
    at integer addresses, with the CBLAS arguments `_gemm_args` resolved
    from the first views of its tile shape: a call meets at most two
    vocabulary and two token-block extents. Otherwise `dgemm` runs on the
    views, so a wrapper put in its place sees every tile GEMM.

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
        self.staged = _cblas_dgemm() is None
        self.bound = not self.staged and dgemm is _DGEMM
        self.e_columns, self.c_columns = _columns(self.Ea), _columns(self.Ca)
        self._gemms: dict[tuple, _Gemm] = {}  # (GEMM, V extent, N extent) -> arguments
        self._cond = threading.Condition()
        self._turns = [0] * -(-self.v // self.eff.v_block)
        self._error: BaseException | None = None

    def vocab_blocks(self):
        """(index, first entry, extent) of each vocabulary block, in order."""
        vbk = self.eff.v_block
        for j, v0 in enumerate(range(0, self.v, vbk)):
            yield j, v0, min(vbk, self.v - v0)

    def gemm(self, worker: _Worker, key, views, a: int, b: int, c: int) -> None:
        """One tile GEMM c = alpha a b + beta c, counted in `worker`:
        `views()` gives (alpha, a, b, c, beta) as arrays, and `a`, `b`, `c`
        are their addresses. Its arguments are resolved once per `key`.
        Without the kernel an adding product goes through a staged chunk
        laid out like its output: the view that ends the worker's buffer,
        after the tile."""
        g = self._gemms.get(key)
        if g is None:  # two workers may both resolve it, to the same arguments
            g = self._gemms[key] = _gemm_args(*views())
        worker.gemm_calls += 1
        worker.gemm_flop += 2 * g.m * g.n * g.k
        if self.bound:
            _kernel_gemm(g, a, b, c)
            return
        alpha, left, right, out, beta = views()
        if not (self.staged and beta):
            dgemm(alpha, left, right, out, beta=beta)
            return
        buf = worker.buf
        out += dgemm(alpha, left, right, buf[buf.size - out.size:].reshape(out.shape, order="F"))

    def logit_tile(self, worker: _Worker, cols, v0: int, vb: int) -> np.ndarray:
        """The vb x N_B C-ordered view of the first words of the worker's
        buffer = C[:, v0:v0+vb].T E[:, cols], in one full-depth GEMM;
        returns that view."""
        tile = worker.buf[:vb * (cols.stop - cols.start)].reshape(vb, -1)
        self.gemm(worker, ("tile", vb, tile.shape[1]),
                  lambda: (1.0, self.Ca[:, v0:v0 + vb].T, self.Ea[:, cols], tile, 0.0),
                  self.c_columns[0] + v0 * self.c_columns[1],
                  self.e_columns[0] + cols.start * self.e_columns[1], worker.buf_at)
        return tile

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

    def _work(self, k: int, worker: _Worker, block_fns) -> None:
        """Worker k: its token blocks, until a failure is recorded. Its own
        failure is recorded, unless another came first (an `_Abandoned`
        worker's always did)."""
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
                        block_fn(worker, i, cols)
        except BaseException as exc:
            self._abandon(exc)

    def _abandon(self, exc: BaseException) -> None:
        """Keep the first failure and stop every worker at its next turn or
        token block."""
        with self._cond:
            if self._error is None:
                self._error = exc
            self._cond.notify_all()

    def run(self, words, *block_fns) -> None:
        """Run every token block through `block_fns` on `in_flight` worker
        threads, each with its own buffer and counters; keep the workers,
        the peak and the runner's wall time. One tracked allocator hands
        out the buffers on this thread before any worker starts, each of
        `words(nb, V_B, D)` floats for the worker's first block of nb
        tokens, and they are dropped once the workers have joined, before
        the finishers run.
        Whatever stops the run (a worker's error, a failed start, an
        interrupt) stops every worker, and the call raises only once every
        started worker has ended and the BLAS thread count is restored."""
        start = time.perf_counter()
        nbk, vbk = self.eff.n_block, self.eff.v_block
        # looked up here on each call: bench/tracer.py swaps
        # `blocked.TrackingAllocator` for a counting one
        alloc = TrackingAllocator()
        workers = [_Worker(alloc.empty(words(min(nbk, self.n - k * nbk), vbk, self.d)))
                   for k in range(self.in_flight)]
        threads = [threading.Thread(target=self._work, args=(k, w, block_fns),
                                    name=f"smoothce-tiles-{k}")
                   for k, w in enumerate(workers)]
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
        for w in workers:
            alloc.release(w.buf)
            w.buf = None
        if self._error is not None:
            raise self._error
        self._workers, self._peak = workers, alloc.peak_bytes
        self._runner_seconds = time.perf_counter() - start

    def stats(self) -> MemoryStats:
        """The call's peak and counters, the workers' summed, with its wall
        time so far split into the runner's and the rest."""
        ws, runner = self._workers, self._runner_seconds
        return MemoryStats(
            self._peak, sum(w.processed for w in ws),
            sum(w.skipped for w in ws), self.in_flight,
            gemm_calls=sum(w.gemm_calls for w in ws), gemm_flop=sum(w.gemm_flop for w in ws),
            phase_seconds={"runner": runner,
                           "outside": time.perf_counter() - self._start - runner})


def _forward_block(call: _TileRunner):
    """The forward's lse, its finisher and its block function: the token
    block's sweep over every vocabulary block, its finished lse, then its
    target score o_i = g_i . E_i, with g_i = (1-beta) C[:, x_i] + u. The
    finisher is `loss_output` on lse, o and the call's `keep`, which
    refuses a token whose loss is not finite and reduces."""
    Ea, d, vbk = call.Ea, call.d, call.eff.v_block
    # o holds a token block's running sum S until its lse is finished
    lse, o = np.empty(call.n), np.empty(call.n)

    def forward(worker, i, cols):
        """The block's online merge, then its target score, in one tracked
        buffer: the tiles and the N_B row m, then as many tokens' target
        columns at a time as fit, at least one."""
        nb, buf = cols.stop - cols.start, worker.buf
        m = buf[vbk * nb:(vbk + 1) * nb]
        run_max, run_sum = lse[cols], o[cols]
        run_max[:] = -np.inf
        run_sum[:] = 0.0
        for _, v0, vb in call.vocab_blocks():
            tile = call.logit_tile(worker, cols, v0, vb)
            # m = max(tile max, M); S *= exp(M - m); M = m; S += sum exp(tile - m)
            np.maximum.reduce(tile, axis=0, out=m)
            np.maximum(m, run_max, out=m)
            run_max -= m
            np.exp(run_max, out=run_max)
            run_sum *= run_max
            run_max[:] = m
            tile -= m
            np.exp(tile, out=tile)
            np.add.reduce(tile, axis=0, out=m)
            run_sum += m
            worker.processed += 1
        np.log(run_sum, out=run_sum)
        run_max += run_sum  # lse = M + log S
        gather = max(1, buf.size // max(d, 1))
        for c0 in range(cols.start, cols.stop, gather):
            k = min(gather, cols.stop - c0)
            g = call.target_rows(slice(c0, c0 + k), buf[:d * k].reshape((d, k), order="F"))
            g *= Ea[:, c0:c0 + k]
            np.add.reduce(g, axis=0, out=o[c0:c0 + k])

    return lse, functools.partial(loss_output, lse, o, call.reduction, call.keep), forward


def _backward_block(call: _TileRunner, lse, upstream: float, filter_epsilon: float):
    """The backward's `gradients()` finisher and its block function: the
    token block's `grad_e` columns start at -w g_i, the target part no
    filter may drop, and then it sweeps every vocabulary block, adding each
    tile's softmax part from P = exp(z - lse). The finisher adds the
    (1-beta) share of `grad_c` after the runner. Its options are refused
    before any gradient is allocated."""
    check_upstream(upstream)
    real(filter_epsilon, "filter_epsilon", lambda f: 0.0 <= f < 1.0, "lie in [0, 1)")
    Ea, Ca, beta, n, v, d = call.Ea, call.Ca, call.beta, call.n, call.v, call.d
    # every token weighs the same, so the weight is the products' alpha
    w = token_weight(n, call.reduction, upstream)
    grad_e = np.empty((d, n), order="F")
    grad_c = np.zeros((d, v), order="F") if n == 0 else np.empty((d, v), order="F")
    (e_at, e_step), (c_at, c_step) = call.e_columns, call.c_columns
    (ge_at, ge_step), (gc_at, gc_step) = _columns(grad_e), _columns(grad_c)
    # the uniform share of grad_c, -w beta/|V| per logit, as the column
    # that token block 0 starts each vocabulary block from
    c_start = -(beta / v) * w * Ea.sum(axis=1)[:, None] if beta else 0.0

    def backward(worker, i, cols):
        """The block's target columns, gathered straight into its gradient,
        then its tiles. A skipped tile still takes its `grad_c` turn, in
        which token block 0 starts the vocabulary block."""
        call.target_rows(cols, grad_e[:, cols])
        grad_e[:, cols] *= -w
        nb, lse_b, buf_at = cols.stop - cols.start, lse[cols], worker.buf_at
        e_col, ge_col = e_at + cols.start * e_step, ge_at + cols.start * ge_step
        for j, v0, vb in call.vocab_blocks():
            tile = call.logit_tile(worker, cols, v0, vb)
            tile -= lse_b
            skip = filter_epsilon > 0 and math.exp(float(tile.max())) < filter_epsilon
            if not skip:
                np.exp(tile, out=tile)
                call.gemm(worker, ("grad_e", vb, nb),
                          lambda: (w, Ca[:, v0:v0 + vb], tile, grad_e[:, cols], 1.0),
                          c_at + v0 * c_step, buf_at, ge_col)
            call.wait_turn(i, j)
            if i == 0:
                grad_c[:, v0:v0 + vb] = c_start
            if not skip:
                call.gemm(worker, ("grad_c", vb, nb),
                          lambda: (w, Ea[:, cols], tile.T, grad_c[:, v0:v0 + vb], 1.0),
                          e_col, buf_at, gc_at + v0 * gc_step)
            call.pass_turn(j)
            if skip:
                worker.skipped += 1
            else:
                worker.processed += 1

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
    call.run(_block_words, forward)
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
    call.run(_tile_words, backward)
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
    call.run(_block_words, forward, backward)
    return loss(), gradients(), call.stats()
