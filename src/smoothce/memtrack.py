"""Allocation instrumentation for the blocked engine.

Every tile-sized buffer the engine uses is requested through a
TrackingAllocator, so the reported peak covers every auxiliary buffer that
grows with the tile plan: one buffer per worker per call, which each of
the worker's token blocks reuses for its logit tiles and, in the forward,
its merge row and then its target gather chunks, and without the
accumulating BLAS kernel for the staged product chunk that ends it.
`_TileRunner.run` takes every buffer from one allocator on the calling
thread before any worker starts, so no tile thread allocates. Inputs and
returned outputs are excluded by construction; O(D) and O(N) temporaries
are not tracked.

Nor are numpy's internal ufunc buffers. numpy allocates them even for
same-dtype operations, up to 8192 elements per operand by default, for the
broadcast `tile -= lse` and the online softmax merge. The engine runs its
tile work under `ufunc_buffer`, at 16 elements per worker thread, so they
stay a few hundred bytes. The GEMMs read the inputs in place and write
into tracked tiles or straight into the gradients, so they add nothing;
only without the accumulating BLAS kernel does a backward product pass
through a full-depth chunk of the tracked buffer and a `+=`.

The forward's target score, after a token block's last tile, gathers its
target columns (`_TileRunner.target_rows`) into the same buffer, as many
tokens at a time as fit (at least one: the buffer is never smaller than
one D-vector). The backward gathers its target columns straight into
`grad_e`. Beside the outputs they need only O(D)
vectors: the smoothing row u, which the call's runner holds, and the
`grad_c` start column. The forward's running sum lives in the `o`
output, and the ordered `grad_c` target scatter after the tiles needs
one D-vector at a time.

A buffer is counted from the moment `empty` has allocated it to
`release` (a request numpy cannot meet counts nothing); the engine drops
its last reference at `release`, once the workers have joined and before
the call's finishers run, so an allocator's peak is what was actually
held: the sum of the call's buffers.
The allocator refuses no request: the tests compare the peak with
`tracemalloc`, which also sees buffers that bypass it.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MemoryStats", "TrackingAllocator", "ufunc_buffer"]

# numpy's ufunc buffers hold 8192 elements per operand by default, and
# numpy fills them even for same-dtype work. A broadcast operand with stride
# 0, such as the row vector in `u - m[:, None]`, is copied into its buffer
# whenever a row is shorter than the buffer: at 32 x 1024 that op takes
# 33 µs at the default size and 11.5 µs at 16 elements (numpy 2.4, 2-vCPU
# host). The buffers would also count in the engine's peak. 16 elements
# avoid both costs.
_UFUNC_BUFFER = 16


@contextlib.contextmanager
def ufunc_buffer():
    """Run the block with numpy's ufunc buffer at 16 elements on this
    thread, and give the thread its previous size back on exit, also when
    the block raises. numpy keeps the size per thread (and ties it to
    `errstate`); the restore does not rely on either."""
    saved = np.setbufsize(_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(saved)


@dataclass(frozen=True)
class MemoryStats:
    """Auxiliary-memory and tiling counters for one engine call.

    `peak_auxiliary_bytes` is what the call's one allocator held at most:
    every worker thread's buffer, all taken before any worker starts, so
    it does not depend on thread timing. `tiles_in_flight` is one tile per
    worker thread, and one buffer: the factor `aux_bound_bytes` multiplies
    the buffer of a full token block by. `gemm_calls` and `gemm_flop`
    (2 m n k each) count the tile GEMMs the workers ran; they follow from
    the tile counters and the shape, and take no part in comparisons. Nor
    does `worker_cpus`, the CPU each worker thread was pinned to, in worker
    order (None for a worker that was not: a call whose worker count is not
    the count of CPUs the caller may run on, two or more, a platform without
    `os.sched_setaffinity`, or a refused pin). Nor does
    `phase_seconds`, which splits the call's wall time into `runner`, the
    tile runner's, and `outside`, the rest of the entry, and adds
    `worker_cpu`, the CPU time the worker threads used, summed: about
    `runner` when the workers shared one CPU, up to `tiles_in_flight` times
    it when each ran on its own.
    """

    peak_auxiliary_bytes: int
    tiles_processed: int
    tiles_skipped_by_filter: int
    tiles_in_flight: int
    gemm_calls: int = field(default=0, compare=False)
    gemm_flop: int = field(default=0, compare=False)
    worker_cpus: tuple[int | None, ...] = field(default=(), compare=False)
    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)


class TrackingAllocator:
    """Hands out float64 scratch arrays while tracking current and peak bytes."""

    def __init__(self):
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.peak_bytes = 0

    def empty(self, shape, order: str = "F") -> np.ndarray:
        """A float64 array of `shape`, counted once numpy has allocated it."""
        arr = np.empty(shape, dtype=np.float64, order=order)
        with self._lock:
            self.current_bytes += arr.nbytes
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes
        return arr

    def release(self, arr: np.ndarray) -> None:
        with self._lock:
            self.current_bytes -= arr.nbytes
