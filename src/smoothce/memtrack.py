"""Memory counters for the blocked engine, the seam its buffers are taken
through, and the ufunc-buffer setting its tile work runs under.

`MemoryStats` is what an engine call reports. Its peak is the sum of the
call's worker buffers, one per worker per call, all taken through
`TrackingAllocator.empty` on the calling thread before any worker starts
and held until the workers have joined: the tile work allocates nothing
else that grows with the plan. `TrackingAllocator` keeps no count of its
own; it stays so that tests and the bench tracer can put a counting
subclass in its place. Inputs and returned outputs are excluded by
construction; O(D) and O(N) temporaries are not counted.

Nor are numpy's internal ufunc buffers. numpy allocates them even for
same-dtype operations, up to 8192 elements per operand by default, for the
broadcast `tile -= lse` and the online softmax merge. The engine runs its
tile work under `ufunc_buffer`, at 16 elements per worker thread, so they
stay a few hundred bytes. The GEMMs read the inputs in place and write
into the worker's buffer or straight into the gradients, so they add
nothing; only without the accumulating BLAS kernel does a backward product
pass through a full-depth chunk of the buffer and a `+=`. The tests
compare the peak with `tracemalloc`, which also sees every allocation
that bypasses the buffers.
"""

from __future__ import annotations

import contextlib
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

    `peak_auxiliary_bytes` is the sum of the call's worker buffers, all
    taken before any worker starts and held until every worker has ended,
    so it does not depend on thread timing. `tiles_in_flight` is one tile per
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
    """Hands out the engine's float64 worker buffers."""

    def empty(self, shape, order: str = "F") -> np.ndarray:
        return np.empty(shape, dtype=np.float64, order=order)
