"""Allocation instrumentation for the blocked engine.

Every tile-sized buffer the engine uses is requested through a
TrackingAllocator, so the reported peak covers every auxiliary buffer that
grows with the tile plan. Inputs and returned outputs are excluded by
construction; O(D) and O(N) temporaries are not tracked.

Nor are numpy's internal ufunc buffers. numpy allocates them even for
same-dtype operations, up to 8192 elements per operand by default, for the
broadcast `tile -= lse` and the online softmax merge. The engine runs its
tile work with the buffer size at 16 elements, per worker thread, so they
stay a few hundred bytes. The GEMMs read the inputs in place and write
into tracked tiles or straight into the gradients, so they add nothing;
only without the accumulating BLAS kernel does a backward product pass
through a tracked chunk and a `+=`.

The smoothing share's whole-array terms and the per-token target passes
after the tiles need only O(D) and O(N) temporaries.

A buffer is counted from `empty` to `release`; the engine drops its last
reference at `release`, so the reported peak is what is actually held.
The allocator refuses no request: the tests compare the peak with
`tracemalloc`, which also sees buffers that bypass it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["MemoryStats", "TrackingAllocator"]


@dataclass(frozen=True)
class MemoryStats:
    """Auxiliary-memory and tiling counters for one engine call.

    `tiles_in_flight` is how many tiles the call held at once, one per
    worker thread: the factor `aux_bound_bytes` multiplies the tile working
    set by.
    """

    peak_auxiliary_bytes: int
    tiles_processed: int
    tiles_skipped_by_filter: int
    tiles_in_flight: int


class TrackingAllocator:
    """Hands out float64 scratch arrays while tracking current and peak bytes."""

    def __init__(self):
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.peak_bytes = 0

    def empty(self, shape, order: str = "F") -> np.ndarray:
        if isinstance(shape, int):
            shape = (shape,)
        nbytes = 8
        for s in shape:
            nbytes *= s
        with self._lock:
            self.current_bytes += nbytes
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes
        return np.empty(shape, dtype=np.float64, order=order)

    def release(self, arr: np.ndarray) -> None:
        with self._lock:
            self.current_bytes -= arr.nbytes
