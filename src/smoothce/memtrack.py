"""Allocation instrumentation for the blocked engine.

Every tile-sized buffer the engine uses is requested through a
TrackingAllocator, so the reported peak covers every auxiliary buffer that
grows with the tile plan. Inputs and returned outputs are excluded by
construction; O(D) and O(N_B) temporaries are not tracked.

Nor are numpy's internal ufunc buffers, at most 8192 elements per operand,
that the engine's in-place updates still cause: the broadcast `tile -= lse`
and `tile *= w` in the backward, and the `+=` of a product chunk into a
strided slice of `grad_e` or `grad_c`. The GEMMs themselves read strided
views of the inputs and write into tracked buffers, so they add nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["MemoryStats", "TrackingAllocator", "SingleAllocationLimitError"]


class SingleAllocationLimitError(MemoryError):
    """A single transient buffer would reach the configured ceiling."""


@dataclass(frozen=True)
class MemoryStats:
    """Auxiliary-memory and tiling counters for one engine call."""

    peak_auxiliary_bytes: int
    tiles_processed: int
    tiles_skipped_by_filter: int


class TrackingAllocator:
    """Hands out float64 scratch arrays while tracking current and peak bytes.

    `single_alloc_limit`, when set, rejects any one buffer of that many bytes
    or more; the blocked engine uses it to rule out accidental
    materialization of anything within an order of magnitude of the full
    logit matrix.
    """

    def __init__(self, single_alloc_limit: int | None = None):
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.peak_bytes = 0
        self.single_alloc_limit = single_alloc_limit

    def empty(self, shape, order: str = "F") -> np.ndarray:
        if isinstance(shape, int):
            shape = (shape,)
        nbytes = 8
        for s in shape:
            nbytes *= s
        if self.single_alloc_limit is not None and nbytes >= self.single_alloc_limit:
            raise SingleAllocationLimitError(
                f"transient allocation of {nbytes} bytes reaches the "
                f"{self.single_alloc_limit}-byte single-buffer ceiling"
            )
        with self._lock:
            self.current_bytes += nbytes
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes
        return np.empty(shape, dtype=np.float64, order=order)

    def release(self, arr: np.ndarray) -> None:
        with self._lock:
            self.current_bytes -= arr.nbytes
