"""Per-layer tracing from outside the package.

A Tracer replaces module attributes, the names through which one layer
calls another, with timing and counting wrappers, and puts every original
back when its `with` block ends, also on error. Spans are not kept one by
one: each wrapper adds its duration and counts to running totals, and the
benchmark reads the totals before and after each operation to get that
operation's share.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._targets = []  # (module, attribute, make_wrapper)
        self.time_keys: set[str] = set()  # keys that hold seconds
        self._saved = []    # (module, attribute, original) while installed

    def time(self, module, attr: str, key: str, count=None) -> None:
        """Accumulate seconds spent in `module.attr` under `key`; `count`,
        if given, maps (args, kwargs, result) to {counter key: amount}."""
        self.time_keys.add(key)
        def make(original):
            totals = self.totals

            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = original(*args, **kwargs)
                totals[key] += time.perf_counter() - t0
                if count is not None:
                    for k, amount in count(args, kwargs, result).items():
                        totals[k] += amount
                return result
            return wrapper
        self._targets.append((module, attr, make))

    def replace(self, module, attr: str, make) -> None:
        """Install `make(original)` in place of `module.attr`."""
        self._targets.append((module, attr, make))

    def snapshot(self) -> dict[str, float]:
        return dict(self.totals)

    def delta(self, before: dict[str, float]) -> dict[str, float]:
        """Totals gained since `before`."""
        return {k: v - before.get(k, 0.0) for k, v in self.totals.items()}

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module, attr, make in self._targets:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def gemm_flop(args, kwargs, _result) -> dict[str, float]:
    """2 m n k for dgemm(alpha, a, b, ...) from the operand shapes."""
    a, b = args[1], args[2]
    # positional order: alpha, a, b, beta, c, trans_a, trans_b, overwrite_c
    trans_a = kwargs.get("trans_a", args[5] if len(args) > 5 else 0)
    trans_b = kwargs.get("trans_b", args[6] if len(args) > 6 else 0)
    m, k = (a.shape[1], a.shape[0]) if trans_a else a.shape
    n = b.shape[0] if trans_b else b.shape[1]
    return {"gemm_calls": 1, "gemm_flop": 2 * m * n * k}


def oracle_steps(fn):
    """Counter of restarts x iterations for calls of the oracle `fn`."""
    sig = inspect.signature(fn)

    def count(args, kwargs, _result) -> dict[str, float]:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"oracle_steps": bound.arguments["restarts"] * bound.arguments["iterations"]}
    return count


def counting_allocator(base, totals):
    """A subclass of the engine's allocator that counts every buffer it hands out."""
    class CountingAllocator(base):
        def empty(self, shape, order: str = "F"):
            arr = super().empty(shape, order)
            totals["alloc_calls"] += 1
            totals["alloc_bytes"] += arr.nbytes
            return arr
    return CountingAllocator
