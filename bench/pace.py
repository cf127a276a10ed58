"""Machine-speed reference for the benchmark's times.

On a shared 2-CPU host the same loss_and_grad call alternates, for seconds
at a time and independently on each CPU, between two speeds about 1.3x
apart, and everything else in the process slows with it. A run's median
then says more about which phase it met than about the package.

So between timed operations the benchmark times one fixed computation that
does not touch smoothce or BLAS, and scales each operation's wall time by
NOMINAL_S over the mean of the reference times just before and just after
it. The reference mixes, in about equal
parts, the three kinds of work the operations do: numpy elementwise passes
over an L2-sized array, numpy calls on tiny arrays, and JSON and interpreter
work. A reported millisecond is
a millisecond at the speed where the reference takes NOMINAL_S. The wall
times themselves are kept in the raw run output.
"""

from __future__ import annotations

import json
import time

import numpy as np

NOMINAL_S = 0.019


class Pace:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((512, 128)) * 1e-3
        self._buf = np.empty_like(self._a)
        self._small = rng.standard_normal((16, 64))
        self._records = [{"probs": rng.uniform(size=50).tolist(), "label": i}
                         for i in range(20)]
        self.samples: list[float] = []

    def _work(self) -> int:
        for _ in range(20):
            np.exp(self._a, out=self._buf)
            self._buf.sum(axis=0)
            np.log(self._buf, out=self._buf)
            self._buf.max(axis=0)
        u = self._small
        for _ in range(300):
            e = np.exp(u - u.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
        for _ in range(3):
            json.loads(json.dumps(self._records))
        s = 0
        for i in range(10000):
            s += i
        return s

    def mark(self) -> int:
        """Time the reference once; return the index of that sample."""
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        """Scale for an operation timed between marks i and i + 1: NOMINAL_S
        over the mean of the two reference times (mark i alone if last)."""
        around = self.samples[i:i + 2]
        return NOMINAL_S * len(around) / sum(around)
