"""Shared helpers for the test suite."""

import threading

import numpy as np


def rel_err(got, want) -> float:
    """Relative Frobenius error with a floor to dodge zero denominators."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-300)


def grad_rel_err(got, want) -> float:
    return max(
        rel_err(got.grad_e.data, want.grad_e.data),
        rel_err(got.grad_c.data, want.grad_c.data),
    )


def conditioned_scales(e, c, x, beta, weight=1.0):
    """The sizes that float64 sums can resolve in each gradient, computed
    densely: (‖|C| (P + q) W‖_F, ‖|E| W (P + q)^T‖_F), where P is the
    V x N softmax, q the smoothed targets (1-beta) [v == x_i] + beta/V and
    W the token weights (a scalar or one per token). Near an optimum
    P - q, and with it the gradient, is far smaller than these."""
    emb, cls = e.data, c.data
    v, n = cls.shape[1], emb.shape[1]
    z = cls.T @ emb
    p = np.exp(z - z.max(axis=0))
    p /= p.sum(axis=0)
    q = np.full((v, n), beta / v)
    q[np.asarray(x.targets), np.arange(n)] += 1.0 - beta
    pq = (p + q) * weight
    return (float(np.linalg.norm(np.abs(cls) @ pq)),
            float(np.linalg.norm(np.abs(emb) @ pq.T)))


def tile_threads() -> list[str]:
    """Names of the blocked engine's worker threads that are alive."""
    return sorted(t.name for t in threading.enumerate()
                  if t.name.startswith("smoothce-tiles-"))


def recording_blas_calls(log: list):
    """A stand-in for `blocked._openblas_thread_calls`: its getter reads 4
    threads, and its setter appends (count, live tile threads) to `log`,
    so a test can see which workers were alive when a count was set."""
    def set_(count):
        log.append((count, tile_threads()))

    return lambda: (lambda: 4, set_)
