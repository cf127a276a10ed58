"""Numerically stable vector reductions over logits: column-wise
log-sum-exp, softmax, logit distances, and KL to the uniform distribution.

Every log-sum-exp and softmax shifts by the maximum before exponentiating,
so finite logits never overflow. The blocked engine's online softmax
merge lives in `blocked._forward_block`, on one tracked scratch row per
tile.
"""

from __future__ import annotations

import math

import numpy as np

from ._args import positive

__all__ = [
    "lse_columns",
    "softmax",
    "logit_distance",
    "kl_uniform",
]


def lse_columns(z: np.ndarray) -> np.ndarray:
    """Per-column log-sum-exp of a 2-D array of finite logits."""
    m = z.max(axis=0)
    s = np.exp(z - m).sum(axis=0)
    return m + np.log(s)


def softmax(z, temperature: float = 1.0) -> np.ndarray:
    """Softmax of a logit vector, optionally scaled by 1/temperature.

    Invariant to adding a constant to all logits; -inf entries map to
    probability zero. At least one entry must be finite.
    """
    positive(temperature, "temperature")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("softmax needs a non-empty 1-D vector")
    zt = z / temperature
    m = zt.max()
    if not np.isfinite(m):
        raise ValueError("softmax needs at least one finite logit")
    p = np.exp(zt - m)
    p /= p.sum()
    return p


def logit_distance(z) -> np.ndarray:
    """Gap of every logit to the maximum logit: d_k = max_i z_i - z_k.

    All entries are >= 0 and at least one is exactly zero; the argmin of the
    result is the argmax of the input.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logit_distance needs a non-empty 1-D vector")
    return z.max() - z


def kl_uniform(p) -> float:
    """KL divergence from the uniform distribution to p:
    sum_k (1/K) log((1/K) / p_k).

    Nonnegative, zero iff p is uniform. Any zero entry yields +inf rather
    than an error; callers decide how to treat flushed probabilities.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("kl_uniform needs a non-empty 1-D vector")
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    if (p == 0).any():
        return float("inf")
    k = p.size
    u = 1.0 / k
    return float(np.sum(u * (math.log(u) - np.log(p))))
