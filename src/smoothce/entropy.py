"""Softmax entropy floor of a norm-bounded classifier head.

When the logit vector u over v classes satisfies ||u||_2 <= R, the softmax
entropy cannot fall below a closed-form floor attained by a vector with one
positive entry and v-1 equal negative entries. Everything here is
parameterized by the budget R = rho * sqrt(d) internally; spectral norm,
entrywise bound, hidden size, temperature, and softcapping are all
front-ends that move R.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .memtrack import ufunc_buffer

__all__ = [
    "BoundParams",
    "norm_bound",
    "entropy_lower_bound",
    "minimizer_logits",
    "minimizer_vector",
    "numeric_min_entropy",
    "normalized_gap",
    "effective_params",
    "shannon_entropy",
]


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the entropy floor: the classifier spectral norm sigma_c,
    the entrywise hidden-state bound sigma_h, hidden size d, and vocabulary
    size v. rho = sigma_c * sigma_h and r = rho * sqrt(d) are derived."""

    sigma_c: float
    sigma_h: float
    d: int
    v: int
    rho: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        for name, val in (("sigma_c", self.sigma_c), ("sigma_h", self.sigma_h)):
            if not 0 <= val < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {val}")
        if self.d < 1:
            raise ValueError(f"hidden size must be >= 1, got {self.d}")
        if self.v < 2:
            raise ValueError(f"vocabulary size must be >= 2, got {self.v}")
        object.__setattr__(self, "rho", self.sigma_c * self.sigma_h)
        object.__setattr__(self, "r", self.rho * math.sqrt(self.d))
        if self.r == math.inf:
            raise ValueError(f"norm budget rho * sqrt(d) overflows: rho={self.rho}, "
                             f"d={self.d}")

    @classmethod
    def from_budget(cls, r: float, v: int, d: int = 1) -> "BoundParams":
        """Parameters with sigma_h = 1 and sigma_c = r / sqrt(d), whose
        budget p.r = sigma_c * sqrt(d) is r up to those two roundings:
        within 2 ulp of r in theory, within 1 ulp in seeded draws up to
        d = 5000, and exactly r at d = 1."""
        if not 0 <= r < math.inf:
            raise ValueError(f"norm budget must be finite and nonnegative, got {r}")
        return cls(sigma_c=r / math.sqrt(d), sigma_h=1.0, d=d, v=v)


def norm_bound(sigma_c: float, sigma_h: float, d: int) -> float:
    """Largest possible ||C^T h||_2 when ||C||_2 = sigma_c and every entry
    of h is bounded by sigma_h: sigma_c * sigma_h * sqrt(d)."""
    if not (sigma_c > 0 and sigma_h > 0 and d > 0):
        raise ValueError("norm_bound needs strictly positive inputs")
    return sigma_c * sigma_h * math.sqrt(d)


def entropy_lower_bound(p: BoundParams) -> float:
    """Closed-form entropy floor for softmax over v classes under the
    logit-norm budget r = rho * sqrt(d).

    With gamma = exp(-r * sqrt(v / (v - 1))):

        floor = log(1 + (v-1) gamma)
              + r * gamma * sqrt(v (v-1)) / (1 + (v-1) gamma)

    The value lies in (0, log v], reaching log v exactly at r = 0.
    """
    v = p.v
    gamma = math.exp(-p.r * math.sqrt(v / (v - 1.0)))
    denom = 1.0 + (v - 1.0) * gamma
    return math.log(denom) + p.r * gamma * math.sqrt(v * (v - 1.0)) / denom


def minimizer_logits(p: BoundParams) -> tuple[float, float]:
    """The two distinct logit values (a, b) of the entropy minimizer: one
    coordinate at a, the remaining v-1 at b, with a^2 + (v-1) b^2 = r^2."""
    v = p.v
    a = p.r * math.sqrt(1.0 - 1.0 / v)
    b = -p.r * math.sqrt(1.0 / (v * (v - 1.0)))
    return a, b


def minimizer_vector(p: BoundParams) -> np.ndarray:
    a, b = minimizer_logits(p)
    u = np.full(p.v, b)
    u[0] = a
    return u


def shannon_entropy(prob: np.ndarray) -> float:
    """Entropy of a probability vector, with 0 log 0 = 0."""
    prob = np.asarray(prob, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(prob > 0, prob * np.log(prob), 0.0)
    return float(-terms.sum())


# The oracle's largest norm budget: the squared row norms u . u overflow
# float64 above about 1.3e154, and at this budget the closed-form floor is
# already exactly 0.
_MAX_ORACLE_BUDGET = 1e150

# the oracle's rows shorter than this keep the caller's ufunc buffer: their
# broadcast copies cost less than the extra fills of a 16-element buffer
_SMALL_BUFFER_ROWS = 128


def numeric_min_entropy(r: float | Sequence[float], v: int, restarts: int = 64,
                        iterations: int = 5000, step: float = 0.1,
                        seed: int = 0) -> float | list[float]:
    """Minimum softmax entropy over ||u||_2 <= r found by projected gradient
    descent with random restarts; an oracle independent of the closed form.

    `r` is one budget or a 1-D sequence of budgets; the result is a float
    for a scalar and a list in the same order otherwise. Every budget starts
    from the same seeded `restarts` directions, scaled onto its own sphere,
    and all len(r) * restarts rows descend together with step schedule
    step/sqrt(t), each projected back onto its ball every iteration. A
    budget's value is the best entropy seen anywhere along its rows'
    trajectories. Half the restarts begin at generic points of the sphere,
    half at spiky points concentrated on one random coordinate, so flat
    near-uniform basins at large v cannot trap every trajectory.

    Rows never mix, so a budget's value does not depend on which others
    share the call: a batched call equals the single-budget calls bit for
    bit. See `_descend` for the step and its memory. Each budget must lie
    in (0, 1e150].
    """
    radii = np.asarray(r, dtype=np.float64)
    if radii.ndim > 1 or radii.size == 0:
        raise ValueError(f"r must be one norm budget or a non-empty 1-D sequence, got {r!r}")
    if not np.all((radii > 0) & (radii <= _MAX_ORACLE_BUDGET)):
        raise ValueError(f"r: norm budgets must lie in (0, {_MAX_ORACLE_BUDGET:g}], "
                         f"got {r!r}")
    if v < 2:
        raise ValueError(f"v: vocabulary size must be >= 2, got {v}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step}")

    rng = np.random.default_rng(seed)
    start = rng.standard_normal((restarts, v))
    n_spiky = restarts // 2
    if n_spiky:
        start[:n_spiky] *= 0.05
        spikes = rng.integers(0, v, size=n_spiky)
        start[np.arange(n_spiky), spikes] += 1.0
    norms = np.linalg.norm(start, axis=1, keepdims=True)
    radii = radii.ravel()
    u = np.empty((radii.size * restarts, v))
    for k, rk in enumerate(radii.tolist()):
        np.multiply(start, rk / norms, out=u[k * restarts:(k + 1) * restarts])
    del start
    r_row = np.repeat(radii, restarts)

    best = _descend(u, r_row, iterations, step)
    per_budget = best.reshape(radii.size, restarts).min(axis=1).tolist()
    return per_budget if np.ndim(r) else per_budget[0]


def _descend(u: np.ndarray, r_row: np.ndarray, iterations: int,
             step: float) -> np.ndarray:
    """Projected gradient descent on the rows of u, in place; returns the
    least entropy each row reaches along its trajectory.

    With z = u - max(u), e = exp(z), S = sum e and p = e / S, a row's
    entropy is H = log S - sum p z, and since log p + H = z - sum p z, the
    step u += c p (log p + H) needs one exp and no log p. A step is 11
    passes over u (4 of them row broadcasts) on two scratch arrays `z` and
    `e` of its shape and a few row vectors, and allocates no array data.
    Rows of at least `_SMALL_BUFFER_ROWS` entries run at the small ufunc
    buffer (see `memtrack.ufunc_buffer`); shorter rows keep the caller's.
    """
    z = np.empty_like(u)
    e = np.empty_like(u)
    m, s, q = (np.empty(len(u)) for _ in range(3))
    best = np.full(len(u), math.inf)
    buffer = (ufunc_buffer() if u.shape[1] >= _SMALL_BUFFER_ROWS
              else contextlib.nullcontext())
    # a budget small enough (about 1e-200) underflows a row's squared norm to
    # 0; r/0 = inf is clipped to 1 below, and a zero row needs no projection
    with buffer, np.errstate(divide="ignore"):
        for t in range(1, iterations + 1):
            np.max(u, axis=1, out=m)
            np.subtract(u, m[:, None], out=z)
            np.exp(z, out=e)
            np.sum(e, axis=1, out=s)                    # S
            np.einsum("ij,ij->i", e, z, out=q)
            q /= s                                      # sum p z
            z -= q[:, None]                             # log p + H
            np.log(s, out=m)
            m -= q                                      # entropy per row
            np.minimum(best, m, out=best)
            # u -= c * grad with grad = -p (log p + H)
            np.divide(step / math.sqrt(t), s, out=s)
            e *= s[:, None]                             # c p
            z *= e
            u += z
            np.einsum("ij,ij->i", u, u, out=s)
            np.sqrt(s, out=s)
            np.divide(r_row, s, out=s)
            np.minimum(s, 1.0, out=s)
            u *= s[:, None]                             # back onto the ball
    return best


def normalized_gap(p: BoundParams) -> float:
    """Headroom to concentrate predictions: (log v - floor) / log v.

    Lies in [0, 1); for extreme budgets where floor / log v drops below
    machine epsilon the value rounds to exactly 1.0.
    """
    logv = math.log(p.v)
    return (logv - entropy_lower_bound(p)) / logv


def effective_params(p: BoundParams, temperature: float | None = None,
                     softcap: float | None = None) -> BoundParams:
    """Fold temperature scaling and logit softcapping into the norm budget.

    Softcapping bounds each logit entry by `cap`, hence ||u||_2 <= cap *
    sqrt(v) (a conservative model: production tanh capping is strictly
    tighter, so the floor stays valid). Temperature divides the logit scale:
    r' = r / tau, applied after the cap. The returned params absorb the new
    budget into sigma_h.
    """
    for name, val in (("temperature", temperature), ("softcap", softcap)):
        if val is not None and not 0 < val < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {val}")
    r_new = p.r
    if softcap is not None:
        r_new = min(r_new, softcap * math.sqrt(p.v))
    if temperature is not None:
        r_new = r_new / temperature
        if r_new == math.inf:
            raise ValueError(f"norm budget {p.r} / temperature {temperature} "
                             f"overflows")
    if r_new == p.r:
        return p
    return replace(p, sigma_h=p.sigma_h * (r_new / p.r))
