"""Softmax entropy floor of a norm-bounded classifier head.

When the logit vector u over v classes satisfies ||u||_2 <= R, the softmax
entropy cannot fall below a closed-form floor attained by a vector with one
positive entry and v-1 equal negative entries. Everything here is
parameterized by the budget R = rho * sqrt(d) internally; spectral norm,
entrywise bound, hidden size, temperature, and softcapping are all
front-ends that move R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
        """Parameters with logit-norm budget exactly r (sigma_h = 1)."""
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


def numeric_min_entropy(r: float, v: int, restarts: int = 64,
                        iterations: int = 5000, step: float = 0.1,
                        seed: int = 0) -> float:
    """Minimum softmax entropy over ||u||_2 <= r found by projected gradient
    descent with random restarts; an oracle independent of the closed form.

    Runs all restarts as one (restarts, v) batch with step schedule
    step/sqrt(t), projecting back onto the ball each iteration, and returns
    the best entropy seen anywhere along the trajectories. Half the restarts
    begin at generic points of the sphere, half at spiky points concentrated
    on one random coordinate, so flat near-uniform basins at large v cannot
    trap every trajectory.
    """
    if not r > 0:
        raise ValueError("norm budget must be positive")
    if v < 2:
        raise ValueError(f"vocabulary size must be >= 2, got {v}")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((restarts, v))
    n_spiky = restarts // 2
    if n_spiky:
        u[:n_spiky] *= 0.05
        spikes = rng.integers(0, v, size=n_spiky)
        u[np.arange(n_spiky), spikes] += 1.0
    u *= r / np.linalg.norm(u, axis=1, keepdims=True)

    best = math.inf
    for t in range(1, iterations + 1):
        m = u.max(axis=1, keepdims=True)
        shifted = u - m
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + m
        logp = u - log_z
        prob = np.exp(logp)
        h = -(prob * logp).sum(axis=1)
        best = min(best, float(h.min()))
        grad = -prob * (logp + h[:, None])
        u -= (step / math.sqrt(t)) * grad
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        np.multiply(u, np.minimum(1.0, r / norms), out=u)
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
