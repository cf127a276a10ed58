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

from ._args import integer, positive, real
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


def _finite_nonnegative(x) -> bool:
    return 0 <= x < math.inf


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
        for name in ("sigma_c", "sigma_h"):
            real(getattr(self, name), name, _finite_nonnegative, "be finite and nonnegative")
        integer(self.d, "d", 1)
        integer(self.v, "v", 2)
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
        real(r, "r: norm budget", _finite_nonnegative, "be finite and nonnegative")
        integer(d, "d", 1)
        return cls(sigma_c=r / math.sqrt(d), sigma_h=1.0, d=d, v=v)


def norm_bound(sigma_c: float, sigma_h: float, d: int) -> float:
    """Largest possible ||C^T h||_2 when ||C||_2 = sigma_c and every entry
    of h is bounded by sigma_h: sigma_c * sigma_h * sqrt(d)."""
    for name, val in (("sigma_c", sigma_c), ("sigma_h", sigma_h)):
        positive(val, name)
    integer(d, "d", 1)
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
    return math.log1p((v - 1.0) * gamma) + p.r * gamma * math.sqrt(v * (v - 1.0)) / denom


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

# the oracle's early exit: every _STALL_WINDOW steps, each row whose best
# entropy fell by no more than a relative _STALL_TOLERANCE over the window
# stops descending
_STALL_WINDOW = 50
_STALL_TOLERANCE = 1e-15


def numeric_min_entropy(r: float | Sequence[float], v: int, restarts: int = 64,
                        iterations: int = 5000, step: float = 4.0,
                        seed: int = 0) -> float | list[float]:
    """Minimum softmax entropy over ||u||_2 <= r found by projected gradient
    descent with random restarts; an oracle independent of the closed form.

    `r` is one budget or a 1-D sequence of budgets; the result is a float
    for a scalar and a list in the same order otherwise. Every budget starts
    from the same seeded `restarts` directions, scaled onto its own sphere,
    and all len(r) * restarts rows descend together. Each step moves a row
    step * r / (1 + r) along its normalised negative gradient and projects
    it back onto its ball. A budget's value is the best entropy seen
    anywhere along its rows' trajectories. Half the restarts begin at
    generic points of the sphere, half at spiky points concentrated on one
    random coordinate, so flat near-uniform basins at large v cannot trap
    every trajectory.

    `iterations` is a cap: every 50 steps, each row whose best entropy fell
    by no more than a relative 1e-15 over those steps stops, and the call
    returns once every row has stopped. A row's stop depends on its own
    trajectory alone, so a batched call equals the single-budget calls bit
    for bit, and a call with one more iteration extends the same
    trajectories. See `_descend` for the step and its memory. Each budget
    must lie in (0, 1e150].
    """
    try:
        ndim = np.ndim(r)
    except ValueError:  # a ragged nesting
        ndim = 2
    budgets = [r] if ndim == 0 else list(r)
    if ndim > 1 or not budgets:
        raise ValueError(f"r must be one norm budget or a non-empty 1-D sequence, got {r!r}")
    for rk in budgets:
        real(rk, "r: norm budget", lambda x: 0 < x <= _MAX_ORACLE_BUDGET,
             f"lie in (0, {_MAX_ORACLE_BUDGET:g}]")
    radii = np.asarray(budgets, dtype=np.float64)
    integer(v, "v: vocabulary size", 2)
    integer(restarts, "restarts", 1)
    integer(iterations, "iterations", 1)
    positive(step, "step")
    integer(seed, "seed", 0)

    rng = np.random.default_rng(seed)
    start = rng.standard_normal((restarts, v))
    n_spiky = restarts // 2
    if n_spiky:
        start[:n_spiky] *= 0.05
        spikes = rng.integers(0, v, size=n_spiky)
        start[np.arange(n_spiky), spikes] += 1.0
    norms = np.linalg.norm(start, axis=1, keepdims=True)
    u = np.empty((radii.size * restarts, v))
    for k, rk in enumerate(radii.tolist()):
        np.multiply(start, rk / norms, out=u[k * restarts:(k + 1) * restarts])
    del start
    r_row = np.repeat(radii, restarts)

    best = _descend(u, r_row, iterations, step)
    per_budget = best.reshape(radii.size, restarts).min(axis=1).tolist()
    return per_budget if ndim else per_budget[0]


def _descend(u: np.ndarray, r_row: np.ndarray, iterations: int,
             step: float) -> np.ndarray:
    """Projected gradient descent on the rows of u, in place, for at most
    `iterations` steps; returns the least entropy each row reaches along its
    trajectory.

    With z = u - max(u), e = exp(z), S = sum e and p = e / S, a row's
    entropy is H = log S - sum p z, and since log p + H = z - sum p z, the
    negative gradient p (log p + H) needs one exp and no log p. A step moves
    a row of budget r by step * r / (1 + r) along that gradient's direction,
    so 1/S cancels: with g = e (z - sum p z), u += (step * r / (1 + r)) g / ||g||,
    and then u is projected back onto its ball. The move shrinks with small
    budgets, where the ball is only r across, and stops growing with large
    ones, where the entropy's curvature along the sphere grows like r and a
    move of order r would overshoot the minimum and stall. A row whose
    ||g||^2 underflows to 0 (a budget or an entropy below about 1e-160)
    does not move.

    A step is 12 passes over u (4 of them row broadcasts) on two scratch
    arrays `z` and `e` of its shape and a few row vectors, and allocates no
    array data. Each of its five row reductions is one ufunc or gufunc call:
    the max `np.maximum.reduce`, and S, sum e z, ||g||^2 and ||u||^2 by
    `np.vecdot`, S as a dot with a row of ones.

    Every `_STALL_WINDOW` steps, each row whose best entropy fell by no more
    than a relative `_STALL_TOLERANCE` over the window stops: its best is
    kept, and the live rows move to the front of u (by way of `z`) and of
    the row vectors, so later steps run on leading views; the check
    allocates row vectors only. The call returns once no row is live.
    Rows of at least `_SMALL_BUFFER_ROWS` entries run at the small ufunc
    buffer (see `memtrack.ufunc_buffer`); shorter rows keep the caller's.
    """
    rows = len(u)
    # the iterate, its scratch arrays and the step's row vectors; each step
    # runs on their leading views over the live rows
    full = (u, np.empty_like(u), np.empty_like(u), *(np.empty(rows) for _ in range(3)),
            np.empty(rows, dtype=bool))
    u, z, e, m, s, q, moving = full
    ones = np.ones(u.shape[1])
    move = step * r_row / (1.0 + r_row)
    best, prev = np.full(rows, math.inf), np.full(rows, math.inf)
    row_id, found = np.arange(rows), np.empty(rows)
    buffer = (ufunc_buffer() if u.shape[1] >= _SMALL_BUFFER_ROWS
              else contextlib.nullcontext())
    # a budget small enough (about 1e-200) underflows a row's squared norm to
    # 0; r/0 = inf is clipped to 1 below, and a zero row needs no projection
    with buffer, np.errstate(divide="ignore"):
        for t in range(1, iterations + 1):
            np.maximum.reduce(u, axis=1, out=m)
            np.subtract(u, m[:, None], out=z)
            np.exp(z, out=e)
            np.vecdot(e, ones, out=s)                   # S
            np.vecdot(e, z, out=q)
            q /= s                                      # sum p z
            z -= q[:, None]                             # log p + H
            np.log(s, out=m)
            m -= q                                      # entropy per row
            np.minimum(best, m, out=best)
            z *= e                                      # g = S p (log p + H)
            np.vecdot(z, z, out=s)
            np.sqrt(s, out=s)
            np.greater(s, 0.0, out=moving)
            np.divide(move, s, out=s, where=moving)     # stays 0 where ||g|| is
            z *= s[:, None]
            u += z
            np.vecdot(u, u, out=s)
            np.sqrt(s, out=s)
            np.divide(r_row, s, out=s)
            np.minimum(s, 1.0, out=s)
            u *= s[:, None]                             # back onto the ball
            if t % _STALL_WINDOW:
                continue
            found[row_id] = best
            live = best < prev * (1.0 - _STALL_TOLERANCE)
            n = np.count_nonzero(live)
            if n == 0:
                break
            # mode "clip" writes straight into `out`; "raise" would buffer a
            # copy of the live rows
            np.take(u, np.flatnonzero(live), axis=0, out=full[1][:n], mode="clip")
            full[0][:n] = full[1][:n]
            u, z, e, m, s, q, moving = (a[:n] for a in full)
            r_row, move, best, row_id = (a[live] for a in (r_row, move, best, row_id))
            prev = best.copy()
    found[row_id] = best
    return found


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
        if val is not None:
            positive(val, name)
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
