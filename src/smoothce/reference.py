"""Full-materialization forward/backward for smoothed cross-entropy, plus a
central finite-difference gradient oracle.

This module is the correctness anchor: it allocates the complete |V| x N
logit matrix on purpose and computes everything the obvious way. Use the
blocked engine when memory matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reductions import lse_columns
from .tensors import DenseMatrix, TokenSequence

__all__ = ["LossOutput", "Gradients", "naive_forward", "naive_backward",
           "finite_diff_grad"]

REDUCTIONS = ("sum", "mean")


@dataclass(frozen=True)
class LossOutput:
    """Per-token loss pieces and the reduced scalar.

    `lse` is the softmax normalizer per token, `o` the smoothed target score
    (the (1-beta)-weighted target logit plus the beta-weighted mean logit),
    and per_token_loss = lse - o exactly as computed.
    """

    lse: np.ndarray
    o: np.ndarray
    per_token_loss: np.ndarray
    total: float
    reduction: str


@dataclass(frozen=True)
class Gradients:
    grad_e: DenseMatrix
    grad_c: DenseMatrix


def _validate(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
              reduction: str, ignore_mask=None):
    if E.rows != C.rows:
        raise ValueError(
            f"embedding dim {E.rows} does not match classifier dim {C.rows}")
    n, v, d = E.cols, C.cols, E.rows
    if v == 0:
        raise ValueError(f"classifier is empty ({d} x 0): it has no vocabulary entries")
    if len(x) != n:
        raise ValueError(f"{len(x)} targets for {n} token columns")
    x.check_vocab(v)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")
    keep = None
    if ignore_mask is not None:
        keep = ~np.asarray(ignore_mask, dtype=bool)
        if keep.shape != (n,):
            raise ValueError("ignore_mask must have one flag per token")
    return E.data, C.data, x.targets, n, v, d, keep


def token_weights(n: int, reduction: str, upstream: float, keep=None) -> np.ndarray:
    """Per-token chain-rule weight for the reduced loss: upstream times 1
    for `sum`, 1/(kept count) for `mean`; ignored tokens weigh zero."""
    n_eff = n if keep is None else int(keep.sum())
    w = np.full(n, upstream / n_eff if (reduction == "mean" and n_eff) else upstream)
    if reduction == "mean" and n_eff == 0:
        w[:] = 0.0
    if keep is not None:
        w[~keep] = 0.0
    return w


def _reduce(per_token: np.ndarray, reduction: str, keep) -> float:
    if keep is not None:
        per_token = per_token[keep]
    if reduction == "sum":
        return float(per_token.sum())
    return float(per_token.mean()) if per_token.size else 0.0


def check_finite_loss(per_token: np.ndarray, keep=None) -> None:
    """Refuse a kept token whose loss is not finite: some of its logits
    overflow float64 (or are not finite), so no engine can give it a
    meaningful value."""
    bad = ~np.isfinite(per_token)
    if keep is not None:
        bad &= keep
    if bad.any():
        raise ValueError(f"loss of token {int(np.argmax(bad))} is not finite: "
                         "its logits are not all finite float64 values")


def check_upstream(upstream: float) -> None:
    """Refuse a non-finite upstream gradient before any pass runs: it
    would make every gradient entry non-finite."""
    if not math.isfinite(upstream):
        raise ValueError(f"upstream must be finite, got {upstream}")


def _forward_arrays(Ea, Ca, xa, beta: float, v: int):
    # overflowing logits give a non-finite loss, which the callers refuse
    with np.errstate(over="ignore", invalid="ignore"):
        z = Ca.T @ Ea
        lse = lse_columns(z)
        target_scores = z[xa, np.arange(xa.size)]
        o = (1.0 - beta) * target_scores + (beta / v) * z.sum(axis=0)
        per_token = lse - o
    return z, lse, o, per_token


def naive_forward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float, *,
                  reduction: str = "sum", ignore_mask=None) -> LossOutput:
    """Smoothed cross-entropy by materializing all logits.

    Per token i the loss is lse_i - o_i where
    o_i = (1-beta) * z[x_i, i] + (beta/|V|) * sum_v z[v, i]; tokens flagged in
    `ignore_mask` contribute zero loss and are excluded from `mean`. A
    kept token whose loss is not finite raises ValueError.
    """
    Ea, Ca, xa, n, v, d, keep = _validate(E, C, x, beta, reduction, ignore_mask)
    _, lse, o, per_token = _forward_arrays(Ea, Ca, xa, beta, v)
    check_finite_loss(per_token, keep)
    total = _reduce(per_token, reduction, keep)
    if keep is not None:
        per_token = np.where(keep, per_token, 0.0)
    return LossOutput(lse, o, per_token, total, reduction)


def naive_backward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float, *,
                   reduction: str = "sum", upstream: float = 1.0,
                   ignore_mask=None) -> Gradients:
    """Exact gradients of the reduced loss with respect to E and C.

    Builds the adjusted softmax matrix A[v,i] = P[v,i] - (1-beta)*[v == x_i]
    - beta/|V| (columns of A sum to zero for every beta), scales columns by
    the per-token weight, and contracts: grad_e = C A, grad_c = E A^T.
    """
    Ea, Ca, xa, n, v, d, keep = _validate(E, C, x, beta, reduction, ignore_mask)
    check_upstream(upstream)
    z, lse, _, per_token = _forward_arrays(Ea, Ca, xa, beta, v)
    check_finite_loss(per_token, keep)
    a = np.exp(z - lse)
    a[xa, np.arange(n)] -= 1.0 - beta
    a -= beta / v
    a *= token_weights(n, reduction, upstream, keep)
    grad_e = np.matmul(Ca, a, order="F")
    grad_c = np.matmul(Ea, a.T, order="F")
    return Gradients(DenseMatrix._wrap(grad_e), DenseMatrix._wrap(grad_c))


def finite_diff_grad(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                     h: float, *, reduction: str = "sum",
                     ignore_mask=None) -> Gradients:
    """Central-difference gradient of the reduced loss, entry by entry.

    Costs 2*D*(N+|V|) full forward passes; intended for small instances only.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be finite and positive, got {h}")
    Ea, Ca, xa, n, v, d, keep = _validate(E, C, x, beta, reduction, ignore_mask)

    def total(e_arr, c_arr) -> float:
        return _reduce(_forward_arrays(e_arr, c_arr, xa, beta, v)[3], reduction, keep)

    grads = []
    for k in range(2):  # probe E, then C; the other stays the caller's array
        arrays = [Ea, Ca]
        probe = arrays[k] = arrays[k].copy()
        grad = np.zeros(probe.shape, order="F")
        for ij in np.ndindex(probe.shape):
            orig = probe[ij]
            probe[ij] = orig + h
            f_plus = total(*arrays)
            probe[ij] = orig - h
            f_minus = total(*arrays)
            probe[ij] = orig
            grad[ij] = (f_plus - f_minus) / (2.0 * h)
        grads.append(DenseMatrix._wrap(grad))
    return Gradients(*grads)
