"""Full-materialization forward/backward for smoothed cross-entropy, plus a
central finite-difference gradient oracle.

This module is the correctness anchor: it allocates the complete |V| x N
logit matrix on purpose and computes everything the obvious way. Use the
blocked engine when memory matters.

`loss_output` is the one loss rule of every entry, the blocked forward's
included: each ends in it or refuses through it, so a kept token whose
loss is not finite is refused by name everywhere. The token mask is always
an array: `_validate` returns the kept-token flags, all true (a zero-stride
view) when no `ignore_mask` is given, and is the only place that asks
whether one was.
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
        raise ValueError(f"embedding dim {E.rows} does not match classifier dim {C.rows}")
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
    # without a mask every token is kept: a zero-stride view, not an N-array
    keep = (np.broadcast_to(True, (n,)) if ignore_mask is None
            else ~np.asarray(ignore_mask, dtype=bool))
    if keep.shape != (n,):
        raise ValueError("ignore_mask must have one flag per token")
    return E.data, C.data, x.targets, n, v, d, keep


def token_weight(n_kept: int, reduction: str, upstream: float) -> float:
    """Chain-rule weight of each kept token in the reduced loss: upstream
    for `sum`, upstream / n_kept for `mean` (0 when no token is kept).
    Ignored tokens weigh zero."""
    if reduction == "mean":
        return upstream / n_kept if n_kept else 0.0
    return upstream


def loss_output(lse: np.ndarray, o: np.ndarray, reduction: str, keep) -> LossOutput:
    """The one loss rule of every entry, from lse, o and the kept-token
    flags: the per-token loss lse - o, a kept token whose loss is not
    finite refused (some of its logits overflow float64, so no engine can
    give it a meaningful value), the total reduced over the kept tokens
    (a `mean` over none is 0), and ignored tokens' losses zeroed."""
    # overflowing logits give a non-finite loss, refused just below
    with np.errstate(over="ignore", invalid="ignore"):
        per_token = lse - o
    bad = keep & ~np.isfinite(per_token)
    if bad.any():
        raise ValueError(f"loss of token {int(np.argmax(bad))} is not finite: "
                         "its logits are not all finite float64 values")
    kept = per_token[keep]
    if reduction == "sum":
        total = float(kept.sum())
    else:
        total = float(kept.mean()) if kept.size else 0.0
    return LossOutput(lse, o, np.where(keep, per_token, 0.0), total, reduction)


def check_upstream(upstream: float) -> None:
    """Refuse a non-finite upstream gradient before any pass runs: it
    would make every gradient entry non-finite."""
    if not math.isfinite(upstream):
        raise ValueError(f"upstream must be finite, got {upstream}")


def _forward_arrays(Ea, Ca, xa, beta: float, v: int):
    # overflowing logits give a non-finite loss, which `loss_output` refuses
    with np.errstate(over="ignore", invalid="ignore"):
        z = Ca.T @ Ea
        lse = lse_columns(z)
        o = (1.0 - beta) * z[xa, np.arange(xa.size)] + (beta / v) * z.sum(axis=0)
    return z, lse, o


def naive_forward(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float, *,
                  reduction: str = "sum", ignore_mask=None) -> LossOutput:
    """Smoothed cross-entropy by materializing all logits.

    Per token i the loss is lse_i - o_i where
    o_i = (1-beta) * z[x_i, i] + (beta/|V|) * sum_v z[v, i]; tokens flagged in
    `ignore_mask` contribute zero loss and are excluded from `mean`. A
    kept token whose loss is not finite raises ValueError.
    """
    Ea, Ca, xa, n, v, d, keep = _validate(E, C, x, beta, reduction, ignore_mask)
    _, lse, o = _forward_arrays(Ea, Ca, xa, beta, v)
    return loss_output(lse, o, reduction, keep)


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
    z, lse, o = _forward_arrays(Ea, Ca, xa, beta, v)
    loss_output(lse, o, reduction, keep)  # refuses what naive_forward refuses
    # an ignored token's logits may overflow; its column is set to 0, since
    # weighing it by 0 would keep a NaN
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(z - lse)
    a[xa, np.arange(n)] -= 1.0 - beta
    a -= beta / v
    a *= token_weight(int(keep.sum()), reduction, upstream)
    a[:, ~keep] = 0.0
    grad_e = np.matmul(Ca, a, order="F")
    grad_c = np.matmul(Ea, a.T, order="F")
    return Gradients(DenseMatrix._wrap(grad_e), DenseMatrix._wrap(grad_c))


def finite_diff_grad(E: DenseMatrix, C: DenseMatrix, x: TokenSequence, beta: float,
                     h: float, *, reduction: str = "sum", ignore_mask=None) -> Gradients:
    """Central-difference gradient of the reduced loss, entry by entry.

    Costs 2*D*(N+|V|) full forward passes; intended for small instances only.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be finite and positive, got {h}")
    Ea, Ca, xa, n, v, d, keep = _validate(E, C, x, beta, reduction, ignore_mask)

    def total(e_arr, c_arr) -> float:
        _, lse, o = _forward_arrays(e_arr, c_arr, xa, beta, v)
        return loss_output(lse, o, reduction, keep).total

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
