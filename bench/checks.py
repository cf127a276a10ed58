"""Independent references and property checks for the benchmark.

Everything here is written with numpy alone and never imports smoothce, so a
fault in the package cannot hide itself by also appearing in the reference.
Each `check_*` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

ENGINE_RTOL = 1e-9
CALIB_ATOL = 1e-12
ORACLE_SLACK = 1e-6


def rel_err(got, want) -> float:
    """Relative Frobenius error, with a floor under the denominator."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-300)


# ---------------------------------------------------------------------------
# engine: smoothed cross-entropy and its gradients, by token chunks


def reference_loss_grad(E, C, x, beta: float, chunk: int = 256):
    """Per-token lse, smoothed target score and loss, plus the gradients of
    the summed loss, for a D x N embedding matrix, a D x V classifier and N
    targets. The V x chunk logit block is the largest buffer."""
    d, n = E.shape
    v = C.shape[1]
    lse = np.empty(n)
    o = np.empty(n)
    grad_e = np.empty((d, n))
    grad_c = np.zeros((d, v))
    for j0 in range(0, n, chunk):
        j1 = min(n, j0 + chunk)
        cols = np.arange(j1 - j0)
        t = x[j0:j1]
        z = C.T @ E[:, j0:j1]
        top = z.max(axis=0)
        lse[j0:j1] = top + np.log(np.exp(z - top).sum(axis=0))
        o[j0:j1] = (1.0 - beta) * z[t, cols] + (beta / v) * z.sum(axis=0)
        # adjusted softmax: p - (1 - beta) one_hot(target) - beta / V
        a = np.exp(z - lse[j0:j1])
        a[t, cols] -= 1.0 - beta
        a -= beta / v
        grad_e[:, j0:j1] = C @ a
        grad_c += E[:, j0:j1] @ a.T
    return {"lse": lse, "o": o, "per_token": lse - o, "total": float((lse - o).sum()),
            "grad_e": grad_e, "grad_c": grad_c}


def engine_arrays(out, grads) -> dict:
    """The arrays of one loss_and_grad result, keyed like reference_loss_grad."""
    return {"lse": out.lse, "o": out.o, "per_token": out.per_token_loss,
            "total": out.total, "grad_e": grads.grad_e.data, "grad_c": grads.grad_c.data}


def check_engine(got: dict, want: dict, peak_bytes: int, bound_bytes: int) -> list[str]:
    """Agreement with the reference to ENGINE_RTOL, zero row sums of grad_c
    (every column of the adjusted softmax sums to zero), and the reported
    peak under the analytic ceiling."""
    errs = []
    for key in ("lse", "o", "per_token", "grad_e", "grad_c"):
        e = rel_err(got[key], want[key])
        if not e <= ENGINE_RTOL:
            errs.append(f"{key}: relative error {e:.3e} exceeds {ENGINE_RTOL:g}")
    e = abs(got["total"] - want["total"]) / max(abs(want["total"]), 1e-300)
    if not e <= ENGINE_RTOL:
        errs.append(f"total: relative error {e:.3e} exceeds {ENGINE_RTOL:g}")
    g = np.asarray(got["grad_c"])
    drift = np.abs(g.sum(axis=1)) / np.maximum(np.abs(g).sum(axis=1), 1e-300)
    if not drift.max() <= ENGINE_RTOL:
        errs.append(f"grad_c row sums are {drift.max():.3e} of the row mass, not zero")
    if peak_bytes > bound_bytes:
        errs.append(f"reported peak {peak_bytes} bytes exceeds the {bound_bytes}-byte bound")
    return errs


def check_same(got: dict, want: dict) -> list[str]:
    """Deterministic mode is bit-reproducible: a repeated call must return
    exactly the arrays of the verified call."""
    return [f"{key}: differs from the verified call"
            for key in want if not np.array_equal(got[key], want[key])]


# ---------------------------------------------------------------------------
# calibration: the README's frozen conventions


def _equal_width(values, m):
    return np.minimum((values * m).astype(np.int64), m - 1)


def _mass_sizes(n, m):
    base, rem = divmod(n, m)
    return [base + (1 if k < rem else 0) for k in range(m)]


def reliability_rows(conf, correct, m: int, scheme: str) -> list[tuple]:
    """(lo, hi, count, mean_confidence, accuracy, gap) per bin; None fills
    the cells of an empty bin."""
    conf = np.asarray(conf, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    rows = []
    if scheme == "equal_width":
        idx = _equal_width(conf, m)
        for k in range(m):
            sel = idx == k
            rows.append(_row(k / m, (k + 1) / m, conf[sel], correct[sel]))
        return rows
    order = np.argsort(conf, kind="stable")
    pos = 0
    for size in _mass_sizes(conf.size, m):
        grp = order[pos:pos + size]
        pos += size
        if size:
            rows.append(_row(conf[grp[0]], conf[grp[-1]], conf[grp], correct[grp]))
        else:
            rows.append(_row(math.nan, math.nan, conf[grp], correct[grp]))
    return rows


def _row(lo, hi, c, h):
    if c.size == 0:
        return (lo, hi, 0, None, None, None)
    mc, acc = float(c.mean()), float(h.mean())
    return (lo, hi, int(c.size), mc, acc, acc - mc)


def binned_errors(conf, correct, m: int, scheme: str) -> tuple[float, float]:
    """(ECE, RMS-CE): count-weighted mean absolute and root mean square gap."""
    n = len(conf)
    rows = [r for r in reliability_rows(conf, correct, m, scheme) if r[2]]
    e = sum(r[2] / n * abs(r[5]) for r in rows)
    rms = math.sqrt(sum(r[2] / n * r[5] ** 2 for r in rows))
    return e, rms


def classwise_errors(probs, labels, m: int) -> tuple[float, float]:
    """(SCE, ACE) over an n x k probability matrix, vectorised over classes.

    SCE bins each class's probability in m equal-width bins and weights gaps
    by bin mass; ACE uses m equal-mass bins (ties by record order), uniform
    weights, and renormalises empty bins away."""
    p = np.asarray(probs, dtype=np.float64)
    n, k = p.shape
    hits = (np.asarray(labels)[:, None] == np.arange(k)[None, :]).astype(np.float64)

    slot = _equal_width(p, m) + m * np.arange(k)[None, :]
    count = np.bincount(slot.ravel(), minlength=m * k).reshape(k, m)
    psum = np.bincount(slot.ravel(), weights=p.ravel(), minlength=m * k).reshape(k, m)
    hsum = np.bincount(slot.ravel(), weights=hits.ravel(), minlength=m * k).reshape(k, m)
    full = count > 0
    safe = np.where(full, count, 1)
    gap = np.abs(hsum / safe - psum / safe)
    sce_val = float((np.where(full, count / n * gap, 0.0)).sum(axis=1).mean())

    order = np.argsort(p, axis=0, kind="stable")
    ps = np.take_along_axis(p, order, axis=0)
    hs = np.take_along_axis(hits, order, axis=0)
    gaps = []
    pos = 0
    for size in _mass_sizes(n, m):
        if size:
            seg = slice(pos, pos + size)
            gaps.append(np.abs(hs[seg].mean(axis=0) - ps[seg].mean(axis=0)))
        pos += size
    ace_val = float((np.sum(gaps, axis=0) / len(gaps)).mean())
    return sce_val, ace_val


def calibration_reference(conf, correct, m: int, probs=None, labels=None) -> dict:
    """Expected metric CSV rows {(metric, scheme): value} for one report."""
    want = {}
    for scheme in ("equal_width", "equal_mass"):
        e, rms = binned_errors(conf, correct, m, scheme)
        want[("ece", scheme)] = e
        want[("rms_ce", scheme)] = rms
    if probs is not None:
        s, a = classwise_errors(probs, labels, m)
        want[("sce", "equal_width")] = s
        want[("ace", "equal_mass")] = a
    return want


def parse_metric_csv(text: str, bins: int) -> dict:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "metric,bins,scheme,value":
        raise ValueError("metric CSV lacks its header")
    out = {}
    for line in lines[1:]:
        metric, b, scheme, value = line.split(",")
        if int(b) != bins:
            raise ValueError(f"metric row has {b} bins, expected {bins}")
        out[(metric, scheme)] = float(value)
    return out


def parse_reliability_csv(text: str) -> list[tuple]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "lo,hi,count,mean_confidence,accuracy,gap":
        raise ValueError("reliability CSV lacks its header")
    rows = []
    for line in lines[1:]:
        lo, hi, count, mc, acc, gap = line.split(",")
        rows.append((float(lo), float(hi), int(count),
                     *(None if c == "" else float(c) for c in (mc, acc, gap))))
    return rows


def check_metrics(got: dict, want: dict) -> list[str]:
    if set(got) != set(want):
        return [f"metric rows {sorted(got)} differ from {sorted(want)}"]
    return [f"{k[0]}/{k[1]}: {got[k]!r} differs from {want[k]!r} by more than {CALIB_ATOL:g}"
            for k in want if not abs(got[k] - want[k]) <= CALIB_ATOL]


def check_reliability(got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} reliability rows, expected {len(want)}"]
    errs = []
    for i, (g, w) in enumerate(zip(got, want)):
        if g[2] != w[2]:
            errs.append(f"bin {i}: count {g[2]}, expected {w[2]}")
            continue
        for j in (0, 1, 3, 4, 5):
            a, b = g[j], w[j]
            if a is None or b is None:
                if a is not b:
                    errs.append(f"bin {i} column {j}: {a!r}, expected {b!r}")
            elif not (abs(a - b) <= CALIB_ATOL or (math.isnan(a) and math.isnan(b))):
                errs.append(f"bin {i} column {j}: {a!r}, expected {b!r}")
    return errs


# ---------------------------------------------------------------------------
# entropy floor


def entropy_floor(r: float, v: int) -> float:
    """Least softmax entropy over v logits of 2-norm at most r."""
    g = math.exp(-r * math.sqrt(v / (v - 1.0)))
    den = 1.0 + (v - 1.0) * g
    return math.log(den) + r * g * math.sqrt(v * (v - 1.0)) / den


def softmax_entropy(u) -> float:
    u = np.asarray(u, dtype=np.float64)
    logp = u - u.max()
    logp -= math.log(np.exp(logp).sum())
    return float(-(np.exp(logp) * logp).sum())


def entropy_grid(ds, vs, rhos) -> list[tuple]:
    """Expected (d, v, rho, r, bound) rows of an entropy sweep, grid order."""
    return [(d, v, rho, rho * math.sqrt(d), entropy_floor(rho * math.sqrt(d), v))
            for d in ds for v in vs for rho in rhos]


def parse_entropy_csv(text: str) -> list[tuple]:
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("d,v,rho,temperature,softcap,r_effective,bound"):
        raise ValueError("entropy CSV lacks its header")
    rows = []
    for line in lines[1:]:
        d, v, rho, _, _, r, bound, _ = line.split(",")
        rows.append((int(d), int(v), float(rho), float(r), float(bound)))
    return rows


def check_entropy_rows(got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} entropy rows, expected {len(want)}"]
    errs = []
    for g, w in zip(got, want):
        if g[:3] != w[:3]:
            errs.append(f"row {g[:3]} out of grid order, expected {w[:3]}")
        elif not (abs(g[3] - w[3]) <= 1e-12 * max(1.0, w[3])
                  and abs(g[4] - w[4]) <= 1e-12 * max(1.0, w[4])):
            errs.append(f"row {g[:3]}: r={g[3]!r} bound={g[4]!r}, expected {w[3]!r} {w[4]!r}")
    return errs
