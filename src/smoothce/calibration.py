"""Calibration-evidence ingestion and binned calibration error metrics.

Records arrive as JSONL, one prediction per line, in either of two forms:

    {"probs": [...], "label": k}        full probability vector
    {"confidence": c, "correct": b}     already-summarized prediction

Confidence-only records support ECE / RMS-CE and reliability tables; the
class-wise metrics (SCE, ACE) need full probability vectors. Non-numeric
(string, null) and non-finite probs entries are rejected at ingest.

Binning convention: equal-width bins are [lo, hi) except the last, which is
[lo, 1], so every record lands in exactly one bin. Equal-mass binning sorts
by confidence and splits into near-equal-count groups with the remainder
spread over the leading bins; tied values keep record order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CalibrationRecord",
    "BinStats",
    "RecordError",
    "ingest_records",
    "bin_records",
    "ece",
    "rms_ce",
    "sce",
    "ace",
    "reliability_data",
]

SCHEMES = ("equal_width", "equal_mass")


class RecordError(ValueError):
    """A calibration record failed validation."""


@dataclass(frozen=True)
class CalibrationRecord:
    """One prediction: its confidence, whether it was right, and (when the
    source line carried them) the full probability vector, the argmax class,
    and the true label."""

    confidence: float
    correct: bool
    probs: tuple[float, ...] | None = None
    predicted: int | None = None
    label: int | None = None


@dataclass(frozen=True)
class BinStats:
    lo: float
    hi: float
    count: int
    mean_confidence: float | None
    accuracy: float | None


def _record_from_probs(probs, label, where: str) -> CalibrationRecord:
    try:
        p = np.asarray(probs)
    except ValueError as exc:  # ragged nesting
        raise RecordError(f"{where}: probs must be a non-empty vector") from exc
    if p.ndim != 1 or p.size == 0:
        raise RecordError(f"{where}: probs must be a non-empty vector")
    if p.dtype.kind not in "biuf":  # strings and null give str/object arrays
        raise RecordError(f"{where}: probs entries must be numbers")
    p = p.astype(np.float64, copy=False)
    if not np.isfinite(p).all():
        raise RecordError(f"{where}: probs entries must be finite")
    lo, hi = p.min(), p.max()
    if lo < 0 or hi > 1:
        raise RecordError(f"{where}: probs entries must lie in [0, 1]")
    # a JSON boolean reads as 0 or 1, also mixed into numbers, so only a
    # record holding an exact 0 or 1 needs its entries' types checked
    if (lo == 0 or hi == 1) and bool in map(type, probs):
        raise RecordError(f"{where}: probs entries must be numbers, not booleans")
    if abs(float(p.sum()) - 1.0) > 1e-6:
        raise RecordError(f"{where}: probs sum to {float(p.sum())}, expected 1")
    if not isinstance(label, int) or isinstance(label, bool):
        raise RecordError(f"{where}: label must be an integer")
    if not 0 <= label < p.size:
        raise RecordError(f"{where}: label {label} out of range for {p.size} classes")
    predicted = int(np.argmax(p))  # first index wins on ties
    return CalibrationRecord(
        confidence=float(p[predicted]),
        correct=predicted == label,
        probs=tuple(p.tolist()),
        predicted=predicted,
        label=label,
    )


def _record_from_summary(confidence, correct, where: str) -> CalibrationRecord:
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise RecordError(f"{where}: confidence must be a number")
    if not 0.0 <= confidence <= 1.0:
        raise RecordError(f"{where}: confidence {confidence} outside [0, 1]")
    if not isinstance(correct, bool):
        raise RecordError(f"{where}: correct must be a boolean")
    return CalibrationRecord(confidence=float(confidence), correct=correct)


def ingest_records(path) -> list[CalibrationRecord]:
    """Parse and validate a JSONL calibration file; both record forms may
    coexist. Errors name the offending line."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{where}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise RecordError(f"{where}: expected a JSON object")
            if "probs" in obj:
                if "label" not in obj:
                    raise RecordError(f"{where}: probs form requires a label")
                records.append(_record_from_probs(obj["probs"], obj["label"], where))
            elif "confidence" in obj:
                if "correct" not in obj:
                    raise RecordError(f"{where}: confidence form requires correct")
                records.append(
                    _record_from_summary(obj["confidence"], obj["correct"], where))
            else:
                raise RecordError(f"{where}: need either probs or confidence")
    return records


def _bin_columns(values: np.ndarray, hit_col: np.ndarray, m: int, scheme: str):
    """Bin every column of an (n, k) value matrix into m bins of `scheme`.

    Record i counts as a hit in column hit_col[i] (none when negative).
    Returns (k, m) arrays: per-bin record counts, value sums and hit counts.
    """
    n, k = values.shape
    idx = np.empty((n, k), dtype=np.intp)
    if scheme == "equal_width":
        np.multiply(values, m, out=idx, casting="unsafe")  # int(v * m)
        np.minimum(idx, m - 1, out=idx)
    else:
        sizes = np.full(m, n // m)
        sizes[:n % m] += 1
        order = np.argsort(values, axis=0, kind="stable")  # ties keep record order
        np.put_along_axis(idx, order, np.repeat(np.arange(m), sizes)[:, None], axis=0)
    idx += m * np.arange(k)
    flat = idx.ravel()
    counts = np.bincount(flat, minlength=m * k)
    sums = np.bincount(flat, weights=values.ravel(), minlength=m * k)
    rows = np.flatnonzero(hit_col >= 0)
    hits = np.bincount(idx[rows, hit_col[rows]], minlength=m * k)
    return counts.reshape(k, m), sums.reshape(k, m), hits.reshape(k, m)


def bin_records(records, m: int, scheme: str = "equal_width") -> list[BinStats]:
    """Aggregate records into m confidence bins of the requested scheme."""
    if m < 1:
        raise ValueError(f"bin count must be >= 1, got {m}")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not records:
        raise ValueError("cannot bin an empty record set")
    conf = np.array([r.confidence for r in records], dtype=np.float64)
    hit_col = np.array([0 if r.correct else -1 for r in records], dtype=np.intp)
    (counts,), (sums,), (hits,) = _bin_columns(conf[:, None], hit_col, m, scheme)
    if scheme == "equal_mass":  # bin b holds ranks ends[b] - count .. ends[b] - 1
        ranked, ends = np.sort(conf).tolist(), np.cumsum(counts).tolist()
    bins = []
    for b, c in enumerate(counts.tolist()):
        if scheme == "equal_width":
            lo, hi = b / m, (b + 1) / m
        elif c:
            lo, hi = ranked[ends[b] - c], ranked[ends[b] - 1]
        else:
            lo = hi = math.nan
        mean, acc = (float(sums[b]) / c, int(hits[b]) / c) if c else (None, None)
        bins.append(BinStats(lo=lo, hi=hi, count=c, mean_confidence=mean, accuracy=acc))
    return bins


def _check_total(bins, n_total: int) -> None:
    seen = sum(b.count for b in bins)
    if seen != n_total:
        raise ValueError(f"bins hold {seen} records, caller declared {n_total}")


def ece(bins, n_total: int) -> float:
    """Expected calibration error: the count-weighted mean absolute gap
    between per-bin accuracy and per-bin confidence."""
    _check_total(bins, n_total)
    return sum(
        (b.count / n_total) * abs(b.accuracy - b.mean_confidence)
        for b in bins if b.count
    )


def rms_ce(bins, n_total: int) -> float:
    """Root-mean-square calibration error; emphasizes large deviations."""
    _check_total(bins, n_total)
    return math.sqrt(sum(
        (b.count / n_total) * (b.accuracy - b.mean_confidence) ** 2
        for b in bins if b.count
    ))


def _class_gaps(records, m: int, scheme: str):
    """Bin every class's probability column; returns (k, m) record counts
    and |label hits - probability sum| per class and bin, which is the
    bin's count times its frequency/probability gap."""
    if m < 1:
        raise ValueError(f"bin count must be >= 1, got {m}")
    if not records:
        raise ValueError("cannot score an empty record set")
    missing = [i for i, r in enumerate(records) if r.probs is None]
    if missing:
        raise ValueError(
            f"record {missing[0]} lacks probs, required for class-wise metrics")
    k = len(records[0].probs)
    if any(len(r.probs) != k for r in records):
        raise ValueError("records disagree on the number of classes")
    p = np.array([r.probs for r in records], dtype=np.float64)
    labels = np.array([r.label for r in records], dtype=np.intp)
    counts, sums, hits = _bin_columns(p, labels, m, scheme)
    return counts, np.abs(hits - sums)


def sce(records, m: int) -> float:
    """Static calibration error: per class, bin every record by that class's
    probability into m equal-width bins, take the count-weighted absolute gap
    between the empirical label frequency and the mean probability, and
    average over classes."""
    counts, weighted_gaps = _class_gaps(records, m, "equal_width")
    return float(weighted_gaps.sum() / counts.sum())  # counts sum to n * k


def ace(records, m: int, empty_bins: str = "skip") -> float:
    """Adaptive calibration error: like sce but with equal-mass bins per
    class and uniform bin weights.

    With fewer records than bins some bins are empty; `empty_bins` picks
    whether their weight is renormalized away ("skip") or counted as zero
    gap ("zero").
    """
    if empty_bins not in ("skip", "zero"):
        raise ValueError(f"empty_bins must be 'skip' or 'zero', got {empty_bins!r}")
    counts, weighted_gaps = _class_gaps(records, m, "equal_mass")
    filled = counts > 0
    gaps = np.divide(weighted_gaps, counts, out=np.zeros(counts.shape), where=filled)
    denom = filled.sum(axis=1) if empty_bins == "skip" else m
    return float(np.mean(gaps.sum(axis=1) / denom))


def reliability_data(bins) -> list[tuple]:
    """Reliability-diagram rows: (lo, hi, count, mean_confidence, accuracy,
    gap), one per bin, with None entries for empty bins."""
    rows = []
    for b in bins:
        gap = None if b.count == 0 else b.accuracy - b.mean_confidence
        rows.append((b.lo, b.hi, b.count, b.mean_confidence, b.accuracy, gap))
    return rows
