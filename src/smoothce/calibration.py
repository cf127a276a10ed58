"""Calibration-evidence ingestion and binned calibration error metrics.

Records arrive as JSONL, one prediction per line, in either of two forms:

    {"probs": [...], "label": k}        full probability vector
    {"confidence": c, "correct": b}     already-summarized prediction

Ingest validates each line and returns one columnar `CalibrationSet`: a
confidence and a correct flag per record, and, when every line is in probs
form, the (n, k) probability matrix and the labels. The metrics take these
arrays directly, and refuse what ingest would: a value that is not finite
or lies outside [0, 1], a correct flag other than 0/1, a label outside
[0, k), or arrays of the wrong rank. Confidence-only records support ECE / RMS-CE and
reliability tables; the class-wise metrics (SCE, ACE) need full probability
vectors. Non-numeric (string, null, boolean) and non-finite probs entries,
and a probs line whose class count differs from the first probs line's, are
rejected at ingest.

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
    "CalibrationSet",
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
class CalibrationSet:
    """Validated calibration evidence for n records: each record's top-class
    confidence and whether that class was right, plus, when every record
    carried one, the (n, k) probability matrix and the true labels (None
    otherwise)."""

    confidence: np.ndarray  # (n,) float64
    correct: np.ndarray  # (n,) bool
    probs: np.ndarray | None = None  # (n, k) float64
    labels: np.ndarray | None = None  # (n,) intp

    def __len__(self) -> int:
        return len(self.confidence)


@dataclass(frozen=True)
class BinStats:
    lo: float
    hi: float
    count: int
    mean_confidence: float | None
    accuracy: float | None


def _probs_row(probs, label, where: str) -> np.ndarray:
    """The validated float64 probability vector of one probs-form line."""
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
    return p


def _check_summary(confidence, correct, where: str) -> None:
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise RecordError(f"{where}: confidence must be a number")
    if not 0.0 <= confidence <= 1.0:
        raise RecordError(f"{where}: confidence {confidence} outside [0, 1]")
    if not isinstance(correct, bool):
        raise RecordError(f"{where}: correct must be a boolean")


def ingest_records(path) -> CalibrationSet:
    """Parse and validate a JSONL calibration file; both record forms may
    coexist, and every probs line must have as many classes as the first.
    Errors name the offending line."""
    confidence, correct, rows, labels = [], [], [], []
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
                p = _probs_row(obj["probs"], obj["label"], where)
                if rows and p.size != rows[0].size:
                    raise RecordError(f"{where}: {p.size} classes, but the first "
                                      f"probs line has {rows[0].size}")
                predicted = int(np.argmax(p))  # first index wins on ties
                rows.append(p)
                labels.append(obj["label"])
                confidence.append(float(p[predicted]))
                correct.append(predicted == obj["label"])
            elif "confidence" in obj:
                if "correct" not in obj:
                    raise RecordError(f"{where}: confidence form requires correct")
                _check_summary(obj["confidence"], obj["correct"], where)
                confidence.append(float(obj["confidence"]))
                correct.append(obj["correct"])
            else:
                raise RecordError(f"{where}: need either probs or confidence")
    every_probs = 0 < len(rows) == len(confidence)
    return CalibrationSet(
        confidence=np.array(confidence, dtype=np.float64),
        correct=np.array(correct, dtype=bool),
        probs=np.stack(rows) if every_probs else None,
        labels=np.array(labels, dtype=np.intp) if every_probs else None,
    )


def _check_inputs(values, per_record, m: int, classes: bool):
    """Argument checks shared by the binned metrics; returns the records'
    values and outcomes as arrays. A record holds one confidence and one
    0/1 correct flag, or with `classes` one probability row and one integer
    label in [0, k). Every value must be finite and lie in [0, 1]."""
    if m < 1:
        raise ValueError(f"bin count must be >= 1, got {m}")
    if m > 2**53:  # beyond it float64's v * m no longer tells every bin apart
        raise ValueError(f"bin count must be at most 2**53, got {m}")
    if values is None or per_record is None:
        raise ValueError("class-wise metrics need probs and a label on every record")
    what = "probabilities" if classes else "confidences"
    vals, per = np.asarray(values, dtype=np.float64), np.asarray(per_record)
    if vals.ndim != 1 + classes:
        raise ValueError(f"{what} must be a {1 + classes}-D array, got {vals.ndim}-D")
    if per.shape != vals.shape[:1]:
        raise ValueError(f"{len(vals)} records but {per.size} outcomes or labels")
    if not len(vals):
        raise ValueError("cannot score an empty record set")
    # one min/max refuses NaN and +-inf as well
    if vals.size and not (vals.min() >= 0.0 and vals.max() <= 1.0):
        raise ValueError(f"{what} must be finite and lie in [0, 1]")
    if classes:
        k = vals.shape[1]
        if per.dtype.kind not in "iu" or per.min() < 0 or per.max() >= k:
            raise ValueError(f"labels must be integers in [0, {k})")
    elif not ((per == 0) | (per == 1)).all():
        raise ValueError("correct entries must be 0 or 1")
    return vals, per


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


def bin_records(confidence, correct, m: int,
                scheme: str = "equal_width") -> list[BinStats]:
    """Aggregate records, given as their confidences and whether each was
    right, into m confidence bins of the requested scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    conf, correct = _check_inputs(confidence, correct, m, classes=False)
    hit_col = correct.astype(np.intp) - 1  # 0 on a hit, else -1
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


def ece(bins) -> float:
    """Expected calibration error: the count-weighted mean absolute gap
    between per-bin accuracy and per-bin confidence, over the records the
    bins hold."""
    n = sum(b.count for b in bins)
    return sum((b.count / n) * abs(b.accuracy - b.mean_confidence)
               for b in bins if b.count)


def rms_ce(bins) -> float:
    """Root-mean-square calibration error; emphasizes large deviations."""
    n = sum(b.count for b in bins)
    return math.sqrt(sum((b.count / n) * (b.accuracy - b.mean_confidence) ** 2
                         for b in bins if b.count))


def _class_gaps(probs, labels, m: int, scheme: str):
    """Bin every class's probability column; returns (k, m) record counts
    and |label hits - probability sum| per class and bin, which is the
    bin's count times its frequency/probability gap."""
    counts, sums, hits = _bin_columns(probs, labels, m, scheme)
    return counts, np.abs(hits - sums)


def sce(probs, labels, m: int) -> float:
    """Static calibration error over an (n, k) probability matrix and n
    labels: per class, bin every record by that class's probability into m
    equal-width bins, take the count-weighted absolute gap between the
    empirical label frequency and the mean probability, and average over
    classes."""
    probs, labels = _check_inputs(probs, labels, m, classes=True)
    counts, weighted_gaps = _class_gaps(probs, labels, m, "equal_width")
    return float(weighted_gaps.sum() / counts.sum())  # counts sum to n * k


def ace(probs, labels, m: int, empty_bins: str = "skip") -> float:
    """Adaptive calibration error: like sce but with equal-mass bins per
    class and uniform bin weights.

    With fewer records than bins some bins are empty; `empty_bins` picks
    whether their weight is renormalized away ("skip") or counted as zero
    gap ("zero").
    """
    if empty_bins not in ("skip", "zero"):
        raise ValueError(f"empty_bins must be 'skip' or 'zero', got {empty_bins!r}")
    probs, labels = _check_inputs(probs, labels, m, classes=True)
    counts, weighted_gaps = _class_gaps(probs, labels, m, "equal_mass")
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
