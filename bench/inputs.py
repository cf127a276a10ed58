"""Seeded inputs for the benchmark's calibration report.

A record's probability vector is a softmax over `classes` logits: standard
normal noise plus a boost, drawn uniformly from [3, 12], on one random class,
which spreads top-label confidence over most of (0, 1) at 1000 classes.

Calibrated outcomes draw the label from the vector itself, so the reported
probabilities are the true ones. Overconfident outcomes keep the vectors and
make the top class correct with probability max(0, confidence - GAP); when
it is wrong, the label is drawn from the other classes in proportion to
their probabilities.
"""

from __future__ import annotations

import json

import numpy as np

GAP = 0.2


def draw_probs(rng, n: int, classes: int) -> np.ndarray:
    z = rng.standard_normal((n, classes))
    z[np.arange(n), rng.integers(0, classes, size=n)] += rng.uniform(3.0, 12.0, size=n)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def draw_labels(rng, p: np.ndarray, gap: float) -> np.ndarray:
    """Labels whose top-class hit rate is confidence minus `gap` (floored
    at 0); gap 0 draws each label from its own probability vector."""
    n, k = p.shape
    top = p.argmax(axis=1)
    conf = p[np.arange(n), top]
    hit = rng.uniform(size=n) < np.maximum(0.0, conf - gap)
    rest = p.copy()
    rest[np.arange(n), top] = 0.0
    cdf = np.cumsum(rest, axis=1)
    u = rng.uniform(size=n) * cdf[:, -1]
    other = np.minimum((cdf < u[:, None]).sum(axis=1), k - 1)
    return np.where(hit, top, other)


def draw_summaries(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Calibrated confidence-form records: confidence uniform on [0.05, 1],
    correct with that probability."""
    conf = rng.uniform(0.05, 1.0, size=n)
    return conf, rng.uniform(size=n) < conf


def top_label(p: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(confidence, correct) as ingestion derives them; ties take the first index."""
    top = p.argmax(axis=1)
    return p[np.arange(len(p)), top], top == labels


def write_probs(path, p: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(p.tolist(), labels.tolist()):
            fh.write(json.dumps({"probs": row, "label": label}) + "\n")


def write_mixed(path, p, labels, conf, correct) -> None:
    """Probability records first, then confidence-form records."""
    write_probs(path, p, labels)
    with open(path, "a", encoding="utf-8") as fh:
        for c, b in zip(conf.tolist(), correct.tolist()):
            fh.write(json.dumps({"confidence": c, "correct": b}) + "\n")
