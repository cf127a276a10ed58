"""The one argument rule of the public entries: a count is a Python or
numpy integer, a number a Python or numpy integer or real, and a bool is
neither. Every entry refuses a bool, a non-integral count, NaN and a
string by a ValueError (or the entry's subclass of it) whose message starts
with the argument's name, and takes numpy scalars like Python ones."""

import json
import math
import re

import numpy as np
import pytest

from smoothce import (BlockPlan, BoundParams, DenseMatrix, ace, bin_records,
                      blocked_backward, blocked_forward, effective_params, finite_diff_grad,
                      ingest_records, loss_and_grad, naive_backward, naive_forward,
                      norm_bound, numeric_min_entropy, plan_blocks, random_instance, sce,
                      softmax)
from smoothce.blocked import aux_bound_bytes
from smoothce.calibration import RecordError
from smoothce.tensors import InvalidPlanError, tiles_in_flight

E, C, X = random_instance(0, 4, 8, 3, 0.5)
PLAN = plan_blocks(4, 8, 3, workers=1)
LSE = naive_forward(E, C, X, 0.1).lse
P = BoundParams(1.0, 1.0, 4, 4)
PROBS, LABELS = [[0.7, 0.3], [0.2, 0.8]], [0, 1]
RECORDS = "records.jsonl"  # relative: the test runs in its own directory


def record(**fields) -> str:
    with open(RECORDS, "w") as fh:
        fh.write(json.dumps(fields) + "\n")
    return RECORDS


COUNT, NUMBER = (True, 2.5, math.nan, "3"), (True, math.nan, "0.5")

# (name the message starts with, bad values, a good value or None, the call
# with the argument under test, error class)
ENTRIES = {
    "DenseMatrix-rows": ("rows", COUNT, 2, lambda a: DenseMatrix(a, 4, np.ones((2, 4)))),
    "DenseMatrix-cols": ("cols", COUNT, 4, lambda a: DenseMatrix(2, a, np.ones((2, 4)))),
    "BlockPlan-n_block": ("n_block", COUNT, 8, lambda a: BlockPlan(a, 8), InvalidPlanError),
    "BlockPlan-v_block": ("v_block", COUNT, 8, lambda a: BlockPlan(8, a), InvalidPlanError),
    "BlockPlan-workers": ("workers", COUNT, 2, lambda a: BlockPlan(8, 8, workers=a),
                          InvalidPlanError),
    "random_instance-seed": ("seed", COUNT, 1, lambda a: random_instance(a, 2, 8, 4, 0.5)),
    "random_instance-n": ("n", COUNT, 2, lambda a: random_instance(0, a, 8, 4, 0.5)),
    "random_instance-v": ("v", COUNT, 8, lambda a: random_instance(0, 2, a, 4, 0.5)),
    "random_instance-d": ("d", COUNT, 4, lambda a: random_instance(0, 2, 8, a, 0.5)),
    "random_instance-scale": ("scale", NUMBER, 0.5, lambda a: random_instance(0, 2, 8, 4, a)),
    "tiles_in_flight-n": ("n", COUNT, 8, lambda a: tiles_in_flight(a, 4, 2)),
    "tiles_in_flight-n_block": ("n_block", COUNT, 4, lambda a: tiles_in_flight(8, a, 2)),
    "tiles_in_flight-workers": ("workers", COUNT, 2, lambda a: tiles_in_flight(8, 4, a)),
    "plan_blocks-n": ("n", COUNT, 8, lambda a: plan_blocks(a, 8, 4)),
    "plan_blocks-v": ("v", COUNT, 8, lambda a: plan_blocks(8, a, 4)),
    "plan_blocks-d": ("d", COUNT, 4, lambda a: plan_blocks(8, 8, a)),
    "plan_blocks-n_block": ("n_block", COUNT, 4, lambda a: plan_blocks(8, 8, 4, n_block=a),
                            InvalidPlanError),
    "plan_blocks-workers": ("workers", COUNT, 2, lambda a: plan_blocks(8, 8, 4, workers=a),
                            InvalidPlanError),
    "aux_bound_bytes-n": ("n", COUNT, 4, lambda a: aux_bound_bytes(PLAN, a, 8, 3)),
    "aux_bound_bytes-v": ("v", COUNT, 8, lambda a: aux_bound_bytes(PLAN, 4, a, 3)),
    "aux_bound_bytes-d": ("d", COUNT, 3, lambda a: aux_bound_bytes(PLAN, 4, 8, a)),
    "BoundParams-sigma_c": ("sigma_c", NUMBER, 1.0, lambda a: BoundParams(a, 1.0, 4, 4)),
    "BoundParams-sigma_h": ("sigma_h", NUMBER, 1.0, lambda a: BoundParams(1.0, a, 4, 4)),
    "BoundParams-d": ("d", COUNT, 4, lambda a: BoundParams(1.0, 1.0, a, 4)),
    "BoundParams-v": ("v", COUNT, 4, lambda a: BoundParams(1.0, 1.0, 4, a)),
    "from_budget-r": ("r: norm budget", NUMBER, 2.0, lambda a: BoundParams.from_budget(a, 4)),
    "from_budget-v": ("v", COUNT, 4, lambda a: BoundParams.from_budget(2.0, a, 4)),
    "from_budget-d": ("d", COUNT, 4, lambda a: BoundParams.from_budget(2.0, 4, a)),
    "norm_bound-sigma_c": ("sigma_c", NUMBER, 1.0, lambda a: norm_bound(a, 1.0, 4)),
    "norm_bound-sigma_h": ("sigma_h", NUMBER, 1.0, lambda a: norm_bound(1.0, a, 4)),
    "norm_bound-d": ("d", COUNT, 4, lambda a: norm_bound(1.0, 1.0, a)),
    "effective_params-temperature": ("temperature", NUMBER, 2.0,
                                     lambda a: effective_params(P, temperature=a)),
    "effective_params-softcap": ("softcap", NUMBER, 2.0,
                                 lambda a: effective_params(P, softcap=a)),
    "numeric_min_entropy-r": ("r: norm budget", NUMBER, 1.0,
                              lambda a: numeric_min_entropy(a, 4, 2, 3)),
    "numeric_min_entropy-r-list": ("r: norm budget", NUMBER, 1.0,
                                   lambda a: numeric_min_entropy([1.0, a], 4, 2, 3)),
    "numeric_min_entropy-r-ragged": ("r", ([[1.0], [1.0, 2.0]], [1.0, [2.0]]), None,
                                     lambda a: numeric_min_entropy(a, 4, 2, 3)),
    "numeric_min_entropy-v": ("v: vocabulary size", COUNT, 4,
                              lambda a: numeric_min_entropy(1.0, a, 2, 3)),
    "numeric_min_entropy-restarts": ("restarts", COUNT, 2,
                                     lambda a: numeric_min_entropy(1.0, 4, a, 3)),
    "numeric_min_entropy-iterations": ("iterations", COUNT, 3,
                                       lambda a: numeric_min_entropy(1.0, 4, 2, a)),
    "numeric_min_entropy-step": ("step", NUMBER, 0.1,
                                 lambda a: numeric_min_entropy(1.0, 4, 2, 3, step=a)),
    "numeric_min_entropy-seed": ("seed", COUNT, 1,
                                 lambda a: numeric_min_entropy(1.0, 4, 2, 3, seed=a)),
    "naive_forward-beta": ("beta", NUMBER, 0.1, lambda a: naive_forward(E, C, X, a)),
    "naive_backward-beta": ("beta", NUMBER, 0.1, lambda a: naive_backward(E, C, X, a)),
    "naive_backward-upstream": ("upstream", NUMBER, 0.5,
                                lambda a: naive_backward(E, C, X, 0.1, upstream=a)),
    "finite_diff_grad-beta": ("beta", NUMBER, 0.1,
                              lambda a: finite_diff_grad(E, C, X, a, 1e-4)),
    "finite_diff_grad-h": ("h", NUMBER, 1e-4, lambda a: finite_diff_grad(E, C, X, 0.1, a)),
    "blocked_forward-beta": ("beta", NUMBER, 0.1,
                             lambda a: blocked_forward(E, C, X, a, PLAN)),
    "blocked_backward-beta": ("beta", NUMBER, 0.1,
                              lambda a: blocked_backward(E, C, X, a, PLAN, LSE)),
    "blocked_backward-upstream": ("upstream", NUMBER, 0.5, lambda a: blocked_backward(
        E, C, X, 0.1, PLAN, LSE, upstream=a)),
    "blocked_backward-filter_epsilon": ("filter_epsilon", NUMBER, 0.5, lambda a: blocked_backward(
        E, C, X, 0.1, PLAN, LSE, filter_epsilon=a)),
    "loss_and_grad-beta": ("beta", NUMBER, 0.1, lambda a: loss_and_grad(E, C, X, a, PLAN)),
    "loss_and_grad-upstream": ("upstream", NUMBER, 0.5,
                               lambda a: loss_and_grad(E, C, X, 0.1, PLAN, upstream=a)),
    "loss_and_grad-filter_epsilon": ("filter_epsilon", NUMBER, 0.5,
                                     lambda a: loss_and_grad(E, C, X, 0.1, PLAN,
                                                             filter_epsilon=a)),
    "bin_records-m": ("m: bin count", COUNT, 4, lambda a: bin_records([0.5, 0.2], [1, 0], a)),
    "sce-m": ("m: bin count", COUNT, 4, lambda a: sce(PROBS, LABELS, a)),
    "ace-m": ("m: bin count", COUNT, 4, lambda a: ace(PROBS, LABELS, a)),
    "ingest_records-label": (f"{RECORDS}:1: label", COUNT, None,
                             lambda a: ingest_records(record(probs=[0.5, 0.5], label=a)),
                             RecordError),
    "ingest_records-confidence": (f"{RECORDS}:1: confidence", NUMBER, None,
                                  lambda a: ingest_records(record(confidence=a, correct=True)),
                                  RecordError),
    "softmax-temperature": ("temperature", NUMBER, 2.0,
                            lambda a: softmax([1.0, 2.0], temperature=a)),
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_refusals_name_the_argument(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name, bad_values, good, call, *error = entry
    error = error[0] if error else ValueError
    for bad in bad_values:
        with pytest.raises(ValueError) as caught:
            call(bad)
        assert type(caught.value) is error, bad
        assert re.match(re.escape(name) + " must ", str(caught.value)), str(caught.value)
    if good is not None:  # numpy scalars pass where Python ones do
        call(np.int64(good) if bad_values is COUNT else np.float64(good))


@pytest.mark.parametrize("name, args", [("n", (-1, 8, 3)), ("v", (4, -3, 3)),
                                        ("d", (4, 8, -5))])
def test_the_ceiling_refuses_a_negative_extent(name, args):
    """Like `plan_blocks`; a negative d used to give a ceiling, and a
    negative v one of 128 bytes."""
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -"):
        aux_bound_bytes(PLAN, *args)


def test_the_bool_of_a_record_is_its_correct_flag(tmp_path, monkeypatch):
    """The one argument that must be a bool, not a number."""
    monkeypatch.chdir(tmp_path)
    assert ingest_records(record(confidence=1, correct=True)).correct.tolist() == [True]
    with pytest.raises(RecordError, match=f"^{RECORDS}:1: correct must be a boolean$"):
        ingest_records(record(confidence=0.5, correct=1))
