"""Record ingestion, binning schemes, and the calibration error metrics,
checked against hand enumeration and an independent brute-force oracle."""

import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from smoothce.calibration import (
    RecordError,
    ace,
    bin_records,
    ece,
    ingest_records,
    reliability_data,
    rms_ce,
    sce,
)


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")


def summaries(*pairs):
    """(confidence, correct) arrays of summary-form records, one
    (confidence, correct) pair each."""
    conf, correct = zip(*pairs)
    return np.array(conf, dtype=np.float64), np.array(correct, dtype=bool)


FIXTURE_PAIRS = [(0.9, True), (0.8, False), (0.3, True), (0.1, False)]
FIXTURE = summaries(*FIXTURE_PAIRS)


class TestIngestion:
    def test_probs_form_derivation(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.1, 0.9], "label": 1}])
        records = ingest_records(p)
        assert records.confidence.tolist() == [0.9]
        assert records.correct.tolist() == [True]
        assert records.probs.tolist() == [[0.1, 0.9]]
        assert records.labels.tolist() == [1]
        assert (records.confidence.dtype, records.correct.dtype,
                records.probs.dtype, records.labels.dtype) == (
                    np.float64, np.bool_, np.float64, np.intp)

    def test_argmax_tie_takes_first_index(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.5, 0.5], "label": 1}])
        records = ingest_records(p)
        assert records.correct.tolist() == [False]

    def test_confidence_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"confidence": 0.5, "correct": True},
                        {"confidence": 1.2, "correct": False}])
        with pytest.raises(RecordError, match=":2"):
            ingest_records(p)

    def test_probs_must_sum_to_one(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.6, 0.6], "label": 0}])
        with pytest.raises(RecordError, match="sum"):
            ingest_records(p)

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.4, 0.6], "label": 2}])
        with pytest.raises(RecordError, match="label"):
            ingest_records(p)

    def test_malformed_json_names_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"confidence": 0.5, "correct": true}\nnot json\n')
        with pytest.raises(RecordError, match=":2"):
            ingest_records(p)

    def test_mixed_forms_coexist(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.2, 0.8], "label": 1},
                        {"confidence": 0.7, "correct": False}])
        records = ingest_records(p)
        assert len(records) == 2
        assert records.confidence.tolist() == [0.8, 0.7]
        assert records.correct.tolist() == [True, False]
        assert records.probs is None and records.labels is None
        # class-wise metrics then refuse the set by the missing field's name
        with pytest.raises(ValueError, match="probs"):
            sce(records.probs, records.labels, 2)
        with pytest.raises(ValueError, match="probs"):
            ace(records.probs, records.labels, 2)

    def test_class_count_mismatch_names_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"probs": [0.7, 0.3], "label": 0},
                        {"probs": [0.2, 0.3, 0.5], "label": 2}])
        with pytest.raises(RecordError, match=":2: .*classes"):
            ingest_records(p)

    @pytest.mark.parametrize("entry", ["NaN", "null", '"a"'], ids=["nan", "null", "string"])
    def test_non_numeric_probs_entry_names_line(self, tmp_path, entry):
        p = tmp_path / "r.jsonl"
        p.write_text('{"probs": [0.5, 0.5], "label": 0}\n'
                     f'{{"probs": [{entry}, 1.0], "label": 1}}\n')
        with pytest.raises(RecordError, match=":2"):
            ingest_records(p)

    @pytest.mark.parametrize("probs", ["[true, false]", "[false, 0.25, 0.75]"],
                             ids=["all", "mixed"])
    def test_boolean_probs_entry_names_line(self, tmp_path, probs):
        """JSON booleans are not probabilities, even where they would sum
        to 1 read as 0/1; the summary form rejects them the same way."""
        p = tmp_path / "r.jsonl"
        p.write_text('{"probs": [0.5, 0.5], "label": 0}\n'
                     f'{{"probs": {probs}, "label": 0}}\n')
        with pytest.raises(RecordError, match=":2"):
            ingest_records(p)

    @pytest.mark.parametrize("line, message", [
        ('{"probs": [[0.5], [0.25, 0.25]], "label": 0}', "probs must be a non-empty vector"),
        ('{"probs": [], "label": 0}', "probs must be a non-empty vector"),
        ('{"probs": [[0.5, 0.5]], "label": 0}', "probs must be a non-empty vector"),
        ('{"probs": [1.5, -0.5], "label": 0}', r"probs entries must lie in \[0, 1\]"),
        ('{"probs": [0.5, 0.5], "label": 1.0}', "label must be an integer"),
        ('{"probs": [0.5, 0.5], "label": true}', "label must be an integer"),
        ('{"confidence": "0.5", "correct": true}', "confidence must be a number"),
        ('{"confidence": 0.5, "correct": 1}', "correct must be a boolean"),
        ('[0.5, true]', "expected a JSON object"),
        ('{"probs": [0.5, 0.5]}', "probs form requires a label"),
        ('{"confidence": 0.5}', "confidence form requires correct"),
        ('{"label": 0}', "need either probs or confidence"),
    ], ids=["ragged", "empty", "nested", "outside", "float-label", "bool-label",
            "text-confidence", "int-correct", "array", "no-label", "no-correct",
            "neither"])
    def test_refused_line_names_path_and_line(self, tmp_path, line, message):
        """Each refusal is a RecordError that starts with `path:lineno:`,
        here on the line after a valid one."""
        p = tmp_path / "r.jsonl"
        p.write_text('{"confidence": 0.5, "correct": true}\n' + line + "\n")
        with pytest.raises(RecordError) as info:
            ingest_records(p)
        assert str(info.value).startswith(f"{p}:2: ")
        assert info.match(message)


class TestBinning:
    def test_single_bin_aggregates_everything(self):
        (b,) = bin_records(*FIXTURE, 1)
        assert b.count == 4
        assert b.mean_confidence == pytest.approx((0.9 + 0.8 + 0.3 + 0.1) / 4)
        assert b.accuracy == pytest.approx(0.5)

    def test_equal_width_split(self):
        bins = bin_records(*FIXTURE, 2, "equal_width")
        assert [b.count for b in bins] == [2, 2]
        assert bins[0].lo == 0.0 and bins[0].hi == 0.5
        assert bins[0].mean_confidence == pytest.approx(0.2)
        assert bins[1].mean_confidence == pytest.approx(0.85)

    def test_equal_mass_split(self):
        bins = bin_records(*FIXTURE, 2, "equal_mass")
        assert [b.count for b in bins] == [2, 2]
        assert bins[0].lo == 0.1 and bins[0].hi == 0.3
        assert bins[1].lo == 0.8 and bins[1].hi == 0.9

    def test_equal_mass_remainder_leads(self):
        bins = bin_records(*summaries(*FIXTURE_PAIRS, (0.5, True)), 2, "equal_mass")
        assert [b.count for b in bins] == [3, 2]

    def test_equal_mass_ties_keep_record_order(self):
        """Three tied confidences straddle the boundary; the first-listed
        (correct) one fills the lower bin."""
        records = summaries((0.2, False), (0.5, True), (0.5, False), (0.5, False))
        bins = bin_records(*records, 2, "equal_mass")
        assert [b.count for b in bins] == [2, 2]
        assert [b.accuracy for b in bins] == [0.5, 0.0]
        assert [b.mean_confidence for b in bins] == pytest.approx([0.35, 0.5])
        assert (bins[0].lo, bins[0].hi, bins[1].lo, bins[1].hi) == (0.2, 0.5, 0.5, 0.5)

    def test_confidence_one_lands_in_last_bin(self):
        bins = bin_records(*summaries((1.0, True)), 4)
        assert [b.count for b in bins] == [0, 0, 0, 1]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            bin_records(np.array([]), np.array([], dtype=bool), 2)

    def test_length_mismatch_rejected(self):
        conf, correct = FIXTURE
        with pytest.raises(ValueError, match="records"):
            bin_records(conf, correct[:3], 2)


class TestEceRms:
    def test_hand_enumeration(self):
        bins = bin_records(*FIXTURE, 2, "equal_width")
        assert ece(bins) == pytest.approx(0.325, abs=1e-12)
        assert rms_ce(bins) == pytest.approx(math.sqrt(0.10625), abs=1e-12)

    def test_perfectly_calibrated_synthetic(self):
        """Constructed bins where confidence equals empirical accuracy."""
        pairs = []
        for conf, hits, total in ((0.25, 1, 4), (0.75, 3, 4)):
            pairs += [(conf, i < hits) for i in range(total)]
        bins = bin_records(*summaries(*pairs), 2, "equal_width")
        assert ece(bins) == pytest.approx(0.0, abs=1e-12)
        assert rms_ce(bins) == pytest.approx(0.0, abs=1e-12)

    def test_all_wrong_full_confidence(self):
        records = summaries(*[(1.0, False)] * 5)
        bins = bin_records(*records, 3)
        assert ece(bins) == 1.0
        assert rms_ce(bins) == 1.0

    def test_single_bin_rms_is_absolute_gap(self):
        records = summaries((0.8, True), (0.6, False))
        (b,) = bin_records(*records, 1)
        gap = abs(b.accuracy - b.mean_confidence)
        assert rms_ce([b]) == pytest.approx(gap, abs=1e-15)

    def test_rms_dominates_ece(self):
        rng = np.random.default_rng(0)
        conf, correct = rng.uniform(0, 1, 300), rng.integers(0, 2, 300).astype(bool)
        for m in (1, 5, 10):
            bins = bin_records(conf, correct, m)
            assert rms_ce(bins) >= ece(bins) - 1e-12

    def test_metrics_in_unit_interval(self):
        rng = np.random.default_rng(1)
        conf, correct = rng.uniform(0, 1, 200), rng.integers(0, 2, 200).astype(bool)
        bins = bin_records(conf, correct, 7)
        assert 0.0 <= ece(bins) <= 1.0
        assert 0.0 <= rms_ce(bins) <= 1.0

    def test_permutation_and_duplication_invariance(self):
        rng = np.random.default_rng(2)
        conf, correct = rng.uniform(0, 1, 64), rng.integers(0, 2, 64).astype(bool)
        base = ece(bin_records(conf, correct, 5))
        order = np.arange(64)
        rng.shuffle(order)
        shuffled = bin_records(conf[order], correct[order], 5)
        assert ece(shuffled) == pytest.approx(base, abs=1e-15)
        doubled = bin_records(np.tile(conf, 2), np.tile(correct, 2), 5)
        assert ece(doubled) == pytest.approx(base, abs=1e-15)


class ProbsRecord(NamedTuple):
    """The brute-force oracles' per-record view of one probs-form record."""

    probs: tuple
    label: int


def probs_record(probs, label):
    return ProbsRecord(tuple(probs), label)


def columns(records):
    """The metrics' inputs for the same records: the (n, k) probability
    matrix and the labels."""
    return (np.array([r.probs for r in records], dtype=np.float64),
            np.array([r.label for r in records], dtype=np.intp))


def brute_force_sce(records, m):
    """Independent double loop over classes and bins."""
    n = len(records)
    k = len(records[0].probs)
    total = 0.0
    for cls in range(k):
        for b in range(m):
            lo, hi = b / m, (b + 1) / m
            members = [r for r in records
                       if (lo <= r.probs[cls] < hi) or (b == m - 1 and r.probs[cls] == 1.0)]
            if not members:
                continue
            freq = sum(1 for r in members if r.label == cls) / len(members)
            mean_p = sum(r.probs[cls] for r in members) / len(members)
            total += (len(members) / n) * abs(freq - mean_p)
    return total / k


def brute_force_ace(records, m):
    """Independent equal-mass variant with uniform weights over non-empty
    bins (renormalized)."""
    k = len(records[0].probs)
    n = len(records)
    total = 0.0
    for cls in range(k):
        order = sorted(range(n), key=lambda i: (records[i].probs[cls], i))
        base, rem = divmod(n, m)
        pos = 0
        gaps = []
        for b in range(m):
            size = base + (1 if b < rem else 0)
            grp = [records[i] for i in order[pos:pos + size]]
            pos += size
            if not grp:
                continue
            freq = sum(1 for r in grp if r.label == cls) / len(grp)
            mean_p = sum(r.probs[cls] for r in grp) / len(grp)
            gaps.append(abs(freq - mean_p))
        total += sum(gaps) / len(gaps)
    return total / k


class TestClassWiseMetrics:
    def test_one_hot_predictions_score_zero(self):
        records = [probs_record([1.0, 0.0, 0.0], 0),
                   probs_record([0.0, 1.0, 0.0], 1),
                   probs_record([0.0, 0.0, 1.0], 2)]
        assert sce(*columns(records), 3) == pytest.approx(0.0, abs=1e-12)
        assert ace(*columns(records), 1) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetry(self):
        """With two classes the class-wise gaps mirror each other, so the
        average equals the class-0 term."""
        rng = np.random.default_rng(3)
        records = []
        for _ in range(40):
            p0 = float(rng.uniform(0, 1))
            records.append(probs_record([p0, 1.0 - p0], int(rng.integers(0, 2))))
        m = 4
        n = len(records)
        class0 = 0.0
        for b in range(m):
            lo, hi = b / m, (b + 1) / m
            members = [r for r in records
                       if (lo <= r.probs[0] < hi) or (b == m - 1 and r.probs[0] == 1.0)]
            if not members:
                continue
            freq = sum(1 for r in members if r.label == 0) / len(members)
            mean_p = sum(r.probs[0] for r in members) / len(members)
            class0 += (len(members) / n) * abs(freq - mean_p)
        assert sce(*columns(records), m) == pytest.approx(class0, abs=1e-12)

    @pytest.mark.parametrize("n,k,m,seed,decimals", [
        pytest.param(10, 2, 2, 0, None, id="10-2-2-0"),
        pytest.param(37, 3, 4, 1, None, id="37-3-4-1"),
        pytest.param(100, 5, 4, 2, None, id="100-5-4-2"),
        pytest.param(64, 4, 3, 3, None, id="64-4-3-3"),
        # probabilities on a 0.1 grid: tied values with different labels
        # straddle the equal-mass boundaries, so ACE pins the tie order
        pytest.param(40, 3, 4, 4, 1, id="ties-40-3-4-4"),
    ])
    def test_against_brute_force(self, n, k, m, seed, decimals):
        rng = np.random.default_rng(seed)
        records = []
        for _ in range(n):
            raw = rng.dirichlet(np.ones(k))
            if decimals is not None:
                raw = np.round(raw, decimals)
                raw[np.argmax(raw)] += 1.0 - raw.sum()
            records.append(probs_record([float(q) for q in raw],
                                        int(rng.integers(0, k))))
        probs, labels = columns(records)
        assert sce(probs, labels, m) == pytest.approx(brute_force_sce(records, m), abs=1e-12)
        assert ace(probs, labels, m) == pytest.approx(brute_force_ace(records, m), abs=1e-12)

    def test_ace_empty_bin_modes(self):
        records = [probs_record([0.7, 0.3], 0), probs_record([0.4, 0.6], 1)]
        skip = ace(*columns(records), 4, empty_bins="skip")
        zero = ace(*columns(records), 4, empty_bins="zero")
        # two records for four bins: two bins empty per class; the zero mode
        # halves the renormalized value
        assert zero == pytest.approx(skip / 2.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        probs, labels = columns([probs_record([0.7, 0.3], 0),
                                 probs_record([0.4, 0.6], 1)])
        for metric in (sce, ace):
            with pytest.raises(ValueError, match="records"):
                metric(probs, labels[:1], 2)


PAIR = np.array([[0.7, 0.3], [0.4, 0.6]])


class TestLibraryInputs:
    """The metrics refuse evidence that ingest would have refused, naming
    the rule, when it comes straight through the library API."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, rule", [
        (lambda: bin_records([1.5, 0.2], [True, False], 4), r"confidences must be finite"),
        (lambda: bin_records([math.nan, 0.2], [True, False], 4), r"confidences must be finite"),
        (lambda: bin_records([-0.5, 0.2], [True, False], 4), r"confidences must be finite"),
        (lambda: bin_records([math.inf, 0.2], [True, False], 4), r"confidences must be finite"),
        (lambda: bin_records([[0.5, 0.2]], [True], 4), r"confidences must be a 1-D"),
        (lambda: bin_records([0.5, 0.2], [2, 0], 4), r"correct entries must be 0 or 1"),
        (lambda: bin_records([0.5, 0.2], [-1, 0], 4), r"correct entries must be 0 or 1"),
        (lambda: sce([[1.3, -0.3], [0.5, 0.5]], [0, 1], 4), r"probabilities must be finite"),
        (lambda: ace([[0.5, math.nan], [0.5, 0.5]], [0, 1], 4),
         r"probabilities must be finite"),
        (lambda: sce([0.5, 0.5], [0, 1], 4), r"probabilities must be a 2-D"),
        (lambda: sce(PAIR, [5, 0], 4), r"labels must be integers in \[0, 2\)"),
        (lambda: ace(PAIR, [-1, 0], 4), r"labels must be integers in \[0, 2\)"),
        (lambda: ace(PAIR, [0.0, 1.0], 4), r"labels must be integers in \[0, 2\)"),
    ])
    def test_out_of_range_evidence_is_refused(self, call, rule):
        with pytest.raises(ValueError, match=rule):
            call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [2**53 + 1, 10**30])
    def test_bin_count_beyond_float64_is_refused(self, m):
        """10**30 bins used to overflow the equal-width index cast, warn, and
        end in an OverflowError."""
        for call in (lambda: bin_records([0.5, 0.2], [True, False], m),
                     lambda: ace(PAIR, [0, 1], m)):
            with pytest.raises(ValueError, match=r"^bin count must be at most 2\*\*53"):
                call()


class TestReliability:
    def test_hand_rows(self):
        rows = reliability_data(bin_records(*FIXTURE, 2, "equal_width"))
        lo, hi, count, conf, acc, gap = rows[1]
        assert (lo, hi, count) == (0.5, 1.0, 2)
        assert conf == pytest.approx(0.85)
        assert acc == pytest.approx(0.5)
        assert gap == pytest.approx(-0.35)
        assert rows[0][5] == pytest.approx(0.3)

    def test_perfect_calibration_zero_gaps(self):
        records = summaries(*[(0.25, i < 1) for i in range(4)])
        rows = reliability_data(bin_records(*records, 2))
        assert rows[0][5] == pytest.approx(0.0, abs=1e-15)

    def test_empty_bin_emits_nulls(self):
        rows = reliability_data(bin_records(*summaries((0.9, True)), 2))
        lo, hi, count, conf, acc, gap = rows[0]
        assert count == 0
        assert conf is None and acc is None and gap is None
