"""Tests of the benchmark's own checks and tracer, at tiny shapes.

Run from the repository root:  python3 -m pytest bench -q
"""

import json

import numpy as np
import pytest

import checks
import inputs
import run

PKG = run.import_package()
TINY = run.Workload(run.Engine(24, 96, 12, 0.1),
                    run.Calib(records=40, classes=12, summaries=60),
                    run.Sweep(ds=(4,), vs=(8,), rhos=(1.0,)))
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def engine_case(beta=0.1):
    E, C, x = PKG.tensors.random_instance(3, 24, 96, 12, 0.5)
    plan = PKG.tensors.plan_blocks(24, 96, 12, n_block=8, v_block=32, d_block=5)
    out, grads, stats = PKG.blocked.loss_and_grad(E, C, x, beta, plan)
    want = checks.reference_loss_grad(E.data, C.data, x.targets, beta, chunk=7)
    bound = PKG.blocked.aux_bound_bytes(plan, 24, 96, 12)
    return checks.engine_arrays(out, grads), want, stats.peak_auxiliary_bytes, bound


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
def test_correct_engine_result_passes(beta):
    assert checks.check_engine(*engine_case(beta)) == []


@pytest.mark.parametrize("key", ["grad_e", "grad_c"])
def test_gradient_scaled_by_1_001_fails(key):
    got, want, peak, bound = engine_case()
    got = dict(got, **{key: got[key] * 1.001})
    errs = checks.check_engine(got, want, peak, bound)
    assert errs and all(e.startswith(key) for e in errs)


def test_peak_over_bound_fails():
    got, want, peak, _ = engine_case()
    assert checks.check_engine(got, want, peak, peak - 1)


def test_repeat_must_be_bit_identical():
    got, _, _, _ = engine_case()
    assert checks.check_same(got, got) == []
    moved = dict(got, lse=np.nextafter(got["lse"], np.inf))
    assert checks.check_same(moved, got) == ["lse: differs from the verified call"]


def calibration_case(tmp_path):
    rng = np.random.default_rng(5)
    p = inputs.draw_probs(rng, 40, 12)
    labels = inputs.draw_labels(rng, p, 0.0)
    path = tmp_path / "r.jsonl"
    inputs.write_probs(path, p, labels)
    out, rel = tmp_path / "m.csv", tmp_path / "rel.csv"
    rc = PKG.cli.main(["calibrate", "--records", str(path), "--bins", "15", "--out", str(out),
                       "--reliability-csv", str(rel), "--reliability-scheme", "equal_mass"])
    assert rc == 0
    conf, correct = inputs.top_label(p, labels)
    want = checks.calibration_reference(conf, correct, 15, p, labels)
    want_rel = checks.reliability_rows(conf, correct, 15, "equal_mass")
    return (checks.parse_metric_csv(out.read_text(), 15), want,
            checks.parse_reliability_csv(rel.read_text()), want_rel)


def test_correct_calibration_passes(tmp_path):
    got, want, got_rel, want_rel = calibration_case(tmp_path)
    assert len(want) == 6
    assert checks.check_metrics(got, want) == []
    assert checks.check_reliability(got_rel, want_rel) == []


@pytest.mark.parametrize("key", [("ece", "equal_width"), ("rms_ce", "equal_mass"),
                                 ("sce", "equal_width"), ("ace", "equal_mass")])
def test_calibration_value_off_by_1e_9_fails(tmp_path, key):
    got, want, _, _ = calibration_case(tmp_path)
    got[key] += 1e-9
    assert len(checks.check_metrics(got, want)) == 1


def test_reliability_value_off_by_1e_9_fails(tmp_path):
    _, _, got_rel, want_rel = calibration_case(tmp_path)
    row = list(got_rel[3])
    row[3] += 1e-9
    got_rel[3] = tuple(row)
    assert len(checks.check_reliability(got_rel, want_rel)) == 1


def test_overconfident_labels_lower_the_hit_rate():
    rng = np.random.default_rng(0)
    p = inputs.draw_probs(rng, 4000, 50)
    conf, hit = inputs.top_label(p, inputs.draw_labels(rng, p, inputs.GAP))
    assert abs((conf - hit).mean() - inputs.GAP) < 0.03
    conf, hit = inputs.top_label(p, inputs.draw_labels(rng, p, 0.0))
    assert abs((conf - hit).mean()) < 0.03


def test_entropy_floor_matches_minimizer():
    for d, v, rho, r, floor in checks.entropy_grid((1, 64), (2, 1000), (0.0, 0.5, 3.0)):
        u = PKG.entropy.minimizer_vector(PKG.entropy.BoundParams(rho, 1.0, d, v))
        assert checks.softmax_entropy(u) == pytest.approx(floor, rel=1e-9, abs=1e-12)


def wrapped_names(tracer):
    return [(module, attr) for module, attr, _ in tracer._targets]


def test_tracer_restores_every_name_even_on_error():
    tracer = run.make_tracer(PKG)
    names = wrapped_names(tracer)
    originals = [getattr(m, a) for m, a in names]
    with pytest.raises(KeyError):
        with tracer:
            assert all(getattr(m, a) is not o for (m, a), o in zip(names, originals))
            raise KeyError("inside")
    assert all(getattr(m, a) is o for (m, a), o in zip(names, originals))


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_the_declared_metrics(tmp_path, trace):
    tracer_names = wrapped_names(run.make_tracer(PKG))
    originals = [getattr(m, a) for m, a in tracer_names]
    result, raw = run.run(PKG, TINY, 7, 1, trace, tmp_path, 0.0)
    assert result["correct"], raw["errors"]
    assert result["failed"] == 0 and result["attempted"] % 3 == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert all(getattr(m, a) is o for (m, a), o in zip(tracer_names, originals))
    if trace:
        e = TINY.engine
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # forward, backward recompute and the two backward products
        assert metrics["blocked.gemm_flop"] == 4 * 2 * e.n * e.v * e.d
        assert metrics["entropy.oracle_steps"] == run.ORACLE_RESTARTS * run.ORACLE_ITERATIONS
