"""Command-line surface: exit codes, output formats, engine agreement,
config files, and the environment fallback."""

import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import smoothce.cli
from smoothce.blocked import loss_and_grad
from smoothce.cli import main
from smoothce.reference import Gradients
from smoothce.tensors import (BlockPlan, DenseMatrix, TokenSequence, random_instance,
                              save_matrix, save_tokens)


@pytest.fixture()
def instance_files(tmp_path):
    e, c, x = random_instance(7, n=24, v=96, d=8, scale=0.5)
    pe, pc, px = tmp_path / "E.sce1", tmp_path / "C.sce1", tmp_path / "x.sce1"
    save_matrix(e, pe)
    save_matrix(c, pc)
    save_tokens(x, px)
    return str(pe), str(pc), str(px)


def loss_args(files, **extra):
    pe, pc, px = files
    argv = ["loss", "--embeddings", pe, "--classifier", pc, "--targets", px]
    for key, val in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    return argv


def total_from(capsys) -> float:
    out = capsys.readouterr().out
    assert out.startswith("total ")
    return float(out.split()[1])


class TestLoss:
    def test_engines_agree(self, instance_files, capsys):
        assert main(loss_args(instance_files, beta=0.1, engine="blocked")) == 0
        blocked = total_from(capsys)
        assert main(loss_args(instance_files, beta=0.1, engine="naive")) == 0
        naive = total_from(capsys)
        assert abs(blocked - naive) <= 1e-9 * abs(naive)

    def test_beta_out_of_range_is_usage_error(self, instance_files, capsys):
        assert main(loss_args(instance_files, beta=1.5)) == 2
        assert "beta" in capsys.readouterr().err

    def test_reduction_scales_by_token_count(self, instance_files, capsys):
        assert main(loss_args(instance_files, reduction="sum")) == 0
        total_sum = total_from(capsys)
        assert main(loss_args(instance_files, reduction="mean")) == 0
        total_mean = total_from(capsys)
        assert total_sum == pytest.approx(total_mean * 24)

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        argv = ["loss", "--embeddings", str(tmp_path / "none.sce1"),
                "--classifier", str(tmp_path / "none.sce1"),
                "--targets", str(tmp_path / "none.sce1")]
        assert main(argv) == 1

    def test_corrupt_file_names_path(self, instance_files, tmp_path, capsys):
        pe, pc, px = instance_files
        bad = tmp_path / "bad.sce1"
        bad.write_bytes(b"JUNKJUNKJUNK" + bytes(48))
        argv = ["loss", "--embeddings", str(bad), "--classifier", pc,
                "--targets", px]
        assert main(argv) == 1
        assert "bad.sce1" in capsys.readouterr().err

    def test_shape_mismatch_is_data_error(self, instance_files, tmp_path, capsys):
        pe, pc, px = instance_files
        other, _, _ = random_instance(1, n=4, v=8, d=3, scale=0.5)
        podd = tmp_path / "odd.sce1"
        save_matrix(other, podd)
        argv = ["loss", "--embeddings", str(podd), "--classifier", pc,
                "--targets", px]
        assert main(argv) == 1

    def test_per_token_csv(self, instance_files, tmp_path, capsys):
        out_csv = tmp_path / "per_token.csv"
        assert main(loss_args(instance_files, beta=0.5)
                    + ["--per-token-csv", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "token,lse,o,loss"
        assert len(lines) == 25
        first = lines[1].split(",")
        assert float(first[1]) - float(first[2]) == pytest.approx(float(first[3]))

    def test_unwritable_csv_leaves_no_total(self, instance_files, tmp_path, capsys):
        """A per-token CSV that cannot be written fails the run before any
        result-like line reaches stdout."""
        bad = tmp_path / "missing-dir" / "per_token.csv"
        assert main(loss_args(instance_files, per_token_csv=bad)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "missing-dir" in err


    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_empty_batch_both_engines(self, tmp_path, capsys, reduction):
        """A 0-token file is a valid batch: both engines print total 0."""
        _, c, _ = random_instance(7, n=4, v=96, d=8, scale=0.5)
        files = tuple(str(tmp_path / f"{name}.sce1") for name in "ECx")
        save_matrix(DenseMatrix.from_array(np.zeros((8, 0))), files[0])
        save_matrix(c, files[1])
        save_tokens(TokenSequence(np.array([], dtype=np.int64)), files[2])
        for engine in ("blocked", "naive"):
            argv = loss_args(files, engine=engine, reduction=reduction)
            assert main(argv) == 0
            assert total_from(capsys) == 0.0

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_empty_classifier_is_a_data_error(self, tmp_path, capsys, beta):
        """A 4 x 0 classifier file is refused by name: one and the same
        error line, no total, for both engines."""
        files = tuple(str(tmp_path / f"{name}.sce1") for name in "ECx")
        for path in files[:2]:
            save_matrix(DenseMatrix.from_array(np.zeros((4, 0))), path)
        save_tokens(TokenSequence(np.array([], dtype=np.int64)), files[2])
        for engine in ("naive", "blocked"):
            assert main(loss_args(files, engine=engine, beta=beta)) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: classifier is empty (4 x 0): it has no vocabulary entries\n"

    def test_zero_depth_both_engines(self, tmp_path, capsys):
        """At D = 0 every logit is 0: both engines print 5 log 7 for five
        tokens over seven entries."""
        files = tuple(str(tmp_path / f"{name}.sce1") for name in "ECx")
        save_matrix(DenseMatrix.from_array(np.zeros((0, 5))), files[0])
        save_matrix(DenseMatrix.from_array(np.zeros((0, 7))), files[1])
        save_tokens(TokenSequence(np.array([0, 1, 2, 3, 6])), files[2])
        totals = []
        for engine in ("blocked", "naive"):
            assert main(loss_args(files, engine=engine)) == 0
            totals.append(total_from(capsys))
        assert totals[0] == totals[1] == pytest.approx(5 * math.log(7), rel=1e-15)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["blocked", "naive"])
    def test_overflowing_logits_are_a_data_error(self, tmp_path, capsys, engine):
        """Logits beyond float64 give non-finite losses: one error line, no
        numpy warning, no CSV and no total."""
        files = tuple(str(tmp_path / f"{name}.sce1") for name in "ECx")
        for obj, path in zip(random_instance(0, 8, 32, 4, 1e160), files):
            (save_tokens if isinstance(obj, TokenSequence) else save_matrix)(obj, path)
        out_csv = tmp_path / "per_token.csv"
        argv = loss_args(files, engine=engine, per_token_csv=out_csv)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err
        assert not out_csv.exists()

    def test_path_arguments_act_like_strings(self, instance_files, capsys):
        """argv entries may be path objects, as in a programmatic call."""
        assert main(loss_args(instance_files, beta=0.1)) == 0
        want = capsys.readouterr()
        argv = [Path(arg) if arg.endswith(".sce1") else arg
                for arg in loss_args(instance_files, beta=0.1)]
        assert main(argv) == 0
        assert capsys.readouterr() == want


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_filtered_run_passes_with_relaxed_tolerance(self, capsys):
        argv = ["gradcheck", "--n", "32", "--v", "1024", "--d", "32",
                "--scale", "1.5", "--n-block", "8", "--v-block", "64",
                "--filter-eps", str(2.0 ** -12), "--skip-fd"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "skipped" in out

    @pytest.mark.parametrize("h", ["0", "inf", "nan"])
    def test_bad_step_is_usage_error_before_any_output(self, h, capsys):
        """The step used to be checked after the blocked-vs-analytic line
        was printed, and inf ran into a late non-finite-matrix error."""
        assert main(["gradcheck", f"--h={h}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--h" in err

    @pytest.mark.parametrize("scale", ["inf", "nan", "0"])
    def test_bad_scale_names_the_input(self, scale, capsys):
        """Such a scale used to exit 1, refused by the generator."""
        assert main(["gradcheck", "--scale", scale]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --scale" in err

    @pytest.mark.parametrize("flag, value", [
        ("--tol-fd", "nan"), ("--tol-fd", "-1"), ("--tol-analytic", "nan"),
    ])
    def test_bad_tolerance_is_usage_error_before_any_output(self, flag, value, capsys):
        """A tolerance no error can meet used to print FAIL and exit 1."""
        assert main(["gradcheck", f"{flag}={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and flag in err

    def test_two_class_vocabulary_passes(self, capsys):
        """The smallest `--v` taken. One class is refused (see BAD_VALUES):
        its loss and both gradients are exactly 0, so each relative error
        divided rounding noise by rounding noise, and `--v 1` used to print
        FAIL and exit 1."""
        assert main(["gradcheck", "--v", "2"]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")

    @pytest.mark.parametrize("value", ["2", "1", "-0.5", "nan", "x"])
    def test_bad_filter_eps_is_usage_error_before_any_output(self, value, capsys):
        """An epsilon outside [0, 1) used to exit 1, and only after a full
        naive backward and a blocked forward."""
        assert main(["gradcheck", f"--filter-eps={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--filter-eps" in err

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        def corrupted(*args, **kwargs):
            out, grads, stats = loss_and_grad(*args, **kwargs)
            bad = DenseMatrix._wrap(grads.grad_e.data * 1.001 + 1e-6)
            return out, Gradients(bad, grads.grad_c), stats

        monkeypatch.setattr(smoothce.cli, "loss_and_grad", corrupted)
        assert main(["gradcheck", "--skip-fd"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestBench:
    def test_csv_shape_and_memory_column(self, tmp_path):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "64", "--v", "512", "--d", "16",
                "--betas", "0,0.1", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("method,phase,n,v,d,beta,repetitions,"
                            "wall_time_ms,peak_auxiliary_bytes")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 12  # 2 betas x 3 phases x 2 methods
        blocked_rows = [r for r in rows if r[0] == "blocked"]
        naive_rows = [r for r in rows if r[0] == "naive"]
        assert len(blocked_rows) == 6 and len(naive_rows) == 6
        # deterministic mode leaves timing empty, memory always populated
        assert all(r[7] == "" for r in rows)
        assert all(int(r[8]) > 0 for r in blocked_rows)

    def test_blocked_peak_tracks_beta_weakly(self, tmp_path):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "64", "--v", "512", "--d", "16",
                "--betas", "0,0.1", "--skip-naive", "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        fwd = {r[5]: int(r[8]) for r in rows if r[1] == "fwd"}
        assert abs(fwd["0.0"] - fwd["0.1"]) <= 0.01 * max(fwd.values())

    def test_skip_naive_omits_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "32", "--v", "128", "--d", "8",
                "--betas", "0", "--skip-naive", "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(r[0] == "blocked" for r in rows)

    def test_timed_mode_fills_wall_time(self, tmp_path):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "32", "--v", "128", "--d", "8", "--betas", "0",
                "--skip-naive", "--phases", "fwd", "--repetitions", "3",
                "--warmups", "1", "--no-deterministic", "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(float(r[7]) > 0 for r in rows)

    @pytest.mark.parametrize("phases, forwards", [("fwd_bwd", 0), ("bwd", 1)])
    def test_forward_runs_only_for_the_bwd_phase(self, monkeypatch, tmp_path, phases,
                                                 forwards):
        """The bwd phase needs the forward's lse; no other phase runs a
        blocked forward that nothing uses."""
        calls = []
        original = smoothce.cli.blocked_forward

        def spy(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(smoothce.cli, "blocked_forward", spy)
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "32", "--v", "128", "--d", "8", "--betas", "0,0.1",
                "--skip-naive", "--phases", phases, "--out", str(out)]
        assert main(argv) == 0
        assert len(calls) == 2 * forwards
        assert len(out.read_text().splitlines()) == 3

    def test_pool_mode_stays_under_its_ceiling(self, tmp_path):
        """With two workers two tiles are in flight; the ceiling counts
        both."""
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "128", "--v", "2048", "--d", "16",
                "--betas", "0,0.1", "--skip-naive", "--no-deterministic",
                "--threads", "2", "--repetitions", "3", "--warmups", "0",
                "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6 and all(float(r[7]) > 0 for r in rows)

    def test_peak_over_its_ceiling_is_one_error_line(self, tmp_path, monkeypatch,
                                                     capsys):
        """A reported peak above `aux_bound_bytes` stops the run at that row
        with exit 1, one stderr line and no CSV."""
        monkeypatch.setattr(smoothce.cli, "aux_bound_bytes", lambda *args: 0)
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "32", "--v", "128", "--d", "8", "--betas", "0",
                "--out", str(out)]
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("error: blocked fwd peak ")
        assert err.endswith(" bytes exceeds the 0-byte ceiling\n")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_deep_narrow_shape_stays_under_its_ceiling(self, tmp_path, threads):
        """At 4 x 2 x 1000 one token's D-vector is more than a tile's
        working set; every phase stays under the ceiling."""
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "4", "--v", "2", "--d", "1000", "--betas", "0,0.1",
                "--skip-naive", "--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6 and all(int(r[8]) > 0 for r in rows)

    def test_multi_worker_reruns_are_byte_identical(self, capsys):
        """Each worker owns fixed token blocks and counts its own peak, so
        a two-worker run over several token blocks prints the same CSV
        every time; the peaks used to follow how the threads overlapped."""
        argv = ["bench", "--n", "256", "--v", "4096", "--d", "16", "--threads", "2",
                "--betas", "0", "--skip-naive"]
        outputs = []
        for _ in range(4):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].count("\n") == 4
        assert outputs == [outputs[0]] * 4

    @pytest.mark.parametrize("betas", ["0,1.5", "nan", "-0.1"])
    def test_beta_out_of_range_is_usage_error(self, tmp_path, capsys, betas):
        """A beta outside [0, 1] used to reach the engine and exit 1."""
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "8", "--v", "16", "--d", "4", "--skip-naive",
                "--betas", betas, "--out", str(out)]
        assert main(argv) == 2
        assert "--betas" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_repetitions_is_usage_error(self):
        assert main(["bench", "--repetitions", "2"]) == 2

    def test_negative_warmups_is_usage_error(self, tmp_path, capsys):
        """A negative count used to run no warm-up and exit 0."""
        out = tmp_path / "bench.csv"

        def run(warmups):
            return main(["bench", "--n", "8", "--v", "16", "--d", "4", "--warmups", warmups,
                         "--skip-naive", "--out", str(out)])

        assert run("-5") == 2
        assert "--warmups" in capsys.readouterr().err
        assert not out.exists()
        assert run("0") == 0

    @pytest.mark.parametrize("flag, empty, bad", [
        ("--phases", ",", "fwd,nope"), ("--betas", "", "0,x"), ("--betas", " , ", "0,x"),
    ])
    def test_empty_list_is_an_error_naming_the_flag(self, tmp_path, capsys,
                                                    flag, empty, bad):
        """An empty list fails with the exit code of the flag's other bad
        values and writes no CSV, where it used to write a bare header."""
        out = tmp_path / "bench.csv"

        def run(value):
            argv = ["bench", "--n", "8", "--v", "16", "--d", "4", "--skip-naive",
                    flag, value, "--out", str(out)]
            return main(argv), capsys.readouterr().err

        code_bad, _ = run(bad)
        code, err = run(empty)
        assert code == code_bad == 2
        assert flag in err
        assert not out.exists()


@pytest.fixture()
def calibration_file(tmp_path):
    p = tmp_path / "records.jsonl"
    rows = [{"confidence": 0.9, "correct": True},
            {"confidence": 0.8, "correct": False},
            {"confidence": 0.3, "correct": True},
            {"confidence": 0.1, "correct": False}]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(p)


class TestCalibrate:
    def test_fixture_metrics(self, calibration_file, tmp_path):
        out = tmp_path / "metrics.csv"
        argv = ["calibrate", "--records", calibration_file, "--bins", "2",
                "--out", str(out)]
        assert main(argv) == 0
        rows = {(r[0], r[2]): float(r[3])
                for r in (line.split(",") for line in out.read_text().splitlines()[1:])}
        assert rows[("ece", "equal_width")] == pytest.approx(0.325, abs=1e-12)
        assert rows[("rms_ce", "equal_width")] == pytest.approx(
            math.sqrt(0.10625), abs=1e-12)

    def test_reliability_csv(self, calibration_file, tmp_path):
        rel = tmp_path / "reliability.csv"
        argv = ["calibrate", "--records", calibration_file, "--bins", "2",
                "--out", "-", "--reliability-csv", str(rel)]
        assert main(argv) == 0
        lines = rel.read_text().splitlines()
        assert lines[0] == "lo,hi,count,mean_confidence,accuracy,gap"
        assert len(lines) == 3

    @pytest.mark.parametrize("bins", [2**53 + 1, 10**30], ids=["2**53+1", "1e30"])
    def test_bin_count_beyond_float64_is_usage_error(self, calibration_file, tmp_path,
                                                      capsys, bins):
        """The library refuses m > 2**53; the flag used to pass it and
        fail with exit 1 after the records were read."""
        out = tmp_path / "metrics.csv"
        argv = ["calibrate", "--records", calibration_file, "--out", str(out),
                "--bins", str(bins)]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "argument --bins" in err
        assert not out.exists()

    def test_sce_without_probs_names_missing_field(self, calibration_file, capsys):
        argv = ["calibrate", "--records", calibration_file, "--metrics", "sce"]
        assert main(argv) == 1
        assert "probs" in capsys.readouterr().err

    def test_probs_records_get_class_metrics(self, tmp_path, capsys):
        p = tmp_path / "probs.jsonl"
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(30):
            q = rng.dirichlet(np.ones(3))
            rows.append({"probs": [float(t) for t in q],
                         "label": int(rng.integers(0, 3))})
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["calibrate", "--records", str(p), "--bins", "4"]) == 0
        out = capsys.readouterr().out
        assert "sce" in out and "ace" in out

    @pytest.mark.parametrize("metrics", [",", "", " , "])
    def test_empty_metrics_list_is_an_error(self, calibration_file, tmp_path,
                                            capsys, metrics):
        """An empty list fails like an unknown metric, a usage error before
        any output; both used to exit 1 after the records were read."""
        out = tmp_path / "metrics.csv"

        def run(value):
            argv = ["calibrate", "--records", calibration_file, "--metrics", value,
                    "--out", str(out)]
            return main(argv), capsys.readouterr()

        code_bad, _ = run("ece,nope")
        code, (stdout, err) = run(metrics)
        assert code == code_bad == 2
        assert stdout == "" and "argument --metrics" in err
        assert not out.exists()

    def test_blank_file_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "blank.jsonl"
        p.write_text("\n  \n")
        assert main(["calibrate", "--records", str(p)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == f"error: {p} holds no records\n"

    def test_bad_record_line_reported(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"confidence": 1.2, "correct": true}\n')
        assert main(["calibrate", "--records", str(p)]) == 1
        assert ":1" in capsys.readouterr().err


class TestEntropy:
    def test_zero_rho_rows_equal_log_v(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["entropy", "--d", "4,16", "--v", "8,32", "--rho", "0",
                "--out", str(out)]
        assert main(argv) == 0
        for row in (line.split(",") for line in out.read_text().splitlines()[1:]):
            v = int(row[1])
            assert float(row[6]) == pytest.approx(math.log(v), abs=1e-15)
            assert float(row[7]) == 0.0

    def test_temperature_halves_effective_budget(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["entropy", "--d", "16", "--v", "8", "--rho", "1",
                "--temperature", "2", "--out", str(out)]
        assert main(argv) == 0
        (row,) = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert float(row[5]) == pytest.approx(2.0)  # r = 1*sqrt(16)/2

    def test_verify_passes_on_default_grid(self, tmp_path):
        argv = ["entropy", "--out", str(tmp_path / "s.csv"), "--verify",
                "--restarts", "8", "--iterations", "300"]
        assert main(argv) == 0

    def test_verify_calls_the_oracle_once_per_v(self, tmp_path, monkeypatch):
        """Each v's distinct radii share one oracle call; a radius repeated
        in the grid runs once."""
        real = smoothce.cli.numeric_min_entropy
        calls = []

        def counting(r, v, **kw):
            calls.append((list(r), v))
            return real(r, v, **kw)

        monkeypatch.setattr(smoothce.cli, "numeric_min_entropy", counting)

        def run(d, v, rho):
            calls.clear()
            assert main(["entropy", "--d", d, "--v", v, "--rho", rho, "--verify",
                         "--restarts", "2", "--iterations", "20",
                         "--out", str(tmp_path / "s.csv")]) == 0
            return calls

        assert run("1,4", "8,16", "0,0.5") == [([0.5, 1.0], 8), ([0.5, 1.0], 16)]
        assert run("4,4", "8", "0.5,0.5") == [([1.0], 8)]

    def test_verify_checks_every_radius_against_its_own_value(self, tmp_path,
                                                              monkeypatch):
        """Radii used to be keyed by `round(r, 12)`, so 1e-13 and 4e-13 shared
        one oracle value and the 4e-13 row was checked against 1e-13's."""
        real = smoothce.cli.numeric_min_entropy
        calls = []

        def spy(r, v, **kw):
            calls.append((list(r), v))
            return real(r, v, **kw)

        monkeypatch.setattr(smoothce.cli, "numeric_min_entropy", spy)
        assert main(["entropy", "--d", "1", "--v", "8", "--rho", "1e-13,4e-13,3e-12",
                     "--verify", "--restarts", "2", "--iterations", "20",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert calls == [([1e-13, 4e-13, 3e-12], 8)]

    def test_verify_reports_the_undercut_row(self, tmp_path, monkeypatch, capsys):
        """An oracle value below the floor at the second (r, v) of the grid
        fails the run, naming that r and v."""
        real = smoothce.cli.numeric_min_entropy

        def undercut_at_r2_v8(r, v, **kw):
            values = real(r, v, **kw)
            return [h - 0.5 if (ri, v) == (2.0, 8) else h for ri, h in zip(r, values)]

        monkeypatch.setattr(smoothce.cli, "numeric_min_entropy", undercut_at_r2_v8)
        argv = ["entropy", "--d", "1,4", "--v", "8,16", "--rho", "1", "--verify",
                "--restarts", "2", "--iterations", "20", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "undercuts the closed-form bound" in err
        assert "at r=2.0, v=8" in err

    def test_undercut_keeps_the_table(self, tmp_path, monkeypatch, capsys):
        """An undercut is found after the table is written: its rows are the
        evidence."""
        real = smoothce.cli.numeric_min_entropy
        monkeypatch.setattr(smoothce.cli, "numeric_min_entropy",
                            lambda r, v, **kw: [h - 0.5 for h in real(r, v, **kw)])
        out = tmp_path / "s.csv"
        argv = ["entropy", "--d", "1,4", "--v", "8", "--rho", "1", "--verify",
                "--restarts", "2", "--iterations", "20", "--out", str(out)]
        assert main(argv) == 1
        assert "undercuts" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("to_file", [True, False])
    def test_refused_budget_writes_no_table(self, tmp_path, capsys, to_file):
        """The table used to be written before the oracle refused the
        budget, leaving its header and one row behind."""
        out = tmp_path / "s.csv"
        argv = ["entropy", "--d", "1", "--v", "2", "--rho", "1e300", "--verify"]
        assert main(argv + (["--out", str(out)] if to_file else [])) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: r: ") and err.count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        """An oracle that cannot get its memory ends the run with one error
        line and exit 1, not a traceback."""
        def no_memory(r, v, **kw):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(smoothce.cli, "numeric_min_entropy", no_memory)
        argv = ["entropy", "--v", "100000000000", "--rho", "1", "--verify",
                "--restarts", "1", "--iterations", "1", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 745. GiB for an array\n"

    def test_bad_vocab_rejected(self, tmp_path, capsys):
        """A vocabulary below 2 used to exit 1, refused in the command body."""
        out = tmp_path / "s.csv"
        assert main(["entropy", "--v", "1", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "argument --v" in err
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["nan", "inf", "-inf"])
    def test_non_finite_rho_rejected(self, rho, tmp_path, capsys):
        """NaN and inf budgets used to write NaN rows, and `--verify` then
        passed, since no oracle value compares below NaN; later they
        exited 1, refused in the command body."""
        out = tmp_path / "s.csv"
        argv = ["entropy", "--d", "4", "--v", "4", f"--rho={rho}", "--verify",
                "--out", str(out)]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "argument --rho" in err
        assert not out.exists()

    def test_budget_beyond_the_oracle_is_a_data_error(self, tmp_path, capsys):
        """The oracle used to warn of a division by zero here and pass."""
        argv = ["entropy", "--d", "1", "--v", "2", "--rho", "1e300", "--verify",
                "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: r: ") and err.count("\n") == 1


class TestConfigAndEnv:
    def test_config_file_supplies_flags(self, instance_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.5\nengine = naive\n")
        assert main(loss_args(instance_files) + ["--config", str(cfg)]) == 0
        from_config = total_from(capsys)
        assert main(loss_args(instance_files, beta=0.5, engine="naive")) == 0
        assert from_config == total_from(capsys)

    def test_config_path_object(self, instance_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.5\n")
        assert main(loss_args(instance_files) + ["--config", str(cfg)]) == 0
        want = capsys.readouterr()
        assert main(loss_args(instance_files) + ["--config", cfg]) == 0
        assert capsys.readouterr() == want

    def test_cli_flags_override_config(self, instance_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.5\n")
        assert main(loss_args(instance_files, beta=0.0)
                    + ["--config", str(cfg)]) == 0
        overridden = total_from(capsys)
        assert main(loss_args(instance_files, beta=0.0)) == 0
        assert overridden == total_from(capsys)

    def test_config_boolean_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("skip-naive = true\ndeterministic = true\n")
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n", "32", "--v", "128", "--d", "8", "--betas", "0",
                "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(r[0] == "blocked" for r in rows)

    def test_config_true_is_a_path_for_a_path_flag(self, tmp_path, monkeypatch):
        """`true`/`false` mean a boolean only for a boolean flag: `out=True`
        used to become a bare `--out` and exit 2."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("out=True\nd=1\nv=2\n")
        assert main(["entropy", "--config", "run.cfg"]) == 0
        assert (tmp_path / "True").read_text().startswith("d,v,rho,")

    def test_config_false_is_a_path_for_a_path_flag(self, calibration_file, tmp_path,
                                                    monkeypatch, capsys):
        """`records=false` used to become an unknown `--no-records`."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "false").write_bytes(Path(calibration_file).read_bytes())
        (tmp_path / "run.cfg").write_text("records=false\n")
        assert main(["calibrate", "--config", "run.cfg"]) == 0
        from_config = capsys.readouterr()
        assert main(["calibrate", "--records", calibration_file]) == 0
        assert capsys.readouterr() == from_config

    def test_every_config_file_is_read_in_order(self, tmp_path, monkeypatch, capsys):
        """Only the first `--config` used to be read: a second file holding
        `d=xx` was ignored and the call exited 0."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.cfg").write_text("d=1\nv=2\nrho=0.5\n")
        (tmp_path / "b.cfg").write_text("d=xx\n")
        assert main(["entropy", "--config", "a.cfg", "--config", "b.cfg"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --d: expected a positive integer, got 'xx'" in err
        # a later file overrides an earlier one, and flags override both
        (tmp_path / "b.cfg").write_text("v=16\nrho=2\n")
        assert main(["entropy", "--config", "a.cfg", "--config=b.cfg", "--rho", "0"]) == 0
        assert [line.split(",")[:3] for line in capsys.readouterr().out.splitlines()[1:]] \
            == [["1", "16", "0.0"]]

    @pytest.mark.parametrize("value, verified", [("false", True), ("true", False)])
    def test_negated_boolean_config_key(self, tmp_path, monkeypatch, value, verified):
        """`no-verify=false` means `--verify` and `no-verify=true` means
        `--no-verify`; the first used to become `--no-no-verify` and exit 2."""
        calls = []
        monkeypatch.setattr("smoothce.cli.numeric_min_entropy",
                            lambda radii, *args, **kwargs: calls.append(radii) or
                            [math.inf] * len(radii))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no-verify={value}\nd=1\nv=2\nrho=0.5\n")
        argv = ["entropy", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        assert len(calls) == int(verified)
        calls.clear()
        assert main(argv + ["--no-verify" if verified else "--verify"]) == 0
        assert len(calls) == int(not verified)

    def test_config_key_in_a_config_is_usage_error(self, tmp_path, monkeypatch, capsys):
        """A `config=` line used to be dropped without reading the file it
        names, and the call exited 0."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.cfg").write_text("d=1\nconfig=b.cfg\n")
        (tmp_path / "b.cfg").write_text("d=xx\n")
        assert main(["entropy", "--config", "a.cfg"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage error: a.cfg:2: a config file cannot name another, "
                       "got 'config=b.cfg'\n")

    def test_bad_config_line_is_usage_error(self, instance_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert main(loss_args(instance_files) + ["--config", str(cfg)]) == 2

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        """Such a file used to end in a UnicodeDecodeError traceback."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n=\xff\n")
        assert main(["entropy", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage error: cannot read config {cfg}: ")

    def test_config_path_with_nul_is_usage_error(self, capsys):
        """open() refuses such a path with ValueError, which used to end in
        a traceback."""
        assert main(["entropy", "--config", "run\0.cfg"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: cannot read config ")

    def test_abbreviated_config_flag_is_usage_error(self, calibration_file, tmp_path,
                                                    capsys):
        """argparse would take `--conf` for `--config`, which the config
        expansion finds only by its full name, so the file was ignored."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bins=3\nmetrics=ece\n")
        argv = ["calibrate", "--records", calibration_file]
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("ece,3,")
        assert main(argv + ["--conf", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --conf" in err

    def test_abbreviated_config_key_is_usage_error(self, calibration_file, tmp_path,
                                                   capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bin=3\n")
        assert main(["calibrate", "--records", calibration_file, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --bin=3" in err

    def test_env_thread_fallback(self, instance_files, capsys, monkeypatch):
        monkeypatch.setenv("SCE_THREADS", "2")
        assert main(loss_args(instance_files, beta=0.1)) == 0
        threaded = total_from(capsys)
        monkeypatch.delenv("SCE_THREADS")
        assert main(loss_args(instance_files, beta=0.1)) == 0
        assert threaded == pytest.approx(total_from(capsys), rel=1e-9)

    def test_bad_env_threads_is_usage_error(self, instance_files, monkeypatch):
        monkeypatch.setenv("SCE_THREADS", "many")
        assert main(loss_args(instance_files)) == 2

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_env_threads_below_one_is_usage_error(self, instance_files, value,
                                                  monkeypatch, capsys):
        """Like `--threads`, SCE_THREADS takes positive integers only."""
        monkeypatch.setenv("SCE_THREADS", value)
        assert main(loss_args(instance_files)) == 2
        assert "SCE_THREADS" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["loss", "--beta", "0.1"]) == 2

    def test_engine_flags_only_where_they_act(self, calibration_file, tmp_path):
        """calibrate and entropy run no engine, so they take neither flag."""
        assert main(["calibrate", "--records", calibration_file,
                     "--threads", "2"]) == 2
        assert main(["entropy", "--out", str(tmp_path / "s.csv"),
                     "--no-deterministic"]) == 2

    @pytest.mark.parametrize("sub, flag, what", [
        ("entropy", "--restarts", "a positive integer"),
        ("bench", "--warmups", "a nonnegative integer"),
        ("bench", "--repetitions", "an integer >= 3"),
        ("bench", "--n", "a positive integer"),
    ])
    def test_non_number_names_the_flag_and_its_range(self, capsys, sub, flag, what):
        """A non-number used to get argparse's message naming the parser's
        internal type function."""
        assert main([sub, flag, "x"]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected {what}, got 'x'" in err
        assert "invalid" not in err

    # every range-checked flag of each command, with a non-number (an
    # unknown name for the name lists) and a value out of its range (an
    # empty list; for --seed, which takes any integer, a fraction; for
    # gradcheck's --v also the one-class vocabulary)
    ENGINE = {"--n-block": ("x", "0"), "--v-block": ("x", "-1"), "--threads": ("x", "0")}
    BAD_VALUES = {
        "loss": {"--beta": ("x", "1.5"), **ENGINE},
        "gradcheck": {"--n": ("x", "0"), "--v": ("x", "0", "1"), "--d": ("x", "0"),
                      "--beta": ("x", "-0.1"), "--seed": ("x", "1.5"),
                      "--scale": ("x", "0"), "--h": ("x", "0"),
                      "--tol-analytic": ("x", "-1"), "--tol-fd": ("x", "inf"),
                      "--filter-eps": ("x", "1"), **ENGINE},
        "bench": {"--n": ("x", "0"), "--v": ("x", "0"), "--d": ("x", "0"),
                  "--betas": ("0,x", "0,1.5"), "--phases": ("fwd,nope", ","),
                  "--repetitions": ("x", "2"), "--warmups": ("x", "-1"),
                  "--seed": ("x", "1.5"), "--scale": ("x", "nan"), **ENGINE},
        "calibrate": {"--bins": ("x", "0"), "--metrics": ("ece,nope", ",")},
        "entropy": {"--d": ("x", "0"), "--v": ("x", "1"), "--rho": ("x", "nan"),
                    "--temperature": ("x", "0"), "--softcap": ("x", "-1"),
                    "--restarts": ("x", "0"), "--iterations": ("x", "0"),
                    "--oracle-seed": ("x", "-1")},
    }

    @pytest.mark.parametrize("sub, flag, value", [
        (sub, flag, value) for sub, flags in BAD_VALUES.items()
        for flag, values in flags.items() for value in values])
    def test_bad_value_is_usage_error_before_any_output(
            self, sub, flag, value, instance_files, calibration_file, tmp_path, capsys):
        """Each flag's values are checked as it is parsed, by one message
        form; ten of these used to exit 1 from the command body or the
        library, and `--oracle-seed -1` only after writing its CSV."""
        out = tmp_path / "out.csv"
        argv = {"loss": loss_args(instance_files) + ["--per-token-csv", str(out)],
                "gradcheck": ["gradcheck"],
                "calibrate": ["calibrate", "--records", calibration_file, "--out", str(out)],
                }.get(sub, [sub, "--out", str(out)])
        assert main(argv + [f"{flag}={value}"]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert f"argument {flag}: expected " in err and "invalid" not in err
        assert not out.exists()

    # each engine flag and the plan field it sets
    PLAN_FLAGS = {"--n-block": "n_block", "--v-block": "v_block", "--threads": "workers"}

    def test_engine_flags_map_one_to_one_onto_plan_fields(self):
        """Every plan field has exactly one engine flag, and every engine
        flag sets exactly one plan field."""
        parser = argparse.ArgumentParser(add_help=False)
        smoothce.cli._add_engine(parser)
        flags = [a.option_strings[0] for a in parser._actions]
        assert flags == list(self.PLAN_FLAGS)
        assert [f.name for f in dataclasses.fields(BlockPlan)] == list(self.PLAN_FLAGS.values())
        args = parser.parse_args(["--n-block", "3", "--v-block", "5", "--threads", "2"])
        assert smoothce.cli._make_plan(args, 64, 512, 16) == BlockPlan(3, 5, workers=2)

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize("flag", ["--d", "--v"], ids=["entropy-d", "entropy-v"])
    def test_huge_integer_is_one_error_line(self, flag, tmp_path, capsys):
        """Each of these used to end in an OverflowError traceback. A huge
        `--bins` is refused as it is parsed
        (`test_bin_count_beyond_float64_is_usage_error`)."""
        out = tmp_path / "out.csv"
        assert main(["entropy", "--out", str(out), flag, self.HUGE]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--skip"], ["gradcheck", "--tol-a", "1e-3"],
        ["entropy", "--verif"], ["bench", "--rep", "3"]])
    def test_flag_prefix_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {argv[1]}" in err

    def test_depth_block_flag_is_gone(self):
        assert main(["gradcheck", "--d-block", "4"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


COMMAND_LIST = "{loss,gradcheck,bench,calibrate,entropy}"
CALIBRATE_HELP = """\
usage: smoothce calibrate [-h] --records RECORDS [--bins BINS]
                          [--metrics METRICS] [--ace-empty {skip,zero}]
                          [--out OUT] [--reliability-csv RELIABILITY_CSV]
                          [--reliability-scheme {equal_width,equal_mass}]
                          [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --records RECORDS
  --bins BINS
  --metrics METRICS     comma list from ece,rms_ce,sce,ace (default: all
                        applicable)
  --ace-empty {skip,zero}
  --out OUT
  --reliability-csv RELIABILITY_CSV
  --reliability-scheme {equal_width,equal_mass}
  --config CONFIG       key=value file mirroring every flag
"""


class TestParsers:
    """Each call builds only its command's parser; the command list speaks
    for help, a missing or unknown command and unrecognized arguments."""

    @pytest.mark.parametrize("argv, code, out, err", [
        ([], 2, "", f"usage: smoothce [-h] {COMMAND_LIST} ...\nsmoothce: error: "
                    "the following arguments are required: command\n"),
        (["nope"], 2, "", f"usage: smoothce [-h] {COMMAND_LIST} ...\nsmoothce: error: "
                          "argument command: invalid choice: 'nope' (choose from "
                          "'loss', 'gradcheck', 'bench', 'calibrate', 'entropy')\n"),
        (["gradcheck", "--skip"], 2, "", f"usage: smoothce [-h] {COMMAND_LIST} ...\n"
                                         "smoothce: error: unrecognized arguments: --skip\n"),
        (["calibrate", "--help"], 0, CALIBRATE_HELP, ""),
    ])
    def test_top_level_text(self, argv, code, out, err, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)

    FLAGS = {
        "entropy": ["-h", "--d", "--v", "--rho", "--temperature", "--softcap", "--out",
                    "--verify", "--restarts", "--iterations", "--oracle-seed", "--config"],
        "calibrate": ["-h", "--records", "--bins", "--metrics", "--ace-empty", "--out",
                      "--reliability-csv", "--reliability-scheme", "--config"],
    }

    @pytest.mark.parametrize("sub", FLAGS)
    def test_each_call_adds_only_its_commands_flags(self, sub, calibration_file, tmp_path,
                                                    monkeypatch):
        added = []
        real = argparse.ArgumentParser.add_argument

        def spy(self, *names, **kwargs):
            added.append(names[0])
            return real(self, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
        argv = {"entropy": ["entropy", "--d", "1", "--v", "2"],
                "calibrate": ["calibrate", "--records", calibration_file]}[sub]
        argv += ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == 0
        assert added == self.FLAGS[sub]
        assert main(argv) == 0  # no parser outlives its call
        assert added == self.FLAGS[sub] * 2
