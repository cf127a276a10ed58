"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavyweight entries (2 and 4) stay under their
stated budgets on a single CPU core.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from _util import chunked_loss_grad, grad_rel_err, rel_err
from test_calibration import brute_force_ace, brute_force_sce, columns, probs_record
from smoothce.blocked import (
    aux_bound_bytes,
    blocked_backward,
    blocked_forward,
    loss_and_grad,
)
from smoothce.calibration import (
    ace,
    bin_records,
    ece,
    rms_ce,
    sce,
)
from smoothce.entropy import (
    BoundParams,
    entropy_lower_bound,
    minimizer_vector,
    normalized_gap,
    numeric_min_entropy,
    shannon_entropy,
)
from smoothce.reductions import kl_uniform, logit_distance, softmax
from smoothce.reference import finite_diff_grad, naive_backward, naive_forward
from smoothce.tensors import (
    plan_blocks,
    random_instance,
    save_matrix,
    save_tokens,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(num: int, desc: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {desc}")
        raise
    print(f"[acceptance] criterion {num}: PASS - {desc} "
          f"({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# the 50-instance grid shared by criteria 1, 2, and 5

NS = (1, 7, 64, 512)
VS = (2, 100, 8192)
DS = (1, 32, 256)
BETAS = (0.0, 0.1, 0.5, 1.0)


def build_grid():
    combos = list(itertools.product(NS, VS, DS))
    cases = []
    for i, (n, v, d) in enumerate(combos):
        cases.append((1000 + i, n, v, d, BETAS[i % 4]))
    for j, (n, v, d) in enumerate(combos[:50 - len(combos)]):
        cases.append((2000 + j, n, v, d, BETAS[(j + 2) % 4]))
    assert len(cases) == 50
    return cases


@pytest.fixture(scope="module")
def grid_runs():
    """Instance, naive forward, blocked forward (and its plan) per case,
    plus the wall time the 100 forward passes took."""
    runs = []
    start = time.time()
    for seed, n, v, d, beta in build_grid():
        e, c, x = random_instance(seed, n, v, d, 0.5)
        plan = plan_blocks(n, v, d)
        want = naive_forward(e, c, x, beta)
        got, stats = blocked_forward(e, c, x, beta, plan)
        runs.append((seed, n, v, d, beta, e, c, x, plan, want, got))
    return runs, time.time() - start


def test_criterion_1_forward_oracle_equivalence(grid_runs):
    with criterion(1, "blocked forward matches the naive oracle to 1e-9 "
                      "relative on 50 seeded instances"):
        runs, forward_seconds = grid_runs
        start = time.time()
        for seed, n, v, d, beta, e, c, x, plan, want, got in runs:
            np.testing.assert_allclose(
                got.per_token_loss, want.per_token_loss, rtol=1e-9, atol=1e-12,
                err_msg=f"instance seed={seed} ({n},{v},{d}) beta={beta}")
            np.testing.assert_allclose(got.lse, want.lse, rtol=1e-9)
        assert forward_seconds + time.time() - start < 60.0


def test_criterion_2_backward_oracle_equivalence(grid_runs):
    with criterion(2, "unfiltered blocked backward matches analytic to 1e-9; "
                      "analytic matches central differences to 1e-4"):
        runs, _ = grid_runs
        start = time.time()
        for seed, n, v, d, beta, e, c, x, plan, want, got in runs:
            analytic = naive_backward(e, c, x, beta)
            blocked, stats = blocked_backward(e, c, x, beta, plan, got.lse)
            assert grad_rel_err(blocked, analytic) <= 1e-9, \
                f"instance seed={seed} ({n},{v},{d}) beta={beta}"
            assert stats.tiles_skipped_by_filter == 0
            if n <= 8 and v <= 100 and d <= 32:
                fd = finite_diff_grad(e, c, x, beta, h=1e-3)
                assert grad_rel_err(analytic, fd) <= 1e-4, \
                    f"fd mismatch seed={seed} ({n},{v},{d}) beta={beta}"
        assert time.time() - start < 300.0


def test_criterion_3_filtered_backward():
    with criterion(3, "filtered backward skips tiles at eps=2^-12 within "
                      "1e-3 error; eps=0 skips nothing"):
        e, c, x = random_instance(42, n=256, v=8192, d=64, scale=1.5)
        plan = plan_blocks(256, 8192, 64, n_block=16, v_block=128)
        out, _ = blocked_forward(e, c, x, 0.1, plan)
        analytic = naive_backward(e, c, x, 0.1)

        filtered, fstats = blocked_backward(
            e, c, x, 0.1, plan, out.lse,
            filter_epsilon=2.0 ** -12)
        assert fstats.tiles_skipped_by_filter > 0
        assert grad_rel_err(filtered, analytic) <= 1e-3

        exact, estats = blocked_backward(
            e, c, x, 0.1, plan, out.lse,
            filter_epsilon=0.0)
        assert estats.tiles_skipped_by_filter == 0
        assert grad_rel_err(exact, analytic) <= 1e-9


def test_criterion_4_memory_ceiling():
    with criterion(4, "blocked peak auxiliary < 16 MiB at (4096, 65536, 128) "
                      "vs a >= 2 GiB naive logit buffer; beta peaks equal"):
        n, v, d = 4096, 65536, 128
        e, c, x = random_instance(4, n, v, d, scale=0.02)
        plan = plan_blocks(n, v, d)

        out0, s0 = blocked_forward(e, c, x, 0.0, plan)
        out1, s1 = blocked_forward(e, c, x, 0.1, plan)
        _, sb = blocked_backward(e, c, x, 0.1, plan, out1.lse)

        ceiling = 16 * 1024 * 1024
        for stats in (s0, s1, sb):
            assert 0 < stats.peak_auxiliary_bytes < ceiling
            assert stats.peak_auxiliary_bytes <= aux_bound_bytes(plan, n, v, d)
        assert abs(s0.peak_auxiliary_bytes - s1.peak_auxiliary_bytes) <= \
            0.01 * max(s0.peak_auxiliary_bytes, s1.peak_auxiliary_bytes)

        naive_logit_bytes = n * v * 8  # asserted analytically, never allocated
        assert naive_logit_bytes >= 2 * 1024 ** 3
        worst_blocked = max(st.peak_auxiliary_bytes for st in (s0, s1, sb))
        assert naive_logit_bytes / worst_blocked >= 100.0


def test_results_at_the_memory_ceiling_shape():
    """Criterion 4's shape, where the naive engine cannot run: loss_and_grad
    on the default plan agrees with an independent chunked reference."""
    n, v, d = 4096, 65536, 128
    e, c, x = random_instance(4, n, v, d, scale=0.02)
    out, grads, _ = loss_and_grad(e, c, x, 0.1, plan_blocks(n, v, d))
    want = chunked_loss_grad(e.data, c.data, x.targets, 0.1)
    got = (out.lse, out.o, grads.grad_e.data, grads.grad_c.data)
    for name, g, w in zip(("lse", "o", "grad_e", "grad_c"), got, want):
        assert rel_err(g, w) <= 1e-9, name


def test_criterion_5_smoothing_decomposition(grid_runs):
    with criterion(5, "smoothed loss decomposes as (1-b)*plain + b*uniform; "
                      "uniform loss equals KL-to-uniform + log|V|"):
        runs, _ = grid_runs
        for seed, n, v, d, beta, e, c, x, plan, want, got in runs:
            plain = naive_forward(e, c, x, 0.0).per_token_loss
            uniform = naive_forward(e, c, x, 1.0).per_token_loss
            np.testing.assert_allclose(
                want.per_token_loss, (1 - beta) * plain + beta * uniform,
                atol=1e-10,
                err_msg=f"decomposition seed={seed} ({n},{v},{d}) beta={beta}")
            if n * v <= 200_000:
                z = c.data.T @ e.data
                for i in range(n):
                    kl = kl_uniform(softmax(z[:, i]))
                    assert uniform[i] == pytest.approx(
                        kl + math.log(v), abs=1e-9), \
                        f"kl identity seed={seed} token={i}"


def test_criterion_6_sandwich_inequality():
    with criterion(6, "KL <= mean logit distance <= KL + log K on 1e4 "
                      "vectors per K (display's sign typo corrected)"):
        start = time.time()
        rng = np.random.default_rng(66)
        for k in (2, 10, 1000):
            z = rng.standard_normal((10_000, k)) * rng.uniform(
                0.2, 8.0, size=(10_000, 1))
            m = z.max(axis=1)
            lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
            kl = lse - z.mean(axis=1) - math.log(k)
            mean_d = m - z.mean(axis=1)
            assert (kl <= mean_d + 1e-9).all()
            assert (mean_d <= kl + math.log(k) + 1e-9).all()
            # the vectorized quantities agree with the library functions
            for i, row in enumerate(z[:50]):
                assert kl_uniform(softmax(row)) == pytest.approx(kl[i], abs=1e-10)
                assert float(logit_distance(row).mean()) == pytest.approx(
                    mean_d[i], abs=1e-10)
        assert time.time() - start < 10.0


def test_criterion_7_entropy_bound():
    with criterion(7, "closed-form floor equals the minimizer's entropy; the "
                      "projected-gradient oracle never undercuts it"):
        start = time.time()
        for d in (1, 16, 256):
            for v in (2, 64, 1024):
                for rho in (0.1, 0.5, 2.0):
                    p = BoundParams(rho, 1.0, d, v)
                    h = shannon_entropy(softmax(minimizer_vector(p)))
                    assert abs(h - entropy_lower_bound(p)) <= 1e-9

        radii = (0.5, 2.0, 8.0)
        for v in (8, 64, 1024):
            for r, numeric in zip(radii, numeric_min_entropy(radii, v)):
                bound = entropy_lower_bound(BoundParams.from_budget(r, v))
                assert numeric >= bound - 1e-6, f"v={v} r={r}"

        for v in (2, 64, 1024):
            assert entropy_lower_bound(
                BoundParams(0.0, 1.0, 8, v)) == math.log(v)

        gaps_v = [normalized_gap(BoundParams(0.5, 1.0, 64, v))
                  for v in (4, 32, 256, 2048)]
        assert all(a > b for a, b in zip(gaps_v, gaps_v[1:]))
        gaps_d = [normalized_gap(BoundParams(0.5, 1.0, d, 128))
                  for d in (1, 8, 64, 512)]
        assert all(a < b for a, b in zip(gaps_d, gaps_d[1:]))
        assert time.time() - start < 120.0


def test_criterion_8_norm_bound_sampling():
    with criterion(8, "1e3 sampled (C, h) pairs within budget never exceed "
                      "sigma_c * sigma_h * sqrt(D)"):
        rng = np.random.default_rng(88)
        for _ in range(1000):
            d = int(rng.integers(1, 65))
            v = int(rng.integers(2, 257))
            sigma_c = float(rng.uniform(0.1, 4.0))
            sigma_h = float(rng.uniform(0.1, 4.0))
            g = rng.standard_normal((d, v))
            top = np.linalg.svd(g, compute_uv=False)[0]
            c = g * (sigma_c / top)
            h = rng.uniform(-sigma_h, sigma_h, size=d)
            assert np.linalg.norm(c.T @ h) <= \
                sigma_c * sigma_h * math.sqrt(d) * (1 + 1e-12)


def test_criterion_9_calibration_metrics():
    with criterion(9, "hand fixture ECE/RMS exact; calibrated synthetic ECE "
                      "< 0.02; SCE/ACE match brute force to 1e-12"):
        bins = bin_records(np.array([0.9, 0.8, 0.3, 0.1]),
                           np.array([True, False, True, False]), 2, "equal_width")
        assert abs(ece(bins) - 0.325) <= 1e-12
        assert abs(rms_ce(bins) - math.sqrt(0.10625)) <= 1e-12

        rng = np.random.default_rng(99)
        conf = rng.uniform(0.0, 1.0, size=10_000)
        correct = rng.uniform(0.0, 1.0, size=10_000) < conf
        assert ece(bin_records(conf, correct, 10)) < 0.02

        for n, k, m, seed in ((40, 3, 4, 0), (100, 5, 4, 1), (64, 2, 3, 2)):
            r2 = np.random.default_rng(seed)
            records = []
            for _ in range(n):
                q = r2.dirichlet(np.ones(k))
                records.append(probs_record([float(t) for t in q],
                                            int(r2.integers(0, k))))
            probs, labels = columns(records)
            assert abs(sce(probs, labels, m) - brute_force_sce(records, m)) <= 1e-12
            assert abs(ace(probs, labels, m) - brute_force_ace(records, m)) <= 1e-12


def run_cli(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "smoothce", *argv],
        capture_output=True, cwd=cwd, env=env, timeout=300)
    return proc


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "every CLI command is byte-identical across reruns; "
                       "results invariant to tiling"):
        e, c, x = random_instance(7, n=24, v=96, d=8, scale=0.5)
        pe, pc, px = (tmp_path / s for s in ("E.sce1", "C.sce1", "x.sce1"))
        save_matrix(e, pe)
        save_matrix(c, pc)
        save_tokens(x, px)
        records = tmp_path / "records.jsonl"
        records.write_text("\n".join(json.dumps(r) for r in (
            {"confidence": 0.9, "correct": True},
            {"confidence": 0.8, "correct": False},
            {"probs": [0.3, 0.7], "label": 1},
            {"probs": [0.6, 0.4], "label": 0},
        )) + "\n")

        commands = {
            "loss": ["loss", "--embeddings", str(pe), "--classifier", str(pc),
                     "--targets", str(px), "--beta", "0.1",
                     "--per-token-csv", "OUT"],
            "gradcheck": ["gradcheck", "--n", "6", "--v", "32", "--d", "4"],
            "bench": ["bench", "--n", "32", "--v", "128", "--d", "8",
                      "--betas", "0,0.1", "--out", "OUT"],
            "calibrate": ["calibrate", "--records", str(records), "--bins", "4",
                          "--out", "OUT"],
            "entropy": ["entropy", "--d", "4,16", "--v", "8,64",
                        "--rho", "0,0.5", "--verify", "--restarts", "4",
                        "--iterations", "100", "--out", "OUT"],
        }
        for name, argv in commands.items():
            outputs = []
            for attempt in range(2):
                out_file = tmp_path / f"{name}_{attempt}.csv"
                concrete = [tok if tok != "OUT" else str(out_file)
                            for tok in argv]
                proc = run_cli(concrete, cwd=tmp_path)
                assert proc.returncode == 0, f"{name}: {proc.stderr.decode()}"
                payload = proc.stdout
                if "OUT" in argv:
                    payload += out_file.read_bytes()
                outputs.append(payload)
            assert outputs[0] == outputs[1], f"{name} output differs across runs"

        # tiling invariance
        e, c, x = random_instance(11, n=64, v=512, d=32, scale=0.5)
        want = naive_forward(e, c, x, 0.3)
        plans = [
            plan_blocks(64, 512, 32),
            plan_blocks(64, 512, 32, n_block=16, v_block=64),
            plan_blocks(64, 512, 32, n_block=7, v_block=100),
            plan_blocks(64, 512, 32, n_block=64, v_block=512),
        ]
        for plan in plans:
            got, _ = blocked_forward(e, c, x, 0.3, plan)
            np.testing.assert_allclose(
                got.per_token_loss, want.per_token_loss, rtol=1e-9)
