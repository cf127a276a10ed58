"""Blocked engine against the naive oracle: tiling equivalence, gradient
filtering, memory instrumentation, and determinism."""

import gc
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothce.blocked
import smoothce.reference
from _util import (conditioned_scales, grad_rel_err, recording_blas_calls, rel_err,
                   tile_threads)
from smoothce.blocked import (
    aux_bound_bytes,
    blocked_backward,
    blocked_forward,
    loss_and_grad,
)
from smoothce.memtrack import TrackingAllocator
from smoothce.reference import Gradients, finite_diff_grad, naive_backward, naive_forward
from smoothce.tensors import (
    BlockPlan,
    DenseMatrix,
    InvalidPlanError,
    TokenSequence,
    plan_blocks,
    random_instance,
)


def untracked_bytes(e, c, x, beta, plan):
    """(tracemalloc peak of one loss_and_grad beyond its outputs minus the
    reported peak, the reported peak)."""
    loss_and_grad(e, c, x, beta, plan)  # warm numpy internals
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out, g, stats = loss_and_grad(e, c, x, beta, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = (out.lse.nbytes + out.o.nbytes + out.per_token_loss.nbytes
               + g.grad_e.data.nbytes + g.grad_c.data.nbytes)
    return peak - base - outputs - stats.peak_auxiliary_bytes, stats.peak_auxiliary_bytes


@pytest.fixture(scope="module")
def medium():
    e, c, x = random_instance(7, n=64, v=512, d=32, scale=0.5)
    fwd = {b: naive_forward(e, c, x, b) for b in (0.0, 0.1, 0.5, 1.0)}
    bwd = {b: naive_backward(e, c, x, b) for b in (0.0, 0.1, 0.5, 1.0)}
    return e, c, x, fwd, bwd


class TestForward:
    def test_single_tile_is_degenerate_tiling(self, medium):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=64, v_block=512)
        out, stats = blocked_forward(e, c, x, 0.1, plan)
        assert stats.tiles_processed == 1
        np.testing.assert_allclose(
            out.per_token_loss, fwd[0.1].per_token_loss, rtol=1e-12, atol=1e-12)

    def test_spec_tile_sizes_match_oracle(self, medium):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        out, stats = blocked_forward(e, c, x, 0.1, plan)
        np.testing.assert_allclose(
            out.per_token_loss, fwd[0.1].per_token_loss, rtol=1e-9)
        assert stats.tiles_processed == 4 * 8

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.5, 1.0])
    def test_all_betas_match_oracle(self, medium, beta):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=48, v_block=100)
        out, _ = blocked_forward(e, c, x, beta, plan)
        np.testing.assert_allclose(out.lse, fwd[beta].lse, rtol=1e-9)
        np.testing.assert_allclose(out.o, fwd[beta].o, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            out.per_token_loss, fwd[beta].per_token_loss, rtol=1e-9, atol=1e-12)

    def test_beta_zero_skips_smoothing_and_matches(self, medium):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=128)
        out, _ = blocked_forward(e, c, x, 0.0, plan)
        np.testing.assert_allclose(out.o, fwd[0.0].o, rtol=1e-12)
        np.testing.assert_allclose(
            out.per_token_loss, fwd[0.0].per_token_loss, rtol=1e-12, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        nb=st.integers(1, 14),
        vb=st.integers(1, 40),
    )
    def test_any_tiling_matches(self, nb, vb):
        e, c, x = random_instance(13, n=12, v=33, d=7, scale=0.6)
        want = naive_forward(e, c, x, 0.5)
        plan = plan_blocks(12, 33, 7, n_block=nb, v_block=vb)
        out, _ = blocked_forward(e, c, x, 0.5, plan)
        np.testing.assert_allclose(
            out.per_token_loss, want.per_token_loss, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("top_block", [0, 7], ids=["top_in_first_block",
                                                       "top_in_last_block"])
    def test_huge_logits_do_not_overflow(self, top_block):
        """Logits past +-709, where an unshifted exp overflows, merged
        online across 8 vocabulary blocks stay finite and match naive.
        Every token's largest logit, beyond 800, lies in one block and the
        rest trail it by more than 745, where exp underflows to 0: in the
        first block every later tile adds exactly 0 to the running sum; in
        the last block the rescale factor exp(M - m) is exactly 0. The
        tokens' largest logits also differ by more than 745, so a shift by
        one scalar max per tile would underflow whole tokens."""
        rng = np.random.default_rng(11)
        e = rng.standard_normal((4, 16))
        e[0] = 1.0 + np.arange(16) % 2  # row 0 of C shifts whole rows of z
        c = rng.standard_normal((4, 64))
        c *= 800.0 / np.abs(c.T @ e).max()
        z = c.T @ e
        assert z.max() > 709 and z.min() < -709
        top = slice(8 * top_block, 8 * top_block + 8)
        c[0, top] += 2500.0
        z = c.T @ e
        rest = np.delete(z, np.arange(64)[top], axis=0)
        assert (z[top].max(axis=0) > 800).all() and np.ptp(z[top].max(axis=0)) > 745
        assert (np.exp(rest.max(axis=0) - z[top].max(axis=0)) == 0.0).all()
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.exp(z)).all()
        e, c = DenseMatrix.from_array(e), DenseMatrix.from_array(c)
        x = TokenSequence(rng.integers(0, 64, size=16))
        want = naive_forward(e, c, x, 0.1)
        plan = plan_blocks(16, 64, 4, n_block=8, v_block=8)
        out, stats = blocked_forward(e, c, x, 0.1, replace(plan, workers=1))
        assert stats.tiles_processed == 2 * 8
        assert np.isfinite(out.lse).all() and np.isfinite(out.per_token_loss).all()
        np.testing.assert_allclose(out.lse, want.lse, rtol=1e-9)
        np.testing.assert_allclose(out.per_token_loss, want.per_token_loss, rtol=1e-9)
        par, _ = blocked_forward(e, c, x, 0.1, replace(plan, workers=3))
        assert np.array_equal(par.lse, out.lse)
        assert np.array_equal(par.per_token_loss, out.per_token_loss)

    def test_deterministic_mode_is_bit_reproducible(self, medium):
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        a, _ = blocked_forward(e, c, x, 0.3, plan)
        b, _ = blocked_forward(e, c, x, 0.3, plan)
        assert np.array_equal(a.per_token_loss, b.per_token_loss)
        assert a.total == b.total

    def test_parallel_mode_agrees(self, medium):
        """Worker-owned token blocks: three workers give the one-worker
        result bit for bit."""
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        det, _ = blocked_forward(e, c, x, 0.1, replace(plan, workers=1))
        out, stats = blocked_forward(e, c, x, 0.1, replace(plan, workers=3))
        assert stats.tiles_in_flight == 3
        assert np.array_equal(out.per_token_loss, det.per_token_loss)
        assert np.array_equal(out.lse, det.lse)

    def test_reduction_mean(self, medium):
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32)
        out, _ = blocked_forward(e, c, x, 0.1, plan, reduction="mean")
        assert out.total == pytest.approx(out.per_token_loss.mean())

    def test_invalid_plan_rejected(self, medium):
        e, c, x, _, _ = medium
        with pytest.raises(InvalidPlanError):
            blocked_forward(e, c, x, 0.1, BlockPlan(0, 4))


class TestBackward:
    def test_single_tile_beta_zero(self, medium):
        e, c, x, fwd, bwd = medium
        plan = plan_blocks(64, 512, 32, n_block=64, v_block=512)
        g, _ = blocked_backward(e, c, x, 0.0, plan, fwd[0.0].lse)
        assert grad_rel_err(g, bwd[0.0]) <= 1e-12

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.5, 1.0])
    def test_unfiltered_matches_oracle(self, medium, beta):
        e, c, x, fwd, bwd = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        g, stats = blocked_backward(e, c, x, beta, plan, fwd[beta].lse)
        assert grad_rel_err(g, bwd[beta]) <= 1e-9
        assert stats.tiles_skipped_by_filter == 0

    def test_uniform_probabilities_stay_structured(self):
        """Zero embeddings with half smoothing: the three gradient parts
        recombine into the exact oracle gradient."""
        e = DenseMatrix.from_array(np.zeros((4, 6)))
        c = DenseMatrix.from_array(
            np.random.default_rng(2).standard_normal((4, 10)))
        x = TokenSequence(np.array([0, 9, 3, 3, 7, 1]))
        plan = plan_blocks(6, 10, 4, n_block=2, v_block=3)
        out, _ = blocked_forward(e, c, x, 0.5, plan)
        g, _ = blocked_backward(e, c, x, 0.5, plan, out.lse)
        want = naive_backward(e, c, x, 0.5)
        np.testing.assert_allclose(g.grad_e.data, want.grad_e.data, atol=1e-12)
        np.testing.assert_allclose(g.grad_c.data, want.grad_c.data, atol=1e-12)

    def test_upstream_and_mean_reduction(self, medium):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=32, v_block=256)
        want = naive_backward(e, c, x, 0.2, reduction="mean", upstream=2.5)
        g, _ = blocked_backward(e, c, x, 0.2, plan, fwd_lse(e, c, x, 0.2, plan),
                                upstream=2.5, reduction="mean")
        assert grad_rel_err(g, want) <= 1e-9

    def test_lse_length_checked(self, medium):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32)
        with pytest.raises(ValueError):
            blocked_backward(e, c, x, 0.1, plan, fwd[0.1].lse[:10])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_lse_must_be_finite(self, medium, bad):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32)
        lse = fwd[0.1].lse.copy()
        lse[5] = bad
        with pytest.raises(ValueError, match="lse"):
            blocked_backward(e, c, x, 0.1, plan, lse)

    def test_epsilon_range_checked(self, medium):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32)
        with pytest.raises(ValueError):
            blocked_backward(e, c, x, 0.1, plan, fwd[0.1].lse,
                             filter_epsilon=1.0)

    def test_parallel_mode_agrees(self, medium):
        e, c, x, fwd, bwd = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        det, _ = blocked_backward(e, c, x, 0.1, replace(plan, workers=1), fwd[0.1].lse)
        g, _ = blocked_backward(e, c, x, 0.1, replace(plan, workers=3), fwd[0.1].lse)
        assert np.array_equal(g.grad_e.data, det.grad_e.data)
        assert np.array_equal(g.grad_c.data, det.grad_c.data)
        assert grad_rel_err(g, bwd[0.1]) <= 1e-9


def fwd_lse(e, c, x, beta, plan):
    out, _ = blocked_forward(e, c, x, beta, plan)
    return out.lse


@pytest.fixture(scope="module")
def concentrated():
    """Sharply peaked softmax columns so that probability mass avoids most
    vocabulary blocks entirely."""
    e, c, x = random_instance(42, n=64, v=2048, d=32, scale=1.5)
    plan = plan_blocks(64, 2048, 32, n_block=8, v_block=64)
    out, _ = blocked_forward(e, c, x, 0.1, plan)
    want = naive_backward(e, c, x, 0.1)
    return e, c, x, plan, out.lse, want


class TestFiltering:
    def test_epsilon_zero_never_skips(self, concentrated):
        e, c, x, plan, lse, want = concentrated
        g, stats = blocked_backward(
            e, c, x, 0.1, plan, lse,
            filter_epsilon=0.0)
        assert stats.tiles_skipped_by_filter == 0
        assert grad_rel_err(g, want) <= 1e-9

    def test_default_epsilon_skips_and_stays_accurate(self, concentrated):
        e, c, x, plan, lse, want = concentrated
        g, stats = blocked_backward(
            e, c, x, 0.1, plan, lse,
            filter_epsilon=2.0 ** -12)
        assert stats.tiles_skipped_by_filter > 0
        assert grad_rel_err(g, want) <= 1e-3

    def test_skips_monotone_in_epsilon(self, concentrated):
        e, c, x, plan, lse, _ = concentrated
        skips = []
        for eps in (0.0, 2.0 ** -16, 2.0 ** -12, 2.0 ** -8, 0.5):
            _, stats = blocked_backward(
                e, c, x, 0.1, plan, lse,
                filter_epsilon=eps)
            skips.append(stats.tiles_skipped_by_filter)
        assert skips == sorted(skips)
        assert skips[0] == 0

    def test_disabled_filter_ignores_epsilon(self, concentrated):
        """The default `filter_epsilon` is 0: nothing is filtered unless
        asked for, by both entry points."""
        e, c, x, plan, lse, want = concentrated
        g, stats = blocked_backward(e, c, x, 0.1, plan, lse)
        assert stats.tiles_skipped_by_filter == 0
        assert grad_rel_err(g, want) <= 1e-9
        _, g, stats = loss_and_grad(e, c, x, 0.1, plan)
        assert stats.tiles_skipped_by_filter == 0
        assert grad_rel_err(g, want) <= 1e-9

    @pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
    def test_every_tile_skipped_leaves_the_exact_target_part(self, beta):
        """Near-uniform columns (p ~ 2^-13) put every tile under 2^-12, so
        only the target part remains: grad_e = C A and grad_c = E A^T with
        A[v, i] = -w_i ((1-beta) [v == x_i] + beta/|V|)."""
        n, v, d = 64, 8192, 16
        e, c, x = random_instance(5, n=n, v=v, d=d, scale=0.02)
        plan = plan_blocks(n, v, d, n_block=16, v_block=512)
        out, _ = blocked_forward(e, c, x, beta, plan, reduction="mean")
        g, stats = blocked_backward(e, c, x, beta, plan, out.lse, upstream=2.0,
                                    filter_epsilon=2.0 ** -12, reduction="mean")
        assert (stats.tiles_processed, stats.tiles_skipped_by_filter) == (0, 64)
        w = 2.0 / n
        a = np.full((v, n), -w * beta / v)
        a[x.targets, np.arange(n)] -= w * (1.0 - beta)
        assert rel_err(g.grad_e.data, c.data @ a) <= 1e-12
        assert rel_err(g.grad_c.data, e.data @ a.T) <= 1e-12


class TestMemory:
    def test_peak_under_analytic_ceiling(self, medium):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        bound = aux_bound_bytes(plan, 64, 512, 32)
        _, stats = blocked_forward(e, c, x, 0.1, plan)
        assert 0 < stats.peak_auxiliary_bytes <= bound
        g, bstats = blocked_backward(e, c, x, 0.1, plan, fwd[0.1].lse)
        assert 0 < bstats.peak_auxiliary_bytes <= bound

    def test_no_logit_matrix_scale_allocation(self):
        """Auxiliary peak stays tile-sized while the logit matrix would be
        three orders of magnitude larger."""
        e, c, x = random_instance(5, n=256, v=8192, d=64, scale=0.5)
        plan = plan_blocks(256, 8192, 64)
        _, stats = blocked_forward(e, c, x, 0.1, plan)
        logit_bytes = 256 * 8192 * 8
        assert stats.peak_auxiliary_bytes < logit_bytes / 8
        assert stats.peak_auxiliary_bytes <= aux_bound_bytes(plan, 256, 8192, 64)

    def test_tracemalloc_cross_check(self):
        """The instrumented number is honest: total allocations observed by
        tracemalloc stay within the analytic ceiling plus small slack."""
        e, c, x = random_instance(6, n=128, v=2048, d=64, scale=0.5)
        plan = plan_blocks(128, 2048, 64)
        blocked_forward(e, c, x, 0.1, plan)  # warm numpy internals
        tracemalloc.start()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        blocked_forward(e, c, x, 0.1, plan)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        observed = peak - base
        # outputs (4 length-n vectors) are counted by tracemalloc but are
        # not auxiliary; allow them plus 64 KiB of interpreter noise
        ceiling = aux_bound_bytes(plan, 128, 2048, 64) + 4 * 128 * 8 + 65536
        assert observed <= ceiling

    def test_pool_peak_under_worker_scaled_ceiling(self, medium):
        """Each worker holds one tile's working set, so the ceiling scales
        with the worker count."""
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        bound = aux_bound_bytes(replace(plan, workers=3), 64, 512, 32)
        assert bound > aux_bound_bytes(replace(plan, workers=1), 64, 512, 32)
        _, stats = blocked_forward(e, c, x, 0.1, replace(plan, workers=3))
        assert 0 < stats.peak_auxiliary_bytes <= bound
        _, bstats = blocked_backward(e, c, x, 0.1, replace(plan, workers=3), fwd[0.1].lse)
        assert 0 < bstats.peak_auxiliary_bytes <= bound

    def test_plan_worker_count_sets_the_ceiling(self):
        """The plan is the one place a call's worker count is set: a plan
        made for one worker runs on one, under its one-worker ceiling."""
        e, c, x = random_instance(13, n=512, v=4096, d=16, scale=0.5)
        plan = plan_blocks(512, 4096, 16, workers=1)
        _, _, stats = loss_and_grad(e, c, x, 0.1, plan)
        assert stats.tiles_in_flight == 1
        bound = aux_bound_bytes(plan, 512, 4096, 16)
        assert bound == 525_312
        assert stats.peak_auxiliary_bytes <= bound

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_untracked_bytes_do_not_scale_with_vocab(self, beta):
        """What tracemalloc sees beyond the outputs and the reported peak
        stays flat while |V| grows fourfold."""
        def untracked(v):
            e, c, x = random_instance(9, n=128, v=v, d=64, scale=0.5)
            return untracked_bytes(e, c, x, beta, plan_blocks(128, v, 64))[0]

        assert untracked(32768) - untracked(8192) < 64 * 1024

    def test_untracked_bytes_stay_under_half_the_reported_peak(self):
        """The backward's products go straight into the gradients, so no add
        needs a full-tile ufunc buffer and the untracked bytes stay well
        under what the allocator reports."""
        e, c, x = random_instance(9, n=512, v=8192, d=64, scale=0.5)
        untracked, reported = untracked_bytes(e, c, x, 0.1, plan_blocks(512, 8192, 64))
        assert untracked < 0.5 * reported

    @pytest.mark.parametrize("n, v, d, blocks", [
        (64, 512, 32, (16, 64, 8)),
        (64, 512, 32, (48, 100, 13)),
        (512, 8192, 64, (None, None, None)),
    ])
    def test_deterministic_bound_is_tight(self, n, v, d, blocks):
        """The serial ceiling is the reported peak: the one buffer of a
        full token block, on either BLAS path (without the accumulating
        kernel the staged chunk shares its words with the merge row)."""
        e, c, x = random_instance(11, n=n, v=v, d=d, scale=0.5)
        plan = plan_blocks(n, v, d, *blocks)
        _, _, stats = loss_and_grad(e, c, x, 0.1, replace(plan, workers=1))
        bound = aux_bound_bytes(replace(plan, workers=1), n, v, d)
        assert stats.peak_auxiliary_bytes == bound

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_peak_within_tiles_in_flight(self, medium, workers):
        """The reported in-flight count is one tile per worker, and the peak
        stays within that many tile working sets."""
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        _, _, stats = loss_and_grad(e, c, x, 0.1, replace(plan, workers=workers))
        assert stats.tiles_in_flight == workers
        ceiling = stats.tiles_in_flight * 8 * plan.n_block * (plan.v_block + 1)
        assert 0 < stats.peak_auxiliary_bytes <= ceiling
        assert ceiling == aux_bound_bytes(replace(plan, workers=workers), 64, 512, 32)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("path", ["kernel", "staged"])
    def test_one_tracked_buffer_per_worker_per_call(self, monkeypatch, medium, path, workers):
        """A call takes one tracked buffer per worker, all on the calling
        thread, in worker order, from one allocator, each sized for that
        worker's first token block. At N_B 48 the forward's and
        `loss_and_grad`'s hold N_B (V_B + 1) floats and `blocked_backward`'s
        V_B x N_B on the kernel path; without it both hold the tile and a
        staged D x max(N_B, V_B) chunk. Worker 1's first block is the short
        one, 16 of 64 tokens; a third worker has no block and no buffer."""
        blas_path(monkeypatch, path)
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=48, v_block=100, workers=workers)
        taken = []

        class Counting(TrackingAllocator):
            def empty(self, shape, order="F"):
                arr = super().empty(shape, order)
                taken.append((threading.current_thread().name, id(self), arr.size))
                return arr

        monkeypatch.setattr(smoothce.blocked, "TrackingAllocator", Counting)
        forward, backward = {"kernel": ([48 * 101, 16 * 101], [100 * 48, 100 * 16]),
                             "staged": ([4800 + 3200, 1600 + 3200],) * 2}[path]
        for call, want in ((lambda: blocked_forward(e, c, x, 0.1, plan), forward),
                           (lambda: blocked_backward(e, c, x, 0.1, plan, fwd[0.1].lse),
                            backward),
                           (lambda: loss_and_grad(e, c, x, 0.1, plan), forward)):
            taken.clear()
            stats = call()[-1]
            assert len(taken) == stats.tiles_in_flight == min(workers, 2)
            assert {name for name, _, _ in taken} == {"MainThread"}
            assert len({alloc for _, alloc, _ in taken}) == 1
            assert [size for *_, size in taken] == want[:len(taken)]
            assert stats.peak_auxiliary_bytes == 8 * sum(want[:len(taken)])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("path", ["kernel", "staged"])
    @pytest.mark.parametrize("n, v, d, n_block, v_block", [
        (64, 512, 32, 16, 100),
        (8, 6, 300, 2, 4),
    ])
    def test_peak_is_the_bound_at_full_first_blocks(self, monkeypatch, path, workers,
                                                    n, v, d, n_block, v_block):
        """When every worker's first token block is full, the forward's and
        `loss_and_grad`'s peak is `aux_bound_bytes` exactly, on either BLAS
        path: one full block's buffer per worker, held at once. The second
        shape is deep and narrow, so one D-vector sets the buffer."""
        blas_path(monkeypatch, path)
        e, c, x = random_instance(14, n=n, v=v, d=d, scale=0.5)
        plan = plan_blocks(n, v, d, n_block=n_block, v_block=v_block, workers=workers)
        bound = aux_bound_bytes(plan, n, v, d)
        _, fstats = run_bounded(lambda: blocked_forward(e, c, x, 0.1, plan))
        _, _, stats = run_bounded(lambda: loss_and_grad(e, c, x, 0.1, plan))
        assert fstats.peak_auxiliary_bytes == stats.peak_auxiliary_bytes == bound
        assert stats.tiles_in_flight == workers

    @pytest.mark.parametrize("entry", ["forward", "backward", "loss_and_grad"])
    @pytest.mark.parametrize("path", ["kernel", "staged"])
    def test_no_tracked_buffer_outlives_the_workers(self, monkeypatch, medium, entry, path):
        """The runner drops every worker's buffer once the workers have
        joined: none is alive when a finisher (`loss_output` or the
        backward's `Gradients`) runs."""
        blas_path(monkeypatch, path)
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=2)
        buffers, finished = [], []

        class Watching(TrackingAllocator):
            def empty(self, shape, order="F"):
                arr = super().empty(shape, order)
                buffers.append(weakref.ref(arr))
                return arr

        def watched(finisher):
            def run(*args, **kwargs):
                finished.append([ref() is None for ref in buffers])
                return finisher(*args, **kwargs)
            return run

        monkeypatch.setattr(smoothce.blocked, "TrackingAllocator", Watching)
        monkeypatch.setattr(smoothce.blocked, "loss_output",
                            watched(smoothce.blocked.loss_output))
        monkeypatch.setattr(smoothce.blocked, "Gradients", watched(smoothce.blocked.Gradients))
        calls = {"forward": lambda: blocked_forward(e, c, x, 0.1, plan),
                 "backward": lambda: blocked_backward(e, c, x, 0.1, plan, fwd[0.1].lse),
                 "loss_and_grad": lambda: loss_and_grad(e, c, x, 0.1, plan)}
        run_bounded(calls[entry])
        assert len(buffers) == 2
        assert finished == [[True, True]] * (2 if entry == "loss_and_grad" else 1)

    @pytest.mark.parametrize("delay", [False, True])
    def test_peak_does_not_depend_on_thread_timing(self, monkeypatch, delay):
        """Every worker's buffer is taken before any worker starts, so the
        reported peak is two tile working sets even when the second worker
        starts its first GEMM only after the first worker has finished."""
        e, c, x = random_instance(3, n=64, v=512, d=16, scale=0.5)
        plan = plan_blocks(64, 512, 16, n_block=32, v_block=64, workers=2)
        original = getattr(smoothce.blocked, gemm_seam())
        held = []

        def spy(*args, **kwargs):
            if delay and threading.current_thread().name == "smoothce-tiles-1" and not held:
                held.append(None)
                for t in threading.enumerate():
                    if t.name == "smoothce-tiles-0":
                        t.join(60)
                        assert not t.is_alive()
            return original(*args, **kwargs)

        monkeypatch.setattr(smoothce.blocked, gemm_seam(), spy)
        _, stats = run_bounded(lambda: blocked_forward(e, c, x, 0.1, plan))
        assert stats.peak_auxiliary_bytes == 2 * 8 * plan.n_block * (plan.v_block + 1) == 33_280
        assert held == ([None] if delay else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_restores_ufunc_buffer_size(self, medium, workers):
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        before = np.getbufsize()
        loss_and_grad(e, c, x, 0.1, replace(plan, workers=workers))
        assert np.getbufsize() == before

    def test_beta_does_not_move_the_peak(self):
        e, c, x = random_instance(8, n=128, v=1024, d=32, scale=0.5)
        plan = plan_blocks(128, 1024, 32)
        _, s0 = blocked_forward(e, c, x, 0.0, plan)
        _, s1 = blocked_forward(e, c, x, 0.1, plan)
        assert abs(s0.peak_auxiliary_bytes - s1.peak_auxiliary_bytes) <= \
            0.01 * max(s0.peak_auxiliary_bytes, s1.peak_auxiliary_bytes)


def blas_path(monkeypatch, path):
    """Run on the accumulating kernel, or on the staged fallback that hosts
    whose numpy exports no ILP64 `cblas_dgemm` take."""
    if path == "staged":
        monkeypatch.setattr(smoothce.blocked, "_cblas_dgemm", lambda: None)
    elif smoothce.blocked._cblas_dgemm() is None:
        pytest.skip("numpy's BLAS exports no ILP64 cblas_dgemm")


def gemm_seam() -> str:
    """The name in `smoothce.blocked` every tile GEMM passes: the one kernel
    call, or `dgemm` where numpy's BLAS exports no ILP64 `cblas_dgemm`."""
    return "dgemm" if smoothce.blocked._cblas_dgemm() is None else "_kernel_gemm"


def operand_extent(g, which: str) -> tuple[int, int, int]:
    """(outer extent, inner extent, leading dimension) of operand `which`
    ("a", "b" or "c") as the kernel reads it under the arguments `g`."""
    rows, cols, ld, trans = {"a": (g.m, g.k, g.lda, g.trans_a),
                             "b": (g.k, g.n, g.ldb, g.trans_b),
                             "c": (g.m, g.n, g.ldc, None)}[which]
    if trans == smoothce.blocked._TRANS:
        rows, cols = cols, rows
    return (rows, cols, ld) if g.order == smoothce.blocked._ROW_MAJOR else (cols, rows, ld)


def inside(address: int, g, which: str, arr: np.ndarray) -> bool:
    """Whether every byte the kernel reads or writes of operand `which`,
    starting at `address`, lies inside `arr`'s buffer."""
    outer, inner, ld = operand_extent(g, which)
    start = arr.__array_interface__["data"][0]
    return start <= address and address + 8 * ((outer - 1) * ld + inner) <= start + arr.nbytes


class TestGemmContract:
    """Every tile GEMM is one call of the kernel seam, `_kernel_gemm(g, a,
    b, c)`: the bound CBLAS arguments `g` and the operands' addresses. It
    reads the inputs in place: an operand lies inside E or C, or inside its
    worker's tracked tile buffer, which an earlier call wrote. A call
    either writes a logit tile into that buffer (beta 0) or adds into
    `grad_e` or `grad_c` (beta 1). The flop total is the one the engine's
    counters and the per-layer benchmark count: the forward tile, its
    backward recompute and the two backward products, each 2 n |V| d."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_operands_lie_in_the_inputs_and_flops_add_up(self, monkeypatch, workers):
        blas_path(monkeypatch, "kernel")
        n, v, d = 64, 512, 32
        e, c, x = random_instance(12, n=n, v=v, d=d, scale=0.5)
        plan = plan_blocks(n, v, d, n_block=16, v_block=128)
        calls, buffers = [], []
        original = smoothce.blocked._kernel_gemm

        def recorder(g, a, b, out):
            calls.append((threading.current_thread().name, g, a, b, out))
            original(g, a, b, out)

        class Recording(TrackingAllocator):
            """Keeps every buffer, in worker order, so that no address is
            reused; each is taken on the calling thread."""

            def empty(self, shape, order="F"):
                arr = super().empty(shape, order)
                assert threading.current_thread() is threading.main_thread()
                buffers.append(arr)
                return arr

        monkeypatch.setattr(smoothce.blocked, "_kernel_gemm", recorder)
        monkeypatch.setattr(smoothce.blocked, "TrackingAllocator", Recording)
        _, grads, stats = loss_and_grad(e, c, x, 0.1, replace(plan, workers=workers))

        grad_e, grad_c = grads.grad_e.data, grads.grad_c.data
        assert len(buffers) == stats.tiles_in_flight == workers
        tiles = [g for _, g, *_ in calls if g.beta == 0.0]
        assert len(tiles) == stats.tiles_processed == 2 * 4 * 4
        # one GEMM per forward tile; per backward tile its recompute and one
        # full-depth GEMM per gradient
        assert len(calls) == 16 + 3 * 16 == stats.gemm_calls
        flop = 0
        for name, g, a, b, out in calls:
            assert name.startswith("smoothce-tiles-")
            own = buffers[int(name.rsplit("-", 1)[1])]
            if g.beta == 0.0:  # a logit tile, into this worker's buffer
                assert inside(a, g, "a", c.data) and inside(b, g, "b", e.data)
                assert inside(out, g, "c", own)
            else:  # a product of an input and this worker's tile, into a gradient
                assert g.beta == 1.0
                into_e, into_c = inside(out, g, "c", grad_e), inside(out, g, "c", grad_c)
                assert into_e != into_c
                assert inside(a, g, "a", c.data if into_e else e.data)
                assert inside(b, g, "b", own)
            flop += 2 * g.m * g.n * g.k
        assert flop == 4 * 2 * n * v * d == stats.gemm_flop

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("path", ["kernel", "staged"])
    def test_every_operand_is_contiguous(self, monkeypatch, medium, path, workers):
        """No engine GEMM reads a strided operand: on the kernel each
        leading dimension is its operand's inner extent, and without it
        each `dgemm` operand is C- or F-contiguous."""
        blas_path(monkeypatch, path)
        e, c, x, _, bwd = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=workers)
        seen = []
        original = getattr(smoothce.blocked, gemm_seam())

        def recorder(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(smoothce.blocked, gemm_seam(), recorder)
        _, g, _ = run_bounded(lambda: loss_and_grad(e, c, x, 0.1, plan))
        assert len(seen) == 32 + 3 * 32
        if path == "kernel":
            extents = [operand_extent(args[0], which) for args in seen for which in "abc"]
            assert all(ld == max(1, inner) for _, inner, ld in extents)
        else:
            operands = [op for args in seen for op in args[1:4]]
            assert all(op.flags.c_contiguous or op.flags.f_contiguous for op in operands)
        assert grad_rel_err(g, bwd[0.1]) <= 1e-9

    @pytest.mark.parametrize("n, v, d, n_block, v_block", [
        (17, 129, 1, 16, 64),
        (130, 257, 3, 129, 128),
        (65, 65, 2, 64, 1),
        (3, 40, 1, 1, 16),
    ])
    def test_bound_arguments_are_the_layouts_of_their_views(self, monkeypatch, n, v, d,
                                                            n_block, v_block):
        """Each tile GEMM's bound (order, transposes, leading dimensions)
        are what `_blas_layout` picks for that GEMM's own views, at shapes
        where an extent of 1 (a one-entry last vocabulary block, a
        one-token block, d = 1) makes a view both C- and F-contiguous.
        There another reading is valid too, and may give other bits: at
        17 x 129 x 1, reading such a `b` column-major did. The views' own
        layouts come from a wrapper in place of `dgemm`, through which
        every tile GEMM then goes."""
        blas_path(monkeypatch, "kernel")
        e, c, x = random_instance(13, n=n, v=v, d=d, scale=0.5)
        plan = plan_blocks(n, v, d, n_block=n_block, v_block=v_block, workers=1)
        bound, chosen = [], []
        seam, checked = smoothce.blocked._kernel_gemm, smoothce.blocked.dgemm

        def binding(g, *addresses):
            bound.append(g)
            seam(g, *addresses)

        def choosing(alpha, a, b, out, beta=0.0):
            chosen.append(smoothce.blocked._gemm_args(alpha, a, b, out, beta))
            return checked(alpha, a, b, out, beta=beta)

        results = []
        for name, spy in (("_kernel_gemm", binding), ("dgemm", choosing)):
            with monkeypatch.context() as m:
                m.setattr(smoothce.blocked, name, spy)
                out, g, _ = loss_and_grad(e, c, x, 0.1, plan)
            results.append((out.lse, out.o, g.grad_e.data, g.grad_c.data))
        assert len(bound) == 4 * -(-n // n_block) * -(-v // v_block)
        assert bound == chosen
        assert all(np.array_equal(a, b) for a, b in zip(*results))

    def test_a_replaced_dgemm_sees_every_tile_gemm(self, monkeypatch):
        """While a wrapper replaces `dgemm` (the benchmark's tracer counts
        and times GEMMs so), every tile GEMM goes through it as arrays, with
        the bits of the bound path."""
        blas_path(monkeypatch, "kernel")
        n, v, d = 64, 512, 32
        e, c, x = random_instance(12, n=n, v=v, d=d, scale=0.5)
        plan = plan_blocks(n, v, d, n_block=16, v_block=128, workers=2)
        want = loss_and_grad(e, c, x, 0.1, plan)
        flop = []
        original = smoothce.blocked.dgemm

        def wrapper(alpha, a, b, out, beta=0.0):
            flop.append(2 * a.shape[0] * a.shape[1] * b.shape[1])
            return original(alpha, a, b, out, beta=beta)

        monkeypatch.setattr(smoothce.blocked, "dgemm", wrapper)
        got = loss_and_grad(e, c, x, 0.1, plan)
        assert len(flop) == got[2].gemm_calls == want[2].gemm_calls == 4 * 4 * 4
        assert sum(flop) == got[2].gemm_flop == 8 * n * v * d
        assert np.array_equal(got[0].per_token_loss, want[0].per_token_loss)
        assert np.array_equal(got[1].grad_e.data, want[1].grad_e.data)
        assert np.array_equal(got[1].grad_c.data, want[1].grad_c.data)

    @pytest.mark.parametrize("path", ["kernel", "staged"])
    def test_storage_order_does_not_change_a_bit(self, monkeypatch, path):
        """The same values stored C- or F-ordered, writable or frozen, become
        the same column-major matrices, so neither engine's result depends
        on the order. A frozen C-ordered array used to be kept as it was,
        and its results differed in the last bits."""
        blas_path(monkeypatch, path)
        e, c, x = random_instance(21, n=64, v=512, d=32, scale=0.5)

        def stored(m, order, frozen):
            a = np.array(m.data, order=order)
            if frozen:
                a.setflags(write=False)
            return DenseMatrix(m.rows, m.cols, a)

        results = []
        for order in ("C", "F"):
            for frozen in (False, True):
                ec = [stored(m, order, frozen) for m in (e, c)]
                assert all(m.data.flags.f_contiguous for m in ec)
                got = [naive_forward(*ec, x, 0.1), naive_backward(*ec, x, 0.1)]
                for workers in (1, 2):
                    plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=workers)
                    got.extend(run_bounded(lambda: loss_and_grad(*ec, x, 0.1, plan))[:2])
                arrays = []
                for r in got:
                    if isinstance(r, Gradients):
                        assert r.grad_e.data.flags.f_contiguous
                        assert r.grad_c.data.flags.f_contiguous
                        arrays += [r.grad_e.data, r.grad_c.data]
                    else:
                        arrays += [r.lse, r.o, r.per_token_loss]
                results.append(arrays)
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(other, results[0]))


class TestGemmCounters:
    """`MemoryStats.gemm_calls` and `gemm_flop`, summed over the workers,
    against counts made without the engine: 2 n |V| d flops per pass over
    the tiles (the forward's, the backward's recompute and each of its two
    products), less each skipped tile's products."""

    @pytest.mark.parametrize("path", ["kernel", "staged"])
    def test_every_pass_counts_2nvd_on_any_tiling(self, monkeypatch, path):
        blas_path(monkeypatch, path)
        n, v, d = 50, 250, 12  # ragged blocks on both axes
        e, c, x = random_instance(3, n=n, v=v, d=d, scale=0.5)
        pairs = 4 * 8
        for workers in (1, 2, 3):
            plan = plan_blocks(n, v, d, n_block=16, v_block=32, workers=workers)
            out, fstats = blocked_forward(e, c, x, 0.1, plan)
            _, bstats = run_bounded(lambda: blocked_backward(e, c, x, 0.1, plan, out.lse))
            _, _, stats = run_bounded(lambda: loss_and_grad(e, c, x, 0.1, plan))
            assert (fstats.gemm_calls, fstats.gemm_flop) == (pairs, 2 * n * v * d)
            assert (bstats.gemm_calls, bstats.gemm_flop) == (3 * pairs, 6 * n * v * d)
            assert (stats.gemm_calls, stats.gemm_flop) == (4 * pairs, 8 * n * v * d)

    @pytest.mark.parametrize("path", ["kernel", "staged"])
    def test_a_skipped_tile_drops_its_two_products(self, monkeypatch, path):
        blas_path(monkeypatch, path)
        n, v, d = 48, 256, 16
        e, c, x = random_instance(42, n=n, v=v, d=d, scale=6.0)
        product = 2 * 16 * 32 * d  # one product of a full 32 x 16 tile
        seen = set()
        for workers in (1, 2, 3):
            plan = plan_blocks(n, v, d, n_block=16, v_block=32, workers=workers)
            _, _, stats = run_bounded(lambda: loss_and_grad(e, c, x, 0.1, plan,
                                                            filter_epsilon=2.0 ** -12))
            skipped = stats.tiles_skipped_by_filter
            assert skipped > 0
            assert stats.gemm_calls == 4 * 3 * 8 - 2 * skipped
            assert stats.gemm_flop == 8 * n * v * d - 2 * skipped * product
            seen.add((skipped, stats.gemm_calls, stats.gemm_flop))
        assert len(seen) == 1

    def test_counters_take_no_part_in_comparisons(self, medium):
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        stats = loss_and_grad(e, c, x, 0.1, plan)[2]
        assert stats.gemm_calls > 0
        assert replace(stats, gemm_calls=0, gemm_flop=0) == stats


def laid_out(x, layout):
    """`x` copied into one layout: C- or F-contiguous, a C or F view into a
    padded buffer, a strided view, or C-contiguous with every extent-1 axis
    given a stride that addresses nothing."""
    if layout in ("C", "F"):
        return np.array(x, order=layout)
    if layout == "odd":
        y = np.array(x, order="C")
        strides = [-8 * 1001 if size == 1 else s for size, s in zip(y.shape, y.strides)]
        return np.lib.stride_tricks.as_strided(y, y.shape, strides)
    if layout == "strided":
        big = np.zeros((2 * x.shape[0], 2 * x.shape[1]))
        view = big[::2, ::2]
    else:
        big = np.zeros((x.shape[0] + 2, x.shape[1] + 3), order=layout[0])
        view = big[1:-1, 2:-1]
    view[:] = x
    return view


CONTIGUOUS = ("C", "F", "odd")
NOT_CONTIGUOUS = ("C-view", "F-view", "strided")


class TestKernel:
    """`dgemm` is c = alpha a b + beta c for contiguous operands read as
    passed, a `.T` view included, and refuses any other operand before
    calling BLAS."""

    @pytest.mark.parametrize("m, k, p", [(5, 4, 3), (1, 4, 3), (5, 1, 3), (5, 4, 1),
                                         (1, 1, 1), (1, 4, 1)])
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5])
    def test_matches_numpy_in_every_layout(self, m, k, p, beta):
        if beta and smoothce.blocked._cblas_dgemm() is None:
            pytest.skip("numpy's BLAS exports no ILP64 cblas_dgemm")
        rng = np.random.default_rng(m * 100 + k * 10 + p)
        opa, opb, c0 = (rng.standard_normal(s) for s in ((m, k), (k, p), (m, p)))
        want = 1.5 * opa @ opb + beta * c0

        def placed(x, layout, transposed):
            return laid_out(x.T, layout).T if transposed else laid_out(x, layout)

        for layouts in itertools.product(CONTIGUOUS + NOT_CONTIGUOUS, repeat=3):
            for flips in np.ndindex(2, 2, 2):
                a, b, c = map(placed, (opa, opb, c0), layouts, flips)
                contiguous = all(x.flags.c_contiguous or x.flags.f_contiguous
                                 for x in (a, b, c))
                # a padded or strided view is contiguous only along an extent of 1
                assert contiguous == (set(layouts) <= set(CONTIGUOUS)) or 1 in (m, k, p)
                if not contiguous:
                    with pytest.raises(ValueError, match="neither C- nor F-contiguous"):
                        smoothce.blocked.dgemm(1.5, a, b, c, beta=beta)
                    assert np.array_equal(c, c0)
                    continue
                assert smoothce.blocked.dgemm(1.5, a, b, c, beta=beta) is c
                np.testing.assert_allclose(c, want, rtol=1e-12, atol=1e-12,
                                           err_msg=f"{layouts} {flips}")

    @pytest.mark.parametrize("case, match", [
        ("float32", "float64"),
        ("1-d", "2-D"),
        ("unaligned", "aligned"),
        ("strided view", "contiguous"),
        ("padded view", "contiguous"),
        ("read-only c", "read-only"),
        ("shapes", "do not match"),
    ])
    def test_bad_operands_rejected_before_blas(self, monkeypatch, case, match):
        called = []
        monkeypatch.setattr(smoothce.blocked, "_cblas_dgemm",
                            lambda: lambda *args: called.append(args))
        a, b, c = np.ones((4, 3)), np.ones((3, 2)), np.zeros((4, 2))
        if case == "float32":
            a = a.astype(np.float32)
        elif case == "1-d":
            b = np.ones(3)
        elif case == "unaligned":
            a = np.frombuffer(bytearray(8 * 12 + 4), np.float64, 12, offset=4).reshape(4, 3)
        elif case == "strided view":
            a = np.ones((8, 6))[::2, ::2]
        elif case == "padded view":  # rows 5 apart, 3 long
            a = np.ones((4, 5))[:, :3]
        elif case == "read-only c":
            c.setflags(write=False)
        else:
            c = np.zeros((4, 3))
        with pytest.raises(ValueError, match=match):
            smoothce.blocked.dgemm(1.0, a, b, c)
        assert called == []
        smoothce.blocked.dgemm(1.0, np.ones((4, 3)), np.ones((3, 2)), np.zeros((4, 2)))
        assert len(called) == 1

    def test_accumulating_backward_holds_only_the_tile(self, medium):
        """With the kernel the backward stages no product: on one worker
        its peak is one logit tile."""
        if smoothce.blocked._cblas_dgemm() is None:
            pytest.skip("numpy's BLAS exports no ILP64 cblas_dgemm")
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        _, stats = blocked_backward(e, c, x, 0.1, replace(plan, workers=1),
                                    fwd[0.1].lse)
        assert stats.peak_auxiliary_bytes == 8 * 16 * 64


class TestStagedFallback:
    """Where numpy's BLAS exports no ILP64 `cblas_dgemm`, each backward
    product goes through a staged full-depth chunk and a `+=`: a view that
    ends the worker's one buffer, after the tile. `_block_words` counts
    the chunk only there, in the words the forward's merge row uses."""

    @pytest.fixture
    def staged(self, monkeypatch):
        monkeypatch.setattr(smoothce.blocked, "_cblas_dgemm", lambda: None)

    @pytest.mark.parametrize("blocks", [(16, 64), (48, 100)])
    def test_matches_naive_bit_identical_and_bounded(self, staged, medium, blocks):
        e, c, x, fwd, bwd = medium
        plan = plan_blocks(64, 512, 32, *blocks)
        nb, vb = plan.n_block, plan.v_block
        results = []
        for workers in (1, 2, 3):
            out, g, stats = run_bounded(lambda: loss_and_grad(
                e, c, x, 0.1, replace(plan, workers=workers)))
            np.testing.assert_allclose(out.per_token_loss, fwd[0.1].per_token_loss,
                                       rtol=1e-9)
            assert grad_rel_err(g, bwd[0.1]) <= 1e-9
            bound = aux_bound_bytes(replace(plan, workers=workers), 64, 512, 32)
            per_tile = 8 * max(nb * (vb + 1), nb * vb + 32 * max(nb, vb))
            assert bound == stats.tiles_in_flight * per_tile
            # 8 N_B bytes per tile under the ceiling that counted the merge
            # row beside the staged chunk
            assert per_tile == 8 * nb * (vb + 1) + 8 * 32 * max(nb, vb) - 8 * nb
            assert 0 < stats.peak_auxiliary_bytes <= bound
            results.append((out.per_token_loss, g.grad_e.data, g.grad_c.data))
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(other, results[0]))

    def test_token_weight_scales_the_staged_products(self, staged, medium):
        """At `mean` and upstream 0.5 the token weight, each staged
        product's alpha, is 0.5/64: the chunk is scaled after np.matmul
        writes it."""
        e, c, x, _, _ = medium
        want_out = naive_forward(e, c, x, 0.1, reduction="mean")
        want_g = naive_backward(e, c, x, 0.1, reduction="mean", upstream=0.5)
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        results = []
        for workers in (1, 2, 3):
            out, g, _ = run_bounded(lambda: loss_and_grad(
                e, c, x, 0.1, replace(plan, workers=workers), reduction="mean",
                upstream=0.5))
            assert rel_err(out.total, want_out.total) <= 1e-9
            assert grad_rel_err(g, want_g) <= 1e-9
            results.append((out.per_token_loss, g.grad_e.data, g.grad_c.data))
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(other, results[0]))

    def test_chunk_is_tracked(self, staged, medium):
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        _, stats = blocked_backward(e, c, x, 0.1, replace(plan, workers=1), fwd[0.1].lse)
        assert stats.peak_auxiliary_bytes == 8 * (16 * 64 + 32 * 64)

    def test_dgemm_does_not_accumulate(self, staged):
        with pytest.raises(ValueError, match="beta"):
            smoothce.blocked.dgemm(1.0, np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)),
                                   beta=1.0)


def run_bounded(fn, timeout=120.0):
    """fn() on a separate thread joined with a timeout, so that a worker
    waiting for a turn that never comes fails the test instead of hanging."""
    result, error = [], []

    def target():
        try:
            result.append(fn())
        except BaseException as exc:
            error.append(exc)

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "engine call did not finish: turn-order deadlock?"
    if error:
        raise error[0]
    return result[0]


@pytest.fixture(scope="module")
def skipping():
    """Peaked enough that `filter_epsilon` 0.5 skips a few backward tiles,
    which must still pass their turn to the next token block."""
    return random_instance(42, n=64, v=512, d=32, scale=1.5)


def openblas_threads():
    calls = smoothce.blocked._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exposes no thread-count calls")
    return calls


@pytest.fixture()
def two_blas_threads():
    """numpy's OpenBLAS raised to 2 threads for the test, and the caller's
    count restored after it; yields the count getter."""
    get, set_ = openblas_threads()
    saved = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("numpy's OpenBLAS cannot be raised to 2 threads")
        yield get
    finally:
        set_(saved)


class TestRunner:
    """One runner for every worker count: token blocks owned by workers,
    `grad_c` summed in token-block order, so results never depend on the
    worker count."""

    @pytest.mark.parametrize("blocks", [(16, 64), (48, 100)])
    def test_workers_are_bit_identical(self, skipping, blocks):
        e, c, x = skipping
        plan = plan_blocks(64, 512, 32, *blocks)
        eps = 0.5
        results = []
        for workers in (1, 2, 3):
            out, fstats = blocked_forward(e, c, x, 0.1, replace(plan, workers=workers))
            g, bstats = run_bounded(lambda: blocked_backward(
                e, c, x, 0.1, replace(plan, workers=workers), out.lse, filter_epsilon=eps))
            lg = run_bounded(lambda: loss_and_grad(
                e, c, x, 0.1, replace(plan, workers=workers), filter_epsilon=eps))
            assert bstats.tiles_skipped_by_filter > 0
            assert lg[2].tiles_skipped_by_filter == bstats.tiles_skipped_by_filter
            results.append((out.lse, out.o, g.grad_e.data, g.grad_c.data,
                            lg[0].per_token_loss, lg[1].grad_e.data, lg[1].grad_c.data))
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(other, results[0]))

    def test_more_workers_than_cores_with_frequent_switches(self, skipping):
        """Stress: eight workers, one per token block and more than there
        are cores, with a thread switch asked for every microsecond; a lost
        update or an add out of turn would change the bits."""
        e, c, x = skipping
        plan = plan_blocks(64, 512, 32, n_block=8, v_block=64)
        want = loss_and_grad(e, c, x, 0.1, replace(plan, workers=1), filter_epsilon=0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_bounded(lambda: loss_and_grad(e, c, x, 0.1, replace(plan, workers=8),
                                                    filter_epsilon=0.5))
        finally:
            sys.setswitchinterval(interval)
        assert got[2].tiles_in_flight == 8
        assert np.array_equal(got[1].grad_c.data, want[1].grad_c.data)
        assert np.array_equal(got[1].grad_e.data, want[1].grad_e.data)
        assert np.array_equal(got[0].lse, want[0].lse)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_call_holds_one_blas_thread_and_restores(
            self, medium, monkeypatch, two_blas_threads, workers):
        get = two_blas_threads
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=workers)
        seen = []
        original = getattr(smoothce.blocked, gemm_seam())

        def spy(*args, **kwargs):
            seen.append(get())
            return original(*args, **kwargs)

        monkeypatch.setattr(smoothce.blocked, gemm_seam(), spy)
        _, _, stats = loss_and_grad(e, c, x, 0.1, plan)
        assert stats.tiles_in_flight == workers
        assert seen and set(seen) == {1}
        assert get() == 2

    def test_threaded_blas_leaves_workers_bit_identical(self, two_blas_threads):
        """Here a V_B-deep `grad_e` product is large enough for a threaded
        OpenBLAS to split, which would sum it in another order; every run
        holds one BLAS thread, so the worker count still changes no bit."""
        e, c, x = random_instance(11, n=300, v=5000, d=48, scale=0.5)
        plan = plan_blocks(300, 5000, 48, n_block=64, v_block=512)
        results = []
        for workers in (1, 2, 3):
            out, g, _ = run_bounded(lambda: loss_and_grad(
                e, c, x, 0.1, replace(plan, workers=workers)))
            results.append((out.lse, out.o, g.grad_e.data, g.grad_c.data))
        assert two_blas_threads() == 2
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(other, results[0]))

    def test_overlapping_calls_restore_the_count_when_the_last_ends(
            self, medium, monkeypatch, two_blas_threads):
        """Two one-worker calls from two Python threads: the first GEMM of
        each waits for the other's at a barrier, and call B's later GEMMs
        wait until call A has returned. The count stays at 1 until B's run
        ends too, and then comes back to the caller's."""
        get = two_blas_threads
        e, c, x, _, _ = medium
        eb, cb, xb = random_instance(8, n=64, v=512, d=32, scale=0.5)
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=1)
        met, a_done = threading.Barrier(2, timeout=60), threading.Event()
        first = {"A": True, "B": True}
        seen = []
        blas_path(monkeypatch, "kernel")
        original = smoothce.blocked._kernel_gemm

        def spy(g, a, b, out):
            seen.append(get())
            call = "B" if any(inside(op, g, which, m.data) for op, which in ((a, "a"), (b, "b"))
                              for m in (eb, cb)) else "A"
            if first.pop(call, False):
                met.wait()
            elif call == "B":
                assert a_done.wait(60), "call A did not end"
            original(g, a, b, out)

        def call_a():
            try:
                return loss_and_grad(e, c, x, 0.1, plan)
            finally:
                a_done.set()

        got_b = []
        thread_b = threading.Thread(target=lambda: got_b.append(
            loss_and_grad(eb, cb, xb, 0.1, plan)), daemon=True)
        monkeypatch.setattr(smoothce.blocked, "_kernel_gemm", spy)
        thread_b.start()
        run_bounded(call_a)
        thread_b.join(120)
        assert not thread_b.is_alive() and got_b, "call B did not finish"
        # two calls of 4 GEMMs per tile pair, 4 x 8 pairs each
        assert len(seen) == 2 * 4 * 4 * 8 and set(seen) == {1}
        assert get() == 2

    def test_worker_failure_propagates_without_hanging(self, medium, monkeypatch):
        """A worker that raises stops the others, even one waiting for its
        turn, and the call re-raises with the BLAS thread count restored."""
        get, _ = openblas_threads()
        e, c, x, fwd, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        saved = get()
        calls = []
        original = getattr(smoothce.blocked, gemm_seam())

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 7:
                raise RuntimeError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(smoothce.blocked, gemm_seam(), failing)
        with pytest.raises(RuntimeError, match="injected"):
            run_bounded(lambda: blocked_backward(e, c, x, 0.1, replace(plan, workers=3),
                                                 fwd[0.1].lse))
        assert get() == saved

    def test_failed_start_stops_the_started_worker(self):
        """The second worker's thread fails to start. The call raises that
        error once the first worker has ended, and only then restores the
        BLAS thread count. The first worker used to wait for a `grad_c`
        turn that never came, so the process never exited; hence the
        subprocess."""
        code = (
            "import threading\n"
            "from smoothce import blocked, loss_and_grad, plan_blocks, random_instance\n"
            "from _util import recording_blas_calls, tile_threads\n"
            "log = []\n"
            "blocked._openblas_thread_calls = recording_blas_calls(log)\n"
            "start = threading.Thread.start\n"
            "def failing_start(self):\n"
            "    if self.name == 'smoothce-tiles-1':\n"
            "        raise RuntimeError('injected start failure')\n"
            "    start(self)\n"
            "threading.Thread.start = failing_start\n"
            "e, c, x = random_instance(7, n=64, v=512, d=16, scale=0.5)\n"
            "plan = plan_blocks(64, 512, 16, n_block=8, v_block=64, workers=2)\n"
            "try:\n"
            "    loss_and_grad(e, c, x, 0.1, plan)\n"
            "except RuntimeError as exc:\n"
            "    assert str(exc) == 'injected start failure', exc\n"
            "else:\n"
            "    raise AssertionError('the call did not raise')\n"
            "assert tile_threads() == [], tile_threads()\n"
            "assert log == [(1, []), (4, [])], log\n"
        )
        proc = run_python(code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_interrupt_stops_every_worker_before_it_is_raised(self, medium, monkeypatch):
        """The first join is interrupted while the workers' first GEMMs
        wait for it. The call re-raises the interrupt after every worker
        has stopped, well short of the call's 3 x 64 GEMMs, and restores
        the BLAS thread count after the last of them."""
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=8, v_block=64, workers=2)
        log, gemms, interrupted = [], [], threading.Event()
        original_gemm = getattr(smoothce.blocked, gemm_seam())
        original_join = threading.Thread.join

        def waiting_gemm(*args, **kwargs):
            assert interrupted.wait(60), "the join was never interrupted"
            gemms.append(None)
            return original_gemm(*args, **kwargs)

        def interrupted_join(self, timeout=None):
            if self.name.startswith("smoothce-tiles-") and not interrupted.is_set():
                interrupted.set()
                raise KeyboardInterrupt
            return original_join(self, timeout)

        monkeypatch.setattr(smoothce.blocked, "_openblas_thread_calls",
                            recording_blas_calls(log))
        monkeypatch.setattr(smoothce.blocked, gemm_seam(), waiting_gemm)
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        with pytest.raises(KeyboardInterrupt):
            run_bounded(lambda: loss_and_grad(e, c, x, 0.1, plan))
        assert tile_threads() == []
        assert log == [(1, []), (4, [])]
        assert 0 < len(gemms) < 3 * 64


class TestWorkerThreads:
    """A tile worker takes no `ndarray.ctypes` lookup: each one used to
    leave allocations behind on its new thread, inside every call's
    tracemalloc peak."""

    def test_no_ctypes_lookup_on_a_worker_thread(self, medium):
        from numpy._core import _internal
        lookup = _internal._ctypes.__init__.__code__
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=2)
        seen = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is lookup:
                seen.append(threading.current_thread().name)

        threading.setprofile(profile)
        try:
            _, _, stats = loss_and_grad(e, c, x, 0.1, plan)
        finally:
            threading.setprofile(None)
        assert stats.gemm_calls == 4 * 4 * 8 and seen == []

    def test_calls_leave_no_allocation_behind(self, medium):
        """What the engine's frames still hold after eight more 2-worker
        calls, their outputs deleted, is under 2 KiB: CPython's free lists
        keep a few hundred bytes (at most 592 in 20 runs on a 2-vCPU host),
        where the `ctypes` lookups held 4-8 KB."""
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=2)
        engine = [tracemalloc.Filter(True, smoothce.blocked.__file__, all_frames=True)]

        def call():
            out = loss_and_grad(e, c, x, 0.1, plan)
            del out
            gc.collect()

        call()
        tracemalloc.start(64)
        try:
            call()
            start = tracemalloc.take_snapshot().filter_traces(engine)
            for _ in range(8):
                call()
            end = tracemalloc.take_snapshot().filter_traces(engine)
        finally:
            tracemalloc.stop()
        assert sum(d.size_diff for d in end.compare_to(start, "filename")) < 2048


def worker_cpu_in_range(stats) -> bool:
    """0 CPU seconds without a worker, else above 0 and at most
    `tiles_in_flight` times the runner's wall time, with a millisecond of
    slack for the clocks' reads."""
    cpu, runner = stats.phase_seconds["worker_cpu"], stats.phase_seconds["runner"]
    if stats.tiles_in_flight == 0:
        return cpu == 0
    return 0 < cpu <= stats.tiles_in_flight * runner + 1e-3


def can_pin() -> bool:
    return hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2


# taken at import, so that a test which patches or deletes the call can
# still restrict its helper thread
_SET_AFFINITY = getattr(os, "sched_setaffinity", None)


def on_cpus(cpus, fn):
    """fn() on a helper thread that first restricts itself to `cpus`, so
    the test's own thread is never pinned."""
    def restricted():
        _SET_AFFINITY(0, set(cpus))
        return fn()
    return run_bounded(restricted)


@pytest.mark.skipif(not can_pin(), reason="needs os.sched_setaffinity and 2 or more CPUs")
class TestWorkerPins:
    """A call that runs one worker on each CPU the calling thread may run
    on, two or more, pins worker k to the k-th of those CPUs; any other
    worker count runs unpinned. The caller's affinity is never changed,
    and no bit depends on where a worker ran. Each test that expects a pin
    runs its calls on a helper thread restricted to two CPUs, so it holds
    on hosts of any size."""

    @staticmethod
    def read_by_workers(monkeypatch) -> dict:
        """Each worker thread's affinities, as read on that thread inside
        the forward's block function, by worker index."""
        seen = {}
        original = smoothce.blocked._forward_block

        def spying(call):
            lse, loss, forward = original(call)

            def block(worker, i, cols):
                k = int(threading.current_thread().name.rsplit("-", 1)[1])
                seen.setdefault(k, set()).add(frozenset(os.sched_getaffinity(0)))
                forward(worker, i, cols)
            return lse, loss, block

        monkeypatch.setattr(smoothce.blocked, "_forward_block", spying)
        return seen

    @staticmethod
    def bits(result):
        out, g, _ = result
        return out.lse, out.o, out.per_token_loss, g.grad_e.data, g.grad_c.data

    @pytest.mark.parametrize("workers", [2, None, 3])
    def test_only_one_worker_per_allowed_cpu_is_pinned(self, monkeypatch, medium, workers):
        """On a caller restricted to two CPUs, 2 workers, as the default
        plan made there gives, run worker k on the k-th CPU, and 3 run
        unpinned: under the fixed split of token blocks, 3 pinned on 2 CPUs
        would leave one idle for a third of the run."""
        e, c, x, _, _ = medium
        two = sorted(os.sched_getaffinity(0))[:2]
        seen = self.read_by_workers(monkeypatch)
        stats = on_cpus(two, lambda: loss_and_grad(e, c, x, 0.1, plan_blocks(
            64, 512, 32, n_block=16, v_block=64, workers=workers)))[2]
        if workers == 3:
            assert seen == {k: {frozenset(two)} for k in range(3)}
            assert stats.worker_cpus == (None,) * 3
        else:
            assert seen == {k: {frozenset({cpu})} for k, cpu in enumerate(two)}
            assert stats.worker_cpus == tuple(two)

    def test_fewer_workers_than_cpus_run_unpinned(self, monkeypatch, medium):
        """2 workers where 3 or more CPUs are allowed run unpinned, so that
        overlapping calls are not all held on the lowest CPUs. Where only 2
        are allowed, the runner's read is made to report a third."""
        e, c, x, _, _ = medium
        allowed = sorted(os.sched_getaffinity(0))
        if len(allowed) < 3:
            monkeypatch.setattr(smoothce.blocked, "_allowed_cpus",
                                lambda: allowed + [allowed[-1] + 1])
        seen = self.read_by_workers(monkeypatch)
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=2)
        assert loss_and_grad(e, c, x, 0.1, plan)[2].worker_cpus == (None, None)
        assert seen == {k: {frozenset(allowed)} for k in range(2)}

    def test_the_callers_affinity_is_never_changed(self, medium):
        """After a pinned call, a one-worker call and a pinned call that
        raises, the calling thread may run where it could before."""
        e, c, x, _, _ = medium
        before = os.sched_getaffinity(0)
        two = sorted(before)[:2]
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=2)
        # finite logits near +-1e308 with the target at the low one: the
        # loss is not finite, and the call raises after its workers ran
        wide = (DenseMatrix.from_array(np.full((1, 2), 1e154)),
                DenseMatrix.from_array(np.array([[1e154, -1e154]])),
                TokenSequence(np.array([1, 1])))

        def calls():
            stats, after = [], []
            stats.append(loss_and_grad(e, c, x, 0.1, plan)[2])
            after.append(os.sched_getaffinity(0))
            stats.append(loss_and_grad(e, c, x, 0.1, replace(plan, workers=1))[2])
            after.append(os.sched_getaffinity(0))
            with pytest.raises(ValueError, match="not finite"):
                loss_and_grad(*wide, 0.1, plan_blocks(2, 2, 1, n_block=1, v_block=1, workers=2))
            after.append(os.sched_getaffinity(0))
            return stats, after

        (pinned, one), after = on_cpus(two, calls)
        assert pinned.worker_cpus == tuple(two) and one.worker_cpus == (None,)
        assert after == [set(two)] * 3
        assert os.sched_getaffinity(0) == before

    def test_a_caller_on_one_cpu_keeps_every_worker_there(self, monkeypatch, medium):
        """A caller restricted to one CPU pins nothing, and its workers
        inherit its one CPU: every worker runs there, the bits match an
        unrestricted call, and a default plan made there runs one worker."""
        e, c, x, _, _ = medium
        allowed = sorted(os.sched_getaffinity(0))
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=3)
        want = loss_and_grad(e, c, x, 0.1, plan)
        seen = self.read_by_workers(monkeypatch)
        got, default = on_cpus(allowed[:1], lambda: (
            loss_and_grad(e, c, x, 0.1, plan),
            loss_and_grad(e, c, x, 0.1, replace(plan, workers=None))[2]))
        assert seen == {k: {frozenset(allowed[:1])} for k in range(3)}
        assert got[2].worker_cpus == (None,) * 3
        assert all(np.array_equal(a, b) for a, b in zip(self.bits(got), self.bits(want)))
        assert default.tiles_in_flight == 1 and default.worker_cpus == (None,)
        assert os.sched_getaffinity(0) == set(allowed)

    def test_a_plan_keeps_the_count_of_the_thread_that_made_it(self, medium):
        """The default worker count is read once, on the thread that makes
        the plan: V_B is halved for the count the engine runs, and a plan
        made on two CPUs runs its 2 workers, unpinned, on a thread allowed
        one, to the bits of an unrestricted run. The engine used to read
        the count again on the thread that ran the call."""
        e, c, x, _, _ = medium
        allowed = sorted(os.sched_getaffinity(0))
        one = on_cpus(allowed[:1], lambda: plan_blocks(256, 65536, 128))
        two = on_cpus(allowed[:2], lambda: plan_blocks(256, 65536, 128))
        assert (one.workers, one.v_block) == (1, 512)
        assert (two.workers, two.v_block) == (2, 256)
        plan = on_cpus(allowed[:2], lambda: plan_blocks(64, 512, 32, n_block=16, v_block=64))
        want = loss_and_grad(e, c, x, 0.1, plan)
        got = on_cpus(allowed[:1], lambda: loss_and_grad(e, c, x, 0.1, plan))
        assert got[2].tiles_in_flight == 2 and got[2].worker_cpus == (None, None)
        assert all(np.array_equal(a, b) for a, b in zip(self.bits(got), self.bits(want)))

    @pytest.mark.parametrize("how", ["refused", "missing"])
    def test_an_unpinned_worker_gives_the_same_bits(self, monkeypatch, medium, how):
        """A pin that raises OSError leaves its worker unpinned, and a
        platform without the call pins nothing; either way the call goes on
        to the same bits."""
        e, c, x, _, _ = medium
        two = sorted(os.sched_getaffinity(0))[:2]
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=2)
        want = on_cpus(two, lambda: loss_and_grad(e, c, x, 0.1, plan))
        assert want[2].worker_cpus == tuple(two)
        if how == "refused":
            def refuse(pid, cpus):
                raise OSError(22, "Invalid argument")
            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        else:
            monkeypatch.delattr(os, "sched_setaffinity")
        got = on_cpus(two, lambda: loss_and_grad(e, c, x, 0.1, plan))
        assert got[2].worker_cpus == (None, None)
        assert all(np.array_equal(a, b) for a, b in zip(self.bits(got), self.bits(want)))

    def test_a_failed_pin_stops_the_call(self, monkeypatch, medium):
        """A pin that raises something other than OSError is the worker's
        error, like any other: the call raises it, with no entry unfilled."""
        e, c, x, _, _ = medium
        two = sorted(os.sched_getaffinity(0))[:2]

        def broken(pid, cpus):
            raise ValueError("broken pin")

        monkeypatch.setattr(os, "sched_setaffinity", broken)
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=2)
        with pytest.raises(ValueError, match="broken pin"):
            on_cpus(two, lambda: loss_and_grad(e, c, x, 0.1, plan))


def run_python(code: str, timeout: float) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports this checkout's
    smoothce and the tests' `_util`."""
    paths = [str(Path(smoothce.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (*paths, env.get("PYTHONPATH")) if p)
    try:
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"the subprocess did not exit within {timeout} s")


def test_engine_runs_without_scipy():
    """scipy is a test-only dependency: the engine imports and runs with
    every scipy import made to fail."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from smoothce import loss_and_grad, plan_blocks, random_instance\n"
        "e, c, x = random_instance(1, n=8, v=64, d=8, scale=0.5)\n"
        "out, g, _ = loss_and_grad(e, c, x, 0.1, plan_blocks(8, 64, 8))\n"
        "assert abs(out.total) < float('inf')\n"
    )
    proc = run_python(code, timeout=120)
    assert proc.returncode == 0, proc.stderr


def empty_batch(d=8, v=96):
    _, c, _ = random_instance(5, n=4, v=v, d=d, scale=0.5)
    e = DenseMatrix.from_array(np.zeros((d, 0)))
    return e, c, TokenSequence(np.array([], dtype=np.int64))


class TestEmptyBatch:
    """N = 0: both engines give empty per-token arrays, a zero total and
    zero gradients, and the blocked engine holds no tile."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_matches_naive(self, workers, reduction):
        e, c, x = empty_batch()
        plan = plan_blocks(0, 96, 8, workers=workers)
        out, g, stats = loss_and_grad(e, c, x, 0.1, plan, reduction=reduction)
        want = naive_forward(e, c, x, 0.1, reduction=reduction)
        want_g = naive_backward(e, c, x, 0.1, reduction=reduction)
        assert out.lse.shape == out.o.shape == out.per_token_loss.shape == (0,)
        assert out.total == want.total == 0.0
        assert g.grad_e.data.shape == want_g.grad_e.data.shape == (8, 0)
        assert np.array_equal(g.grad_c.data, np.zeros((8, 96)))
        assert np.array_equal(want_g.grad_c.data, np.zeros((8, 96)))
        assert stats.tiles_in_flight == stats.tiles_processed == 0
        assert stats.peak_auxiliary_bytes == 0
        assert aux_bound_bytes(plan, 0, 96, 8) == 0


class TestComposition:
    def test_loss_and_grad_matches_oracle_pair(self, medium):
        e, c, x, fwd, bwd = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        out, g, stats = loss_and_grad(e, c, x, 0.1, plan)
        np.testing.assert_allclose(
            out.per_token_loss, fwd[0.1].per_token_loss, rtol=1e-9)
        assert grad_rel_err(g, bwd[0.1]) <= 1e-9
        assert stats.tiles_processed == 2 * 4 * 8

    def test_deterministic_composition_reproducible(self, medium):
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64)
        out1, g1, _ = loss_and_grad(e, c, x, 0.5, plan)
        out2, g2, _ = loss_and_grad(e, c, x, 0.5, plan)
        assert np.array_equal(out1.per_token_loss, out2.per_token_loss)
        assert np.array_equal(g1.grad_e.data, g2.grad_e.data)
        assert np.array_equal(g1.grad_c.data, g2.grad_c.data)


def count_calls(monkeypatch, obj, name):
    """Record the calling thread's name for every call of `obj.name`."""
    calls = []
    original = getattr(obj, name)

    def spy(*args, **kwargs):
        calls.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, spy)
    return calls


class TestOneSweep:
    """`loss_and_grad` runs one tile runner: each token block sweeps its
    vocabulary blocks forward, finishes its lse and target pass, then
    sweeps them backward. The public passes are one-sweep runs of the same
    code, so the fused call equals them bit for bit."""

    @pytest.fixture(scope="class")
    def peaked(self):
        """Peaked enough that filter 2^-12 skips a few backward tiles."""
        return random_instance(42, n=48, v=256, d=16, scale=6.0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.1])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    @pytest.mark.parametrize("eps", [0.0, 2.0 ** -12])
    def test_equals_the_two_passes(self, monkeypatch, peaked, workers, beta, reduction,
                                   eps):
        e, c, x = peaked
        plan = plan_blocks(48, 256, 16, n_block=16, v_block=32, workers=workers)
        pairs = 3 * 8
        with monkeypatch.context() as m:
            runs = count_calls(m, smoothce.blocked._TileRunner, "run")
            gemms = count_calls(m, smoothce.blocked, gemm_seam())
            out, g, stats = run_bounded(lambda: loss_and_grad(
                e, c, x, beta, plan, filter_epsilon=eps, reduction=reduction))
        assert len(runs) == 1
        assert stats.tiles_processed + stats.tiles_skipped_by_filter == 2 * pairs
        assert (stats.tiles_skipped_by_filter > 0) == (eps > 0)
        # forward tile, backward recompute, and the two products of every
        # tile the filter keeps
        assert len(gemms) == 4 * pairs - 2 * stats.tiles_skipped_by_filter
        assert all(name.startswith("smoothce-tiles-") for name in gemms)

        fwd, _ = blocked_forward(e, c, x, beta, plan, reduction=reduction)
        bwd, _ = run_bounded(lambda: blocked_backward(
            e, c, x, beta, plan, fwd.lse, filter_epsilon=eps, reduction=reduction))
        same = [(out.lse, fwd.lse), (out.o, fwd.o),
                (out.per_token_loss, fwd.per_token_loss),
                (g.grad_e.data, bwd.grad_e.data), (g.grad_c.data, bwd.grad_c.data)]
        assert all(np.array_equal(got, want) for got, want in same)
        assert out.total == fwd.total
        if eps == 0.0:
            np.testing.assert_allclose(out.per_token_loss, naive_forward(
                e, c, x, beta, reduction=reduction).per_token_loss, rtol=1e-9)
            want_g = naive_backward(e, c, x, beta, reduction=reduction)
            assert grad_rel_err(g, want_g) <= 1e-9

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_empty_batch_runs_no_tile(self, monkeypatch, workers, reduction):
        e, c, x = empty_batch()
        plan = plan_blocks(0, 96, 8, workers=workers)
        with monkeypatch.context() as m:
            runs = count_calls(m, smoothce.blocked._TileRunner, "run")
            gemms = count_calls(m, smoothce.blocked, gemm_seam())
            out, g, _ = loss_and_grad(e, c, x, 0.1, plan, reduction=reduction)
        assert len(runs) == 1 and gemms == []
        fwd, _ = blocked_forward(e, c, x, 0.1, plan, reduction=reduction)
        bwd, _ = blocked_backward(e, c, x, 0.1, plan, fwd.lse, reduction=reduction)
        assert np.array_equal(g.grad_c.data, bwd.grad_c.data)
        assert np.array_equal(g.grad_c.data, np.zeros((8, 96)))
        assert out.total == fwd.total == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deep_target_gather_stays_within_the_bound(self, workers):
        """At D > V_B + 1 one token block's D x N_B target columns are more
        than a tile's working set; they are gathered in chunks that fit,
        so the peak stays within the ceiling, and what tracemalloc sees
        beyond it does not grow with D."""
        untracked = {}
        for d in (30, 300):
            e, c, x = random_instance(4, n=64, v=256, d=d, scale=0.2)
            plan = plan_blocks(64, 256, d, v_block=32, workers=workers)
            untracked[d], peak = untracked_bytes(e, c, x, 0.1, plan)
            assert 0 < peak <= aux_bound_bytes(plan, 64, 256, d)
        assert 300 * plan.n_block > plan.n_block * (plan.v_block + 1)
        # one gather of a token block's columns would be 8 x 300 x N_B bytes
        assert untracked[300] - untracked[30] < 16 * 1024

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_deep_narrow_shape_stays_within_the_bound(self, workers, beta):
        """At 4 x 2 x 1000 one token's D-vector, the smallest target gather,
        is more than a tile and its merge row; the forward's buffer holds
        it, and the ceiling is that buffer."""
        n, v, d = 4, 2, 1000
        e, c, x = random_instance(4, n=n, v=v, d=d, scale=0.05)
        plan = plan_blocks(n, v, d, workers=workers)
        eff = plan.clamped(n, v)
        assert d > eff.n_block * (eff.v_block + 1)
        bound = aux_bound_bytes(plan, n, v, d)
        fwd, fstats = blocked_forward(e, c, x, beta, plan)
        assert fstats.peak_auxiliary_bytes == bound == 8 * d
        _, bstats = blocked_backward(e, c, x, beta, plan, fwd.lse)
        _, _, stats = loss_and_grad(e, c, x, beta, plan)
        for s in (fstats, bstats, stats):
            assert 0 < s.peak_auxiliary_bytes <= bound

    @pytest.mark.parametrize("call, bad", [
        *[(call, bad) for call in ("loss_and_grad", "blocked_backward")
          for bad in (dict(filter_epsilon=1.5), dict(filter_epsilon=-0.25),
                      dict(beta=1.5), dict(reduction="max"), dict(upstream=math.nan))],
        ("blocked_backward", dict(lse=np.zeros(3)))])
    def test_arguments_are_checked_before_any_tile(self, monkeypatch, call, bad):
        """A bad option used to be refused only after a whole forward."""
        e, c, x = random_instance(0, 8, 32, 4, 0.5)
        plan = plan_blocks(8, 32, 4, n_block=2, v_block=8, workers=2)
        kw = dict(bad)
        beta = kw.pop("beta", 0.1)
        lse = kw.pop("lse", naive_forward(e, c, x, 0.1).lse)
        gemms = count_calls(monkeypatch, smoothce.blocked, gemm_seam())
        with pytest.raises(ValueError):
            if call == "loss_and_grad":
                loss_and_grad(e, c, x, beta, plan, **kw)
            else:
                blocked_backward(e, c, x, beta, plan, lse, **kw)
        assert gemms == []

    @pytest.mark.parametrize("call", ["loss_and_grad", "blocked_backward"])
    @pytest.mark.parametrize("bad", [dict(filter_epsilon=1.5), dict(upstream=math.nan)])
    def test_refused_options_allocate_no_gradient(self, call, bad):
        """The backward's builder checks its options before it allocates
        `grad_e` or `grad_c`: a refused call's traced peak stays below one
        4 MiB `grad_c` at 64 x 8192 x 64."""
        n, v, d = 64, 8192, 64
        e, c, x = random_instance(2, n=n, v=v, d=d, scale=0.5)
        plan = plan_blocks(n, v, d, workers=2)
        lse = naive_forward(e, c, x, 0.1).lse
        runs = {"loss_and_grad": lambda: loss_and_grad(e, c, x, 0.1, plan, **bad),
                "blocked_backward": lambda: blocked_backward(e, c, x, 0.1, plan, lse,
                                                             **bad)}
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            with pytest.raises(ValueError):
                runs[call]()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * d * v

    @pytest.mark.parametrize("beta, want", [(0.0, 0), (0.1, 1)])
    def test_smoothing_row_is_summed_at_most_once(self, monkeypatch, medium, beta, want):
        e, c, x, _, _ = medium
        plan = plan_blocks(64, 512, 32, n_block=16, v_block=64, workers=2)
        sums = count_calls(monkeypatch, smoothce.blocked, "_smoothing_row")
        loss_and_grad(e, c, x, beta, plan)
        assert len(sums) == want

    @pytest.mark.parametrize("v", [1, 1023, 1024, 2500])
    def test_smoothing_row_sums_every_chunk(self, v):
        """The row is summed by one gemv per chunk of vocabulary entries;
        the last chunk may be short."""
        _, c, _ = random_instance(6, n=1, v=v, d=16, scale=1.0)
        want = (0.1 / v) * c.data.sum(axis=1)
        np.testing.assert_allclose(smoothce.blocked._smoothing_row(c.data, 0.1, v), want,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("call", ["blocked_forward", "blocked_backward",
                                      "loss_and_grad"])
    @pytest.mark.parametrize("n", [64, 0])
    def test_phase_seconds_split_the_wall_time(self, monkeypatch, medium, call, n):
        """`runner` and `outside` are checked against perf_counter around
        the call; no ratio is asserted. `worker_cpu` is the workers' CPU
        time: none without a worker, else above 0 and at most what every
        worker busy through the whole runner would use."""
        e, c, x, fwd, _ = medium
        lse = fwd[0.1].lse
        if n == 0:
            e, c, x = empty_batch(d=32, v=512)
            lse = np.zeros(0)
        plan = plan_blocks(n, 512, 32, n_block=16, v_block=64, workers=2)
        runs = {"blocked_forward": lambda: blocked_forward(e, c, x, 0.1, plan),
                "blocked_backward": lambda: blocked_backward(e, c, x, 0.1, plan, lse),
                "loss_and_grad": lambda: loss_and_grad(e, c, x, 0.1, plan)}
        runners = count_calls(monkeypatch, smoothce.blocked._TileRunner, "run")
        t0 = time.perf_counter()
        stats = runs[call]()[-1]
        wall = time.perf_counter() - t0
        assert len(runners) == 1
        phases = stats.phase_seconds
        assert set(phases) == {"runner", "outside", "worker_cpu"}
        assert phases["runner"] >= 0 and phases["outside"] >= 0
        assert phases["runner"] + phases["outside"] <= wall
        assert worker_cpu_in_range(stats)
        # the timings take no part in comparing stats
        assert replace(stats, phase_seconds={}) == stats

    @pytest.fixture(scope="class")
    def timed(self):
        """A shape where each entry's call takes 20 ms or more on 2 vCPUs."""
        e, c, x = random_instance(5, n=512, v=8192, d=64, scale=0.5)
        plan = plan_blocks(512, 8192, 64, workers=2)
        return e, c, x, blocked_forward(e, c, x, 0.1, plan)[0].lse

    @pytest.mark.parametrize("call", ["blocked_forward", "blocked_backward",
                                      "loss_and_grad"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_phase_seconds_cover_the_call(self, timed, call, workers):
        """`runner` plus `outside` is between 0.9x and 1x the perf_counter
        wall time around a call long enough for the entry's own overhead
        to be under a tenth of it."""
        e, c, x, lse = timed
        plan = plan_blocks(512, 8192, 64, workers=workers)
        runs = {"blocked_forward": lambda: blocked_forward(e, c, x, 0.1, plan),
                "blocked_backward": lambda: blocked_backward(e, c, x, 0.1, plan, lse),
                "loss_and_grad": lambda: loss_and_grad(e, c, x, 0.1, plan)}
        t0 = time.perf_counter()
        stats = runs[call]()[-1]
        wall = time.perf_counter() - t0
        phases = stats.phase_seconds
        assert set(phases) == {"runner", "outside", "worker_cpu"}
        assert phases["runner"] >= 0 and phases["outside"] >= 0
        assert 0.9 * wall <= phases["runner"] + phases["outside"] <= wall
        assert worker_cpu_in_range(stats)


class TestInputs:
    """Both engines take the same inputs and refuse the same results."""

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_narrow_matrices_match_their_float64_copies(self, dtype):
        e, c, x = random_instance(3, n=16, v=64, d=8, scale=3.0)
        narrow = [DenseMatrix(m.rows, m.cols, m.data.astype(dtype)) for m in (e, c)]
        wide = [DenseMatrix.from_array(m.data) for m in narrow]
        plan = plan_blocks(16, 64, 8, n_block=4, v_block=16)
        got, want = loss_and_grad(*narrow, x, 0.1, plan), loss_and_grad(*wide, x, 0.1, plan)
        assert np.array_equal(got[0].per_token_loss, want[0].per_token_loss)
        assert np.array_equal(got[1].grad_e.data, want[1].grad_e.data)
        assert np.array_equal(got[1].grad_c.data, want[1].grad_c.data)
        naive = naive_forward(*narrow, x, 0.1)
        assert np.array_equal(naive.per_token_loss,
                              naive_forward(*wide, x, 0.1).per_token_loss)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", ["naive_forward", "naive_backward",
                                      "blocked_forward", "loss_and_grad"])
    def test_overflowing_logits_are_refused(self, call):
        """Logits beyond float64 give no loss to report: every entry point
        raises ValueError, on any worker count, and numpy warns nothing."""
        e, c, x = random_instance(0, 8, 32, 4, 1e160)
        # finite logits near +-1e308 with the target at the low one: lse and
        # o are finite, but lse - o is not
        wide = (DenseMatrix.from_array(np.full((1, 1), 1e154)),
                DenseMatrix.from_array(np.array([[1e154, -1e154]])),
                TokenSequence(np.array([1])))
        for (e, c, x), workers in itertools.product([(e, c, x), wide], (1, 3)):
            n, v, d = len(x.targets), c.cols, c.rows
            plan = plan_blocks(n, v, d, n_block=2, v_block=8, workers=workers)
            runs = {"naive_forward": lambda: naive_forward(e, c, x, 0.1),
                    "naive_backward": lambda: naive_backward(e, c, x, 0.1),
                    "blocked_forward": lambda: blocked_forward(e, c, x, 0.1, plan),
                    "loss_and_grad": lambda: loss_and_grad(e, c, x, 0.1, plan)}
            with pytest.raises(ValueError, match="not finite"):
                runs[call]()

    def test_an_ignored_token_may_overflow(self):
        """Only a kept token's loss must be finite."""
        e, c, x = random_instance(0, 8, 32, 4, 0.5)
        big = e.data.copy()
        big[:, 3] = 1e308
        e = DenseMatrix.from_array(big)
        with pytest.raises(ValueError, match="token 3"):
            naive_forward(e, c, x, 0.1)
        mask = np.arange(8) == 3
        out = naive_forward(e, c, x, 0.1, ignore_mask=mask)
        assert np.isfinite(out.total) and out.per_token_loss[3] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", ["naive_backward", "blocked_backward",
                                      "loss_and_grad"])
    def test_non_finite_upstream_is_refused_before_any_pass(self, monkeypatch, call, bad):
        """A NaN upstream used to fail only after a whole pass, on the
        gradients' finiteness check, and +-inf made numpy warn first."""
        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran")

        for n in (8, 0):
            e, c, x = random_instance(0, max(n, 1), 32, 4, 0.5)
            if n == 0:
                e = DenseMatrix.from_array(np.zeros((4, 0)))
                x = TokenSequence(np.array([], dtype=np.int64))
            plan = plan_blocks(n, 32, 4, n_block=2, v_block=8, workers=2)
            lse = naive_forward(e, c, x, 0.1).lse
            runs = {"naive_backward": lambda: naive_backward(e, c, x, 0.1, upstream=bad),
                    "blocked_backward": lambda: blocked_backward(e, c, x, 0.1, plan, lse,
                                                                 upstream=bad),
                    "loss_and_grad": lambda: loss_and_grad(e, c, x, 0.1, plan,
                                                           upstream=bad)}
            with monkeypatch.context() as m:
                m.setattr(smoothce.reference, "_forward_arrays", no_pass)
                m.setattr(smoothce.blocked, "dgemm", no_pass)
                m.setattr(smoothce.blocked, "_kernel_gemm", no_pass)
                m.setattr(smoothce.blocked, "blocked_forward", no_pass)
                with pytest.raises(ValueError, match="upstream must be finite"):
                    runs[call]()

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    @pytest.mark.parametrize("call", ["naive_forward", "naive_backward",
                                      "blocked_forward", "blocked_backward",
                                      "loss_and_grad"])
    def test_empty_classifier_is_refused(self, call, beta):
        """A D x 0 classifier has no vocabulary to take a softmax over:
        every entry refuses it by name, also for an empty batch."""
        e, c = (DenseMatrix.from_array(np.zeros((4, 0))) for _ in range(2))
        x = TokenSequence(np.array([], dtype=np.int64))
        plan = plan_blocks(0, 1, 4)
        runs = {"naive_forward": lambda: naive_forward(e, c, x, beta),
                "naive_backward": lambda: naive_backward(e, c, x, beta),
                "blocked_forward": lambda: blocked_forward(e, c, x, beta, plan),
                "blocked_backward": lambda: blocked_backward(e, c, x, beta, plan,
                                                             np.empty(0)),
                "loss_and_grad": lambda: loss_and_grad(e, c, x, beta, plan)}
        with pytest.raises(ValueError, match=r"classifier is empty \(4 x 0\)"):
            runs[call]()

    def test_engine_options_are_keyword_only(self):
        """Each entry took its options in its own positional order; now a
        positional option is refused."""
        e, c, x = random_instance(0, 4, 16, 4, 0.5)
        plan = plan_blocks(4, 16, 4, n_block=2, v_block=8)
        lse = naive_forward(e, c, x, 0.1).lse
        calls = [lambda: naive_forward(e, c, x, 0.1, "mean"),
                 lambda: naive_backward(e, c, x, 0.1, "mean"),
                 lambda: finite_diff_grad(e, c, x, 0.1, 1e-3, "mean"),
                 lambda: blocked_forward(e, c, x, 0.1, plan, "mean"),
                 lambda: blocked_backward(e, c, x, 0.1, plan, lse, 1.0),
                 lambda: loss_and_grad(e, c, x, 0.1, plan, 0.0)]
        for call in calls:
            with pytest.raises(TypeError, match="positional argument"):
                call()


CHECKPOINTS = (0, 1000, 2000, 3000, 4000)


@pytest.fixture(scope="module")
def descent():
    """E at each checkpoint of a descent toward an optimum: n 64, v 512,
    d 64, beta 0.1, scale 0.5; E takes steps of 0.5 along naive's grad_e
    while C stays fixed. ‖grad_e‖ falls from about 3e1 to about 2e-9."""
    e, c, x = random_instance(0, n=64, v=512, d=64, scale=0.5)
    points = {}
    for step in range(CHECKPOINTS[-1] + 1):
        if step in CHECKPOINTS:
            points[step] = e
        grad_e = naive_backward(e, c, x, 0.1).grad_e.data
        e = DenseMatrix.from_array(e.data - 0.5 * grad_e)
    return points, c, x


class TestConditionedContract:
    """The blocked engine agrees with the naive one to 1e-12 of each
    gradient's conditioned scale (see `conditioned_scales`), also near an
    optimum, where a gap relative to the gradient itself grows past 1e-9
    in both engines alike."""

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("step", CHECKPOINTS)
    def test_gap_within_the_conditioned_scale(self, descent, step, workers, beta):
        points, c, x = descent
        e = points[step]
        plan = plan_blocks(64, 512, 64, n_block=16, v_block=64, workers=workers)
        got = loss_and_grad(e, c, x, beta, plan)[1]
        want = naive_backward(e, c, x, beta)
        scale_e, scale_c = conditioned_scales(e, c, x, beta)
        assert np.linalg.norm(got.grad_e.data - want.grad_e.data) <= 1e-12 * scale_e
        assert np.linalg.norm(got.grad_c.data - want.grad_c.data) <= 1e-12 * scale_c

    def test_gradient_relative_gap_exceeds_1e_9_at_the_optimum(self, descent):
        """Why the contract names a scale: at the last checkpoint the gap
        relative to ‖grad_e‖ is far above 1e-9 (about 2e-5)."""
        points, c, x = descent
        e = points[CHECKPOINTS[-1]]
        plan = plan_blocks(64, 512, 64, n_block=16, v_block=64, workers=1)
        got = loss_and_grad(e, c, x, 0.1, plan)[1]
        want = naive_backward(e, c, x, 0.1)
        assert rel_err(got.grad_e.data, want.grad_e.data) > 1e-9
