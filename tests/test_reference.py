"""Naive engine: hand-checkable losses, the smoothing decomposition, and
gradient agreement with central finite differences."""

import math

import numpy as np
import pytest

from _util import grad_rel_err, rel_err
from smoothce.reference import (
    Gradients,
    finite_diff_grad,
    naive_backward,
    naive_forward,
)
from smoothce.tensors import DenseMatrix, TokenSequence, random_instance


def tiny_instance(seed=3, n=3, v=5, d=2, scale=0.5):
    return random_instance(seed, n, v, d, scale)


class TestForward:
    def test_uniform_logits_give_log_vocab(self):
        """Zero embeddings make every logit equal, so the loss is log |V|
        regardless of smoothing."""
        e = DenseMatrix.from_array([[0.0]])
        c = DenseMatrix.from_array([[0.7, -1.3]])
        x = TokenSequence(np.array([1]))
        for beta in (0.0, 0.3, 1.0):
            out = naive_forward(e, c, x, beta)
            assert out.total == pytest.approx(math.log(2.0), abs=1e-15)

    def test_two_class_hand_value(self):
        """Logits [0, ln 3] with target 1 and no smoothing: loss = ln 4 - ln 3."""
        e = DenseMatrix.from_array([[1.0]])
        c = DenseMatrix.from_array([[0.0, math.log(3.0)]])
        x = TokenSequence(np.array([1]))
        out = naive_forward(e, c, x, 0.0)
        assert out.total == pytest.approx(math.log(4.0) - math.log(3.0), abs=1e-15)

    def test_full_smoothing_ignores_targets(self):
        """At beta = 1 the per-token loss is lse minus the mean logit."""
        e, c, x = tiny_instance()
        out = naive_forward(e, c, x, 1.0)
        z = c.data.T @ e.data
        want = out.lse - z.mean(axis=0)
        np.testing.assert_allclose(out.per_token_loss, want, atol=1e-12)

    def test_loss_fields_consistent(self):
        e, c, x = tiny_instance()
        out = naive_forward(e, c, x, 0.25)
        np.testing.assert_array_equal(out.per_token_loss, out.lse - out.o)
        assert (out.per_token_loss >= -1e-9).all()
        assert out.total == pytest.approx(out.per_token_loss.sum())

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.5, 1.0])
    def test_smoothing_decomposition(self, beta):
        """Smoothed loss is the convex mix of the unsmoothed loss and the
        uniform-target loss."""
        e, c, x = random_instance(17, 12, 33, 6, 0.7)
        smoothed = naive_forward(e, c, x, beta).per_token_loss
        plain = naive_forward(e, c, x, 0.0).per_token_loss
        uniform = naive_forward(e, c, x, 1.0).per_token_loss
        np.testing.assert_allclose(
            smoothed, (1 - beta) * plain + beta * uniform, atol=1e-10)

    def test_reduction_semantics(self):
        e, c, x = tiny_instance()
        total_sum = naive_forward(e, c, x, 0.1, reduction="sum").total
        total_mean = naive_forward(e, c, x, 0.1, reduction="mean").total
        assert total_sum == pytest.approx(total_mean * len(x))

    def test_errors(self):
        e, c, x = tiny_instance()
        with pytest.raises(ValueError):
            naive_forward(e, c, x, 1.5)
        with pytest.raises(ValueError):
            naive_forward(e, c, TokenSequence(np.array([0, 1])), 0.0)
        with pytest.raises(ValueError):
            naive_forward(e, c, x, 0.0, reduction="median")
        bad_c = DenseMatrix.from_array(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            naive_forward(e, bad_c, x, 0.0)


class TestBackward:
    def test_uniform_probs_at_full_smoothing_are_stationary(self):
        """E = 0 makes the softmax uniform; at beta = 1 the adjusted softmax
        vanishes and both gradients are exactly zero."""
        e = DenseMatrix.from_array(np.zeros((3, 4)))
        c = DenseMatrix.from_array(np.random.default_rng(0).standard_normal((3, 6)))
        x = TokenSequence(np.arange(4) % 6)
        g = naive_backward(e, c, x, 1.0)
        # exp(-log 6) lands within an ulp of 1/6, so the cancellation leaves
        # at most rounding dust
        np.testing.assert_allclose(g.grad_e.data, 0.0, atol=1e-14)
        assert np.all(g.grad_c.data == 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_adjusted_softmax_columns_sum_to_zero(self, beta):
        """Identical classifier columns collapse grad_e to the column sums of
        the adjusted softmax, which must vanish for every beta."""
        col = np.array([[1.0], [-2.0], [0.5]])
        c = DenseMatrix.from_array(np.repeat(col, 7, axis=1))
        e = DenseMatrix.from_array(
            np.random.default_rng(1).standard_normal((3, 5)))
        x = TokenSequence(np.array([0, 3, 6, 2, 2]))
        g = naive_backward(e, c, x, beta)
        np.testing.assert_allclose(g.grad_e.data, 0.0, atol=1e-10)

    def test_matches_finite_differences(self):
        e, c, x = tiny_instance()
        analytic = naive_backward(e, c, x, 0.1)
        fd = finite_diff_grad(e, c, x, 0.1, h=1e-3)
        assert grad_rel_err(analytic, fd) < 1e-5

    def test_upstream_scales_linearly(self):
        e, c, x = tiny_instance()
        g1 = naive_backward(e, c, x, 0.2, upstream=1.0)
        g3 = naive_backward(e, c, x, 0.2, upstream=3.0)
        np.testing.assert_allclose(g3.grad_e.data, 3.0 * g1.grad_e.data, rtol=1e-13)
        np.testing.assert_allclose(g3.grad_c.data, 3.0 * g1.grad_c.data, rtol=1e-13)

    def test_mean_reduction_scales_gradients(self):
        e, c, x = tiny_instance()
        gs = naive_backward(e, c, x, 0.2, reduction="sum")
        gm = naive_backward(e, c, x, 0.2, reduction="mean")
        np.testing.assert_allclose(gm.grad_e.data, gs.grad_e.data / len(x), rtol=1e-15)


class TestFiniteDifferences:
    def test_degenerate_single_class_is_exactly_linear(self):
        """With one vocabulary entry the loss is identically zero, so both
        the analytic gradient and the finite difference are exactly zero."""
        e = DenseMatrix.from_array([[0.3, -0.7]])
        c = DenseMatrix.from_array([[1.1]])
        x = TokenSequence(np.array([0, 0]))
        fd = finite_diff_grad(e, c, x, 0.4, h=1e-3)
        analytic = naive_backward(e, c, x, 0.4)
        assert np.all(fd.grad_e.data == 0.0)
        assert np.all(fd.grad_c.data == 0.0)
        np.testing.assert_allclose(analytic.grad_e.data, 0.0, atol=1e-15)

    def test_second_order_convergence(self):
        """Halving h shrinks the finite-difference error about fourfold."""
        e, c, x = random_instance(9, 3, 5, 2, 0.8)
        analytic = naive_backward(e, c, x, 0.1)

        def gap(h):
            fd = finite_diff_grad(e, c, x, 0.1, h=h)
            return np.linalg.norm(np.concatenate([
                (fd.grad_e.data - analytic.grad_e.data).ravel(),
                (fd.grad_c.data - analytic.grad_c.data).ravel(),
            ]))

        ratio = gap(1e-3) / gap(5e-4)
        assert 3.0 <= ratio <= 5.0

    def test_agreement_within_stated_tolerance(self):
        e, c, x = tiny_instance(seed=11)
        analytic = naive_backward(e, c, x, 0.1)
        fd = finite_diff_grad(e, c, x, 0.1, h=1e-3)
        assert grad_rel_err(analytic, fd) <= max(1e-6, 10.0 * 1e-3 ** 2)

    def test_bad_step_rejected(self):
        e, c, x = tiny_instance()
        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="h must be finite and positive"):
                finite_diff_grad(e, c, x, 0.1, h=bad)


class TestIgnoreMask:
    def test_masked_tokens_drop_out(self):
        e, c, x = random_instance(21, 6, 9, 3, 0.6)
        mask = np.array([False, True, False, True, True, False])
        out = naive_forward(e, c, x, 0.2, ignore_mask=mask)
        full = naive_forward(e, c, x, 0.2)
        assert np.all(out.per_token_loss[mask] == 0.0)
        np.testing.assert_allclose(
            out.per_token_loss[~mask], full.per_token_loss[~mask], atol=0)
        assert out.total == pytest.approx(full.per_token_loss[~mask].sum())

    def test_mean_uses_kept_count(self):
        e, c, x = random_instance(21, 6, 9, 3, 0.6)
        mask = np.array([False, True, False, True, True, False])
        out = naive_forward(e, c, x, 0.2, reduction="mean", ignore_mask=mask)
        full = naive_forward(e, c, x, 0.2)
        assert out.total == pytest.approx(full.per_token_loss[~mask].mean())

    def test_masked_gradients_vanish(self):
        e, c, x = random_instance(21, 6, 9, 3, 0.6)
        mask = np.zeros(6, dtype=bool)
        mask[1] = True
        g = naive_backward(e, c, x, 0.2, ignore_mask=mask)
        assert np.all(g.grad_e.data[:, 1] == 0.0)
        fd = finite_diff_grad(e, c, x, 0.2, h=1e-3, ignore_mask=mask)
        assert grad_rel_err(g, fd) < 1e-5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_every_token_ignored(self, reduction):
        """No kept token: a zero total and zero gradients, with no division
        by the kept count of 0 under `mean`."""
        e, c, x = random_instance(21, 6, 9, 3, 0.6)
        mask = np.ones(6, dtype=bool)
        out = naive_forward(e, c, x, 0.2, reduction=reduction, ignore_mask=mask)
        assert out.total == 0.0 and np.all(out.per_token_loss == 0.0)
        assert np.array_equal(out.lse, naive_forward(e, c, x, 0.2).lse)
        g = naive_backward(e, c, x, 0.2, reduction=reduction, upstream=2.0,
                           ignore_mask=mask)
        assert np.all(g.grad_e.data == 0.0) and np.all(g.grad_c.data == 0.0)


# logits beyond float64: z = [1e308, -1e308], so token 0's loss overflows
OVERFLOWING = (DenseMatrix.from_array([[1e154]]),
               DenseMatrix.from_array([[1e154, -1e154]]),
               TokenSequence(np.array([1])))
NAIVE_ENTRIES = {
    "naive_forward": lambda e, c, x, **kw: naive_forward(e, c, x, 0.0, **kw),
    "naive_backward": lambda e, c, x, **kw: naive_backward(e, c, x, 0.0, **kw),
    "finite_diff_grad": lambda e, c, x, **kw: finite_diff_grad(e, c, x, 0.0, 1e-3, **kw),
}


class TestOneLossRule:
    @pytest.mark.parametrize("entry", list(NAIVE_ENTRIES))
    def test_non_finite_loss_names_the_token(self, entry):
        """Every naive entry refuses through `loss_output`. The
        finite-difference oracle used to fail on its own gradient with a
        message about a non-finite matrix the caller never passed."""
        with pytest.raises(ValueError, match="^loss of token 0 is not finite"):
            NAIVE_ENTRIES[entry](*OVERFLOWING)

    @pytest.mark.parametrize("entry", list(NAIVE_ENTRIES))
    @pytest.mark.parametrize("mask, message", [
        ([], "must have one flag per token$"),
        ([False, True], "must have one flag per token$"),
        ([2], "must hold booleans or the integers 0 and 1$"),
        ([0.5], "must hold booleans or the integers 0 and 1$"),
    ], ids=["short", "long", "two", "half"])
    def test_mask_of_another_length_is_refused(self, entry, mask, message):
        """A mask of another length, or one holding a value other than a
        bool or an integer 0 or 1, is refused. A flag of 2 or 0.5 used to
        be read as True, so token 0 was silently ignored."""
        with pytest.raises(ValueError, match="^ignore_mask " + message):
            NAIVE_ENTRIES[entry](*OVERFLOWING, ignore_mask=mask)

    @pytest.mark.parametrize("entry", list(NAIVE_ENTRIES))
    def test_ignored_overflowing_token_is_finite(self, entry):
        out = NAIVE_ENTRIES[entry](*OVERFLOWING, ignore_mask=[True])
        if isinstance(out, Gradients):
            assert np.all(out.grad_e.data == 0.0) and np.all(out.grad_c.data == 0.0)
        else:
            assert out.total == 0.0 and np.all(out.per_token_loss == 0.0)

    def test_ignored_overflowing_column_beside_a_kept_token(self):
        """The ignored token's softmax column is NaN. Weighing it by 0 kept
        the NaN, and the backward refused its own gradient as a matrix
        with non-finite entries while the forward returned 0."""
        e = DenseMatrix.from_array([[1e155, 1.0]])
        c = DenseMatrix.from_array([[1e155, -1e155]])
        x = TokenSequence(np.array([1, 0]))
        mask = [True, False]
        assert naive_forward(e, c, x, 0.0, ignore_mask=mask).total == 0.0
        g = naive_backward(e, c, x, 0.0, ignore_mask=mask)
        assert np.all(g.grad_e.data == 0.0) and np.all(g.grad_c.data == 0.0)
