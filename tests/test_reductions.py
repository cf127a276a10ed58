"""Stable reductions: softmax, logit distances, and KL to the uniform
distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothce.reductions import (
    kl_uniform,
    logit_distance,
    lse_columns,
    softmax,
)

finite_logit = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestSoftmax:
    def test_two_way_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=0)

    def test_constant_vector_is_uniform(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(softmax([c, c, c, c]), [0.25] * 4, atol=0)

    def test_matches_brute_force(self):
        z = np.array([1.0, 2.0, 3.0])
        want = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(softmax(z), want, rtol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        z=st.lists(finite_logit, min_size=1, max_size=20),
        c=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_shift_invariance(self, z, c):
        z = np.array(z)
        np.testing.assert_allclose(softmax(z + c), softmax(z), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = softmax(rng.uniform(-40, 40, size=rng.integers(1, 30)))
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_temperature(self):
        z = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(softmax(z, temperature=2.0), softmax(z / 2.0), atol=0)
        with pytest.raises(ValueError):
            softmax(z, temperature=0.0)

    def test_neg_inf_gets_zero_probability(self):
        p = softmax([0.0, float("-inf")])
        assert p[1] == 0.0 and p[0] == 1.0


class TestLogitDistance:
    def test_hand_example(self):
        np.testing.assert_array_equal(logit_distance([3.0, 1.0, 3.0]), [0.0, 2.0, 0.0])

    def test_constant_vector(self):
        np.testing.assert_array_equal(logit_distance([5.0] * 4), np.zeros(4))

    def test_argmin_is_argmax_of_logits(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            z = rng.standard_normal(rng.integers(1, 40))
            d = logit_distance(z)
            assert (d >= 0).all()
            assert d.min() == 0.0
            assert np.argmin(d) == np.argmax(z)


class TestKlUniform:
    def test_uniform_is_zero(self):
        assert kl_uniform([0.25] * 4) == 0.0

    def test_hand_example(self):
        want = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert kl_uniform([0.9, 0.1]) == pytest.approx(want, rel=1e-15)

    def test_zero_probability_gives_inf(self):
        assert kl_uniform([1.0, 0.0]) == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kl_uniform([1.1, -0.1])

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = softmax(rng.standard_normal(rng.integers(2, 30)) * 3)
            assert kl_uniform(p) >= 0.0

    def test_lse_identity(self):
        """KL[u||p] equals LSE(log p) - mean(log p) - log K."""
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = softmax(rng.standard_normal(rng.integers(2, 30)) * 2)
            z = np.log(p)
            want = lse_columns(z[:, None])[0] - z.mean() - math.log(p.size)
            assert kl_uniform(p) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("fn, arg, message", [
    (softmax, [], "softmax needs a non-empty 1-D vector"),
    (softmax, [[0.0, 1.0]], "softmax needs a non-empty 1-D vector"),
    (softmax, [-math.inf, -math.inf], "softmax needs at least one finite logit"),
    (softmax, [0.0, math.nan], "softmax needs at least one finite logit"),
    (logit_distance, [], "logit_distance needs a non-empty 1-D vector"),
    (logit_distance, [[1.0]], "logit_distance needs a non-empty 1-D vector"),
    (kl_uniform, [], "kl_uniform needs a non-empty 1-D vector"),
    (kl_uniform, [[0.5, 0.5]], "kl_uniform needs a non-empty 1-D vector"),
], ids=["softmax-empty", "softmax-2d", "softmax-no-finite", "softmax-nan-max",
        "distance-empty", "distance-2d", "kl-empty", "kl-2d"])
def test_refused_vector(fn, arg, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(arg)


class TestSandwichInequality:
    """The mean logit distance pinches KL-to-uniform within an additive
    log K: KL <= mean(d) <= KL + log K.

    Both sides follow from max(z) <= LSE(z) <= max(z) + log K together with
    the identity KL[u||softmax(z)] = LSE(z) - mean(z) - log K, so the mean
    logit-distance penalty and the smoothing regularizer agree up to a
    bounded constant.
    """

    @settings(max_examples=150, deadline=None)
    @given(z=st.lists(finite_logit, min_size=2, max_size=50))
    def test_sandwich(self, z):
        z = np.array(z)
        kl = kl_uniform(softmax(z))
        mean_d = float(logit_distance(z).mean())
        k = z.size
        assert kl <= mean_d + 1e-9
        assert mean_d <= kl + math.log(k) + 1e-9

    def test_equality_at_constant_logits(self):
        z = np.full(6, 2.5)
        assert kl_uniform(softmax(z)) == 0.0
        assert logit_distance(z).mean() == 0.0
