"""Entropy floor of a norm-bounded softmax: the closed form, its concentrated
minimizer, the numeric projected-gradient oracle, and the budget transforms."""

import math
import tracemalloc

import numpy as np
import pytest

from smoothce.blocked import loss_and_grad
from smoothce.entropy import (
    BoundParams,
    effective_params,
    entropy_lower_bound,
    minimizer_logits,
    minimizer_vector,
    norm_bound,
    normalized_gap,
    numeric_min_entropy,
    shannon_entropy,
    _descend,
)
from smoothce.reductions import softmax
from smoothce.tensors import DenseMatrix, plan_blocks, random_instance


class TestNormBound:
    def test_unit_case(self):
        assert norm_bound(1.0, 1.0, 1) == 1.0

    def test_arithmetic_identity(self):
        assert norm_bound(2.0, 0.5, 4) == pytest.approx(2.0, abs=1e-15)

    def test_nonpositive_rejected(self):
        for bad in ((0.0, 1.0, 1), (1.0, -1.0, 1), (1.0, 1.0, 0)):
            with pytest.raises(ValueError):
                norm_bound(*bad)

    def test_sampled_products_respect_bound(self):
        """Random classifiers scaled to spectral norm sigma_c and entrywise
        bounded hidden states never exceed sigma_c * sigma_h * sqrt(d)."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 33))
            v = int(rng.integers(2, 65))
            sigma_c = float(rng.uniform(0.2, 3.0))
            sigma_h = float(rng.uniform(0.2, 3.0))
            g = rng.standard_normal((d, v))
            top = np.linalg.svd(g, compute_uv=False)[0]
            c = g * (sigma_c / top)
            h = rng.uniform(-sigma_h, sigma_h, size=d)
            assert np.linalg.norm(c.T @ h) <= norm_bound(sigma_c, sigma_h, d) + 1e-9


class TestClosedFormBound:
    @pytest.mark.parametrize("d", [0, -3])
    def test_hidden_size_below_one_is_refused(self, d):
        with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
            BoundParams(sigma_c=1.0, sigma_h=1.0, d=d, v=4)

    def test_zero_budget_is_max_entropy(self):
        for v in (2, 5, 1000):
            p = BoundParams(sigma_c=0.0, sigma_h=1.0, d=7, v=v)
            assert entropy_lower_bound(p) == math.log(v)
            assert normalized_gap(p) == 0.0

    def test_reference_value(self):
        p = BoundParams(sigma_c=1.0, sigma_h=1.0, d=1, v=2)
        assert entropy_lower_bound(p) == pytest.approx(0.4942, abs=5e-5)

    @pytest.mark.parametrize("r, v, exact", [(64.0, 8, 9.3893274830549346e-28),
                                              (40.0, 2, 1.558760454884333e-23),
                                              (30.0, 64, 1.4527178164808827e-10)])
    def test_tiny_floor_keeps_its_first_term(self, r, v, exact):
        """Where (v-1) gamma is below 1e-16, log(1 + (v-1) gamma) rounds to
        0 and the floor read up to 1.7% low; log1p keeps the term. `exact`
        is the floor to 17 digits from 60-digit arithmetic."""
        p = BoundParams.from_budget(r, v)
        assert p.r == r
        assert entropy_lower_bound(p) == pytest.approx(exact, rel=1e-13, abs=0)

    def test_monotone_in_rho_and_d(self):
        bounds_rho = [entropy_lower_bound(BoundParams(r, 1.0, 16, 64))
                      for r in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(bounds_rho, bounds_rho[1:]))
        bounds_d = [entropy_lower_bound(BoundParams(0.5, 1.0, d, 64))
                    for d in (1, 4, 16, 64, 256)]
        assert all(a > b for a, b in zip(bounds_d, bounds_d[1:]))

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            # budget kept moderate; at extreme r the gap rounds shut to 1.0
            p = BoundParams(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 1.5)),
                            int(rng.integers(1, 50)), int(rng.integers(2, 2000)))
            b = entropy_lower_bound(p)
            assert 0.0 < b <= math.log(p.v)
            assert 0.0 <= normalized_gap(p) < 1.0

    def test_extreme_budget_still_positive(self):
        p = BoundParams(4.0, 2.0, 88, 47)  # floor around 1e-17
        assert entropy_lower_bound(p) > 0.0
        assert normalized_gap(p) <= 1.0

    def test_non_finite_budget_rejected(self):
        """A NaN budget would give a NaN floor that no oracle can undercut."""
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma_c"):
                BoundParams(bad, 1.0, 4, 4)
            with pytest.raises(ValueError, match="sigma_h"):
                BoundParams(1.0, bad, 4, 4)
            with pytest.raises(ValueError, match="norm budget"):
                BoundParams.from_budget(bad, 4)
        with pytest.raises(ValueError, match="overflows"):
            BoundParams(1e308, 1.0, 64, 4)

    def test_budget_is_r_up_to_rounding(self):
        """sigma_c = r / sqrt(d) and r = sigma_c * sqrt(d) round twice, so
        at d > 1 the budget can miss r by an ulp; at d = 1 it is exact."""
        rng = np.random.default_rng(0)
        budgets, depths = rng.uniform(0, 100, 10_000), rng.integers(1, 5001, 10_000)
        off = [abs(BoundParams.from_budget(r, 4, int(d)).r - r) / math.ulp(r)
               for r, d in zip(budgets.tolist(), depths)]
        assert max(off) == 1.0 and sum(e > 0 for e in off) > 0
        assert all(BoundParams.from_budget(r, 4).r == r for r in budgets.tolist())

    def test_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(1.0, 1.0, 4, 1)

    @pytest.mark.parametrize("d, v, name", [(1.5, 4, "d"), (4.0, 4, "d"), (True, 4, "d"),
                                            (2, 4.5, "v"), (2, 4.0, "v"), (2, True, "v")])
    def test_non_integer_sizes_are_refused(self, d, v, name):
        """Such sizes used to give a floor, and d=True passed as 1."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            BoundParams(1.0, 1.0, d, v)

    def test_numpy_integer_sizes_are_accepted(self):
        p = BoundParams(1.0, 1.0, np.int64(16), np.int32(64))
        assert entropy_lower_bound(p) == entropy_lower_bound(BoundParams(1.0, 1.0, 16, 64))


class TestMinimizer:
    def test_two_class_unit_budget(self):
        p = BoundParams.from_budget(1.0, 2)
        a, b = minimizer_logits(p)
        assert a == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert b == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)

    def test_norm_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = BoundParams(float(rng.uniform(0.01, 3)), float(rng.uniform(0.1, 2)),
                            int(rng.integers(1, 64)), int(rng.integers(2, 512)))
            a, b = minimizer_logits(p)
            assert a * a + (p.v - 1) * b * b == pytest.approx(p.r ** 2, rel=1e-12)

    def test_gap_between_levels(self):
        p = BoundParams(0.7, 1.3, 9, 33)
        a, b = minimizer_logits(p)
        assert a - b == pytest.approx(p.rho * math.sqrt(p.d * p.v / (p.v - 1)), rel=1e-12)

    def test_minimizer_entropy_equals_bound(self):
        """Self-consistency: the closed-form floor is the entropy of the
        concentrated logit vector that attains it."""
        for d in (1, 16, 256):
            for v in (2, 64, 1024):
                for rho in (0.1, 0.5, 2.0):
                    p = BoundParams(rho, 1.0, d, v)
                    h = shannon_entropy(softmax(minimizer_vector(p)))
                    assert h == pytest.approx(entropy_lower_bound(p), abs=1e-9)


@pytest.fixture
def exp_rows(monkeypatch):
    """The row count of each `np.exp` call: one call per descent step, over
    the rows still descending."""
    rows, exp = [], np.exp

    def counting_exp(x, out=None):
        rows.append(len(x))
        return exp(x, out=out)

    monkeypatch.setattr(np, "exp", counting_exp)
    return rows


class TestNumericOracle:
    def test_vanishing_budget_recovers_log_v(self):
        got = numeric_min_entropy(1e-7, 5, restarts=8, iterations=200)
        assert got == pytest.approx(math.log(5), abs=1e-6)

    def test_two_class_matches_closed_form(self):
        p = BoundParams.from_budget(1.0, 2)
        got = numeric_min_entropy(1.0, 2)
        assert abs(got - entropy_lower_bound(p)) <= 1e-6

    def test_never_beats_the_bound(self):
        for v in (8, 64):
            for r in (0.5, 2.0):
                got = numeric_min_entropy(r, v, restarts=16, iterations=800)
                bound = entropy_lower_bound(BoundParams.from_budget(r, v))
                assert got >= bound - 1e-6

    def test_bad_args(self):
        with pytest.raises(ValueError):
            numeric_min_entropy(0.0, 4)
        with pytest.raises(ValueError):
            numeric_min_entropy(1.0, 1)
        # an infinite budget used to return inf with a RuntimeWarning
        with pytest.raises(ValueError, match="^r: "):
            numeric_min_entropy(math.inf, 4)
        with pytest.raises(ValueError, match="^r: "):
            numeric_min_entropy([1.0, math.nan], 4)
        with pytest.raises(ValueError, match="^r: "):
            numeric_min_entropy([1.0, -2.0], 4)
        with pytest.raises(ValueError, match="^r "):
            numeric_min_entropy([], 4)
        # zero restarts used to die inside numpy's minimum reduction
        with pytest.raises(ValueError, match="^restarts "):
            numeric_min_entropy(1.0, 4, restarts=0)
        # zero iterations used to return inf, which no floor can fail
        with pytest.raises(ValueError, match="^iterations "):
            numeric_min_entropy(1.0, 4, iterations=0)
        # a float count used to raise numpy's TypeError mid-setup, and
        # iterations=True ran one step
        for v in (4.0, 4.5, True):
            with pytest.raises(ValueError, match="^v: .*integer"):
                numeric_min_entropy(1.0, v)
        for restarts in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="^restarts .*integer"):
                numeric_min_entropy(1.0, 4, restarts=restarts)
        for iterations in (10.0, True):
            with pytest.raises(ValueError, match="^iterations .*integer"):
                numeric_min_entropy(1.0, 4, iterations=iterations)
        # a negative step used to run gradient ascent
        for step in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^step "):
                numeric_min_entropy(1.0, 4, step=step)

    @pytest.mark.parametrize("r", [1.0000001e150, 1.4e154, [1.0, 1e300]])
    def test_budget_above_the_limit_is_refused(self, r):
        """Such a budget used to overflow the row norms and warn of a
        division by zero."""
        with pytest.raises(ValueError, match=r"^r: .*\(0, 1e\+150\]"):
            numeric_min_entropy(r, 2)

    def test_budget_at_the_limit_runs_clean(self):
        got = numeric_min_entropy([1e150, 1.0], 2, restarts=16, iterations=1500)
        for r, h in zip((1e150, 1.0), got):
            assert h >= entropy_lower_bound(BoundParams.from_budget(r, 2)) - 1e-6

    @pytest.mark.parametrize("r", [1e-200, 1e-320])
    def test_underflowing_budget_runs_clean(self, r):
        """A budget this small underflows a row's squared norm to 0, and the
        projection used to warn of a division by zero."""
        h = numeric_min_entropy(r, 4, restarts=2, iterations=5)
        assert h >= entropy_lower_bound(BoundParams.from_budget(r, 4)) - 1e-6

    def test_value_is_the_best_along_the_trajectory(self):
        """One more iteration extends the same trajectories, so the best
        entropy seen can only fall, even when large steps make each
        trajectory's entropy jump about."""
        values = [numeric_min_entropy([1.0, 4.0], 16, restarts=4, iterations=k, step=50.0)
                  for k in range(1, 25)]
        for a, b in zip(values, values[1:]):
            assert b[0] <= a[0] and b[1] <= a[1]
        assert values[-1] < values[0]

    @pytest.mark.parametrize("v", [2, 8, 1024])
    def test_batched_budgets_equal_single_calls(self, v, exp_rows):
        """Under the larger cap the rows of these budgets stop in different
        windows, and each stop moves the live rows to the front; no row's
        value moves. Under the smaller one, rows still descending are cut
        off too."""
        radii = [1e-200, 0.5, 2.0, 8.0, 30.0, 1e150]
        for iterations in (150, 600):
            exp_rows.clear()
            batched = numeric_min_entropy(radii, v, restarts=6, iterations=iterations,
                                          seed=3)
            assert len(set(exp_rows)) >= (2 if iterations == 150 else 4)
            single = [numeric_min_entropy(r, v, restarts=6, iterations=iterations, seed=3)
                      for r in radii]
            assert batched == single
            assert isinstance(batched, list) and all(type(h) is float for h in batched)
            assert numeric_min_entropy((2.0,), v, restarts=6, iterations=iterations,
                                       seed=3) == [single[2]]

    def test_iterations_is_a_cap(self, exp_rows):
        """A call returns once every row has stalled, so a larger cap changes
        nothing; below that, each step of the cap extends the trajectories,
        across the stall checks too."""
        caps = (49, 50, 51, 99, 100, 101, 1000, 5000)
        values = [numeric_min_entropy([1.0, 30.0], 16, restarts=4, iterations=k)
                  for k in caps]
        for a, b in zip(values, values[1:]):
            assert b[0] <= a[0] and b[1] <= a[1]
        assert values[-1] == values[-2]
        exp_rows.clear()
        numeric_min_entropy([1.0, 30.0], 16, restarts=4, iterations=5000)
        assert len(exp_rows) < 1000 and len(exp_rows) % 50 == 0

    def test_a_row_that_never_stalls_runs_every_iteration(self, exp_rows):
        """A tiny step keeps the best entropy falling by far more than the
        stall tolerance, so the rows run to the cap, one exp per step."""
        numeric_min_entropy(1.0, 16, restarts=2, iterations=301, step=1e-6)
        assert exp_rows == [2] * 301

    def test_step_allocates_nothing_per_row(self, exp_rows):
        """The peak holds the iterate and two scratch arrays of its shape;
        the step used to peak at about 8 such arrays. Moving the live rows
        to the front, once others have stopped, allocates none either."""
        rows, v = 16, 1024
        numeric_min_entropy(1.0, v, restarts=rows, iterations=3)
        exp_rows.clear()
        numeric_min_entropy([1e-200, 30.0], v, restarts=rows // 2, iterations=300)
        assert exp_rows[0] == rows and 0 < exp_rows[-1] < rows
        for r, restarts, iterations in ((1.0, rows, 20), ([1e-200, 30.0], rows // 2, 300)):
            tracemalloc.start()
            try:
                numeric_min_entropy(r, v, restarts=restarts, iterations=iterations)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * rows * v * 8 + 64 * 1024

    @pytest.mark.parametrize("v, inside", [(64, 4096), (256, 16)])
    def test_caller_ufunc_buffer_is_restored(self, monkeypatch, v, inside):
        """Rows of 128 entries or more descend at the small ufunc buffer,
        shorter ones at the caller's; either way the caller gets its own
        size back, also when the descent raises."""
        seen = []

        def failing_vecdot(*args, **kwargs):
            seen.append(np.getbufsize())
            raise RuntimeError("vecdot failed")

        saved = np.setbufsize(4096)
        try:
            numeric_min_entropy(1.0, v, restarts=2, iterations=3)
            assert np.getbufsize() == 4096
            monkeypatch.setattr(np, "vecdot", failing_vecdot)
            with pytest.raises(RuntimeError, match="vecdot failed"):
                numeric_min_entropy(1.0, v, restarts=2, iterations=3)
            assert np.getbufsize() == 4096
            assert seen == [inside]
        finally:
            np.setbufsize(saved)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v", [2, 3, 100, 127, 128, 1000])
    def test_row_lengths_around_the_buffer_run_clean(self, v):
        """Rows on either side of the buffer rule, and rows that end part
        way through a 16-element buffer."""
        radii = [1e-200, 1.0, 1e150]
        got = numeric_min_entropy(radii, v, restarts=3, iterations=20)
        for r, h in zip(radii, got):
            assert h >= entropy_lower_bound(BoundParams.from_budget(r, v)) - 1e-6

    @pytest.mark.parametrize("v", [2, 64, 256, 1024])
    def test_step_matches_a_two_exp_descent(self, v):
        """The one-exp step agrees with the textbook step, which takes
        log p = u - log Z and p = exp(log p), to rounding, and so do the
        rows' stops: at step 0.1 the 1e-200 and 1e150 rows stop and the
        others run to the cap, at the default step every row stops."""
        radii = np.repeat([1e-200, 1.0, 4.0, 1e150], 3)
        start = np.random.default_rng(5).standard_normal((radii.size, v))
        start *= (radii / np.linalg.norm(start, axis=1))[:, None]
        for step in (0.1, 4.0):
            got = _descend(start.copy(), radii, 400, step)
            want = _two_exp_descent(start.copy(), radii, 400, step)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _two_exp_descent(u, radii, iterations, step):
    """Projected gradient descent on the entropy of each row's softmax,
    written plainly, one row at a time: each step moves the row
    step * r / (1 + r) along its normalised negative gradient, and the row
    stops once its best entropy fell by no more than a relative 1e-15 over
    the last 50 steps. Returns each row's least entropy along the way."""
    best = np.full(len(u), math.inf)
    with np.errstate(divide="ignore"):
        for i, r in enumerate(radii):
            row, prev = u[i], math.inf
            for t in range(1, iterations + 1):
                m = row.max()
                logp = row - (m + np.log(np.exp(row - m).sum()))
                p = np.exp(logp)
                h = -(p * logp).sum()
                best[i] = min(best[i], h)
                grad = -p * (logp + h)
                norm = np.sqrt(grad @ grad)
                if norm > 0:
                    row = row - step * r / (1 + r) * grad / norm
                row = row * min(r / np.sqrt(row @ row), 1.0)
                if t % 50 == 0:
                    if best[i] >= prev * (1 - 1e-15):
                        break
                    prev = best[i]
    return best


class TestOracleTightness:
    """The oracle reaches the closed-form floor, not only stays above it:
    within 1e-9 of the floor, relative, on both of the repo's grids."""

    def test_criterion_7_grid(self):
        radii = (0.5, 2.0, 8.0)
        for v in (8, 64, 1024):
            for r, h in zip(radii, numeric_min_entropy(radii, v)):
                floor = entropy_lower_bound(BoundParams.from_budget(r, v))
                assert abs(h - floor) <= 1e-9 * floor, f"v={v} r={r}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analysis_grid(self, seed):
        """The bench's `analysis` sweep: d 16 and 64, v 256 and 1024, rho
        0.5, 16 restarts and 1500 iterations."""
        for v in (256, 1024):
            params = [BoundParams(0.5, 1.0, d, v) for d in (16, 64)]
            got = numeric_min_entropy([p.r for p in params], v, restarts=16,
                                      iterations=1500, seed=seed)
            for p, h in zip(params, got):
                floor = entropy_lower_bound(p)
                assert abs(h - floor) <= 1e-9 * floor, f"v={v} d={p.d}"


class TestNormalizedGap:
    def test_grows_with_hidden_size(self):
        gaps = [normalized_gap(BoundParams(0.5, 1.0, d, 128))
                for d in (1, 8, 64, 512)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_shrinks_with_vocabulary(self):
        gaps = [normalized_gap(BoundParams(0.5, 1.0, 64, v))
                for v in (4, 32, 256, 2048)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestEffectiveParams:
    def test_identity_transform(self):
        p = BoundParams(1.0, 1.0, 16, 64)
        assert effective_params(p, temperature=1.0) == p
        assert effective_params(p) == p

    def test_temperature_divides_budget(self):
        p = BoundParams.from_budget(4.0, 16)
        q = effective_params(p, temperature=2.0)
        assert q.r == pytest.approx(2.0, rel=1e-12)
        assert entropy_lower_bound(q) > entropy_lower_bound(p)

    def test_sharpening_temperature_lowers_floor(self):
        p = BoundParams.from_budget(1.0, 16)
        q = effective_params(p, temperature=0.5)
        assert q.r == pytest.approx(2.0, rel=1e-12)
        assert entropy_lower_bound(q) < entropy_lower_bound(p)

    def test_inactive_softcap_is_identity(self):
        p = BoundParams.from_budget(2.0, 16)
        assert effective_params(p, softcap=1.0) == p  # cap*sqrt(v) = 4 >= 2

    def test_active_softcap_caps_budget(self):
        p = BoundParams.from_budget(40.0, 16)
        q = effective_params(p, softcap=1.0)
        assert q.r == pytest.approx(4.0, rel=1e-12)

    def test_nonpositive_transforms_rejected(self):
        p = BoundParams.from_budget(1.0, 4)
        with pytest.raises(ValueError):
            effective_params(p, temperature=0.0)
        with pytest.raises(ValueError):
            effective_params(p, softcap=-1.0)

    def test_non_finite_transforms_rejected(self):
        p = BoundParams.from_budget(1.0, 4)
        for name in ("temperature", "softcap"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=name):
                    effective_params(p, **{name: bad})
        with pytest.raises(ValueError, match="overflows"):
            effective_params(p, temperature=1e-320)

    def test_budget_invariant_maintained(self):
        q = effective_params(BoundParams(0.8, 1.1, 25, 77), temperature=3.0)
        assert q.r == pytest.approx(q.rho * math.sqrt(q.d), rel=1e-12)


class TestEngineMeetsTheFloor:
    """A head trained by the blocked engine under the norm budget of
    `BoundParams` never goes below the closed-form floor."""

    SIGMA_C, SIGMA_H, STEPS = 4.0, 1.0, 200

    def _project(self, e, c):
        """Clip E entrywise to sigma_h and scale C down to spectral norm
        sigma_c, so every logit vector has ||C^T h|| <= sigma_c sigma_h sqrt(d)."""
        np.clip(e, -self.SIGMA_H, self.SIGMA_H, out=e)
        top = np.linalg.norm(c, 2)
        if top > self.SIGMA_C:
            c *= self.SIGMA_C / top

    @staticmethod
    def _token_entropies(e, c):
        z = c.T @ e
        z -= z.max(axis=0)
        w = np.exp(z)
        s = w.sum(axis=0)
        return np.log(s) - (w * z).sum(axis=0) / s

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    @pytest.mark.parametrize("d", [2, 8, 32])
    @pytest.mark.parametrize("v", [16, 256])
    def test_descent_never_undercuts_the_floor(self, v, d, beta):
        n = 64
        emb, cls, x = random_instance(7, n, v, d, 0.5)
        plan = plan_blocks(n, v, d, workers=1)
        floor = entropy_lower_bound(BoundParams(self.SIGMA_C, self.SIGMA_H, d, v))
        e, c = emb.data.copy(), cls.data.copy()
        self._project(e, c)
        start = lowest = self._token_entropies(e, c).min()
        for _ in range(self.STEPS):
            _, grads, _ = loss_and_grad(DenseMatrix.from_array(e), DenseMatrix.from_array(c),
                                        x, beta, plan, reduction="mean")
            # a step of n moves each token's column as a unit step on the sum would
            e -= n * grads.grad_e.data
            c -= n * grads.grad_c.data
            self._project(e, c)
            low = self._token_entropies(e, c).min()
            assert low >= floor - 1e-9
            lowest = min(lowest, low)
        assert lowest < start
