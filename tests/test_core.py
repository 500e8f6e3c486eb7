"""Tests for data transforms, null estimates, the CUSUM path, and the test."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanbreak
from meanbreak import dist
from meanbreak.core import (
    DegenerateSeriesError,
    _cusum_rows,
    _cusum_sup,
    InsufficientDataError,
    absolute_transform,
    compute_returns,
    cusum_path,
    lm_test,
    null_estimates,
)
from meanbreak.montecarlo import ExperimentConfig, run_experiment
from meanbreak.signals import MeanSpec, SigmaSpec


class TestComputeReturns:
    def test_constant_prices(self):
        np.testing.assert_array_equal(compute_returns([1.0, 1.0, 1.0]), [0.0, 0.0])

    def test_log_unit(self):
        np.testing.assert_allclose(compute_returns([1.0, math.e]), [1.0], rtol=1e-15)

    def test_hand_values(self):
        out = compute_returns([100.0, 101.0, 99.0])
        np.testing.assert_allclose(
            out, [math.log(101.0 / 100.0), math.log(99.0 / 101.0)], rtol=1e-12
        )
        np.testing.assert_allclose(
            out, [0.0099503309, -0.0200006667], atol=1e-10
        )

    def test_nonpositive_price_names_index(self):
        with pytest.raises(ValueError, match="index 2"):
            compute_returns([1.0, 2.0, 0.0, 3.0])
        with pytest.raises(ValueError, match="index 0"):
            compute_returns([-1.0, 2.0])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            compute_returns([1.0])


class TestAbsoluteTransform:
    def test_examples(self):
        np.testing.assert_array_equal(absolute_transform([-1.0, 2.0, 0.0]), [1, 2, 0])
        np.testing.assert_array_equal(absolute_transform([0.5]), [0.5])
        np.testing.assert_array_equal(absolute_transform([-0.02, 0.01]), [0.02, 0.01])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            absolute_transform([1.0, float("nan")])


class TestNullEstimates:
    def test_constant(self):
        est = null_estimates([1.0, 1.0, 1.0, 1.0])
        assert est.mu_hat == 1.0
        assert est.sigma2_hat == 0.0

    @pytest.mark.parametrize("n", [3, 30, 100, 1000])
    def test_constant_is_exact_when_the_mean_does_not_round_back(self, n):
        # The plain mean of n copies of 0.1 is not 0.1; the kernel reports the
        # value itself and a zero variance, not rounding residue.
        est = null_estimates(np.full(n, 0.1))
        assert (est.mu_hat, est.sigma2_hat) == (0.1, 0.0)

    def test_symmetric_pair(self):
        est = null_estimates([-1.0, 1.0])
        assert est.mu_hat == 0.0
        assert est.sigma2_hat == 1.0

    def test_divisor_is_n(self):
        est = null_estimates([0.0, 1.0, 2.0, 3.0])
        assert est.mu_hat == pytest.approx(1.5)
        assert est.sigma2_hat == pytest.approx(1.25)  # not 5/3

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            null_estimates([1.0])


class TestCusumPath:
    def test_symmetric_pair(self):
        path = cusum_path([-1.0, 1.0])
        np.testing.assert_allclose(
            path.points, [0.0, -0.7071067811865475, 0.0], atol=1e-15
        )
        assert path.scale == 1.0

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            cusum_path([5.0, 5.0, 5.0])

    def test_hand_path(self):
        path = cusum_path([0.0, 0.0, 3.0, 3.0])
        np.testing.assert_allclose(path.points, [0.0, -0.5, -1.0, -0.5, 0.0], atol=1e-15)
        assert path.scale == pytest.approx(1.5)

    def test_endpoints_exactly_zero_long_series(self):
        rng = np.random.default_rng(7)
        y = np.exp(rng.standard_normal(1_000_000)) + 100.0
        path = cusum_path(y)
        assert path.points[0] == 0.0
        assert path.points[-1] == 0.0
        assert np.all(np.isfinite(path.points))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            cusum_path(np.zeros((3, 3)))


class TestLmTest:
    def test_hand_example(self):
        out = lm_test([0.0, 0.0, 3.0, 3.0], alpha=0.05)
        assert out.statistic == pytest.approx(1.0, abs=1e-15)
        assert out.p_value == pytest.approx(0.270, abs=1e-3)
        assert out.p_value == pytest.approx(dist.p_value(1.0), abs=1e-15)
        assert out.break_index == 2
        assert out.reject is False
        assert out.alpha == 0.05

    def test_symmetric_pair(self):
        out = lm_test([-1.0, 1.0], alpha=0.05)
        assert out.statistic == pytest.approx(0.7071067811865475, abs=1e-12)
        assert out.break_index == 1

    @pytest.mark.parametrize("n", [3, 30, 100, 1000])
    def test_constant_series_is_degenerate(self, n):
        # The mean of n copies of 0.1 does not round back to 0.1.
        with pytest.raises(DegenerateSeriesError):
            lm_test(np.full(n, 0.1))

    def test_tie_breaks_to_smallest_index(self):
        out = lm_test([0.0, 0.0, 3.0, 3.0])
        assert out.break_index == 2  # |points| peaks only at k=2 here
        # symmetric two-peak path: [-1, 1, -1, 1] gives |B| equal at k=1,3
        out2 = lm_test([-1.0, 1.0, -1.0, 1.0])
        assert out2.break_index == 1

    def test_alpha_domain(self):
        for alpha in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                lm_test([-1.0, 1.0], alpha=alpha)

    def test_reject_consistent_with_p_value(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            out = lm_test(rng.standard_normal(60), alpha=0.10)
            assert out.reject == (out.p_value < 0.10)

    def test_large_break_rejected(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(500)
        y[250:] += 1.0
        out = lm_test(y, alpha=0.01)
        assert out.reject is True
        assert 1 <= out.break_index <= 499


STEP = np.concatenate([np.zeros(50), np.ones(50)])


class TestScale:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-5, 1.0, 1e5, 1e160, 1e300])
    def test_step_found_at_any_scale(self, scale):
        out = lm_test(scale * STEP)
        assert out.statistic == pytest.approx(5.0, rel=1e-9)
        assert out.break_index == 50
        assert out.reject is True

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_step_path_at_extreme_scales(self, scale):
        path = cusum_path(scale * STEP)
        np.testing.assert_allclose(path.points, cusum_path(STEP).points, rtol=1e-12, atol=1e-12)
        assert path.scale == pytest.approx(0.5 * scale, rel=1e-12)

    def test_variance_past_float_range_is_inf(self):
        est = null_estimates(1e300 * STEP)
        assert est.mu_hat == pytest.approx(0.5e300, rel=1e-15)
        assert est.sigma2_hat == math.inf

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(29)
        y = rng.standard_normal(300) + 4.0
        base, est = lm_test(y), null_estimates(y)
        for k in (-900, -40, 3, 40, 900):
            other = lm_test(np.ldexp(y, k))
            assert other.statistic == base.statistic
            assert other.break_index == base.break_index
            assert null_estimates(np.ldexp(y, k)).mu_hat == math.ldexp(est.mu_hat, k)


class TestCusumRows:
    def test_rows_match_lm_test_and_constant_row_is_flagged(self):
        rng = np.random.default_rng(31)
        y = rng.standard_normal((6, 40)) + np.array([[0.0], [1.0], [5.0], [-2.0], [0.0], [0.0]])
        y[1, 20:] += 1.5
        y[2] = 3.0
        y[3] *= 1e-300
        y[4] *= 1e300
        rows = _cusum_rows(y)
        assert rows.degenerate.tolist() == [False, False, True, False, False, False]
        for i in (0, 1, 3, 4, 5):
            out, est = lm_test(y[i]), null_estimates(y[i])
            assert rows.statistic[i] == out.statistic
            assert rows.break_index[i] == out.break_index
            assert rows.mu_hat[i] == est.mu_hat
            assert rows.sigma2_hat[i] == est.sigma2_hat
            assert (out.mu_hat, out.sigma2_hat) == (est.mu_hat, est.sigma2_hat)
            np.testing.assert_array_equal(rows.points[i], cusum_path(y[i]).points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_value(self, bad):
        y = np.ones((3, 5))
        y[2, 4] = bad
        with pytest.raises(ValueError, match="non-finite value at index 4"):
            _cusum_rows(y)
        with pytest.raises(ValueError, match="non-finite value at index 4"):
            lm_test(y[2])


class TestCusumSup:
    """The Monte Carlo engine's statistic: ``_cusum_rows(y).statistic``
    computed in place, with a sum of squares that calls no BLAS routine."""

    @pytest.mark.parametrize("n", [2, 3, 30, 1001, 2**14 + 1, 100_000])
    def test_matches_cusum_rows_within_4_ulps(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((6, n)) + np.linspace(0.0, 1.0, n)
        y[1] *= 1e-300
        y[2] *= 1e300
        y[3] = -2.5
        ref = _cusum_rows(y).statistic
        got = _cusum_sup(y.copy())
        assert np.isnan(got[3]) and np.isnan(ref[3])
        tested = [0, 1, 2, 4, 5]
        assert np.all(np.abs(got[tested] - ref[tested]) <= 4 * np.spacing(ref[tested]))

    def test_bits_do_not_depend_on_blas_threads(self):
        # Above about 10,000 values a BLAS dot product splits over threads,
        # and its bits change with the thread count.
        code = (
            "import numpy as np; from meanbreak.core import _cusum_sup; "
            "y = np.random.default_rng(2024).standard_normal((3, 100_000)); "
            "y += np.linspace(0.0, 0.05, 100_000); "
            "print([float(s).hex() for s in _cusum_sup(y)])"
        )
        src = str(Path(meanbreak.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_overflowing_design_raises(self):
        huge = ("huge", MeanSpec.constant(0.0), SigmaSpec.constant(1e308))
        config = ExperimentConfig(series=(huge,), sample_sizes=(30,), replications=20)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite value"):
            run_experiment(config)


finite_series = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=3,
    max_size=60,
).filter(lambda xs: np.asarray(xs).std() > 1e-6)


class TestProperties:
    @given(
        ys=finite_series,
        a=st.floats(min_value=-100.0, max_value=100.0),
        b=st.floats(min_value=0.01, max_value=100.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_shift_scale_invariance(self, ys, a, b, sign):
        y = np.asarray(ys)
        base = lm_test(y)
        other = lm_test(a + sign * b * y)
        assert other.statistic == pytest.approx(base.statistic, rel=1e-9, abs=1e-9)
        assert other.p_value == pytest.approx(base.p_value, rel=1e-9, abs=1e-12)
        assert other.break_index == base.break_index

    @given(
        ys=finite_series,
        exponent=st.integers(min_value=-300, max_value=300),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance_over_float_range(self, ys, exponent, sign):
        y = np.asarray(ys)
        base = lm_test(y)
        other = lm_test(sign * 10.0**exponent * y)
        assert other.statistic == pytest.approx(base.statistic, rel=1e-9, abs=1e-9)
        assert other.p_value == pytest.approx(base.p_value, rel=1e-9, abs=1e-12)
        assert other.break_index == base.break_index

    @given(ys=finite_series)
    @settings(max_examples=150, deadline=None)
    def test_reversal_symmetry(self, ys):
        y = np.asarray(ys)
        forward = lm_test(y).statistic
        backward = lm_test(y[::-1]).statistic
        assert backward == pytest.approx(forward, rel=1e-9, abs=1e-9)

    def test_appending_shifted_copy_never_decreases_statistic(self):
        # Appending a mean-shifted copy of the series creates a shift at the
        # join, which can only add signal for the sup-CUSUM statistic.
        rng = np.random.default_rng(17)
        for _ in range(100):
            y = rng.standard_normal(100)
            delta = rng.uniform(0.5, 3.0)
            base = lm_test(y).statistic
            doubled = lm_test(np.concatenate([y, y + delta])).statistic
            assert doubled >= base - 1e-12

    def test_null_statistic_matches_limit_law(self):
        # i.i.d. N(0,1) data at n=1000: empirical law of the statistic is
        # within KS distance 0.05 of the limiting bridge-sup law.
        rng = np.random.default_rng(23)
        reps, n = 5000, 1000
        stats = np.empty(reps)
        for r in range(reps):
            stats[r] = lm_test(rng.standard_normal(n)).statistic
        stats.sort()
        cdf = np.array([dist.bridge_sup_cdf(s) for s in stats])
        grid = np.arange(1, reps + 1) / reps
        ks = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1.0 / reps)).max())
        assert ks < 0.05
