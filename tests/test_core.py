"""Tests for data transforms, null estimates, the CUSUM path, and the test."""

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meanbreak
from meanbreak import dist
from meanbreak.core import (
    DegenerateSeriesError,
    _cusum,
    _cusum_sup,
    InsufficientDataError,
    NullEstimates,
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

    def test_builds_no_path(self):
        # One centred copy of the series is all the estimates need; the test
        # also builds the path and the grid k/n.
        y = np.random.default_rng(3).standard_normal(1_000_000)

        def peak(function):
            tracemalloc.start()
            try:
                function(y)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(null_estimates) < 1.1 * y.nbytes < peak(lm_test) / 2
        out, est = lm_test(y), null_estimates(y)
        assert (est.mu_hat, est.sigma2_hat) == (out.mu_hat, out.sigma2_hat)


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


# Statistic, p-value, break index, mu_hat, sigma2_hat, path scale and a
# hash of the path's bytes, of the seeded series of ``recorded_series``.  At
# these sizes the sum of squares runs BLAS ddot on one thread whatever the
# thread count, so the bits hold on any.
RECORDED_BITS = {
    2: ("0x1.6a09e667f3bccp-1", "0x1.66146001de290p-1", 1,
        "0x1.c5273713f08f4p+1", "0x1.f9393265bb8fep-4",
        "0x1.67a282ef83044p-2", "741279f78dcc638a"),
    3: ("0x1.f988a23c4dd61p-2", "0x1.ef88d3802460dp-1", 1,
        "0x1.de692cac62acbp+1", "0x1.295f3d06f5213p+1",
        "0x1.8632afec8b79ap+0", "32744c520d1af7c1"),
    30: ("0x1.0a46536f57573p+0", "0x1.d5e2202fe58c8p-3", 21,
        "0x1.aab09bd248096p+1", "0x1.a150f25a5aad0p-1",
        "0x1.ce3d76031e53ep-1", "0253790158721acc"),
    1000: ("0x1.a1f7ef5dfdf82p-1", "0x1.091c2c1a221a2p-1", 356,
        "0x1.82a565c074736p+1", "0x1.d8fd59c9c652ep-1",
        "0x1.ec1bc1b55d173p-1", "a1601477f0948444"),
    9999: ("0x1.3928c3d8287b1p-1", "0x1.b26f64ab3d7fcp-1", 5456,
        "0x1.82cf50ff11c69p+1", "0x1.010c052cf656ep+0",
        "0x1.0085df9570e4fp+0", "8db5b9b32820f74f"),
}


def recorded_series(n):
    y = np.random.default_rng(n).standard_normal(n) + 3.0
    y[n // 2:] += 2.0 / np.sqrt(n)
    return y


class TestRecordedBits:
    @pytest.mark.parametrize("n", sorted(RECORDED_BITS))
    def test_kernel_bits(self, n):
        y = recorded_series(n)
        out, est, path = lm_test(y), null_estimates(y), cusum_path(y)
        got = (
            out.statistic.hex(), out.p_value.hex(), out.break_index,
            out.mu_hat.hex(), out.sigma2_hat.hex(), path.scale.hex(),
            hashlib.sha256(path.points.tobytes()).hexdigest()[:16],
        )
        assert got == RECORDED_BITS[n]
        assert (est.mu_hat.hex(), est.sigma2_hat.hex()) == got[3:5]


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
    """The three public functions agree with one another on each row."""

    def test_rows_match_lm_test_and_constant_row_is_flagged(self):
        rng = np.random.default_rng(31)
        y = rng.standard_normal((6, 40)) + np.array([[0.0], [1.0], [5.0], [-2.0], [0.0], [0.0]])
        y[1, 20:] += 1.5
        y[2] = 3.0
        y[3] *= 1e-300
        y[4] *= 1e300
        for i in (0, 1, 3, 4, 5):
            out, est, path = lm_test(y[i]), null_estimates(y[i]), cusum_path(y[i])
            assert (out.mu_hat, out.sigma2_hat) == (est.mu_hat, est.sigma2_hat)
            abs_points = np.abs(path.points)
            assert abs_points.max() == out.statistic
            assert abs_points.argmax() == out.break_index
        with pytest.raises(DegenerateSeriesError, match="series is constant"):
            lm_test(y[2])
        with pytest.raises(DegenerateSeriesError, match="series is constant"):
            cusum_path(y[2])
        assert null_estimates(y[2]) == NullEstimates(mu_hat=3.0, sigma2_hat=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_value(self, bad):
        y = np.ones((3, 5))
        y[2, 4] = bad
        for function in (lm_test, null_estimates, cusum_path):
            with pytest.raises(ValueError, match="non-finite value at index 4"):
                function(y[2])


class TestCusumSup:
    """The Monte Carlo engine's statistic: the ``_cusum`` statistic of each
    row, computed in place, with a sum of squares that calls no BLAS routine."""

    @pytest.mark.parametrize("n", [2, 3, 30, 1001, 2**14 + 1, 100_000])
    def test_matches_cusum_rows_within_4_ulps(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((6, n)) + np.linspace(0.0, 1.0, n)
        y[1] *= 1e-300
        y[2] *= 1e300
        y[3] = -2.5
        got = _cusum_sup(y.copy(), np.arange(1, n + 1) / n)
        assert np.isnan(got[3])
        with pytest.raises(DegenerateSeriesError):
            _cusum(y[3])
        for i in (0, 1, 2, 4, 5):
            ref = _cusum(y[i])[0]
            assert abs(got[i] - ref) <= 4 * np.spacing(ref)

    def test_bits_do_not_depend_on_blas_threads(self):
        # Above about 10,000 values a BLAS dot product splits over threads,
        # and its bits change with the thread count.
        code = (
            "import numpy as np; from meanbreak.core import _cusum_sup; "
            "y = np.random.default_rng(2024).standard_normal((3, 100_000)); "
            "y += np.linspace(0.0, 0.05, 100_000); "
            "print([float(s).hex() for s in _cusum_sup(y, np.arange(1, 100_001) / 100_000)])"
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


def assert_attains_max(y, break_index):
    """``break_index`` attains max |B(k/n)| of ``y`` to within float
    resolution: a transformed series may pick either side of a near-tie.
    Where the maximum is unique, only the argmax passes."""
    path = np.abs(cusum_path(y).points)
    assert path[break_index] >= path.max() * (1.0 - 1e-9)


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
        assert_attains_max(y, other.break_index)

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
        assert_attains_max(y, other.break_index)

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


def exact_bridge(values):
    """The squared bridge B(k/n)^2 = (S_k - (k/n) S_n)^2 / (n sigma2_hat), k =
    0..n, of a nonconstant integer series, as exact fractions."""
    n = len(values)
    mean = Fraction(sum(values), n)
    sigma2 = sum((v - mean) ** 2 for v in values) / n
    partial = [0]
    for v in values:
        partial.append(partial[-1] + v)
    return [(s - Fraction(k, n) * partial[n]) ** 2 / (n * sigma2) for k, s in enumerate(partial)]


def exact_sqrt(square: Fraction) -> Fraction:
    with localcontext() as context:
        context.prec = 60
        return Fraction((Decimal(square.numerator) / Decimal(square.denominator)).sqrt())


class TestExactOracle:
    """Both CUSUM kernels against exact rational arithmetic on small-integer
    series, whose statistic and break index are known exactly."""

    @given(ys=st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=200)
           .filter(lambda ys: len(set(ys)) > 1))
    @example(ys=[1] + [0] * 30)  # the maximum at k = 1
    @example(ys=[0] * 30 + [1])  # and at k = n - 1
    @settings(max_examples=200, deadline=None)
    def test_statistic_and_break_index(self, ys):
        n = len(ys)
        squares = exact_bridge(ys)
        top = max(squares)
        exact = exact_sqrt(top)
        ulp = Fraction(math.ulp(float(exact)))
        outcome = lm_test(np.array(ys, dtype=float))
        sup = _cusum_sup(np.array([ys], dtype=float), np.arange(1, n + 1) / n)[0]
        for statistic in (outcome.statistic, sup):
            assert abs(Fraction(statistic) - exact) <= 2 * n * ulp
        first = squares.index(top)
        runner_up = max(square for k, square in enumerate(squares) if k != first)
        if 1.0 - math.sqrt(runner_up / top) > 1e-12:  # exact ties may go either way
            assert outcome.break_index == first

    # The integer sum is exact, so mu_hat is the correctly rounded mean.
    # sigma2_hat's largest error over 60,000 seeded series of this grid was
    # 0.80 n ulps (12.1 ulps), from the rounded mean, squares and sum.
    @given(ys=st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=200)
           .filter(lambda ys: len(set(ys)) > 1))
    @example(ys=[1] + [0] * 30)
    @example(ys=[-11, 48, 48])
    @settings(max_examples=200, deadline=None)
    def test_mean_and_variance(self, ys):
        n = len(ys)
        mean = Fraction(sum(ys), n)
        variance = sum((v - mean) ** 2 for v in ys) / n
        y = np.array(ys, dtype=float)
        outcome, estimates = lm_test(y), null_estimates(y)
        for mu_hat, sigma2_hat in ((outcome.mu_hat, outcome.sigma2_hat),
                                   (estimates.mu_hat, estimates.sigma2_hat)):
            assert abs(Fraction(mu_hat) - mean) <= Fraction(math.ulp(float(mean))) / 2
            assert abs(Fraction(sigma2_hat) - variance) <= n * Fraction(math.ulp(float(variance)))
