"""Tests for the sup-absolute-Brownian-bridge limit law."""

import math

import numpy as np
import pytest

from meanbreak.dist import bridge_sup_cdf, bridge_sup_quantile, p_value


class TestCdf:
    def test_golden_values(self):
        assert bridge_sup_cdf(1.225) == pytest.approx(0.9005625, abs=1e-6)
        assert bridge_sup_cdf(1.359) == pytest.approx(0.9502443, abs=1e-6)
        assert bridge_sup_cdf(1.628) == pytest.approx(0.9900245, abs=1e-6)

    def test_zero_and_negative(self):
        assert bridge_sup_cdf(0.0) == 0.0
        assert bridge_sup_cdf(-3.0) == 0.0

    def test_monotone_on_dense_grid(self):
        grid = np.linspace(1e-3, 5.0, 2000)
        values = [bridge_sup_cdf(z) for z in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_limit_at_infinity(self):
        assert bridge_sup_cdf(6.0) > 1.0 - 1e-12

    def test_two_terms_suffice_for_z_at_least_one(self):
        for z in np.linspace(1.0, 4.0, 50):
            two_terms = 1.0 - 2.0 * math.exp(-2.0 * z * z) + 2.0 * math.exp(-8.0 * z * z)
            assert bridge_sup_cdf(z) == pytest.approx(two_terms, abs=1e-6)

    def test_independent_series_oracle(self):
        # Direct high-order evaluation of the alternating series, written
        # separately from the implementation.
        for z in (0.5, 0.8, 1.225, 1.7, 2.5):
            ref = 1.0 + 2.0 * sum(
                (-1.0) ** k * math.exp(-2.0 * k * k * z * z) for k in range(1, 400)
            )
            assert bridge_sup_cdf(z) == pytest.approx(ref, abs=1e-13)

    def test_small_z_matches_long_plain_series(self):
        # Independent oracle: the plain alternating series carried far enough
        # to converge even where the default evaluation switches forms.
        for z in (0.25, 0.3, 0.4, 0.49, 0.51):
            ref = 1.0 + 2.0 * sum(
                (-1.0) ** k * math.exp(-2.0 * k * k * z * z) for k in range(1, 2000)
            )
            assert bridge_sup_cdf(z) == pytest.approx(ref, abs=1e-13)

    def test_tiny_z_is_essentially_zero(self):
        assert bridge_sup_cdf(0.001) == 0.0
        assert bridge_sup_cdf(0.1) < 1e-40

    def test_z_below_every_theta_term_is_zero(self):
        # 8 z^2 underflows to 0 here: the series must not be evaluated.
        assert bridge_sup_cdf(5e-324) == 0.0
        assert bridge_sup_cdf(1e-200) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            bridge_sup_cdf(math.nan)


class TestPValue:
    def test_zero_statistic(self):
        assert p_value(0.0) == 1.0

    def test_golden_complement(self):
        assert p_value(1.359) == pytest.approx(0.0497557, abs=1e-6)

    def test_extreme_statistic_underflows(self):
        assert p_value(10.0) < 1e-80

    def test_negative_statistic_rejected(self):
        with pytest.raises(ValueError):
            p_value(-0.1)

    def test_smallest_statistic_has_p_value_one(self):
        assert p_value(5e-324) == 1.0

    def test_nan_statistic_rejected(self):
        with pytest.raises(ValueError):
            p_value(math.nan)


class TestQuantile:
    def test_golden_quantiles(self):
        assert bridge_sup_quantile(0.90) == pytest.approx(1.225, abs=5e-3)
        assert bridge_sup_quantile(0.95) == pytest.approx(1.359, abs=5e-3)
        assert bridge_sup_quantile(0.99) == pytest.approx(1.628, abs=5e-3)

    def test_round_trip(self):
        probs = [0.01, 0.05] + [round(0.1 * k, 1) for k in range(1, 10)] + [0.95, 0.99]
        for p in probs:
            assert bridge_sup_cdf(bridge_sup_quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_domain(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                bridge_sup_quantile(p)
