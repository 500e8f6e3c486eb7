"""Tests for the drift function, limiting variances, and the partial-sum
process diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanbreak import asymptotics
from meanbreak.asymptotics import (
    drift_closed_exponential,
    drift_closed_logistic,
    drift_quadrature,
    limit_variance_abrupt,
    limit_variance_smooth,
    partial_variance_limit,
    wn_path,
)
from meanbreak.signals import SigmaSpec, TransitionSpec, ergodic_variance_limit


class TestDriftQuadrature:
    def test_endpoints_zero(self):
        spec = TransitionSpec("logistic", 0.5, 20.0)
        assert drift_quadrature(spec, 0.0) == 0.0
        assert drift_quadrature(spec, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_negative_at_center_for_increasing_transition(self):
        spec = TransitionSpec("logistic", 0.5, 20.0)
        assert drift_quadrature(spec, 0.5) < -1e-3

    def test_tau_domain(self):
        spec = TransitionSpec("logistic", 0.5, 20.0)
        with pytest.raises(ValueError):
            drift_quadrature(spec, -0.1)
        with pytest.raises(ValueError):
            drift_quadrature(spec, 1.1)


    # Values recorded before quadrature integrands took Python floats
    # (x86-64 Linux, glibc libm); the scalar transition path must reproduce
    # them bit for bit.
    @pytest.mark.parametrize("family, tau1, gamma, tau, expected", [
        ("logistic", 0.5, 20.0, 0.3, "-0x1.315899c32ea8ep-3"),
        ("logistic", 0.2, 100.0, 0.77, "-0x1.78d4fdf45d140p-5"),
        ("exponential", 0.5, 20.0, 0.3, "0x1.406477623434ap-4"),
        ("exponential", 0.8, 100.0, 0.61, "0x1.b73493b6b4e70p-4"),
        ("exponential", 0.2, 1e4, 0.5, "-0x1.22661a4eeadc0p-7"),
    ])
    def test_recorded_bits(self, family, tau1, gamma, tau, expected):
        spec = TransitionSpec(family, tau1, gamma)
        assert drift_quadrature(spec, tau).hex() == expected

    def test_mean_of_transition_integrated_once(self, monkeypatch):
        # int_0^1 F is memoised per spec: a 99-point drift grid integrates
        # it once, and an equal spec built separately reuses the value.
        quad, spans = asymptotics._quad, []

        def counting_quad(fn, a, b, interior):
            spans.append((a, b))
            return quad(fn, a, b, interior)

        monkeypatch.setattr(asymptotics, "_quad", counting_quad)
        asymptotics._mean_transition.cache_clear()
        spec = TransitionSpec("exponential", 0.35, 40.0)
        grid = np.linspace(0.01, 0.99, 99).tolist()
        first = [drift_quadrature(spec, t).hex() for t in grid]
        assert len(spans) == 100
        assert spans.count((0.0, 1.0)) == 1

        twin = TransitionSpec("exponential", 0.35, 40.0)
        assert twin is not spec
        assert [drift_quadrature(twin, t).hex() for t in grid] == first
        assert spans.count((0.0, 1.0)) == 1
        # limit_variance_smooth integrates only F^2 over [0, 1] itself.
        limit_variance_smooth(twin, 1.0, 2.0, 1.0)
        assert spans.count((0.0, 1.0)) == 2

    def test_spec_from_numpy_scalars_is_a_memo_key(self):
        plain = TransitionSpec("logistic", 0.5, 20.0)
        numpy_args = TransitionSpec("logistic", np.asarray(0.5), np.int64(20))
        assert numpy_args == plain and hash(numpy_args) == hash(plain)
        assert drift_quadrature(numpy_args, 0.3).hex() == drift_quadrature(plain, 0.3).hex()


class TestClosedForms:
    def test_logistic_examples_match_quadrature(self):
        cases = [((0.5, 20.0), 0.25), ((0.3, 50.0), 0.7)]
        for (tau1, gamma), tau in cases:
            expected = drift_quadrature(TransitionSpec("logistic", tau1, gamma), tau)
            assert drift_closed_logistic(tau1, gamma, tau) == pytest.approx(
                expected, abs=1e-8
            )

    def test_exponential_examples_match_quadrature(self):
        cases = [((0.5, 20.0), 0.5), ((0.2, 100.0), 0.9)]
        for (tau1, gamma), tau in cases:
            expected = drift_quadrature(TransitionSpec("exponential", tau1, gamma), tau)
            assert drift_closed_exponential(tau1, gamma, tau) == pytest.approx(
                expected, abs=1e-8
            )

    def test_endpoints_exactly_zero(self):
        for fn in (drift_closed_logistic, drift_closed_exponential):
            assert fn(0.3, 25.0, 0.0) == pytest.approx(0.0, abs=1e-15)
            assert fn(0.3, 25.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_huge_slope_no_overflow(self):
        value = drift_closed_logistic(0.5, 5000.0, 0.5)
        assert math.isfinite(value)
        assert value == pytest.approx(-0.25, abs=1e-3)  # near the step-drift peak

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            drift_closed_logistic(0.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            drift_closed_exponential(0.5, -1.0, 0.5)

    def test_nondegenerate_drift(self):
        grid = np.linspace(0.01, 0.99, 99)
        for family in ("logistic", "exponential"):
            for tau1 in (0.2, 0.5, 0.8):
                for gamma in (1.0, 20.0, 100.0):
                    if family == "logistic":
                        values = [drift_closed_logistic(tau1, gamma, t) for t in grid]
                    else:
                        values = [drift_closed_exponential(tau1, gamma, t) for t in grid]
                    assert max(abs(v) for v in values) > 1e-6


class TestLimitVariances:
    def test_abrupt_no_shift(self):
        lv = limit_variance_abrupt(0.5, 1.0, 1.0, 2.0)
        assert lv.sigma_star2 == 2.0
        assert lv.shift_term == 0.0

    def test_abrupt_hand_value(self):
        lv = limit_variance_abrupt(0.5, 1.0, 2.0, 1.0)
        assert lv.sigma_star2 == pytest.approx(1.25, rel=1e-12)

    def test_smooth_no_shift(self):
        spec = TransitionSpec("logistic", 0.5, 20.0)
        assert limit_variance_smooth(spec, 1.0, 1.0, 1.0).sigma_star2 == pytest.approx(1.0)

    def test_smooth_flat_transition(self):
        # exponential with vanishing slope is essentially constant 0 on [0,1]
        spec = TransitionSpec("exponential", 0.5, 1e-12)
        lv = limit_variance_smooth(spec, 1.0, 2.0, 1.0)
        assert lv.sigma_star2 == pytest.approx(1.0, abs=1e-9)

    # Recorded as the drift values in TestDriftQuadrature.test_recorded_bits.
    @pytest.mark.parametrize("family, tau1, gamma, expected", [
        ("logistic", 0.5, 20.0, "0x1.33337f5d6fa6cp+0"),
        ("exponential", 0.2, 100.0, "0x1.1814347014161p+0"),
        ("exponential", 0.8, 1e4, "0x1.0320c8808b1bfp+0"),
    ])
    def test_smooth_recorded_bits(self, family, tau1, gamma, expected):
        spec = TransitionSpec(family, tau1, gamma)
        assert limit_variance_smooth(spec, 1.0, 2.0, 1.0).sigma_star2.hex() == expected

    @given(
        tau1=st.floats(min_value=0.01, max_value=0.99),
        mu1=st.floats(min_value=-10.0, max_value=10.0),
        mu2=st.floats(min_value=-10.0, max_value=10.0),
        sigma_bar2=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_abrupt_never_below_base_variance(self, tau1, mu1, mu2, sigma_bar2):
        lv = limit_variance_abrupt(tau1, mu1, mu2, sigma_bar2)
        assert lv.sigma_star2 >= lv.sigma_bar2

    @given(
        family=st.sampled_from(["logistic", "exponential"]),
        tau1=st.floats(min_value=0.05, max_value=0.95),
        gamma=st.floats(min_value=0.1, max_value=200.0),
        mu1=st.floats(min_value=-5.0, max_value=5.0),
        mu2=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_smooth_never_below_base_variance(self, family, tau1, gamma, mu1, mu2):
        spec = TransitionSpec(family, tau1, gamma)
        lv = limit_variance_smooth(spec, mu1, mu2, 1.0)
        assert lv.sigma_star2 >= lv.sigma_bar2

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_variance_abrupt(0.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            limit_variance_abrupt(0.5, 1.0, 2.0, 0.0)


class TestPartialVarianceLimit:
    def test_constant(self):
        spec = SigmaSpec.constant(2.0)
        assert partial_variance_limit(spec, 0.25) == pytest.approx(1.0)
        assert partial_variance_limit(spec, 1.0) == pytest.approx(4.0)

    def test_step_hand_values(self):
        spec = SigmaSpec.step((math.sqrt(0.5), math.sqrt(1.5)), (2.0 / 3.0,))
        assert partial_variance_limit(spec, 0.5) == pytest.approx(0.25, rel=1e-12)
        assert partial_variance_limit(spec, 0.75) == pytest.approx(
            (2.0 / 3.0) * 0.5 + (0.75 - 2.0 / 3.0) * 1.5, rel=1e-12
        )

    def test_full_interval_matches_ergodic_limit(self):
        specs = [
            SigmaSpec.step((0.5, 1.5), (2.0 / 3.0,)),
            SigmaSpec.smooth(0.5, 1.5, TransitionSpec("logistic", 2.0 / 3.0, 20.0)),
        ]
        for spec in specs:
            assert partial_variance_limit(spec, 1.0) == ergodic_variance_limit(spec)

    def test_smooth_matches_riemann_sum(self):
        spec = SigmaSpec.smooth(0.5, 1.5, TransitionSpec("exponential", 0.4, 30.0))
        x = (np.arange(1, 200_001)) / 200_000 * 0.7
        riemann = float(np.mean((0.5 + 1.0 * (-np.expm1(-30.0 * (x - 0.4) ** 2))) ** 2)) * 0.7
        assert partial_variance_limit(spec, 0.7) == pytest.approx(riemann, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_variance_limit(SigmaSpec.constant(1.0), 1.5)


class TestWnPath:
    def test_zero_noise(self):
        np.testing.assert_array_equal(wn_path(np.zeros(10), 1.0), np.zeros(11))

    def test_constant_sigma_is_scaled_walk(self):
        eps = np.array([1.0, -2.0, 0.5])
        sigma_bar = 2.0
        path = wn_path(sigma_bar * eps, sigma_bar**2)
        expected = np.concatenate([[0.0], np.cumsum(eps)]) / math.sqrt(3.0)
        np.testing.assert_allclose(path, expected, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            wn_path(np.ones(5), 0.0)

    def test_variance_at_half_matches_limit(self):
        # two-regime volatility: var W_n(1/2) converges to the normalized
        # partial variance integral, not to 1/2
        spec = SigmaSpec.step((math.sqrt(0.5), math.sqrt(1.5)), (2.0 / 3.0,))
        sigma_bar2 = ergodic_variance_limit(spec)
        n, reps = 1000, 3000
        from meanbreak.signals import sigma_path

        path = sigma_path(spec, n)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([777])))
        eps = rng.standard_normal((reps, n))
        w_half = (eps * path).cumsum(axis=1)[:, n // 2 - 1] / math.sqrt(n * sigma_bar2)
        target = partial_variance_limit(spec, 0.5) / sigma_bar2
        assert w_half.var() == pytest.approx(target, rel=0.05)
