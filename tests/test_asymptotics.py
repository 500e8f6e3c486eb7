"""Tests for the drift function, limiting variances, and the partial-sum
process diagnostics."""

import functools
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
from meanbreak.signals import SigmaSpec, TransitionSpec, ergodic_variance_limit, transition
from referee import GAMMAS, QUAD_MAX_GAMMA, adaptive, gauss, graded, layer_width


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


    # Values recorded on the graded Gauss-Legendre rule (x86-64 Linux, glibc
    # libm, numpy 2.4).
    @pytest.mark.parametrize("family, tau1, gamma, tau, expected", [
        ("logistic", 0.5, 20.0, 0.3, "-0x1.315899c32ea8ep-3"),
        ("logistic", 0.2, 100.0, 0.77, "-0x1.78d4fdf45d110p-5"),
        ("exponential", 0.5, 20.0, 0.3, "0x1.4064776234350p-4"),
        ("exponential", 0.8, 100.0, 0.61, "0x1.b73493b6b4e70p-4"),
        ("exponential", 0.2, 1e4, 0.5, "-0x1.22661a4eeadc0p-7"),
    ])
    def test_recorded_bits(self, family, tau1, gamma, tau, expected):
        spec = TransitionSpec(family, tau1, gamma)
        assert drift_quadrature(spec, tau).hex() == expected

    def test_mean_of_transition_integrated_once(self, monkeypatch):
        # The panel sums, int_0^1 F among them, are memoised per spec: a
        # 99-point drift grid integrates each panel once and one partial
        # panel per tau, and an equal spec built separately reuses the sums.
        gauss, spans = asymptotics._gauss, []

        def counting_gauss(spec, a, b):
            spans.append((a, b))
            return gauss(spec, a, b)

        monkeypatch.setattr(asymptotics, "_gauss", counting_gauss)
        asymptotics._panels.cache_clear()
        spec = TransitionSpec("exponential", 0.35, 40.0)
        grid = np.linspace(0.01, 0.99, 99).tolist()
        first = [drift_quadrature(spec, t).hex() for t in grid]
        edges = asymptotics._panels(spec)[0]
        panels = list(zip(edges, edges[1:]))
        assert len(panels) > 2
        assert spans[:len(panels)] == panels
        assert len(spans) == len(panels) + 99

        twin = TransitionSpec("exponential", 0.35, 40.0)
        assert twin is not spec
        assert [drift_quadrature(twin, t).hex() for t in grid] == first
        assert len(spans) == len(panels) + 2 * 99
        # The closed forms integrate nothing.
        limit_variance_smooth(twin, 1.0, 2.0, 1.0)
        drift_closed_exponential(0.35, 40.0, 0.5)
        assert len(spans) == len(panels) + 2 * 99

    @pytest.mark.parametrize("family", ["logistic", "exponential"])
    def test_float_nodes_same_bits_as_array_rule(self, family):
        # The rule evaluates its nodes as Python floats; it must give the
        # bits of the rule on the array transition, on seeded intervals and
        # on intervals below the layer, where the logistic's exp overflows.
        rng = np.random.default_rng(2027)
        overflowing = 0
        for _ in range(200):
            gamma = math.exp(rng.uniform(math.log(0.5), math.log(1e6)))
            spec = TransitionSpec(family, rng.uniform(0.05, 0.95), gamma)
            below = spec.tau1 - 800.0 / gamma
            intervals = [sorted(rng.uniform(0.0, 1.0, 2).tolist()), (0.0, spec.tau1),
                         (spec.tau1, 1.0), (0.5, 0.5)]
            if below > 0.0:
                intervals.append((rng.uniform(0.0, below), below))
                overflowing += 1
            f = functools.partial(transition, spec)
            for a, b in intervals:
                assert asymptotics._gauss(spec, a, b).hex() == gauss(f, a, b).hex()
        assert overflowing > 50

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

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    @pytest.mark.parametrize("closed", [drift_closed_logistic, drift_closed_exponential])
    def test_non_finite_gamma_rejected(self, closed, gamma):
        # Unchecked, an infinite slope gives nan (logistic) or 0 (exponential).
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            closed(0.5, gamma, 0.3)

    @pytest.mark.parametrize("tau", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("closed", [drift_closed_logistic, drift_closed_exponential])
    def test_tau_domain(self, closed, tau):
        # As in drift_quadrature; unchecked, tau = 1.5 gives 0.2493 (logistic).
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
            closed(0.5, 10.0, tau)

    @pytest.mark.parametrize("tau1", [0.0, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize("closed", [drift_closed_logistic, drift_closed_exponential])
    def test_tau1_domain(self, closed, tau1):
        # As in TransitionSpec; unchecked, tau1 = 1.5 gives -0.00033 (logistic).
        with pytest.raises(ValueError, match=r"tau1 must lie in \(0, 1\)"):
            closed(tau1, 10.0, 0.3)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("family", ["logistic", "exponential"])
    def test_drift_against_referees(self, family, gamma):
        # The graded Gauss-Legendre rule at every slope; QUADPACK as well
        # where it resolves the transition layer.
        closed = drift_closed_logistic if family == "logistic" else drift_closed_exponential
        grid = np.linspace(0.0, 1.0, 41).tolist()
        for tau1 in (0.2, 0.5, 0.8):
            spec = TransitionSpec(family, tau1, gamma)
            values = np.array([closed(tau1, gamma, t) for t in grid])
            reference = np.array([drift_quadrature(spec, t) for t in grid])
            assert np.abs(values - reference).max() <= 1e-12
            if gamma <= QUAD_MAX_GAMMA:
                f = lambda x: transition(spec, x)
                mean = adaptive(f, 0.0, 1.0, tau1)
                reference = np.array([adaptive(f, 0.0, t, tau1) - t * mean for t in grid])
                assert np.abs(values - reference).max() <= 1e-12

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

    # Recorded as the drift values in TestDriftQuadrature.test_recorded_bits,
    # from the closed-form moments.
    @pytest.mark.parametrize("family, tau1, gamma, expected", [
        ("logistic", 0.5, 20.0, "0x1.33337f5d6fa6cp+0"),
        ("exponential", 0.2, 100.0, "0x1.1814347014161p+0"),
        ("exponential", 0.8, 1e4, "0x1.0320c8808b1bep+0"),
    ])
    def test_smooth_recorded_bits(self, family, tau1, gamma, expected):
        spec = TransitionSpec(family, tau1, gamma)
        assert limit_variance_smooth(spec, 1.0, 2.0, 1.0).sigma_star2.hex() == expected

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("family", ["logistic", "exponential"])
    def test_smooth_against_referees(self, family, gamma):
        # The shift is (mu2 - mu1)^2 (int F^2 - (int F)^2) over [0, 1].
        spec = TransitionSpec(family, 0.3, gamma)
        shift = limit_variance_smooth(spec, 1.0, 3.0, 1.0).shift_term
        f = lambda x: transition(spec, x)
        f2 = lambda x: transition(spec, x) ** 2
        width = layer_width(spec)
        reference = 4.0 * (graded(f2, 0.0, 1.0, 0.3, width) - graded(f, 0.0, 1.0, 0.3, width) ** 2)
        assert abs(shift - reference) <= 1e-12
        if gamma <= QUAD_MAX_GAMMA:
            reference = 4.0 * (adaptive(f2, 0.0, 1.0, 0.3) - adaptive(f, 0.0, 1.0, 0.3) ** 2)
            assert abs(shift - reference) <= 1e-12

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

    @pytest.mark.parametrize("sigma_bar2", [math.nan, math.inf, -math.inf])
    def test_abrupt_non_finite_sigma_bar2_rejected(self, sigma_bar2):
        with pytest.raises(ValueError, match="sigma_bar2 must be finite and positive"):
            limit_variance_abrupt(0.5, 1.0, 2.0, sigma_bar2)

    @pytest.mark.parametrize("sigma_bar2", [math.nan, math.inf, -math.inf])
    def test_smooth_non_finite_sigma_bar2_rejected(self, sigma_bar2):
        spec = TransitionSpec("logistic", 0.5, 20.0)
        with pytest.raises(ValueError, match="sigma_bar2 must be finite and positive"):
            limit_variance_smooth(spec, 1.0, 2.0, sigma_bar2)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mu1", "mu2"])
    def test_non_finite_means_rejected(self, name, mu):
        # Unchecked, a nan gave sigma*^2 = nan and an infinity gave inf.
        means = {"mu1": 1.0, "mu2": 2.0, name: mu}
        spec = TransitionSpec("logistic", 0.5, 20.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            limit_variance_abrupt(0.5, means["mu1"], means["mu2"], 1.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            limit_variance_smooth(spec, means["mu1"], means["mu2"], 1.0)


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

    @pytest.mark.parametrize("sigma_bar2", [math.nan, math.inf])
    def test_non_finite_sigma_bar2_rejected(self, sigma_bar2):
        # Unchecked, a nan would make the whole path nan.
        with pytest.raises(ValueError, match="sigma_bar2 must be finite and positive"):
            wn_path(np.ones(5), sigma_bar2)

    def test_empty_series_rejected(self):
        # It returned [nan], with a RuntimeWarning from 0 / 0.
        with pytest.raises(ValueError, match="at least one value"):
            wn_path([], 1.0)

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
