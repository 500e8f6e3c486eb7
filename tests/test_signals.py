"""Tests for transition functions, mean/volatility paths, and series synthesis."""

import dataclasses
import hashlib
import math
import sys
import tracemalloc
import zlib
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import expit

from meanbreak import montecarlo, signals
from meanbreak.signals import (
    MeanSpec,
    SigmaSpec,
    TransitionSpec,
    ergodic_variance_limit,
    gaussian_stream,
    generate_series,
    mean_path,
    sigma_path,
    transition,
)
from referee import (GAMMAS, QUAD_MAX_GAMMA, adaptive, decimal_exponential_moments,
                     decimal_logistic_moments, graded, layer_width)


PATH_SIZES = (30, 100, 500, 1000, 100_000)


class TestTransition:
    def test_logistic_midpoint(self):
        spec = TransitionSpec("logistic", 0.3, 7.0)
        assert transition(spec, 0.3) == 0.5

    def test_exponential_zero_at_location(self):
        spec = TransitionSpec("exponential", 0.3, 7.0)
        assert transition(spec, 0.3) == 0.0

    def test_logistic_value(self):
        spec = TransitionSpec("logistic", 0.5, 20.0)
        assert transition(spec, 1.0) == pytest.approx(0.9999546021312976, abs=1e-7)

    def test_stable_for_huge_arguments(self):
        logistic = TransitionSpec("logistic", 0.5, 1400.0)
        with np.errstate(over="raise", invalid="raise"):
            assert transition(logistic, 1.0) == 1.0
            assert transition(logistic, 0.0) == pytest.approx(0.0, abs=1e-300)
            exponential = TransitionSpec("exponential", 0.5, 1400.0)
            assert transition(exponential, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_ranges(self):
        x = np.linspace(-5.0, 5.0, 101)
        logistic = transition(TransitionSpec("logistic", 0.4, 3.0), x)
        exponential = transition(TransitionSpec("exponential", 0.4, 3.0), x)
        assert np.all((logistic > 0.0) & (logistic < 1.0))
        assert np.all(np.diff(logistic) > 0.0)  # strictly increasing
        # mathematically in [0, 1); far from the location the float value
        # rounds up to exactly 1.0
        assert np.all((exponential >= 0.0) & (exponential <= 1.0))

    @pytest.mark.parametrize("family", ["logistic", "exponential"])
    @pytest.mark.parametrize("x", [
        np.linspace(-0.5, 1.5, 101), np.linspace(0.0, 1.0, 12).reshape(3, 4)[:, ::2],
        np.array(0.25),
    ], ids=["1-D", "strided", "0-d"])
    def test_leaves_its_argument_unchanged(self, family, x):
        # The transition runs in an array of its own, not in its argument.
        before = x.copy()
        got = transition(TransitionSpec(family, 0.4, 9.0), x)
        assert x.tobytes() == before.tobytes() and got is not x

    @pytest.mark.parametrize("family", ["logistic", "exponential"])
    def test_float_input_same_bits_as_array_arithmetic(self, family):
        # A 0-d array runs the array path with numpy-scalar arithmetic, where
        # ``** 2`` is C pow; an array of one element would square by
        # multiplication (numpy's fast ``** 2``), which rounds differently.
        tau1 = 0.37
        grid = np.random.default_rng(20).uniform(-0.5, 1.5, 40_000).tolist()
        # Points where d * d and d ** 2 round differently; at these, a scalar
        # path squaring by multiplication changes some outputs.
        split = [x for x in grid if (x - tau1) * (x - tau1) != (x - tau1) ** 2]
        slope3 = TransitionSpec("exponential", tau1, 3.0)
        assert any(
            -np.expm1(-3.0 * ((x - tau1) * (x - tau1))) != transition(slope3, x) for x in split
        )
        for gamma in np.geomspace(0.5, 1e4, 12).tolist():
            spec = TransitionSpec(family, tau1, gamma)
            for x in grid[:2000] + split:
                got = transition(spec, x)
                assert type(got) is float
                assert got.hex() == float(transition(spec, np.array(x))).hex()

    def test_float_logistic_same_bits_as_expit(self):
        # The float path is 1 / (1 + exp(-z)) on libm exp, as scipy's expit,
        # and 0.0 where math.exp overflows (z < -709.78).
        rng = np.random.default_rng(31)
        grid = np.concatenate((rng.uniform(-0.5, 1.5, 4000), np.linspace(-0.5, 1.5, 1001)))
        edge = np.log(np.finfo(np.float64).max)
        reached = False
        for gamma in [*np.geomspace(0.5, 1e6, 16).tolist(), 1e6]:
            tau1 = float(rng.uniform(0.05, 0.95))
            # Points whose slope times distance lands next to the overflow edge.
            near = tau1 - np.nextafter(edge, np.inf) / gamma + np.linspace(-1e-12, 1e-12, 41)
            x = np.concatenate((grid, near))
            spec = TransitionSpec("logistic", tau1, gamma)
            got = [transition(spec, v).hex() for v in x.tolist()]
            z = gamma * (x - tau1)
            reached |= bool(np.any(z < -edge))
            assert got == [v.hex() for v in expit(z).tolist()]
        assert reached

    @staticmethod
    def assert_expit_bits(spec, x):
        got = transition(spec, x)
        want = expit(spec.gamma * (np.asarray(x, dtype=np.float64) - spec.tau1))
        assert np.shape(got) == np.shape(want)
        assert [v.hex() for v in np.ravel(got).tolist()] == [
            v.hex() for v in np.ravel(want).tolist()
        ]

    @pytest.mark.parametrize("n", PATH_SIZES)
    def test_array_logistic_same_bits_as_expit_on_preset_grids(self, n):
        grid = np.arange(1, n + 1) / n
        for spec in (montecarlo.preset(9)[0].transition, montecarlo.preset(9)[1].transition):
            self.assert_expit_bits(spec, grid)

    def test_array_logistic_same_bits_as_expit(self):
        # Arrays run libm exp once per element, as expit does, and 0 where it
        # overflows (z < -709.78).  numpy's exp is not libm's on every
        # machine: on AVX-512 it moves some values by up to 2 ulp.
        rng = np.random.default_rng(47)
        grid = np.concatenate((rng.uniform(-0.5, 1.5, 4000), np.linspace(-0.5, 1.5, 1001)))
        edge = math.log(np.finfo(np.float64).max)
        beyond = within = False
        for gamma in [*np.geomspace(0.5, 1e6, 16).tolist(), 1e6]:
            tau1 = float(rng.uniform(0.05, 0.95))
            near = tau1 - np.nextafter(edge, np.inf) / gamma + np.linspace(-1e-12, 1e-12, 41)
            spec = TransitionSpec("logistic", tau1, gamma)
            self.assert_expit_bits(spec, grid)
            self.assert_expit_bits(spec, near)
            z = gamma * (near - tau1)
            beyond |= bool(np.any(z < -edge))
            within |= bool(np.any((z >= -edge) & (z < 1.0 - edge)))
        assert beyond and within
        spec = TransitionSpec("logistic", 0.3, 20.0)
        with np.errstate(all="raise"):
            self.assert_expit_bits(spec, [-np.inf, np.inf, np.nan, 0.3, -1e300, 1e300])
        assert transition(spec, np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
        assert np.isnan(transition(spec, np.array([np.nan]))).all()

    @pytest.mark.parametrize("x", [
        np.array(0.25), np.linspace(0.0, 1.0, 12).reshape(3, 4), np.array([]), np.empty((0, 3)),
    ], ids=["0-d", "2-D", "empty", "empty-2-D"])
    def test_array_logistic_shapes(self, x):
        spec = TransitionSpec("logistic", 0.4, 9.0)
        self.assert_expit_bits(spec, x)
        assert transition(spec, x).dtype == np.float64

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TransitionSpec("triangular", 0.5, 1.0)
        with pytest.raises(ValueError):
            TransitionSpec("logistic", 0.0, 1.0)
        with pytest.raises(ValueError):
            TransitionSpec("logistic", 0.5, 0.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_slope_rejected(self, gamma):
        # An infinite slope would give nan at x = tau1 (inf * 0) and nan limits.
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            TransitionSpec("logistic", 0.5, gamma)


class TestMeanPath:
    def test_constant(self):
        np.testing.assert_array_equal(mean_path(MeanSpec.constant(1.0), 4), [1, 1, 1, 1])

    def test_step_midpoint(self):
        spec = MeanSpec.step((1.0, 2.0), (0.5,))
        np.testing.assert_array_equal(mean_path(spec, 4), [1, 1, 2, 2])

    def test_smooth_two_points(self):
        spec = MeanSpec.smooth(1.0, 2.0, TransitionSpec("logistic", 0.5, 20.0))
        np.testing.assert_allclose(mean_path(spec, 2), [1.5, 1.9999546], atol=1e-6)

    def test_step_boundary_uses_integer_part(self):
        # break fraction 2/3 at n=3: regime 1 covers t=1..2, regime 2 covers t=3
        spec = MeanSpec.step((0.0, 1.0), (2.0 / 3.0,))
        np.testing.assert_array_equal(mean_path(spec, 3), [0.0, 0.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MeanSpec.step((1.0, 2.0, 3.0), (0.7, 0.3))
        with pytest.raises(ValueError, match=r"len\(levels\) == len\(fractions\) \+ 1"):
            MeanSpec.step((1.0,), (0.5,))
        with pytest.raises(ValueError, match="exactly one level"):
            MeanSpec("constant", (1.0, 5.0))
        with pytest.raises(ValueError):
            MeanSpec.constant(float("inf"))
        with pytest.raises(ValueError):
            mean_path(MeanSpec.constant(1.0), 0)

    @pytest.mark.parametrize("n", [3.5, 4.0, np.float64(4.0)], ids=["3.5", "4.0", "float64"])
    def test_non_integer_n_rejected(self, n):
        # np.arange(1, n + 1) would build ceil(n) values for a float n.
        with pytest.raises(TypeError):
            mean_path(montecarlo.preset(5)[0], n)
        with pytest.raises(TypeError):
            sigma_path(SigmaSpec.constant(1.0), n)

    @pytest.mark.parametrize("spec, arrays", [
        (MeanSpec.constant(1.5), 1.5),
        (montecarlo.preset(5)[0], 1.5),
        (montecarlo.preset(9)[1], 2.5),
    ], ids=["constant", "step", "smooth"])
    def test_peak_memory(self, spec, arrays):
        # A constant or step path is its one array, its levels repeated over
        # their segments; a smooth path builds t / n in place and runs the
        # transition in it, so only the array of exp values comes beside it.
        n = 100_000
        tracemalloc.start()
        try:
            mean_path(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays * 8 * n

    @staticmethod
    def searchsorted_step(spec, n):
        # The step rule as it was written before segments: level j where t
        # exceeds j of the nudged integer parts.
        breaks = np.floor(np.asarray(spec.fractions) * n + signals._FLOOR_NUDGE).astype(np.int64)
        return np.asarray(spec.levels)[np.searchsorted(breaks, np.arange(1, n + 1), side="left")]

    @pytest.mark.parametrize("fractions, n, segments", [
        ((0.01, 0.02), 30, [(0, 0, 1.0), (0, 0, -2.0), (0, 30, 3.5)]),
        ((1 / 3, 2 / 3), 3, [(0, 1, 1.0), (1, 2, -2.0), (2, 3, 3.5)]),
        ((0.5, 0.5 + 1e-6), 2**14, [(0, 8192, 1.0), (8192, 8192, -2.0), (8192, 16384, 3.5)]),
    ], ids=["zero-breaks", "thirds", "equal-breaks"])
    def test_step_segments(self, fractions, n, segments):
        # Fractions that floor to equal or zero breaks leave empty segments,
        # and (2/3) * 3 floors to 2; the path repeats each level over its
        # segment, as the search over the breaks placed it.
        spec = MeanSpec.step((1.0, -2.0, 3.5), fractions)
        assert signals._segments(spec, n) == segments
        assert mean_path(spec, n).tobytes() == self.searchsorted_step(spec, n).tobytes()

    def test_four_regimes_equal_the_search_over_breaks(self):
        spec = SigmaSpec.step((0.5, 2.0, 1.0, 3.0), (0.1, 0.3, 0.9))
        for n in (*PATH_SIZES, 1, 2, 3, 2**14 - 1, 2**14):
            assert mean_path(spec, n).tobytes() == self.searchsorted_step(spec, n).tobytes()

    @pytest.mark.parametrize("built, written", [
        (MeanSpec("constant", (1,)), MeanSpec.constant(1.0)),
        (MeanSpec("step", [np.int64(1), 2], [np.float32(0.5)]),
         MeanSpec.step((1.0, 2.0), (0.5,))),
        (SigmaSpec("smooth", (1, np.float64(2.0)), transition=TransitionSpec("logistic", 0.5, 20)),
         SigmaSpec.smooth(1.0, 2.0, TransitionSpec("logistic", 0.5, 20.0))),
    ], ids=["constant", "step", "smooth"])
    def test_levels_stored_as_floats(self, built, written):
        # Levels and fractions are Python floats however given: an int level
        # built an int64 path that compared equal to the float spec's.
        assert built == written and hash(built) == hash(written)
        assert all(type(v) is float for v in built.levels + built.fractions)
        path = mean_path(built, 7)
        assert path.dtype == np.float64
        assert path.tobytes() == mean_path(written, 7).tobytes()

    def test_mean_spec_takes_no_regime_fields(self):
        with pytest.raises(TypeError):
            MeanSpec("constant", (1.0,), locations=(0.5,))
        with pytest.raises(ValueError, match="unknown mean variant"):
            MeanSpec("multi_regime", (1.0, 2.0))
        assert MeanSpec.constant(mu=1.0) == MeanSpec("constant", (1.0,))
        assert SigmaSpec.constant(sigma=2.0) == SigmaSpec("constant", (2.0,))


class TestSigmaPath:
    def test_constant(self):
        np.testing.assert_array_equal(sigma_path(SigmaSpec.constant(1.0), 3), [1, 1, 1])

    def test_step_two_thirds(self):
        spec = SigmaSpec.step((0.5, 1.5), (2.0 / 3.0,))
        np.testing.assert_array_equal(sigma_path(spec, 3), [0.5, 0.5, 1.5])

    def test_smooth_midpoint(self):
        spec = SigmaSpec.smooth(0.5, 1.5, TransitionSpec("logistic", 2.0 / 3.0, 20.0))
        assert sigma_path(spec, 3)[1] == pytest.approx(1.0, abs=1e-12)

    def test_sigma_spec_has_the_mean_spec_fields(self):
        # The volatility variants are the mean's: no regime fields of its own.
        assert not hasattr(SigmaSpec, "multi_regime")
        with pytest.raises(TypeError):
            SigmaSpec("constant", (1.0,), locations=(0.5,))
        with pytest.raises(ValueError, match="unknown sigma variant"):
            SigmaSpec("multi_regime", (1.0, 2.0))
        assert repr(SigmaSpec.constant(1.0)) == (
            "SigmaSpec(variant='constant', levels=(1.0,), fractions=(), transition=None)")

    @pytest.mark.parametrize("transition", [None, 0.5, ("logistic", 0.5, 20.0)],
                             ids=["none", "float", "tuple"])
    def test_smooth_needs_a_transition_spec(self, transition):
        # A float was built and failed in sigma_path with AttributeError.
        with pytest.raises(ValueError, match="TransitionSpec"):
            SigmaSpec("smooth", (1.0, 2.0), transition=transition)
        with pytest.raises(ValueError, match="TransitionSpec"):
            MeanSpec("smooth", (1.0, 2.0), transition=transition)

    @pytest.mark.parametrize("variant, field", [
        ("constant", "fractions"), ("smooth", "fractions"),
        ("constant", "transition"), ("step", "transition"),
    ])
    def test_fields_the_variant_does_not_use_rejected(self, variant, field):
        # Such a spec was built, built the path of the spec without the
        # field, and compared unequal to it: the engine keyed one path twice.
        value = {"fractions": (0.5,), "transition": TransitionSpec("logistic", 0.5, 20.0)}[field]
        for cls in (MeanSpec, SigmaSpec):
            spec = {"constant": cls.constant(1.0), "step": cls.step((1.0, 2.0), (0.5,)),
                    "smooth": cls.smooth(1.0, 2.0, TransitionSpec("exponential", 0.5, 4.0))}
            with pytest.raises(ValueError, match=f"^{variant} variant takes no {field}, got "):
                dataclasses.replace(spec[variant], **{field: value})

    def test_nonpositive_level_rejected(self):
        with pytest.raises(ValueError):
            SigmaSpec.constant(0.0)
        with pytest.raises(ValueError):
            SigmaSpec.step((0.5, -1.5), (0.5,))

    def test_smooth_converges_to_step_for_large_slope(self):
        n = 100
        step = sigma_path(SigmaSpec.step((0.5, 1.5), (0.5,)), n)
        smooth = sigma_path(
            SigmaSpec.smooth(0.5, 1.5, TransitionSpec("logistic", 0.5, 1e6)), n
        )
        break_point = 50
        away = np.abs(np.arange(1, n + 1) - break_point) > 1
        np.testing.assert_allclose(smooth[away], step[away], atol=1e-6)

    # sha256 of the mean and sigma paths of presets 1-9 in turn, recorded when
    # the array logistic called scipy's expit.
    @pytest.mark.parametrize("n, digest", zip(PATH_SIZES, (
        "be315e2a908b95d2", "5fdc0002c9793b68", "6ca78f0bf702d9bc",
        "16227e995ac437b9", "b49232d83e632dc4",
    )))
    def test_preset_paths_recorded_bits(self, n, digest):
        h = hashlib.sha256()
        for series in montecarlo.PRESET_IDS:
            mean, sigma = montecarlo.preset(series)
            h.update(mean_path(mean, n).tobytes())
            h.update(sigma_path(sigma, n).tobytes())
        assert h.hexdigest()[:16] == digest

class TestErgodicVarianceLimit:
    def test_constant(self):
        assert ergodic_variance_limit(SigmaSpec.constant(1.0)) == 1.0

    def test_step_hand_value(self):
        spec = SigmaSpec.step((0.5, 1.5), (2.0 / 3.0,))
        expected = (2.0 / 3.0) * 0.25 + (1.0 / 3.0) * 2.25
        assert ergodic_variance_limit(spec) == pytest.approx(expected, rel=1e-12)

    def test_step_matches_path_average(self):
        spec = SigmaSpec.step((0.5, 1.5), (2.0 / 3.0,))
        n = 1_000_000
        riemann = float(np.mean(sigma_path(spec, n) ** 2))
        assert ergodic_variance_limit(spec) == pytest.approx(riemann, abs=1e-3)

    def test_smooth_matches_riemann_sum(self):
        spec = SigmaSpec.smooth(0.5, 1.5, TransitionSpec("logistic", 2.0 / 3.0, 20.0))
        n = 1_000_000
        riemann = float(np.mean(sigma_path(spec, n) ** 2))
        assert ergodic_variance_limit(spec) == pytest.approx(riemann, abs=1e-4)

    @pytest.mark.parametrize("spec, bits", [
        (montecarlo.preset(3)[1],
         ["0x1.a3d931ace386cp-1", "0x1.000494d1a4218p-3", "0x1.01527323feef2p-2",
          "0x1.d2a6dce4562d6p-2"]),
        (SigmaSpec.smooth(math.sqrt(0.5), math.sqrt(1.5), TransitionSpec("exponential", 0.4, 20.0)),
         ["0x1.1350fb7d5fb4ap+0", "0x1.31a2e5b82327bp-2", "0x1.c693c977e439ep-2",
          "0x1.6a09008688dc0p-1"]),
    ], ids=["canonical-logistic", "exponential"])
    def test_recorded_variance_bits(self, spec, bits):
        # Recorded from the closed-form moments (x86-64 Linux, glibc libm).
        got = [ergodic_variance_limit(spec)]
        got += [signals.partial_variance_limit(spec, tau) for tau in (0.25, 0.5, 0.75)]
        assert [v.hex() for v in got] == bits

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("family", ["logistic", "exponential"])
    def test_closed_forms_against_referees(self, family, gamma):
        spec = SigmaSpec.smooth(0.5, 1.5, TransitionSpec(family, 0.4, gamma))
        for tau in (0.1, 0.35, 0.5, 0.8, 1.0):
            got = signals.partial_variance_limit(spec, tau)
            assert abs(got - variance_referee(spec, tau, graded)) <= 1e-12
            if gamma <= QUAD_MAX_GAMMA:
                assert abs(got - variance_referee(spec, tau, adaptive)) <= 1e-12


def variance_referee(spec: SigmaSpec, tau: float, integrate) -> float:
    """int_0^tau sigma^2 of a smooth path by ``graded`` or ``adaptive``."""
    shape = spec.transition
    lo, hi = spec.levels

    def square(x):
        return (lo + (hi - lo) * transition(shape, x)) ** 2

    if integrate is graded:
        return graded(square, 0.0, tau, shape.tau1, layer_width(shape))
    return adaptive(lambda x: float(square(np.array([x]))[0]), 0.0, tau, shape.tau1)


class TestTransitionMoments:
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("family", ["logistic", "exponential"])
    def test_against_referees(self, family, gamma):
        shape = TransitionSpec(family, 0.37, gamma)
        f = lambda x: transition(shape, x)
        f2 = lambda x: transition(shape, x) ** 2
        width = layer_width(shape)
        unit = [(0.0, t) for t in np.linspace(0.05, 1.0, 20).tolist()]
        # The closed forms hold on any interval, not only inside [0, 1].
        for a, b in unit + [(-3.0, 2.5), (-6.0, -1.0), (0.5, 4.0), (0.2, 0.2)]:
            m1, m2 = signals._transition_moments(shape, a, b)
            assert abs(m1 - graded(f, a, b, 0.37, width)) <= 1e-12
            assert abs(m2 - graded(f2, a, b, 0.37, width)) <= 1e-12
        if gamma <= QUAD_MAX_GAMMA:
            for a, b in unit:
                m1, m2 = signals._transition_moments(shape, a, b)
                assert abs(m1 - adaptive(f, a, b, 0.37)) <= 1e-12
                assert abs(m2 - adaptive(f2, a, b, 0.37)) <= 1e-12


    # Below a slope of 1 the moments come from Taylor series; their largest
    # relative error on this grid is 3.6e-15.
    @pytest.mark.parametrize("gamma", [1e-15, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.5, 0.999])
    def test_exponential_small_slopes_against_decimal(self, gamma):
        intervals = [(0.0, t) for t in np.linspace(0.05, 1.0, 20).tolist()] + [(0.3, 0.7)]
        for tau1 in (0.05, 0.37, 0.5, 0.95):
            for a, b in intervals:
                got = signals._exponential_moments(tau1, gamma, a, b)
                want = decimal_exponential_moments(tau1, gamma, a, b)
                for value, exact in zip(got, want):
                    assert abs(Decimal(value) - exact) / exact <= 8e-15, (tau1, a, b)

    # Against the decimal referee on the intervals above; a value below the
    # smallest normal float counts against that float.  int F: at most
    # 8.1e-14 relative, from the rounding of gamma (x - tau1) where F ~ e^z
    # is far below 1/2 (gamma = 1e3).  int F^2 = int F - (F(b) - F(a)) /
    # gamma: at most 1.9e-15 of int F, the size of its two terms.  Where z <
    # -13 at both ends int F^2 is its own series, within 4.5e-14 relative
    # (gamma = 1e3, z = -350), again from the rounding of z.
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_logistic_against_decimal(self, gamma):
        unit = [(0.0, t) for t in np.linspace(0.05, 1.0, 20).tolist()]
        tiny = Decimal(sys.float_info.min)
        for tau1 in (0.05, 0.37, 0.5, 0.95):
            for a, b in unit + [(-3.0, 2.5), (-6.0, -1.0), (0.5, 4.0), (0.2, 0.2)]:
                m1, m2 = signals._logistic_moments(tau1, gamma, a, b)
                want1, want2 = decimal_logistic_moments(tau1, gamma, a, b)
                scale = max(want1, tiny)
                assert abs(Decimal(m1) - want1) / scale <= 1e-13, (tau1, a, b)
                assert abs(Decimal(m2) - want2) / scale <= 2e-15, (tau1, a, b)
                if gamma * (max(a, b) - tau1) < -13.0:
                    assert abs(Decimal(m2) - want2) / max(want2, tiny) <= 1e-13, (tau1, a, b)

    # int F - (F(b) - F(a)) / gamma read 3.9682859e-26 for 3.9682808e-26
    # (1.3e-6 relative) in the first case, and 0.0 in the other two.
    @pytest.mark.parametrize("tau1, gamma, a, b", [
        (0.37, 20.0, -6.0, -1.0), (0.95, 20.0, -6.0, -1.0), (0.37, 1e3, 0.0, 0.05)])
    def test_logistic_square_integral_where_f_is_small(self, tau1, gamma, a, b):
        m2 = signals._logistic_moments(tau1, gamma, a, b)[1]
        want2 = decimal_logistic_moments(tau1, gamma, a, b)[1]
        assert abs(Decimal(m2) - want2) / want2 <= 2e-14

    def test_exponential_square_integral_positive_at_tiny_slope(self):
        # The erf form gave int F^2 = -2.8e-17 here.  F = gamma u^2 + O(gamma^2)
        # with u = x - 1/2, whose integrals over [0, 1/4] are 7/192 and 31/5120.
        m1, m2 = signals._exponential_moments(0.5, 1e-12, 0.0, 0.25)
        assert m1 == pytest.approx(1e-12 * 7 / 192, rel=1e-11, abs=0.0)
        assert m2 == pytest.approx(1e-24 * 31 / 5120, rel=1e-11, abs=0.0)


class TestGaussianStream:
    def test_deterministic(self):
        np.testing.assert_array_equal(gaussian_stream(42, 10), gaussian_stream(42, 10))
        np.testing.assert_array_equal(
            gaussian_stream((1, 2, 3), 10), gaussian_stream((1, 2, 3), 10)
        )

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(gaussian_stream(1, 10), gaussian_stream(2, 10))
        assert not np.array_equal(
            gaussian_stream((0, 1), 10), gaussian_stream((0, 2), 10)
        )

    def test_moments(self):
        x = gaussian_stream(123, 1_000_000)
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - 1.0) < 0.01

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gaussian_stream(0, 0)

    def test_integer_seed(self):
        np.testing.assert_array_equal(gaussian_stream(np.int64(7), 5), gaussian_stream(7, 5))
        with pytest.raises(TypeError):
            gaussian_stream(7.0, 5)


class TestBulkStream:
    """The engine's stream: keys derived in bulk, rows filled by one
    generator (``noise_blocks``), equal to ``gaussian_stream`` bit for bit."""

    REPS = (0, 1, 2**32 - 1)

    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("key", [1, 9, zlib.crc32(b"mydesign"), zlib.crc32(b"flat")])
    def test_keys_equal_seed_sequence(self, master_seed, key):
        prefix = (master_seed, key, 30)
        keys = signals._philox_keys(prefix, self.REPS)
        assert keys.shape == (3, 2) and keys.dtype == np.uint64
        for row, r in zip(keys, self.REPS):
            reference = np.random.SeedSequence([*prefix, r]).generate_state(2, np.uint64)
            np.testing.assert_array_equal(row, reference)

    @pytest.mark.parametrize("prefix", [(), (0,), (2**32,), (2**70 + 5, 0, 1, 7), (3, 2**40)])
    def test_keys_for_any_prefix_length(self, prefix):
        keys = signals._philox_keys(prefix, range(5))
        for r, row in enumerate(keys):
            reference = np.random.SeedSequence([*prefix, r]).generate_state(2, np.uint64)
            np.testing.assert_array_equal(row, reference)

    @pytest.mark.parametrize("reps", [[-1], [2**32]])
    def test_replication_outside_one_word_rejected(self, reps):
        with pytest.raises(ValueError, match="replication"):
            signals._philox_keys((1, 1, 30), reps)

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            signals._philox_keys((-1, 1, 30), [0])

    @pytest.mark.parametrize("entry", [1.5, np.float64(2.0), "1"])
    def test_non_integer_prefix_raises_as_gaussian_stream(self, entry):
        # int() would read 1.5 as seed 1 and run its stream.
        with pytest.raises(TypeError):
            gaussian_stream((entry, 2, 30, 0), 3)
        with pytest.raises(TypeError):
            list(signals.noise_blocks((entry, 2, 30), range(1), 3))

    def test_numpy_integer_prefix(self):
        prefix = (np.uint64(2**40 + 1), np.int32(2), np.int64(30))
        (block,) = signals.noise_blocks(prefix, range(2), 3)
        for r, row in enumerate(block):
            np.testing.assert_array_equal(row, gaussian_stream((*prefix, r), 3))
            np.testing.assert_array_equal(row, gaussian_stream((2**40 + 1, 2, 30, r), 3))

    @pytest.mark.parametrize("n", [2, 30, 2**14 + 1])
    def test_rows_equal_gaussian_stream(self, monkeypatch, n):
        # Keys are derived 64 replications at a time here: both ranges start
        # past 0 and cross a key batch.
        monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", 64)
        for reps in (range(5, 140), range(2**32 - 70, 2**32)):
            blocks = list(signals.noise_blocks((7, 4, n), reps, n))
            assert all(1 <= len(block) <= max(1, 64 // n) for block in blocks)
            rows = np.concatenate(blocks)
            assert rows.shape == (len(reps), n)
            for row, r in zip(rows, reps):
                np.testing.assert_array_equal(row, gaussian_stream((7, 4, n, r), n))


class TestNumpyStreamCanary:
    """The goldens, the recorded-bit tests and criteria 3 and 4 rest on
    numpy's Philox normals and SeedSequence hash, which numpy does not promise
    to keep across releases.  This test names the cause when they move."""

    GOLDEN_NUMPY = "2.4.6"  # the numpy that made perfbench/golden
    RECORDED = {
        "gaussian_stream(1, 3)": ["0x1.1f770eb46c185p-1", "-0x1.ec83148196d89p-1",
                                  "0x1.9fd3e97ae4b34p-6"],
        "gaussian_stream((3001, 1, 30, 7), 3)": ["0x1.040ef9c9ff6e6p+0", "0x1.9044f21b8ab9dp-1",
                                                 "0x1.40690fed558e2p-2"],
        "noise_blocks((1, 9, 4), range(2), 4)[::3]": ["-0x1.c947ca51be4b8p-1",
                                                      "-0x1.3f431e70ac70fp+0",
                                                      "-0x1.66e33f2206ff2p+0"],
        "_philox_keys((1, 9, 4), range(2))": [[5359937455198553628, 8742076139126112271],
                                              [13670185400800125170, 16973953064567729474]],
    }

    def test_stream_is_the_goldens_stream(self):
        (block,) = signals.noise_blocks((1, 9, 4), range(2), 4)
        keys = signals._philox_keys((1, 9, 4), range(2)).tolist()
        got = {
            "gaussian_stream(1, 3)": [v.hex() for v in gaussian_stream(1, 3).tolist()],
            "gaussian_stream((3001, 1, 30, 7), 3)":
                [v.hex() for v in gaussian_stream((3001, 1, 30, 7), 3).tolist()],
            "noise_blocks((1, 9, 4), range(2), 4)[::3]":
                [v.hex() for v in block.ravel()[::3].tolist()],
            "_philox_keys((1, 9, 4), range(2))": keys,
        }
        seed_sequence = [np.random.SeedSequence([1, 9, 4, r]).generate_state(2, np.uint64).tolist()
                         for r in range(2)]
        assert got == self.RECORDED and keys == seed_sequence, (
            f"numpy {np.__version__} draws another stream than numpy {self.GOLDEN_NUMPY}, which"
            " made the goldens under perfbench/golden: if numpy changed its Philox normals or"
            " SeedSequence, regenerate every golden with perfbench/make_golden.py as a declared"
            " change")


class TestGenerateSeries:
    def test_zero_mean_unit_sigma_is_raw_stream(self):
        y = generate_series(MeanSpec.constant(0.0), SigmaSpec.constant(1.0), 50, 9)
        np.testing.assert_array_equal(y, gaussian_stream(9, 50))

    def test_two_regime_sample_variances(self):
        # step volatility at 2/3 with regime variances 0.5 and 1.5
        mean = MeanSpec.constant(1.0)
        sigma = SigmaSpec.step((math.sqrt(0.5), math.sqrt(1.5)), (2.0 / 3.0,))
        y = generate_series(mean, sigma, 1000, 2024)
        assert y[:666].var() == pytest.approx(0.5, abs=0.08)
        assert y[666:].var() == pytest.approx(1.5, abs=0.35)

    @pytest.mark.parametrize("n", [1, 30, 100_000])
    def test_same_bits_as_the_path_formula(self, n):
        # In place, eps *= sigma and then eps += mu round as mu + sigma * eps.
        for series in montecarlo.PRESET_IDS:
            mean, sigma = montecarlo.preset(series)
            seed = (3, series, n)
            want = mean_path(mean, n) + sigma_path(sigma, n) * gaussian_stream(seed, n)
            assert generate_series(mean, sigma, n, seed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("series", [3, 5, 9])
    def test_peak_memory(self, series):
        # The noise array, and the two arrays of a smooth path while it is
        # built; a step path is its segments, and no product or sum is
        # built beside the noise.
        n = 100_000
        generate_series(*montecarlo.preset(series), 30, 1)  # first-call allocations
        tracemalloc.start()
        try:
            generate_series(*montecarlo.preset(series), n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * n

    def test_mean_over_replications(self):
        spec = MeanSpec.smooth(1.0, 2.0, TransitionSpec("logistic", 0.5, 20.0))
        sigma = SigmaSpec.constant(1.0)
        n, reps, t = 4, 100_000, 2  # fixed index, x = 3/4
        total = 0.0
        for r in range(reps):
            total += generate_series(spec, sigma, n, (55, r))[t]
        target = mean_path(spec, n)[t]
        standard_error = 1.0 / math.sqrt(reps)
        assert abs(total / reps - target) < 4.0 * standard_error
