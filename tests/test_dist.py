"""Tests for the sup-absolute-Brownian-bridge limit law."""

import math
import sys
from decimal import Decimal

import numpy as np
import pytest

from meanbreak import dist
from meanbreak.dist import bridge_sup_cdf, bridge_sup_quantile, p_value
from referee import decimal_cdf, decimal_tail


def written_out(z, density=False):
    """The series as written before its coefficients were precomputed: each
    exponent multiplied out from k and z in the loop."""
    if z < 0.04:
        return (0.0, 0.0) if density else 0.0
    slope = 0.0
    if z < 0.5:
        factor = math.sqrt(2.0 * math.pi) / z
        total = 0.0
        for k in range(1, 101):
            exponent = (2 * k - 1) ** 2 * math.pi**2 / (8.0 * z * z)
            term = factor * math.exp(-exponent)
            total += term
            if density:
                slope += term * (2.0 * exponent - 1.0) / z
            if term < 1e-15:
                break
    else:
        total = 1.0
        term = 2.0 * math.exp(-2.0 * z * z)
        for k in range(1, 101):
            signed = -term if k % 2 else term
            total += signed
            if density:
                slope -= 4.0 * k * k * z * signed
            nxt = k + 1
            term = 2.0 * math.exp(-2.0 * nxt * nxt * z * z)
            if term < 1e-15:
                break
    cdf = min(max(total, 0.0), 1.0)
    return (cdf, slope) if density else cdf


def written_out_grid():
    """Seeded points of [0, 6), log-uniform ones of [0.04, 40], the edges of
    the series' branches with their neighbours, and infinity."""
    edges = [0.04, 0.5, 6.0]
    edges += [math.nextafter(e, d) for e in edges for d in (0.0, math.inf)]
    far = np.exp(np.random.default_rng(29).uniform(math.log(0.04), math.log(40.0), 20_000))
    return (np.random.default_rng(23).uniform(0.0, 6.0, 100_000).tolist() + far.tolist()
            + edges + [math.inf])


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

    def test_same_bits_as_two_exp_loop(self):
        # The alternating series as first written, one exp for the term and
        # one for the stopping check; the series now reuses the check's exp
        # as the next term, which must not change a bit.
        def two_exp_series(z):
            total = 1.0
            for k in range(1, 101):
                total += 2.0 * (-1.0) ** k * math.exp(-2.0 * k * k * z * z)
                nxt = k + 1
                if 2.0 * math.exp(-2.0 * nxt * nxt * z * z) < 1e-15:
                    break
            return min(max(total, 0.0), 1.0)

        rng = np.random.default_rng(21)
        grid = np.concatenate((rng.uniform(0.5, 4.0, 20_000), np.linspace(0.5, 7.0, 5001)))
        for z in grid.tolist():
            assert bridge_sup_cdf(z).hex() == two_exp_series(z).hex()

    def test_same_bits_as_written_out_exponents(self):
        for z in written_out_grid():
            assert dist._cdf(z).hex() == written_out(z).hex(), z
            got, expected = dist._cdf(z, density=True), written_out(z, density=True)
            assert [v.hex() for v in got] == [v.hex() for v in expected], z

    def test_same_bits_as_written_out_below_half(self):
        # The floats just below 0.5, where the theta series' second term is
        # nearest half an ulp of F' (0.82 of one at the float below 0.5).
        z = 0.5
        for _ in range(100_000):
            z = math.nextafter(z, 0.0)
            got, expected = dist._cdf(z, density=True), written_out(z, density=True)
            assert [v.hex() for v in got] == [v.hex() for v in expected], z

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

    @pytest.mark.parametrize("lo, hi, bound", [
        # The rounded exponent pi^2 / (8 z^2), up to 771 here, carries its
        # half ulps into F: at most 1.5e-13 on 3000 seeded points.
        (0.04, 0.1, 1.6e-13),
        (0.1, 0.2, 2.5e-14),
        (0.2, 0.5, 6e-15),
    ])
    def test_theta_series_relative_error_against_decimal(self, lo, hi, bound):
        # Where F is below the smallest normal float, the error counts
        # against that float.
        tiny = Decimal(sys.float_info.min)
        rng = np.random.default_rng(37)
        for z in rng.uniform(lo, hi, 400).tolist() + [lo, math.nextafter(hi, 0.0)]:
            exact = decimal_cdf(z)
            assert abs(Decimal(bridge_sup_cdf(z)) - exact) / max(exact, tiny) <= bound, z


def terms_added(z):
    """The terms F adds: the first theta term below 0.5, and the terms the
    written-out alternating walk adds, with its tolerance checks."""
    if z < 0.04:
        return 0
    if z < 0.5:
        return 1
    for k in range(1, 101):
        if 2.0 * math.exp(-2.0 * (k + 1) ** 2 * z * z) < 1e-15:
            return k


def theta_terms(z, k):
    """Theta term k and its derivative, sqrt(2 pi) / z exp(-a / z^2) and
    that times (2 a / z^2 - 1) / z, with a = (2k - 1)^2 pi^2 / 8."""
    exponent = (2 * k - 1) ** 2 * math.pi**2 / (8.0 * z * z)
    term = math.sqrt(2.0 * math.pi) / z * math.exp(-exponent)
    return term, term * (2.0 * exponent - 1.0) / z


class TestWalks:
    """The alternating walk stops at a precomputed point, computes no term it
    does not add, and ends inside its table; below 0.5 F is one term."""

    def test_stops_are_the_tolerance_boundaries(self):
        # Term k's stop is where the walk, written with its tolerance check,
        # would find term k + 1 below the tolerance.
        for k, entry in enumerate(dist._ALTERNATING, start=1):
            stop, following = entry[-1], -2.0 * (k + 1) ** 2
            # A few nextafter steps from the analytic root.
            assert stop == pytest.approx(math.sqrt(math.log(5e-16) / following), rel=1e-15)
            z = stop
            for _ in range(256):
                z = math.nextafter(z, 0.0)
            for _ in range(513):
                below = 2.0 * math.exp(following * z * z) < dist._TRUNCATION_TOLERANCE
                assert (z >= stop) == below, (k, z)
                z = math.nextafter(z, math.inf)

    def test_no_walk_runs_off_its_table(self):
        # Every z >= 0.5 stops at the last alternating term or before it,
        # and z = 0.5 reaches it.
        stops = [entry[-1] for entry in dist._ALTERNATING]
        assert stops[-1] <= 0.5 < stops[-2]
        for z in written_out_grid():
            if z >= 0.5:
                assert terms_added(z) <= len(dist._ALTERNATING), z

    def test_second_theta_term_is_below_half_an_ulp(self):
        # Both theta terms are positive, so adding the second to the first
        # rounds back to the first, in F and in F'.  Its share rises with z,
        # to its largest at the float below 0.5.
        below = math.nextafter(0.5, 0.0)
        grid = np.linspace(0.04, 0.5, 20_001)[:-1].tolist()
        for z in np.random.default_rng(41).uniform(0.04, 0.5, 20_000).tolist() + grid + [below]:
            (cdf, slope), (term, derivative) = theta_terms(z, 1), theta_terms(z, 2)
            # Doubled, which is exact, as half of a subnormal ulp rounds to 0.
            assert 2.0 * term < math.ulp(cdf), z
            assert 2.0 * derivative < math.ulp(slope), z
        (cdf, slope), (term, derivative) = theta_terms(below, 1), theta_terms(below, 2)
        assert 0.8 * math.ulp(slope) < 2.0 * derivative < 0.85 * math.ulp(slope)
        assert dist._cdf(below, density=True) == (cdf, slope)

    @pytest.mark.parametrize("density", [False, True])
    def test_every_exp_is_an_added_term(self, monkeypatch, density):
        stops = [entry[-1] for entry in dist._ALTERNATING]
        edges = stops + [math.nextafter(stop, 0.0) for stop in stops]
        calls = []
        monkeypatch.setattr(dist, "exp", lambda x: calls.append(x) or math.exp(x))
        theta = np.linspace(0.04, 0.5, 500).tolist()[:-1] + [math.nextafter(0.5, 0.0)]
        for z in written_out_grid()[::50] + edges + theta:
            calls.clear()
            dist._cdf(z, density)
            assert len(calls) == terms_added(z), z


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

    def test_same_bits_as_clamped_complement(self):
        # 1 - F clamped to [0, 1] by the builtins, as first written, below
        # the tail's first term.
        for z in written_out_grid():
            if z < 2.3:
                assert p_value(z).hex() == min(max(1.0 - written_out(z), 0.0), 1.0).hex(), z

    @pytest.mark.parametrize("lo, hi, bound", [
        (0.3, 1.9, 1e-13),
        # The rounding of F near 1, against p >= 5.07e-5 here: at most
        # 3.4e-12 on 3000 seeded points.
        (1.9, 2.3, 3.5e-12),
        (2.3, 5.0, 2e-14),
        # -2 z z rounds to within 0.5 ulp, up to 5.7e-14 at z = 18.8, where
        # p is the smallest normal float.
        (5.0, 18.8, 6e-14),
    ])
    def test_relative_error_against_decimal_series(self, lo, hi, bound):
        rng = np.random.default_rng(37)
        grid = rng.uniform(lo, hi, 400).tolist() + [lo, math.nextafter(hi, 0.0)]
        for z in grid:
            exact = decimal_tail(z)
            assert abs((Decimal(p_value(z)) - exact) / exact) <= bound, z

    def test_tail_is_not_lost_to_cancellation(self):
        # 1 - F kept 3 digits of p(4) and none of p(4.5) (true values from
        # the decimal series).
        assert p_value(4.0) == pytest.approx(2.5328331098e-14, rel=1e-9)
        assert p_value(4.5) == pytest.approx(5.1535142183e-18, rel=1e-9)
        assert 0.0 < p_value(19.0) < sys.float_info.min


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

    def test_at_most_four_cdf_walks(self, monkeypatch):
        # The start needs no walk of the series: each walk is a Newton or
        # bisection step, and a close start leaves few of them.
        calls = []
        cdf = dist._cdf
        monkeypatch.setattr(
            dist, "_cdf", lambda z, density=False: calls.append(z) or cdf(z, density)
        )
        for p in np.random.default_rng(31).uniform(0.05, 0.999, 1000).tolist():
            calls.clear()
            bridge_sup_quantile(p)
            assert len(calls) <= 4, p


def bisection_quantile(p):
    """The quantile as it was computed before Newton steps: bisection of
    the bracket to a width of 1e-14."""
    lo, hi = 0.0, 1.0
    while bridge_sup_cdf(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bridge_sup_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


class TestQuantileContract:
    """What montecarlo._critical_bands relies on: its _TALLY_MARGIN assumes
    the quantile is within about 1e-14 in probability."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(29)
        p = np.unique(np.concatenate((
            10.0 ** -rng.uniform(1.0, 300.0, 300),  # lower tail
            rng.uniform(0.0, 1.0, 1000),
            1.0 - 10.0 ** -rng.uniform(1.0, 15.5, 300),  # upper tail
        ))).tolist()
        return p, [bridge_sup_quantile(x) for x in p]

    def test_within_1e_14_in_probability(self, grid):
        for p, q in zip(*grid):
            assert abs(bridge_sup_cdf(q) - p) <= 1e-14, p

    def test_non_decreasing(self, grid):
        q = grid[1]
        assert all(a <= b for a, b in zip(q, q[1:]))

    def test_seven_decimals_of_bisection(self, grid):
        # Above about 1 - 1e-6 the quantile is ill-conditioned: F resolves
        # 1.1e-16, which moves z by 1e-16 / f(z).
        for p, q in zip(*grid):
            if 1e-300 <= p <= 1.0 - 1e-6:
                assert f"{q:.7f}" == f"{bisection_quantile(p):.7f}", p

    @pytest.mark.parametrize("lo, hi, bound", [
        # |F(q) - p| / p with F summed in decimal at the returned q.  In the
        # lower tail dF/F = (2w - 1) dz/z with w = pi^2 / (8 z^2), up to 1400
        # at p = 1e-300, so one ulp of q moves F by up to 2.3e-13 relative.
        # Largest on 3000 seeded p per range: 2.2e-13, 8.3e-14 and 1.8e-14.
        (1e-300, 1e-100, 2.2e-13),
        (1e-100, 1e-10, 8.5e-14),
        (1e-10, 1.0, 2e-14),
    ])
    def test_relative_residual_against_decimal(self, grid, lo, hi, bound):
        for p, q in zip(*grid):
            if lo <= p < hi:
                assert abs(decimal_cdf(q) - Decimal(p)) / Decimal(p) <= bound, p

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1.0 - 2.0**-53])
    def test_extremes_converge(self, monkeypatch, p):
        calls = []
        cdf = dist._cdf
        monkeypatch.setattr(
            dist, "_cdf", lambda z, density=False: calls.append(z) or cdf(z, density)
        )
        q = bridge_sup_quantile(p)
        assert len(calls) < 80  # well before the iteration cap
        assert 0.04 < q < 5.0
        assert abs(cdf(q) - p) <= 1e-14

    # |F(q) - p| where the search bisected its bracket down to a 1e-14 step,
    # in up to 62 walks of the series.
    BISECTED_RESIDUALS = {5e-324: 5e-324, 1e-323: 2.96e-322, 1e-320: 2.87e-322,
                          1e-318: 4.4e-323, 1e-315: 1.2e-322}

    @pytest.mark.parametrize("p", sorted(BISECTED_RESIDUALS))
    def test_subnormal_stops_once_residual_stalls(self, monkeypatch, p):
        calls = []
        cdf = dist._cdf
        monkeypatch.setattr(
            dist, "_cdf", lambda z, density=False: calls.append(z) or cdf(z, density)
        )
        q = bridge_sup_quantile(p)
        assert len(calls) <= 4
        assert abs(cdf(q) - p) <= self.BISECTED_RESIDUALS[p]

    def test_pdf_is_derivative_of_cdf(self):
        grid = np.concatenate((np.linspace(0.045, 3.0, 400), [0.4999, 0.5, 0.5001]))
        for z in grid.tolist():
            h = 1e-6 * z
            central = (bridge_sup_cdf(z + h) - bridge_sup_cdf(z - h)) / (2.0 * h)
            density = dist._cdf(z, density=True)[1]
            assert density == pytest.approx(central, rel=1e-5, abs=1e-10), z

    def test_pdf_zero_where_cdf_is(self):
        for z in (-1.0, 0.0, 0.039):
            assert dist._cdf(z, density=True)[1] == 0.0
