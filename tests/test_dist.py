"""Tests for the sup-absolute-Brownian-bridge limit law."""

import math

import numpy as np
import pytest

from meanbreak import dist
from meanbreak.dist import bridge_sup_cdf, bridge_sup_quantile, p_value


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

    def test_same_bits_as_clamped_complement(self):
        # 1 - F clamped to [0, 1] by the builtins, as first written.
        for z in written_out_grid():
            assert p_value(z).hex() == min(max(1.0 - written_out(z), 0.0), 1.0).hex(), z


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
