"""Fading statistics and rate formulas against independent numerical oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive

from uavstream.channel import (DegenerateLinkWarning, LinkBudget, marcum_q1,
                               outage_probability, rate_agu, rate_gbs, rate_relay,
                               rician_cdf, rician_cdf_inverse)


def marcum_q1_quadrature(a, b):
    """Direct adaptive quadrature of the defining tail integral (oracle)."""
    def integrand(x):
        # x * exp(-(x^2 + a^2)/2) * I0(a x), with the Bessel factor scaled
        # to keep the product finite at large a*x.
        return x * ive(0, a * x) * math.exp(-0.5 * (x - a) ** 2)
    upper = max(a, b) + 50.0
    val, _ = quad(integrand, b, upper, limit=500)
    return val


def rician_power_samples(K, n, seed):
    """Squared Rician envelope with unit mean power: |nu + sigma*(X+iY)|^2."""
    rng = np.random.default_rng(seed)
    nu = math.sqrt(K / (K + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (K + 1.0)))
    re = nu + sigma * rng.standard_normal(n)
    im = sigma * rng.standard_normal(n)
    return re * re + im * im


class TestMarcumQ:
    def test_b_zero_gives_one(self):
        for a in [0.0, 0.3, 1.0, 5.0, 20.0]:
            assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_rayleigh_tail(self):
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_against_quadrature(self):
        for a, b in [(1.0, 1.0), (0.5, 2.0), (3.0, 1.0), (2.0, 2.0),
                     (0.1, 0.1), (5.0, 4.0), (4.0, 5.0), (2.828, 0.84),
                     (10.0, 9.0), (0.0, 0.7)]:
            assert marcum_q1(a, b) == pytest.approx(marcum_q1_quadrature(a, b), abs=1e-8)

    def test_q1_1_1_reference(self):
        # frozen from the quadrature oracle above
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.7328798037968204, abs=1e-10)

    def test_bounds_and_large_arguments(self):
        for a, b in [(50.0, 49.0), (50.0, 51.0), (100.0, 100.0)]:
            v = marcum_q1(a, b)
            assert 0.0 <= v <= 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 1.0)


class TestRicianCdf:
    def test_zero_for_any_k(self):
        for K in [0.0, 1.0, 4.0, 10.0]:
            assert rician_cdf(0.0, K) == 0.0

    def test_rayleigh_closed_form(self):
        assert rician_cdf(math.log(2.0), 0.0) == pytest.approx(0.5, abs=1e-12)
        for z in np.linspace(0.01, 5.0, 40):
            assert rician_cdf(z, 0.0) == pytest.approx(-math.expm1(-z), abs=1e-12)

    def test_non_decreasing(self):
        for K in [0.0, 4.0, 12.0]:
            grid = [rician_cdf(z, K) for z in np.linspace(0.0, 6.0, 200)]
            assert all(b >= a - 1e-13 for a, b in zip(grid, grid[1:]))
            assert grid[-1] > 0.99

    def test_k4_against_monte_carlo(self):
        samples = rician_power_samples(4.0, 10**6, seed=20240501)
        for z in [0.2, 0.5, 1.0, 1.5]:
            emp = np.mean(samples < z)
            f = rician_cdf(z, 4.0)
            se = math.sqrt(max(f * (1 - f), 1e-12) / samples.size)
            assert abs(emp - f) <= 3.0 * se


class TestRicianInverse:
    def test_rayleigh_analytic(self):
        assert rician_cdf_inverse(0.01, 0.0) == pytest.approx(-math.log(0.99), abs=1e-8)
        assert rician_cdf_inverse(0.5, 0.0) == pytest.approx(math.log(2.0), abs=1e-8)

    def test_round_trip(self):
        for K in [0.0, 2.0, 4.0]:
            for rho in [0.001, 0.01, 0.1]:
                z = rician_cdf_inverse(rho, K)
                assert rician_cdf(z, K) == pytest.approx(rho, abs=1e-9)

    def test_monotone_in_rho(self):
        zs = [rician_cdf_inverse(r, 4.0) for r in [0.001, 0.01, 0.1, 0.5, 0.9]]
        assert all(b > a for a, b in zip(zs, zs[1:]))

    def test_k4_against_monte_carlo_quantile(self):
        samples = rician_power_samples(4.0, 10**7, seed=7)
        z = rician_cdf_inverse(0.01, 4.0)
        emp_quantile = np.quantile(samples, 0.01)
        # SE of the empirical quantile: sqrt(p(1-p)/n) / pdf(z)
        h = 1e-3
        pdf = (rician_cdf(z + h, 4.0) - rician_cdf(z - h, 4.0)) / (2 * h)
        se = math.sqrt(0.01 * 0.99 / samples.size) / pdf
        assert abs(z - emp_quantile) <= 3.0 * se

    def test_domain_errors(self):
        for rho in [0.0, 1.0, -0.1, 1.5]:
            with pytest.raises(ValueError):
                rician_cdf_inverse(rho, 4.0)
        with pytest.raises(ValueError):
            rician_cdf(0.3, -0.5)
        with pytest.raises(ValueError):
            rician_cdf_inverse(0.01, -0.5)


class TestGainAndRates:
    def test_rate_agu_hand_value(self):
        # x=1, P=0.2 W, mu0=1e8, Rayleigh F^-1(0.01), UAV overhead at 100 m:
        # log2(1 + 0.0100503*0.2*1e8/1e4) computed independently here.
        budget = LinkBudget(mu0=1e8, inv_cdf_at_rho=-math.log(0.99))
        r = rate_agu(1.0, 0.2, [0.0, 0.0], [0.0, 0.0], budget, 100.0)
        expected = math.log2(1.0 + (-math.log(0.99)) * 0.2 * 1e8 / 1e4)
        assert r == pytest.approx(expected, rel=1e-12)
        assert r == pytest.approx(4.3993, abs=1e-4)

    def test_rate_agu_zero_power(self):
        budget = LinkBudget(mu0=1e8, inv_cdf_at_rho=0.07)
        assert rate_agu(0.5, 0.0, [0, 0], [10, 10], budget, 100.0) == 0.0

    def test_rate_agu_domain_error(self):
        budget = LinkBudget(mu0=1e8, inv_cdf_at_rho=0.07)
        with pytest.raises(ValueError):
            rate_agu(0.0, 0.1, [0, 0], [0, 0], budget, 100.0)

    def test_rate_agu_increasing_in_bandwidth(self):
        budget = LinkBudget(mu0=1e8, inv_cdf_at_rho=0.07)
        rates = [rate_agu(x, 0.2, [50, 20], [0, 0], budget, 100.0)
                 for x in np.linspace(0.05, 1.0, 30)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_rate_relay_hand_value(self):
        r = rate_relay(0.1, [0, 0], [1000, 0], 1e8, 100.0, 100.0)
        assert r == pytest.approx(math.log2(11.0), rel=1e-12)

    def test_rate_relay_decreasing_in_distance(self):
        rates = [rate_relay(0.1, [0, 0], [d, 0], 1e8, 100.0, 100.0)
                 for d in np.linspace(10, 3000, 50)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_rate_relay_degenerate_flagged(self):
        with pytest.warns(DegenerateLinkWarning):
            assert rate_relay(0.1, [0, 0], [0, 0], 1e8, 100.0, 100.0) == math.inf

    def test_rate_gbs_hand_value(self):
        # relay directly above the GBS: log2(1 + 0.1*1e8/ (100-20)^2)
        r = rate_gbs(0.1, [-2500, 0], [-2500, 0], 1e8, 100.0, 20.0)
        assert r == pytest.approx(math.log2(1.0 + 1e7 / 6400.0), rel=1e-12)
        assert r == pytest.approx(10.611, abs=1e-3)

    def test_rate_gbs_improves_toward_gbs(self):
        w_b = np.array([-2500.0, 0.0])
        rates = [rate_gbs(0.1, [qx, 0.0], w_b, 1e8, 100.0, 20.0)
                 for qx in np.linspace(0.0, -2500.0, 60)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_zero_powers(self):
        assert rate_relay(0.0, [0, 0], [100, 0], 1e8, 100.0, 100.0) == 0.0
        assert rate_gbs(0.0, [0, 0], [-2500, 0], 1e8, 100.0, 20.0) == 0.0


class TestOutage:
    def test_zero_rate_zero_outage(self):
        assert outage_probability(0.0, 0.5, 0.1, [0, 0], [10, 10], 1e8, 100.0, 4.0) == 0.0

    def test_round_trip_at_target(self):
        # The scheduled rate from the outage-equality formula must produce
        # exactly the target outage when pushed back through the CDF.
        rho, K = 0.01, 4.0
        budget = LinkBudget(mu0=1e8, inv_cdf_at_rho=rician_cdf_inverse(rho, K))
        rng = np.random.default_rng(5)
        for _ in range(25):
            q = rng.uniform(-300, 300, 2)
            w = rng.uniform(-250, 250, 2)
            x, p = rng.uniform(0.05, 1.0), rng.uniform(0.01, 0.2)
            r = rate_agu(x, p, q, w, budget, 100.0)
            out = outage_probability(r, x, p, q, w, 1e8, 100.0, K)
            assert out == pytest.approx(rho, abs=1e-8)

    def test_monotone_in_rate(self):
        vals = [outage_probability(r, 0.5, 0.1, [0, 0], [30, 40], 1e8, 100.0, 4.0)
                for r in np.linspace(0.0, 6.0, 50)]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            outage_probability(1.0, 0.0, 0.1, [0, 0], [0, 0], 1e8, 100.0, 4.0)
        with pytest.raises(ValueError):
            outage_probability(1.0, 0.5, 0.0, [0, 0], [0, 0], 1e8, 100.0, 4.0)
