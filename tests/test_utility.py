"""Streaming-utility arithmetic and shape properties."""

import math

import numpy as np
import pytest

from uavstream.utility import UtilityParams, average_utility, user_utility

PARAMS = UtilityParams(theta=0.8, beta=100.0, rbar=1.0)


class TestUserUtility:
    def test_zero_at_knee(self):
        # beta * R / rbar == 1 -> log of unity
        assert user_utility(PARAMS.rbar / PARAMS.beta, PARAMS) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_at_playback_rate(self):
        assert user_utility(1.0, PARAMS) == pytest.approx(0.8 * math.log(100.0), rel=1e-14)
        assert user_utility(1.0, PARAMS) == pytest.approx(3.6841, abs=1e-4)

    def test_monotone_and_concave(self):
        rates = np.linspace(0.05, 4.0, 80)
        vals = [user_utility(r, PARAMS) for r in rates]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 0)

    def test_negative_for_tiny_rates(self):
        assert user_utility(1e-4, PARAMS) < 0

    def test_domain_error(self):
        for bad in [0.0, -1.0]:
            with pytest.raises(ValueError):
                user_utility(bad, PARAMS)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            UtilityParams(theta=0.0, beta=100.0, rbar=1.0)


class TestAverageUtility:
    def test_identical_users_match_single(self):
        assert average_utility([2.0] * 7, PARAMS) == pytest.approx(
            user_utility(2.0, PARAMS), rel=1e-14)

    def test_two_user_mean(self):
        # one user at the knee (utility 0), one at the playback rate
        r_knee = PARAMS.rbar / PARAMS.beta
        got = average_utility([r_knee, 1.0], PARAMS)
        assert got == pytest.approx(0.5 * 0.8 * math.log(100.0), rel=1e-12)
        assert got == pytest.approx(1.84207, abs=1e-4)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        rates = rng.uniform(0.1, 3.0, 9)
        base = average_utility(rates, PARAMS)
        for _ in range(5):
            assert average_utility(rng.permutation(rates), PARAMS) == pytest.approx(base, rel=1e-14)

    def test_concavity_midpoint(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.uniform(0.05, 3.0, 6)
            b = rng.uniform(0.05, 3.0, 6)
            mid = average_utility(0.5 * (a + b), PARAMS)
            assert mid >= 0.5 * (average_utility(a, PARAMS) + average_utility(b, PARAMS)) - 1e-12

    def test_scale_shift_identity(self):
        rng = np.random.default_rng(2)
        rates = rng.uniform(0.2, 2.0, 5)
        for c in [0.5, 2.0, 10.0]:
            assert average_utility(c * rates, PARAMS) == pytest.approx(
                average_utility(rates, PARAMS) + PARAMS.theta * math.log(c), rel=1e-12)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            average_utility([1.0, 0.0], PARAMS)

    def test_equals_the_mean_of_user_logs_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for U in (1, 2, 7, 30, 200, 1000):
            rates = 10.0 ** rng.uniform(-6, 2, U)
            expected = float(PARAMS.theta * np.mean(np.log(PARAMS.beta * rates / PARAMS.rbar)))
            assert average_utility(rates, PARAMS) == expected

    def test_nan_rate_propagates_and_does_not_hide_a_negative_one(self):
        assert math.isnan(average_utility([1.0, float("nan")], PARAMS))
        with pytest.raises(ValueError):
            average_utility([float("nan"), -1.0], PARAMS)
