"""Resource and placement subproblems: exactness, bounds, and solver quality."""

import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import lambertw

from uavstream.channel import _persp_rate, fspl_rate, rate_agu, rate_gbs, rate_relay
from uavstream.cli import apply_sweep_value
from uavstream.convex_core import NumericError, _pieces, _solve_spd, _terms, solve_concave
from uavstream.orchestrator import initialize_state, run_benchmark
from uavstream.scenario import Scenario, UavPlacement, generate_scenario, table2_config
from uavstream import subproblems
from uavstream.subproblems import (DecisionState, InfeasibleProblem,
                                   capped_fill, equal_hop_placement, exact_fill_objective,
                                   lower_bound_rates, make_link_budget, rate_caps,
                                   reduced_point, sca_coefficients, solve_p5, solve_p7,
                                   utility_params, _level_shares, _p7_program, _price_split)
from uavstream.utility import average_utility

from dense_reference import (assert_p5_kkt, border_only_twin, check_gradients,
                             check_p5_closed_form, dense_curvature, dense_jacobian,
                             dense_newton_matrix, dense_step, interior, nested_price_split,
                             p5_constants, p5_program, p5_reference_objective,
                             random_interior_points)

LN2 = math.log(2.0)


def mirrored_scenario(offset_y=150.0, num_extra=0, seed=0):
    """Two users mirrored about the x-axis (plus the GBS already on it)."""
    cfg = table2_config(num_users_U=2, rng_seed=seed)
    return Scenario(config=cfg, gbs_pos_wb=[-2500.0, 0.0],
                    agu_pos_wu=[[60.0, offset_y], [60.0, -offset_y]])


def single_user_scenario():
    cfg = table2_config(num_users_U=1, area_side=0.0)
    return generate_scenario(cfg)


def state_at(sc, budget, placement, x):
    """The state at placement with the split x, every power at its budget,
    and its exact fill, as solve_p7 takes it."""
    cfg = sc.config
    p = np.full(cfg.num_users_U, cfg.p_max_user)
    r = exact_fill_objective(sc, budget, x, p, cfg.p_max_obs, cfg.p_max_relay, placement)[1]
    return DecisionState(np.asarray(x, dtype=float), p, cfg.p_max_obs, cfg.p_max_relay,
                         placement, r)


def p7_steps(sc, budget, state, max_steps):
    """P7 steps from state until one stalls, at most max_steps: the last
    result and the state at its placement."""
    for _ in range(max_steps):
        res = solve_p7(sc, state, budget)
        state = dataclasses.replace(state, placement=res.placement, r_tilde=res.r_tilde)
        if res.stalled:
            break
    return res, state


class TestCappedFill:
    def test_loose_total_returns_caps(self):
        caps = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(capped_fill(caps, 10.0), caps)

    def test_binding_total_equalizes(self):
        r = capped_fill(np.array([3.0, 3.0, 3.0]), 3.0)
        assert np.allclose(r, 1.0)

    def test_mixed_caps(self):
        r = capped_fill(np.array([0.2, 5.0, 5.0]), 3.0)
        assert r[0] == pytest.approx(0.2)
        assert np.allclose(r[1:], 1.4)
        assert r.sum() == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_slsqp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        caps = rng.uniform(0.1, 3.0, 5)
        total = float(rng.uniform(0.5, caps.sum() * 1.2))
        mine = capped_fill(caps, total)

        res = minimize(lambda r: -np.sum(np.log(r)), np.full(5, min(total / 5, caps.min()) * 0.9),
                       bounds=[(1e-9, c) for c in caps],
                       constraints=[{"type": "ineq", "fun": lambda r: total - r.sum()}],
                       method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
        assert np.sum(np.log(mine)) >= -res.fun - 1e-7

    @staticmethod
    def loop_fill(caps, total):
        """The water level found user by user, lowest cap first: the
        reference the vectorised fill must match bit for bit."""
        if caps.sum() <= total:
            return caps.copy()
        sorted_caps, prefix = np.sort(caps), 0.0
        for k in range(len(caps)):
            level = (total - prefix) / (len(caps) - k)
            if level <= sorted_caps[k]:
                return np.minimum(caps, level)
            prefix += sorted_caps[k]
        return caps.copy()

    @pytest.mark.parametrize("case", ["random", "ties", "all_capped", "equal_split"])
    def test_matches_the_loop_bit_for_bit(self, case):
        rng = np.random.default_rng(7)
        for _ in range(300):
            U = int(rng.integers(1, 300))
            caps = rng.uniform(0.01, 5.0, U)
            if case == "ties":
                caps = np.round(caps, 1) + 0.1
            share = {"random": rng.uniform(0.01, 1.0), "ties": rng.uniform(0.01, 1.0),
                     "all_capped": rng.uniform(1.0, 1.5),
                     "equal_split": 0.9 * U * caps.min() / caps.sum()}[case]
            total = float(share * caps.sum())
            assert np.array_equal(capped_fill(caps, total), self.loop_fill(caps, total))

    def test_rejects_impossible(self):
        with pytest.raises(InfeasibleProblem):
            capped_fill(np.array([0.0, 1.0]), 1.0)
        with pytest.raises(InfeasibleProblem):
            capped_fill(np.array([1.0, 1.0]), 0.0)


class TestLinkMeasurement:
    """subproblems measures a placement's links in one place (_links): the
    rate caps equal the link-level rates of channel, and a zero-length hop is
    reported there alone, as InfeasibleProblem, before any rate is
    evaluated."""

    @pytest.mark.parametrize("relay", [True, False])
    def test_rate_caps_equal_the_link_level_rates(self, relay):
        # Random placements, shares and powers (some zero) on configs with
        # random whole-metre heights, whose squares are exact in both forms.
        rng = np.random.default_rng(11)
        for _ in range(60):
            U = int(rng.integers(1, 12))
            heights = rng.integers(20, 300, 3).astype(float)
            cfg = table2_config(num_users_U=U, rng_seed=int(rng.integers(0, 1000)),
                                area_side=float(rng.uniform(0.0, 3000.0)),
                                height_obs_Ho=heights[0], height_relay_Hr=heights[1],
                                height_gbs_Hb=heights[2])
            sc = generate_scenario(cfg)
            budget = make_link_budget(cfg)
            q_obs, q_relay = rng.uniform(-3000.0, 3000.0, (2, 2))
            placement = UavPlacement(q_obs, q_relay if relay else None)
            x = rng.dirichlet(np.ones(U))
            p_user = rng.uniform(0.0, 1.0, U) * (rng.uniform(size=U) < 0.8)
            p_obs, p_relay = rng.uniform(0.0, 1.0, 2) * (rng.uniform(size=2) < 0.7)
            caps, link_cap = rate_caps(sc, budget, x, p_user, p_obs, p_relay, placement)

            one_m_rho = 1.0 - cfg.outage_target_rho
            assert np.array_equal(caps, [
                one_m_rho * rate_agu(x[u], p_user[u], q_obs, sc.agu_pos_wu[u], budget,
                                     cfg.height_obs_Ho) for u in range(U)])
            nodes = [(q_obs, cfg.height_obs_Ho)] + (
                [(q_relay, cfg.height_relay_Hr)] if relay else []) + [
                (sc.gbs_pos_wb, cfg.height_gbs_Hb)]
            assert link_cap == min(
                fspl_rate(p, q_tx, q_rx, budget.mu0, h_tx, h_rx)
                for p, (q_tx, h_tx), (q_rx, h_rx) in zip((p_obs, p_relay), nodes, nodes[1:]))

    def test_a_zero_length_hop_is_infeasible_everywhere_without_a_warning(self):
        # Every UAV and the GBS at 100 m: a relay on the observation UAV, and
        # an observation UAV over the GBS on either chain, leave a
        # zero-length hop.
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=0, height_gbs_Hb=100.0))
        budget = make_link_budget(sc.config)
        start = initialize_state(sc, budget)
        q_obs = start.placement.q_obs
        placement = UavPlacement(q_obs, q_obs)
        args = (start.x, start.p_user, start.p_obs, start.p_relay, placement)
        calls = [
            lambda: exact_fill_objective(sc, budget, *args),
            lambda: rate_caps(sc, budget, *args),
            lambda: dataclasses.replace(start, placement=placement).validate(sc, budget),
            lambda: solve_p5(sc, placement, start, budget),
            lambda: reduced_point(sc, budget, sc.gbs_pos_wb, relay=True),
            lambda: reduced_point(sc, budget, sc.gbs_pos_wb, relay=False),
        ]
        for call in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(InfeasibleProblem):
                    call()
            assert caught == []


class TestScaCoefficients:
    def setup_method(self):
        self.scenario = generate_scenario(table2_config(num_users_U=4, rng_seed=2))
        self.cfg = self.scenario.config
        self.budget = make_link_budget(self.cfg)
        q_obs = self.scenario.agu_pos_wu.mean(axis=0)
        self.expansion = UavPlacement(q_obs=q_obs,
                                      q_relay=0.5 * (q_obs + self.scenario.gbs_pos_wb))
        self.x = np.array([0.3, 0.25, 0.25, 0.2])
        self.p = np.full(4, self.cfg.p_max_user)

    def coeffs(self):
        return sca_coefficients(self.scenario, self.x, self.p, self.cfg.p_max_obs,
                                self.cfg.p_max_relay, self.expansion, self.budget)

    def test_c_matches_per_bandwidth_rate(self):
        co = self.coeffs()
        for u in range(4):
            exact = rate_agu(self.x[u], self.p[u], self.expansion.q_obs,
                             self.scenario.agu_pos_wu[u], self.budget,
                             self.cfg.height_obs_Ho)
            assert co.c_user[u] * self.x[u] == pytest.approx(exact, rel=1e-14)

    def test_zero_power_collapses(self):
        co = sca_coefficients(self.scenario, self.x, np.zeros(4), 0.0, 0.0,
                              self.expansion, self.budget)
        assert np.allclose(co.c_user, 0.0) and np.allclose(co.d_user, 0.0)
        assert np.all(co.c_hop == 0.0) and np.all(co.d_hop == 0.0)

    def test_hand_instance(self):
        # UAV directly above a single user: den = Ho^2 = 1e4, mu = 20.1
        cfg = table2_config(num_users_U=1, area_side=0.0)
        sc = generate_scenario(cfg)
        budget = make_link_budget(cfg)
        expansion = UavPlacement(q_obs=[0.0, 0.0], q_relay=[-1250.0, 0.0])
        mu = budget.inv_cdf_at_rho * 0.2 * budget.mu0 / 1.0
        co = sca_coefficients(sc, np.array([1.0]), np.array([0.2]), 0.1, 0.1,
                              expansion, budget)
        den = 1e4
        assert co.c_user[0] == pytest.approx(math.log2(1.0 + mu / den), rel=1e-12)
        assert co.d_user[0] == pytest.approx(mu / (den * (den + mu) * LN2), rel=1e-12)

    def test_zero_length_hop_is_infeasible(self):
        # table2 flies both UAVs at one height: a relay on the observation
        # UAV is a zero-length hop, as every link measurement reports it.
        expansion = UavPlacement(q_obs=self.expansion.q_obs, q_relay=self.expansion.q_obs)
        with pytest.raises(InfeasibleProblem):
            sca_coefficients(self.scenario, self.x, self.p, 0.1, 0.1, expansion, self.budget)

    def test_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            sca_coefficients(self.scenario, np.array([0.0, 0.3, 0.3, 0.3]), self.p,
                             0.1, 0.1, self.expansion, self.budget)


class TestLowerBounds:
    def setup_method(self):
        self.scenario = generate_scenario(table2_config(num_users_U=3, rng_seed=5))
        self.cfg = self.scenario.config
        self.budget = make_link_budget(self.cfg)
        q_obs = self.scenario.agu_pos_wu.mean(axis=0) + np.array([-40.0, 25.0])
        self.expansion = UavPlacement(q_obs=q_obs,
                                      q_relay=0.5 * (q_obs + self.scenario.gbs_pos_wb))
        self.x = np.array([0.5, 0.3, 0.2])
        self.p = np.full(3, self.cfg.p_max_user)
        self.coeffs = sca_coefficients(self.scenario, self.x, self.p,
                                       self.cfg.p_max_obs, self.cfg.p_max_relay,
                                       self.expansion, self.budget)

    def exact_rates(self, placement):
        cfg = self.cfg
        ru = np.array([rate_agu(self.x[u], self.p[u], placement.q_obs,
                                self.scenario.agu_pos_wu[u], self.budget,
                                cfg.height_obs_Ho) for u in range(3)])
        ro = rate_relay(cfg.p_max_obs, placement.q_obs, placement.q_relay,
                        self.budget.mu0, cfg.height_obs_Ho, cfg.height_relay_Hr)
        rb = rate_gbs(cfg.p_max_relay, placement.q_relay, self.scenario.gbs_pos_wb,
                      self.budget.mu0, cfg.height_relay_Hr, cfg.height_gbs_Hb)
        return ru, ro, rb

    def test_tight_at_expansion(self):
        lb_u, (lb_o, lb_g) = lower_bound_rates(self.coeffs, self.expansion,
                                               self.scenario, self.x)
        ru, ro, rb = self.exact_rates(self.expansion)
        assert np.max(np.abs(lb_u - ru) / ru) <= 1e-12
        assert abs(lb_o - ro) / ro <= 1e-12
        assert abs(lb_g - rb) / rb <= 1e-12

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            placement = UavPlacement(
                q_obs=self.expansion.q_obs + rng.uniform(-800, 800, 2),
                q_relay=self.expansion.q_relay + rng.uniform(-800, 800, 2))
            lb_u, (lb_o, lb_g) = lower_bound_rates(self.coeffs, placement,
                                                   self.scenario, self.x)
            ru, ro, rb = self.exact_rates(placement)
            assert np.all(lb_u <= ru + 1e-12)
            assert lb_o <= ro + 1e-12
            assert lb_g <= rb + 1e-12

    def test_zero_slope_coefficients_give_constants(self):
        co = sca_coefficients(self.scenario, self.x, np.zeros(3), 0.0, 0.0,
                              self.expansion, self.budget)
        rng = np.random.default_rng(3)
        for _ in range(10):
            placement = UavPlacement(q_obs=rng.uniform(-500, 500, 2),
                                     q_relay=rng.uniform(-2500, 0, 2))
            lb_u, lb_hop = lower_bound_rates(co, placement, self.scenario, self.x)
            assert np.allclose(lb_u, 0.0) and np.all(lb_hop == 0.0)


class TestSolveP5:
    def test_single_user_takes_everything(self):
        sc = single_user_scenario()
        budget = make_link_budget(sc.config)
        state = initialize_state(sc)
        out = solve_p5(sc, state.placement, state, budget)
        assert out.x[0] == pytest.approx(1.0, abs=1e-12)
        assert out.p_user[0] == sc.config.p_max_user
        assert out.p_obs == sc.config.p_max_obs
        assert out.p_relay == sc.config.p_max_relay
        out.validate(sc, budget)

    def test_powers_exactly_at_budget(self):
        sc = generate_scenario(table2_config(num_users_U=6, rng_seed=3))
        budget = make_link_budget(sc.config)
        state = initialize_state(sc)
        out = solve_p5(sc, state.placement, state, budget)
        assert np.all(out.p_user == sc.config.p_max_user)
        assert out.p_obs == sc.config.p_max_obs
        assert out.p_relay == sc.config.p_max_relay

    def test_power_monotonicity_perturbation_oracle(self):
        # Raising any power never hurts the best achievable objective.
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=9))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = initialize_state(sc)
        x = state.x
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(0.2, 1.0, 4) * cfg.p_max_user
            po = float(rng.uniform(0.2, 1.0) * cfg.p_max_obs)
            pr = float(rng.uniform(0.2, 1.0) * cfg.p_max_relay)
            base, _ = exact_fill_objective(sc, budget, x, p, po, pr, state.placement)
            bump = rng.uniform(1.0, 1.5)
            for variant in [(p * bump, po, pr), (p, min(po * bump, cfg.p_max_obs), pr),
                            (p, po, min(pr * bump, cfg.p_max_relay))]:
                up, _ = exact_fill_objective(sc, budget,
                                             x, np.minimum(variant[0], cfg.p_max_user),
                                             variant[1], variant[2], state.placement)
                assert up >= base - 1e-12

    def test_symmetric_users_split_evenly(self):
        sc = mirrored_scenario()
        budget = make_link_budget(sc.config)
        state = initialize_state(sc)
        out = solve_p5(sc, state.placement, state, budget)
        assert out.x[0] == pytest.approx(out.x[1], abs=1e-6)
        assert out.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_objective_never_regresses(self):
        sc = generate_scenario(table2_config(num_users_U=5, rng_seed=14))
        budget = make_link_budget(sc.config)
        state = initialize_state(sc)
        before, _ = exact_fill_objective(sc, budget, state.x, state.p_user,
                                         state.p_obs, state.p_relay, state.placement)
        out = solve_p5(sc, state.placement, state, budget)
        after, _ = exact_fill_objective(sc, budget, out.x, out.p_user,
                                        out.p_obs, out.p_relay, out.placement)
        assert after >= before - 1e-9
        out.validate(sc, budget)

    def test_zero_length_relay_hop_is_infeasible(self):
        # table2 flies both UAVs at 100 m, so a relay on the observation UAV
        # leaves a zero-length hop; P5 reports it before any rate warns.
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=0))
        state = initialize_state(sc)
        placement = UavPlacement(state.placement.q_obs, state.placement.q_obs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleProblem):
                solve_p5(sc, placement, state)


class TestFlatP5:
    """P5 is flat when every user can reach the equal level link_cap/U within
    the bandwidth; solve_p5 then returns the least shares that reach it,
    rescaled onto the whole bandwidth, without a solve."""

    @staticmethod
    def chain(state, relay):
        return state.placement if relay else UavPlacement(state.placement.q_obs)

    @pytest.mark.parametrize("relay", [True, False])
    @pytest.mark.parametrize("num_users", [10, 30, 200])
    def test_table2_start_is_flat_and_solved_in_closed_form(self, num_users, relay,
                                                            monkeypatch):
        sc = generate_scenario(table2_config(num_users_U=num_users, rng_seed=0))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = initialize_state(sc)
        placement = self.chain(state, relay)

        def no_solve(*args, **kwargs):
            raise AssertionError("a flat P5 must not be solved")

        monkeypatch.setattr(subproblems, "solve_concave", no_solve)
        out = solve_p5(sc, placement, state, budget)
        out.validate(sc, budget)
        args = p5_constants(sc, budget, placement)
        link_cap = args[1]
        assert np.all(out.r_tilde == link_cap / num_users)
        assert out.x.sum() == pytest.approx(1.0, abs=1e-12)

        # On the optimal face: lam = 0, and every cap reaches the equal level.
        assert _price_split(*args)[1] == 0.0
        caps, _ = rate_caps(sc, budget, out.x, out.p_user, cfg.p_max_obs, cfg.p_max_relay,
                            placement)
        assert np.all(caps >= link_cap / num_users)

    def test_user_limited_instance_is_solved(self, monkeypatch):
        # At p_max_user = 0.002 some user cannot reach the equal level: P5 is
        # not flat, and solve_p5 answers from its two prices, with no solve,
        # at least as well as the interior-point reference.
        sc = generate_scenario(table2_config(num_users_U=20, rng_seed=0, p_max_user=0.002))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = initialize_state(sc)
        assert _price_split(*p5_constants(sc, budget, state.placement))[1] > 0.0

        calls = []
        solve = subproblems.solve_concave
        monkeypatch.setattr(subproblems, "solve_concave",
                            lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
        out = solve_p5(sc, state.placement, state, budget)
        assert calls == []
        obj, _ = exact_fill_objective(sc, budget, out.x, out.p_user, cfg.p_max_obs,
                                      cfg.p_max_relay, state.placement)
        ref = p5_reference_objective(sc, budget, state.placement, state.x)
        start_obj, _ = exact_fill_objective(sc, budget, state.x, out.p_user, cfg.p_max_obs,
                                            cfg.p_max_relay, state.placement)
        assert ref >= start_obj
        assert obj >= ref - 1e-9 * max(1.0, abs(ref))

    def test_user_whose_cap_at_full_band_misses_the_level(self):
        one_m_rho, level = 0.99, 2.0
        sup = one_m_rho / LN2          # cap_u(x) -> sup * c_u as x grows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # c = 1: no share reaches the level (k >= 1).
            assert level > sup * 1.0
            assert _price_split(np.array([50.0, 1.0]), 2.0 * level, one_m_rho, 0.5)[1] > 0.0
            # c = 3: the cap reaches the level only past the full band.
            assert one_m_rho * np.log2(1.0 + 3.0) < level < sup * 3.0
            assert _price_split(np.array([50.0, 3.0]), 2.0 * level, one_m_rho, 0.5)[1] > 0.0
            # Both are answered by the two prices, the weak user at its cap.
            for c in (np.array([50.0, 1.0]), np.array([50.0, 3.0])):
                x, lam, nu = _price_split(c, 2.0 * level, one_m_rho, 0.5)
                assert x.sum() == pytest.approx(1.0, abs=1e-12)
                assert lam > 0.0 and nu >= 0.0
                cap = one_m_rho * x * np.log2(1.0 + c / x)
                assert cap.sum() <= 2.0 * level * (1.0 + 1e-12)

    def test_degenerate_face_is_solved(self):
        # Two equal users whose caps reach the level exactly at x = 1/2 leave
        # no spare bandwidth: the face is a point.  The price solve answers
        # it, and the face at a level 1e-12 lower, with x = 1/2 and prices
        # meeting stationarity (both rows bind at that point, so the prices
        # need not be unique).
        one_m_rho, c = 0.99, np.array([20.0, 20.0])
        level = one_m_rho * 0.5 * np.log2(1.0 + 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lvl in (level, level * (1.0 - 1e-12)):
                x, lam, nu = _price_split(c, 2.0 * lvl, one_m_rho, 0.5)
                assert np.allclose(x, 0.5, rtol=0.0, atol=1e-9)
                cap = one_m_rho * x * np.log2(1.0 + c / x)
                slope = one_m_rho * (np.log2(1.0 + c / x) - c / (x + c) / LN2)
                assert lam >= 0.0 and nu >= 0.0
                assert np.allclose(0.5 * slope / cap, lam + nu * slope, rtol=1e-9, atol=0.0)

    def test_price_search_out_of_steps_is_an_error(self, monkeypatch):
        # A non-flat P5 needs several Newton steps; with too few, solve_p5
        # raises instead of returning an unconverged split.
        sc = generate_scenario(table2_config(num_users_U=20, rng_seed=0, p_max_user=0.002))
        state = initialize_state(sc)
        budget = make_link_budget(sc.config)
        monkeypatch.setattr(subproblems, "_KKT_STEPS", 1)
        with pytest.raises(NumericError, match="did not converge"):
            solve_p5(sc, state.placement, state, budget)

    def test_users_at_one_point_split_evenly(self):
        sc = generate_scenario(table2_config(num_users_U=7, rng_seed=2, area_side=0.0))
        budget = make_link_budget(sc.config)
        state = initialize_state(sc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve_p5(sc, state.placement, state, budget)
        out.validate(sc, budget)
        assert np.allclose(out.x, 1.0 / 7, rtol=0.0, atol=1e-12)
        assert np.all(out.r_tilde == out.r_tilde[0])

    def test_zero_length_one_hop_chain_is_infeasible(self):
        # The observation UAV over the GBS at the GBS's height: the one hop
        # has zero length, reported before the flat test evaluates a rate.
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=0, height_gbs_Hb=100.0))
        state = initialize_state(sc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleProblem):
                solve_p5(sc, UavPlacement(sc.gbs_pos_wb), state)


def least_ratio_decimal(k):
    """t with t ln(1 + 1/t) = k, by bisection on ln t in 60-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        k, lo, hi = Decimal(k), Decimal("1e-30"), Decimal("1e30")
        for _ in range(100):
            mid = (lo * hi).sqrt()
            if mid * (1 + 1 / mid).ln() < k:
                lo = mid
            else:
                hi = mid
        return float(mid)


def test_least_shares_near_and_away_from_k_one():
    # Users with k = 1 - eps close to one, mixed with ordinary k in one
    # vector.  References: scipy's Lambert-W formula where it is accurate
    # (k <= 0.99), the expansion t = 1/(2 eps) - 2/3 (relative error 2 eps^2/9)
    # for eps <= 1e-5, and a 60-digit bisection in between.  The cap's slope
    # in ln x is about eps, so a share whose cap rounds 4 ulps below the
    # level may have to move by 4 ulps / eps to reach it: that is the
    # tolerance where it exceeds 1e-9 (eps = 1e-9).
    one_m_rho, level = 0.99, 0.5
    a = level * LN2 / one_m_rho
    near = [1e-2, 1e-3, 1e-4, 3e-5, 1e-6, 1e-9]
    ordinary = [1e-6, 1e-3, 0.1, 0.5, 0.9, 0.97]
    c = np.array([a / (1.0 - e) for e in near] + [a / k for k in ordinary])[::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _level_shares(c, level, one_m_rho)
    k = a / c
    eps = 1.0 - k
    for ku, eu, cu, xu in zip(k, eps, c, x):
        if eu >= 1e-2:
            ref = cu * ku / (-lambertw(-ku * math.exp(-ku), -1).real - ku)
        elif eu <= 1e-5:
            ref = cu * (0.5 / eu - 2.0 / 3.0)
        else:
            ref = cu * least_ratio_decimal(ku)
        assert xu == pytest.approx(ref, rel=max(1e-9, 4 * 2.0 ** -52 / eu), abs=0.0), eu
    assert np.all(one_m_rho * _persp_rate(x, c) >= level)


REGIMES = {"table2": {}, "p_max_user_0.002": {"p_max_user": 0.002},
           "p_max_user_0.01": {"p_max_user": 0.01}, "area_3000": {"area_side": 3000.0}}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("regime", REGIMES)
def test_non_flat_p5_is_answered_from_its_prices(regime, seed):
    # As in position_only's run: placement steps at the equal split.  After
    # two of them P5 is not flat in any of these regimes; the closed form
    # must match the interior-point reference and meet KKT.
    sc = generate_scenario(table2_config(num_users_U=20, rng_seed=seed, **REGIMES[regime]))
    cfg = sc.config
    budget = make_link_budget(cfg)
    start = initialize_state(sc)
    placement = p7_steps(sc, budget, start, 2)[1].placement
    assert _price_split(*p5_constants(sc, budget, placement))[1] > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_p5_closed_form(sc, budget, placement, start)


@pytest.mark.parametrize("overrides, q_obs, q_relay", [
    ({"p_max_user": 0.01}, (-277.99840135, -20.47280429), (-1390.43922141, -10.22313426)),
    ({"area_side": 3000.0}, (-593.70326406, -51.73375368), (-1548.529044, -25.82135464)),
], ids=["p_max_user_0.01", "area_3000"])
def test_price_search_moves_nu_while_lam_sits_at_its_floor(overrides, q_obs, q_relay):
    # At these placements (U=20, seed 0) Newton's lam step falls below
    # -0.99 lam on the first steps while the backhaul cap is exceeded.
    # Scaling the whole step to keep lam above its floor froze nu and
    # stalled the search; the floor must bind lam alone.
    sc = generate_scenario(table2_config(num_users_U=20, rng_seed=0, **overrides))
    budget = make_link_budget(sc.config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_p5_closed_form(sc, budget, UavPlacement(q_obs, q_relay), initialize_state(sc))


def valid_domain_p5s(rng, num_configs):
    """(c, link_cap, 1 - rho, theta/U) of P5s across the valid config domain:
    configs over test_properties.config_strategy's ranges (the powers drawn
    log-uniformly) with U in 1..120, each at three observation points, the
    user centroid plus N(0, (500 j m)^2) for j = 1..3, on the equal-hop
    chain and on the one-hop chain."""
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    for _ in range(num_configs):
        cfg = table2_config(
            num_users_U=int(rng.integers(1, 121)), rng_seed=int(rng.integers(0, 10_001)),
            p_max_user=log_uniform(1e-4, 1.0), p_max_obs=log_uniform(1e-3, 1.0),
            p_max_relay=log_uniform(1e-3, 1.0), rician_K=rng.uniform(0.0, 20.0),
            outage_target_rho=rng.uniform(1e-3, 0.3), area_side=rng.uniform(0.0, 3000.0),
            network_size_D=rng.uniform(200.0, 5000.0), height_obs_Ho=rng.uniform(20.0, 300.0),
            height_relay_Hr=rng.uniform(20.0, 300.0))
        sc = generate_scenario(cfg)
        budget = make_link_budget(cfg)
        centroid = sc.agu_pos_wu.mean(axis=0)
        for spread in (500.0, 1000.0, 1500.0):
            q_obs = centroid + rng.normal(0.0, spread, 2)
            for placement in (equal_hop_placement(sc, q_obs)[0], UavPlacement(q_obs)):
                yield p5_constants(sc, budget, placement)


def test_p5_across_the_valid_domain_meets_kkt():
    # 300 P5s from 50 random valid configs: every non-flat answer meets the
    # KKT conditions, none raises, and where the nested price loop (the
    # earlier closed form) converges the two splits agree.
    rng = np.random.default_rng(7)
    non_flat = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, link_cap, one_m_rho, theta_over_U in valid_domain_p5s(rng, 50):
            x, lam, nu = _price_split(c, link_cap, one_m_rho, theta_over_U)
            if lam == 0.0:
                continue
            non_flat += 1
            assert_p5_kkt(c, link_cap, one_m_rho, theta_over_U, x, lam, nu)
            try:
                x_ref = nested_price_split(c, link_cap, one_m_rho, theta_over_U)[0]
            except NumericError:
                continue
            assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-8
    assert non_flat >= 60


def test_p5_that_stalled_the_nested_price_search_is_solved():
    # At this valid config the nested loop's price search stalls: the floor
    # cuts lam by a hundredth per step, down to 2.5e-15, with 1 - sum x =
    # 0.72 unmet.  The one Newton loop answers it at least as well as the
    # interior-point reference.
    cfg = table2_config(num_users_U=79, rng_seed=7090, p_max_user=0.0006400543605863461,
                        p_max_obs=0.001774783992856426, p_max_relay=0.021326673287467107,
                        rician_K=9.4264255861967, outage_target_rho=0.1678718987162348,
                        area_side=1399.4203849825747, network_size_D=1139.106453931435,
                        height_obs_Ho=210.99808999904815, height_relay_Hr=94.50276635159256)
    sc = generate_scenario(cfg)
    budget = make_link_budget(cfg)
    q_obs = (1176.2598671903004, -1060.2783330472214)
    placement = equal_hop_placement(sc, q_obs)[0]
    args = p5_constants(sc, budget, placement)
    with pytest.raises(NumericError, match="stalled"):
        nested_price_split(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = reduced_point(sc, budget, q_obs)
        assert_p5_kkt(*args, *_price_split(*args))
    ref = p5_reference_objective(sc, budget, placement, initialize_state(sc).x)
    assert point.objective >= ref - 1e-9 * abs(ref)


def test_p5_of_weak_users_is_solved():
    # A valid-domain draw with its user power lowered to 5e-5 W: joint's P5
    # sees users whose s = c/x is small, where the cap slopes once lost more
    # than the stop test to cancellation, and the scheme raised NumericError.
    cfg = table2_config(num_users_U=2, rng_seed=16, p_max_user=5e-5, p_max_obs=2.50e-3,
                        p_max_relay=1.669, outage_target_rho=0.01346, rician_K=16.23,
                        area_side=1974.08, network_size_D=4889.90, height_obs_Ho=92.6543,
                        height_relay_Hr=92.6543, height_gbs_Hb=92.6543)
    sc = generate_scenario(cfg)
    budget = make_link_budget(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in ("joint", "no_relay"):
            res = run_benchmark(sc, scheme)
            res.state.validate(sc, budget)
            args = p5_constants(sc, budget, res.state.placement)
            assert_p5_kkt(*args, *_price_split(*args))


def test_nearly_equal_cap_slopes_are_solved():
    # Four users whose cap slopes differ by 3% at the optimum, and whose
    # equal-level shares sum to 1.0003: the price system is nearly singular,
    # and the prices must travel along its null direction (lam 1.8 -> 1.09,
    # nu 0 -> 0.82) while the shares barely move.  Stepped prices overshoot
    # there; the loop's least-squares prices reach the optimum.
    c = np.array([0.71211702, 0.71296146, 0.69173259, 0.71593222])
    args = (c, 1.918921377375887, 0.99, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_p5_kkt(*args, *_price_split(*args))


# A valid config where P5's Newton search stalls (ROADMAP item 2): link_cap
# is 2.5e-5 and the users' c spread only 40x.  Every scheme runs there, but
# P5 at the one-hop start raises.
STALL_CONFIG = dict(
    num_users_U=9, rng_seed=60, p_max_user=2.3824530059568693e-07,
    p_max_obs=4.878956151634408e-07, p_max_relay=0.17493753079133112,
    rician_K=7.666327896251448, outage_target_rho=0.20779167699705775,
    area_side=3529.375580026726, network_size_D=1475.837205370863,
    height_obs_Ho=225.06716163798467, height_relay_Hr=149.14324217504426)


@pytest.mark.xfail(raises=NumericError, strict=True,
                   reason="P5's Newton search stalls on this valid config")
@pytest.mark.parametrize("call", ["solve_p5", "reduced_point"])
def test_p5_at_the_one_hop_start_of_a_valid_config_is_solved(call):
    sc = generate_scenario(table2_config(**STALL_CONFIG))
    budget = make_link_budget(sc.config)
    if call == "solve_p5":
        state = initialize_state(sc, budget, relay=False)
        solve_p5(sc, state.placement, state, budget).validate(sc, budget)
    else:
        reduced_point(sc, budget, sc.agu_pos_wu.mean(axis=0), relay=False)


def test_p5_takes_few_share_passes_in_a_joint_run(monkeypatch):
    # Each Newton step of the one loop makes one _share_terms pass per trial
    # point; the nested loop made about 23 per non-flat P5 in this run.
    passes, per_call = [0], []
    share_terms, price_split = subproblems._share_terms, subproblems._price_split

    def counted_terms(*args):
        passes[0] += 1
        return share_terms(*args)

    def counted_split(*args):
        passes[0] = 0
        out = price_split(*args)
        if out[1] > 0.0:
            per_call.append(passes[0])
        return out

    monkeypatch.setattr(subproblems, "_share_terms", counted_terms)
    monkeypatch.setattr(subproblems, "_price_split", counted_split)
    run_benchmark(generate_scenario(table2_config(num_users_U=30, rng_seed=0)), "joint")
    assert per_call
    assert sum(per_call) / len(per_call) <= 10.0


class TestSolveP7:
    def test_symmetric_instance_stays_on_axis(self):
        sc = mirrored_scenario()
        budget = make_link_budget(sc.config)
        placement = UavPlacement(q_obs=[60.0, 0.0], q_relay=[-1200.0, 0.0])
        placement = p7_steps(sc, budget, state_at(sc, budget, placement, [0.5, 0.5]),
                             25)[1].placement
        assert abs(placement.q_obs[1]) <= 1e-4
        assert abs(placement.q_relay[1]) <= 1e-4

    def test_solved_placement_never_lands_on_a_zero_length_hop(self):
        # Equal UAV heights and a slack relay link, where the solver once
        # parked the relay exactly on the observation UAV (seed 402).  It no
        # longer does: the least squared hop length measured in these runs is
        # about 7e-5 m^2.  Kept as a smoke test that no scheme moving UAVs
        # warns here.
        for seed in (402, 0):
            cfg = table2_config(num_users_U=4, p_max_user=0.07544382766336744,
                                p_max_obs=0.0053464976862074584,
                                p_max_relay=2.7763680772061554, rician_K=20.0,
                                area_side=50.0, height_obs_Ho=20.0, height_relay_Hr=20.0,
                                height_gbs_Hb=100.0, rng_seed=seed)
            for scheme in ("position_only", "joint", "no_relay"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    run_benchmark(generate_scenario(cfg), scheme)

    def test_exact_objective_ascends(self):
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=21))
        budget = make_link_budget(sc.config)
        state = initialize_state(sc)
        prev, _ = exact_fill_objective(sc, budget, state.x, state.p_user,
                                       state.p_obs, state.p_relay, state.placement)
        for _ in range(15):
            res = solve_p7(sc, state, budget)
            assert res.exact_objective >= prev - 1e-12
            prev = res.exact_objective
            state = dataclasses.replace(state, placement=res.placement, r_tilde=res.r_tilde)
            if res.stalled:
                break

    def test_lb_objective_below_exact(self):
        sc = generate_scenario(table2_config(num_users_U=3, rng_seed=4))
        budget = make_link_budget(sc.config)
        res = solve_p7(sc, initialize_state(sc), budget)
        assert res.lb_objective <= res.exact_objective + 1e-9

    def test_single_user_observation_moves_toward_user(self):
        # With a huge backhaul power budget the user link is the only
        # bottleneck, so the observation UAV walks onto the user.
        cfg = table2_config(num_users_U=1, area_side=0.0, p_max_obs=50.0,
                            p_max_relay=50.0)
        sc = generate_scenario(cfg)
        budget = make_link_budget(cfg)
        placement = UavPlacement(q_obs=[-400.0, 120.0], q_relay=[-1250.0, 0.0])
        placement = p7_steps(sc, budget, state_at(sc, budget, placement, [1.0]), 40)[1].placement
        assert np.linalg.norm(placement.q_obs) < 40.0

    def test_accepted_move_is_extrapolated_past_the_solved_point(self):
        # From the heuristic start at table2 U=30 the surrogate's optimum q*
        # is short of where the exact objective peaks along q* - q_i.
        sc = generate_scenario(table2_config(num_users_U=30, rng_seed=0))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = initialize_state(sc)
        args = (state.x, state.p_user, state.p_obs, state.p_relay)
        q_i = state.placement
        coeffs = sca_coefficients(sc, *args, q_i, budget)
        program, v0 = _p7_program(sc, coeffs, state.x)
        solved = UavPlacement(*(solve_concave(program, v0, cfg.sca_tol).solution[:4]
                                * subproblems._POS_SCALE).reshape(2, 2))
        at_qi, _ = exact_fill_objective(sc, budget, *args, q_i)
        at_solved, _ = exact_fill_objective(sc, budget, *args, solved)

        res = solve_p7(sc, state, budget)
        assert not res.stalled
        assert res.exact_objective >= at_solved > at_qi
        assert res.lb_objective <= res.exact_objective
        assert res.exact_objective == exact_fill_objective(sc, budget, *args,
                                                           res.placement)[0]
        # The returned placement is q_i + 2^j (q* - q_i) for some j >= 1.
        origin = np.concatenate(q_i.uavs)
        move = np.concatenate(solved.uavs) - origin
        ratio = (np.concatenate(res.placement.uavs) - origin) / move
        j = math.log2(ratio[0])
        assert j >= 1 and j == round(j)
        assert np.allclose(ratio, ratio[0], rtol=1e-12)

    def test_stalled_step_returns_the_expansion_point(self):
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=21))
        budget = make_link_budget(sc.config)
        state = initialize_state(sc)
        for _ in range(40):
            res = solve_p7(sc, state, budget)
            if res.stalled:
                break
            state = dataclasses.replace(state, placement=res.placement, r_tilde=res.r_tilde)
        assert res.stalled
        assert res.placement is state.placement and res.r_tilde is state.r_tilde
        assert res.exact_objective == exact_fill_objective(
            sc, budget, state.x, state.p_user, state.p_obs, state.p_relay, state.placement)[0]

    @staticmethod
    def stub_solved_placement(monkeypatch, solved):
        """Make every P7 solve report the placement solved."""
        solve = subproblems.solve_concave

        def stub(program, start, tol, warm=None):
            report = solve(program, start, tol, warm)
            report.solution[:4] = np.concatenate(solved.uavs) / subproblems._POS_SCALE
            return report

        monkeypatch.setattr(subproblems, "solve_concave", stub)

    @staticmethod
    def equal_heights_start():
        """Equal UAV heights, the users at the origin and the relay 1000 m
        beyond them from the GBS: (scenario, budget, state)."""
        sc = generate_scenario(table2_config(num_users_U=4, height_obs_Ho=120.0,
                                             height_relay_Hr=120.0, area_side=0.0))
        budget = make_link_budget(sc.config)
        q_i = UavPlacement(q_obs=[0.0, 0.0], q_relay=[1000.0, 0.0])
        return sc, budget, state_at(sc, budget, q_i, np.full(4, 0.25))

    def test_extrapolation_stops_before_a_zero_length_hop(self, monkeypatch):
        # The solve (stubbed) halves the relay's offset from the observation
        # UAV, so the doubled move would land the relay on it.
        sc, budget, state = self.equal_heights_start()
        solved = UavPlacement(q_obs=[0.0, 0.0], q_relay=[500.0, 0.0])
        self.stub_solved_placement(monkeypatch, solved)
        at_qi = average_utility(state.r_tilde, utility_params(sc.config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_p7(sc, state, budget)
        assert res.exact_objective > at_qi
        assert np.array_equal(res.placement.q_relay, solved.q_relay)

    def test_a_solved_zero_length_hop_stalls_the_step(self, monkeypatch):
        # The solve (stubbed) parks the relay on the observation UAV, where
        # the chain's backhaul cap would be higher than at q_i: the solved
        # point is no candidate, and the step stalls at q_i.
        sc, budget, state = self.equal_heights_start()
        solved = UavPlacement(q_obs=[0.0, 0.0], q_relay=[0.0, 0.0])
        near = UavPlacement(q_obs=[0.0, 0.0], q_relay=[-1e-3, 0.0])
        args = (state.x, state.p_user, state.p_obs, state.p_relay)
        at_qi = average_utility(state.r_tilde, utility_params(sc.config))
        assert exact_fill_objective(sc, budget, *args, near)[0] > at_qi
        self.stub_solved_placement(monkeypatch, solved)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_p7(sc, state, budget)
        assert res.stalled
        assert res.placement is state.placement and res.r_tilde is state.r_tilde
        assert res.exact_objective == at_qi

    def test_extrapolation_stops_at_the_placement_box(self, monkeypatch):
        # At table2 U=30 the step extrapolates past q* (see above).  With the
        # box's half-side between q*'s largest coordinate and the doubled
        # move's, the step ends at q* itself.
        sc = generate_scenario(table2_config(num_users_U=30, rng_seed=0))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = initialize_state(sc)
        coeffs = sca_coefficients(sc, state.x, state.p_user, state.p_obs, state.p_relay,
                                  state.placement, budget)
        report = solve_concave(*_p7_program(sc, coeffs, state.x), cfg.sca_tol)
        solved = report.solution[:4] * subproblems._POS_SCALE
        origin = np.concatenate(state.placement.uavs)
        reach, doubled = np.abs(solved).max(), np.abs(2.0 * solved - origin).max()
        assert not solve_p7(sc, state, budget).stalled and doubled > reach
        monkeypatch.setattr(subproblems, "solve_concave",
                            lambda program, start, tol, warm=None: report)
        monkeypatch.setattr(subproblems, "placement_extent", lambda cfg: 0.5 * (reach + doubled))
        res = solve_p7(sc, state, budget)
        assert not res.stalled
        assert np.array_equal(np.concatenate(res.placement.uavs), solved)
        assert res.exact_objective == exact_fill_objective(
            sc, budget, state.x, state.p_user, state.p_obs, state.p_relay, res.placement)[0]


class TestP7WarmStart:
    """Each placement step hands its solve's warm start to the next P7."""

    @staticmethod
    def next_program(steps):
        """At table2, U=10, seed 0: the P7 after `steps` solve_p7 steps from
        the heuristic start, each warm-started from the last, as (program,
        start, the last step's warm start, sca_tol)."""
        sc = generate_scenario(table2_config(num_users_U=10, rng_seed=0))
        budget = make_link_budget(sc.config)
        state, warm = initialize_state(sc, budget), None
        for _ in range(steps):
            res = solve_p7(sc, state, budget, warm=warm)
            state = dataclasses.replace(state, placement=res.placement, r_tilde=res.r_tilde)
            warm = res.warm
        coeffs = sca_coefficients(sc, state.x, state.p_user, state.p_obs, state.p_relay,
                                  state.placement, budget)
        return (*_p7_program(sc, coeffs, state.x), warm, sc.config.sca_tol)

    def test_a_point_outside_the_next_surrogate_starts_it_cold(self):
        # The first step moves the UAVs far enough that the rates of the
        # first solve's path exceed the next surrogate's hop caps.
        program, v0, warm, tol = self.next_program(1)
        assert _terms(program, warm.point) is None
        cold, hot = solve_concave(program, v0, tol), solve_concave(program, v0, tol, warm)
        assert np.array_equal(hot.solution, cold.solution)
        assert (hot.objective, hot.barrier_iterations) == (cold.objective, cold.barrier_iterations)

    def test_a_point_inside_the_next_surrogate_starts_it_warm(self):
        # Within 2 tol of the surrogate's optimum, in fewer steps than cold.
        program, v0, warm, tol = self.next_program(2)
        assert _terms(program, warm.point) is not None
        cold, hot = solve_concave(program, v0, tol), solve_concave(program, v0, tol, warm)
        best = solve_concave(program, v0, 1e-12).objective
        assert cold.status == hot.status == "converged"
        assert hot.barrier_iterations < cold.barrier_iterations
        assert best - 2 * tol <= hot.objective <= best + 1e-12


def test_weak_power_p7_newton_steps_are_exact():
    # At power_budget 1e-6 W the rates are about 1e-6, and a ridge of
    # 1e-10 max |H_ii| on every step would swamp the UAV coordinates'
    # curvature (these two solves would stop 2.4e-2 apart in objective).
    # The unridged step reaches one optimum from both starts.
    cfg = apply_sweep_value(table2_config(rng_seed=0), "power_budget", 1e-6)
    sc = generate_scenario(cfg)
    budget = make_link_budget(cfg)
    state = initialize_state(sc, budget)
    coeffs = sca_coefficients(sc, state.x, state.p_user, state.p_obs, state.p_relay,
                              state.placement, budget)
    program, v0 = _p7_program(sc, coeffs, state.x)
    halved = v0.copy()
    halved[program.border:] *= 0.5
    reports = [solve_concave(program, start, 1e-12) for start in (v0, halved)]
    assert all(r.status == "converged" for r in reports)
    assert abs(reports[0].objective - reports[1].objective) <= 1e-9


class TestEmittedProgramGradients:
    def test_p5_program_gradients(self):
        sc = generate_scenario(table2_config(num_users_U=3, rng_seed=6))
        budget = make_link_budget(sc.config)
        state = initialize_state(sc)
        program, v0 = p5_program(sc, budget, state.placement, state.x)
        err = check_gradients(program, v0, np.random.default_rng(0), n_points=40)
        assert err <= 1e-5

    def test_p7_program_gradients(self):
        sc = generate_scenario(table2_config(num_users_U=3, rng_seed=6))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = initialize_state(sc)
        coeffs = sca_coefficients(sc, state.x, state.p_user, cfg.p_max_obs,
                                  cfg.p_max_relay, state.placement, budget)
        program, v0 = _p7_program(sc, coeffs, state.x)
        err = check_gradients(program, v0, np.random.default_rng(1), n_points=40)
        assert err <= 1e-5


# --- the four builders' programs, and their Newton systems ------------------

def builder_programs(num_users, seed, **overrides):
    """(program, start) for P5 (dense_reference's border-only program) and P7
    on the relay chain, then on the one-hop chain, built at the heuristic
    start."""
    sc = generate_scenario(table2_config(num_users_U=num_users, rng_seed=seed, **overrides))
    cfg = sc.config
    budget = make_link_budget(cfg)
    state = initialize_state(sc, budget)
    pairs = []
    for placement in (state.placement, UavPlacement(state.placement.q_obs)):
        pairs.append(p5_program(sc, budget, placement, state.x))
        coeffs = sca_coefficients(sc, state.x, state.p_user, cfg.p_max_obs,
                                  cfg.p_max_relay, placement, budget)
        pairs.append(_p7_program(sc, coeffs, state.x))
    return pairs


BUILDERS = ("p5", "p7", "p5_no_relay", "p7_no_relay")


def builder_program(name, num_users, seed):
    return builder_programs(num_users, seed)[BUILDERS.index(name)]


# table2 flies both UAVs at 100 m (Ho = Hr); "low_uavs" flies them at 20 m
# under a 100 m GBS.
EDGE_CONFIGS = {
    "table2": {},
    "point_area": {"area_side": 0.0},
    "low_uavs": {"height_obs_Ho": 20.0, "height_relay_Hr": 20.0, "height_gbs_Hb": 100.0},
    "tiny_powers": {"p_max_user": 1e-4, "p_max_obs": 1e-4, "p_max_relay": 1e-4},
    "loose_outage": {"outage_target_rho": 0.9},
}


@pytest.mark.parametrize("edge", EDGE_CONFIGS)
@pytest.mark.parametrize("num_users", [1, 7])
def test_builders_return_strictly_interior_starts(num_users, edge):
    # solve_concave takes no phase-I search: every builder's start must
    # already be strictly inside the box and every constraint row.
    pairs = builder_programs(num_users, seed=5, **EDGE_CONFIGS[edge])
    for name, (program, v0) in zip(BUILDERS, pairs):
        assert interior(program, v0), name


@pytest.mark.parametrize("name", ["p5", "p5_no_relay"])
def test_barrier_rejects_out_of_box_point_before_callbacks(name):
    # A negative bandwidth share makes the user-rate callbacks take log1p of
    # a value below -1; the box check must answer before they run.
    program, v0 = builder_program(name, num_users=10, seed=3)
    v = v0.copy()
    v[0] = -0.01
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _terms(program, v) is None


@pytest.mark.parametrize("name", BUILDERS)
def test_one_builder_per_block_sizes_its_program_by_the_chain(name):
    # P5 (the border-only reference) has (x_u, r_u) per user on either chain,
    # all in the border.  P7 has r_u per user and a border of two coordinates
    # per UAV in the chain: two UAVs with the relay, one without.
    U = 7
    program, v0 = builder_program(name, num_users=U, seed=2)
    border = {"p5": 2 * U, "p7": 4, "p5_no_relay": 2 * U, "p7_no_relay": 2}[name]
    assert program.n == v0.size == (2 * U if name.startswith("p5") else U + border)
    assert program.border == border


@pytest.mark.parametrize("name", BUILDERS)
def test_curvature_matches_central_differences(name):
    """curvature(v, w) against central differences of grad f + sum_j w_j grad g_j
    (criterion-8 scenario, random interior points and weights)."""
    program, v0 = builder_program(name, num_users=4, seed=17)
    rng = np.random.default_rng(BUILDERS.index(name))
    worst = 0.0
    for v in random_interior_points(program, v0, rng, count=10):
        w = rng.uniform(0.0, 1.0, program.constraints(v).size)

        def lagrangian_grad(u):
            return program.gradient(u) + dense_jacobian(program.constraint_jac(u)).T @ w

        C = dense_curvature(program.border, program.curvature(v, w))
        for i in range(program.n):
            h = 1e-6 * max(abs(v[i]), 1e-3)
            step = np.zeros(program.n)
            step[i] = h
            fd = (lagrangian_grad(v + step) - lagrangian_grad(v - step)) / (2 * h)
            scale = max(np.max(np.abs(fd)), np.max(np.abs(C[:, i])))
            worst = max(worst, np.max(np.abs(fd - C[:, i])) / scale)
    assert worst <= 1e-6


def off_path_weights(program, v, g, t, rng=None):
    """Multipliers c/(t g) and c/(t s) for the box sides: the constraint
    weights and the box diagonal of a primal-dual Newton system.  With c = 1
    (no rng) they are the central-path weights, which give the barrier's
    Hessian; with c drawn from [0.5, 2] they are off the central path."""
    c_row, c_lo, c_hi = (np.ones(size) if rng is None else rng.uniform(0.5, 2.0, size)
                         for size in (g.size, v.size, v.size))
    box = c_lo / (t * (v - program.lower) ** 2) + c_hi / (t * (program.upper - v) ** 2)
    return c_row / (t * g), box


@pytest.mark.parametrize("duals", ["central", "off_path"])
@pytest.mark.parametrize("t", [1.0, 1e3, 1e6])
@pytest.mark.parametrize("num_users", [4, 30, 200])
@pytest.mark.parametrize("name", BUILDERS)
def test_structured_step_solves_the_dense_newton_system(name, num_users, t, duals):
    """The block-form Newton step against the dense Newton matrix with the
    same weights: on the central path (the barrier Hessian) and off it (the
    primal-dual weights).

    Directions are not compared entrywise: the P5 Hessian reaches cond 1e12,
    where two sound solves differ widely.  Residuals are.  Both paths solve
    H d = -grad, H positive definite, and the dense Cholesky step is
    backward stable for it, so the structured residual must be below 1e-5
    or the dense one.
    """
    program, v = builder_program(name, num_users, seed=17)
    s = _terms(program, v)[2]
    g = s[:-2 * program.n]
    grad_f, log_grad, J = _pieces(program, v, 1.0 / s)
    grad = log_grad / t - grad_f
    rng = np.random.default_rng(num_users) if duals == "off_path" else None
    w, box = off_path_weights(program, v, g, t, rng)
    d_block = _solve_spd(program, v, J, w, w / g, box, -grad)

    H = dense_newton_matrix(program, v, g, w, box)
    d_dense = dense_step(H, -grad)

    def residual(d):
        return np.linalg.norm(H @ d + grad) / np.linalg.norm(grad)

    assert residual(d_block) <= max(1e-5, residual(d_dense))


@pytest.mark.parametrize("num_users", [4, 30])
@pytest.mark.parametrize("name", BUILDERS)
def test_block_jacobian_products_match_the_dense_jacobian(name, num_users):
    # The block Jacobian's products J d (the slack step) and J^T y (the
    # barrier gradient) against the dense matrix.
    program, v = builder_program(name, num_users, seed=17)
    J = program.constraint_jac(v)
    D = dense_jacobian(J)
    rng = np.random.default_rng(num_users)
    d, y = rng.standard_normal(program.n), rng.standard_normal(len(D))
    for block, dense in ((J.matvec(d), D @ d), (J.rmatvec(y), D.T @ y)):
        assert np.allclose(block, dense, rtol=0.0, atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("num_users", [4, 30, 200])
@pytest.mark.parametrize("name", ["p7", "p7_no_relay"])
def test_structured_and_dense_solves_agree(name, num_users):
    # The twin sees the dense callbacks, so its steps eliminate no blocks:
    # one system in every variable and row.  (P5's reference program is
    # border-only already, so its twin would be itself.)
    program, v0 = builder_program(name, num_users, seed=17)
    tol = 1e-9
    block = solve_concave(program, start=v0, tol=tol)
    dense = solve_concave(border_only_twin(program), start=v0, tol=tol)
    assert block.status == dense.status == "converged"
    assert abs(block.objective - dense.objective) <= 1e-8 * abs(dense.objective)


@pytest.mark.parametrize("num_users", [4, 30])
@pytest.mark.parametrize("name", ["p7", "p7_no_relay"])
def test_newton_steps_evaluate_each_point_once(name, num_users):
    # The work per Newton step: the constraints once at the start and at
    # each line-search trial, never again at a point already evaluated; the
    # Jacobian and the gradient once at each accepted point (the start, or
    # the trial just evaluated); the curvature once per Newton step, at the
    # current point.
    program, v0 = builder_program(name, num_users, seed=17)
    log = []

    def logged(callback):
        inner = getattr(program, callback)

        def call(v, *rest):
            log.append((callback, v.copy()))
            return inner(v, *rest)

        return call

    callbacks = ("objective", "gradient", "constraints", "constraint_jac", "curvature")
    report = solve_concave(dataclasses.replace(program, **{cb: logged(cb) for cb in callbacks}),
                           v0, 1e-9)
    assert report.status == "converged"

    def points(callback):
        return [v.tobytes() for cb, v in log if cb == callback]

    trials = points("constraints")
    assert len(set(trials)) == len(trials)
    assert set(points("objective")) <= set(trials)
    accepted = points("gradient")
    assert points("constraint_jac") == accepted and len(set(accepted)) == len(accepted)
    assert accepted[0] == v0.tobytes()
    current, evaluated = None, None
    for callback, v in log:
        if callback == "constraints":
            evaluated = v.tobytes()
        elif callback == "gradient":
            assert v.tobytes() == evaluated     # the trial just evaluated
            current = evaluated
        elif callback == "curvature":
            assert v.tobytes() == current
    assert len(points("curvature")) == report.barrier_iterations
    assert len(accepted) <= report.barrier_iterations + 1
