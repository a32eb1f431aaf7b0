"""End-to-end acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from uavstream.channel import (LinkBudget, outage_probability, rate_agu, rate_gbs,
                               rate_relay, rician_cdf, rician_cdf_inverse)
from uavstream.orchestrator import initialize_state, run_algorithm1, run_benchmark
from uavstream.scenario import Scenario, UavPlacement, generate_scenario, table2_config
from uavstream.subproblems import (DecisionState, exact_fill_objective, lower_bound_rates,
                                   make_link_budget, sca_coefficients, solve_p5, solve_p7,
                                   _p7_program)

from dense_reference import check_gradients, p5_program

LN2 = math.log(2.0)
BENCHMARKS = ("resource_only", "position_only", "no_relay")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def user_count_table():
    """Seed-by-seed utilities for every scheme at U in {10, 20, 30} (20 seeds)."""
    table = {}
    for users in (10, 20, 30):
        for seed in range(20):
            sc = generate_scenario(table2_config(num_users_U=users, rng_seed=seed))
            table[("joint", users, seed)] = run_algorithm1(sc).avg_utility
            for scheme in BENCHMARKS:
                table[(scheme, users, seed)] = run_benchmark(sc, scheme).avg_utility
    return table


def test_criterion_1_rician_statistics():
    with criterion(1, "rician statistics"):
        t0 = time.perf_counter()
        for rho in (1e-3, 1e-2, 1e-1):
            z = rician_cdf_inverse(rho, 0.0)
            assert abs(z - (-math.log1p(-rho))) <= 1e-8

        rng = np.random.default_rng(20260809)
        n = 10**7
        K = 4.0
        nu = math.sqrt(K / (K + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (K + 1.0)))
        re = nu + sigma * rng.standard_normal(n)
        im = sigma * rng.standard_normal(n)
        samples = np.sort(re * re + im * im)
        for q in np.linspace(0.03, 0.97, 20):
            z = rician_cdf_inverse(q, K)
            emp = np.searchsorted(samples, z) / n
            f = rician_cdf(z, K)
            se = math.sqrt(f * (1.0 - f) / n)
            assert abs(emp - f) <= 3.0 * se
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_outage_round_trip():
    with criterion(2, "outage equality round trip"):
        cfg = table2_config()
        budget = make_link_budget(cfg)
        rng = np.random.default_rng(42)
        for _ in range(100):
            q_obs = rng.uniform(-1000.0, 1000.0, 2)
            w_u = rng.uniform(-250.0, 250.0, 2)
            x = float(rng.uniform(0.02, 1.0))
            p = float(rng.uniform(0.005, cfg.p_max_user))
            r = rate_agu(x, p, q_obs, w_u, budget, cfg.height_obs_Ho)
            out = outage_probability(r, x, p, q_obs, w_u, budget.mu0,
                                     cfg.height_obs_Ho, cfg.rician_K)
            assert abs(out - cfg.outage_target_rho) <= 1e-6


def test_criterion_3_sca_bounds():
    with criterion(3, "SCA tightness and validity"):
        sc = generate_scenario(table2_config(num_users_U=8, rng_seed=13))
        cfg = sc.config
        budget = make_link_budget(cfg)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.05, 1.0, 8)
        x /= x.sum()
        p = rng.uniform(0.02, cfg.p_max_user, 8)
        expansion = UavPlacement(q_obs=sc.agu_pos_wu.mean(axis=0) + [-30.0, 50.0],
                                 q_relay=[-1100.0, 140.0])
        coeffs = sca_coefficients(sc, x, p, cfg.p_max_obs, cfg.p_max_relay,
                                  expansion, budget)

        def exact(placement):
            ru = np.array([rate_agu(x[u], p[u], placement.q_obs, sc.agu_pos_wu[u],
                                    budget, cfg.height_obs_Ho) for u in range(8)])
            ro = rate_relay(cfg.p_max_obs, placement.q_obs, placement.q_relay,
                            budget.mu0, cfg.height_obs_Ho, cfg.height_relay_Hr)
            rb = rate_gbs(cfg.p_max_relay, placement.q_relay, sc.gbs_pos_wb,
                          budget.mu0, cfg.height_relay_Hr, cfg.height_gbs_Hb)
            return ru, ro, rb

        lb_u, (lb_o, lb_g) = lower_bound_rates(coeffs, expansion, sc, x)
        ru, ro, rb = exact(expansion)
        assert np.max(np.abs(lb_u - ru) / ru) <= 1e-12
        assert abs(lb_o - ro) / ro <= 1e-12
        assert abs(lb_g - rb) / rb <= 1e-12

        for _ in range(1000):
            placement = UavPlacement(
                q_obs=expansion.q_obs + rng.uniform(-1500.0, 1500.0, 2),
                q_relay=expansion.q_relay + rng.uniform(-1500.0, 1500.0, 2))
            lb_u, (lb_o, lb_g) = lower_bound_rates(coeffs, placement, sc, x)
            ru, ro, rb = exact(placement)
            assert np.all(lb_u <= ru + 1e-12)
            assert lb_o <= ro + 1e-12
            assert lb_g <= rb + 1e-12


def test_criterion_4_convergence():
    with criterion(4, "convergence at table2 with 30 users"):
        t0 = time.perf_counter()
        sc = generate_scenario(table2_config(num_users_U=30, rng_seed=0))
        # joint, and the position_only placement run it starts from.
        for result in (run_algorithm1(sc), run_benchmark(sc, "position_only")):
            exact = result.trace.exact_objectives
            lower = result.trace.lower_bound_objectives
            assert result.converged
            assert result.iterations <= 50
            assert np.all(np.diff(exact) >= -1e-9)
            assert all(l <= e + 1e-9 for l, e in zip(lower, exact))
            assert abs(exact[-1] - lower[-1]) <= 1e-6 * abs(exact[-1])
        assert time.perf_counter() - t0 < 300.0


def test_criterion_5_scheme_dominance(user_count_table):
    with criterion(5, "joint dominates benchmarks (seed-averaged)"):
        for users in (10, 20, 30):
            joint = np.mean([user_count_table[("joint", users, s)] for s in range(20)])
            for scheme in BENCHMARKS:
                other = np.mean([user_count_table[(scheme, users, s)] for s in range(20)])
                assert joint >= other, (users, scheme, joint, other)


def test_joint_never_below_position_only_per_cell(user_count_table):
    # joint's reduced-space stage starts from position_only's answer and
    # records only strict gains, so this holds cell by cell, with no
    # tolerance.
    for users in (10, 20, 30):
        for s in range(20):
            joint = user_count_table[("joint", users, s)]
            assert joint >= user_count_table[("position_only", users, s)], (users, s)


def test_criterion_6_trends(user_count_table):
    with criterion(6, "figure trends"):
        # utility falls as the user count grows
        means_u = [np.mean([user_count_table[("joint", users, s)] for s in range(20)])
                   for users in (10, 20, 30)]
        assert means_u[0] >= means_u[1] >= means_u[2]

        from uavstream.cli import apply_sweep_value
        from uavstream.scenario import with_overrides

        def joint_mean(variable=None, value=None, **overrides):
            vals = []
            for seed in range(10):
                cfg = table2_config(num_users_U=10, **overrides)
                if variable is not None:
                    cfg = apply_sweep_value(cfg, variable, value)
                sc = generate_scenario(with_overrides(cfg, rng_seed=seed))
                vals.append(run_algorithm1(sc).avg_utility)
            return float(np.mean(vals))

        # power saturation: non-decreasing with a diminishing final increment
        power_grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
        means_p = [joint_mean("power_budget", p) for p in power_grid]
        assert all(b >= a for a, b in zip(means_p, means_p[1:]))
        assert means_p[-1] - means_p[-2] < means_p[1] - means_p[0]

        # outage target: rise followed by fall (interior maximum)
        rho_grid = [1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5]
        means_r = [joint_mean("rho", r) for r in rho_grid]
        k = int(np.argmax(means_r))
        assert 0 < k < len(rho_grid) - 1

        # utility falls with network size
        d_grid = [1500.0, 2000.0, 2500.0, 3000.0, 3200.0]
        means_d = [joint_mean("network_size_D", d) for d in d_grid]
        assert all(b <= a + 1e-9 for a, b in zip(means_d, means_d[1:]))


# --- criterion 7 helpers: independent brute-force oracles ------------------

def _axis_objective_grid(cfg, budget, x_share, user_xy, qo_grid, qr_grid):
    """Exact utility over axis placements, vectorized; users mirrored or single.

    user_xy: (ux, uy) with the scenario symmetric about the x axis, so the
    per-user cap is identical across users and the fill has a closed form.
    """
    theta, beta, rbar = cfg.utility_theta, cfg.utility_beta, cfg.playback_rate_rbar
    rho = cfg.outage_target_rho
    qo = qo_grid[:, None]
    qr = qr_grid[None, :]
    d2 = cfg.height_obs_Ho**2 + (qo - user_xy[0]) ** 2 + user_xy[1] ** 2
    cap = (1 - rho) * x_share * np.log1p(
        budget.inv_cdf_at_rho * cfg.p_max_user * budget.mu0 / (x_share * d2)) / LN2
    with np.errstate(divide="ignore"):
        r_rel = np.log1p(cfg.p_max_obs * budget.mu0 /
                         ((cfg.height_relay_Hr - cfg.height_obs_Ho) ** 2 + (qr - qo) ** 2)) / LN2
    r_gbs = np.log1p(cfg.p_max_relay * budget.mu0 /
                     ((cfg.height_gbs_Hb - cfg.height_relay_Hr) ** 2
                      + (qr + cfg.network_size_D) ** 2)) / LN2
    link = np.minimum(r_rel, r_gbs)
    n_users = 1 if user_xy[1] == 0.0 else 2
    r_each = np.minimum(cap, link / n_users)
    return theta * np.log(beta * r_each / rbar)


def _axis_grid_best(cfg, budget, x_share, user_xy):
    """Best axis-placement utility: 5 m grid over the area, then a 0.5 m
    refinement around the coarse winner (sharpens the discretization bias
    below the 1e-3 comparison band)."""
    qo_grid = np.arange(-2400.0, 100.0 + 2.5, 5.0)
    qr_grid = np.arange(-2500.0, 100.0 + 2.5, 5.0)
    coarse = _axis_objective_grid(cfg, budget, x_share, user_xy, qo_grid, qr_grid)
    i, j = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
    qo_fine = qo_grid[i] + np.arange(-7.5, 7.75, 0.5)
    qr_fine = qr_grid[j] + np.arange(-7.5, 7.75, 0.5)
    fine = _axis_objective_grid(cfg, budget, x_share, user_xy, qo_fine, qr_fine)
    return max(float(np.max(coarse)), float(np.max(fine)))


def _iterate_p7(sc, budget, x, placement, max_steps=80):
    cfg = sc.config
    p = np.full(cfg.num_users_U, cfg.p_max_user)
    r = exact_fill_objective(sc, budget, x, p, cfg.p_max_obs, cfg.p_max_relay, placement)[1]
    state = DecisionState(x, p, cfg.p_max_obs, cfg.p_max_relay, placement, r)
    for _ in range(max_steps):
        res = solve_p7(sc, state, budget)
        state = dataclasses.replace(state, placement=res.placement, r_tilde=res.r_tilde)
        if res.stalled:
            break
    return res.exact_objective, state.placement


def test_criterion_7_solver_vs_grid_oracles():
    with criterion(7, "solver matches brute-force grids"):
        # --- P5, single user: dense bandwidth grid at 1e-3
        cfg1 = table2_config(num_users_U=1, area_side=0.0)
        sc1 = generate_scenario(cfg1)
        budget1 = make_link_budget(cfg1)
        state1 = initialize_state(sc1, budget1)
        placement1 = state1.placement
        out1 = solve_p5(sc1, placement1, state1, budget1)
        assert out1.p_user[0] == cfg1.p_max_user
        assert out1.p_obs == cfg1.p_max_obs
        assert out1.p_relay == cfg1.p_max_relay
        obj1, _ = exact_fill_objective(sc1, budget1, out1.x, out1.p_user,
                                       out1.p_obs, out1.p_relay, placement1)

        xs = np.arange(1e-3, 1.0 + 5e-4, 1e-3)
        d2 = cfg1.height_obs_Ho**2 + float(np.sum((placement1.q_obs - sc1.agu_pos_wu[0])**2))
        caps = (1 - cfg1.outage_target_rho) * xs * np.log1p(
            budget1.inv_cdf_at_rho * cfg1.p_max_user * budget1.mu0 / (xs * d2)) / LN2
        link = min(rate_relay(cfg1.p_max_obs, placement1.q_obs, placement1.q_relay,
                              budget1.mu0, cfg1.height_obs_Ho, cfg1.height_relay_Hr),
                   rate_gbs(cfg1.p_max_relay, placement1.q_relay, sc1.gbs_pos_wb,
                            budget1.mu0, cfg1.height_relay_Hr, cfg1.height_gbs_Hb))
        grid_best1 = np.max(cfg1.utility_theta * np.log(
            cfg1.utility_beta * np.minimum(caps, link) / cfg1.playback_rate_rbar))
        assert abs(obj1 - grid_best1) <= 1e-3
        assert obj1 >= grid_best1 - 1e-6

        # --- P5, two users: dense share grid at 1e-3 with closed-form fill
        cfg2 = table2_config(num_users_U=2, rng_seed=31)
        sc2 = generate_scenario(cfg2)
        budget2 = make_link_budget(cfg2)
        state2 = initialize_state(sc2, budget2)
        placement2 = state2.placement
        out2 = solve_p5(sc2, placement2, state2, budget2)
        assert np.all(out2.p_user == cfg2.p_max_user)
        obj2, _ = exact_fill_objective(sc2, budget2, out2.x, out2.p_user,
                                       out2.p_obs, out2.p_relay, placement2)

        link2 = min(rate_relay(cfg2.p_max_obs, placement2.q_obs, placement2.q_relay,
                               budget2.mu0, cfg2.height_obs_Ho, cfg2.height_relay_Hr),
                    rate_gbs(cfg2.p_max_relay, placement2.q_relay, sc2.gbs_pos_wb,
                             budget2.mu0, cfg2.height_relay_Hr, cfg2.height_gbs_Hb))
        d2u = cfg2.height_obs_Ho**2 + np.sum((sc2.agu_pos_wu - placement2.q_obs)**2, axis=1)
        ax = np.arange(1e-3, 1.0, 1e-3)
        x1, x2 = np.meshgrid(ax, ax, indexing="ij")
        keep = (x1 + x2) <= 1.0
        x1, x2 = x1[keep], x2[keep]

        def cap_of(x, d2_u):
            return (1 - cfg2.outage_target_rho) * x * np.log1p(
                budget2.inv_cdf_at_rho * cfg2.p_max_user * budget2.mu0 / (x * d2_u)) / LN2

        c1, c2 = cap_of(x1, d2u[0]), cap_of(x2, d2u[1])
        loose = c1 + c2 <= link2
        half = link2 / 2.0
        r1 = np.where(loose, c1, np.where(c1 < half, c1,
                      np.where(c2 < half, link2 - c2, half)))
        r2 = np.where(loose, c2, np.where(c1 < half, link2 - c1,
                      np.where(c2 < half, c2, half)))
        vals = 0.5 * cfg2.utility_theta * (np.log(cfg2.utility_beta * r1) +
                                           np.log(cfg2.utility_beta * r2))
        grid_best2 = float(np.max(vals))
        assert abs(obj2 - grid_best2) <= 1e-3
        assert obj2 >= grid_best2 - 1e-6

        # --- P7, single user at the origin: 5 m axis grid oracle
        budget1b = budget1
        x1b = np.array([1.0])
        start1 = UavPlacement(q_obs=[-300.0, 0.0], q_relay=[-1250.0, 0.0])
        obj_p7_1, place1 = _iterate_p7(sc1, budget1b, x1b, start1)
        grid_best_p7_1 = _axis_grid_best(cfg1, budget1b, 1.0, (0.0, 0.0))
        assert abs(obj_p7_1 - grid_best_p7_1) <= 1e-3
        assert abs(place1.q_obs[1]) < 1.0 and abs(place1.q_relay[1]) < 1.0

        # --- P7, two mirrored users: 5 m axis grid oracle
        cfg2m = table2_config(num_users_U=2)
        sc2m = Scenario(config=cfg2m, gbs_pos_wb=[-2500.0, 0.0],
                        agu_pos_wu=[[60.0, 150.0], [60.0, -150.0]])
        budget2m = make_link_budget(cfg2m)
        x2m = np.array([0.5, 0.5])
        start2 = UavPlacement(q_obs=[60.0, 0.0], q_relay=[-1250.0, 0.0])
        obj_p7_2, place2 = _iterate_p7(sc2m, budget2m, x2m, start2)
        grid_best_p7_2 = _axis_grid_best(cfg2m, budget2m, 0.5, (60.0, 150.0))
        assert abs(obj_p7_2 - grid_best_p7_2) <= 1e-3
        assert abs(place2.q_obs[1]) < 1.0 and abs(place2.q_relay[1]) < 1.0


def test_criterion_8_gradient_checks():
    with criterion(8, "builder gradients vs central differences"):
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=17))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = initialize_state(sc, budget)
        rng = np.random.default_rng(0)

        # P5 and P7 on the relay chain, then on the one-hop (no-relay) chain
        for placement in (state.placement, UavPlacement(state.placement.q_obs)):
            program, v0 = p5_program(sc, budget, placement, state.x)
            assert check_gradients(program, v0, rng, n_points=100) <= 1e-5

            coeffs = sca_coefficients(sc, state.x, state.p_user, cfg.p_max_obs,
                                      cfg.p_max_relay, placement, budget)
            program, v0 = _p7_program(sc, coeffs, state.x)
            assert check_gradients(program, v0, rng, n_points=100) <= 1e-5
