"""Resource and placement subproblems: exactness, bounds, and solver quality."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from uavstream.channel import rate_agu, rate_gbs, rate_relay
from uavstream.convex_core import (_Barrier, _interior, _solve_spd, check_gradients,
                                   solve_concave, without_structure)
from uavstream.orchestrator import initialize_state, run_benchmark
from uavstream.scenario import Scenario, UavPlacement, generate_scenario, table2_config
from uavstream.subproblems import (DecisionState, InfeasibleProblem, capped_fill,
                                   exact_fill_objective, lower_bound_rates,
                                   make_link_budget, sca_coefficients, solve_p5,
                                   solve_p7, _p5_program, _p7_program)

LN2 = math.log(2.0)


def mirrored_scenario(offset_y=150.0, num_extra=0, seed=0):
    """Two users mirrored about the x-axis (plus the GBS already on it)."""
    cfg = table2_config(num_users_U=2, rng_seed=seed)
    return Scenario(config=cfg, gbs_pos_wb=[-2500.0, 0.0],
                    agu_pos_wu=[[60.0, offset_y], [60.0, -offset_y]])


def single_user_scenario():
    cfg = table2_config(num_users_U=1, area_side=0.0)
    return generate_scenario(cfg)


def heuristic_state(scenario):
    cfg = scenario.config
    budget = make_link_budget(cfg)
    q_obs = scenario.agu_pos_wu.mean(axis=0)
    placement = UavPlacement(q_obs=q_obs, q_relay=0.5 * (q_obs + scenario.gbs_pos_wb))
    U = cfg.num_users_U
    x = np.full(U, 1.0 / U)
    p = np.full(U, cfg.p_max_user)
    _, r = exact_fill_objective(scenario, budget, x, p, cfg.p_max_obs,
                                cfg.p_max_relay, placement)
    return DecisionState(x=x, p_user=p, p_obs=cfg.p_max_obs, p_relay=cfg.p_max_relay,
                         placement=placement, r_tilde=0.99 * r)


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

    def test_rejects_impossible(self):
        with pytest.raises(InfeasibleProblem):
            capped_fill(np.array([0.0, 1.0]), 1.0)
        with pytest.raises(InfeasibleProblem):
            capped_fill(np.array([1.0, 1.0]), 0.0)


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
        state = heuristic_state(sc)
        out = solve_p5(sc, state.placement, state, budget)
        assert out.x[0] == pytest.approx(1.0, abs=1e-12)
        assert out.p_user[0] == sc.config.p_max_user
        assert out.p_obs == sc.config.p_max_obs
        assert out.p_relay == sc.config.p_max_relay
        out.validate(sc, budget)

    def test_powers_exactly_at_budget(self):
        sc = generate_scenario(table2_config(num_users_U=6, rng_seed=3))
        budget = make_link_budget(sc.config)
        state = heuristic_state(sc)
        out = solve_p5(sc, state.placement, state, budget)
        assert np.all(out.p_user == sc.config.p_max_user)
        assert out.p_obs == sc.config.p_max_obs
        assert out.p_relay == sc.config.p_max_relay

    def test_power_monotonicity_perturbation_oracle(self):
        # Raising any power never hurts the best achievable objective.
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=9))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = heuristic_state(sc)
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
        state = heuristic_state(sc)
        out = solve_p5(sc, state.placement, state, budget)
        assert out.x[0] == pytest.approx(out.x[1], abs=1e-6)
        assert out.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_objective_never_regresses(self):
        sc = generate_scenario(table2_config(num_users_U=5, rng_seed=14))
        budget = make_link_budget(sc.config)
        state = heuristic_state(sc)
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
        state = heuristic_state(sc)
        placement = UavPlacement(state.placement.q_obs, state.placement.q_obs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleProblem):
                solve_p5(sc, placement, state)


class TestSolveP7:
    def test_symmetric_instance_stays_on_axis(self):
        sc = mirrored_scenario()
        cfg = sc.config
        budget = make_link_budget(cfg)
        x = np.array([0.5, 0.5])
        p = np.full(2, cfg.p_max_user)
        placement = UavPlacement(q_obs=[60.0, 0.0], q_relay=[-1200.0, 0.0])
        for _ in range(25):
            res = solve_p7(sc, x, p, cfg.p_max_obs, cfg.p_max_relay, placement, budget)
            if res.stalled:
                break
            placement = res.placement
        assert abs(placement.q_obs[1]) <= 1e-4
        assert abs(placement.q_relay[1]) <= 1e-4

    def test_solved_placement_never_lands_on_a_zero_length_hop(self):
        # With equal UAV heights, P7 parks the relay exactly on the
        # observation UAV in this instance; the exact objective at the solved
        # placement must not evaluate a zero-distance FSPL link.
        cfg = table2_config(num_users_U=4, p_max_user=0.07544382766336744,
                            p_max_obs=0.0053464976862074584, p_max_relay=2.7763680772061554,
                            rician_K=20.0, area_side=50.0, height_obs_Ho=20.0,
                            height_relay_Hr=20.0, height_gbs_Hb=100.0, rng_seed=402)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_benchmark(generate_scenario(cfg), "position_only")

    def test_exact_objective_ascends(self):
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=21))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = heuristic_state(sc)
        prev, _ = exact_fill_objective(sc, budget, state.x, state.p_user,
                                       state.p_obs, state.p_relay, state.placement)
        placement = state.placement
        for _ in range(15):
            res = solve_p7(sc, state.x, state.p_user, state.p_obs, state.p_relay,
                           placement, budget)
            assert res.exact_objective >= prev - 1e-12
            prev = res.exact_objective
            placement = res.placement
            if res.stalled:
                break

    def test_lb_objective_below_exact(self):
        sc = generate_scenario(table2_config(num_users_U=3, rng_seed=4))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = heuristic_state(sc)
        res = solve_p7(sc, state.x, state.p_user, state.p_obs, state.p_relay,
                       state.placement, budget)
        assert res.lb_objective <= res.exact_objective + 1e-9

    def test_single_user_observation_moves_toward_user(self):
        # With a huge backhaul power budget the user link is the only
        # bottleneck, so the observation UAV walks onto the user.
        cfg = table2_config(num_users_U=1, area_side=0.0, p_max_obs=50.0,
                            p_max_relay=50.0)
        sc = generate_scenario(cfg)
        budget = make_link_budget(cfg)
        x = np.array([1.0])
        p = np.array([cfg.p_max_user])
        placement = UavPlacement(q_obs=[-400.0, 120.0], q_relay=[-1250.0, 0.0])
        for _ in range(40):
            res = solve_p7(sc, x, p, cfg.p_max_obs, cfg.p_max_relay, placement, budget)
            if res.stalled:
                break
            placement = res.placement
        assert np.linalg.norm(placement.q_obs) < 40.0


class TestEmittedProgramGradients:
    def test_p5_program_gradients(self):
        sc = generate_scenario(table2_config(num_users_U=3, rng_seed=6))
        budget = make_link_budget(sc.config)
        state = heuristic_state(sc)
        program, v0 = _p5_program(sc, budget, state.placement, state.x)
        err = check_gradients(program, v0, np.random.default_rng(0), n_points=40)
        assert err <= 1e-5

    def test_p7_program_gradients(self):
        sc = generate_scenario(table2_config(num_users_U=3, rng_seed=6))
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = heuristic_state(sc)
        coeffs = sca_coefficients(sc, state.x, state.p_user, cfg.p_max_obs,
                                  cfg.p_max_relay, state.placement, budget)
        program, v0 = _p7_program(sc, coeffs, state.x)
        err = check_gradients(program, v0, np.random.default_rng(1), n_points=40)
        assert err <= 1e-5


# --- the four builders' programs, and their Newton systems ------------------

def builder_programs(num_users, seed, **overrides):
    """(program, start) for P5 and P7 on the relay chain, then on the one-hop
    chain, built at the heuristic start the way the schemes build them."""
    sc = generate_scenario(table2_config(num_users_U=num_users, rng_seed=seed, **overrides))
    cfg = sc.config
    budget = make_link_budget(cfg)
    state = initialize_state(sc, budget)
    pairs = []
    for placement in (state.placement, UavPlacement(state.placement.q_obs)):
        pairs.append(_p5_program(sc, budget, placement, state.x))
        coeffs = sca_coefficients(sc, state.x, state.p_user, cfg.p_max_obs,
                                  cfg.p_max_relay, placement, budget)
        pairs.append(_p7_program(sc, coeffs, state.x))
    return pairs


BUILDERS = ("p5", "p7", "p5_no_relay", "p7_no_relay")


def builder_program(name, num_users, seed):
    return builder_programs(num_users, seed)[BUILDERS.index(name)]


def random_interior_points(program, v0, rng, count):
    """Points on segments from v0 toward random box points, shrunk until interior."""
    points = []
    while len(points) < count:
        target = rng.uniform(program.lower, program.upper)
        lam = 1.0
        v = target
        while lam > 1e-6 and not _interior(program, v, margin=1e-12):
            lam *= 0.5
            v = v0 + lam * (target - v0)
        if _interior(program, v, margin=1e-12):
            points.append(v)
    return points


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
        assert _interior(program, v0), name


@pytest.mark.parametrize("name", ["p5", "p5_no_relay"])
def test_barrier_rejects_out_of_box_point_before_callbacks(name):
    # A negative bandwidth share makes the user-rate callbacks take log1p of
    # a value below -1; the box check must answer before they run.
    program, v0 = builder_program(name, num_users=10, seed=3)
    v = v0.copy()
    v[0] = -0.01
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _Barrier(program).terms(v) is None


@pytest.mark.parametrize("name", BUILDERS)
def test_one_builder_per_block_sizes_its_program_by_the_chain(name):
    # P5 has (x_u, r_u) per user on either chain.  P7 has r_u per user and a
    # border of two coordinates per UAV in the chain: two UAVs with the relay,
    # one without.
    U = 7
    program, v0 = builder_program(name, num_users=U, seed=2)
    border = {"p5": 0, "p7": 4, "p5_no_relay": 0, "p7_no_relay": 2}[name]
    assert program.n == v0.size == (2 * U if name.startswith("p5") else U + border)
    assert len(program.structure.border) == border


@pytest.mark.parametrize("name", BUILDERS)
def test_curvature_matches_central_differences(name):
    """curvature(v, w) against central differences of grad f + sum_j w_j grad g_j
    (criterion-8 scenario, random interior points and weights)."""
    program, v0 = builder_program(name, num_users=4, seed=17)
    dense = without_structure(program)
    rng = np.random.default_rng(BUILDERS.index(name))
    worst = 0.0
    for v in random_interior_points(program, v0, rng, count=10):
        w = rng.uniform(0.0, 1.0, dense.constraints(v).size)

        def lagrangian_grad(u):
            return dense.gradient(u) + dense.constraint_jac(u).T @ w

        C = dense.curvature(v, w)
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
    (H + rho I) d = -grad with the same ridge rho, and the dense Cholesky
    step is backward stable for it, so against H + rho I the structured
    residual must be below 1e-5 or the dense one.  Against H itself both
    residuals carry the ridge term rho*|d|, which dominates at U=4 for P5
    (about 5e-5); there the structured one may exceed the dense one by the
    rounding of its Woodbury correction, at most 1%.
    """
    program, v = builder_program(name, num_users, seed=17)
    structured = _Barrier(program)
    grad_f, log_grad, g, J = structured.pieces(v)
    grad = log_grad / t - grad_f
    rng = np.random.default_rng(num_users) if duals == "off_path" else None
    w, box = off_path_weights(program, v, g, t, rng)
    d_block = structured.newton_direction(v, g, J, grad, w, box)

    dense = _Barrier(without_structure(program))
    dense_grad_f, dense_log_grad, dense_g, dense_J = dense.pieces(v)
    dense_grad = dense_log_grad / t - dense_grad_f
    assert np.allclose(dense_grad, grad, rtol=0.0, atol=1e-12 * np.abs(grad).max())
    H = dense.hessian(v, dense_g, dense_J, w, box)
    d_dense = _solve_spd(H, -grad)
    ridged = H + 1e-10 * max(1.0, np.max(np.abs(np.diag(H)))) * np.eye(program.n)

    def residual(M, d):
        return np.linalg.norm(M @ d + grad) / np.linalg.norm(grad)

    assert residual(ridged, d_block) <= max(1e-5, residual(ridged, d_dense))
    assert residual(H, d_block) <= max(1e-5, 1.01 * residual(H, d_dense))


@pytest.mark.parametrize("num_users", [4, 30, 200])
@pytest.mark.parametrize("name", BUILDERS)
def test_structured_and_dense_solves_agree(name, num_users):
    program, v0 = builder_program(name, num_users, seed=17)
    tol = 1e-9
    block = solve_concave(program, start=v0, tol=tol)
    dense = solve_concave(without_structure(program), start=v0, tol=tol)
    assert block.status == dense.status == "converged"
    assert abs(block.objective - dense.objective) <= 1e-8 * abs(dense.objective)
