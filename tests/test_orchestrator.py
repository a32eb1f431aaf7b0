"""BCD driver, trace invariants, and benchmark scheme behaviour."""

import numpy as np
import pytest

from uavstream.channel import rate_agu, rate_gbs
from uavstream.orchestrator import (SCHEMES, initialize_state, run_algorithm1,
                                    run_benchmark)
from uavstream.scenario import Scenario, UavPlacement, generate_scenario, table2_config
from uavstream.subproblems import exact_fill_objective, make_link_budget


def small_scenario(seed=0, users=4):
    return generate_scenario(table2_config(num_users_U=users, rng_seed=seed))


class TestInitializeState:
    def test_single_user_geometry(self):
        sc = generate_scenario(table2_config(num_users_U=1, area_side=0.0))
        state = initialize_state(sc)
        assert np.allclose(state.placement.q_obs, [0.0, 0.0])
        assert np.allclose(state.placement.q_relay, [-1250.0, 0.0])
        assert state.x[0] == 1.0
        assert state.p_obs == sc.config.p_max_obs

    def test_mirrored_users_centroid_on_axis(self):
        cfg = table2_config(num_users_U=2)
        sc = Scenario(config=cfg, gbs_pos_wb=[-2500.0, 0.0],
                      agu_pos_wu=[[40.0, 180.0], [40.0, -180.0]])
        state = initialize_state(sc)
        assert state.placement.q_obs[1] == pytest.approx(0.0, abs=1e-12)
        assert state.placement.q_relay[1] == pytest.approx(0.0, abs=1e-12)

    def test_invariants_on_random_scenarios(self):
        for seed in range(100):
            sc = small_scenario(seed=seed, users=3)
            budget = make_link_budget(sc.config)
            state = initialize_state(sc, budget)
            state.validate(sc, budget)    # raises on violation


class TestRunAlgorithm1:
    def test_monotone_trace_and_tight_gap(self):
        res = run_algorithm1(small_scenario(seed=3))
        ex = res.trace.exact_objectives
        lb = res.trace.lower_bound_objectives
        assert res.converged
        assert np.all(np.diff(ex) >= -1e-9)
        assert all(l <= e + 1e-9 for l, e in zip(lb, ex))
        assert abs(ex[-1] - lb[-1]) <= 1e-6 * abs(ex[-1])

    def test_fixed_point_terminates_immediately(self):
        sc = small_scenario(seed=5)
        first = run_algorithm1(sc)
        again = run_algorithm1(sc, initial_state=first.state)
        assert again.iterations == 1
        assert again.converged
        assert again.avg_utility == pytest.approx(first.avg_utility, abs=1e-6)

    def test_deterministic(self):
        a = run_algorithm1(small_scenario(seed=8))
        b = run_algorithm1(small_scenario(seed=8))
        assert a.avg_utility == b.avg_utility
        assert np.array_equal(a.state.x, b.state.x)

    def test_final_state_feasible(self):
        sc = small_scenario(seed=2)
        budget = make_link_budget(sc.config)
        res = run_algorithm1(sc)
        res.state.validate(sc, budget)

    def test_newton_step_budget(self, monkeypatch):
        # joint at table2, U=30, seed 0 makes 5 solves, all P7, in 79 Newton
        # steps: one BCD run from position_only's answer, every P5 in closed
        # form, each accepted placement move extrapolated, and a
        # reduced-space stage that solves no program.
        from uavstream import subproblems
        reports = []
        solve = subproblems.solve_concave

        def counted(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(subproblems, "solve_concave", counted)
        run_benchmark(small_scenario(seed=0, users=30), "joint")
        assert len(reports) == 5
        assert all(r.status == "converged" for r in reports)
        assert sum(r.barrier_iterations for r in reports) <= 79

    @pytest.mark.parametrize("scheme, fills", [("joint", 22), ("resource_only", 4)])
    def test_exact_fill_budget(self, monkeypatch, scheme, fills):
        # At table2, U=30, seed 0.  Each P7 step takes the fill at its
        # expansion point from the caller (the previous step's answer, or
        # the state _bcd or P5 just filled) instead of recomputing it.
        from uavstream import orchestrator, subproblems
        calls = []
        fill = subproblems.exact_fill_objective

        def counted(*args):
            calls.append(args)
            return fill(*args)

        for module in (orchestrator, subproblems):
            monkeypatch.setattr(module, "exact_fill_objective", counted)
        run_benchmark(small_scenario(seed=0, users=30), scheme)
        assert len(calls) == fills


class TestBenchmarks:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(small_scenario(), "magic")

    def test_scheme_ids_recorded(self):
        sc = small_scenario(seed=1)
        for scheme in SCHEMES:
            assert run_benchmark(sc, scheme).scheme == scheme

    def test_resource_only_fixed_point_of_joint(self):
        sc = small_scenario(seed=4)
        joint = run_algorithm1(sc)
        reopt = run_benchmark(sc, "resource_only", initial_state=joint.state)
        assert reopt.avg_utility == pytest.approx(joint.avg_utility,
                                                  abs=sc.config.bcd_tol)

    def test_position_only_user_permutation_invariant(self):
        cfg = table2_config(num_users_U=3, rng_seed=6)
        sc = generate_scenario(cfg)
        base = run_benchmark(sc, "position_only").avg_utility
        permuted = Scenario(config=cfg, gbs_pos_wb=sc.gbs_pos_wb,
                            agu_pos_wu=sc.agu_pos_wu[[2, 0, 1]])
        assert run_benchmark(permuted, "position_only").avg_utility == pytest.approx(
            base, abs=1e-9)

    def test_relay_baseline_is_static(self):
        sc = small_scenario(seed=9)
        res = run_benchmark(sc, "relay_baseline")
        init = initialize_state(sc)
        assert res.iterations == 0
        assert np.allclose(res.state.placement.q_obs, init.placement.q_obs)
        assert np.allclose(res.state.x, init.x)

    def test_joint_dominates_on_sample_seeds(self):
        for seed in [0, 1, 2]:
            sc = small_scenario(seed=seed)
            joint = run_algorithm1(sc).avg_utility
            for scheme in ["resource_only", "position_only", "no_relay"]:
                assert joint >= run_benchmark(sc, scheme).avg_utility - 1e-9

    def test_no_relay_monotone_trace(self):
        res = run_benchmark(small_scenario(seed=7), "no_relay")
        assert np.all(np.diff(res.trace.exact_objectives) >= -1e-9)

    @pytest.mark.parametrize("users", [10, 20, 30])
    def test_no_relay_states_validate_on_their_one_hop_chain(self, users):
        for seed in range(5):
            sc = small_scenario(seed=seed, users=users)
            budget = make_link_budget(sc.config)
            state = run_benchmark(sc, "no_relay").state
            assert state.placement.q_relay is None
            state.validate(sc, budget)

    def test_validate_rejects_rates_above_the_direct_link(self):
        # At the heuristic start the direct link, not the user caps, limits
        # the one-hop fill, so sum r can rise past it with every r_u capped.
        sc = small_scenario(seed=0, users=10)
        cfg = sc.config
        budget = make_link_budget(cfg)
        state = initialize_state(sc, budget)
        state.placement = UavPlacement(state.placement.q_obs)
        _, state.r_tilde = exact_fill_objective(sc, budget, state.x, state.p_user, state.p_obs,
                                                state.p_relay, state.placement)
        state.validate(sc, budget)
        q_obs = state.placement.q_obs
        direct = rate_gbs(state.p_obs, q_obs, sc.gbs_pos_wb, budget.mu0,
                          cfg.height_obs_Ho, cfg.height_gbs_Hb)
        # Lift the uncapped users until sum r is 1e-6 above the direct link.
        caps = (1.0 - cfg.outage_target_rho) * np.array(
            [rate_agu(x, p, q_obs, w, budget, cfg.height_obs_Ho)
             for x, p, w in zip(state.x, state.p_user, sc.agu_pos_wu)])
        room = caps - state.r_tilde
        excess = direct + 1e-6 - state.r_tilde.sum()
        assert 0.0 < excess < room.sum()
        state.r_tilde = state.r_tilde + excess * room / room.sum()
        with pytest.raises(ValueError, match="backhaul"):
            state.validate(sc, budget)
