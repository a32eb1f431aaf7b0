"""The scheme runs, their trace invariants, and benchmark scheme behaviour."""

import dataclasses

import numpy as np
import pytest

from uavstream.channel import rate_agu, rate_gbs
from uavstream.orchestrator import (SCHEMES, initialize_state, run_algorithm1,
                                    run_benchmark)
from uavstream.scenario import Scenario, UavPlacement, generate_scenario, table2_config
from uavstream.subproblems import exact_fill_objective, make_link_budget

from algorithm1_reference import algorithm1


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
            _, fill = exact_fill_objective(sc, budget, state.x, state.p_user, state.p_obs,
                                           state.p_relay, state.placement)
            assert np.array_equal(state.r_tilde, fill)

    @pytest.mark.parametrize("name", ["x", "r_tilde", "p_user", "p_obs", "p_relay"])
    def test_validate_rejects_a_nan(self, name):
        sc = small_scenario(seed=0, users=3)
        budget = make_link_budget(sc.config)
        state = initialize_state(sc, budget)
        value = getattr(state, name)
        if isinstance(value, np.ndarray):
            value = value.copy()
            value[0] = np.nan
        else:
            value = np.nan
        with pytest.raises(ValueError):
            dataclasses.replace(state, **{name: value}).validate(sc, budget)


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
        assert again.iterations == 0
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

    @staticmethod
    def solve_reports(monkeypatch):
        """The list every solve_concave report is appended to from now on."""
        from uavstream import subproblems
        reports = []
        solve = subproblems.solve_concave

        def counted(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(subproblems, "solve_concave", counted)
        return reports

    def test_newton_step_budget(self, monkeypatch):
        # joint at table2, U=30, seed 0 makes 4 solves, all P7, in 43 Newton
        # steps: position_only's placement run, each accepted move
        # extrapolated and each P7 solved only as tightly as the last
        # accepted gain needs, then a reduced-space stage that solves no
        # program (its P5s are in closed form).
        reports = self.solve_reports(monkeypatch)
        run_benchmark(small_scenario(seed=0, users=30), "joint")
        assert len(reports) == 4
        assert all(r.status == "converged" for r in reports)
        assert sum(r.barrier_iterations for r in reports) <= 43

    def test_newton_step_budget_at_large_u(self, monkeypatch):
        # joint and no_relay at table2, U=1000, seed 0 make 13 P7 solves in
        # 442 Newton steps, every one converged.
        reports = self.solve_reports(monkeypatch)
        sc = small_scenario(seed=0, users=1000)
        for scheme in ("joint", "no_relay"):
            run_benchmark(sc, scheme)
        assert len(reports) == 13
        assert all(r.status == "converged" for r in reports)
        assert sum(r.barrier_iterations for r in reports) <= 442

    @pytest.mark.parametrize("scheme, fills", [("joint", 17), ("resource_only", 2),
                                               ("position_only", 11), ("relay_baseline", 1),
                                               ("no_relay", 19)])
    def test_exact_fill_budget(self, monkeypatch, scheme, fills):
        # At table2, U=30, seed 0.  The heuristic start is filled once, on
        # the scheme's own chain (no_relay's has no relay), and its exact
        # fill is handed to the scheme's start.  Each P7 step takes
        # the fill at its expansion point from the caller (the previous
        # step's answer, or the start's fill) instead of recomputing it, P5
        # takes the fill of its start split from the start, and joint's stage
        # starts from position_only's answer with the fill that run ended on.
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

    @pytest.mark.parametrize("scheme", ["position_only", "no_relay"])
    def test_placement_tolerance_follows_the_last_accepted_gain(self, monkeypatch, scheme):
        # Each P7 is solved to max(sca_tol, kappa * g): g is |objective|
        # before the run's first placement step, then the exact gain of the
        # last accepted (not stalled) step.
        from uavstream import orchestrator, subproblems
        steps, tols = [], []
        solve_p7, solve = orchestrator.solve_p7, subproblems.solve_concave

        def recorded_p7(*args):
            steps.append((args[7][0], solve_p7(*args)))
            return steps[-1][1]

        def recorded_solve(program, start, tol):
            tols.append(tol)
            return solve(program, start, tol)

        monkeypatch.setattr(orchestrator, "solve_p7", recorded_p7)
        monkeypatch.setattr(subproblems, "solve_concave", recorded_solve)
        sc = small_scenario(seed=0, users=10)
        sca_tol, kappa = sc.config.sca_tol, orchestrator._SCA_KAPPA
        run_benchmark(sc, scheme)
        assert len(tols) == len(steps) >= 3
        gain = None
        for (before, p7), tol in zip(steps, tols):
            assert tol == max(sca_tol, kappa * (abs(before) if gain is None else gain))
            if not p7.stalled:
                gain = p7.exact_objective - before
        assert tols[0] > sca_tol and tols[-1] < tols[0]

    def test_loose_placement_solves_keep_the_answers(self, monkeypatch):
        # With kappa = 0 every P7 is solved to sca_tol.
        from uavstream import orchestrator
        cells = [(small_scenario(seed=seed, users=users), scheme)
                 for users in (10, 20) for seed in range(3)
                 for scheme in ("joint", "position_only", "no_relay")]
        loose = [run_benchmark(sc, scheme).avg_utility for sc, scheme in cells]
        monkeypatch.setattr(orchestrator, "_SCA_KAPPA", 0.0)
        for (sc, scheme), value in zip(cells, loose):
            tight = run_benchmark(sc, scheme).avg_utility
            assert value == pytest.approx(tight, abs=1e-9 if scheme == "joint" else 1e-6)


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

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_callers_rates_are_refilled(self, scheme):
        # Every scheme starts from the exact fill of a caller's state, not
        # from the r_tilde the caller hands in.
        sc = small_scenario(seed=2)
        state = initialize_state(sc)
        exact = run_benchmark(sc, scheme, state)
        halved = run_benchmark(sc, scheme, dataclasses.replace(state, r_tilde=0.5 * state.r_tilde))
        assert halved.avg_utility == exact.avg_utility
        assert halved.trace.records == exact.trace.records
        assert halved.iterations == exact.iterations

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

    @pytest.mark.parametrize("users", [10, 20, 30])
    def test_joint_and_no_relay_are_never_below_algorithm1(self, users):
        # The paper's alternating loop, on the relay chain for joint and on
        # the one-hop chain for no_relay.
        for seed in range(5):
            sc = small_scenario(seed=seed, users=users)
            assert run_algorithm1(sc).avg_utility >= algorithm1(sc)[0] - 1e-9, seed
            assert (run_benchmark(sc, "no_relay").avg_utility
                    >= algorithm1(sc, relay=False)[0] - 1e-9), seed

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
