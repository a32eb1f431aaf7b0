"""The scheme runs, their trace invariants, and benchmark scheme behaviour."""

import dataclasses
import warnings

import numpy as np
import pytest

from uavstream.channel import rate_agu, rate_gbs
from uavstream.convex_core import NumericError
from uavstream.orchestrator import SCHEMES, initialize_state, run_benchmark
from uavstream.scenario import Scenario, UavPlacement, generate_scenario, table2_config
from uavstream.subproblems import (InfeasibleProblem, exact_fill_objective, make_link_budget,
                                   utility_params)
from uavstream.utility import average_utility

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
        res = run_benchmark(small_scenario(seed=3), "joint")
        ex = res.trace.exact_objectives
        lb = res.trace.lower_bound_objectives
        assert res.converged
        assert np.all(np.diff(ex) >= -1e-9)
        assert all(l <= e + 1e-9 for l, e in zip(lb, ex))
        assert abs(ex[-1] - lb[-1]) <= 1e-6 * abs(ex[-1])

    def test_fixed_point_terminates_immediately(self):
        sc = small_scenario(seed=5)
        first = run_benchmark(sc, "joint")
        again = run_benchmark(sc, "joint", initial_state=first.state)
        assert again.iterations == 0
        assert again.converged
        assert again.avg_utility == pytest.approx(first.avg_utility, abs=1e-6)

    def test_deterministic(self):
        a = run_benchmark(small_scenario(seed=8), "joint")
        b = run_benchmark(small_scenario(seed=8), "joint")
        assert a.avg_utility == b.avg_utility
        assert np.array_equal(a.state.x, b.state.x)

    def test_final_state_feasible(self):
        sc = small_scenario(seed=2)
        budget = make_link_budget(sc.config)
        res = run_benchmark(sc, "joint")
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
        # joint at table2, U=30, seed 0 makes 4 solves, all P7, in 33 Newton
        # steps: position_only's placement run, each accepted move
        # extrapolated, each P7 solved only as tightly as the last accepted
        # gain needs and warm-started from the previous solve's path (43
        # steps cold), then a reduced-space stage that solves no program
        # (its P5s are in closed form).
        reports = self.solve_reports(monkeypatch)
        run_benchmark(small_scenario(seed=0, users=30), "joint")
        assert len(reports) == 4
        assert all(r.status == "converged" for r in reports)
        assert sum(r.barrier_iterations for r in reports) <= 33

    def test_newton_step_budget_at_large_u(self, monkeypatch):
        # joint at table2, U=1000, seed 0 makes 8 P7 solves, all in
        # position_only's placement run, in 204 Newton steps, every one
        # converged.
        reports = self.solve_reports(monkeypatch)
        run_benchmark(small_scenario(seed=0, users=1000), "joint")
        assert len(reports) == 8
        assert all(r.status == "converged" for r in reports)
        assert sum(r.barrier_iterations for r in reports) <= 204

    @pytest.mark.parametrize("scheme, fills", [("joint", 14), ("resource_only", 2),
                                               ("position_only", 11), ("relay_baseline", 1),
                                               ("no_relay", 15)])
    def test_exact_fill_budget(self, monkeypatch, scheme, fills):
        # At table2, U=30, seed 0.  The heuristic start is filled once, on
        # the scheme's own chain (no_relay's has no relay), and its exact
        # fill is handed to the scheme's start; no_relay's stage starts
        # there, with no placement run.  Each P7 step takes
        # the fill at its expansion point from the caller (the previous
        # step's answer, or the start's fill) instead of recomputing it, P5
        # takes the fill of its start split from the start, and joint's stage
        # starts from position_only's answer with the fill that run ended on;
        # each stage point's gradient and Hessian come with its P5.
        # A fill is a call of exact_fill_objective or a P5 solved at a
        # placement (subproblems._p5_at, behind solve_p5 and J*), which fills
        # from the links it measured.  Each fill measures its placement's
        # links once (subproblems._links), and nothing else in a run does.
        from uavstream import orchestrator, subproblems
        calls = {"fill": 0, "links": 0}

        def counted(kind, function):
            def call(*args):
                calls[kind] += 1
                return function(*args)
            return call

        fill = counted("fill", subproblems.exact_fill_objective)
        for module in (orchestrator, subproblems):
            monkeypatch.setattr(module, "exact_fill_objective", fill)
        monkeypatch.setattr(subproblems, "_p5_at", counted("fill", subproblems._p5_at))
        monkeypatch.setattr(subproblems, "_links", counted("links", subproblems._links))
        run_benchmark(small_scenario(seed=0, users=30), scheme)
        assert calls["fill"] == fills
        assert calls["links"] <= fills

    @pytest.mark.parametrize("scheme", ["position_only"])
    def test_placement_tolerance_follows_the_last_accepted_gain(self, monkeypatch, scheme):
        # Each P7 is solved to max(sca_tol, kappa * g): g is |objective|
        # before the run's first placement step, then the exact gain of the
        # last accepted (not stalled) step.
        from uavstream import orchestrator, subproblems
        steps, tols = [], []
        solve_p7, solve = orchestrator.solve_p7, subproblems.solve_concave

        def recorded_p7(scenario, state, budget, tol, warm):
            before = average_utility(state.r_tilde, utility_params(scenario.config))
            steps.append((before, solve_p7(scenario, state, budget, tol, warm)))
            return steps[-1][1]

        def recorded_solve(program, start, tol, warm=None):
            tols.append(tol)
            return solve(program, start, tol, warm)

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

    def test_a_nan_first_hessian_reaches_the_same_answer(self, monkeypatch):
        # A non-finite Hessian of J* is taken as zero: the stage's first step
        # runs along the gradient to the trust region's edge, and the exact
        # Hessians after it reach the same answer.
        from uavstream import orchestrator
        sc = small_scenario(seed=0, users=10)
        start = run_benchmark(sc, "position_only").state
        exact = run_benchmark(sc, "joint", start)
        reduced_point, calls = orchestrator.reduced_point, []

        def first_nan(*args):
            point = reduced_point(*args)
            calls.append(point)
            if len(calls) == 1:
                point = dataclasses.replace(point, hessian=np.full((2, 2), np.nan))
            return point

        monkeypatch.setattr(orchestrator, "reduced_point", first_nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fallback = run_benchmark(sc, "joint", start)
        assert fallback.avg_utility > fallback.trace.exact_objectives[0]
        assert fallback.avg_utility == pytest.approx(exact.avg_utility, abs=1e-9)

    def test_a_trial_whose_p5_raises_is_rejected(self, monkeypatch):
        # The second trial point's P5 raises: the radius shrinks and the
        # stage goes on, to a valid answer whose trace never falls.
        from uavstream import orchestrator
        sc = small_scenario(seed=0, users=10)
        start = run_benchmark(sc, "position_only").state
        reduced_point, calls = orchestrator.reduced_point, []

        def third_raises(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NumericError("P5's Newton search stalled")
            return reduced_point(*args)

        monkeypatch.setattr(orchestrator, "reduced_point", third_raises)
        result = run_benchmark(sc, "joint", start)
        assert len(calls) > 3
        exact = result.trace.exact_objectives
        assert all(b >= a for a, b in zip(exact, exact[1:]))
        assert result.avg_utility > exact[0]
        result.state.validate(sc, make_link_budget(sc.config))

    def test_a_start_whose_p5_raises_raises(self, monkeypatch):
        from uavstream import orchestrator

        def raises(*args):
            raise NumericError("P5's Newton search stalled")

        sc = small_scenario(seed=0, users=10)
        start = run_benchmark(sc, "position_only").state
        monkeypatch.setattr(orchestrator, "reduced_point", raises)
        with pytest.raises(NumericError):
            run_benchmark(sc, "joint", start)

    def test_stage_stops_where_the_model_gains_nothing(self, monkeypatch):
        # g = 0 and H negative semidefinite: the step is zero, and the stage
        # stops at its start after one evaluation.
        from uavstream import orchestrator
        sc = small_scenario(seed=0, users=10)
        start = run_benchmark(sc, "position_only").state
        reduced_point, calls = orchestrator.reduced_point, []

        def stationary(*args):
            calls.append(args)
            return dataclasses.replace(reduced_point(*args), gradient=np.zeros(2),
                                       hessian=np.diag([-1.0, 0.0]))

        monkeypatch.setattr(orchestrator, "reduced_point", stationary)
        result = run_benchmark(sc, "joint", start)
        assert len(calls) == 1
        assert result.converged and len(result.trace.records) <= 2

    def test_stage_escapes_a_saddle_of_j_star(self):
        # Census seed 11, draw 116 (tests/census.py's draw_config): position_only
        # ends at a saddle of J*, where |g| = 2e-21 and H's eigenvalues are
        # -6.3e-7 and +3.7e-7.  A step along the gradient makes no record
        # there; the trust-region step follows the top eigenvector.
        sc = generate_scenario(table2_config(
            num_users_U=2, rng_seed=8617, p_max_user=0.7788767526747408,
            p_max_obs=0.16664923513809368, p_max_relay=0.27475918665063515,
            rician_K=1.5716301437178926, outage_target_rho=0.011880074345145951,
            area_side=2770.204813550651, network_size_D=1341.02914293388,
            height_obs_Ho=105.49186445040012, height_relay_Hr=57.863283429003054))
        position_only = run_benchmark(sc, "position_only")
        joint = run_benchmark(sc, "joint", position_only.state)
        assert position_only.avg_utility == pytest.approx(3.5585, abs=1e-4)
        assert joint.avg_utility >= position_only.avg_utility + 0.2
        joint.state.validate(sc, make_link_budget(sc.config))

    @pytest.mark.parametrize("scheme", ["position_only", "joint"])
    def test_a_run_of_capped_p7_solves_is_not_converged(self, monkeypatch, scheme):
        # With a 3-step Newton budget every P7 solve of these runs (table2,
        # U=10, seed 0) ends max_iters, and the run reports it.
        from uavstream import convex_core
        monkeypatch.setattr(convex_core, "_MAX_NEWTON", 3)
        reports = self.solve_reports(monkeypatch)
        result = run_benchmark(small_scenario(seed=0, users=10), scheme)
        assert reports and all(r.status == "max_iters" for r in reports)
        assert not result.converged


class TestTrustStep:
    """orchestrator._trust_step: the exact 2-D trust-region step."""

    @staticmethod
    def step(g, hess, radius):
        from uavstream.orchestrator import _trust_step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _trust_step(np.asarray(g, float), np.asarray(hess, float), radius)

    def test_interior_newton_step(self):
        g, hess = np.array([1.0, -2.0]), np.array([[-4.0, 1.0], [1.0, -3.0]])
        s, gain = self.step(g, hess, 10.0)
        newton = -np.linalg.solve(hess, g)
        assert np.allclose(s, newton, rtol=1e-14, atol=0.0)
        assert gain == pytest.approx(0.5 * g @ newton, rel=1e-14)

    def test_boundary_step(self):
        # The Newton step is longer than the radius: the step ends on the
        # boundary, where (sigma I - H) s = g for some sigma > 0.
        g, hess = np.array([3.0, 1.0]), np.array([[-1.0, 0.2], [0.2, -0.5]])
        s, gain = self.step(g, hess, 0.5)
        assert np.linalg.norm(s) == pytest.approx(0.5, rel=1e-12)
        sigma = (g + hess @ s) / s
        assert sigma[0] == pytest.approx(sigma[1], rel=1e-9) and sigma[0] > 0.0
        assert gain == pytest.approx(g @ s + 0.5 * s @ hess @ s, rel=1e-14)
        # No point of the circle gains more.
        angles = np.linspace(0.0, 2.0 * np.pi, 3601)
        circle = 0.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        model = circle @ g + 0.5 * np.einsum("ij,jk,ik->i", circle, hess, circle)
        assert gain >= model.max() - 1e-12

    def test_saddle_hard_case(self):
        # g = 0 and one positive eigenvalue: a step of the full radius along
        # its eigenvector, with a positive gain.
        hess = np.array([[-1.0, 2.0], [2.0, 0.5]])
        eig, vec = np.linalg.eigh(hess)
        s, gain = self.step([0.0, 0.0], hess, 3.0)
        assert np.linalg.norm(s) == pytest.approx(3.0, rel=1e-14)
        assert abs(s @ vec[:, 1]) == pytest.approx(3.0, rel=1e-14)
        assert gain == pytest.approx(0.5 * eig[1] * 9.0, rel=1e-14) and gain > 0.0

    @pytest.mark.parametrize("hess", [np.diag([-1.0, -2.0]), np.diag([0.0, -1.0]),
                                      np.zeros((2, 2))])
    def test_zero_gradient_at_a_maximum_gives_a_zero_step(self, hess):
        s, gain = self.step([0.0, 0.0], hess, 3.0)
        assert not s.any() and gain == 0.0

    def test_nan_hessian_steps_along_the_gradient(self):
        g = np.array([3.0, -4.0])
        s, gain = self.step(g, np.full((2, 2), np.nan), 2.0)
        assert np.allclose(s, 2.0 * g / 5.0, rtol=1e-14, atol=0.0)
        assert gain == pytest.approx(10.0, rel=1e-14)


class TestStageRadius:
    """orchestrator._reduced_ascent's radius after a trial that gains too
    little, on a stub J* over q_obs = (q, 0) with a zero Hessian: from
    q_obs = 0 the first step runs along the gradient to the first radius, a
    quarter of P7's box."""

    @staticmethod
    def trials(monkeypatch, objective, slope, raises_at=()):
        """The q of each point the stage evaluates, in units of its first
        step's length; the evaluations numbered in raises_at raise."""
        from uavstream import orchestrator
        from uavstream.orchestrator import IterationTrace, SchemeResult, _reduced_ascent
        from uavstream.subproblems import ReducedPoint, placement_extent
        sc = small_scenario(seed=0)
        start = dataclasses.replace(initialize_state(sc, relay=False),
                                    placement=UavPlacement(np.zeros(2)))
        first, calls = 0.25 * placement_extent(sc.config), []

        def stub(scenario, budget, q_obs, relay):
            calls.append(q_obs[0])
            if len(calls) in raises_at:
                raise NumericError("P5's Newton search stalled")
            q = q_obs[0] / first
            return ReducedPoint(objective(q), dataclasses.replace(
                start, placement=UavPlacement(q_obs)), np.array([slope(q) / first, 0.0]),
                np.zeros((2, 2)))

        trace = IterationTrace()
        trace.add(0, objective(0.0), objective(0.0))
        monkeypatch.setattr(orchestrator, "reduced_point", stub)
        _reduced_ascent(sc, None, SchemeResult("no_relay", start, objective(0.0), trace, 0, True))
        assert calls[0] == 0.0 and calls[1] == pytest.approx(first, rel=1e-12)
        return [q / first for q in calls]

    def test_a_rejected_trial_shrinks_to_where_the_linear_models_meet(self, monkeypatch):
        # J* = min(q, 0.6 - q) in units of the first step: a tent with its
        # kink at 0.3.  The first trial, at 1, falls below the start and is
        # rejected; the start's model q and the trial's 0.6 - q meet at the
        # kink, so the next trial lands on it, where the fixed shrink to a
        # quarter of the step would stop short.
        calls = self.trials(monkeypatch, lambda q: min(q, 0.6 - q),
                            lambda q: 1.0 if q < 0.3 else -1.0)
        assert calls[2] == pytest.approx(0.3, rel=1e-12)

    def test_a_trial_that_returned_no_point_shrinks_to_a_quarter(self, monkeypatch):
        # J* = q: the first trial's P5 raises, and the next trial is a
        # quarter of the first step out.
        calls = self.trials(monkeypatch, lambda q: q, lambda q: 1.0, raises_at=(2,))
        assert calls[2] == pytest.approx(0.25, rel=1e-12)


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
        joint = run_benchmark(sc, "joint")
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

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_callers_state_with_a_zero_length_hop_is_infeasible(self, scheme):
        # Every UAV and the GBS at 100 m, both UAVs over the GBS: each hop of
        # either chain has zero length.  The state's fill reports it.
        sc = generate_scenario(table2_config(num_users_U=4, rng_seed=0, height_gbs_Hb=100.0))
        start = initialize_state(sc)
        state = dataclasses.replace(start, placement=UavPlacement(sc.gbs_pos_wb, sc.gbs_pos_wb))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InfeasibleProblem):
                run_benchmark(sc, scheme, state)
        assert caught == []

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
            joint = run_benchmark(sc, "joint").avg_utility
            for scheme in ["resource_only", "position_only", "no_relay"]:
                assert joint >= run_benchmark(sc, scheme).avg_utility - 1e-9

    @pytest.mark.parametrize("users", [10, 20, 30])
    def test_joint_and_no_relay_are_never_below_algorithm1(self, users):
        # The paper's alternating loop, on the relay chain for joint and on
        # the one-hop chain for no_relay.
        for seed in range(5):
            sc = small_scenario(seed=seed, users=users)
            assert run_benchmark(sc, "joint").avg_utility >= algorithm1(sc)[0] - 1e-9, seed
            assert (run_benchmark(sc, "no_relay").avg_utility
                    >= algorithm1(sc, relay=False)[0] - 1e-9), seed

    @pytest.mark.parametrize("users", [10, 3000])
    def test_a_no_relay_run_solves_no_p7(self, monkeypatch, users):
        # no_relay is the stage alone, from the user centroid on the one-hop
        # chain.  At U=3000 (table2, seed 0) its old placement run spent a
        # P7 solve's Newton step budget and reported unconverged.
        solves = TestRunAlgorithm1.solve_reports(monkeypatch)
        result = run_benchmark(small_scenario(seed=0, users=users), "no_relay")
        assert solves == [] and result.converged and result.iterations >= 1

    @pytest.mark.parametrize("fields", [
        # Widened census draws 312 and 977 (tests/census.py --widened
        # --seed 7): P5 raised at the stage's start, the end of a P7
        # placement run, when no_relay ran one.
        dict(num_users_U=2, rng_seed=5384, p_max_user=2.529203312850381e-07,
             p_max_obs=2.7693496535968653e-05, p_max_relay=0.00189868916289522,
             rician_K=5.594384874509153, outage_target_rho=0.2958596330873553,
             area_side=3994.837798942725, network_size_D=10183.397960140912,
             height_obs_Ho=276.34823731499296, height_relay_Hr=29.727408430730616),
        dict(num_users_U=17, rng_seed=6832, p_max_user=1.7592572325637736e-05,
             p_max_obs=6.958176165417521e-06, p_max_relay=2.352717268366335e-06,
             rician_K=17.119929633868068, outage_target_rho=0.14625135392748045,
             area_side=1.6365932626638546, network_size_D=12061.540257231376,
             height_obs_Ho=261.8056344519674, height_relay_Hr=277.2238332923321),
    ], ids=["widened_312", "widened_977"])
    def test_no_relay_runs_on_two_widened_census_draws(self, fields):
        sc = generate_scenario(table2_config(**fields))
        result = run_benchmark(sc, "no_relay")
        result.state.validate(sc, make_link_budget(sc.config))

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
