"""Property tests over the valid SystemConfig domain (small U)."""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uavstream.convex_core import NumericError
from uavstream.orchestrator import SCHEMES, initialize_state, run_algorithm1, run_benchmark
from uavstream.scenario import ConfigError, UavPlacement, generate_scenario, table2_config
from uavstream.subproblems import (InfeasibleProblem, _p5_split, backhaul_cap,
                                   exact_fill_objective, make_link_budget, solve_p5, solve_p7)

from dense_reference import check_p5_closed_form


def config_strategy(max_users):
    return st.builds(
        table2_config,
        num_users_U=st.integers(1, max_users),
        rng_seed=st.integers(0, 10_000),
        p_max_user=st.floats(1e-4, 1.0),
        p_max_obs=st.floats(1e-3, 1.0),
        p_max_relay=st.floats(1e-3, 1.0),
        rician_K=st.floats(0.0, 20.0),
        outage_target_rho=st.floats(1e-3, 0.3),
        area_side=st.floats(0.0, 3000.0),
        network_size_D=st.floats(200.0, 5000.0),
        height_obs_Ho=st.floats(20.0, 300.0),
        height_relay_Hr=st.floats(20.0, 300.0),
    )


configs = config_strategy(max_users=12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs, relay=st.booleans(), split_seed=st.integers(0, 2 ** 32 - 1))
def test_solve_p5_is_feasible_and_never_below_its_start(cfg, relay, split_seed):
    # Flat or not, P5's answer must validate, must lose neither to its equal
    # start split nor to a random one, and must leak no warning.  A flat
    # answer (lam = 0) must lie on the optimal face: the whole bandwidth,
    # every user at link_cap/U.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc = generate_scenario(cfg)
        budget = make_link_budget(cfg)
        start = initialize_state(sc, budget)
        placement = start.placement if relay else UavPlacement(start.placement.q_obs)
        try:
            out = solve_p5(sc, placement, start, budget)
        except InfeasibleProblem:
            return
        out.validate(sc, budget)
        args = (out.p_user, cfg.p_max_obs, cfg.p_max_relay, placement)
        split = np.random.default_rng(split_seed).dirichlet(np.ones(cfg.num_users_U))
        before = max(exact_fill_objective(sc, budget, x, *args)[0] for x in (start.x, split))
        after, _ = exact_fill_objective(sc, budget, out.x, *args)
        if _p5_split(sc, budget, placement)[1] == 0.0:
            link_cap = backhaul_cap(sc, budget, cfg.p_max_obs, cfg.p_max_relay, placement)
            assert np.all(out.r_tilde == link_cap / cfg.num_users_U)
            assert abs(out.x.sum() - 1.0) <= 1e-12
    assert after >= before > -float("inf")


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs, relay=st.booleans())
def test_closed_form_p5_matches_the_reference_after_a_placement_step(cfg, relay):
    # At a placement one SCA step from P5's answer, where P5 is generally
    # not flat: the closed form against the interior-point reference, and
    # its prices against P5's KKT conditions (check_p5_closed_form).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc = generate_scenario(cfg)
        budget = make_link_budget(cfg)
        start = initialize_state(sc, budget)
        placement = start.placement if relay else UavPlacement(start.placement.q_obs)
        try:
            state = solve_p5(sc, placement, start, budget)
            placement = solve_p7(sc, state.x, state.p_user, state.p_obs, state.p_relay,
                                 placement, budget).placement
            check_p5_closed_form(sc, budget, placement, state)
        except InfeasibleProblem:
            return


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=config_strategy(max_users=8), scheme=st.sampled_from(SCHEMES))
def test_every_scheme_keeps_the_bcd_invariants(cfg, scheme):
    # The exact trace never falls, each lower bound stays below its exact
    # objective, the final state validates, no warning leaks, and only the
    # solver's own error types escape.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc = generate_scenario(cfg)
        budget = make_link_budget(cfg)
        try:
            res = run_benchmark(sc, scheme)
        except (InfeasibleProblem, NumericError, ConfigError):
            return
        res.state.validate(sc, budget)
    exact = res.trace.exact_objectives
    assert all(b >= a - 1e-9 for a, b in zip(exact, exact[1:]))
    assert all(lb <= ex + 1e-9 for lb, ex in zip(res.trace.lower_bound_objectives, exact))


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=config_strategy(max_users=8))
def test_joint_is_never_below_position_only(cfg):
    # joint's reduced-space stage starts from position_only's answer and
    # records only strict gains: no tolerance.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc = generate_scenario(cfg)
        try:
            joint = run_algorithm1(sc).avg_utility
            position_only = run_benchmark(sc, "position_only").avg_utility
        except (InfeasibleProblem, NumericError, ConfigError):
            return
    assert joint >= position_only
