"""Property tests over the valid SystemConfig domain (small U)."""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uavstream.convex_core import NumericError
from uavstream.orchestrator import SCHEMES, initialize_state, run_benchmark
from uavstream.scenario import ConfigError, UavPlacement, generate_scenario, table2_config
from uavstream.subproblems import (InfeasibleProblem, _price_split, exact_fill_objective,
                                   make_link_budget, solve_p5, solve_p7)

from dense_reference import (assert_p5_kkt, check_p5_closed_form, nested_price_split,
                             p5_constants)


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
        c, link_cap, *rest = p5_constants(sc, budget, placement)
        if _price_split(c, link_cap, *rest)[1] == 0.0:
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
            placement = solve_p7(sc, state, budget).placement
            check_p5_closed_form(sc, budget, placement, state)
        except InfeasibleProblem:
            return


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_c=st.lists(st.floats(-9.0, -3.0), min_size=1, max_size=40),
       log_link_cap=st.floats(-3.0, np.log10(30.0)), rho=st.floats(1e-3, 0.3))
def test_weak_users_p5_matches_the_nested_reference(log_c, log_link_cap, rho):
    # Every c <= 1e-3, so every s = c/x at P5's answer is small and the cap
    # slope ln(1 + s) - s/(1 + s) cancels if taken as a difference: the one
    # Newton loop must still meet P5's KKT conditions and agree with the
    # nested loop (whose slopes are integrals there).
    c = 10.0 ** np.array(log_c)
    args = (c, 10.0 ** log_link_cap, 1.0 - rho, 0.8 / len(c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, lam, nu = _price_split(*args)
        if lam == 0.0:     # flat: the least shares reaching the equal level
            return
        assert_p5_kkt(*args, x, lam, nu)
        x_ref = nested_price_split(*args)[0]
    assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-8


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
            joint = run_benchmark(sc, "joint").avg_utility
            position_only = run_benchmark(sc, "position_only").avg_utility
        except (InfeasibleProblem, NumericError, ConfigError):
            return
    assert joint >= position_only
