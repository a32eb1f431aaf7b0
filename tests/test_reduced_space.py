"""The reduced problem over the observation UAV: the equal-hop relay, the
gradient and Hessian of J* on either chain, and joint's answer against the
brute-force oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavstream.channel import fspl_rate
from uavstream.orchestrator import run_algorithm1, run_benchmark
from uavstream.scenario import generate_scenario, table2_config
from uavstream.subproblems import (_p5_at, _price_split, equal_hop_placement, make_link_budget,
                                   reduced_point)

from dense_reference import p5_constants
from reduced_oracle import oracle_placement, reduced_optimum

# Equal heights and powers (table2); a climb to the relay with a stronger
# observation UAV; a relay above both ends with a stronger relay; and P5
# regimes that are mostly flat (table2) or mostly not (weak users, wide area).
CONFIGS = {
    "table2": {},
    "climb": {"height_obs_Ho": 60.0, "height_relay_Hr": 180.0, "p_max_obs": 0.4},
    "high_relay": {"height_relay_Hr": 250.0, "p_max_relay": 0.5, "network_size_D": 900.0},
    "weak_users": {"p_max_user": 0.01},
    "wide_area": {"area_side": 3000.0},
}
# The relay clamped at one end (test_equal_hop_relay_clamps_where_one_hop_is_always_weaker).
CLAMPED = {
    "clamped_obs": {"height_relay_Hr": 500.0, "p_max_obs": 1e-3},
    "clamped_gbs": {"height_obs_Ho": 500.0, "height_relay_Hr": 500.0, "p_max_obs": 1.0,
                    "p_max_relay": 1e-3},
}


def p5_is_flat(scenario, budget, placement):
    return _price_split(*p5_constants(scenario, budget, placement))[1] == 0.0


def hop_rates(scenario, placement):
    cfg = scenario.config
    mu0 = make_link_budget(cfg).mu0
    return (fspl_rate(cfg.p_max_obs, placement.q_obs, placement.q_relay, mu0,
                      cfg.height_obs_Ho, cfg.height_relay_Hr),
            fspl_rate(cfg.p_max_relay, placement.q_relay, scenario.gbs_pos_wb, mu0,
                      cfg.height_relay_Hr, cfg.height_gbs_Hb))


def random_points(scenario, rng, count):
    """Points over the box of the users and the GBS, widened by 300 m."""
    nodes = np.vstack([scenario.agu_pos_wu, scenario.gbs_pos_wb])
    return rng.uniform(nodes.min(axis=0) - 300.0, nodes.max(axis=0) + 300.0, (count, 2))


@pytest.mark.parametrize("config", CONFIGS)
def test_equal_hop_relay_matches_brentq(config):
    sc = generate_scenario(table2_config(num_users_U=4, rng_seed=3, **CONFIGS[config]))
    for q_obs in random_points(sc, np.random.default_rng(7), 50):
        placement, _ = equal_hop_placement(sc, q_obs)
        reference = oracle_placement(sc, q_obs)
        assert np.allclose(placement.q_relay, reference.q_relay, rtol=0.0, atol=1e-8)
        inside = 0.0 < np.linalg.norm(placement.q_relay - q_obs) \
            and 0.0 < np.linalg.norm(placement.q_relay - sc.gbs_pos_wb)
        if inside:
            r_or, r_rb = hop_rates(sc, placement)
            assert abs(r_or - r_rb) <= 1e-12 * r_or


def test_equal_hop_relay_clamps_where_one_hop_is_always_weaker():
    # A relay 400 m above a weak observation UAV: the first hop is weaker
    # even with the relay straight above it.  A weak relay 480 m above the
    # GBS: the second hop is weaker even with the relay straight above it.
    for overrides, end in ((CLAMPED["clamped_obs"], "obs"), (CLAMPED["clamped_gbs"], "gbs")):
        sc = generate_scenario(table2_config(num_users_U=2, **overrides))
        q_obs = np.array([10.0, 20.0])
        placement, slope = equal_hop_placement(sc, q_obs)
        target = q_obs if end == "obs" else sc.gbs_pos_wb
        assert np.allclose(placement.q_relay, target, rtol=0.0, atol=1e-9)
        assert slope == 0.0


@pytest.mark.parametrize("num_users", [1, 5, 8])
@pytest.mark.parametrize("config", [*CONFIGS, "one_hop"])
def test_reduced_gradient_matches_central_differences(config, num_users):
    # Danskin's gradient of J*, on flat and non-flat P5s; a stencil whose
    # ends differ in flatness straddles J*'s kink and is skipped.  one_hop
    # is table2 with no relay: the observation UAV sends straight to the GBS.
    relay = config != "one_hop"
    sc = generate_scenario(table2_config(num_users_U=num_users, rng_seed=num_users,
                                         **CONFIGS.get(config, {})))
    budget = make_link_budget(sc.config)
    h = 1e-3
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q_obs in random_points(sc, np.random.default_rng(num_users), 8):
            point = reduced_point(sc, budget, q_obs, relay)
            fd = np.empty(2)
            flat = {p5_is_flat(sc, budget, point.state.placement)}
            for i, e in enumerate(np.eye(2)):
                ends = [reduced_point(sc, budget, q_obs + sign * h * e, relay)
                        for sign in (1, -1)]
                flat |= {p5_is_flat(sc, budget, p.state.placement) for p in ends}
                fd[i] = (ends[0].objective - ends[1].objective) / (2 * h)
            if len(flat) > 1:
                continue
            checked += 1
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(point.gradient - fd).max() <= 1e-6 * scale, (q_obs, point.gradient, fd)
    assert checked >= 6


def p5_regime(sc, budget, point):
    """Flat, nu = 0 or nu > 0: where P5 changes regime, J* has a kink."""
    lam, nu = _p5_at(sc, budget, point.state.placement)[2]
    return "flat" if lam == 0.0 else "nu = 0" if nu == 0.0 else "nu > 0"


def hessian_error(sc, budget, q_obs, relay, h=1e-3):
    """The Hessian's largest deviation from central differences of the
    gradient, relative to their largest entry, and the P5 regimes the
    stencil meets."""
    point = reduced_point(sc, budget, q_obs, relay)
    fd = np.empty((2, 2))
    regimes = {p5_regime(sc, budget, point)}
    for i, e in enumerate(np.eye(2)):
        ends = [reduced_point(sc, budget, q_obs + sign * h * e, relay) for sign in (1, -1)]
        regimes |= {p5_regime(sc, budget, p) for p in ends}
        fd[i] = (ends[0].gradient - ends[1].gradient) / (2 * h)
    return np.abs(point.hessian - fd).max() / max(np.abs(fd).max(), 1e-300), regimes


@pytest.mark.parametrize("num_users", [1, 5, 8])
@pytest.mark.parametrize("config", [*CONFIGS, *CLAMPED, "one_hop"])
def test_reduced_hessian_matches_central_differences(config, num_users):
    # J*'s Hessian (reduced_point's) by implicit differentiation of P5's optimality
    # conditions; a stencil whose ends differ in P5 regime straddles a kink
    # of J* and is skipped.  A clamped relay leaves the backhaul cap
    # constant, where a flat P5 has a zero Hessian.
    relay = config != "one_hop"
    overrides = {**CONFIGS, **CLAMPED}.get(config, {})
    sc = generate_scenario(table2_config(num_users_U=num_users, rng_seed=num_users, **overrides))
    budget = make_link_budget(sc.config)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q_obs in random_points(sc, np.random.default_rng(num_users), 8):
            error, regimes = hessian_error(sc, budget, q_obs, relay)
            if len(regimes) > 1:
                continue
            checked += 1
            assert error <= 1e-6, (q_obs, regimes, error)
    assert checked >= 6


def test_reduced_hessian_at_the_stage_start():
    # joint's stage starts at position_only's answer, on the backhaul cap
    # with nu > 0 (table2, U=10, seed 0).
    sc = generate_scenario(table2_config(num_users_U=10))
    start = run_benchmark(sc, "position_only").state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error, regimes = hessian_error(sc, make_link_budget(sc.config),
                                       start.placement.q_obs, True)
    assert regimes == {"nu > 0"}
    assert error <= 1e-6, error


def test_reduced_gradient_sees_flat_and_non_flat_p5():
    # The gradient test above covers both kinds of P5.
    kinds = set()
    for config, num_users in (("table2", 5), ("weak_users", 5)):
        sc = generate_scenario(table2_config(num_users_U=num_users, rng_seed=num_users,
                                             **CONFIGS[config]))
        budget = make_link_budget(sc.config)
        for q_obs in random_points(sc, np.random.default_rng(num_users), 8):
            placement = reduced_point(sc, budget, q_obs).state.placement
            kinds.add(p5_is_flat(sc, budget, placement))
    assert kinds == {True, False}


@pytest.mark.parametrize("num_users, seed, overrides", [
    (10, 0, {}), (10, 1, {}), (20, 0, {}), (20, 1, {}),
    (20, 0, {"area_side": 3000.0}), (20, 0, {"p_max_user": 0.002}),
    (20, 0, {"p_max_user": 0.01}),
])
def test_joint_reaches_the_reduced_optimum(num_users, seed, overrides):
    sc = generate_scenario(table2_config(num_users_U=num_users, rng_seed=seed, **overrides))
    budget = make_link_budget(sc.config)
    spacing = 50.0 if overrides.get("area_side") else 25.0
    optimum, _ = reduced_optimum(sc, budget, spacing)
    result = run_algorithm1(sc)
    assert abs(result.avg_utility - optimum) <= 1e-6, (result.avg_utility, optimum)
    exact = result.trace.exact_objectives
    lower = result.trace.lower_bound_objectives
    assert all(b >= a for a, b in zip(exact, exact[1:]))
    assert all(lb <= ex for lb, ex in zip(lower, exact))
    assert abs(exact[-1] - lower[-1]) <= 1e-6 * abs(exact[-1])


@settings(max_examples=11, deadline=None, derandomize=True, database=None)
@given(num_users=st.integers(1, 8), seed=st.integers(0, 10_000))
@example(num_users=1, seed=8870)
def test_joint_is_never_below_the_reduced_optimum(num_users, seed):
    # One-sided: the oracle's grid can miss the optimum's basin and land
    # below joint (3.4e-4 below at U=1, seed 8870), but a point of the grid
    # or of its polish above joint by more than the tolerance means joint
    # stopped short of the optimum.
    sc = generate_scenario(table2_config(num_users_U=num_users, rng_seed=seed))
    optimum, _ = reduced_optimum(sc, make_link_budget(sc.config))
    assert run_algorithm1(sc).avg_utility >= optimum - 1e-6
