"""A brute-force oracle for joint's optimum, independent of its solver.

With the observation UAV fixed at q_obs, the relay only sets the backhaul
cap, and the best relay lies on the segment from q_obs to the GBS where the
two hop rates are equal (found here by brentq).  P5 at that placement is
convex and solve_p5 solves it, so J*(q_obs) is exact and the joint optimum
is the maximum of J* over the plane.  The oracle takes the best point of a
grid over the box of the users and the GBS, then polishes it by
Nelder-Mead.

The grid is searched best-first under an upper bound on J*, so only the
points that could beat the best value found are solved; the answer is the
one a full scan gives.  Two bounds hold at every q_obs: the backhaul bound
theta ln(beta C / (U rbar)), from sum r <= C and the concavity of ln, and
the users' bound from the tangents of the concave ln cap_u(x_u) at the equal
split.
"""

import math

import numpy as np
from scipy.optimize import brentq, minimize

from uavstream.orchestrator import initialize_state
from uavstream.scenario import UavPlacement
from uavstream.subproblems import InfeasibleProblem, exact_fill_objective, solve_p5

LN2 = math.log(2.0)


def _hop_excess(cfg, span2, t):
    """p_obs d_rb^2 - p_relay d_or^2 with the relay a fraction t of the way
    from the observation UAV to the GBS: positive where the observation hop
    is the stronger.  span2 is the squared horizontal distance to the GBS."""
    d_or2 = (cfg.height_relay_Hr - cfg.height_obs_Ho) ** 2 + t * t * span2
    d_rb2 = (cfg.height_gbs_Hb - cfg.height_relay_Hr) ** 2 + (1.0 - t) ** 2 * span2
    return cfg.p_max_obs * d_rb2 - cfg.p_max_relay * d_or2


def oracle_placement(scenario, q_obs):
    """The placement with the relay at the equal-hop point of the segment
    from q_obs to the GBS, or at the end favouring the weaker hop."""
    cfg = scenario.config
    q_obs = np.asarray(q_obs, dtype=float)
    span = scenario.gbs_pos_wb - q_obs
    span2 = float(span @ span)
    if _hop_excess(cfg, span2, 0.0) <= 0.0:
        t = 0.0
    elif _hop_excess(cfg, span2, 1.0) >= 0.0:
        t = 1.0
    else:
        t = brentq(lambda t: _hop_excess(cfg, span2, t), 0.0, 1.0, xtol=1e-15, rtol=1e-15)
    return UavPlacement(q_obs, q_obs + t * span)


def oracle_value(scenario, budget, q_obs, start):
    """J*(q_obs), or -inf where a hop has zero length; start is solve_p5's
    fallback split."""
    placement = oracle_placement(scenario, q_obs)
    try:
        state = solve_p5(scenario, placement, start, budget)
    except InfeasibleProblem:
        return -math.inf
    cfg = scenario.config
    return exact_fill_objective(scenario, budget, state.x, state.p_user, cfg.p_max_obs,
                                cfg.p_max_relay, placement)[0]


def _upper_bounds(scenario, budget, points):
    """An upper bound on J* at each row of points."""
    cfg = scenario.config
    U = cfg.num_users_U
    theta = cfg.utility_theta
    # The backhaul cap is at most either hop's rate at the ends of a bracket
    # of the equal-hop fraction: bisect every point's bracket at once.
    span2 = np.sum((scenario.gbs_pos_wb - points) ** 2, axis=1)
    lo, hi = np.zeros(len(points)), np.ones(len(points))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = _hop_excess(cfg, span2, mid) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    d_or2 = (cfg.height_relay_Hr - cfg.height_obs_Ho) ** 2 + lo * lo * span2
    d_rb2 = (cfg.height_gbs_Hb - cfg.height_relay_Hr) ** 2 + (1.0 - hi) ** 2 * span2
    with np.errstate(divide="ignore"):
        cap = np.minimum(np.log1p(cfg.p_max_obs * budget.mu0 / d_or2),
                         np.log1p(cfg.p_max_relay * budget.mu0 / d_rb2)) / LN2
    backhaul = theta * np.log(cfg.utility_beta * cap / (U * cfg.playback_rate_rbar))
    # ln cap_u is concave in x_u, so it lies below its tangent at x_u = 1/U,
    # whose slope is e_u = cap_u'/cap_u; over sum x = 1 the tangents sum to at
    # most sum ln cap_u(1/U) + max e - mean e.
    d2 = cfg.height_obs_Ho ** 2 + np.sum(
        (points[:, None, :] - scenario.agu_pos_wu[None, :, :]) ** 2, axis=2)
    s = budget.inv_cdf_at_rho * budget.mu0 * cfg.p_max_user * U / d2     # c_u / x_u
    log_term = np.log1p(s)
    cap = (1.0 - cfg.outage_target_rho) * log_term / (U * LN2)
    e = U * (1.0 - s / ((1.0 + s) * log_term))
    users = theta * (np.mean(np.log(cfg.utility_beta * cap / cfg.playback_rate_rbar), axis=1)
                     + (e.max(axis=1) - e.mean(axis=1)) / U)
    return np.minimum(backhaul, users)


def reduced_optimum(scenario, budget, spacing=25.0):
    """(J*, q_obs) at the oracle's optimum: the best point of a grid of the
    given spacing over the box of the users and the GBS, then Nelder-Mead."""
    nodes = np.vstack([scenario.agu_pos_wu, scenario.gbs_pos_wb])
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    axes = [np.arange(a, b + spacing, spacing) for a, b in zip(lo, hi)]
    points = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 2)
    bounds = _upper_bounds(scenario, budget, points)
    start = initialize_state(scenario, budget)
    best, q_best = -math.inf, None
    for k in np.argsort(-bounds):
        if bounds[k] <= best:
            break
        value = oracle_value(scenario, budget, points[k], start)
        if value > best:
            best, q_best = value, points[k]
    simplex = q_best + np.array([[0.0, 0.0], [spacing, 0.0], [0.0, spacing]])
    polish = minimize(lambda q: -oracle_value(scenario, budget, q, start), q_best,
                      method="Nelder-Mead",
                      options={"initial_simplex": simplex, "xatol": 1e-4, "fatol": 1e-13,
                               "maxiter": 2000})
    if -polish.fun > best:
        return -polish.fun, polish.x
    return best, q_best
