"""Block-coordinate-descent driver and the benchmark schemes.

The joint scheme alternates the exact resource subproblem and the SCA
placement subproblem until the exact-rate objective stops improving.  The
benchmarks fix one block (or remove the relay) and reuse the same machinery,
so every scheme reports the same exact-rate objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkBudget
from .convex_core import (BlockCurvature, BlockJacobian, BlockStructure, ConcaveProgram,
                          solve_concave)
from .scenario import Scenario, UavPlacement
from .subproblems import (
    DecisionState, capped_fill, exact_fill_objective, make_link_budget,
    solve_p5, solve_p7, user_rate_coeffs, utility_params,
    _persp_rate, _persp_grads, _persp_curvs, _POS_SCALE,
)
from .utility import average_utility

LN2 = math.log(2.0)

SCHEMES = ("joint", "resource_only", "position_only", "relay_baseline", "no_relay")


@dataclass
class IterationRecord:
    iteration: int
    exact_objective: float
    lower_bound_objective: float
    state: DecisionState


@dataclass
class IterationTrace:
    records: list = field(default_factory=list)

    def add(self, iteration, exact, lower_bound, state):
        self.records.append(IterationRecord(iteration, float(exact),
                                            float(lower_bound), state.copy()))

    @property
    def exact_objectives(self):
        return [r.exact_objective for r in self.records]

    @property
    def lower_bound_objectives(self):
        return [r.lower_bound_objective for r in self.records]


@dataclass
class SchemeResult:
    scheme: str
    state: DecisionState
    avg_utility: float
    trace: IterationTrace
    iterations: int
    converged: bool


def initialize_state(scenario: Scenario, budget: LinkBudget | None = None) -> DecisionState:
    """Heuristic start: observation UAV at the user centroid, relay midway to
    the GBS, equal bandwidth, all powers at their budgets."""
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    q_obs = scenario.agu_pos_wu.mean(axis=0)
    q_relay = 0.5 * (q_obs + scenario.gbs_pos_wb)
    placement = UavPlacement(q_obs=q_obs, q_relay=q_relay)
    U = cfg.num_users_U
    x = np.full(U, 1.0 / U)
    p_user = np.full(U, cfg.p_max_user)
    _, r_fill = exact_fill_objective(scenario, budget, x, p_user,
                                     cfg.p_max_obs, cfg.p_max_relay, placement)
    return DecisionState(x=x, p_user=p_user, p_obs=cfg.p_max_obs,
                         p_relay=cfg.p_max_relay, placement=placement,
                         r_tilde=0.99 * r_fill)


def _exact_objective(scenario, budget, state: DecisionState) -> float:
    obj, _ = exact_fill_objective(scenario, budget, state.x, state.p_user,
                                  state.p_obs, state.p_relay, state.placement)
    return obj


def _sca_placement_descent(scenario, budget, state: DecisionState, tol, max_steps):
    """Drive the placement block: iterate the linearized step until it stalls
    or stops improving the exact objective.  Returns the updated state, the
    last linearized objective, and the number of steps taken."""
    prev = _exact_objective(scenario, budget, state)
    lb_last = prev
    steps = 0
    for _ in range(max_steps):
        p7 = solve_p7(scenario, state.x, state.p_user, state.p_obs,
                      state.p_relay, state.placement, budget)
        steps += 1
        lb_last = p7.lb_objective
        state = DecisionState(x=state.x, p_user=state.p_user, p_obs=state.p_obs,
                              p_relay=state.p_relay, placement=p7.placement,
                              r_tilde=p7.r_tilde)
        if p7.stalled or p7.exact_objective - prev < tol:
            prev = max(prev, p7.exact_objective)
            break
        prev = p7.exact_objective
    return state, lb_last, steps


def _bcd_descent(scenario, budget, state: DecisionState) -> SchemeResult:
    cfg = scenario.config
    trace = IterationTrace()
    prev_obj = _exact_objective(scenario, budget, state)
    trace.add(0, prev_obj, prev_obj, state)

    converged = False
    iterations = 0
    for it in range(1, cfg.max_bcd_iters + 1):
        state = solve_p5(scenario, state.placement, state, budget)
        state, lb_last, _ = _sca_placement_descent(
            scenario, budget, state, cfg.bcd_tol, cfg.max_bcd_iters)
        obj = _exact_objective(scenario, budget, state)
        trace.add(it, obj, lb_last, state)
        iterations = it
        if obj - prev_obj < cfg.bcd_tol:
            converged = True
            break
        prev_obj = obj

    return SchemeResult(scheme="joint", state=state, avg_utility=trace.exact_objectives[-1],
                        trace=trace, iterations=iterations, converged=converged)


def run_algorithm1(scenario: Scenario, initial_state: DecisionState | None = None) -> SchemeResult:
    """Joint placement and resource optimization by block coordinate descent.

    The starting point is left open by the iteration itself, and the SCA
    descent is path dependent, so by default two initializations are tried:
    the geometric heuristic, and the heuristic with its placement pre-refined
    at the initial resource split.  The better converged run is reported.
    An explicit initial_state suppresses the restart.
    """
    cfg = scenario.config
    budget = make_link_budget(cfg)
    if initial_state is not None:
        return _bcd_descent(scenario, budget, initial_state.copy())

    base = initialize_state(scenario, budget)
    first = _bcd_descent(scenario, budget, base)
    warmed, _, _ = _sca_placement_descent(scenario, budget, base.copy(),
                                          cfg.bcd_tol, cfg.max_bcd_iters)
    second = _bcd_descent(scenario, budget, warmed)
    return second if second.avg_utility > first.avg_utility else first


def _run_resource_only(scenario, budget, state):
    cfg = scenario.config
    trace = IterationTrace()
    prev = _exact_objective(scenario, budget, state)
    trace.add(0, prev, prev, state)
    converged = False
    iterations = 0
    for it in range(1, cfg.max_bcd_iters + 1):
        state = solve_p5(scenario, state.placement, state, budget)
        obj = _exact_objective(scenario, budget, state)
        trace.add(it, obj, obj, state)
        iterations = it
        if obj - prev < cfg.bcd_tol:
            converged = True
            break
        prev = obj
    return SchemeResult("resource_only", state, trace.exact_objectives[-1],
                        trace, iterations, converged)


def _run_position_only(scenario, budget, state):
    cfg = scenario.config
    trace = IterationTrace()
    prev = _exact_objective(scenario, budget, state)
    trace.add(0, prev, prev, state)
    converged = False
    iterations = 0
    for it in range(1, cfg.max_bcd_iters + 1):
        p7 = solve_p7(scenario, state.x, state.p_user, state.p_obs,
                      state.p_relay, state.placement, budget)
        state = DecisionState(x=state.x, p_user=state.p_user, p_obs=state.p_obs,
                              p_relay=state.p_relay, placement=p7.placement,
                              r_tilde=p7.r_tilde)
        obj = p7.exact_objective
        trace.add(it, obj, p7.lb_objective, state)
        iterations = it
        if p7.stalled or obj - prev < cfg.bcd_tol:
            converged = True
            break
        prev = obj
    return SchemeResult("position_only", state, trace.exact_objectives[-1],
                        trace, iterations, converged)


def _run_relay_baseline(scenario, budget, state):
    obj = _exact_objective(scenario, budget, state)
    _, r_fill = exact_fill_objective(scenario, budget, state.x, state.p_user,
                                     state.p_obs, state.p_relay, state.placement)
    state = DecisionState(x=state.x, p_user=state.p_user, p_obs=state.p_obs,
                          p_relay=state.p_relay, placement=state.placement,
                          r_tilde=r_fill)
    trace = IterationTrace()
    trace.add(0, obj, obj, state)
    return SchemeResult("relay_baseline", state, obj, trace, 0, True)


# --- no-relay baseline: observation UAV talks straight to the GBS ---------

def _no_relay_fill(scenario, budget, x, p_user, p_obs, q_obs):
    """Best utility with the observation UAV transmitting straight to the GBS."""
    cfg = scenario.config
    A = user_rate_coeffs(scenario, budget, q_obs)
    caps = (1.0 - cfg.outage_target_rho) * _persp_rate(x, A * p_user)
    d2 = (cfg.height_gbs_Hb - cfg.height_obs_Ho) ** 2 \
        + float(np.sum((scenario.gbs_pos_wb - q_obs) ** 2))
    r_direct = math.log1p(p_obs * budget.mu0 / d2) / LN2
    r = capped_fill(caps, r_direct)
    return average_utility(r, utility_params(cfg)), r, r_direct


def _no_relay_resource_program(scenario, budget, q_obs, r_direct):
    cfg = scenario.config
    U = cfg.num_users_U
    one_m_rho = 1.0 - cfg.outage_target_rho
    A = user_rate_coeffs(scenario, budget, q_obs)
    p_user = np.full(U, cfg.p_max_user)
    theta_over_U = cfg.utility_theta / U
    n = 2 * U
    sx, sr = slice(0, U), slice(U, 2 * U)

    def objective(v):
        return theta_over_U * float(np.sum(np.log(cfg.utility_beta * v[sr]
                                                  / cfg.playback_rate_rbar)))

    def gradient(v):
        g = np.zeros(n)
        g[sr] = theta_over_U / v[sr]
        return g

    def constraints(v):
        g = np.empty(U + 2)
        g[:U] = one_m_rho * _persp_rate(v[sx], A * p_user) - v[sr]
        g[U] = 1.0 - v[sx].sum()
        g[U + 1] = r_direct - v[sr].sum()
        return g

    # Local rows: user u's cap touches (x_u, r_u); coupling rows: the
    # bandwidth sum and the direct link against sum r.
    idx = np.arange(U)
    structure = BlockStructure(n, np.column_stack([idx, U + idx]))
    coupling = np.zeros((2, n))
    coupling[0, sx] = -1.0
    coupling[1, sr] = -1.0

    def constraint_jac(v):
        dx, _ = _persp_grads(v[sx], A, p_user)
        local = np.empty((U, 2))
        local[:, 0] = one_m_rho * dx
        local[:, 1] = -1.0
        return BlockJacobian(structure, local, coupling)

    def curvature(v, w):
        rxx, _, _ = _persp_curvs(v[sx], A, p_user)
        diag = np.empty(n)
        diag[sx] = w[:U] * one_m_rho * rxx
        diag[sr] = -theta_over_U / v[sr] ** 2
        return BlockCurvature(structure, diag)

    r_hi = one_m_rho * _persp_rate(np.ones(U), A * cfg.p_max_user) + 1.0
    return ConcaveProgram(n=n, objective=objective, gradient=gradient,
                          constraints=constraints, constraint_jac=constraint_jac,
                          lower=np.zeros(n),
                          upper=np.concatenate([np.ones(U), r_hi]),
                          curvature=curvature, name="no_relay_resource",
                          structure=structure)


def _no_relay_position_program(scenario, budget, x, p_obs, q_obs_i):
    """SCA step for the direct-link scheme: variables (q_obs, r_tilde)."""
    cfg = scenario.config
    U = cfg.num_users_U
    one_m_rho = 1.0 - cfg.outage_target_rho
    S2 = _POS_SCALE * _POS_SCALE
    w_users = scenario.agu_pos_wu / _POS_SCALE
    w_gbs = scenario.gbs_pos_wb / _POS_SCALE
    theta_over_U = cfg.utility_theta / U

    # User-link Taylor constants at q_obs_i (same shape as the relay scheme).
    dist2_user = np.sum((scenario.agu_pos_wu - q_obs_i) ** 2, axis=1)
    den_u = cfg.height_obs_Ho ** 2 + dist2_user
    p_user = np.full(U, cfg.p_max_user)
    mu_u = budget.inv_cdf_at_rho * p_user * budget.mu0 / x
    c_user = np.log1p(mu_u / den_u) / LN2
    d_user = mu_u / (den_u * (den_u + mu_u) * LN2)

    dist2_dir = float(np.sum((q_obs_i - scenario.gbs_pos_wb) ** 2))
    den_d = (cfg.height_gbs_Hb - cfg.height_obs_Ho) ** 2 + dist2_dir
    mu_d = p_obs * budget.mu0
    c_dir = math.log1p(mu_d / den_d) / LN2
    d_dir = mu_d / (den_d * (den_d + mu_d) * LN2)

    ku = one_m_rho * x * d_user * S2
    base_u = one_m_rho * x * (c_user + d_user * dist2_user)
    kd = d_dir * S2
    base_d = c_dir + d_dir * dist2_dir

    n = 2 + U
    sq, sr = slice(0, 2), slice(2, 2 + U)

    def objective(v):
        return theta_over_U * float(np.sum(np.log(cfg.utility_beta * v[sr]
                                                  / cfg.playback_rate_rbar)))

    def gradient(v):
        g = np.zeros(n)
        g[sr] = theta_over_U / v[sr]
        return g

    def constraints(v):
        qo = v[sq]
        g = np.empty(U + 1)
        g[:U] = base_u - ku * np.sum((qo - w_users) ** 2, axis=1) - v[sr]
        g[U] = base_d - kd * float(np.sum((qo - w_gbs) ** 2)) - v[sr].sum()
        return g

    # Local rows: user u's link touches the observation UAV (the border) and
    # r_u; the one coupling row is the direct link against sum r.
    structure = BlockStructure(n, np.arange(2, n), border=np.arange(2))
    local = np.full((U, 1), -1.0)

    def constraint_jac(v):
        qo = v[sq]
        coupling = np.empty((1, n))
        coupling[0, sq] = -2.0 * kd * (qo - w_gbs)
        coupling[0, sr] = -1.0
        return BlockJacobian(structure, local, coupling, -2.0 * ku[:, None] * (qo - w_users))

    def curvature(v, w):
        diag = np.zeros(n)
        diag[sr] = -theta_over_U / v[sr] ** 2
        couple = float(np.sum(w[:U] * ku)) + w[U] * kd
        return BlockCurvature(structure, diag, border=-2.0 * couple * np.eye(2))

    extent = 4.0 * max(cfg.network_size_D, cfg.area_side) / _POS_SCALE
    r_hi = base_u + 1.0
    lower = np.concatenate([np.full(2, -extent), np.zeros(U)])
    upper = np.concatenate([np.full(2, extent), r_hi])
    return ConcaveProgram(n=n, objective=objective, gradient=gradient,
                          constraints=constraints, constraint_jac=constraint_jac,
                          lower=lower, upper=upper, curvature=curvature,
                          name="no_relay_position", structure=structure)


def _run_no_relay(scenario, budget, state):
    cfg = scenario.config
    U = cfg.num_users_U
    x = state.x.copy()
    p_user = np.full(U, cfg.p_max_user)
    p_obs = cfg.p_max_obs
    q_obs = state.placement.q_obs.copy()

    trace = IterationTrace()
    prev, r_fill, _ = _no_relay_fill(scenario, budget, x, p_user, p_obs, q_obs)
    state = DecisionState(x=x, p_user=p_user, p_obs=p_obs, p_relay=state.p_relay,
                          placement=UavPlacement(q_obs, state.placement.q_relay),
                          r_tilde=r_fill)
    trace.add(0, prev, prev, state)
    converged = False
    iterations = 0
    for it in range(1, cfg.max_bcd_iters + 1):
        # resource block: bandwidth + rates at fixed q_obs
        _, _, r_direct = _no_relay_fill(scenario, budget, x, p_user, p_obs, q_obs)
        prog = _no_relay_resource_program(scenario, budget, q_obs, r_direct)
        A = user_rate_coeffs(scenario, budget, q_obs)
        one_m_rho = 1.0 - cfg.outage_target_rho
        x0 = np.maximum(x, 1e-6 / U)
        x0 = x0 * (1.0 - 1e-6) / max(x0.sum(), 1.0 - 1e-6)
        caps0 = one_m_rho * _persp_rate(x0, A * p_user)
        r0 = 0.9 * capped_fill(caps0, r_direct)
        rep = solve_concave(prog, start=np.concatenate([x0, r0]), tol=cfg.sca_tol)
        if rep.status != "infeasible":
            x_new = np.clip(rep.solution[:U], 1e-12, 1.0)
            x_new = x_new / x_new.sum()
            obj_new, _, _ = _no_relay_fill(scenario, budget, x_new, p_user, p_obs, q_obs)
            obj_old, _, _ = _no_relay_fill(scenario, budget, x, p_user, p_obs, q_obs)
            if obj_new >= obj_old:
                x = x_new

        # position block: SCA move of q_obs
        prog = _no_relay_position_program(scenario, budget, x, p_obs, q_obs)
        obj_here, r_here, r_direct = _no_relay_fill(scenario, budget, x, p_user, p_obs, q_obs)
        caps_i = one_m_rho * _persp_rate(x, A * p_user)
        r0 = 0.9 * capped_fill(caps_i, r_direct)
        v0 = np.concatenate([q_obs / _POS_SCALE, r0])
        rep = solve_concave(prog, start=v0, tol=cfg.sca_tol)
        lb_obj = obj_here
        if rep.status != "infeasible":
            q_new = rep.solution[0:2] * _POS_SCALE
            obj_new, _, _ = _no_relay_fill(scenario, budget, x, p_user, p_obs, q_new)
            if obj_new >= obj_here:
                q_obs = q_new
                lb_obj = rep.objective

        obj, r_fill, _ = _no_relay_fill(scenario, budget, x, p_user, p_obs, q_obs)
        state = DecisionState(x=x, p_user=p_user, p_obs=p_obs, p_relay=state.p_relay,
                              placement=UavPlacement(q_obs, state.placement.q_relay),
                              r_tilde=r_fill)
        trace.add(it, obj, lb_obj, state)
        iterations = it
        if obj - prev < cfg.bcd_tol:
            converged = True
            break
        prev = obj
    return SchemeResult("no_relay", state, trace.exact_objectives[-1],
                        trace, iterations, converged)


def run_benchmark(scenario: Scenario, scheme_id: str,
                  initial_state: DecisionState | None = None) -> SchemeResult:
    """Run one scheme; 'joint' dispatches to the full BCD algorithm."""
    if scheme_id not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme_id!r}, expected one of {SCHEMES}")
    if scheme_id == "joint":
        return run_algorithm1(scenario, initial_state)
    budget = make_link_budget(scenario.config)
    state = initial_state.copy() if initial_state is not None else initialize_state(scenario, budget)
    if scheme_id == "resource_only":
        return _run_resource_only(scenario, budget, state)
    if scheme_id == "position_only":
        return _run_position_only(scenario, budget, state)
    if scheme_id == "relay_baseline":
        return _run_relay_baseline(scenario, budget, state)
    return _run_no_relay(scenario, budget, state)
