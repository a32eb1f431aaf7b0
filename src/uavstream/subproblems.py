"""Convex subproblem builders: resource allocation (fixed UAVs) and SCA placement.

The resource step optimizes bandwidth shares, transmit powers, and effective
rates with the UAVs pinned; the placement step moves both UAVs against
first-order concave lower bounds on the three link rates, expanded at the
current placement.  Both reduce to ConcaveProgram instances for the barrier
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import LinkBudget, rician_cdf_inverse, rate_relay, rate_gbs
from .convex_core import (BlockCurvature, BlockJacobian, BlockStructure, ConcaveProgram,
                          solve_concave)
from .scenario import Scenario, SystemConfig, UavPlacement
from .utility import UtilityParams, average_utility

LN2 = math.log(2.0)
_POS_SCALE = 1000.0      # metres per solver position unit


class InfeasibleProblem(RuntimeError):
    """No strictly positive rate allocation exists for the instance."""


@lru_cache(maxsize=32)
def _cached_inverse_cdf(rho: float, K: float, tol: float) -> float:
    return rician_cdf_inverse(rho, K, tol)


def make_link_budget(config: SystemConfig, tol: float = 1e-10) -> LinkBudget:
    """LinkBudget for a config; the CDF inversion is cached across calls."""
    return LinkBudget(mu0=config.mu0,
                      inv_cdf_at_rho=_cached_inverse_cdf(
                          config.outage_target_rho, config.rician_K, tol))


def utility_params(config: SystemConfig) -> UtilityParams:
    return UtilityParams(theta=config.utility_theta, beta=config.utility_beta,
                         rbar=config.playback_rate_rbar)


@dataclass
class DecisionState:
    """One point of the joint optimization: resources, placement, rates."""

    x: np.ndarray            # U bandwidth fractions
    p_user: np.ndarray       # U user powers (W)
    p_obs: float
    p_relay: float
    placement: UavPlacement
    r_tilde: np.ndarray      # U effective rates (b/s/Hz)

    def copy(self) -> "DecisionState":
        return DecisionState(x=self.x.copy(), p_user=self.p_user.copy(),
                             p_obs=self.p_obs, p_relay=self.p_relay,
                             placement=self.placement, r_tilde=self.r_tilde.copy())

    def validate(self, scenario: Scenario, budget: LinkBudget, tol: float = 1e-9):
        cfg = scenario.config
        if np.any(self.x < -tol) or self.x.sum() > 1.0 + tol:
            raise ValueError(f"bandwidth shares invalid: sum={self.x.sum()}")
        if np.any(self.p_user < -tol) or np.any(self.p_user > cfg.p_max_user + tol):
            raise ValueError("user power outside budget")
        if not (-tol <= self.p_obs <= cfg.p_max_obs + tol):
            raise ValueError("observation UAV power outside budget")
        if not (-tol <= self.p_relay <= cfg.p_max_relay + tol):
            raise ValueError("relay UAV power outside budget")
        if np.any(self.r_tilde < -tol):
            raise ValueError("negative effective rate")
        caps, link_cap = rate_caps(scenario, budget, self.x, self.p_user,
                                   self.p_obs, self.p_relay, self.placement)
        if np.any(self.r_tilde > caps + tol):
            raise ValueError("effective rate exceeds outage-constrained user rate")
        total = self.r_tilde.sum()
        if total > link_cap + tol:
            raise ValueError("total effective rate exceeds a backhaul link rate")


# --- stable perspective-rate helpers -------------------------------------

def _persp_rate(x, c):
    """Vectorized x * log2(1 + c/x) for x > 0, c >= 0, safe for huge c/x."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        s = np.where(c > 0, c / x, 0.0)
    out = np.empty(np.broadcast(x, c).shape)
    big = ~np.isfinite(s) | (s > 1e280)
    ok = ~big
    out[ok] = (x * np.log1p(np.where(big, 0.0, s)))[ok] / LN2
    if np.any(big):
        xb = np.broadcast_to(x, out.shape)[big]
        cb = np.broadcast_to(c, out.shape)[big]
        out[big] = xb * (np.log(cb) - np.log(xb)) / LN2
    return out


def _persp_grads(x, c_coeff, p):
    """Gradients of R(x, p) = x*log2(1 + c_coeff*p/x) w.r.t. x and p."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    c = c_coeff * p
    with np.errstate(over="ignore", divide="ignore"):
        s = np.where(c > 0, c / x, 0.0)
    big = ~np.isfinite(s) | (s > 1e280)
    log_term = np.where(big, np.log(np.where(big, c, 1.0)) - np.log(x), np.log1p(np.where(big, 0.0, s)))
    frac = np.where(big, 1.0, s / (1.0 + s))
    dx = (log_term - frac) / LN2
    dp = c_coeff / ((1.0 + np.where(big, np.inf, s)) * LN2)
    dp = np.where(big, 0.0, dp)
    return dx, dp


def _persp_curvs(x, c_coeff, p):
    """Second derivatives (Rxx, Rpp, Rxp) of the perspective rate."""
    c = c_coeff * p
    with np.errstate(over="ignore", divide="ignore"):
        s = np.where(c > 0, c / x, 0.0)
    big = ~np.isfinite(s) | (s > 1e280)
    s = np.where(big, 1e280, s)
    denom = x * (1.0 + s) ** 2 * LN2
    rxx = -(s * s) / denom
    rpp = -(c_coeff * c_coeff) / denom
    rxp = (c_coeff * s) / denom
    return rxx, rpp, rxp


# --- exact rates and the inner rate-fill ----------------------------------

def user_rate_coeffs(scenario: Scenario, budget: LinkBudget, q_obs):
    """Per-user constants A_u with R_u = x*log2(1 + A_u*P_u/x) at this q_obs."""
    cfg = scenario.config
    d2 = cfg.height_obs_Ho ** 2 + np.sum((scenario.agu_pos_wu - q_obs) ** 2, axis=1)
    return budget.inv_cdf_at_rho * budget.mu0 / d2


def rate_caps(scenario, budget, x, p_user, p_obs, p_relay, placement):
    """Per-user effective-rate caps (1-rho)*R_u and the tighter backhaul cap."""
    cfg = scenario.config
    A = user_rate_coeffs(scenario, budget, placement.q_obs)
    caps = (1.0 - cfg.outage_target_rho) * _persp_rate(x, A * p_user)
    r_rel = rate_relay(p_obs, placement.q_obs, placement.q_relay, budget.mu0,
                       cfg.height_obs_Ho, cfg.height_relay_Hr)
    r_gbs = rate_gbs(p_relay, placement.q_relay, scenario.gbs_pos_wb, budget.mu0,
                     cfg.height_relay_Hr, cfg.height_gbs_Hb)
    return caps, min(r_rel, r_gbs)


def capped_fill(caps: np.ndarray, total: float) -> np.ndarray:
    """Maximize sum(ln r) subject to r <= caps elementwise and sum(r) <= total.

    Water-filling with per-user ceilings: users below the common level keep
    their cap, the rest share the remainder equally.
    """
    caps = np.asarray(caps, dtype=float)
    if np.any(caps <= 0) or total <= 0:
        raise InfeasibleProblem("no positive rate available for some user")
    if caps.sum() <= total:
        return caps.copy()
    order = np.argsort(caps)
    sorted_caps = caps[order]
    U = len(caps)
    prefix = 0.0
    for k in range(U):
        level = (total - prefix) / (U - k)
        if level <= sorted_caps[k]:
            return np.minimum(caps, level)
        prefix += sorted_caps[k]
    return caps.copy()   # unreachable: caps.sum() > total was checked


def exact_fill_objective(scenario, budget, x, p_user, p_obs, p_relay, placement):
    """Best average utility attainable at fixed resources and placement.

    Returns (objective, r_tilde) with r_tilde the rate fill against the exact
    outage-constrained user caps and backhaul caps.
    """
    caps, link_cap = rate_caps(scenario, budget, x, p_user, p_obs, p_relay, placement)
    r = capped_fill(caps, link_cap)
    return average_utility(r, utility_params(scenario.config)), r


# --- P5: bandwidth and power with fixed UAV positions ---------------------

def _p5_program(scenario, budget, placement):
    cfg = scenario.config
    U = cfg.num_users_U
    one_m_rho = 1.0 - cfg.outage_target_rho
    A = user_rate_coeffs(scenario, budget, placement.q_obs)
    d2_or = (cfg.height_relay_Hr - cfg.height_obs_Ho) ** 2 \
        + float(np.sum((placement.q_relay - placement.q_obs) ** 2))
    d2_rb = (cfg.height_gbs_Hb - cfg.height_relay_Hr) ** 2 \
        + float(np.sum((scenario.gbs_pos_wb - placement.q_relay) ** 2))
    if d2_or == 0.0 or d2_rb == 0.0:
        raise InfeasibleProblem("degenerate zero-distance backhaul link")
    b_or = budget.mu0 / d2_or
    b_rb = budget.mu0 / d2_rb
    theta_over_U = cfg.utility_theta / U

    sx = slice(0, U)
    sp = slice(U, 2 * U)
    i_po, i_pr = 2 * U, 2 * U + 1
    sr = slice(2 * U + 2, 3 * U + 2)
    n = 3 * U + 2

    def objective(v):
        return theta_over_U * float(np.sum(np.log(cfg.utility_beta * v[sr]
                                                  / cfg.playback_rate_rbar)))

    def gradient(v):
        g = np.zeros(n)
        g[sr] = theta_over_U / v[sr]
        return g

    def constraints(v):
        x, p, rt = v[sx], v[sp], v[sr]
        g = np.empty(U + 3)
        g[:U] = one_m_rho * _persp_rate(x, A * p) - rt
        g[U] = 1.0 - x.sum()
        total = rt.sum()
        g[U + 1] = math.log1p(b_or * v[i_po]) / LN2 - total
        g[U + 2] = math.log1p(b_rb * v[i_pr]) / LN2 - total
        return g

    # Local rows: user u's cap touches (x_u, p_u, r_u).  Coupling rows: the
    # bandwidth sum and the two backhaul links (p_obs, p_relay against sum r).
    idx = np.arange(U)
    structure = BlockStructure(n, np.column_stack([idx, U + idx, 2 * U + 2 + idx]))
    coupling0 = np.zeros((3, n))
    coupling0[0, sx] = -1.0
    coupling0[1:, sr] = -1.0

    def constraint_jac(v):
        dx, dp = _persp_grads(v[sx], A, v[sp])
        local = np.empty((U, 3))
        local[:, 0] = one_m_rho * dx
        local[:, 1] = one_m_rho * dp
        local[:, 2] = -1.0
        coupling = coupling0.copy()
        coupling[1, i_po] = b_or / ((1.0 + b_or * v[i_po]) * LN2)
        coupling[2, i_pr] = b_rb / ((1.0 + b_rb * v[i_pr]) * LN2)
        return BlockJacobian(structure, local, coupling)

    def curvature(v, w):
        rxx, rpp, rxp = _persp_curvs(v[sx], A, v[sp])
        wu = w[:U] * one_m_rho
        diag = np.empty(n)
        diag[sx] = wu * rxx
        diag[sp] = wu * rpp
        diag[i_po] = w[U + 1] * (-(b_or**2) / ((1.0 + b_or * v[i_po]) ** 2 * LN2))
        diag[i_pr] = w[U + 2] * (-(b_rb**2) / ((1.0 + b_rb * v[i_pr]) ** 2 * LN2))
        diag[sr] = -theta_over_U / v[sr] ** 2
        blocks = np.zeros((U, 3, 3))
        blocks[:, 0, 1] = blocks[:, 1, 0] = wu * rxp
        return BlockCurvature(structure, diag, blocks)

    r_hi = one_m_rho * _persp_rate(np.ones(U), A * cfg.p_max_user) + 1.0
    lower = np.zeros(n)
    upper = np.concatenate([np.ones(U), np.full(U, cfg.p_max_user),
                            [cfg.p_max_obs, cfg.p_max_relay], r_hi])
    return ConcaveProgram(n=n, objective=objective, gradient=gradient,
                          constraints=constraints, constraint_jac=constraint_jac,
                          lower=lower, upper=upper, curvature=curvature, name="p5",
                          structure=structure)


def _p5_start_vector(scenario, budget, placement, start: DecisionState):
    cfg = scenario.config
    U = cfg.num_users_U
    x0 = np.maximum(start.x, 1e-6 / U)
    if x0.sum() > 1.0 - 1e-6:
        x0 = x0 * (1.0 - 1e-6) / x0.sum()
    p0 = np.clip(start.p_user, 1e-3 * cfg.p_max_user, (1.0 - 1e-3) * cfg.p_max_user)
    po0 = min(max(start.p_obs, 1e-3 * cfg.p_max_obs), (1.0 - 1e-3) * cfg.p_max_obs)
    pr0 = min(max(start.p_relay, 1e-3 * cfg.p_max_relay), (1.0 - 1e-3) * cfg.p_max_relay)
    caps, link_cap = rate_caps(scenario, budget, x0, p0, po0, pr0, placement)
    r0 = 0.9 * capped_fill(caps, link_cap)
    return np.concatenate([x0, p0, [po0, pr0], r0])


def solve_p5(scenario: Scenario, placement: UavPlacement,
             start: DecisionState, budget: LinkBudget | None = None) -> DecisionState:
    """Optimal bandwidth shares and transmit powers for pinned UAV positions.

    The returned powers sit exactly at their budgets: the objective and every
    constraint are non-decreasing in each power, so pushing the barrier
    solution onto the power bounds loses nothing.  Effective rates are then
    re-filled against the exact rate caps.
    """
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    program = _p5_program(scenario, budget, placement)
    v0 = _p5_start_vector(scenario, budget, placement, start)
    report = solve_concave(program, start=v0, tol=cfg.sca_tol)
    if report.status == "infeasible":
        raise InfeasibleProblem("resource subproblem has no interior point")

    # Objective and caps are non-decreasing in every share, so the whole
    # bandwidth can always be handed out: rescale the split onto sum(x) = 1.
    U = cfg.num_users_U
    x_opt = np.clip(report.solution[:U], 1e-12, 1.0)
    x_opt = x_opt / x_opt.sum()
    p_user = np.full(U, cfg.p_max_user)
    obj, r_fill = exact_fill_objective(scenario, budget, x_opt, p_user,
                                       cfg.p_max_obs, cfg.p_max_relay, placement)

    # Fall back to the start's bandwidth split if the solve regressed.
    obj_start, r_start = exact_fill_objective(
        scenario, budget, start.x, p_user, cfg.p_max_obs, cfg.p_max_relay, placement)
    if obj_start > obj:
        x_opt, r_fill = start.x.copy(), r_start
    return DecisionState(x=x_opt, p_user=p_user, p_obs=cfg.p_max_obs,
                         p_relay=cfg.p_max_relay, placement=placement, r_tilde=r_fill)


# --- SCA linearization of the placement problem ----------------------------

@dataclass(frozen=True)
class SCACoefficients:
    """Taylor constants of the three link rates at an expansion placement.

    c_* equal the exact rates (per unit bandwidth for the user link) at the
    expansion point; d_* are the slopes against squared horizontal distance.
    """

    c_user: np.ndarray
    d_user: np.ndarray
    c_relay: float
    d_relay: float
    c_gbs: float
    d_gbs: float
    expansion: UavPlacement
    dist2_user: np.ndarray
    dist2_relay: float
    dist2_gbs: float


def sca_coefficients(scenario: Scenario, x, p_user, p_obs, p_relay,
                     expansion: UavPlacement,
                     budget: LinkBudget | None = None) -> SCACoefficients:
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    x = np.asarray(x, dtype=float)
    p_user = np.asarray(p_user, dtype=float)
    if np.any(x <= 0):
        raise ValueError("SCA expansion requires strictly positive bandwidth shares")

    dist2_user = np.sum((scenario.agu_pos_wu - expansion.q_obs) ** 2, axis=1)
    den_u = cfg.height_obs_Ho ** 2 + dist2_user
    mu_u = budget.inv_cdf_at_rho * p_user * budget.mu0 / x
    c_user = np.log1p(mu_u / den_u) / LN2
    d_user = mu_u / (den_u * (den_u + mu_u) * LN2)

    dist2_relay = float(np.sum((expansion.q_relay - expansion.q_obs) ** 2))
    den_o = (cfg.height_relay_Hr - cfg.height_obs_Ho) ** 2 + dist2_relay
    if den_o == 0.0:
        raise ValueError("cannot expand around coincident observation/relay UAVs")
    mu_ob = p_obs * budget.mu0
    c_relay = math.log1p(mu_ob / den_o) / LN2
    d_relay = mu_ob / (den_o * (den_o + mu_ob) * LN2)

    dist2_gbs = float(np.sum((expansion.q_relay - scenario.gbs_pos_wb) ** 2))
    den_r = (cfg.height_gbs_Hb - cfg.height_relay_Hr) ** 2 + dist2_gbs
    if den_r == 0.0:
        raise ValueError("cannot expand around a relay UAV at the ground BS")
    mu_r = p_relay * budget.mu0
    c_gbs = math.log1p(mu_r / den_r) / LN2
    d_gbs = mu_r / (den_r * (den_r + mu_r) * LN2)

    return SCACoefficients(c_user=c_user, d_user=d_user,
                           c_relay=c_relay, d_relay=float(d_relay),
                           c_gbs=c_gbs, d_gbs=float(d_gbs),
                           expansion=expansion, dist2_user=dist2_user,
                           dist2_relay=dist2_relay, dist2_gbs=dist2_gbs)


def lower_bound_rates(coeffs: SCACoefficients, placement: UavPlacement,
                      scenario: Scenario, x):
    """Concave global lower bounds on the three link rates at a placement.

    Tight (equal to the exact rates) when placement equals the expansion
    point; never above the exact rates elsewhere because each rate is convex
    in its squared horizontal distance.
    """
    x = np.asarray(x, dtype=float)
    y_user = np.sum((scenario.agu_pos_wu - placement.q_obs) ** 2, axis=1)
    r_user = x * (coeffs.c_user - coeffs.d_user * (y_user - coeffs.dist2_user))
    y_rel = float(np.sum((placement.q_relay - placement.q_obs) ** 2))
    r_rel = coeffs.c_relay - coeffs.d_relay * (y_rel - coeffs.dist2_relay)
    y_gbs = float(np.sum((placement.q_relay - scenario.gbs_pos_wb) ** 2))
    r_gbs = coeffs.c_gbs - coeffs.d_gbs * (y_gbs - coeffs.dist2_gbs)
    return r_user, r_rel, r_gbs


@dataclass
class P7Result:
    placement: UavPlacement
    r_tilde: np.ndarray
    stalled: bool
    lb_objective: float
    exact_objective: float


def _p7_program(scenario, coeffs, x):
    cfg = scenario.config
    U = cfg.num_users_U
    one_m_rho = 1.0 - cfg.outage_target_rho
    S2 = _POS_SCALE * _POS_SCALE
    w_users = scenario.agu_pos_wu / _POS_SCALE          # (U, 2)
    w_gbs = scenario.gbs_pos_wb / _POS_SCALE
    theta_over_U = cfg.utility_theta / U
    n = U + 4
    so = slice(0, 2)
    sr_pos = slice(2, 4)
    srt = slice(4, 4 + U)

    ku = one_m_rho * x * coeffs.d_user * S2              # quadratic weights
    base_u = one_m_rho * x * (coeffs.c_user + coeffs.d_user * coeffs.dist2_user)
    ko = coeffs.d_relay * S2
    base_o = coeffs.c_relay + coeffs.d_relay * coeffs.dist2_relay
    kg = coeffs.d_gbs * S2
    base_g = coeffs.c_gbs + coeffs.d_gbs * coeffs.dist2_gbs

    def objective(v):
        return theta_over_U * float(np.sum(np.log(cfg.utility_beta * v[srt]
                                                  / cfg.playback_rate_rbar)))

    def gradient(v):
        g = np.zeros(n)
        g[srt] = theta_over_U / v[srt]
        return g

    def constraints(v):
        qo, qr, rt = v[so], v[sr_pos], v[srt]
        g = np.empty(U + 2)
        g[:U] = base_u - ku * np.sum((qo - w_users) ** 2, axis=1) - rt
        total = rt.sum()
        g[U] = base_o - ko * float(np.sum((qr - qo) ** 2)) - total
        g[U + 1] = base_g - kg * float(np.sum((qr - w_gbs) ** 2)) - total
        return g

    # Local rows: user u's link touches the observation UAV (the border) and
    # r_u.  Coupling rows: the two backhaul links against sum r.
    structure = BlockStructure(n, np.arange(4, n), border=np.arange(4))
    local = np.full((U, 1), -1.0)

    def constraint_jac(v):
        qo, qr = v[so], v[sr_pos]
        border = np.zeros((U, 4))
        border[:, 0:2] = -2.0 * ku[:, None] * (qo - w_users)
        coupling = np.empty((2, n))
        diff_o = 2.0 * ko * (qr - qo)
        coupling[0, 0:2] = diff_o
        coupling[0, 2:4] = -diff_o
        coupling[1, 0:2] = 0.0
        coupling[1, 2:4] = -2.0 * kg * (qr - w_gbs)
        coupling[:, srt] = -1.0
        return BlockJacobian(structure, local, coupling, border)

    def curvature(v, w):
        diag = np.zeros(n)
        diag[srt] = -theta_over_U / v[srt] ** 2
        wu = 2.0 * float(np.sum(w[:U] * ku))
        wo = 2.0 * w[U] * ko
        wg = 2.0 * w[U + 1] * kg
        H = np.diag([-wu - wo, -wu - wo, -wo - wg, -wo - wg])
        H[[0, 1, 2, 3], [2, 3, 0, 1]] = wo
        return BlockCurvature(structure, diag, border=H)

    extent = 4.0 * max(cfg.network_size_D, cfg.area_side) / _POS_SCALE
    r_hi = base_u + 1.0
    lower = np.concatenate([np.full(4, -extent), np.zeros(U)])
    upper = np.concatenate([np.full(4, extent), r_hi])
    return ConcaveProgram(n=n, objective=objective, gradient=gradient,
                          constraints=constraints, constraint_jac=constraint_jac,
                          lower=lower, upper=upper, curvature=curvature, name="p7",
                          structure=structure)


def _sanitize_expansion(scenario: Scenario, q_i: UavPlacement) -> UavPlacement:
    """Nudge the relay off exact zero-distance link geometries.

    With equal UAV heights and a slack relay link, barrier centering can park
    the relay exactly on the observation UAV, where the linearization is
    singular.  A millimetre offset restores a valid expansion point.
    """
    cfg = scenario.config
    q_relay = q_i.q_relay
    d2_or = (cfg.height_relay_Hr - cfg.height_obs_Ho) ** 2 \
        + float(np.sum((q_relay - q_i.q_obs) ** 2))
    d2_rb = (cfg.height_gbs_Hb - cfg.height_relay_Hr) ** 2 \
        + float(np.sum((q_relay - scenario.gbs_pos_wb) ** 2))
    if d2_or > 0.0 and d2_rb > 0.0:
        return q_i
    away = scenario.gbs_pos_wb - q_i.q_obs
    norm = float(np.linalg.norm(away))
    step = away / norm if norm > 0 else np.array([1.0, 0.0])
    return UavPlacement(q_obs=q_i.q_obs, q_relay=q_relay + 1e-3 * step)


def solve_p7(scenario: Scenario, x, p_user, p_obs, p_relay,
             q_i: UavPlacement, budget: LinkBudget | None = None) -> P7Result:
    """One SCA placement step from expansion point q_i at fixed resources.

    Guarantees ascent of the exact-rate objective; if the linearized solve
    fails or regresses, the expansion point comes back with stalled=True.
    """
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    x = np.asarray(x, dtype=float)
    p_user = np.asarray(p_user, dtype=float)
    q_i = _sanitize_expansion(scenario, q_i)
    obj_at_qi, r_at_qi = exact_fill_objective(scenario, budget, x, p_user,
                                              p_obs, p_relay, q_i)

    coeffs = sca_coefficients(scenario, x, p_user, p_obs, p_relay, q_i, budget)
    program = _p7_program(scenario, coeffs, x)
    r_user0, r_rel0, r_gbs0 = lower_bound_rates(coeffs, q_i, scenario, x)
    one_m_rho = 1.0 - cfg.outage_target_rho
    try:
        r0 = 0.9 * capped_fill(one_m_rho * r_user0, min(r_rel0, r_gbs0))
    except InfeasibleProblem:
        return P7Result(q_i, r_at_qi, True, obj_at_qi, obj_at_qi)
    v0 = np.concatenate([q_i.q_obs / _POS_SCALE, q_i.q_relay / _POS_SCALE, r0])
    report = solve_concave(program, start=v0, tol=cfg.sca_tol)
    if report.status == "infeasible":
        return P7Result(q_i, r_at_qi, True, obj_at_qi, obj_at_qi)

    new_placement = UavPlacement(q_obs=report.solution[0:2] * _POS_SCALE,
                                 q_relay=report.solution[2:4] * _POS_SCALE)
    obj_new, r_new = exact_fill_objective(scenario, budget, x, p_user,
                                          p_obs, p_relay, new_placement)
    # Require strict ascent: with slack constraints barrier centering can move
    # the UAVs without touching the objective, and such drift must not loop.
    if obj_new <= obj_at_qi:
        return P7Result(q_i, r_at_qi, True, report.objective, obj_at_qi)
    return P7Result(new_placement, r_new, False, report.objective, obj_new)
