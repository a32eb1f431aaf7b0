"""Convex subproblem builders: resource allocation (fixed UAVs) and SCA placement.

The resource step optimizes bandwidth shares and effective rates with the
UAVs pinned and every power at its budget; the placement step moves the
backhaul chain's UAVs against first-order concave lower bounds on the user
and hop rates, expanded at the current placement.  Both builders serve either
chain (observation -> relay -> GBS, or observation -> GBS when the placement
has no relay) and reduce to ConcaveProgram instances for the barrier solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import LinkBudget, _persp_rate, _persp_ratio, fspl_rate, rician_cdf_inverse
from .convex_core import (BlockCurvature, BlockJacobian, BlockStructure, ConcaveProgram,
                          solve_concave)
from .scenario import (Scenario, SystemConfig, UavPlacement, backhaul_chain, hop_dist2,
                       hop_offsets)
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
        if self.r_tilde.sum() > link_cap + tol:
            raise ValueError("total effective rate exceeds a backhaul link rate")


# --- derivatives of the perspective rate x*log2(1 + c/x) in x -------------

def _persp_dx(x, c):
    """First derivative of the perspective rate in x."""
    x = np.asarray(x, dtype=float)
    s, big = _persp_ratio(x, c)
    log_term = np.where(big, np.log(np.where(big, c, 1.0)) - np.log(x),
                        np.log1p(np.where(big, 0.0, s)))
    frac = np.where(big, 1.0, s / (1.0 + s))
    return (log_term - frac) / LN2


def _persp_dxx(x, c):
    """Second derivative of the perspective rate in x."""
    s, big = _persp_ratio(x, c)
    s = np.where(big, 1e280, s)
    return -(s * s) / (x * (1.0 + s) ** 2 * LN2)


def _fspl_taylor(mu, den):
    """log2(1 + mu/den) and its slope -d/d(den): the constants of the
    first-order lower bound of an FSPL-type rate in squared distance."""
    return np.log1p(mu / den) / LN2, mu / (den * (den + mu) * LN2)


# --- exact rates and the inner rate-fill ----------------------------------

def user_rate_coeffs(scenario: Scenario, budget: LinkBudget, q_obs):
    """Per-user constants A_u with R_u = x*log2(1 + A_u*P_u/x) at this q_obs."""
    cfg = scenario.config
    d2 = cfg.height_obs_Ho ** 2 + np.sum((scenario.agu_pos_wu - q_obs) ** 2, axis=1)
    return budget.inv_cdf_at_rho * budget.mu0 / d2


def rate_caps(scenario, budget, x, p_user, p_obs, p_relay, placement):
    """Per-user effective-rate caps (1-rho)*R_u and the backhaul cap, the
    rate of the weakest hop of the placement's chain."""
    cfg = scenario.config
    A = user_rate_coeffs(scenario, budget, placement.q_obs)
    caps = (1.0 - cfg.outage_target_rho) * _persp_rate(x, A * p_user)
    nodes = backhaul_chain(scenario, placement)
    link_cap = min(fspl_rate(p, q_tx, q_rx, budget.mu0, h_tx, h_rx)
                   for p, (q_tx, h_tx), (q_rx, h_rx) in zip((p_obs, p_relay), nodes, nodes[1:]))
    return caps, link_cap


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


def _log_utility(scenario, sr):
    """The average utility of the rates v[sr] and its gradient, as callbacks."""
    cfg = scenario.config
    theta_over_U = cfg.utility_theta / cfg.num_users_U

    def objective(v):
        return theta_over_U * float(np.sum(np.log(cfg.utility_beta * v[sr]
                                                  / cfg.playback_rate_rbar)))

    def gradient(v):
        g = np.zeros(len(v))
        g[sr] = theta_over_U / v[sr]
        return g

    return objective, gradient


# --- P5: bandwidth split with fixed UAV positions -------------------------

def _p5_program(scenario, budget, placement, x_start):
    """P5 at full powers, and a strictly interior start near the split x_start.

    Variables (x_u, r_u).  Rows: each user's outage-constrained cap, local to
    (x_u, r_u); then two coupling rows, the bandwidth sum and the backhaul cap
    (the weakest hop at full power) against sum r.
    """
    cfg = scenario.config
    if hop_dist2(scenario, placement).min() == 0.0:
        raise InfeasibleProblem("degenerate zero-distance backhaul link")
    U = cfg.num_users_U
    one_m_rho = 1.0 - cfg.outage_target_rho
    p_user = np.full(U, cfg.p_max_user)
    c = user_rate_coeffs(scenario, budget, placement.q_obs) * p_user
    x0 = np.maximum(x_start, 1e-6 / U)
    if x0.sum() > 1.0 - 1e-6:
        x0 = x0 * (1.0 - 1e-6) / x0.sum()
    caps0, link_cap = rate_caps(scenario, budget, x0, p_user, cfg.p_max_obs,
                                cfg.p_max_relay, placement)
    theta_over_U = cfg.utility_theta / U
    n = 2 * U
    sx, sr = slice(0, U), slice(U, n)
    objective, gradient = _log_utility(scenario, sr)

    def constraints(v):
        g = np.empty(U + 2)
        g[:U] = one_m_rho * _persp_rate(v[sx], c) - v[sr]
        g[U] = 1.0 - v[sx].sum()
        g[U + 1] = link_cap - v[sr].sum()
        return g

    idx = np.arange(U)
    structure = BlockStructure(n, np.column_stack([idx, U + idx]))
    coupling = np.zeros((2, n))
    coupling[0, sx] = -1.0
    coupling[1, sr] = -1.0
    no_border = np.zeros((U, 0))     # every variable is in a block (x_u, r_u)

    def constraint_jac(v):
        local = np.empty((U, 2))
        local[:, 0] = one_m_rho * _persp_dx(v[sx], c)
        local[:, 1] = -1.0
        return BlockJacobian(structure, local, coupling, no_border)

    def curvature(v, w):
        diag = np.empty(n)
        diag[sx] = w[:U] * one_m_rho * _persp_dxx(v[sx], c)
        diag[sr] = -theta_over_U / v[sr] ** 2
        return BlockCurvature(structure, diag, np.zeros((0, 0)))

    r_hi = one_m_rho * _persp_rate(np.ones(U), c) + 1.0
    program = ConcaveProgram(n=n, objective=objective, gradient=gradient,
                             constraints=constraints, constraint_jac=constraint_jac,
                             lower=np.zeros(n), upper=np.concatenate([np.ones(U), r_hi]),
                             curvature=curvature, name="p5", structure=structure)
    return program, np.concatenate([x0, 0.9 * capped_fill(caps0, link_cap)])


def solve_p5(scenario: Scenario, placement: UavPlacement,
             start: DecisionState, budget: LinkBudget | None = None) -> DecisionState:
    """Optimal bandwidth shares for pinned UAV positions.

    The returned powers sit exactly at their budgets: the objective and every
    constraint are non-decreasing in each power, so P5 fixes them there and
    optimizes the split alone.  Effective rates are then re-filled against
    the exact rate caps.
    """
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    program, v0 = _p5_program(scenario, budget, placement, start.x)
    report = solve_concave(program, v0, cfg.sca_tol)

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
    """Taylor constants of the link rates at an expansion placement.

    c_* equal the exact rates (per unit bandwidth for the user link) at the
    expansion point; d_* are the slopes against squared horizontal distance.
    The *_hop arrays hold one entry per backhaul hop of the expansion's chain.
    """

    c_user: np.ndarray
    d_user: np.ndarray
    c_hop: np.ndarray
    d_hop: np.ndarray
    expansion: UavPlacement
    dist2_user: np.ndarray
    dist2_hop: np.ndarray


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
    mu_u = budget.inv_cdf_at_rho * p_user * budget.mu0 / x
    c_user, d_user = _fspl_taylor(mu_u, cfg.height_obs_Ho ** 2 + dist2_user)

    offsets, gaps = hop_offsets(scenario, expansion)
    dist2_hop = np.sum(offsets ** 2, axis=1)
    den_hop = gaps ** 2 + dist2_hop
    if np.any(den_hop == 0.0):
        raise ValueError("cannot expand around a zero-length backhaul hop")
    mu_hop = np.array((p_obs, p_relay)[:len(den_hop)]) * budget.mu0
    c_hop, d_hop = _fspl_taylor(mu_hop, den_hop)
    return SCACoefficients(c_user=c_user, d_user=d_user, c_hop=c_hop, d_hop=d_hop,
                           expansion=expansion, dist2_user=dist2_user,
                           dist2_hop=dist2_hop)


def lower_bound_rates(coeffs: SCACoefficients, placement: UavPlacement,
                      scenario: Scenario, x):
    """Concave global lower bounds on the user rates and the hop rates at a
    placement with the expansion's chain: (r_user, r_hop).

    Tight (equal to the exact rates) when placement equals the expansion
    point; never above the exact rates elsewhere because each rate is convex
    in its squared horizontal distance.
    """
    x = np.asarray(x, dtype=float)
    y_user = np.sum((scenario.agu_pos_wu - placement.q_obs) ** 2, axis=1)
    r_user = x * (coeffs.c_user - coeffs.d_user * (y_user - coeffs.dist2_user))
    y_hop = np.sum(hop_offsets(scenario, placement)[0] ** 2, axis=1)
    return r_user, coeffs.c_hop - coeffs.d_hop * (y_hop - coeffs.dist2_hop)


@dataclass
class P7Result:
    placement: UavPlacement
    r_tilde: np.ndarray
    stalled: bool
    lb_objective: float
    exact_objective: float


def _p7_program(scenario, coeffs, x):
    """P7 around coeffs.expansion, and the strictly interior start there.

    Variables: the positions of the chain's K UAVs (the border, in units of
    _POS_SCALE), then r_u.  Rows: each user's linearized link, local to the
    observation UAV and r_u; then one coupling row per backhaul hop, the
    hop's linearized rate against sum r.  Raises InfeasibleProblem when the
    linearized rates leave no positive fill at the expansion point.
    """
    cfg = scenario.config
    U = cfg.num_users_U
    K = len(coeffs.c_hop)
    nb = 2 * K
    n = nb + U
    sr = slice(nb, n)
    one_m_rho = 1.0 - cfg.outage_target_rho
    S2 = _POS_SCALE * _POS_SCALE
    w_users = scenario.agu_pos_wu / _POS_SCALE          # (U, 2)
    w_gbs = scenario.gbs_pos_wb / _POS_SCALE
    theta_over_U = cfg.utility_theta / U
    objective, gradient = _log_utility(scenario, sr)

    ku = one_m_rho * x * coeffs.d_user * S2              # quadratic weights
    base_u = one_m_rho * x * (coeffs.c_user + coeffs.d_user * coeffs.dist2_user)
    kh = coeffs.d_hop * S2
    base_h = coeffs.c_hop + coeffs.d_hop * coeffs.dist2_hop

    ends = np.empty((K + 1, 2))                          # the chain's nodes
    ends[K] = w_gbs

    def offsets(v):
        """hop_offsets of the chain at v, in solver units."""
        ends[:K] = v[:nb].reshape(K, 2)
        return ends[1:] - ends[:-1]

    def constraints(v):
        g = np.empty(U + K)
        g[:U] = base_u - ku * np.sum((v[:2] - w_users) ** 2, axis=1) - v[sr]
        g[U:] = base_h - kh * np.sum(offsets(v) ** 2, axis=1) - v[sr].sum()
        return g

    # Incidence of the rows on the chain's UAVs: a user row moves with the
    # observation UAV, and hop k's row with UAV k (+1) and the UAV it feeds
    # (-1; the last hop feeds the fixed GBS).
    hop_incidence = np.eye(K) - np.eye(K, k=1)
    incidence = np.kron(np.vstack([np.eye(1, K), hop_incidence]), np.eye(2))

    # Local rows: user u's link touches the observation UAV (the border) and
    # r_u.  Coupling rows: the hops against sum r.
    structure = BlockStructure(n, np.arange(nb, n), border=np.arange(nb))
    local = np.full((U, 1), -1.0)
    coupling0 = np.zeros((K, n))
    coupling0[:, sr] = -1.0

    def constraint_jac(v):
        border = np.zeros((U, nb))
        border[:, :2] = -2.0 * ku[:, None] * (v[:2] - w_users)
        slope = 2.0 * kh[:, None] * offsets(v)
        coupling = coupling0.copy()
        coupling[:, :nb] = (hop_incidence[:, :, None] * slope[:, None, :]).reshape(K, nb)
        return BlockJacobian(structure, local, coupling, border)

    def curvature(v, w):
        diag = np.zeros(n)
        diag[sr] = -theta_over_U / v[sr] ** 2
        weights = np.concatenate([[2.0 * float(np.sum(w[:U] * ku))], 2.0 * w[U:] * kh])
        border = -(incidence.T * np.repeat(weights, 2)) @ incidence
        return BlockCurvature(structure, diag, border=border)

    extent = 4.0 * max(cfg.network_size_D, cfg.area_side) / _POS_SCALE
    lower = np.concatenate([np.full(nb, -extent), np.zeros(U)])
    upper = np.concatenate([np.full(nb, extent), base_u + 1.0])
    program = ConcaveProgram(n=n, objective=objective, gradient=gradient,
                             constraints=constraints, constraint_jac=constraint_jac,
                             lower=lower, upper=upper, curvature=curvature, name="p7",
                             structure=structure)
    r_user0, r_hop0 = lower_bound_rates(coeffs, coeffs.expansion, scenario, x)
    r0 = 0.9 * capped_fill(one_m_rho * r_user0, float(np.min(r_hop0)))
    return program, np.concatenate([np.concatenate(coeffs.expansion.uavs) / _POS_SCALE, r0])


def _sanitize_expansion(scenario: Scenario, q_i: UavPlacement) -> UavPlacement:
    """Nudge the chain's last UAV off exact zero-distance hops.

    With equal UAV heights and a slack relay link, barrier centering can park
    the relay exactly on the observation UAV, where the linearization is
    singular.  A millimetre offset restores a valid expansion point.
    """
    if hop_dist2(scenario, q_i).min() > 0.0:
        return q_i
    away = scenario.gbs_pos_wb - q_i.q_obs
    norm = float(np.linalg.norm(away))
    step = away / norm if norm > 0 else np.array([1.0, 0.0])
    *others, last = q_i.uavs
    return UavPlacement(*others, last + 1e-3 * step)


def solve_p7(scenario: Scenario, x, p_user, p_obs, p_relay,
             q_i: UavPlacement, budget: LinkBudget | None = None) -> P7Result:
    """One SCA placement step from expansion point q_i at fixed resources.

    Moves the UAVs of q_i's chain.  Guarantees ascent of the exact-rate
    objective; if the linearized solve fails or regresses, the expansion
    point comes back with stalled=True.
    """
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    x = np.asarray(x, dtype=float)
    p_user = np.asarray(p_user, dtype=float)
    q_i = _sanitize_expansion(scenario, q_i)
    obj_at_qi, r_at_qi = exact_fill_objective(scenario, budget, x, p_user,
                                              p_obs, p_relay, q_i)

    coeffs = sca_coefficients(scenario, x, p_user, p_obs, p_relay, q_i, budget)
    try:
        program, v0 = _p7_program(scenario, coeffs, x)
    except InfeasibleProblem:
        return P7Result(q_i, r_at_qi, True, obj_at_qi, obj_at_qi)
    report = solve_concave(program, v0, cfg.sca_tol)

    uav_coords = report.solution[:2 * len(q_i.uavs)] * _POS_SCALE
    new_placement = _sanitize_expansion(scenario, UavPlacement(*uav_coords.reshape(-1, 2)))
    obj_new, r_new = exact_fill_objective(scenario, budget, x, p_user,
                                          p_obs, p_relay, new_placement)
    # Require strict ascent: with slack constraints barrier centering can move
    # the UAVs without touching the objective, and such drift must not loop.
    if obj_new <= obj_at_qi:
        return P7Result(q_i, r_at_qi, True, report.objective, obj_at_qi)
    return P7Result(new_placement, r_new, False, report.objective, obj_new)
