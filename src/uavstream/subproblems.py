"""The two convex subproblems: resource allocation (fixed UAVs) and SCA placement.

The resource step optimizes bandwidth shares and effective rates with the
UAVs pinned and every power at its budget; the placement step moves the
backhaul chain's UAVs against first-order concave lower bounds on the user
and hop rates, expanded at the current placement, then extrapolates the
accepted move while the exact objective rises, so a step may end past the
surrogate's optimum.  Both steps serve either chain
(observation -> relay -> GBS, or observation -> GBS when the placement has no
relay).  The resource step is solved in closed form, from its optimality
conditions; the placement step reduces to a ConcaveProgram for the barrier
solver.  The reduced problem fixes the observation UAV alone: the relay then
sits at its equal-hop point and P5 is solved there, which gives the
objective J*(q_obs) and its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import lambertw

from .channel import LinkBudget, _persp_rate, _persp_ratio, fspl_rate, rician_cdf_inverse
from .convex_core import (BlockCurvature, BlockJacobian, BlockStructure, ConcaveProgram,
                          NumericError, solve_concave)
from .scenario import (Scenario, SystemConfig, UavPlacement, backhaul_chain, hop_dist2,
                       hop_offsets)
from .utility import UtilityParams, average_utility

LN2 = math.log(2.0)
_POS_SCALE = 1000.0      # metres per solver position unit
_FLAT_SPARE = 1e-9       # least spare bandwidth of a non-degenerate flat P5 face
_CENTRE_STEPS = 50       # Newton steps for the flat face's centre
_CENTRE_TOL = 1e-12      # Newton decrement over |barrier value| ending the damped phase
_PRICE_STEPS = 50        # projected Newton steps on P5's two prices
_PRICE_TOL = 1e-12       # |1 - sum x| and |link_cap - sum cap| / link_cap at P5's optimum
_SHARE_STEPS = 100       # bracketed Newton steps for the shares at given prices
_SHARE_TOL = 1e-13       # relative share step ending that search


class InfeasibleProblem(RuntimeError):
    """No strictly positive rate allocation exists for the instance."""


@lru_cache(maxsize=32)
def _cached_inverse_cdf(rho: float, K: float) -> float:
    return rician_cdf_inverse(rho, K)


def make_link_budget(config: SystemConfig) -> LinkBudget:
    """LinkBudget for a config; the CDF inversion (at rician_cdf_inverse's
    default tolerance) is cached across calls."""
    return LinkBudget(mu0=config.mu0, inv_cdf_at_rho=_cached_inverse_cdf(
        config.outage_target_rho, config.rician_K))


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
    return caps, backhaul_cap(scenario, budget, p_obs, p_relay, placement)


def backhaul_cap(scenario, budget, p_obs, p_relay, placement):
    """The rate of the weakest hop of the placement's chain."""
    nodes = backhaul_chain(scenario, placement)
    return min(fspl_rate(p, q_tx, q_rx, budget.mu0, h_tx, h_rx)
               for p, (q_tx, h_tx), (q_rx, h_rx) in zip((p_obs, p_relay), nodes, nodes[1:]))


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

def _p5_constants(scenario, budget, placement):
    """The users' rate constants c_u at full power, with cap_u(x) =
    (1-rho) x log2(1 + c_u/x), and the backhaul cap.  A zero-length hop
    raises InfeasibleProblem before any rate is evaluated."""
    cfg = scenario.config
    if hop_dist2(scenario, placement).min() == 0.0:
        raise InfeasibleProblem("degenerate zero-distance backhaul link")
    c = user_rate_coeffs(scenario, budget, placement.q_obs) * cfg.p_max_user
    return c, backhaul_cap(scenario, budget, cfg.p_max_obs, cfg.p_max_relay, placement)


def _level_shares(c, level, one_m_rho):
    """The least shares whose caps reach level, or None unless every user's
    cap reaches it at some share.

    The share solves x ln(1 + c/x) = a, a = level ln2/(1-rho); with k = a/c
    it is a / (-W_{-1}(-k e^-k) - k), on the lower branch of Lambert's W,
    and it exists iff level > 0 and k < 1 (the cap tends to level/k as x
    grows).
    """
    a = level * LN2 / one_m_rho
    k = a / c
    if not (level > 0.0 and np.all(k < 1.0)):
        return None
    return a / (-lambertw(-k * np.exp(-k), -1).real - k)


def _flat_face_centre(c, level, one_m_rho):
    """The split P5 returns when it is flat, or None when it is not.

    P5 is flat when every user's cap reaches the equal level link_cap/U
    within the bandwidth: r_u = level is then optimal for every split whose
    caps all reach it, and those splits form the optimal face.  P5 is flat
    iff the least shares reaching the level (_level_shares) sum below one (a
    face thinner than _FLAT_SPARE counts as degenerate, and goes to
    _price_split).

    The face's analytic centre maximizes the x-terms of P5's log barrier,
    sum_u [ln(cap_u - level) + ln x_u + ln(1 - x_u)] + ln(1 - sum x): it is
    where the central path's split converges (Boyd & Vandenberghe, Convex
    Optimization, 8.5.3 and 11.2).  Damped Newton from the minimal shares
    plus an equal part of the spare bandwidth; the Hessian is a diagonal
    plus rank one, so each step is O(U) by Sherman-Morrison.
    """
    x_min = _level_shares(c, level, one_m_rho)
    if x_min is None:
        return None
    spare = 1.0 - x_min.sum()
    if not (np.all(x_min < 1.0) and spare > _FLAT_SPARE):
        return None

    def barrier(x):
        """(value, cap slacks, bandwidth slack), or None off the face."""
        left = 1.0 - x.sum()
        if not ((x > 0.0).all() and (x < 1.0).all() and left > 0.0):
            return None
        slack = one_m_rho * _persp_rate(x, c) - level
        if not (slack > 0.0).all():
            return None
        value = np.log(slack).sum() + np.log(x).sum() + np.log1p(-x).sum() + math.log(left)
        return value, slack, left

    x = x_min + spare / (len(c) + 1)
    current = barrier(x)
    if current is None:       # rounding left the minimal shares on the face's edge
        return None
    for _ in range(_CENTRE_STEPS):
        value, slack, left = current
        dlog = one_m_rho * _persp_dx(x, c) / slack
        grad = dlog + 1.0 / x - 1.0 / (1.0 - x) - 1.0 / left
        inv_diag = 1.0 / (dlog ** 2 - one_m_rho * _persp_dxx(x, c) / slack
                          + 1.0 / x ** 2 + 1.0 / (1.0 - x) ** 2)
        step = inv_diag * (grad - (grad @ inv_diag) / (left ** 2 + inv_diag.sum()))
        decrement = float(grad @ step)
        if decrement <= _CENTRE_TOL * abs(value):
            # Newton's quadratic phase: one full step reaches rounding level,
            # where Armijo could no longer tell the values apart.
            if barrier(x + step) is not None:
                x = x + step
            break
        alpha = 1.0
        while alpha > 1e-12:
            trial = barrier(x + alpha * step)
            if trial is not None and trial[0] >= value + 0.25 * alpha * decrement:
                break
            alpha *= 0.5
        else:
            break
        x, current = x + alpha * step, trial
    return x


def _share_terms(x, c, one_m_rho, nu):
    """(cap, cap', h'' + lam) at the shares x > 0 for the price nu: the caps
    (1-rho) x log2(1 + c/x), their slopes, and the second derivative of
    h = ln cap - lam x - nu cap."""
    s = c / x
    log_term, frac = np.log1p(s), s / (1.0 + s)
    scale = one_m_rho / LN2
    cap = scale * x * log_term
    slope = scale * (log_term - frac)
    curv = -scale * frac ** 2 / x * (1.0 / cap - nu) - (slope / cap) ** 2
    return cap, slope, curv


def _price_shares(c, one_m_rho, lam, nu, x):
    """Each user's share maximizing h_u(x) = ln cap_u(x) - lam x - nu cap_u(x)
    at the prices lam > 0, nu >= 0, with (cap_u, cap_u', -1/h_u'') there.

    h_u' = cap_u' (1/cap_u - nu) - lam decreases where cap_u < 1/nu, where
    h_u is concave, and is below -lam beyond, so the maximizer is h_u's one
    stationary point.  It lies below 1/lam (cap_u'/cap_u <= 1/x, since cap_u
    is concave with cap_u(0) = 0): Newton from the warm start x, bisecting
    whenever a step leaves the bracket or h_u'' >= 0.
    """
    lo, hi = np.zeros_like(x), np.full_like(x, 1.0 / lam)
    x = np.where(x < hi, x, 0.5 * hi)
    for _ in range(_SHARE_STEPS):
        cap, slope, curv = _share_terms(x, c, one_m_rho, nu)
        grad = slope * (1.0 / cap - nu) - lam
        lo, hi = np.where(grad > 0.0, x, lo), np.where(grad < 0.0, x, hi)
        newton = x - grad / curv
        step = np.where((curv < 0.0) & (newton >= lo) & (newton <= hi),
                        newton, 0.5 * (lo + hi)) - x
        if np.all(np.abs(step) <= _SHARE_TOL * x):
            return x, cap, slope, -1.0 / curv
        x = x + step
    raise NumericError("P5's share search did not converge")


def _price_split(c, link_cap, one_m_rho, theta_over_U):
    """P5's optimal split when it is not flat, and its prices: (x, lam, nu),
    the multipliers of sum x <= 1 and of the backhaul cap, in P5's units.

    P5 at full power maximizes (theta/U) sum ln(beta r_u / rbar) over
    r_u <= cap_u(x_u), sum r <= link_cap and sum x <= 1.  Its dual in the
    two prices, D(lam, nu) = sum_u max_x h_u(x) + lam + nu link_cap with
    h_u = ln cap_u - lam x - nu cap_u (_price_shares; prices per unit of
    sum ln r), is convex, with gradient (1 - sum x, link_cap - sum cap) and
    Hessian sum_u w_u [1, cap_u'][1, cap_u']^T, w_u = -1/h_u''.  At its
    minimum every user sits at its cap (r_u = cap_u' / (lam + nu cap_u')),
    the bandwidth is used up, and nu (link_cap - sum cap) = 0.

    lam = 0 only where every user reaches the equal level link_cap/U within
    the bandwidth: the flat case (_flat_face_centre), or a face too thin for
    it, whose least shares are returned.  Otherwise lam > 0, and D is
    minimized by damped Newton with nu projected onto nu >= 0 (a zero nu
    whose partial derivative is positive stays there) and lam floored at a
    hundredth of its value, since D is singular at lam = 0 when some user
    cannot reach 1/nu; Armijo backtracks along the projected step.  The
    floor acts on lam alone: scaling the whole step to respect it would
    freeze nu while lam falls a hundredfold per step.
    """
    if link_cap <= 0.0 or np.any(c <= 0.0):
        raise InfeasibleProblem("no positive rate available for some user")
    U = len(c)
    x = _level_shares(c, link_cap / U, one_m_rho)
    if x is not None and x.sum() <= 1.0:
        return x, 0.0, theta_over_U * U / link_cap
    # Start at nu = 0 and the lam at which sum x is about one: each user's
    # share is about its cap elasticity x cap'/cap over lam, taken at 1/U.
    x = np.full(U, 1.0 / U)
    cap, slope, _ = _share_terms(x, c, one_m_rho, 0.0)
    prices = np.array([float(np.sum(x * slope / cap)), 0.0])
    total = np.array([1.0, link_cap])

    def dual(p, x):
        """(D, shares, caps, cap slopes, w) at the prices p."""
        x, cap, slope, w = _price_shares(c, one_m_rho, p[0], p[1], x)
        return float(np.log(cap).sum() + p @ (total - [x.sum(), cap.sum()])), x, cap, slope, w

    current = dual(prices, x)
    for _ in range(_PRICE_STEPS):
        value, x, cap, slope, w = current
        grad = total - [x.sum(), cap.sum()]
        free = np.array([True, prices[1] > 0.0 or grad[1] < 0.0])
        if np.all(np.abs(grad[free]) <= _PRICE_TOL * total[free]):
            return x, theta_over_U * prices[0], theta_over_U * prices[1]
        hess = np.array([[w.sum(), w @ slope], [w @ slope, w @ slope ** 2]])
        hess[np.diag_indices(2)] *= 1.0 + 1e-12   # all slopes equal: H has rank one
        step = np.zeros(2)
        step[free] = -np.linalg.solve(hess[np.ix_(free, free)], grad[free])
        floor = np.array([0.01 * prices[0], 0.0])
        # Within rounding of the optimum Armijo can no longer tell the values
        # apart; Newton's quadratic phase takes the full step.
        rounding = float(-grad @ step) <= 1e-12 * np.abs(np.log(cap)).sum()
        alpha = 1.0
        while alpha > 1e-12:
            trial_prices = np.maximum(prices + alpha * step, floor)
            trial = dual(trial_prices, x)
            if rounding or trial[0] <= value + 0.25 * float(grad @ (trial_prices - prices)):
                break
            alpha *= 0.5
        else:
            raise NumericError("P5's price search stalled")
        prices, current = trial_prices, trial
    raise NumericError(f"P5's price search did not converge in {_PRICE_STEPS} steps")


def _p5_split(scenario, budget, placement):
    """P5's optimal split at full power, and its prices: (x, lam, nu), the
    multipliers of sum x <= 1 and of the backhaul cap in the objective's
    units.  A flat P5 returns its face's centre, with lam = 0 and
    nu = theta / link_cap; any other, _price_split's answer."""
    cfg = scenario.config
    U = cfg.num_users_U
    c, link_cap = _p5_constants(scenario, budget, placement)
    one_m_rho = 1.0 - cfg.outage_target_rho
    x = _flat_face_centre(c, link_cap / U, one_m_rho)
    if x is None:
        x, lam, nu = _price_split(c, link_cap, one_m_rho, cfg.utility_theta / U)
    else:
        lam, nu = 0.0, cfg.utility_theta / link_cap
    # Objective and caps are non-decreasing in every share, so the whole
    # bandwidth can always be handed out: rescale the split onto sum(x) = 1.
    return x / x.sum(), lam, nu


def solve_p5(scenario: Scenario, placement: UavPlacement,
             start: DecisionState, budget: LinkBudget | None = None) -> DecisionState:
    """Optimal bandwidth shares for pinned UAV positions.

    The returned powers sit exactly at their budgets: the objective and every
    constraint are non-decreasing in each power, so P5 fixes them there and
    optimizes the split alone.  When P5 is flat (every user can reach the
    equal share of the backhaul), the split is the optimal face's analytic
    centre in closed form; otherwise it solves P5's optimality conditions in
    their two prices (_price_split).  Effective rates are then re-filled
    against the exact rate caps.
    """
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    U = cfg.num_users_U
    x_opt = _p5_split(scenario, budget, placement)[0]
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


# --- the reduced problem: the observation UAV alone -------------------------

def equal_hop_placement(scenario: Scenario, q_obs):
    """The placement with the relay that maximizes the backhaul cap for an
    observation UAV at q_obs, and the slope dD/dl of the observation hop's
    squared length D in l = |gbs - q_obs|, the cap's one dependence on q_obs.

    Moving the relay onto the segment from q_obs to the GBS shortens both
    hops, so the best relay lies on it, at the fraction t where the two FSPL
    hop rates are equal: p_obs d_rb^2 = p_relay d_or^2, with
    d_or^2 = b^2 + t^2 l^2, d_rb^2 = a^2 + (1-t)^2 l^2 and a, b the height
    gaps.  The difference f(t) = p_obs d_rb^2 - p_relay d_or^2 is a quadratic
    that falls on [0, 1]; its root there is taken in the form free of
    cancellation, which also holds for equal powers.  Where f keeps one sign
    one hop is the weaker at every t, and the relay goes to the end where
    that hop spans its height gap alone: the cap is then constant, D' = 0.
    """
    cfg = scenario.config
    p_o, p_r = cfg.p_max_obs, cfg.p_max_relay
    a2 = (cfg.height_gbs_Hb - cfg.height_relay_Hr) ** 2
    b2 = (cfg.height_relay_Hr - cfg.height_obs_Ho) ** 2
    q_obs = np.asarray(q_obs, dtype=float)
    span = scenario.gbs_pos_wb - q_obs
    l2 = float(span @ span)
    f0, f1 = p_o * (a2 + l2) - p_r * b2, p_o * a2 - p_r * (b2 + l2)
    if f0 <= 0.0:
        return UavPlacement(q_obs, q_obs), 0.0
    if f1 >= 0.0:
        return UavPlacement(q_obs, q_obs + span), 0.0
    t = f0 / (p_o * l2 + math.sqrt((p_o * l2) ** 2 - (p_o - p_r) * l2 * f0))
    # s = t l solves p_obs (a^2 + (l - s)^2) = p_relay (b^2 + s^2), so
    # ds/dl = p_obs (l - s) / (p_obs (l - s) + p_relay s), and dD/dl = 2 s ds/dl.
    weight = (1.0 - t) * p_o
    slope = 2.0 * t * math.sqrt(l2) * weight / (weight + t * p_r)
    return UavPlacement(q_obs, q_obs + t * span), slope


@dataclass
class ReducedPoint:
    """J*(q_obs), the state attaining it, and its gradient in q_obs."""

    objective: float
    state: DecisionState
    gradient: np.ndarray


def reduced_point(scenario: Scenario, budget: LinkBudget, q_obs) -> ReducedPoint:
    """The reduced objective J*(q_obs): the exact-fill objective with the
    relay at its equal-hop point (equal_hop_placement) and P5 solved there.

    Its gradient is Danskin's, P5's multipliers times the q_obs-gradients of
    the caps they price: sum_u mu_u dcap_u/dq + nu dlink_cap/dq, with
    mu_u = theta/(U r_u) - nu from stationarity in r_u.  Off a flat P5 every
    user sits at its cap, r_u = cap_u; on a flat one r_u = link_cap/U and
    nu = theta/link_cap, so mu = 0.
    """
    cfg = scenario.config
    placement, dD_dl = equal_hop_placement(scenario, q_obs)
    x, _, nu = _p5_split(scenario, budget, placement)
    p_user = np.full(cfg.num_users_U, cfg.p_max_user)
    obj, r = exact_fill_objective(scenario, budget, x, p_user, cfg.p_max_obs,
                                  cfg.p_max_relay, placement)
    state = DecisionState(x=x, p_user=p_user, p_obs=cfg.p_max_obs, p_relay=cfg.p_max_relay,
                          placement=placement, r_tilde=r)

    # cap_u = (1-rho) x log2(1 + c_u/x) with c_u proportional to 1/d2_u.
    q_obs = placement.q_obs
    offsets = q_obs - scenario.agu_pos_wu
    d2 = cfg.height_obs_Ho ** 2 + np.sum(offsets ** 2, axis=1)
    c = user_rate_coeffs(scenario, budget, q_obs) * cfg.p_max_user
    dcap = (-2.0 * (1.0 - cfg.outage_target_rho) / LN2 * c * x / ((x + c) * d2))[:, None] * offsets
    mu = cfg.utility_theta / (cfg.num_users_U * r) - nu
    grad = mu @ dcap
    if dD_dl:
        # link_cap = log2(1 + P/D) on the observation hop, D a function of l.
        P = cfg.p_max_obs * budget.mu0
        D = hop_dist2(scenario, placement)[0]
        away = q_obs - scenario.gbs_pos_wb
        grad = grad - nu * P * dD_dl / (D * (D + P) * LN2 * math.hypot(*away)) * away
    return ReducedPoint(obj, state, grad)


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


def placement_extent(cfg: SystemConfig) -> float:
    """Half-side (metres) of the box P7 keeps every UAV coordinate in."""
    return 4.0 * max(cfg.network_size_D, cfg.area_side)


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
    local = np.full(U, -1.0)
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
        return BlockCurvature(diag, border=border)

    extent = placement_extent(cfg) / _POS_SCALE
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
             q_i: UavPlacement, budget: LinkBudget | None = None,
             fill_at_qi: tuple | None = None) -> P7Result:
    """One SCA placement step from expansion point q_i at fixed resources.

    Moves the UAVs of q_i's chain.  Guarantees ascent of the exact-rate
    objective; if the linearized solve fails or regresses, the expansion
    point comes back with stalled=True.

    An accepted move q* - q_i is then extrapolated: the exact objective is
    tried at q_i + 2^j (q* - q_i) for j = 1, 2, ..., and the last trial that
    strictly raised it is returned, so the UAVs may end past the surrogate's
    optimum.  The doubling stops at the first trial that does not raise the
    objective, has a zero-length hop or leaves P7's placement box.  Far from
    q_i the surrogate's first-order rate bounds are conservative, and each
    trial is one O(U log U) rate fill where a P7 solve takes tens of Newton
    steps.  lb_objective stays the solve's surrogate value, which is below
    the exact objective at q* and hence at the returned placement.

    fill_at_qi, if given, is exact_fill_objective's (objective, r_tilde) at
    q_i, which the caller already holds; it is used unless q_i needs a nudge.
    """
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    x = np.asarray(x, dtype=float)
    p_user = np.asarray(p_user, dtype=float)
    nudged = _sanitize_expansion(scenario, q_i)
    if fill_at_qi is None or nudged is not q_i:
        q_i = nudged
        fill_at_qi = exact_fill_objective(scenario, budget, x, p_user, p_obs, p_relay, q_i)
    obj_at_qi, r_at_qi = fill_at_qi

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

    origin = np.concatenate(q_i.uavs)
    move = np.concatenate(new_placement.uavs) - origin
    extent = placement_extent(cfg)
    scale = 2.0
    while True:
        # The returned placement is the next P7's expansion point, which must
        # be strictly inside P7's box and expandable (no zero-length hop).
        coords = origin + scale * move
        trial = UavPlacement(*coords.reshape(-1, 2))
        if not np.abs(coords).max() < extent or hop_dist2(scenario, trial).min() == 0.0:
            break
        obj_trial, r_trial = exact_fill_objective(scenario, budget, x, p_user,
                                                  p_obs, p_relay, trial)
        if not obj_trial > obj_new:
            break
        new_placement, obj_new, r_new = trial, obj_trial, r_trial
        scale *= 2.0
    return P7Result(new_placement, r_new, False, report.objective, obj_new)
