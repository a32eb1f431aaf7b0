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
solver.  The reduced problem fixes the observation UAV alone: the relay, if
the chain has one, then sits at its equal-hop point and P5 is solved there,
which gives the objective J*(q_obs), its gradient and its Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import LinkBudget, _persp_rate, rician_cdf_inverse
from .convex_core import (BlockCurvature, BlockJacobian, ConcaveProgram, NumericError,
                          WarmStart, solve_concave)
from .scenario import Scenario, SystemConfig, UavPlacement, hop_dist2, hop_offsets
from .utility import UtilityParams, average_utility

LN2 = math.log(2.0)
_POS_SCALE = 1000.0      # metres per solver position unit
_KKT_STEPS = 50          # Newton steps on P5's optimality conditions
_KKT_TOL = 1e-12         # their residuals at P5's optimum (relative; see _price_split)
_NEAR_ONE = 0.02         # 1 - k below which a least share is read off its series
# t = 1/(2 eps) + these in powers of eps, highest first: t ln(1 + 1/t) = 1 - eps.
_SHARE_SERIES = (32 / 18225, 116 / 42525, 8 / 1701, 4 / 405, 4 / 135, 1 / 9, -2 / 3)
_SHARE_MARGIN = 1.0 + 2.0 ** -44   # raised target of the least-share Newton solve
_SHARE_STEPS = 3
# ln(1 + s) - s/(1 + s) = s^2 (1/2 - 2s/3 + 3s^2/4 - ...), highest power first,
# summed below s = _SLOPE_SERIES_BELOW, where 18 terms reach double precision.
_SLOPE_SERIES = tuple((-1) ** j * (j + 1) / (j + 2) for j in range(17, -1, -1))
_SLOPE_SERIES_BELOW = 0.1


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
    r_tilde: np.ndarray      # U effective rates (b/s/Hz), the exact fill in returned states

    def copy(self) -> "DecisionState":
        return DecisionState(x=self.x.copy(), p_user=self.p_user.copy(),
                             p_obs=self.p_obs, p_relay=self.p_relay,
                             placement=self.placement, r_tilde=self.r_tilde.copy())

    def validate(self, scenario: Scenario, budget: LinkBudget, tol: float = 1e-9):
        """Raise ValueError unless the state is feasible (a NaN fails every
        check), or InfeasibleProblem if its placement has a zero-length hop."""
        cfg = scenario.config
        if not (np.all(self.x >= -tol) and self.x.sum() <= 1.0 + tol):
            raise ValueError(f"bandwidth shares invalid: sum={self.x.sum()}")
        if not np.all((self.p_user >= -tol) & (self.p_user <= cfg.p_max_user + tol)):
            raise ValueError("user power outside budget")
        if not (-tol <= self.p_obs <= cfg.p_max_obs + tol):
            raise ValueError("observation UAV power outside budget")
        if not (-tol <= self.p_relay <= cfg.p_max_relay + tol):
            raise ValueError("relay UAV power outside budget")
        if not np.all(self.r_tilde >= -tol):
            raise ValueError("negative effective rate")
        caps, link_cap = rate_caps(scenario, budget, self.x, self.p_user,
                                   self.p_obs, self.p_relay, self.placement)
        if not np.all(self.r_tilde <= caps + tol):
            raise ValueError("effective rate exceeds outage-constrained user rate")
        if not self.r_tilde.sum() <= link_cap + tol:
            raise ValueError("total effective rate exceeds a backhaul link rate")


def _fspl_taylor(mu, den):
    """log2(1 + mu/den) and its slope -d/d(den): the constants of the
    first-order lower bound of an FSPL-type rate in squared distance."""
    return np.log1p(mu / den) / LN2, mu / (den * (den + mu) * LN2)


# --- exact rates and the inner rate-fill ----------------------------------

def _links(scenario, budget, placement, p_user, p_obs, p_relay):
    """A placement's links at the given powers: (c, d2, hop_d2, link_cap),
    the users' rate constants (cap_u(x) = (1-rho) x log2(1 + c_u/x)) and
    squared link lengths, the hops' squared lengths and the backhaul cap.  A
    zero-length hop raises InfeasibleProblem before any rate is evaluated;
    each hop's rate is channel.fspl_rate's, by math.log1p as there."""
    cfg = scenario.config
    hop_d2 = hop_dist2(scenario, placement)
    if hop_d2.min() == 0.0:
        raise InfeasibleProblem("degenerate zero-distance backhaul link")
    d2 = cfg.height_obs_Ho ** 2 + np.sum((scenario.agu_pos_wu - placement.q_obs) ** 2, axis=1)
    c = budget.inv_cdf_at_rho * budget.mu0 / d2 * p_user
    link_cap = min(math.log1p(p * budget.mu0 / D) / LN2 for p, D in zip((p_obs, p_relay), hop_d2))
    return c, d2, hop_d2, link_cap


def rate_caps(scenario, budget, x, p_user, p_obs, p_relay, placement):
    """Per-user effective-rate caps (1-rho)*R_u and the backhaul cap, the
    rate of the weakest hop of the placement's chain."""
    c, _, _, link_cap = _links(scenario, budget, placement, p_user, p_obs, p_relay)
    return (1.0 - scenario.config.outage_target_rho) * _persp_rate(x, c), link_cap


def capped_fill(caps: np.ndarray, total: float) -> np.ndarray:
    """Maximize sum(ln r) subject to r <= caps elementwise and sum(r) <= total.

    Water-filling with per-user ceilings: users below the common level keep
    their cap, the rest share the remainder equally.  With the caps sorted,
    the level is the first (total - the k lowest caps) / (U - k) that is at
    most the (k+1)-th lowest cap.
    """
    caps = np.asarray(caps, dtype=float)
    lowest = caps.min()
    if lowest <= 0 or total <= 0:
        raise InfeasibleProblem("no positive rate available for some user")
    if caps.sum() <= total:
        return caps.copy()
    U = len(caps)
    if total / U <= lowest:         # k = 0: the equal split
        return np.minimum(caps, total / U)
    sorted_caps = np.sort(caps)
    levels = (total - np.cumsum(sorted_caps[:-1])) / np.arange(U - 1, 0, -1)   # k = 1, ..., U-1
    j = int(np.argmax(levels <= sorted_caps[1:]))
    # Some level is reached, as caps.sum() > total, unless the sequential sums
    # round otherwise; then every user keeps its cap.
    return np.minimum(caps, levels[j]) if levels[j] <= sorted_caps[j + 1] else caps.copy()


def exact_fill_objective(scenario, budget, x, p_user, p_obs, p_relay, placement):
    """Best average utility attainable at fixed resources and placement.

    Returns (objective, r_tilde) with r_tilde the rate fill against the exact
    outage-constrained user caps and backhaul caps.  A zero-length hop raises
    InfeasibleProblem.
    """
    caps, link_cap = rate_caps(scenario, budget, x, p_user, p_obs, p_relay, placement)
    r = capped_fill(caps, link_cap)
    return average_utility(r, utility_params(scenario.config)), r


def _log_utility(scenario, sr):
    """The average utility of the rates v[sr] and its gradient, as callbacks."""
    cfg = scenario.config
    theta_over_U = cfg.utility_theta / cfg.num_users_U
    level = cfg.utility_theta * math.log(cfg.utility_beta / cfg.playback_rate_rbar)

    def objective(v):
        return theta_over_U * float(np.log(v[sr]).sum()) + level

    def gradient(v):
        g = np.zeros(len(v))
        g[sr] = theta_over_U / v[sr]
        return g

    return objective, gradient


# --- P5: bandwidth split with fixed UAV positions -------------------------

def _least_ratio(k):
    """s = c/x > 0 at the least share: ln(1 + s) = k * _SHARE_MARGIN * s,
    for 0 < k <= 1 - _NEAR_ONE.

    With y = k (1 + s) the equation reads y - ln y = m, m = k - ln k, on
    the root y > 1 (y = -W_{-1}(-k e^-k)).  The start is the larger of two
    expansions of that root, both below it where the other is the closer:
    m + ln m + ln(m)/m for small k, and 1 + p + p^2/3, p = sqrt(2 (m - 1)),
    about y = 1; it is within 3e-2 of s.  G(s) = ln(1 + s) - k s is concave
    and peaks at s = 1/k - 1, below every start, so each Newton step lands
    at or above the root, and the steps after the first descend to it;
    three steps end within 1e-14 of it, checked against mpmath for k from
    1e-300 to 1 - _NEAR_ONE.
    The target k is raised by _SHARE_MARGIN, more than the rounding of the
    cap at the returned share can take back.
    """
    m = k - np.log(k)
    log_m = np.log(m)
    p = np.sqrt(2.0 * (m - 1.0))
    s = np.maximum(m + log_m + log_m / m, 1.0 + p * (1.0 + p / 3.0)) / k - 1.0
    k = k * _SHARE_MARGIN
    for _ in range(_SHARE_STEPS):
        s -= (np.log1p(s) - k * s) / (1.0 / (1.0 + s) - k)
    return s


def _level_shares(c, level, one_m_rho):
    """The least shares whose caps reach level, or None unless every user's
    cap reaches it at some share.

    The share solves x ln(1 + c/x) = a, a = level ln2/(1-rho); with k = a/c
    and t = x/c it reads t ln(1 + 1/t) = k, and it exists iff level > 0 and
    k < 1 (the cap tends to level/k as x grows).  Near k = 1, t is the
    series 1/(2 eps) - 2/3 + eps/9 + ... in eps = 1 - k, exact to rounding
    for eps < _NEAR_ONE, where the equation itself cannot resolve t (its
    slope in ln t is about eps); elsewhere _least_ratio solves it.  Every
    cap at the returned shares, as rate_caps evaluates it, reaches level:
    _least_ratio aims above it, and near k = 1 a share whose cap rounds
    below it is raised by 2^-52 of itself, then by twice as much at each
    try, until it does.
    """
    a = level * LN2 / one_m_rho
    k = a / c
    k_max = k.max()
    if not (level > 0.0 and k_max < 1.0):
        return None
    if k_max < 1.0 - _NEAR_ONE:
        return c / _least_ratio(k)
    eps = 1.0 - k
    t = np.polyval(_SHARE_SERIES, eps) + 0.5 / eps
    far = eps >= _NEAR_ONE
    t[far] = 1.0 / _least_ratio(k[far])
    x = c * t
    bump = 2.0 ** -52
    while bump < 1.0:
        short = one_m_rho * _persp_rate(x, c) < level
        if not short.any():
            break
        x[short] *= 1.0 + bump
        bump *= 2.0
    return x


def _share_terms(x, c, one_m_rho):
    """(cap, cap', q') at the shares x > 0: the caps (1-rho) x log2(1 + c/x),
    their slopes, and the slopes of q = cap/cap', which are at least one
    since the caps are concave.  The slope is (1-rho)/ln2 times
    ln(1 + s) - s/(1 + s), s = c/x, whose difference loses about 2 eps/s of
    itself; below s = _SLOPE_SERIES_BELOW its series is summed instead."""
    s = c / x
    log_term, frac = np.log1p(s), s / (1.0 + s)
    scale = one_m_rho / LN2
    cap = scale * x * log_term
    slope = log_term - frac
    small = s < _SLOPE_SERIES_BELOW
    if small.any():
        slope[small] = s[small] ** 2 * np.polyval(_SLOPE_SERIES, s[small])
    slope *= scale
    return cap, slope, 1.0 + cap * scale * frac ** 2 / (x * slope ** 2)


def _positive_move(x, dx, alpha):
    """x moved by alpha dx where that keeps at least half of each share; a
    share cut further is scaled by -1/(4s), s = alpha dx/x, which continues
    the move smoothly and stays positive."""
    s = alpha * dx / x
    return x * np.where(s < -0.5, -0.25 / np.minimum(s, -0.5), 1.0 + s)


def _fit_prices(cap, q, with_nu):
    """The prices (lam, nu) that fit R = 1 - nu cap - lam q best in least
    squares, with nu >= 0 (nu = 0 unless with_nu), by Gram-Schmidt on the
    columns q, cap so that nearly parallel columns lose no precision."""
    qq = q @ q
    if with_nu:
        qc = q @ cap
        perp = cap - qc / qq * q
        pp = perp @ perp
        if pp > 1e-24 * (cap @ cap):
            nu = perp.sum() / pp
            if nu > 0.0:
                return (q.sum() - nu * qc) / qq, nu
    return q.sum() / qq, 0.0


def _price_split(c, link_cap, one_m_rho, theta_over_U):
    """P5's optimal split when it is not flat, and its prices: (x, lam, nu),
    the multipliers of sum x <= 1 and of the backhaul cap, in P5's units.

    P5 at full power maximizes (theta/U) sum ln(beta r_u / rbar) over
    r_u <= cap_u(x_u), sum r <= link_cap and sum x <= 1.  Where it is not
    flat every user sits at its cap at the optimum, and with prices lam, nu
    per unit of sum ln r its optimality conditions read
        R_u = 1 - nu cap_u - lam q_u = 0,   q = cap/cap'
              (stationarity cap_u'/cap_u = lam + nu cap_u', relative to the
              user's marginal),
        1 - sum x = 0,   link_cap - sum cap = 0 or nu = 0,   lam > 0, nu >= 0.

    lam = 0 only where P5 is flat: every user's cap reaches the equal level
    link_cap/U within the bandwidth, so r_u = link_cap/U is optimal for every
    split whose caps all reach it, and the least such shares
    (_level_shares) are returned.

    Otherwise one Newton loop solves the conditions in (x, lam, nu)
    together, one _share_terms pass per trial point.  R_u falls in x_u at
    the rate k_u = nu cap_u' + lam q_u' > 0, so a share's step is
    dx_u = (R_u - q_u dlam - cap_u dnu)/k_u, and the two sums give the 2x2
    system H (dlam, dnu) = (sum R/k, sum cap' R/k) - (1 - sum x,
    link_cap - sum cap), H = sum_u w_u [1, cap_u'][1, cap_u']^T, w = q/k.
    Where R = 0, w = -1/h_u'' for h_u = ln cap_u - lam x - nu cap_u, and
    this is Newton's step on the dual in the two prices.  While nu = 0 the
    backhaul row drops out if the cap has room or if its step would make nu
    negative.

    Globalization: the step is halved until the residual norm (R, and the
    two sums relative to their totals) falls by a share of it.  Shares
    move by _positive_move, nu is projected onto nu >= 0, and lam's step is
    cut to -0.99 lam where it would go lower, with dnu then the
    least-squares fit of the two linearized sums.  R is linear in the
    prices, so each trial point takes the least-squares prices of its R
    (_fit_prices) where they fit better than the stepped ones: where the
    caps' slopes are nearly equal, H is nearly singular and the stepped
    prices overshoot along its null direction.
    """
    if link_cap <= 0.0 or np.any(c <= 0.0):
        raise InfeasibleProblem("no positive rate available for some user")
    U = len(c)
    x = _level_shares(c, link_cap / U, one_m_rho)
    if x is not None and x.sum() <= 1.0:
        return x, 0.0, theta_over_U * U / link_cap

    def point(x, lam, nu, with_nu):
        """(x, lam, nu, cap, cap', q, q', R, 1 - sum x, 1 - sum cap/link_cap)
        at x, with the given prices or the fitted ones, whichever leave the
        smaller R."""
        cap, slope, dq = _share_terms(x, c, one_m_rho)
        q = cap / slope
        R = 1.0 - nu * cap - lam * q
        fit_lam, fit_nu = _fit_prices(cap, q, with_nu)
        fit_R = 1.0 - fit_nu * cap - fit_lam * q
        if fit_lam > 0.0 and fit_R @ fit_R < R @ R:
            lam, nu, R = fit_lam, fit_nu, fit_R
        return x, lam, nu, cap, slope, q, dq, R, 1.0 - x.sum(), 1.0 - cap.sum() / link_cap

    def merit(point, with_nu):
        """The squared residual norm at a point."""
        *_, R, gap_x, gap_cap = point
        return R @ R + gap_x * gap_x + (gap_cap * gap_cap if with_nu else 0.0)

    # Start at the equal split, nu = 0 and the lam fitted there.
    current = point(np.full(U, 1.0 / U), 0.0, 0.0, False)
    for _ in range(_KKT_STEPS):
        x, lam, nu, cap, slope, q, dq, R, gap_x, gap_cap = current
        with_nu = nu > 0.0 or gap_cap < 0.0
        if max(np.abs(R).max(), abs(gap_x), abs(gap_cap) if with_nu else 0.0) <= _KKT_TOL:
            return x, theta_over_U * lam, theta_over_U * nu
        k = nu * slope + lam * dq
        w = q / k
        # All slopes equal: H has rank one, and its diagonal is raised by 1e-12.
        h00, h01, h11 = w.sum() * (1.0 + 1e-12), w @ slope, (w @ slope ** 2) * (1.0 + 1e-12)
        R_k = R / k
        r0, r1 = R_k.sum() - gap_x, slope @ R_k - gap_cap * link_cap
        dlam, dnu = r0 / h00, 0.0
        if with_nu:
            det = h00 * h11 - h01 * h01
            dlam, dnu = (h11 * r0 - h01 * r1) / det, (h00 * r1 - h01 * r0) / det
            if nu == 0.0 and dnu < 0.0:
                # The cap's price would go negative: it stays at zero, and
                # the cap's row leaves this step.
                with_nu, dlam, dnu = False, r0 / h00, 0.0
        if dlam < -0.99 * lam:
            # Scaling the whole step to keep lam positive would freeze nu
            # while lam falls; dnu is refitted to the two linearized sums.
            dlam = -0.99 * lam
            if with_nu:
                L2 = link_cap * link_cap
                dnu = -((h00 * dlam - r0) * h01 + (h01 * dlam - r1) * h11 / L2) / (
                    h01 * h01 + h11 * h11 / L2)
        dx = (R - q * dlam - cap * dnu) / k
        current_merit = merit(current, with_nu)
        alpha = 1.0
        while alpha > 1e-12:
            trial = point(_positive_move(x, dx, alpha), lam + alpha * dlam,
                          max(nu + alpha * dnu, 0.0), with_nu)
            if merit(trial, with_nu) <= (1.0 - 1e-4 * alpha) ** 2 * current_merit:
                break
            alpha *= 0.5
        else:
            raise NumericError("P5's Newton search stalled")
        current = trial
    raise NumericError(f"P5's Newton search did not converge in {_KKT_STEPS} steps")


def _p5_at(scenario, budget, placement):
    """P5 at a placement, whose links are measured once at budget power:
    (state, links, (lam, nu)), the state at P5's split with the exact fill
    there, _links's answer and P5's prices in objective units (lam = 0
    where P5 is flat)."""
    cfg = scenario.config
    links = _links(scenario, budget, placement, cfg.p_max_user, cfg.p_max_obs, cfg.p_max_relay)
    c, _, _, link_cap = links
    one_m_rho = 1.0 - cfg.outage_target_rho
    x, *prices = _price_split(c, link_cap, one_m_rho, cfg.utility_theta / cfg.num_users_U)
    # Objective and caps are non-decreasing in every share, so the whole
    # bandwidth can always be handed out: rescale the split onto sum(x) = 1.
    x = x / x.sum()
    state = DecisionState(x=x, p_user=np.full(cfg.num_users_U, cfg.p_max_user),
                          p_obs=cfg.p_max_obs, p_relay=cfg.p_max_relay, placement=placement,
                          r_tilde=capped_fill(one_m_rho * _persp_rate(x, c), link_cap))
    return state, links, tuple(prices)


def solve_p5(scenario: Scenario, placement: UavPlacement,
             start: DecisionState, budget: LinkBudget | None = None) -> DecisionState:
    """Optimal bandwidth shares for pinned UAV positions.

    The returned powers sit exactly at their budgets: the objective and every
    constraint are non-decreasing in each power, so P5 fixes them there and
    optimizes the split alone, from P5's optimality conditions in its two
    prices (_price_split).  When P5 is flat (every user can reach the equal
    share of the backhaul) every split whose caps reach that share is
    optimal, and the least such shares, rescaled onto the whole bandwidth,
    are returned in closed form.  Effective rates are then re-filled against
    the exact rate caps.

    start is not read, as P5 is solved exactly; it stays for callers that bind
    it by name (the benchmark's P5 gain ratio reads its split and powers).
    """
    budget = budget if budget is not None else make_link_budget(scenario.config)
    return _p5_at(scenario, budget, placement)[0]


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
    """J*(q_obs), the state attaining it, and J*'s gradient and Hessian in q_obs."""

    objective: float
    state: DecisionState
    gradient: np.ndarray
    hessian: np.ndarray


def reduced_point(scenario: Scenario, budget: LinkBudget, q_obs,
                  relay: bool = True) -> ReducedPoint:
    """The reduced objective J*(q_obs): the exact-fill objective with the
    relay at its equal-hop point (equal_hop_placement), or with no relay
    when relay is False, and P5 solved there; with its gradient and Hessian.
    q moves J* through the users' rate constants c_u and the backhaul cap L.

    The gradient is Danskin's, P5's multipliers times the q_obs-gradients of
    the caps they price: sum_u mu_u dcap_u/dq + nu grad L, with
    mu_u = theta/(U r_u) - nu from stationarity in r_u.  Off a flat P5 every
    user sits at its cap, r_u = cap_u; on a flat one r_u = L/U and
    nu = theta/L, so mu = 0 and J* = theta ln L + const.

    Off a flat P5 the Hessian comes from implicit differentiation of P5's
    optimality conditions (Fiacco, Introduction to Sensitivity and Stability
    Analysis in Nonlinear Programming, 1983); it is NaN where they are
    singular.  With a_u, b_u, e_u the second derivatives of
    (theta/U) ln cap_u - nu cap_u in x_u x_u, x_u c_u and c_u c_u,
    stationarity moves each share by dx_u = (dlam + cap_u' dnu - b_u dc_u)/a_u;
    sum dx = 0 and, while nu > 0, sum dcap = dL give M (dlam, dnu) = R dq,
    M = sum_u [1, cap_u']^T [1, cap_u'] / a_u (M_00 and R's first row alone
    while nu = 0), and Hess J* = R^T M^-1 R + nu Hess L
    + sum_u (e_u - b_u^2/a_u) grad c_u grad c_u^T + dJ*/dc_u Hess c_u.
    """
    cfg = scenario.config
    if relay:
        placement, dD = equal_hop_placement(scenario, q_obs)
    else:    # the direct hop: D = (Hb - Ho)^2 + l^2
        placement = UavPlacement(q_obs)
        dD = 2.0 * math.hypot(*(placement.q_obs - scenario.gbs_pos_wb))
    state, (c, d2, hop_d2, link_cap), (lam, nu) = _p5_at(scenario, budget, placement)
    objective = average_utility(state.r_tilde, utility_params(cfg))
    # L = log2(1 + P/D) on the observation hop (to the relay or the GBS), D a
    # function of l = |q_obs - gbs|.  D'' is 2 on the direct hop, and
    # 2 s'^2 + 2 s s'' along the relay's offset s = t l, where
    # p_obs (a^2 + (l - s)^2) = p_relay (b^2 + s^2).  A relay at an end
    # leaves L constant (dD = 0).
    grad_L, hess_L = np.zeros(2), np.zeros((2, 2))
    if dD:
        away = placement.q_obs - scenario.gbs_pos_wb
        l, d2D = math.hypot(*away), 2.0
        if placement.q_relay is not None:
            p_o, p_r = cfg.p_max_obs, cfg.p_max_relay
            s = math.hypot(*(placement.q_relay - placement.q_obs))
            den = p_o * (l - s) + p_r * s
            ds = p_o * (l - s) / den
            d2D = 2.0 * ds * ds + 2.0 * s * (p_o * (1.0 - ds) ** 2 - p_r * ds * ds) / den
        P, D = cfg.p_max_obs * budget.mu0, hop_d2[0]
        L_D, L_DD = -P / (D * (D + P) * LN2), P * (2.0 * D + P) / ((D * (D + P)) ** 2 * LN2)
        u = away / l
        grad_L = L_D * dD * u
        hess_L = ((L_DD * dD * dD + L_D * d2D - L_D * dD / l) * np.outer(u, u)
                  + (L_D * dD / l) * np.eye(2))
    if lam == 0.0:      # flat
        hess = cfg.utility_theta * (hess_L - np.outer(grad_L, grad_L) / link_cap) / link_cap
        return ReducedPoint(objective, state, nu * grad_L, hess)

    # cap_u = (1-rho) x log2(1 + c_u/x) with c_u proportional to 1/d2_u.
    tau, x = cfg.utility_theta / cfg.num_users_U, state.x
    cap, slope, _ = _share_terms(x, c, 1.0 - cfg.outage_target_rho)
    k, xc = (1.0 - cfg.outage_target_rho) / LN2, x + c
    cap_c, cap_cc, cap_xc = k * x / xc, -k * x / (xc * xc), k * c / (xc * xc)
    offsets = placement.q_obs - scenario.agu_pos_wu
    grad_c = (-2.0 * c / d2)[:, None] * offsets
    mu = tau / state.r_tilde - nu
    gradient = (mu * cap_c) @ grad_c + nu * grad_L
    a = -mu * cap_xc * c / x - tau * (slope / cap) ** 2
    b = mu * cap_xc - tau * slope * cap_c / (cap * cap)
    e = mu * cap_cc - tau * (cap_c / cap) ** 2
    # Hess c_u = c_u (8 o o^T / d2^2 - 2 I / d2), o the user's offset.
    m, b_a, inv_a = mu * cap_c * c / d2, b / a, 1.0 / a
    hess = (((e - b * b_a)[:, None] * grad_c).T @ grad_c
            + 8.0 * ((m / d2)[:, None] * offsets).T @ offsets - 2.0 * m.sum() * np.eye(2))
    R = np.array([b_a @ grad_c, grad_L - (cap_c - slope * b_a) @ grad_c])
    m00, m01, m11 = inv_a.sum(), slope @ inv_a, (slope * slope) @ inv_a
    det = m00 * m11 - m01 * m01
    if nu == 0.0:       # the cap's row is out
        hess = hess + np.outer(R[0], R[0]) / m00
    elif det > 0.0:
        hess = hess + nu * hess_L + R.T @ np.array([[m11, -m01], [-m01, m00]]) @ R / det
    else:               # every cap' equal: M is singular
        hess = np.full((2, 2), np.nan)
    return ReducedPoint(objective, state, gradient, hess)


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
    """The SCA constants at expansion for the given resources.  A share that
    is not positive raises ValueError, a zero-length hop InfeasibleProblem."""
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
        raise InfeasibleProblem("degenerate zero-distance backhaul link")
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
    warm: WarmStart | None = None    # the surrogate solve's report.warm
    status: str = "converged"        # the surrogate solve's report.status


def placement_extent(cfg: SystemConfig) -> float:
    """Half-side (metres) of the box P7 keeps every UAV coordinate in."""
    return 4.0 * max(cfg.network_size_D, cfg.area_side)


@lru_cache(maxsize=16)
def _p7_layout(U, K):
    """The parts of P7 fixed by U and the chain's K UAVs, read-only:
    (moves, signs, local, on_r).

    Each row's offset is linear in the UAV coordinates: a user row's is the
    observation UAV minus the user, hop k's the node it feeds (UAV k+1, or
    the fixed GBS after the last UAV) minus UAV k.  moves[a, i] is row i's
    sign on UAV a; these give each row's gradient on the border and its
    Hessian there, a constant: -2 quad times the outer product of its signs,
    on each coordinate (entry (2a + c, 2b + c) for UAVs a, b), whose
    flattened pattern is signs.  local and on_r are the Jacobian's entries
    on r: -1 for user u's r_u, -1 for every r on each hop's row.
    """
    nb = 2 * K
    moves = np.zeros((K, U + K))
    moves[0, :U] = 1.0
    moves[:, U:] = np.eye(K, k=-1) - np.eye(K)
    per_row = moves.T                                    # (U + K, K)
    signs = per_row[:, :, None, None, None] * per_row[:, None, None, :, None] * np.eye(2)[:, None, :]
    layout = (moves, signs.reshape(U + K, nb * nb), np.full(U, -1.0), np.full((K, U), -1.0))
    for part in layout:
        part.flags.writeable = False
    return layout


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

    ku = one_m_rho * x * coeffs.d_user * S2
    base_u = one_m_rho * x * (coeffs.c_user + coeffs.d_user * coeffs.dist2_user)
    kh = coeffs.d_hop * S2
    base_h = coeffs.c_hop + coeffs.d_hop * coeffs.dist2_hop

    moves, signs, local, on_r = _p7_layout(U, K)
    anchors = np.zeros((2, U + K))
    anchors[:, :U] = w_users.T
    anchors[:, -1] = -w_gbs
    base = np.concatenate([base_u, base_h])
    quad = np.concatenate([ku, kh])                      # quadratic weights
    slopes = -2.0 * quad
    row_hessians = slopes[:, None] * signs

    # The offsets of the last constraints call, keyed by its UAV coordinates:
    # the solver asks for the Jacobian at the trial it has just accepted.
    last = [None, None]

    def offsets(v):
        """Every row's offset at v, (2, U + K): x, then y, in solver units."""
        key = v[:nb].tobytes()
        if key != last[0]:
            last[:] = key, v[:nb].reshape(K, 2).T @ moves - anchors
        return last[1]

    def constraints(v):
        squares = offsets(v)
        squares = squares * squares
        g = base - quad * (squares[0] + squares[1])
        r = v[sr]
        g[:U] -= r
        g[U:] -= r.sum()
        return g

    # Local rows: user u's link touches the observation UAV (the border) and
    # r_u, its block.  Coupling rows: the hops against sum r.
    def constraint_jac(v):
        on_border = (moves[:, None] * (slopes * offsets(v))).reshape(nb, U + K)
        coupling = np.concatenate((on_border[:, U:].T, on_r), axis=1)
        return BlockJacobian(local, coupling, on_border[:, :U])

    def curvature(v, w):
        diag = np.zeros(n)
        r = v[sr]
        diag[sr] = -theta_over_U / (r * r)
        return BlockCurvature(diag, border=(w @ row_hessians).reshape(nb, nb))

    extent = placement_extent(cfg) / _POS_SCALE
    lower = np.concatenate([np.full(nb, -extent), np.zeros(U)])
    upper = np.concatenate([np.full(nb, extent), base_u + 1.0])
    program = ConcaveProgram(n=n, objective=objective, gradient=gradient,
                             constraints=constraints, constraint_jac=constraint_jac,
                             lower=lower, upper=upper, curvature=curvature, border=nb,
                             name="p7")
    # The start fills 0.9 of the rates at the expansion point, where the
    # bounds are tight: lower_bound_rates there is (x c_user, c_hop).
    r0 = 0.9 * capped_fill(one_m_rho * (x * coeffs.c_user), float(np.min(coeffs.c_hop)))
    return program, np.concatenate([np.concatenate(coeffs.expansion.uavs) / _POS_SCALE, r0])


def solve_p7(scenario: Scenario, state: DecisionState, budget: LinkBudget | None = None,
             tol: float | None = None, warm: WarmStart | None = None) -> P7Result:
    """One SCA placement step from state's placement q_i at state's resources.

    state holds its exact fill in r_tilde, as every state the package
    returns does; the objective at q_i is read off it.  The step moves the
    UAVs of q_i's chain and never lowers the exact-rate objective.

    The candidates are the surrogate's solved point q*, then
    q_i + 2^j (q* - q_i) for j = 1, 2, ...: a candidate is kept while it
    strictly raises the exact objective, lies strictly inside P7's box and
    has no zero-length hop (its fill raises InfeasibleProblem), and the last
    one kept is returned, so the UAVs may end past the surrogate's optimum.
    With none kept, or no surrogate at q_i, q_i comes back with stalled=True.
    Far from q_i the surrogate's first-order rate bounds are conservative,
    and each candidate is one O(U log U) rate fill where a P7 solve takes
    tens of Newton steps.  lb_objective is the solve's surrogate value, below
    the exact objective at q* and hence at the returned placement.  tol is
    the surrogate solve's gap tolerance, sca_tol by default.  warm, the
    previous step's P7Result.warm, warm-starts the surrogate solve (see
    solve_concave), and the result carries this solve's own for the next,
    and its status ("converged" where no surrogate was solved).
    """
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    q_i, resources = state.placement, (state.x, state.p_user, state.p_obs, state.p_relay)
    best = average_utility(state.r_tilde, utility_params(cfg))
    coeffs = sca_coefficients(scenario, *resources, q_i, budget)
    try:
        program, v0 = _p7_program(scenario, coeffs, state.x)
    except InfeasibleProblem:
        return P7Result(q_i, state.r_tilde, True, best, best)
    report = solve_concave(program, v0, cfg.sca_tol if tol is None else tol, warm=warm)
    result = P7Result(q_i, state.r_tilde, True, report.objective, best, report.warm,
                      report.status)

    origin = np.concatenate(q_i.uavs)
    coords = report.solution[:len(origin)] * _POS_SCALE
    move, scale = coords - origin, 1.0
    extent = placement_extent(cfg)
    # A kept candidate is the next P7's expansion point: strictly inside
    # P7's box, and expandable.
    while np.abs(coords).max() < extent:
        candidate = UavPlacement(*coords.reshape(-1, 2))
        try:
            obj, r = exact_fill_objective(scenario, budget, *resources, candidate)
        except InfeasibleProblem:
            break
        # Strict ascent: with slack constraints barrier centering can move
        # the UAVs without touching the objective, and such drift must not loop.
        if not obj > best:
            break
        result = P7Result(candidate, r, False, report.objective, obj, report.warm,
                          report.status)
        best, scale = obj, 2.0 * scale
        coords = origin + scale * move
    return result
