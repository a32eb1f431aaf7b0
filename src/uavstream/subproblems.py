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
which gives the objective J*(q_obs) and its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import LinkBudget, _persp_rate, fspl_rate, rician_cdf_inverse
from .convex_core import (BlockCurvature, BlockJacobian, ConcaveProgram, NumericError,
                          solve_concave)
from .scenario import (Scenario, SystemConfig, UavPlacement, backhaul_chain, hop_dist2,
                       hop_offsets)
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
        """Raise ValueError unless the state is feasible (a NaN fails every check)."""
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
    outage-constrained user caps and backhaul caps.
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

def _p5_constants(scenario, budget, placement):
    """The users' rate constants c_u at full power, with cap_u(x) =
    (1-rho) x log2(1 + c_u/x), and the backhaul cap.  A zero-length hop
    raises InfeasibleProblem before any rate is evaluated."""
    cfg = scenario.config
    if hop_dist2(scenario, placement).min() == 0.0:
        raise InfeasibleProblem("degenerate zero-distance backhaul link")
    c = user_rate_coeffs(scenario, budget, placement.q_obs) * cfg.p_max_user
    return c, backhaul_cap(scenario, budget, cfg.p_max_obs, cfg.p_max_relay, placement)


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
    since the caps are concave."""
    s = c / x
    log_term, frac = np.log1p(s), s / (1.0 + s)
    scale = one_m_rho / LN2
    cap = scale * x * log_term
    slope = scale * (log_term - frac)
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


def _p5_split(scenario, budget, placement):
    """P5's optimal split at full power, and its prices: (x, lam, nu), the
    multipliers of sum x <= 1 and of the backhaul cap in the objective's
    units (_price_split; lam = 0 where P5 is flat)."""
    cfg = scenario.config
    c, link_cap = _p5_constants(scenario, budget, placement)
    x, lam, nu = _price_split(c, link_cap, 1.0 - cfg.outage_target_rho,
                              cfg.utility_theta / cfg.num_users_U)
    # Objective and caps are non-decreasing in every share, so the whole
    # bandwidth can always be handed out: rescale the split onto sum(x) = 1.
    return x / x.sum(), lam, nu


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
    cfg = scenario.config
    budget = budget if budget is not None else make_link_budget(cfg)
    x = _p5_split(scenario, budget, placement)[0]
    p_user = np.full(cfg.num_users_U, cfg.p_max_user)
    r_tilde = exact_fill_objective(scenario, budget, x, p_user,
                                   cfg.p_max_obs, cfg.p_max_relay, placement)[1]
    return DecisionState(x=x, p_user=p_user, p_obs=cfg.p_max_obs,
                         p_relay=cfg.p_max_relay, placement=placement, r_tilde=r_tilde)


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


def reduced_point(scenario: Scenario, budget: LinkBudget, q_obs,
                  relay: bool = True) -> ReducedPoint:
    """The reduced objective J*(q_obs): the exact-fill objective with the
    relay at its equal-hop point (equal_hop_placement), or with no relay
    when relay is False, and P5 solved there.

    Its gradient is Danskin's, P5's multipliers times the q_obs-gradients of
    the caps they price: sum_u mu_u dcap_u/dq + nu dlink_cap/dq, with
    mu_u = theta/(U r_u) - nu from stationarity in r_u.  Off a flat P5 every
    user sits at its cap, r_u = cap_u; on a flat one r_u = link_cap/U and
    nu = theta/link_cap, so mu = 0.
    """
    cfg = scenario.config
    if relay:
        placement, dD_dl = equal_hop_placement(scenario, q_obs)
    else:    # the direct hop: D = (Hb - Ho)^2 + l^2
        placement = UavPlacement(q_obs)
        dD_dl = 2.0 * math.hypot(*(placement.q_obs - scenario.gbs_pos_wb))
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
        # link_cap = log2(1 + P/D) on the observation hop (to the relay or
        # the GBS), D a function of l.
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

    def offsets(v):
        """Every row's offset at v, (2, U + K): x, then y, in solver units."""
        return v[:nb].reshape(K, 2).T @ moves - anchors

    def constraints(v):
        squares = offsets(v)
        squares *= squares
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
             fill_at_qi: tuple | None = None, tol: float | None = None) -> P7Result:
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
    tol is the surrogate solve's gap tolerance, sca_tol by default.
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
    report = solve_concave(program, v0, cfg.sca_tol if tol is None else tol)

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
