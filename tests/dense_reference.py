"""Dense reference for convex_core's block-form callbacks and Newton step,
and an interior-point reference for P5.

The solver takes every Newton step in block form.  The tests check those
steps, and the block-form callbacks, against the dense matrices built here,
with no call into the block solve.  Generic programs written with dense
callbacks declare border = n: no blocks, every variable in the border and
every row a coupling row (border_only).

p5_program states the resource step P5 as such a program, so that
convex_core's solve checks subproblems' closed-form P5 independently.
nested_price_split is the earlier closed form of a non-flat P5, damped
Newton on its two prices with every share solved exactly at each price
pair, kept as a reference for the one Newton loop that replaced it.
"""

from unittest import mock

import numpy as np

from uavstream import subproblems
from uavstream.channel import _persp_rate
from uavstream.convex_core import (BlockCurvature, BlockJacobian, ConcaveProgram, NumericError,
                                   solve_concave)
from uavstream.subproblems import (LN2, _links, _log_utility, _price_split, capped_fill,
                                   exact_fill_objective, solve_p5)


def border_only(n, constraint_jac, curvature, **fields):
    """A ConcaveProgram from dense callbacks: constraint_jac(v) -> (m, n) and
    curvature(v, w) -> (n, n).  fields are the remaining ConcaveProgram
    fields."""
    no_local, no_border_part, zero_diag = np.zeros(0), np.zeros((n, 0)), np.zeros(n)

    def jac(v):
        J = np.asarray(constraint_jac(v), dtype=float).reshape(-1, n)
        return BlockJacobian(no_local, J, no_border_part)

    def curv(v, w):
        return BlockCurvature(zero_diag, np.asarray(curvature(v, w), dtype=float))

    return ConcaveProgram(n=n, constraint_jac=jac, curvature=curv, border=n, **fields)


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def _slope_gap(s):
    """ln(1 + s) - s/(1 + s) for s >= 0.  Below s = 0.1, where the
    difference cancels, it is the integral s^2 int_0^1 tau/(1 + s tau)^2 dtau
    by 20-point Gauss-Legendre, exact to rounding there."""
    s = np.asarray(s, dtype=float)
    tau = 0.5 * (_NODES + 1.0)
    small = np.minimum(s, 0.1)
    integral = 0.5 * small * small * (_WEIGHTS * tau / (1.0 + small[..., None] * tau) ** 2).sum(-1)
    return np.where(s < 0.1, integral, np.log1p(s) - s / (1.0 + s))


def _persp_ratio(x, c):
    """c/x, with the overflow region (c/x = inf or > 1e280) flagged."""
    with np.errstate(over="ignore", divide="ignore"):
        s = np.where(c > 0, c / x, 0.0)
    return s, ~np.isfinite(s) | (s > 1e280)


def _persp_dx(x, c):
    """First derivative of the perspective rate x*log2(1 + c/x) in x."""
    x = np.asarray(x, dtype=float)
    s, big = _persp_ratio(x, c)
    log_term = np.log(np.where(big, c, 1.0)) - np.log(x)
    return np.where(big, log_term - 1.0, _slope_gap(np.where(big, 0.0, s))) / LN2


def _persp_dxx(x, c):
    """Second derivative of the perspective rate x*log2(1 + c/x) in x."""
    s, big = _persp_ratio(x, c)
    s = np.where(big, 1e280, s)
    return -(s * s) / (x * (1.0 + s) ** 2 * LN2)


def p5_constants(scenario, budget, placement):
    """_price_split's arguments for P5 at placement: (c, link_cap, 1 - rho,
    theta/U), c the users' rate constants at full power (cap_u(x) =
    (1-rho) x log2(1 + c_u/x)) and link_cap the backhaul cap.  P5 is flat
    where _price_split(*p5_constants(...))[1], its lam, is zero."""
    cfg = scenario.config
    c, _, _, link_cap = _links(scenario, budget, placement, cfg.p_max_user, cfg.p_max_obs,
                               cfg.p_max_relay)
    return c, link_cap, 1.0 - cfg.outage_target_rho, cfg.utility_theta / cfg.num_users_U


def p5_program(scenario, budget, placement, x_start):
    """P5 at full powers as a border-only program, and a strictly interior
    start near the split x_start.

    Variables (x_u, r_u).  Rows: each user's outage-constrained cap against
    r_u, then the bandwidth sum and the backhaul cap (the weakest hop at
    full power) against sum r.
    """
    cfg = scenario.config
    c, link_cap, one_m_rho, theta_over_U = p5_constants(scenario, budget, placement)
    U = cfg.num_users_U
    x0 = np.maximum(x_start, 1e-6 / U)
    if x0.sum() > 1.0 - 1e-6:
        x0 = x0 * (1.0 - 1e-6) / x0.sum()
    caps0 = one_m_rho * _persp_rate(x0, c)
    n = 2 * U
    sx, sr = slice(0, U), slice(U, n)
    objective, gradient = _log_utility(scenario, sr)
    idx = np.arange(U)

    def constraints(v):
        g = np.empty(U + 2)
        g[:U] = one_m_rho * _persp_rate(v[sx], c) - v[sr]
        g[U] = 1.0 - v[sx].sum()
        g[U + 1] = link_cap - v[sr].sum()
        return g

    def constraint_jac(v):
        J = np.zeros((U + 2, n))
        J[idx, idx] = one_m_rho * _persp_dx(v[sx], c)
        J[idx, U + idx] = -1.0
        J[U, sx] = -1.0
        J[U + 1, sr] = -1.0
        return J

    def curvature(v, w):
        diag = np.empty(n)
        diag[sx] = w[:U] * one_m_rho * _persp_dxx(v[sx], c)
        diag[sr] = -theta_over_U / v[sr] ** 2
        return np.diag(diag)

    r_hi = one_m_rho * _persp_rate(np.ones(U), c) + 1.0
    program = border_only(n, constraint_jac, curvature, objective=objective,
                          gradient=gradient, constraints=constraints, lower=np.zeros(n),
                          upper=np.concatenate([np.ones(U), r_hi]), name="p5")
    return program, np.concatenate([x0, 0.9 * capped_fill(caps0, link_cap)])


def p5_reference_objective(scenario, budget, placement, x_start):
    """The exact-fill objective at convex_core's solve of p5_program, with the
    split rescaled onto sum x = 1 as solve_p5 rescales its own."""
    cfg = scenario.config
    U = cfg.num_users_U
    program, v0 = p5_program(scenario, budget, placement, x_start)
    x = np.clip(solve_concave(program, v0, cfg.sca_tol).solution[:U], 1e-12, 1.0)
    return exact_fill_objective(scenario, budget, x / x.sum(), np.full(U, cfg.p_max_user),
                                cfg.p_max_obs, cfg.p_max_relay, placement)[0]


def check_p5_closed_form(scenario, budget, placement, start):
    """Assert that solve_p5 answers P5 at placement with no convex_core solve,
    at least as well as the reference (to 1e-9 relative), and, unless P5 is
    flat, that _price_split's answer meets P5's KKT conditions
    (assert_p5_kkt)."""
    cfg = scenario.config
    with mock.patch.object(subproblems, "solve_concave",
                           side_effect=AssertionError("P5 must not call the solver")):
        out = solve_p5(scenario, placement, start, budget)
    obj, _ = exact_fill_objective(scenario, budget, out.x, out.p_user, cfg.p_max_obs,
                                  cfg.p_max_relay, placement)
    ref = p5_reference_objective(scenario, budget, placement, start.x)
    assert obj >= ref - 1e-9 * max(1.0, abs(ref))

    args = p5_constants(scenario, budget, placement)
    x, lam, nu = _price_split(*args)
    if lam > 0.0:
        assert_p5_kkt(*args, x, lam, nu)


def assert_p5_kkt(c, link_cap, one_m_rho, theta_over_U, x, lam, nu):
    """Assert that a non-flat P5 answer (x, lam, nu) meets P5's KKT
    conditions: lam > 0, nu >= 0, sum x = 1, the backhaul cap met and
    nu (C - sum cap) <= 1e-10 C, and each user's stationarity
    (theta/U) cap'/cap = lam + nu cap' to 1e-10 relative."""
    cap = one_m_rho * _persp_rate(x, c)
    slope = one_m_rho * _persp_dx(x, c)
    assert lam > 0.0 and nu >= 0.0
    assert abs(x.sum() - 1.0) <= 1e-10
    assert cap.sum() <= link_cap * (1.0 + 1e-10)
    assert nu * abs(link_cap - cap.sum()) <= 1e-10 * link_cap
    marginal = theta_over_U * slope / cap
    assert np.max(np.abs(marginal - nu * slope - lam) / marginal) <= 1e-10


def _nested_share_terms(x, c, one_m_rho, nu):
    """(cap, cap', h'') at the shares x > 0 for the price nu, with
    h = ln cap - lam x - nu cap."""
    s = c / x
    frac = s / (1.0 + s)
    scale = one_m_rho / LN2
    cap = scale * x * np.log1p(s)
    slope = scale * _slope_gap(s)
    curv = -scale * frac ** 2 / x * (1.0 / cap - nu) - (slope / cap) ** 2
    return cap, slope, curv


def _nested_shares(c, one_m_rho, lam, nu, x):
    """Each user's share maximizing h_u(x) = ln cap_u(x) - lam x - nu cap_u(x)
    at the prices lam > 0, nu >= 0, with (cap_u, cap_u', -1/h_u'') there:
    Newton from the warm start x inside the bracket [0, 1/lam], bisecting
    whenever a step leaves the bracket or h_u'' >= 0."""
    lo, hi = np.zeros_like(x), np.full_like(x, 1.0 / lam)
    x = np.where(x < hi, x, 0.5 * hi)
    for _ in range(100):
        cap, slope, curv = _nested_share_terms(x, c, one_m_rho, nu)
        grad = slope * (1.0 / cap - nu) - lam
        lo, hi = np.where(grad > 0.0, x, lo), np.where(grad < 0.0, x, hi)
        newton = x - grad / curv
        step = np.where((curv < 0.0) & (newton >= lo) & (newton <= hi),
                        newton, 0.5 * (lo + hi)) - x
        if np.all(np.abs(step) <= 1e-13 * x):
            return x, cap, slope, -1.0 / curv
        x = x + step
    raise NumericError("P5's share search did not converge")


def nested_price_split(c, link_cap, one_m_rho, theta_over_U):
    """A non-flat P5's split and prices (x, lam, nu) as _price_split returns
    them, by the nested loop: damped Newton on the convex dual
    D(lam, nu) = sum_u max_x h_u(x) + lam + nu link_cap, each evaluation
    solving every share exactly (_nested_shares), with nu projected onto
    nu >= 0, lam floored at a hundredth of its value and Armijo on D.
    Raises NumericError where the search stalls."""
    U = len(c)
    x = np.full(U, 1.0 / U)
    cap, slope, _ = _nested_share_terms(x, c, one_m_rho, 0.0)
    prices = np.array([float(np.sum(x * slope / cap)), 0.0])
    total = np.array([1.0, link_cap])

    def dual(p, x):
        x, cap, slope, w = _nested_shares(c, one_m_rho, p[0], p[1], x)
        return float(np.log(cap).sum() + p @ (total - [x.sum(), cap.sum()])), x, cap, slope, w

    current = dual(prices, x)
    for _ in range(50):
        value, x, cap, slope, w = current
        grad = total - [x.sum(), cap.sum()]
        free = np.array([True, prices[1] > 0.0 or grad[1] < 0.0])
        if np.all(np.abs(grad[free]) <= 1e-12 * total[free]):
            return x, theta_over_U * prices[0], theta_over_U * prices[1]
        hess = np.array([[w.sum(), w @ slope], [w @ slope, w @ slope ** 2]])
        hess[np.diag_indices(2)] *= 1.0 + 1e-12
        step = np.zeros(2)
        step[free] = -np.linalg.solve(hess[np.ix_(free, free)], grad[free])
        floor = np.array([0.01 * prices[0], 0.0])
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
    raise NumericError("P5's price search did not converge in 50 steps")


def dense_jacobian(J):
    """The (m, n) matrix of a BlockJacobian."""
    b, nb = J.border_part.shape
    D = np.zeros((nb + len(J.coupling), b + nb))
    D[np.arange(nb), b + np.arange(nb)] = J.local
    D[:nb, :b] = J.border_part.T
    D[nb:] = J.coupling
    return D


def dense_curvature(border, C):
    """The (n, n) matrix of a BlockCurvature whose border is the first
    border variables."""
    H = np.diag(C.diag)
    H[:border, :border] += C.border
    return H


def border_only_twin(program):
    """The same program through dense callbacks, as a border-only program."""
    jac, curvature, b = program.constraint_jac, program.curvature, program.border
    return border_only(program.n, lambda v: dense_jacobian(jac(v)),
                       lambda v, w: dense_curvature(b, curvature(v, w)),
                       objective=program.objective, gradient=program.gradient,
                       constraints=program.constraints, lower=program.lower,
                       upper=program.upper, name=program.name)


def dense_newton_matrix(program, v, g, w, box):
    """The Newton matrix at v: the Gauss-Newton part of the constraint terms
    (weights w/g), the box diagonal, and minus the program's curvature."""
    J = dense_jacobian(program.constraint_jac(v))
    H = (J.T * (w / g)) @ J
    H[np.diag_indices_from(H)] += box
    H -= dense_curvature(program.border, program.curvature(v, w))
    return H


def dense_step(H, rhs):
    """The Newton step H^{-1} rhs by Cholesky, H positive definite (LinAlgError
    otherwise)."""
    L = np.linalg.cholesky(H)
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def interior(program, v, margin=0.0):
    """Whether v lies strictly inside the box and every constraint row, by margin."""
    if np.any(v <= program.lower + margin) or np.any(v >= program.upper - margin):
        return False
    g = np.atleast_1d(program.constraints(v))
    return bool(np.all(np.isfinite(g)) and np.all(g > margin))


def _shrunk_toward(program, v0, target):
    """The first of v0 + 2^-i (target - v0), i = 0..20, strictly interior by
    1e-12, or None."""
    lam = 1.0
    v = v0 + lam * (target - v0)
    while lam > 1e-6 and not interior(program, v, margin=1e-12):
        lam *= 0.5
        v = v0 + lam * (target - v0)
    return v if interior(program, v, margin=1e-12) else None


def random_interior_points(program, v0, rng, count):
    """count points on segments from v0 toward random box points, shrunk
    until interior."""
    points = []
    while len(points) < count:
        v = _shrunk_toward(program, v0, rng.uniform(program.lower, program.upper))
        if v is not None:
            points.append(v)
    return points


def check_gradients(program, reference_point, rng=None, n_points=100, step=1e-6):
    """Max relative error of the gradient and Jacobian callbacks against
    central differences.

    Points are sampled on segments from the strictly interior reference point
    toward n_points random box points, shrunk until they stay interior.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    v0 = np.asarray(reference_point, dtype=float)
    if not interior(program, v0):
        raise ValueError("reference_point must be strictly interior")
    worst = 0.0
    for _ in range(n_points):
        v = _shrunk_toward(program, v0, rng.uniform(program.lower, program.upper))
        if v is not None:
            worst = max(worst, _point_gradient_error(program, v, step))
    return worst


def _point_gradient_error(program, v, step):
    grad = np.asarray(program.gradient(v), dtype=float)
    J = dense_jacobian(program.constraint_jac(v))
    m = len(J)
    worst = 0.0
    for i in range(program.n):
        h = step * max(1.0, abs(v[i]))
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        fd_obj = (program.objective(vp) - program.objective(vm)) / (2 * h)
        denom = max(1e-8, abs(fd_obj), abs(grad[i]))
        worst = max(worst, abs(fd_obj - grad[i]) / denom)
        if m:
            fd_con = (np.atleast_1d(program.constraints(vp))
                      - np.atleast_1d(program.constraints(vm))) / (2 * h)
            for j in range(m):
                denom = max(1e-8, abs(fd_con[j]), abs(J[j, i]))
                worst = max(worst, abs(fd_con[j] - J[j, i]) / denom)
    return worst
