"""The benchmark schemes, each a straight run of stages (_STAGES) from its start.

relay_baseline keeps the start, and resource_only solves the resource
subproblem (P5) there once.  position_only takes SCA placement steps (P7) at
the equal split until they stall.  joint then ascends the reduced objective
J*(q_obs) over the observation UAV, with P5 solved and the relay at its
equal-hop point at every q_obs; no_relay ascends J* alone, on the one-hop
chain from the user centroid.  Every scheme reports the same exact-rate
objective.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkBudget
from .convex_core import NumericError
from .scenario import Scenario, UavPlacement
from .subproblems import (DecisionState, InfeasibleProblem, exact_fill_objective,
                          make_link_budget, placement_extent, reduced_point,
                          solve_p5, solve_p7, utility_params)
from .utility import average_utility

_TR_SHRINK, _TR_GROW = 0.25, 0.75   # gain ratios that shrink and grow the trust region
_TR_ACCEPT = 1e-4                   # gain ratio above which a trial point is accepted
_TR_BISECTIONS = 100                # most halvings of the trust-region step's bisection
_SCA_KAPPA = 1e-4      # P7 tolerance per unit of the last accepted placement gain


@dataclass
class IterationRecord:
    iteration: int
    exact_objective: float
    lower_bound_objective: float


@dataclass
class IterationTrace:
    records: list = field(default_factory=list)

    def add(self, iteration, exact, lower_bound):
        self.records.append(IterationRecord(iteration, float(exact), float(lower_bound)))

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


def initialize_state(scenario: Scenario, budget: LinkBudget | None = None,
                     relay: bool = True) -> DecisionState:
    """Heuristic start: observation UAV at the user centroid, relay midway to
    the GBS (no relay, the one-hop chain, if not relay), equal bandwidth, all
    powers at their budgets, and the exact fill there in r_tilde."""
    budget = budget if budget is not None else make_link_budget(scenario.config)
    cfg = scenario.config
    q_obs = scenario.agu_pos_wu.mean(axis=0)
    placement = UavPlacement(q_obs, 0.5 * (q_obs + scenario.gbs_pos_wb) if relay else None)
    U = cfg.num_users_U
    x, p_user = np.full(U, 1.0 / U), np.full(U, cfg.p_max_user)
    r_tilde = exact_fill_objective(scenario, budget, x, p_user, cfg.p_max_obs,
                                   cfg.p_max_relay, placement)[1]
    return DecisionState(x=x, p_user=p_user, p_obs=cfg.p_max_obs, p_relay=cfg.p_max_relay,
                         placement=placement, r_tilde=r_tilde)


def _start(scenario, state: DecisionState, scheme: str) -> SchemeResult:
    """A zero-iteration result at state, whose r_tilde holds its exact fill."""
    obj = average_utility(state.r_tilde, utility_params(scenario.config))
    trace = IterationTrace()
    trace.add(0, obj, obj)
    return SchemeResult(scheme, state, obj, trace, 0, True)


def _placement_run(scenario, budget, result: SchemeResult) -> SchemeResult:
    """SCA placement steps (P7) from result (a zero-iteration one, from
    _start) at its split, one trace record each, until a step stalls or
    gains less than bcd_tol; unconverged after max_bcd_iters steps, or if
    any P7 solve spent its Newton step budget (status max_iters).

    Each P7 is solved to max(sca_tol, _SCA_KAPPA * gain), gain being the
    exact-objective gain of the run's last accepted step (|objective| before
    the first): a surrogate needs solving only as tightly as the steps still
    gain, and late steps are solved tightly.  Each P7 solve is warm-started
    from an iterate of the previous one's path (solve_p7's warm)."""
    cfg = scenario.config
    state, obj, gain, warm, capped = result.state, result.avg_utility, None, None, False
    for step in range(1, cfg.max_bcd_iters + 1):
        scale = abs(obj) if gain is None else gain
        p7 = solve_p7(scenario, state, budget, max(cfg.sca_tol, _SCA_KAPPA * scale), warm)
        warm, capped = p7.warm, capped or p7.status == "max_iters"
        state = dataclasses.replace(state, placement=p7.placement, r_tilde=p7.r_tilde)
        result.trace.add(step, p7.exact_objective, p7.lb_objective)
        converged = p7.exact_objective - obj < cfg.bcd_tol
        if not p7.stalled:
            gain = p7.exact_objective - obj
        obj = p7.exact_objective
        if converged:
            break
    return dataclasses.replace(result, state=state, avg_utility=obj, iterations=step,
                               converged=converged and not capped)


def _trust_step(g, hess, radius):
    """The step s, |s| <= radius, that maximizes the model g.s + s.H s / 2,
    and its gain, exactly in two dimensions (Moré and Sorensen, "Computing a
    trust region step", 1983); a non-finite H is taken as zero.  With H's
    eigenvalues h_i and g's components gamma_i in its eigenbasis,
    s_i = gamma_i / (sigma - h_i) for the least sigma >= max(h_top, 0) whose
    step fits (by bisection on sigma - max(h_top, 0)).  Where h_top > 0 and
    that step falls short of the radius (the hard case, as at a saddle where
    g = 0), it is filled to the radius along the top eigenvector."""
    if not np.isfinite(hess).all():
        hess = np.zeros((2, 2))
    eig, vec = np.linalg.eigh(hess)
    (g0, g1), (h0, h1) = vec.T @ g, eig
    b0, b1 = max(h1, 0.0) - h0, max(h1, 0.0) - h1
    newton_fits = b1 > 0.0 and math.hypot(g0 / b0, g1 / b1) <= radius
    lo, hi = 0.0, 0.0 if newton_fits else math.hypot(g0, g1) / radius
    for _ in range(_TR_BISECTIONS):    # on t = sigma - max(h_top, 0) in (lo, hi]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if math.hypot(g0 / (b0 + mid), g1 / (b1 + mid)) > radius:
            lo = mid
        else:
            hi = mid
    s0, s1 = (g0 / (b0 + hi), g1 / (b1 + hi)) if b1 + hi > 0.0 else (0.0, 0.0)
    if h1 > 0.0:        # the hard case, if the step falls short of the radius
        s1 += math.copysign(math.sqrt(max(radius * radius - s0 * s0 - s1 * s1, 0.0)), g1)
    return vec @ (s0, s1), g0 * s0 + g1 * s1 + 0.5 * (h0 * s0 * s0 + h1 * s1 * s1)


def _kink_fraction(point, trial, step):
    """The fraction of step at which J*'s linear models at point and at
    trial meet, clipped to [0.1, 0.5]: where J* is nearly linear on each
    side of a kink between the two (as where sum cap_u = L), the kink.
    0.25 where the models do not close along the step (the trial's slope
    along it is not below the point's)."""
    g0, gt = point.gradient @ step, trial.gradient @ step
    if not g0 > gt:
        return 0.25
    return min(max((trial.objective - gt - point.objective) / (g0 - gt), 0.1), 0.5)


def _reduced_ascent(scenario, budget, result: SchemeResult) -> SchemeResult:
    """Ascend the reduced objective J*(q_obs) (subproblems.reduced_point)
    from the observation UAV's position in result, by trust-region Newton
    steps on J*'s exact Hessian (_trust_step; Nocedal and Wright, Numerical
    Optimization, ch. 4), on the chain of result's placement.

    J* re-solves P5 at every q_obs, so its ascent moves the split and the
    UAVs together, where SCA steps move the UAVs alone at a fixed split.
    The radius starts at max(D, area_side).  A trial point outside P7's box,
    with a zero-length hop or with a P5 that raises NumericError is rejected
    and shrinks it to a quarter of the step.  Any other trial that gains less
    than _TR_SHRINK of the model's gain shrinks it to where the linear models
    of J* at the point and at the trial meet (_kink_fraction), so that a
    step that overshot a kink of J* is cut back to the kink.  A point enters
    result's trace, as its own lower bound, only if it strictly raises the
    last recorded objective, so the trace never falls and the
    result is never below result.  The ascent stops where the model gains at
    most sca_tol * |J*|; it stops unconverged after max_bcd_iters trial
    points, or when the trace holds max_bcd_iters records past its start.
    """
    cfg = scenario.config
    trace = result.trace
    extent = placement_extent(cfg)
    relay = result.state.placement.q_relay is not None

    def evaluate(q, rejected=(InfeasibleProblem, NumericError)):
        if not np.abs(q).max() < extent:
            return None
        try:
            return reduced_point(scenario, budget, q, relay)
        except rejected:
            return None

    state, best = result.state, trace.exact_objectives[-1]
    point = evaluate(state.placement.q_obs, InfeasibleProblem)    # the start's P5 raises
    radius, converged = 0.25 * extent, True
    for trials in range(cfg.max_bcd_iters + 1):
        if point is None:
            break
        if point.objective > best and len(trace.records) <= cfg.max_bcd_iters:
            state, best = point.state, point.objective
            trace.add(trace.records[-1].iteration + 1, best, best)
        step, gain = _trust_step(point.gradient, point.hessian, radius)
        if not gain > cfg.sca_tol * abs(point.objective):
            break
        if trials == cfg.max_bcd_iters or len(trace.records) > cfg.max_bcd_iters:
            converged = False
            break
        trial = evaluate(point.state.placement.q_obs + step)
        ratio = -math.inf if trial is None else (trial.objective - point.objective) / gain
        length = math.hypot(*step)
        if ratio < _TR_SHRINK:
            radius = length * (0.25 if trial is None else _kink_fraction(point, trial, step))
        elif ratio > _TR_GROW:
            radius = max(radius, 2.0 * length)
        if ratio > _TR_ACCEPT:
            point = trial
    return dataclasses.replace(result, state=state, avg_utility=best,
                               iterations=trace.records[-1].iteration,
                               converged=result.converged and converged)


def _restart(scenario, budget, result: SchemeResult) -> SchemeResult:
    """A zero-iteration result at result's answer, with its converged flag."""
    return dataclasses.replace(_start(scenario, result.state, result.scheme),
                               converged=result.converged)


def _resource_step(scenario, budget, result: SchemeResult) -> SchemeResult:
    """One P5 solve at result's placement, as one more trace record."""
    state = solve_p5(scenario, result.state.placement, result.state, budget)
    obj = average_utility(state.r_tilde, utility_params(scenario.config))
    step = result.iterations + 1
    result.trace.add(step, obj, obj)
    return dataclasses.replace(result, state=state, avg_utility=obj, iterations=step)


# The stages each scheme runs after its start (from _start), in order.  The
# paper's Algorithm 1 alternates P5 and P7 and stalls where each is optimal
# given the other; joint's ascent moves the split and the UAVs together, and
# records only strict gains, so joint never ends below its placement run.
_STAGES = {
    "joint": (_placement_run, _restart, _reduced_ascent),
    "resource_only": (_resource_step,),
    "position_only": (_placement_run,),
    "relay_baseline": (),
    "no_relay": (_reduced_ascent,),
}
SCHEMES = tuple(_STAGES)


def run_benchmark(scenario: Scenario, scheme_id: str,
                  initial_state: DecisionState | None = None) -> SchemeResult:
    """Run one scheme's stages (_STAGES) from initialize_state's start, or
    from initial_state refilled exactly (on the one-hop chain for no_relay).
    A caller's initial_state for joint stands for its first stage's answer,
    so that stage is skipped."""
    if scheme_id not in _STAGES:
        raise ValueError(f"unknown scheme {scheme_id!r}, expected one of {SCHEMES}")
    budget = make_link_budget(scenario.config)
    relay = scheme_id != "no_relay"
    stages = _STAGES[scheme_id]
    if initial_state is None:
        state = initialize_state(scenario, budget, relay)
    else:
        placement = initial_state.placement
        placement = placement if relay else UavPlacement(placement.q_obs)
        r_tilde = exact_fill_objective(scenario, budget, initial_state.x, initial_state.p_user,
                                       initial_state.p_obs, initial_state.p_relay, placement)[1]
        state = dataclasses.replace(initial_state.copy(), placement=placement, r_tilde=r_tilde)
        if scheme_id == "joint":
            stages = stages[1:]
    result = _start(scenario, state, scheme_id)
    for stage in stages:
        result = stage(scenario, budget, result)
    return result
