"""Block-coordinate-descent driver and the benchmark schemes.

Every scheme runs the same loop over the two blocks: the exact resource
subproblem (P5) and SCA placement steps (P7), until the exact-rate objective
stops improving.  A scheme fixes which blocks run and on which backhaul
chain, so every scheme reports the same exact-rate objective.  joint then
ascends the reduced objective over the observation UAV alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkBudget
from .scenario import Scenario, UavPlacement
from .subproblems import (DecisionState, InfeasibleProblem, exact_fill_objective,
                          make_link_budget, placement_extent, reduced_point, solve_p5,
                          solve_p7, utility_params)
from .utility import average_utility

_PROBE = 1.0           # metres between the points of the reduced ascent's first Hessian
_ARMIJO = 1e-4         # sufficient-increase fraction of the reduced ascent's line search
_SCA_KAPPA = 1e-4      # P7 tolerance per unit of the last accepted placement gain


@dataclass(frozen=True)
class _Scheme:
    p5: bool                 # run the resource block each iteration
    sca_steps: int | None    # SCA steps per iteration; None: until they stall
    relay: bool = True       # False: the observation UAV reaches the GBS directly


_SCHEMES = {
    "joint": _Scheme(p5=True, sca_steps=None),
    "resource_only": _Scheme(p5=True, sca_steps=0),
    "position_only": _Scheme(p5=False, sca_steps=1),
    "relay_baseline": _Scheme(p5=False, sca_steps=0),
    "no_relay": _Scheme(p5=True, sca_steps=None, relay=False),
}
SCHEMES = tuple(_SCHEMES)


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


def _sca_descent(scenario, budget, state: DecisionState, max_steps, gain):
    """Drive the placement block: up to max_steps linearized steps, stopping
    when one stalls or gains less than bcd_tol.  Returns the updated state,
    the last linearized objective, the exact objective of the state and the
    gain of the last accepted step.
    state.r_tilde must be the exact fill of state, as _bcd keeps it.

    Each P7 is solved to max(sca_tol, _SCA_KAPPA * gain), gain being the
    exact-objective gain of the run's last accepted step (None before the
    first, where |objective| stands in): a surrogate needs solving only as
    tightly as the steps still gain, and late steps are solved tightly."""
    cfg = scenario.config
    obj = lb = average_utility(state.r_tilde, utility_params(cfg))
    for _ in range(max_steps):
        scale = abs(obj) if gain is None else gain
        p7 = solve_p7(scenario, state.x, state.p_user, state.p_obs, state.p_relay,
                      state.placement, budget, (obj, state.r_tilde),
                      max(cfg.sca_tol, _SCA_KAPPA * scale))
        state = dataclasses.replace(state, placement=p7.placement, r_tilde=p7.r_tilde)
        if not p7.stalled:
            gain = p7.exact_objective - obj
        lb, obj = p7.lb_objective, p7.exact_objective
        if p7.stalled or gain < cfg.bcd_tol:
            break
    return state, lb, obj, gain


def _bcd(scenario, budget, state: DecisionState, scheme: str) -> SchemeResult:
    """Alternate the scheme's blocks from state until the exact objective
    gains less than bcd_tol.  A scheme with no block returns its start."""
    cfg = scenario.config
    spec = _SCHEMES[scheme]
    sca_steps = cfg.max_bcd_iters if spec.sca_steps is None else spec.sca_steps
    prev, r_fill = exact_fill_objective(scenario, budget, state.x, state.p_user,
                                        state.p_obs, state.p_relay, state.placement)
    state = dataclasses.replace(state, r_tilde=r_fill)
    trace = IterationTrace()
    trace.add(0, prev, prev)

    iterations, gain = 0, None
    converged = not (spec.p5 or sca_steps)
    while not converged and iterations < cfg.max_bcd_iters:
        iterations += 1
        if spec.p5:
            state = solve_p5(scenario, state.placement, state, budget, (prev, state.r_tilde))
        state, lb, obj, gain = _sca_descent(scenario, budget, state, sca_steps, gain)
        trace.add(iterations, obj, lb)
        converged = obj - prev < cfg.bcd_tol
        prev = obj
    return SchemeResult(scheme, state, trace.exact_objectives[-1], trace,
                        iterations, converged)


def _first_inverse(point, evaluate):
    """The BFGS ascent's first inverse Hessian of -J*, and whether it
    measured J*'s curvature.  The Hessian is measured by gradient differences
    over _PROBE metres along each axis; where that is not positive definite
    (J* is not concave everywhere), the first trial step moves _PROBE metres
    along the gradient and the first update rescales the inverse
    (Nocedal & Wright, Numerical Optimization, eq. 6.20)."""
    q, g = point.state.placement.q_obs, point.gradient
    probes = [evaluate(q + _PROBE * e) for e in np.eye(2)]
    if all(p is not None for p in probes):
        hess = np.array([g - p.gradient for p in probes]) / _PROBE
        hess = 0.5 * (hess + hess.T)
        if np.linalg.eigvalsh(hess)[0] > 0.0:
            return np.linalg.inv(hess), True
    return np.eye(2) * (_PROBE / float(np.linalg.norm(g))), False


def _reduced_ascent(scenario, budget, result: SchemeResult) -> SchemeResult:
    """Ascend the reduced objective J*(q_obs) (subproblems.reduced_point)
    from the observation UAV's position in result, by BFGS on q_obs with
    Armijo backtracking on J* itself.

    BCD stalls where P5 and P7 are each optimal given the other while a
    joint move of the split and the UAVs still gains; J* re-solves P5 at
    every q_obs, so its ascent makes that joint move.  A point enters the
    trace, as its own lower bound, only if it strictly raises the last
    recorded objective, so the trace never falls and the result is never
    below result.  The ascent stops after a step that gains less than
    sca_tol * |J*|, when the line search fails, after max_bcd_iters steps,
    or when the trace holds max_bcd_iters records past its start.
    """
    cfg = scenario.config
    trace = result.trace
    extent = placement_extent(cfg)

    def evaluate(q):
        if not np.abs(q).max() < extent:
            return None
        try:
            return reduced_point(scenario, budget, q)
        except InfeasibleProblem:    # a zero-length hop
            return None

    state, best = result.state, trace.exact_objectives[-1]
    point, inverse, last = evaluate(state.placement.q_obs), None, False
    for step in range(cfg.max_bcd_iters + 1):
        if point is None:
            break
        if point.objective > best and len(trace.records) <= cfg.max_bcd_iters:
            state, best = point.state, point.objective
            trace.add(trace.records[-1].iteration + 1, best, best)
        g = point.gradient
        if (last or step == cfg.max_bcd_iters or len(trace.records) > cfg.max_bcd_iters
                or not np.any(g)):
            break
        if inverse is None:
            inverse, scaled = _first_inverse(point, evaluate)
        direction = inverse @ g
        slope = float(g @ direction)
        floor = cfg.sca_tol * abs(point.objective)
        alpha = 1.0
        while alpha * slope > floor:     # a shorter step could not gain floor
            trial = evaluate(point.state.placement.q_obs + alpha * direction)
            if trial is not None and trial.objective >= point.objective + _ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        last = trial.objective - point.objective < floor
        # BFGS update of the inverse Hessian of -J*, whose gradient is -g.
        s, y = alpha * direction, g - trial.gradient
        ys = float(y @ s)
        if ys > 0.0:
            if not scaled:
                inverse, scaled = np.eye(2) * (ys / float(y @ y)), True
            left = np.eye(2) - np.outer(s, y) / ys
            inverse = left @ inverse @ left.T + np.outer(s, s) / ys
        point = trial
    return dataclasses.replace(result, state=state, avg_utility=best)


def run_algorithm1(scenario: Scenario, initial_state: DecisionState | None = None) -> SchemeResult:
    """Joint placement and resource optimization: block coordinate descent,
    then an ascent in the reduced space of the observation UAV.

    BCD starts from initial_state, or by default from position_only's answer
    (the heuristic placement refined at the equal split).  It stalls where P5
    and P7 are each optimal given the other; the reduced-space stage
    (_reduced_ascent), an addition to the paper's Algorithm 1, then moves
    the split and both UAVs together.

    The result is never below position_only: BCD's trace starts at the
    exact objective of position_only's final state and never falls (P5
    keeps its start split unless its own split gains, and P7 returns only
    strict ascents), the stage records only strict gains, and the result is
    the last record.
    """
    budget = make_link_budget(scenario.config)
    if initial_state is None:
        base = initialize_state(scenario, budget)
        initial_state = _bcd(scenario, budget, base, "position_only").state
    return _reduced_ascent(scenario, budget, _bcd(scenario, budget, initial_state.copy(), "joint"))


def run_benchmark(scenario: Scenario, scheme_id: str,
                  initial_state: DecisionState | None = None) -> SchemeResult:
    """Run one scheme; 'joint' dispatches to the full BCD algorithm."""
    if scheme_id not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme_id!r}, expected one of {SCHEMES}")
    if scheme_id == "joint":
        return run_algorithm1(scenario, initial_state)
    budget = make_link_budget(scenario.config)
    state = initial_state.copy() if initial_state is not None else initialize_state(scenario, budget)
    if not _SCHEMES[scheme_id].relay:
        state.placement = UavPlacement(state.placement.q_obs)
    return _bcd(scenario, budget, state, scheme_id)
