"""The benchmark schemes, each a straight run of stages from the heuristic start.

relay_baseline keeps the start, and resource_only solves the resource
subproblem (P5) there once.  position_only takes SCA placement steps (P7) at
the equal split until they stall.  joint then ascends the reduced objective
J*(q_obs) over the observation UAV, with P5 solved and the relay at its
equal-hop point at every q_obs; no_relay runs both stages on the one-hop
chain.  Every scheme reports the same exact-rate objective.
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

SCHEMES = ("joint", "resource_only", "position_only", "relay_baseline", "no_relay")


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


def _filled(scenario, budget, state: DecisionState) -> DecisionState:
    """A copy of state with its exact fill in r_tilde: for a state the package
    did not fill itself (a caller's, or one moved to another chain)."""
    r_tilde = exact_fill_objective(scenario, budget, state.x, state.p_user, state.p_obs,
                                   state.p_relay, state.placement)[1]
    return dataclasses.replace(state.copy(), r_tilde=r_tilde)


def _start(scenario, state: DecisionState, scheme: str) -> SchemeResult:
    """A zero-iteration result at state, whose r_tilde holds its exact fill."""
    obj = average_utility(state.r_tilde, utility_params(scenario.config))
    trace = IterationTrace()
    trace.add(0, obj, obj)
    return SchemeResult(scheme, state, obj, trace, 0, True)


def _placement_run(scenario, budget, state: DecisionState, scheme: str) -> SchemeResult:
    """A trace record at state (exactly filled, as in _start), then SCA
    placement steps (P7) at its split, one record each, until a step stalls
    or gains less than bcd_tol; unconverged after max_bcd_iters steps.

    Each P7 is solved to max(sca_tol, _SCA_KAPPA * gain), gain being the
    exact-objective gain of the run's last accepted step (|objective| before
    the first): a surrogate needs solving only as tightly as the steps still
    gain, and late steps are solved tightly."""
    cfg = scenario.config
    result = _start(scenario, state, scheme)
    state, obj, gain = result.state, result.avg_utility, None
    for step in range(1, cfg.max_bcd_iters + 1):
        scale = abs(obj) if gain is None else gain
        p7 = solve_p7(scenario, state.x, state.p_user, state.p_obs, state.p_relay,
                      state.placement, budget, (obj, state.r_tilde),
                      max(cfg.sca_tol, _SCA_KAPPA * scale))
        state = dataclasses.replace(state, placement=p7.placement, r_tilde=p7.r_tilde)
        result.trace.add(step, p7.exact_objective, p7.lb_objective)
        converged = p7.exact_objective - obj < cfg.bcd_tol
        if not p7.stalled:
            gain = p7.exact_objective - obj
        obj = p7.exact_objective
        if converged:
            break
    return dataclasses.replace(result, state=state, avg_utility=obj, iterations=step,
                               converged=converged)


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
    Armijo backtracking on J* itself, on the chain of result's placement.

    J* re-solves P5 at every q_obs, so its ascent moves the split and the
    UAVs together, where SCA steps move the UAVs alone at a fixed split.  A
    point enters result's trace, as its own lower bound, only if it strictly
    raises the last recorded objective, so the trace never falls and the
    result is never below result.  The ascent stops after a step that gains
    less than sca_tol * |J*|, or when the line search fails; it stops
    unconverged after max_bcd_iters steps, or when the trace holds
    max_bcd_iters records past its start.
    """
    cfg = scenario.config
    trace = result.trace
    extent = placement_extent(cfg)
    relay = result.state.placement.q_relay is not None

    def evaluate(q):
        if not np.abs(q).max() < extent:
            return None
        try:
            return reduced_point(scenario, budget, q, relay)
        except InfeasibleProblem:    # a zero-length hop
            return None

    state, best = result.state, trace.exact_objectives[-1]
    point, inverse, last, converged = evaluate(state.placement.q_obs), None, False, True
    for step in range(cfg.max_bcd_iters + 1):
        if point is None:
            break
        if point.objective > best and len(trace.records) <= cfg.max_bcd_iters:
            state, best = point.state, point.objective
            trace.add(trace.records[-1].iteration + 1, best, best)
        g = point.gradient
        if last or not np.any(g):
            break
        if step == cfg.max_bcd_iters or len(trace.records) > cfg.max_bcd_iters:
            converged = False
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
    return dataclasses.replace(result, state=state, avg_utility=best,
                               iterations=trace.records[-1].iteration,
                               converged=result.converged and converged)


def run_algorithm1(scenario: Scenario, initial_state: DecisionState | None = None) -> SchemeResult:
    """Joint placement and resource optimization: the reduced-space ascent
    (_reduced_ascent) from initial_state, by default position_only's answer
    (the heuristic placement refined at the equal split).

    The paper's Algorithm 1 alternates P5 and P7 (block coordinate descent)
    and stalls where each is optimal given the other; the ascent moves the
    split and the UAVs together.  The result starts as a zero-iteration one
    at initial_state, so its trace is that state's exact objective, then the
    ascent's records, which iterations counts.  It is never below its start:
    the ascent records only strict gains, and the result is the last record.
    """
    budget = make_link_budget(scenario.config)
    state = (_filled(scenario, budget, initial_state) if initial_state is not None else
             _placement_run(scenario, budget, initialize_state(scenario, budget), "joint").state)
    return _reduced_ascent(scenario, budget, _start(scenario, state, "joint"))


def run_benchmark(scenario: Scenario, scheme_id: str,
                  initial_state: DecisionState | None = None) -> SchemeResult:
    """Run one scheme from initial_state, by default the heuristic start;
    'joint' dispatches to run_algorithm1."""
    if scheme_id not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme_id!r}, expected one of {SCHEMES}")
    if scheme_id == "joint":
        return run_algorithm1(scenario, initial_state)
    budget = make_link_budget(scenario.config)
    relay = scheme_id != "no_relay"
    if initial_state is None:
        state = initialize_state(scenario, budget, relay)
    else:
        state = initial_state
        if not relay:     # the one-hop chain: a new placement
            state = dataclasses.replace(state, placement=UavPlacement(state.placement.q_obs))
        state = _filled(scenario, budget, state)
    if scheme_id == "position_only":
        return _placement_run(scenario, budget, state, scheme_id)
    if scheme_id == "no_relay":
        return _reduced_ascent(scenario, budget, _placement_run(scenario, budget, state, scheme_id))
    result = _start(scenario, state, scheme_id)
    if scheme_id == "resource_only":
        state = solve_p5(scenario, state.placement, state, budget)
        obj = average_utility(state.r_tilde, utility_params(scenario.config))
        result.trace.add(1, obj, obj)
        result = dataclasses.replace(result, state=state, avg_utility=obj, iterations=1)
    return result
