"""Block-coordinate-descent driver and the benchmark schemes.

Every scheme runs the same loop over the two blocks: the exact resource
subproblem (P5) and SCA placement steps (P7), until the exact-rate objective
stops improving.  A scheme fixes which blocks run and on which backhaul
chain, so every scheme reports the same exact-rate objective.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkBudget
from .scenario import Scenario, UavPlacement
from .subproblems import (DecisionState, exact_fill_objective, make_link_budget,
                          solve_p5, solve_p7)


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


def _sca_descent(scenario, budget, state: DecisionState, max_steps):
    """Drive the placement block: up to max_steps linearized steps, stopping
    when one stalls or gains less than bcd_tol.  Returns the updated state,
    the last linearized objective and the exact objective of the state."""
    obj = lb = exact_fill_objective(scenario, budget, state.x, state.p_user, state.p_obs,
                                    state.p_relay, state.placement)[0]
    for _ in range(max_steps):
        p7 = solve_p7(scenario, state.x, state.p_user, state.p_obs,
                      state.p_relay, state.placement, budget)
        state = dataclasses.replace(state, placement=p7.placement, r_tilde=p7.r_tilde)
        lb, gain, obj = p7.lb_objective, p7.exact_objective - obj, p7.exact_objective
        if p7.stalled or gain < scenario.config.bcd_tol:
            break
    return state, lb, obj


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

    iterations = 0
    converged = not (spec.p5 or sca_steps)
    while not converged and iterations < cfg.max_bcd_iters:
        iterations += 1
        if spec.p5:
            state = solve_p5(scenario, state.placement, state, budget)
        state, lb, obj = _sca_descent(scenario, budget, state, sca_steps)
        trace.add(iterations, obj, lb)
        converged = obj - prev < cfg.bcd_tol
        prev = obj
    return SchemeResult(scheme, state, trace.exact_objectives[-1], trace,
                        iterations, converged)


def run_algorithm1(scenario: Scenario, initial_state: DecisionState | None = None) -> SchemeResult:
    """Joint placement and resource optimization by block coordinate descent.

    The starting point is left open by the iteration itself, and the SCA
    descent is path dependent, so by default two initializations are tried:
    the geometric heuristic, and position_only's answer (the heuristic's
    placement refined at the initial resource split).  The better converged
    run is reported.  The BCD trace never falls, so the second run, and with
    it the result, is never below position_only.  An explicit initial_state
    suppresses the restart.
    """
    budget = make_link_budget(scenario.config)
    if initial_state is not None:
        return _bcd(scenario, budget, initial_state.copy(), "joint")

    base = initialize_state(scenario, budget)
    first = _bcd(scenario, budget, base, "joint")
    warmed = _bcd(scenario, budget, base, "position_only").state
    second = _bcd(scenario, budget, warmed, "joint")
    return second if second.avg_utility > first.avg_utility else first


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
