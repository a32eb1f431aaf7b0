"""The paper's Algorithm 1, kept as a reference for the schemes that replace it.

Block coordinate descent from the heuristic start: the resource step (P5),
then SCA placement steps (P7) at its split until one stalls or gains less
than bcd_tol, repeated until a round gains less than bcd_tol, on the relay
chain or on the one-hop chain.  It stalls where each block is optimal given
the other.  joint and no_relay ascend the reduced objective from
position_only's answer instead, and should never end below it.
"""

import dataclasses

from uavstream.orchestrator import initialize_state
from uavstream.scenario import UavPlacement
from uavstream.subproblems import (exact_fill_objective, make_link_budget, solve_p5,
                                   solve_p7, utility_params)
from uavstream.utility import average_utility


def algorithm1(scenario, relay=True):
    """Alternate P5 and P7 from initialize_state, each P7 solved to sca_tol;
    returns the final exact objective and state."""
    cfg = scenario.config
    budget = make_link_budget(cfg)
    state = initialize_state(scenario, budget)
    if not relay:    # the one-hop chain: a new placement, a new fill
        placement = UavPlacement(state.placement.q_obs)
        r_fill = exact_fill_objective(scenario, budget, state.x, state.p_user, state.p_obs,
                                      state.p_relay, placement)[1]
        state = dataclasses.replace(state, placement=placement, r_tilde=r_fill)
    obj = average_utility(state.r_tilde, utility_params(cfg))
    for _ in range(cfg.max_bcd_iters):
        before = obj
        state = solve_p5(scenario, state.placement, state, budget)
        obj = average_utility(state.r_tilde, utility_params(cfg))
        for _ in range(cfg.max_bcd_iters):
            p7 = solve_p7(scenario, state, budget)
            state = dataclasses.replace(state, placement=p7.placement, r_tilde=p7.r_tilde)
            gain, obj = p7.exact_objective - obj, p7.exact_objective
            if p7.stalled or gain < cfg.bcd_tol:
                break
        if obj - before < cfg.bcd_tol:
            break
    return obj, state
