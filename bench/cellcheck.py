"""Correctness checks for one benchmark cell (one scheme run on one scenario).

A cell fails when it raises, leaks a warning, does not converge, or returns
an output that breaks one of the invariants below; the last kind also marks
the run as incorrect.  Feasibility is checked for the cell's own topology:
relay schemes through ``DecisionState.validate``, and ``no_relay`` through
its one-hop constraints, checked here because ``validate`` also checks the
unused relay hop and rejects valid ``no_relay`` states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from uavstream.channel import rate_agu, rate_gbs
from uavstream.subproblems import exact_fill_objective, make_link_budget
from uavstream.utility import UtilityParams, average_utility

TOL = 1e-9


@dataclass
class Cell:
    """One scheme run: its inputs, wall time, outcome and what went wrong."""

    scheme: str
    scenario: object
    seconds: float = math.nan
    result: object = None
    failures: list = field(default_factory=list)
    wrong: bool = False

    @property
    def utility(self):
        return math.nan if self.result is None else self.result.avg_utility


def guarded(call, *args):
    """Run ``call(*args)``; return (result or None, failure messages, exception).

    Exceptions and warnings are failures of the cell, not of the benchmark.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except Exception as exc:   # the cell's failure is counted, the run goes on
            return None, [f"raised {type(exc).__name__}: {exc}"], exc
    return result, [f"leaked {w.category.__name__}: {w.message}" for w in caught], None


def _one_hop_violations(scenario, budget, state):
    cfg = scenario.config
    out = []
    if np.any(state.x < -TOL) or state.x.sum() > 1.0 + TOL:
        out.append(f"bandwidth shares invalid: sum={state.x.sum()}")
    if np.any(state.p_user < -TOL) or np.any(state.p_user > cfg.p_max_user + TOL):
        out.append("user power outside budget")
    if not -TOL <= state.p_obs <= cfg.p_max_obs + TOL:
        out.append("observation UAV power outside budget")
    q_obs = state.placement.q_obs
    caps = np.array([(1.0 - cfg.outage_target_rho)
                     * rate_agu(x, p, q_obs, w, budget, cfg.height_obs_Ho)
                     for x, p, w in zip(state.x, state.p_user, scenario.agu_pos_wu)])
    if np.any(state.r_tilde > caps + TOL):
        out.append("effective rate exceeds outage-constrained user rate")
    direct = rate_gbs(state.p_obs, q_obs, scenario.gbs_pos_wb, budget.mu0,
                      cfg.height_obs_Ho, cfg.height_gbs_Hb)
    if state.r_tilde.sum() > direct + TOL:
        out.append("total effective rate exceeds the direct link rate")
    return out


def check_result(scenario, scheme, result):
    """Return (failure messages, wrong) for a finished scheme run."""
    cfg = scenario.config
    budget = make_link_budget(cfg)
    state = result.state
    wrong = []
    exact = result.trace.exact_objectives
    lower = result.trace.lower_bound_objectives
    if any(b < a - TOL for a, b in zip(exact, exact[1:])):
        wrong.append("exact-objective trace decreased")
    if any(lb > ex + TOL for lb, ex in zip(lower, exact)):
        wrong.append("lower bound above the exact objective")
    if not (math.isfinite(result.avg_utility) and abs(result.avg_utility - exact[-1]) <= TOL):
        wrong.append("reported utility is not the last traced objective")
    if np.any(state.r_tilde <= 0):
        wrong.append("non-positive effective rate")
    else:
        params = UtilityParams(cfg.utility_theta, cfg.utility_beta, cfg.playback_rate_rbar)
        if abs(average_utility(state.r_tilde, params) - result.avg_utility) > TOL:
            wrong.append("reported utility does not match the returned rates")
    if scheme == "no_relay":
        wrong += _one_hop_violations(scenario, budget, state)
    else:
        try:
            state.validate(scenario, budget)
        except ValueError as exc:
            wrong.append(f"infeasible state: {exc}")
        objective, _ = exact_fill_objective(scenario, budget, state.x, state.p_user,
                                            state.p_obs, state.p_relay, state.placement)
        if abs(objective - result.avg_utility) > TOL:
            wrong.append("reported utility is not the exact objective of the state")
    failures = [] if result.converged else ["did not converge"]
    return failures + wrong, bool(wrong)


def finish_cell(cell):
    """Add the result checks to the failures already recorded for ``cell``."""
    if cell.result is not None:
        try:
            problems, wrong = check_result(cell.scenario, cell.scheme, cell.result)
        except Exception as exc:   # an output the checks cannot evaluate is rejected
            problems, wrong = [f"check raised {type(exc).__name__}: {exc}"], True
        cell.failures += problems
        cell.wrong = cell.wrong or wrong
