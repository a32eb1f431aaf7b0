"""Joint UAV placement and resource allocation for uplink video streaming.

An observation UAV collects video from ground users over a Rician fading
uplink and forwards it through a relay UAV to a distant ground base station.
The library jointly optimizes both UAV positions and the per-user bandwidth
shares, with every transmit power at its budget, to maximize the average
logarithmic streaming utility: successive convex approximation of the
placement, then an ascent over the observation UAV's position with the exact
resource step solved at each point.
"""

from .channel import (LinkBudget, marcum_q1, outage_probability, rate_agu,
                      rate_gbs, rate_relay, rician_cdf, rician_cdf_inverse)
from .orchestrator import SCHEMES, SchemeResult, initialize_state, run_benchmark
from .scenario import (Scenario, SystemConfig, UavPlacement, distances,
                       generate_scenario, load_config, save_config, table2_config)
from .subproblems import (DecisionState, InfeasibleProblem, SCACoefficients,
                          lower_bound_rates, make_link_budget, sca_coefficients,
                          solve_p5, solve_p7)
from .utility import UtilityParams, average_utility, user_utility

__version__ = "0.1.0"

__all__ = [
    "LinkBudget", "marcum_q1", "outage_probability", "rate_agu", "rate_gbs",
    "rate_relay", "rician_cdf", "rician_cdf_inverse",
    "SCHEMES", "SchemeResult", "initialize_state", "run_benchmark",
    "Scenario", "SystemConfig", "UavPlacement", "distances", "generate_scenario",
    "load_config", "save_config", "table2_config",
    "DecisionState", "InfeasibleProblem", "SCACoefficients", "lower_bound_rates",
    "make_link_budget", "sca_coefficients", "solve_p5", "solve_p7",
    "UtilityParams", "average_utility", "user_utility",
]
