"""Logarithmic video-streaming utility of delivered per-user rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UtilityParams:
    """Shape constants of the streaming QoE curve.

    theta scales the utility, beta shifts the knee relative to the playback
    requirement rbar (all users share one rbar, in b/s/Hz).
    """

    theta: float
    beta: float
    rbar: float

    def __post_init__(self):
        for name in ("theta", "beta", "rbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def user_utility(R_eff: float, params: UtilityParams) -> float:
    """theta * ln(beta * R_eff / rbar); undefined (raises) at zero rate."""
    if R_eff <= 0:
        raise ValueError(f"utility undefined for non-positive rate {R_eff}")
    return params.theta * math.log(params.beta * R_eff / params.rbar)


def average_utility(R_eff_list, params: UtilityParams) -> float:
    """Mean streaming utility over users: (theta/U) * sum ln(beta*R_u/rbar)."""
    rates = np.asarray(R_eff_list, dtype=float)
    if rates.size == 0:
        raise ValueError("need at least one user rate")
    if (rates <= 0).any():
        raise ValueError("utility undefined for non-positive rates")
    return float(params.theta * (np.log(params.beta * rates / params.rbar).sum() / rates.size))
