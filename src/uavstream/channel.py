"""Link-level math: Rician fading statistics, channel gains, and achievable rates.

The user -> observation-UAV uplink sees Rician small-scale fading on top of
inverse-square large-scale attenuation; the UAV -> UAV and UAV -> ground-BS
links are pure free-space path loss.  All rates are spectral efficiencies
(b/s/Hz).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

LN2 = math.log(2.0)

# Series terms below this size no longer move the double-precision sum.
_SERIES_EPS = 1e-15
_SERIES_MAX_TERMS = 100_000


class DegenerateLinkWarning(UserWarning):
    """Raised-as-warning flag for zero-distance FSPL denominators."""


@dataclass(frozen=True)
class LinkBudget:
    """Precomputed per-run link constants: mu0 = alpha0/(B*N0) and F^-1(rho)."""

    mu0: float
    inv_cdf_at_rho: float

    def __post_init__(self):
        if not (self.mu0 > 0 and math.isfinite(self.mu0)):
            raise ValueError(f"mu0 must be finite and positive, got {self.mu0}")
        if self.inv_cdf_at_rho < 0:
            raise ValueError("inverse CDF value must be non-negative")


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q1(a, b).

    Evaluated by the Bessel series with exponentially scaled I_k terms so the
    partial sums stay in range for large a*b.  For b >= a the direct series

        Q1(a,b) = exp(-(a-b)^2/2) * sum_k (a/b)^k ive(k, a*b)

    converges with decreasing terms; for b < a the complementary series is
    used, which keeps the truncation criterion sound on both branches.
    """
    if a < 0 or b < 0:
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)

    ab = a * b
    scale = math.exp(-0.5 * (a - b) ** 2)
    if b >= a:
        ratio = a / b
        total = 0.0
        term_factor = 1.0
        for k in range(_SERIES_MAX_TERMS):
            term = term_factor * ive(k, ab)
            total += term
            if term < _SERIES_EPS * max(1.0, total):
                break
            term_factor *= ratio
        return float(min(1.0, scale * total))
    # b < a: Q1 = 1 - scale * sum_{k>=1} (b/a)^k ive(k, ab)
    ratio = b / a
    total = 0.0
    term_factor = ratio
    for k in range(1, _SERIES_MAX_TERMS):
        term = term_factor * ive(k, ab)
        total += term
        if term < _SERIES_EPS * max(1.0, total):
            break
        term_factor *= ratio
    return float(max(0.0, 1.0 - scale * total))


def rician_cdf(z: float, K: float) -> float:
    """CDF of the squared Rician fading envelope |eps|^2 with E[|eps|^2] = 1.

    F(z) = 1 - Q1(sqrt(2K), sqrt(2(K+1)z)); K = 0 reduces to the Rayleigh
    form 1 - exp(-z).
    """
    if z < 0:
        raise ValueError(f"rician_cdf requires z >= 0, got {z}")
    if K < 0:
        raise ValueError(f"rician_cdf requires K >= 0, got {K}")
    if z == 0.0:
        return 0.0
    return 1.0 - marcum_q1(math.sqrt(2.0 * K), math.sqrt(2.0 * (K + 1.0) * z))


def rician_cdf_inverse(rho: float, K: float, tol: float = 1e-10) -> float:
    """Invert the fading CDF: find z with |F(z) - rho| <= tol.

    No closed form exists for K > 0, so the bracket [0, z_hi] is grown by
    doubling until F(z_hi) >= rho and then bisected.  F is non-decreasing,
    which makes the result monotone in rho.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    z_hi = 1.0
    while rician_cdf(z_hi, K) < rho:
        z_hi *= 2.0
        if z_hi > 1e12:
            raise RuntimeError("bracket expansion failed for rician_cdf_inverse")
    z_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (z_lo + z_hi)
        f_mid = rician_cdf(mid, K)
        if abs(f_mid - rho) <= tol:
            return mid
        if f_mid < rho:
            z_lo = mid
        else:
            z_hi = mid
        if z_hi - z_lo <= 1e-16 * max(1.0, z_hi):
            break
    return 0.5 * (z_lo + z_hi)


def _persp_ratio(x, c):
    """c/x, with the overflow region (c/x = inf or > 1e280) flagged."""
    with np.errstate(over="ignore", divide="ignore"):
        s = np.where(c > 0, c / x, 0.0)
    return s, ~np.isfinite(s) | (s > 1e280)


def _persp_rate(x, c):
    """Vectorized x * log2(1 + c/x) for x > 0, c >= 0, safe for huge c/x."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    s, big = _persp_ratio(x, c)
    out = np.empty(np.broadcast(x, c).shape)
    ok = ~big
    out[ok] = (x * np.log1p(np.where(big, 0.0, s)))[ok] / LN2
    if np.any(big):
        xb = np.broadcast_to(x, out.shape)[big]
        cb = np.broadcast_to(c, out.shape)[big]
        out[big] = xb * (np.log(cb) - np.log(xb)) / LN2
    return out


def rate_agu(x_u, P_u, q_obs, w_u, budget: LinkBudget, Ho) -> float:
    """Outage-constrained uplink spectral efficiency of one ground user.

    R_u = x_u * log2(1 + F^-1(rho) * P_u * mu0 / (x_u * (Ho^2 + ||q_o - w_u||^2))),
    the rate at which the fading outage equals the target rho exactly.
    """
    if P_u < 0:
        raise ValueError(f"P_u must be >= 0, got {P_u}")
    if P_u == 0.0:
        return 0.0
    if x_u <= 0:
        raise ValueError(f"x_u must be positive when P_u > 0, got {x_u}")
    q_obs = np.asarray(q_obs, dtype=float)
    w_u = np.asarray(w_u, dtype=float)
    d2 = Ho * Ho + float(np.sum((q_obs - w_u) ** 2))
    return float(_persp_rate(x_u, budget.inv_cdf_at_rho * budget.mu0 / d2 * P_u))


def fspl_rate(P, q_tx, q_rx, mu0, H_tx, H_rx) -> float:
    """FSPL spectral efficiency log2(1 + P*mu0/d^2) of a link between two
    nodes at ground positions q_tx, q_rx and heights H_tx, H_rx."""
    if P < 0:
        raise ValueError(f"transmit power must be >= 0, got {P}")
    if P == 0.0:
        return 0.0
    q_tx = np.asarray(q_tx, dtype=float)
    q_rx = np.asarray(q_rx, dtype=float)
    denom = (H_rx - H_tx) ** 2 + float(np.sum((q_rx - q_tx) ** 2))
    if denom == 0.0:
        warnings.warn("zero-distance FSPL link: infinite rate",
                      DegenerateLinkWarning, stacklevel=2)
        return math.inf
    return math.log1p(P * mu0 / denom) / LN2


def rate_relay(P_o, q_obs, q_relay, mu0, Ho, Hr) -> float:
    """FSPL spectral efficiency of the observation -> relay UAV link."""
    return fspl_rate(P_o, q_obs, q_relay, mu0, Ho, Hr)


def rate_gbs(P_r, q_relay, w_b, mu0, Hr, Hb) -> float:
    """FSPL spectral efficiency of the relay UAV -> ground BS link."""
    return fspl_rate(P_r, q_relay, w_b, mu0, Hr, Hb)


def outage_probability(R_u, x_u, P_u, q_obs, w_u, mu0, Ho, K) -> float:
    """Probability that the fading uplink cannot carry the scheduled rate R_u.

    F((2^(R_u/x_u) - 1) * x_u * (Ho^2 + ||q_o - w_u||^2) / (P_u * mu0)):
    the exact inversion of the banded-noise rate formula, so a rate scheduled
    at the outage-equality point maps back to the target outage exactly.
    """
    if x_u <= 0 or P_u <= 0:
        raise ValueError("outage_probability requires x_u > 0 and P_u > 0")
    if R_u == 0.0:
        return 0.0
    q_obs = np.asarray(q_obs, dtype=float)
    w_u = np.asarray(w_u, dtype=float)
    d2 = Ho * Ho + float(np.sum((q_obs - w_u) ** 2))
    z = math.expm1(R_u / x_u * LN2) * x_u * d2 / (P_u * mu0)
    return rician_cdf(z, K)
