"""Link-level math: Rician fading statistics, channel gains, and achievable rates.

The user -> observation-UAV uplink sees Rician small-scale fading on top of
inverse-square large-scale attenuation; the UAV -> UAV and UAV -> ground-BS
links are pure free-space path loss.  All rates are spectral efficiencies
(b/s/Hz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# Most terms of the Bessel recurrence in marcum_q1: enough for a*b up to
# about 1e10 (K up to 1e9 in rician_cdf), and about 0.15 s at the cap.
_MAX_TERMS = 1_000_000


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

    Evaluated by the Bessel series with exponentially scaled terms
    e^-x I_k(x), x = a*b, so the sums stay in range for large a*b.  For
    b >= a the direct series

        Q1(a,b) = exp(-(a-b)^2/2) * sum_k (a/b)^k e^-x I_k(x)

    converges with decreasing terms; for b < a the complementary series
    Q1 = 1 - exp(-(a-b)^2/2) * sum_{k>=1} (b/a)^k e^-x I_k(x) is used, which
    keeps the truncation sound on both branches.

    Every e^-x I_k(x) comes from one backward recurrence (Miller's
    algorithm), I_{k-1} = (2k/x) I_k + I_{k+1}, started at zero n terms out,
    where I_n/I_0 no longer shows in double precision (about exp(-n^2/2x)
    for large x, (x/2)^n/n! for small; n is capped at _MAX_TERMS).  It is run on the ratios
    h_k = I_k/I_{k-1} = 1/(2k/x + h_{k+1}), which cannot overflow, and the
    series is accumulated in the same pass, by Horner's rule in the powers
    of the ratio r.  The identity e^-x (I_0 + 2 sum_{k>=1} I_k) = 1 fixes
    the scale: with P_k = h_1...h_k = I_k/I_0, e^-x I_0 = 1/(1 + 2 sum P_k).
    """
    if a < 0 or b < 0:
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)

    d = b - a
    if abs(d) > 40.0:
        # exp(-d^2/2) underflows to zero, and Q1 is within it of 0 or 1.
        return 0.0 if d > 0.0 else 1.0
    x = a * b
    if math.isinf(x):
        # The normal limit as a, b grow with b - a fixed; its error, O(1/a),
        # is below double precision here.
        return 0.5 * math.erfc(d / math.sqrt(2.0))
    ratio = a / b if b >= a else b / a
    two_over_x = 2.0 / x
    n = min(30 + int(9.0 * math.sqrt(x)), _MAX_TERMS)
    # After the step at k: h = h_k, tail = sum_{j>=k} r^(j-k+1) P_j/P_{k-1},
    # norm = sum_{j>=k} P_j/P_{k-1}; at k = 1 both sums are over P_j.
    h = tail = norm = 0.0
    for k in range(n, 0, -1):
        h = 1.0 / (k * two_over_x + h)
        tail = ratio * h * (1.0 + tail)
        norm = h * (1.0 + norm)
    scale = math.exp(-0.5 * d * d) / (1.0 + 2.0 * norm)
    if b >= a:
        return min(1.0, scale * (1.0 + tail))
    return max(0.0, 1.0 - scale * tail)


def rician_cdf(z: float, K: float) -> float:
    """CDF of the squared Rician fading envelope |eps|^2 with E[|eps|^2] = 1.

    F(z) = 1 - Q1(sqrt(2K), sqrt(2(K+1)z)); K = 0 reduces to the Rayleigh
    form 1 - exp(-z).
    """
    if z < 0:
        raise ValueError(f"rician_cdf requires z >= 0, got {z}")
    if not (K >= 0 and math.isfinite(K)):
        raise ValueError(f"rician_cdf requires a finite K >= 0, got {K}")
    if z == 0.0:
        return 0.0
    return 1.0 - marcum_q1(math.sqrt(2.0 * K), math.sqrt(2.0 * (K + 1.0) * z))


def rician_cdf_inverse(rho: float, K: float, tol: float = 1e-10) -> float:
    """Invert the fading CDF: find z with |F(z) - rho| <= tol.

    No closed form exists for K > 0, so the bracket [0, z_hi] is grown by
    doubling until F(z_hi) >= rho and then bisected.  F is non-decreasing,
    which makes the result monotone in rho.  K must be finite and >= 0, as
    for rician_cdf (ValueError otherwise).
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
    """Vectorized x * log2(1 + c/x) for x > 0, c >= 0: where c/x is not <= 1e280
    (overflow, or a NaN input) it is x (ln c - ln x)/ln2, as log1p rounds there."""
    x, c = np.asarray(x, dtype=float), np.asarray(c, dtype=float)
    with np.errstate(over="ignore"):
        s = c / x
    out = x * np.log1p(s) / LN2
    if s.max() <= 1e280:        # False if any s is NaN
        return out
    with np.errstate(divide="ignore"):      # ln 0 where c = 0, not taken
        return np.where(s <= 1e280, out, x * (np.log(c) - np.log(x)) / LN2)


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
    nodes at ground positions q_tx, q_rx and heights H_tx, H_rx.  A negative
    power or a zero-length link raises ValueError."""
    if P < 0:
        raise ValueError(f"transmit power must be >= 0, got {P}")
    q_tx = np.asarray(q_tx, dtype=float)
    q_rx = np.asarray(q_rx, dtype=float)
    denom = (H_rx - H_tx) ** 2 + float(np.sum((q_rx - q_tx) ** 2))
    if denom == 0.0:
        raise ValueError("zero-length FSPL link")
    if P == 0.0:
        return 0.0
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
