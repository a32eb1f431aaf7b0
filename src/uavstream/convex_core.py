"""Generic smooth concave maximization under concave inequality and box constraints.

Primal-dual interior-point method (Boyd & Vandenberghe, Convex Optimization,
section 11.7).  The barrier subproblem at t is: maximize
f(v) + (1/t) * sum ln g_j(v), each side of the (finite) box contributing its
own log term.  The method carries multipliers for the constraint rows and the
box sides.  A cold start takes the caller's point as the centre at t = 10,
one barrier stage in (on the choice of t(0), section 11.3.1), with the
multipliers on the central path there.  A warm start takes an iterate and
its multipliers from an earlier solve's path, at t = m / eta, when that
point is strictly inside this program (interior-point warm starts: Yildirim
& Wright, SIAM J. Optim. 12, 2002; Gondzio & Grothey, SIAM J. Optim. 13,
2003); each report carries its solve's first iterate at t >= 1e5 for the
next.  After every step the line search did not shorten, t becomes
10 m / eta for the surrogate gap eta (multipliers times slacks), never
falling and capped at m/tol.  Each iteration takes one Newton step on the
barrier at t whose constraint weights are the multipliers (every program
supplies its exact combined curvature), updates the multipliers along their
own Newton direction (kept positive by a fraction-to-boundary rule), and
backtracks both by Armijo on the barrier value at t.  With the multipliers on
the central path this step is the log-barrier Newton step.  The solve stops
once t is at its cap and the Newton decrement is below tolerance (status
converged), at the first Newton matrix that is not positive definite or
line search that fails (stalled), or after _MAX_NEWTON steps (max_iters).
In a placement run, where each P7 solve is warm-started from the last, a P7
solve takes about 8 Newton steps at U <= 30, 10 at U = 100 and 24 at
U = 1000 (9-10, 13 and 36 cold).  The caller supplies a strictly interior
start with a finite objective.  Each line-search trial builds every
slack in one vector and takes one log over it; each accepted point keeps
that vector and derives its gradients once, from the slacks' reciprocals.

Every program declares the shape of its Hessian by its border, a count b:
the first b variables form a dense border coupled to every block, and each
variable b + j is the one-variable block of local constraint row j, which
touches that block and the border; a few dense coupling rows follow the
local ones.  Its Jacobian and curvature callbacks answer in block form (the
curvature is a diagonal plus a border matrix), and each Newton step is
solved by block elimination of the border plus a Sherman-Morrison-Woodbury
correction for the coupling rows, in O(n) time and memory: one small dense
system in the border and the coupling rows per step.  The step is exact,
with no fallback (see _solve_spd).  A generic program declares border = n:
no blocks, and every row a coupling row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_ARMIJO_SLOPE = 0.25
_BACKTRACK = 0.5
_GAP_SHRINK = 10.0      # t = 10 m / eta
_TO_BOUNDARY = 0.99     # fraction of the step to the multipliers' boundary
_MAX_NEWTON = 200      # Newton steps per solve
_WARM_GAP = 1e-5        # hand on the first iterate with m/t <= _WARM_GAP * m


class NumericError(RuntimeError):
    """A callback returned a non-finite value at an interior point."""


@dataclass
class BlockJacobian:
    """Constraint Jacobian of a structured program, in block form.

    local[j] holds row j on its block (variable b + j), border_part[:, j]
    row j on the border (the first b variables), and coupling the dense rows
    that follow the local ones.
    """

    local: np.ndarray           # (nb,)
    coupling: np.ndarray        # (k, n)
    border_part: np.ndarray     # (b, nb)

    def matvec(self, d):
        """J d."""
        b = len(self.border_part)
        local = self.local * d[b:]
        local += d[:b] @ self.border_part
        return np.concatenate([local, self.coupling @ d])

    def rmatvec(self, y):
        """J^T y."""
        b, nb = self.border_part.shape
        out = self.coupling.T @ y[nb:]
        out[b:] += self.local * y[:nb]
        out[:b] += self.border_part @ y[:nb]
        return out


@dataclass
class BlockCurvature:
    """hess f + sum_j w_j hess g_j of a structured program, in block form:
    a full diagonal plus a border matrix."""

    diag: np.ndarray        # (n,)
    border: np.ndarray      # (b, b)


@dataclass
class ConcaveProgram:
    """Concave maximization problem in callback form.

    objective/gradient: smooth concave f and its gradient.
    constraints/constraint_jac: vector g(v) >= 0 of smooth concave functions
    (m may be zero) and its Jacobian, as a BlockJacobian.
    lower/upper: finite box bounds.
    curvature: callback (v, w) -> hess f(v) + sum_j w_j hess g_j(v), as a
    BlockCurvature, for the Newton steps.  It must be exact: with exact
    curvature of a concave program every Newton matrix is positive definite,
    and one that is not ends the solve, stalled.
    border: b, the number of leading border variables both callbacks answer
    in; variable b + j is the one-variable block of local row j.
    """

    n: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    constraint_jac: Callable[[np.ndarray], BlockJacobian]
    lower: np.ndarray
    upper: np.ndarray
    curvature: Callable[[np.ndarray, np.ndarray], BlockCurvature]
    border: int
    name: str = ""

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.n < 1 or self.lower.shape != (self.n,) or self.upper.shape != (self.n,):
            raise ValueError("need n >= 1 and box bounds of shape (n,)")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("need lower < upper on every coordinate")
        if not 0 <= self.border <= self.n:
            raise ValueError("a program's border must lie in [0, n]")


class WarmStart(NamedTuple):
    """An iterate of a solve's path: the point and the multipliers of every
    slack (as _terms orders them)."""

    point: np.ndarray
    multipliers: np.ndarray


@dataclass
class SolveReport:
    solution: np.ndarray
    objective: float
    kkt_residual: float
    barrier_iterations: int
    status: str                      # converged | stalled | max_iters
    warm: WarmStart | None = None    # the first iterate with gap <= _WARM_GAP * m


# The log barrier of a program: f, the log slacks and their derivatives.  Its
# Newton system weights the constraint rows by multipliers w (the constraints'
# curvature by w, their Gauss-Newton part by w/g) and the box sides by a
# diagonal.  On the central path at t these are w = 1/(t g) and 1/(t s^2),
# which give the Hessian of the barrier -f - (1/t) sum ln.

def _terms(p: ConcaveProgram, v):
    """(f, sum of the log slacks, s) at v, or None outside the domain.  s
    holds every slack: the constraint rows g, then v - lower, then upper - v.
    The box is checked before the constraints are evaluated."""
    dlo, dhi = v - p.lower, p.upper - v
    if dlo.min() <= 0 or dhi.min() <= 0:
        return None
    s = np.concatenate((p.constraints(v), dlo, dhi))
    if s.min() <= 0:
        return None
    f = p.objective(v)
    return (f, float(np.log(s).sum()), s) if math.isfinite(f) else None


def _pieces(p: ConcaveProgram, v, inv_s):
    """(grad f, grad of minus the log terms, J) at v, given 1/s there (s as
    _terms returns it); the barrier's gradient at t is the second over t
    minus the first, which is non-finite if J or grad f is."""
    k, n = inv_s.size - 2 * p.n, p.n
    J = p.constraint_jac(v)
    grad_f = np.asarray(p.gradient(v), dtype=float)
    log_grad = inv_s[k + n:] - inv_s[k:k + n]
    log_grad -= J.rmatvec(inv_s[:k])
    return grad_f, log_grad, J


def _solve_spd(p: ConcaveProgram, v, J, w, gn, box, rhs):
    """The Newton step H^{-1} rhs, or None where H is not positive definite.
    H is the Newton matrix: the Gauss-Newton part of the constraint terms
    with weights gn = w/g, the box diagonal, and minus the program's
    curvature at the multipliers w.

    H = M + Uc Uc^T, where M is diagonal over the blocks except for the dense
    border, and Uc^T is the coupling rows scaled by sqrt(gn).  With y = Uc^T d,
    H d = rhs is the system in (d, y) with matrix [[M, Uc], [Uc^T, -I]].
    Eliminating the blocks leaves one small system in the border step and y,
    of size b + k: the border's Schur complement and the Woodbury capacitance
    in one matrix.

    On a concave program with exact curvature H is positive definite (its
    border Schur complement is at least the box weights).  A block pivot
    that is not positive, a singular small system, or a step that points
    uphill (rhs . d = d . H d < 0) shows that it is not, and gives None."""
    b, k = p.border, len(J.coupling)
    nb, size = p.n - b, b + k
    curv = p.curvature(v, w)
    diag = box - curv.diag
    gn_local = gn[:nb]
    cross = J.local * gn_local                  # each block's entries with the border
    pivots = J.local * cross + diag[b:]         # M's diagonal over the blocks
    if not (pivots > 0).all():                  # NaN included
        return None
    uc = J.coupling * np.sqrt(gn[nb:, None])    # Uc^T, (k, n)
    border = (J.border_part * gn_local) @ J.border_part.T - curv.border
    border.flat[::b + 1] += diag[:b]
    # [[M's border, Uc on the border], [its transpose, -I]]
    system = np.zeros((size, size))
    system[:b, :b] = border
    system[:b, b:] = uc[:, :b].T
    system[b:, :b] = uc[:, :b]
    system.flat[b * (size + 1)::size + 1] = -1.0
    # M's border-block entries, then Uc^T on the blocks: (b + k, nb).
    rows = np.concatenate((J.border_part * cross, uc[:, b:]))
    scaled = rows / pivots
    small = system - scaled @ rows.T
    q = rhs[b:] / pivots
    small_rhs = -(rows @ q)
    small_rhs[:b] += rhs[:b]
    try:
        border_and_y = np.linalg.solve(small, small_rhs)
    except np.linalg.LinAlgError:
        return None
    d = np.concatenate((border_and_y[:b], q - border_and_y @ scaled))
    return d if rhs @ d >= 0.0 else None


def solve_concave(program: ConcaveProgram, start, tol: float = 1e-9,
                  warm: WarmStart | None = None) -> SolveReport:
    """Maximize the program from a strictly interior start with a finite
    objective (ValueError otherwise); see the module docstring for the
    method.  At most _MAX_NEWTON Newton steps are taken.

    warm, another solve's report.warm, is taken in place of the start when
    its point is strictly inside this program and it has a multiplier for
    each slack: the solve starts there with those multipliers, at gap
    max(tol, y . s).

    A Newton matrix that is not positive definite (_solve_spd gives None)
    or a failed line search ends the solve at the current point, stalled;
    the failed step counts among barrier_iterations, and a Newton matrix
    that is not positive definite leaves kkt_residual infinite.
    """
    current = None
    if warm is not None and warm.point.shape == (program.n,):
        current = _terms(program, warm.point)
        if current is not None and (not math.isfinite(current[1])
                                    or current[2].size != warm.multipliers.size):
            current = None
    if current is None:
        warm, v = None, np.asarray(start, dtype=float).copy()
        current = _terms(program, v)
        if current is None or not math.isfinite(current[1]):
            raise ValueError(f"solve_concave needs a strictly interior start ({program.name})")
    else:
        v = warm.point.copy()
    f, logs, s = current
    inv_s = 1.0 / s
    grad_f, log_grad, J = _pieces(program, v, inv_s)
    m, k = s.size, s.size - 2 * program.n      # m >= 2n: the k rows, then both box sides
    lo, hi = slice(k, k + program.n), slice(k + program.n, m)
    # gap = m/t, floored at tol (t at its cap).  A cold start is taken as the
    # centre at t = _GAP_SHRINK, one stage in, with the multipliers y on the
    # central path there.  gap follows the surrogate gap eta / _GAP_SHRINK,
    # but only after a step the line search did not shorten: while steps are
    # damped, t stays and the iterates centre as in a barrier stage.
    if warm is None:
        gap, y = m / _GAP_SHRINK, inv_s / _GAP_SHRINK
    else:
        y = warm.multipliers
        gap = max(tol, float(y @ s))
    undamped, handed_on = False, None
    steps = 0
    while steps < _MAX_NEWTON:
        if undamped:
            gap = max(tol, min(gap, float(y @ s) / _GAP_SHRINK))
        if handed_on is None and gap <= _WARM_GAP * m:
            handed_on = WarmStart(v.copy(), y)
        t = m / gap
        descent = grad_f - log_grad / t      # minus the barrier's gradient
        if not np.isfinite(descent).all():
            raise NumericError(f"non-finite objective/constraint derivatives at v={v}")
        weight = y * inv_s
        d = _solve_spd(program, v, J, y[:k], weight[:k], weight[lo] + weight[hi], descent)
        steps += 1
        decrement = math.inf if d is None else float(descent @ d)   # inf: no step
        if d is None or (gap <= tol and decrement <= tol):
            break
        # The multipliers' Newton step, and the largest step that moves each
        # at most _TO_BOUNDARY of the way to zero: the least dy_j / y_j.
        dy = inv_s / t - y - weight * np.concatenate((J.matvec(d), d, -d))
        lowest = float((dy / y).min())
        alpha = alpha_max = -_TO_BOUNDARY / lowest if lowest < -_TO_BOUNDARY else 1.0
        phi = -f - logs / t
        while alpha > 1e-14:
            trial = v + alpha * d
            terms = _terms(program, trial)
            phi_trial = np.inf if terms is None else -terms[0] - terms[1] / t
            if phi_trial <= phi - _ARMIJO_SLOPE * alpha * decrement:
                break
            alpha *= _BACKTRACK
        else:
            break
        v, y, undamped = trial, y + alpha * dy, alpha == alpha_max
        f, logs, s = terms
        if not math.isfinite(logs):      # a g of +inf, which 1/s would hide
            raise NumericError(f"non-finite constraint value at v={v}")
        inv_s = 1.0 / s
        grad_f, log_grad, J = _pieces(program, v, inv_s)

    # Every accepted iterate is strictly interior (the line search rejects
    # the rest), so the report needs only the optimality measure.
    kkt = max(gap, 0.5 * decrement)
    status = "converged" if kkt <= tol else "max_iters" if steps == _MAX_NEWTON else "stalled"
    return SolveReport(solution=v, objective=float(f), kkt_residual=float(kkt),
                       barrier_iterations=steps, status=status, warm=handed_on)
