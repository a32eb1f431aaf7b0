"""Generic smooth concave maximization under concave inequality and box constraints.

Primal-dual interior-point method (Boyd & Vandenberghe, Convex Optimization,
section 11.7).  The barrier subproblem at t is: maximize
f(v) + (1/t) * sum ln g_j(v), each side of the (finite) box contributing its
own log term.  The method carries multipliers for the constraint rows and the
box sides.  t starts at 1 and, after every step the line search did not
shorten, becomes 10 m / eta for the surrogate gap eta (multipliers times
slacks), never falling and capped at m/tol.  Each iteration takes one Newton
step on the barrier at t whose constraint weights are the multipliers,
updates the multipliers along their own Newton direction (kept positive by a
fraction-to-boundary rule), and backtracks both by Armijo on the barrier
value at t.  With the multipliers on the central path this step is the
log-barrier Newton step; a failed line search returns them there.  The solve
stops once t is at its cap and the Newton decrement is below tolerance.  The
caller supplies a strictly interior start with a finite objective.

Every program supplies an exact combined-curvature callback, so each step is
a Newton step.

Every program declares the shape of its Hessian (BlockStructure): every
variable is a one-variable block or lies in a dense border coupled to every
block; each local constraint row touches one block and the border, and a few
dense coupling rows follow.  Its Jacobian and curvature callbacks answer in
block form (the curvature is a diagonal plus a border matrix), and each Newton
step is solved by block elimination of the border plus a
Sherman-Morrison-Woodbury correction for the coupling rows, in O(n) time and
memory.  A generic program declares no blocks: every variable in the border
and every row a coupling row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_ARMIJO_SLOPE = 0.25
_BACKTRACK = 0.5
_GAP_SHRINK = 10.0      # t = 10 m / eta
_TO_BOUNDARY = 0.99     # fraction of the step to the multipliers' boundary
_RIDGE0 = 1e-10
_MAX_NEWTON = 200      # Newton steps per solve


class NumericError(RuntimeError):
    """A callback returned a non-finite value at an interior point."""

    def __init__(self, message, point=None):
        super().__init__(message if point is None else f"{message} at v={point}")
        self.point = None if point is None else np.array(point)


class BlockStructure:
    """Declared shape of a program's constraints and curvature.

    blocks: (nb,) variable indices, one variable per block.  Constraint row
    j < nb is local: it touches only the variable blocks[j] and the border.
    The remaining k = m - nb rows couple everything and must be few.
    blocks may be empty, which leaves every row a coupling row.
    border: (b,) variable indices shared by every local row (may be empty).
    Every variable is in exactly one block or in the border.  Curvature is
    diagonal except within the border.
    """

    def __init__(self, n: int, blocks, border=()):
        self.blocks = np.asarray(blocks, dtype=np.intp)
        if self.blocks.ndim != 1:
            raise ValueError("blocks must be a 1-D index array: one variable per block")
        self.border = np.asarray(border, dtype=np.intp).reshape(-1)
        self.n = n
        used = np.concatenate([self.blocks, self.border])
        if not np.array_equal(np.sort(used), np.arange(n)):
            raise ValueError("every variable must lie in exactly one block or in the border")


@dataclass
class BlockJacobian:
    """Constraint Jacobian of a structured program, in block form.

    local[j] holds row j on blocks[j], border_part[j] row j on the border,
    and coupling the dense rows that follow the local ones.
    """

    structure: BlockStructure
    local: np.ndarray           # (nb,)
    coupling: np.ndarray        # (k, n)
    border_part: np.ndarray     # (nb, b)

    def matvec(self, d):
        """J d."""
        st = self.structure
        local = self.local * d[st.blocks]
        local += self.border_part @ d[st.border]
        return np.concatenate([local, self.coupling @ d])

    def rmatvec(self, y):
        """J^T y."""
        st = self.structure
        nb = len(st.blocks)
        out = self.coupling.T @ y[nb:]
        out[st.blocks] += self.local * y[:nb]
        out[st.border] += y[:nb] @ self.border_part
        return out

    def all_finite(self):
        return bool(np.isfinite(self.local).all() and np.isfinite(self.coupling).all()
                    and np.isfinite(self.border_part).all())


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
    BlockCurvature, for the Newton steps.
    structure: the BlockStructure both callbacks answer in.
    """

    n: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    constraint_jac: Callable[[np.ndarray], BlockJacobian]
    lower: np.ndarray
    upper: np.ndarray
    curvature: Callable[[np.ndarray, np.ndarray], BlockCurvature]
    structure: BlockStructure
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
        if self.structure.n != self.n:
            raise ValueError("a program's BlockStructure must have the same n")


@dataclass
class SolveReport:
    solution: np.ndarray
    objective: float
    kkt_residual: float
    barrier_iterations: int
    status: str                      # converged | max_iters
    stage_objectives: list = field(default_factory=list)


# The log barrier of a program: f, the log slacks and their derivatives.  Its
# Newton system weights the constraint rows by multipliers w (the constraints'
# curvature by w, their Gauss-Newton part by w/g) and the box sides by a
# diagonal.  On the central path at t these are w = 1/(t g) and 1/(t s^2),
# which give the Hessian of the barrier -f - (1/t) sum ln.

def _terms(p: ConcaveProgram, v):
    """(f, sum of the log slacks, g) at v, or None outside the domain."""
    dlo, dhi = v - p.lower, p.upper - v
    if (dlo <= 0).any() or (dhi <= 0).any():
        return None
    g = np.atleast_1d(p.constraints(v))
    if (g <= 0).any():
        return None
    f = p.objective(v)
    if not np.isfinite(f):
        return None
    logs = float(np.log(g).sum()) + float(np.log(dlo).sum()) + float(np.log(dhi).sum())
    return f, logs, g


def _pieces(p: ConcaveProgram, v, g):
    """(grad f, grad of minus the log terms, J) at v, given the constraints g
    there (as _terms returns them); the barrier's gradient at t is the second
    over t minus the first."""
    J = p.constraint_jac(v)
    grad_f = np.asarray(p.gradient(v), dtype=float)
    if not (np.isfinite(grad_f).all() and np.isfinite(g).all() and J.all_finite()):
        raise NumericError("non-finite objective/constraint derivatives", v)
    log_grad = 1.0 / (p.upper - v) - 1.0 / (v - p.lower)
    log_grad -= J.rmatvec(1.0 / g)
    return grad_f, log_grad, J


def _block_hessian(p: ConcaveProgram, v, g, J, w, box):
    """The Newton matrix (the Gauss-Newton part of the constraint terms, the
    box diagonal, and minus the program's curvature) in block form: the
    blocks, the border, the block-border entries and the coupling rows scaled
    by the square roots of their Gauss-Newton weights w/g."""
    st = p.structure
    nb = len(st.blocks)
    curv = p.curvature(v, w)
    root_gn = np.sqrt(w / g)
    diag = box - curv.diag
    a = J.local * root_gn[:nb]
    blocks = a * a + diag[st.blocks]
    c = J.border_part * root_gn[:nb, None]
    border = c.T @ c
    border.flat[::len(st.border) + 1] += diag[st.border]
    border -= curv.border
    cross = a[:, None] * c
    coupling = J.coupling.T * root_gn[nb:]
    return _BlockHessian(st, blocks, border, cross, coupling)


def _solve_spd(H, rhs):
    """(H + ridge I)^{-1} rhs for a _BlockHessian H.

    The ridge starts at _RIDGE0 times the largest |H_ii| (at least 1) and
    grows 100-fold while the factorization fails.
    """
    ridge = _RIDGE0 * max(1.0, H.max_diag())
    for _ in range(12):
        try:
            return H.solve(rhs, ridge)
        except np.linalg.LinAlgError:
            ridge *= 100.0
    return rhs / ridge     # the ridge dominates H: a scaled steepest-descent step


@dataclass
class _BlockHessian:
    """H = M + Uc Uc^T, where M is diagonal over the blocks except for a
    dense border coupled to every block."""

    structure: BlockStructure
    blocks: np.ndarray      # (nb,) the blocks' diagonal entries
    border: np.ndarray      # (b, b)
    cross: np.ndarray       # (nb, b) block-border entries
    coupling: np.ndarray    # (n, k)

    def max_diag(self):
        """Largest |H_ii|."""
        st = self.structure
        diag = np.square(self.coupling).sum(axis=1)
        diag[st.blocks] += self.blocks
        diag[st.border] += self.border.diagonal()
        return float(np.abs(diag).max())

    def solve(self, rhs, ridge):
        """(H + ridge I)^{-1} rhs.

        With y = Uc^T d, H d = rhs is the system in (d, y) with matrix
        [[M, Uc], [Uc^T, -I]].  Eliminating the block variables leaves one
        small system in the border step and y, of size b + k: the border's
        Schur complement and the Sherman-Morrison-Woodbury capacitance in one
        matrix.  Raises LinAlgError unless the block pivots are positive and
        the border's Schur complement is positive definite.
        """
        st = self.structure
        b, k = len(st.border), self.coupling.shape[1]
        # Columns: the right-hand side, the border coupling, the coupling rows.
        Zb = np.concatenate([rhs[st.blocks][:, None], self.cross,
                             self.coupling[st.blocks]], axis=1)
        pivots = self.blocks + ridge
        if (pivots <= 0).any():
            raise np.linalg.LinAlgError("block not positive definite")
        Yb = Zb / pivots[:, None]
        P = Zb[:, 1:].T @ Yb
        Ub = self.coupling[st.border]
        K = -P[:, 1:]
        K[:b, :b] += self.border
        K[:b, b:] += Ub
        K[b:, :b] += Ub.T
        diag = K.reshape(-1)[::b + k + 1]
        diag[:b] += ridge
        diag[b:] -= 1.0
        if b:
            np.linalg.cholesky(K[:b, :b])
        small_rhs = -P[:, 0]
        small_rhs[:b] += rhs[st.border]
        border_and_y = np.linalg.solve(K, small_rhs)
        d = np.empty_like(rhs)
        d[st.border] = border_and_y[:b]
        d[st.blocks] = Yb[:, 0] - Yb[:, 1:] @ border_and_y
        return d


def solve_concave(program: ConcaveProgram, start, tol: float = 1e-9) -> SolveReport:
    """Maximize the program from a strictly interior start with a finite
    objective (ValueError otherwise); see the module docstring for the
    method.  At most _MAX_NEWTON Newton steps are taken.
    """
    v = np.asarray(start, dtype=float).copy()
    current = _terms(program, v)
    if current is None or not np.isfinite(current[2]).all():
        raise ValueError(f"solve_concave needs a strictly interior start ({program.name})")
    f, logs, g = current
    grad_f, log_grad, J = _pieces(program, v, g)
    s = np.concatenate([g, v - program.lower, program.upper - v])
    k, m = g.size, s.size       # m >= 2n: the rows, then both box sides
    lo, hi = slice(k, k + program.n), slice(k + program.n, m)
    # gap = m/t, floored at tol (t at its cap).  The multipliers y start on
    # the central path at t = 1.  gap follows the surrogate gap eta / 10, but
    # only after a step the line search did not shorten: while steps are
    # damped, t stays and the iterates centre as in a barrier stage.
    gap = float(m)
    y = 1.0 / s
    central, undamped = True, False
    stage_objectives, recorded_gap = [], gap
    decrement = np.inf
    steps = 0
    while steps < _MAX_NEWTON:
        if undamped:
            gap = max(tol, min(gap, float(y @ s) / _GAP_SHRINK))
        if gap <= recorded_gap / _GAP_SHRINK:
            stage_objectives.append(float(f))
            recorded_gap = gap
        t = m / gap
        grad = log_grad / t - grad_f
        weight = y / s
        d = _solve_spd(_block_hessian(program, v, g, J, y[:k], weight[lo] + weight[hi]), -grad)
        steps += 1
        decrement = float(-grad @ d)
        if decrement < 0:        # model not PD enough; fall back to steepest descent
            d = -grad
            decrement = float(grad @ grad)
        if gap <= tol and decrement <= tol:
            break
        # The multipliers' Newton step, and the largest step keeping them
        # a fraction _TO_BOUNDARY away from zero.
        slack_step = np.concatenate([J.matvec(d), d, -d])
        dy = 1.0 / (t * s) - y - weight * slack_step
        shrinking = dy < 0
        with np.errstate(over="ignore"):     # a subnormal dy allows any step: inf
            alpha = alpha_max = 1.0 if not shrinking.any() else \
                min(1.0, _TO_BOUNDARY * float(np.min(-y[shrinking] / dy[shrinking])))
        phi = -f - logs / t
        while alpha > 1e-14:
            trial = v + alpha * d
            terms = _terms(program, trial)
            phi_trial = np.inf if terms is None else -terms[0] - terms[1] / t
            if phi_trial <= phi - _ARMIJO_SLOPE * alpha * decrement:
                break
            alpha *= _BACKTRACK
        else:
            # Back to the central path at t, where the step is the barrier
            # Newton step; once that fails too, t grows as a barrier stage ends.
            if central:
                if gap <= tol:
                    break
                gap = max(tol, gap / _GAP_SHRINK)
            y = gap / (m * s)
            central, undamped = True, False
            continue
        v, y, central, undamped = trial, y + alpha * dy, False, alpha == alpha_max
        f, logs, g = terms
        grad_f, log_grad, J = _pieces(program, v, g)
        s = np.concatenate([g, v - program.lower, program.upper - v])
    stage_objectives.append(float(f))

    # Every accepted iterate is strictly interior (the line search rejects
    # the rest), so the report needs only the optimality measure.
    kkt = max(gap, 0.5 * decrement)
    status = "converged" if kkt <= tol else "max_iters"
    return SolveReport(solution=v, objective=float(f), kkt_residual=float(kkt),
                       barrier_iterations=steps, status=status,
                       stage_objectives=stage_objectives)
