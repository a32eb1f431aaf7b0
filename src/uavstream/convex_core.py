"""Generic smooth concave maximization under concave inequality and box constraints.

Primal-dual interior-point method (Boyd & Vandenberghe, Convex Optimization,
section 11.7).  The barrier subproblem at t is: maximize
f(v) + (1/t) * sum ln g_j(v), finite box sides contributing their own log
terms.  The method carries multipliers for the constraint rows and the finite
box sides.  t starts at 1 and, after every step the line search did not
shorten, becomes 10 m / eta for the surrogate gap eta (multipliers times
slacks), never falling and capped at m/tol.  Each iteration takes one Newton
step on the barrier at t whose constraint weights are the multipliers,
updates the multipliers along their own Newton direction (kept positive by a
fraction-to-boundary rule), and backtracks both by Armijo on the barrier
value at t.  With the multipliers on the central path this step is the
log-barrier Newton step; a failed line search returns them there.  The solve
stops once t is at its cap and the Newton decrement is below tolerance.  The
caller supplies a strictly interior start.

Every program supplies an exact combined-curvature callback, so each step is
a Newton step.

A program may also declare the shape of its Hessian (BlockStructure): every
variable lies in exactly one small block or in a dense border coupled to every
block; each local constraint row touches one block and the border, and a few
dense coupling rows follow.  Its Jacobian and curvature callbacks then answer
in block form (the curvature is a diagonal plus a border matrix), and each
Newton step is solved by block elimination of the border plus a
Sherman-Morrison-Woodbury correction for the coupling rows, in O(n) time and
memory.  Programs without a declared structure take the dense Cholesky step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

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

    blocks: (nb, s) variable indices.  Constraint row j < nb is local: it
    touches only the variables blocks[j] and the border.  The remaining
    k = m - nb rows couple everything and must be few.
    border: (b,) variable indices shared by every local row (may be empty).
    Every variable lies in exactly one block or in the border.  Curvature is
    diagonal except within the border.
    """

    def __init__(self, n: int, blocks, border=()):
        blocks = np.asarray(blocks, dtype=np.intp)
        self.blocks = blocks.reshape(len(blocks), -1)
        self.border = np.asarray(border, dtype=np.intp).reshape(-1)
        self.n = n
        used = np.concatenate([self.blocks.ravel(), self.border])
        if not np.array_equal(np.sort(used), np.arange(n)):
            raise ValueError("every variable must lie in exactly one block or in the border")


@dataclass
class BlockJacobian:
    """Constraint Jacobian of a structured program, in block form.

    local[j] holds row j on blocks[j], border_part[j] row j on the border,
    and coupling the dense rows that follow the local ones.
    """

    structure: BlockStructure
    local: np.ndarray           # (nb, s)
    coupling: np.ndarray        # (k, n)
    border_part: np.ndarray     # (nb, b)

    def matvec(self, d):
        """J d."""
        st = self.structure
        local = np.einsum("ij,ij->i", self.local, d[st.blocks])
        local += self.border_part @ d[st.border]
        return np.concatenate([local, self.coupling @ d])

    def rmatvec(self, y):
        """J^T y."""
        st = self.structure
        nb = len(st.blocks)
        out = self.coupling.T @ y[nb:]
        out[st.blocks] += self.local * y[:nb, None]
        out[st.border] += y[:nb] @ self.border_part
        return out

    def all_finite(self):
        return bool(np.isfinite(self.local).all() and np.isfinite(self.coupling).all()
                    and np.isfinite(self.border_part).all())

    def dense(self):
        st = self.structure
        nb = len(st.blocks)
        J = np.zeros((nb + len(self.coupling), st.n))
        J[np.arange(nb)[:, None], st.blocks] = self.local
        J[:nb, st.border] = self.border_part
        J[nb:] = self.coupling
        return J


@dataclass
class BlockCurvature:
    """hess f + sum_j w_j hess g_j of a structured program, in block form:
    a full diagonal plus a border matrix."""

    structure: BlockStructure
    diag: np.ndarray        # (n,)
    border: np.ndarray      # (b, b)

    def dense(self):
        st = self.structure
        H = np.diag(self.diag)
        H[np.ix_(st.border, st.border)] += self.border
        return H


@dataclass
class ConcaveProgram:
    """Concave maximization problem in callback form.

    objective/gradient: smooth concave f and its gradient.
    constraints/constraint_jac: vector g(v) >= 0 of smooth concave functions
    and its (m, n) Jacobian; m may be zero.
    lower/upper: box bounds, +-inf entries allowed.
    curvature: callback (v, w) -> hess f(v) + sum_j w_j hess g_j(v), for the
    Newton steps.
    structure: optional BlockStructure; when given, constraint_jac returns a
    BlockJacobian, curvature a BlockCurvature, and Newton steps are solved in
    block form.
    """

    n: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    constraint_jac: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    curvature: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""
    structure: Optional[BlockStructure] = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (self.n,) or self.upper.shape != (self.n,):
            raise ValueError("box bounds must have shape (n,)")
        if np.any(self.lower >= self.upper):
            raise ValueError("need lower < upper on every coordinate")
        if self.structure is not None and self.structure.n != self.n:
            raise ValueError("a structured program's BlockStructure must have the same n")


@dataclass
class SolveReport:
    solution: np.ndarray
    objective: float
    kkt_residual: float
    barrier_iterations: int
    status: str                      # converged | max_iters
    stage_objectives: list = field(default_factory=list)


def _interior(program: ConcaveProgram, v: np.ndarray, margin: float = 0.0) -> bool:
    if np.any(v <= program.lower + margin) or np.any(v >= program.upper - margin):
        return False
    g = np.atleast_1d(program.constraints(v))
    return bool(np.all(np.isfinite(g)) and np.all(g > margin))


def without_structure(program: ConcaveProgram) -> ConcaveProgram:
    """The same program with dense Jacobian and curvature callbacks."""
    if program.structure is None:
        return program
    jac, curvature = program.constraint_jac, program.curvature
    return dataclasses.replace(program, structure=None,
                               constraint_jac=lambda v: jac(v).dense(),
                               curvature=lambda v, w: curvature(v, w).dense())


class _Barrier:
    """The log barrier of a program: f, the log slacks and their derivatives.

    Its Newton system weights the constraint rows by multipliers w (the
    constraints' curvature by w, their Gauss-Newton part by w/g) and the box
    sides by a diagonal.  On the central path at t these are w = 1/(t g) and
    1/(t s^2), which give the Hessian of the barrier -f - (1/t) sum ln.
    """

    def __init__(self, program: ConcaveProgram):
        self.p = program
        # Finite box sides; a slice (a view) when a side is finite throughout.
        fin_lo, fin_hi = np.isfinite(program.lower), np.isfinite(program.upper)
        self.fin_lo = slice(None) if fin_lo.all() else fin_lo
        self.fin_hi = slice(None) if fin_hi.all() else fin_hi

    def box_slacks(self, v):
        """Slacks of the finite lower and upper box sides."""
        lo, hi = self.fin_lo, self.fin_hi
        return v[lo] - self.p.lower[lo], self.p.upper[hi] - v[hi]

    def terms(self, v):
        """(f, sum of the log slacks) at v, or None outside the domain."""
        dlo, dhi = self.box_slacks(v)
        if (dlo <= 0).any() or (dhi <= 0).any():
            return None
        g = np.atleast_1d(self.p.constraints(v))
        if g.size and (g <= 0).any():
            return None
        f = self.p.objective(v)
        if not np.isfinite(f):
            return None
        return f, float(np.log(g).sum()) + float(np.log(dlo).sum()) + float(np.log(dhi).sum())

    def pieces(self, v):
        """(grad f, grad of minus the log terms, g, J); the barrier's gradient
        at t is the second over t minus the first."""
        g = np.atleast_1d(self.p.constraints(v))
        J = self.p.constraint_jac(v)
        if self.p.structure is not None:
            finite = J.all_finite()
        else:
            J = np.atleast_2d(np.asarray(J, dtype=float)) if g.size else np.zeros((0, self.p.n))
            finite = np.isfinite(J).all()
        grad_f = np.asarray(self.p.gradient(v), dtype=float)
        if not (np.isfinite(grad_f).all() and np.isfinite(g).all() and finite):
            raise NumericError("non-finite objective/constraint derivatives", v)
        # Infinite box sides contribute 1/inf = 0.
        log_grad = 1.0 / (self.p.upper - v) - 1.0 / (v - self.p.lower)
        if g.size:
            log_grad -= J.rmatvec(1.0 / g) if self.p.structure is not None else J.T @ (1.0 / g)
        return grad_f, log_grad, g, J

    def hessian(self, v, g, J, w, box):
        """The dense Newton matrix: the Gauss-Newton part of the constraint
        terms, the box diagonal, and minus the program's curvature."""
        H = (J.T * (w / g)) @ J
        H[np.diag_indices_from(H)] += box
        H -= self.p.curvature(v, w)   # -(hess f + sum w_j hess g_j) is PSD
        return H

    def newton_direction(self, v, g, J, grad, w, box):
        """Solve (Newton matrix) d = -grad, in block form when declared."""
        H = self.hessian(v, g, J, w, box) if self.p.structure is None \
            else self._block_hessian(v, g, J, w, box)
        return _solve_spd(H, -grad)

    def _block_hessian(self, v, g, J, w, box):
        """The Newton matrix in block form: the blocks, the border, the
        block-border entries and the coupling rows scaled by the square roots
        of their Gauss-Newton weights w/g."""
        st = self.p.structure
        nb, size = st.blocks.shape
        curv = self.p.curvature(v, w)
        root_gn = np.sqrt(w / g)
        diag = box - curv.diag
        a = J.local * root_gn[:nb, None]
        blocks = a[:, :, None] * a[:, None, :]
        blocks.reshape(nb, -1)[:, ::size + 1] += diag[st.blocks]
        c = J.border_part * root_gn[:nb, None]
        border = c.T @ c
        border.flat[::len(st.border) + 1] += diag[st.border]
        border -= curv.border
        cross = a[:, :, None] * c[:, None, :]
        coupling = J.coupling.T * root_gn[nb:]
        return _BlockHessian(st, blocks, border, cross, coupling)


def _solve_spd(H, rhs):
    """(H + ridge I)^{-1} rhs for H a dense matrix or a _BlockHessian.

    The ridge starts at _RIDGE0 times the largest |H_ii| (at least 1) and
    grows 100-fold while the factorization fails.
    """
    dense = isinstance(H, np.ndarray)
    ridge = _RIDGE0 * max(1.0, float(np.max(np.abs(np.diag(H)))) if dense else H.max_diag())
    for _ in range(12):
        try:
            if not dense:
                return H.solve(rhs, ridge)
            L = np.linalg.cholesky(H + ridge * np.eye(len(H)))
            return np.linalg.solve(L.T, np.linalg.solve(L, rhs))
        except np.linalg.LinAlgError:
            ridge *= 100.0
    return rhs / ridge     # the ridge dominates H: a scaled steepest-descent step


@dataclass
class _BlockHessian:
    """H = M + Uc Uc^T, where M is block diagonal over the blocks except for
    a dense border coupled to every block."""

    structure: BlockStructure
    blocks: np.ndarray      # (nb, s, s)
    border: np.ndarray      # (b, b)
    cross: np.ndarray       # (nb, s, b) block-border entries
    coupling: np.ndarray    # (n, k)

    def max_diag(self):
        """Largest |H_ii|, as _solve_spd reads it off a dense matrix."""
        st = self.structure
        size = self.blocks.shape[1]
        diag = np.square(self.coupling).sum(axis=1)
        diag[st.blocks] += self.blocks.reshape(len(st.blocks), -1)[:, ::size + 1]
        diag[st.border] += self.border.diagonal()
        return float(np.abs(diag).max())

    def solve(self, rhs, ridge):
        """(H + ridge I)^{-1} rhs.

        With y = Uc^T d, H d = rhs is the system in (d, y) with matrix
        [[M, Uc], [Uc^T, -I]].  Eliminating the block variables leaves one
        small system in the border step and y, of size b + k: the border's
        Schur complement and the Sherman-Morrison-Woodbury capacitance in one
        matrix.  Raises LinAlgError unless the blocks and the border's Schur
        complement are positive definite.
        """
        st = self.structure
        b, k = len(st.border), self.coupling.shape[1]
        size = self.blocks.shape[1]
        # Columns: the right-hand side, the border coupling, the coupling rows.
        Zb = np.concatenate([rhs[st.blocks][:, :, None], self.cross,
                             self.coupling[st.blocks]], axis=2)
        if size == 1:
            pivots = self.blocks + ridge
            if (pivots <= 0).any():
                raise np.linalg.LinAlgError("block not positive definite")
            Yb = Zb / pivots
        else:
            blocks = self.blocks + ridge * np.eye(size)
            np.linalg.cholesky(blocks)       # raises unless every block is positive definite
            Yb = np.linalg.solve(blocks, Zb)
        P = Zb[:, :, 1:].reshape(-1, b + k).T @ Yb.reshape(-1, 1 + b + k)
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
        d[st.blocks] = Yb[:, :, 0] - Yb[:, :, 1:] @ border_and_y
        return d


def solve_concave(program: ConcaveProgram, start, tol: float = 1e-9) -> SolveReport:
    """Maximize the program from a strictly interior start; see the module
    docstring for the method.  At most _MAX_NEWTON Newton steps are taken.
    """
    v = np.asarray(start, dtype=float).copy()
    if not _interior(program, v):
        raise ValueError(f"solve_concave needs a strictly interior start ({program.name})")

    barrier = _Barrier(program)
    fin_lo, fin_hi = barrier.fin_lo, barrier.fin_hi
    f, logs = barrier.terms(v)
    grad_f, log_grad, g, J = barrier.pieces(v)
    s = np.concatenate([g, *barrier.box_slacks(v)])
    k, m = g.size, s.size
    lo = slice(k, k + v[fin_lo].size)
    hi = slice(lo.stop, m)
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
        if m and gap <= recorded_gap / _GAP_SHRINK:
            stage_objectives.append(float(f))
            recorded_gap = gap
        t = m / gap if m else 1.0
        grad = log_grad / t - grad_f
        weight = y / s
        box = np.zeros(program.n)
        box[fin_lo] += weight[lo]
        box[fin_hi] += weight[hi]
        d = barrier.newton_direction(v, g, J, grad, y[:k], box)
        steps += 1
        decrement = float(-grad @ d)
        if decrement < 0:        # model not PD enough; fall back to steepest descent
            d = -grad
            decrement = float(grad @ grad)
        if gap <= tol and decrement <= tol:
            break
        # The multipliers' Newton step, and the largest step keeping them
        # a fraction _TO_BOUNDARY away from zero.
        slack_step = np.concatenate([J.matvec(d) if program.structure is not None else J @ d,
                                     d[fin_lo], -d[fin_hi]])
        dy = 1.0 / (t * s) - y - weight * slack_step
        shrinking = dy < 0
        alpha = alpha_max = 1.0 if not shrinking.any() else \
            min(1.0, _TO_BOUNDARY * float(np.min(-y[shrinking] / dy[shrinking])))
        phi = -f - logs / t
        while alpha > 1e-14:
            trial = v + alpha * d
            terms = barrier.terms(trial)
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
        f, logs = terms
        grad_f, log_grad, g, J = barrier.pieces(v)
        s = np.concatenate([g, *barrier.box_slacks(v)])
    stage_objectives.append(float(f))

    # Every accepted iterate is strictly interior (the line search rejects
    # the rest), so the report needs only the optimality measure.
    kkt = max(gap if m else 0.0, 0.5 * decrement)
    status = "converged" if kkt <= tol else "max_iters"
    return SolveReport(solution=v, objective=float(f), kkt_residual=float(kkt),
                       barrier_iterations=steps, status=status,
                       stage_objectives=stage_objectives)


def check_gradients(program: ConcaveProgram, reference_point, rng=None,
                    n_points: int = 100, step: float = 1e-6) -> float:
    """Max relative error of gradient/Jacobian callbacks vs central differences.

    Points are sampled on segments from the strictly interior reference point
    toward random box points, shrunk until they stay interior.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    program = without_structure(program)
    v0 = np.asarray(reference_point, dtype=float)
    if not _interior(program, v0):
        raise ValueError("reference_point must be strictly interior")
    lo = np.where(np.isfinite(program.lower), program.lower, v0 - 1.0)
    hi = np.where(np.isfinite(program.upper), program.upper, v0 + 1.0)
    worst = 0.0
    for _ in range(n_points):
        target = rng.uniform(lo, hi)
        lam = 1.0
        v = v0 + lam * (target - v0)
        while lam > 1e-6 and not _interior(program, v, margin=1e-12):
            lam *= 0.5
            v = v0 + lam * (target - v0)
        if not _interior(program, v, margin=1e-12):
            continue
        worst = max(worst, _point_gradient_error(program, v, step))
    return worst


def _point_gradient_error(program, v, step):
    n = program.n
    grad = np.asarray(program.gradient(v), dtype=float)
    J = np.atleast_2d(np.asarray(program.constraint_jac(v), dtype=float))
    m = np.atleast_1d(program.constraints(v)).size
    worst = 0.0
    for i in range(n):
        h = step * max(1.0, abs(v[i]))
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        fd_obj = (program.objective(vp) - program.objective(vm)) / (2 * h)
        denom = max(1e-8, abs(fd_obj), abs(grad[i]))
        worst = max(worst, abs(fd_obj - grad[i]) / denom)
        if m:
            fd_con = (np.atleast_1d(program.constraints(vp))
                      - np.atleast_1d(program.constraints(vm))) / (2 * h)
            for j in range(m):
                denom = max(1e-8, abs(fd_con[j]), abs(J[j, i]))
                worst = max(worst, abs(fd_con[j] - J[j, i]) / denom)
    return worst
