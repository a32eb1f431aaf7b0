"""Generic smooth concave maximization under concave inequality and box constraints.

Log-barrier interior-point method: maximize f(v) + (1/t) * sum ln g_j(v)
(finite box sides contribute their own barrier terms), with Newton inner
iterations and Armijo backtracking, multiplying t by 10 per outer stage until
the barrier gap m/t drops below tolerance.

Builders may supply an exact combined-curvature callback; without one the
inner iterations fall back to damped BFGS seeded with the Gauss-Newton part
of the barrier Hessian.

A program may also declare the shape of its Hessian (BlockStructure): small
independent variable blocks, an optional dense border coupled to every block,
and a few dense coupling constraint rows.  Its Jacobian and curvature
callbacks then answer in block form, and each Newton step is solved by block
elimination of the border plus a Sherman-Morrison-Woodbury correction for the
coupling rows, in O(n) time and memory.  Programs without a declared
structure (phase-I, generic programs) take the dense Cholesky step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_ARMIJO_SLOPE = 0.25
_BACKTRACK = 0.5
_T_GROWTH = 10.0
_MAX_STAGES = 40
_RIDGE0 = 1e-10


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
    Variables in neither are free: outside the coupling rows their Hessian
    is diagonal.  Curvature may couple variables within a block and within
    the border, never across.
    """

    def __init__(self, n: int, blocks, border=()):
        blocks = np.asarray(blocks, dtype=np.intp)
        self.blocks = blocks.reshape(len(blocks), -1)
        self.border = np.asarray(border, dtype=np.intp).reshape(-1)
        self.n = n
        used = np.concatenate([self.blocks.ravel(), self.border])
        if used.size and (np.unique(used).size != used.size
                          or used.min() < 0 or used.max() >= n):
            raise ValueError("blocks and border must be disjoint variable indices")
        self.free = np.setdiff1d(np.arange(n), used)


@dataclass
class BlockJacobian:
    """Constraint Jacobian of a structured program, in block form.

    local[j] holds row j on blocks[j], border_part[j] row j on the border,
    and coupling the dense rows that follow the local ones.
    """

    structure: BlockStructure
    local: np.ndarray                           # (nb, s)
    coupling: np.ndarray                        # (k, n)
    border_part: Optional[np.ndarray] = None    # (nb, b)

    def rmatvec(self, y):
        """J^T y."""
        st = self.structure
        nb = len(st.blocks)
        out = self.coupling.T @ y[nb:]
        out[st.blocks] += self.local * y[:nb, None]
        if self.border_part is not None:
            out[st.border] += y[:nb] @ self.border_part
        return out

    def all_finite(self):
        return bool(np.isfinite(self.local).all() and np.isfinite(self.coupling).all()
                    and (self.border_part is None or np.isfinite(self.border_part).all()))

    def dense(self):
        st = self.structure
        nb = len(st.blocks)
        J = np.zeros((nb + len(self.coupling), st.n))
        J[np.arange(nb)[:, None], st.blocks] = self.local
        if self.border_part is not None:
            J[:nb, st.border] = self.border_part
        J[nb:] = self.coupling
        return J


@dataclass
class BlockCurvature:
    """hess f + sum_j w_j hess g_j of a structured program, in block form:
    a full diagonal plus optional within-block and border matrices."""

    structure: BlockStructure
    diag: np.ndarray                        # (n,)
    blocks: Optional[np.ndarray] = None     # (nb, s, s)
    border: Optional[np.ndarray] = None     # (b, b)

    def dense(self):
        st = self.structure
        H = np.diag(self.diag)
        if self.blocks is not None:
            H[st.blocks[:, :, None], st.blocks[:, None, :]] += self.blocks
        if self.border is not None:
            H[np.ix_(st.border, st.border)] += self.border
        return H


@dataclass
class ConcaveProgram:
    """Concave maximization problem in callback form.

    objective/gradient: smooth concave f and its gradient.
    constraints/constraint_jac: vector g(v) >= 0 of smooth concave functions
    and its (m, n) Jacobian; m may be zero.
    lower/upper: box bounds, +-inf entries allowed.
    curvature: optional callback (v, w) -> hess f(v) + sum_j w_j hess g_j(v),
    enabling exact Newton steps.
    structure: optional BlockStructure; when given, constraint_jac returns a
    BlockJacobian, curvature (then required) a BlockCurvature, and Newton
    steps are solved in block form.
    """

    n: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    constraint_jac: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    curvature: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = ""
    structure: Optional[BlockStructure] = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (self.n,) or self.upper.shape != (self.n,):
            raise ValueError("box bounds must have shape (n,)")
        if np.any(self.lower >= self.upper):
            raise ValueError("need lower < upper on every coordinate")
        if self.structure is not None and (self.structure.n != self.n or self.curvature is None):
            raise ValueError("a structured program needs n to match and a curvature callback")

    def midpoint(self) -> np.ndarray:
        lo = np.where(np.isfinite(self.lower), self.lower, -1.0)
        hi = np.where(np.isfinite(self.upper), self.upper, 1.0)
        return 0.5 * (lo + hi)


@dataclass
class SolveReport:
    solution: np.ndarray
    objective: float
    kkt_residual: float
    barrier_iterations: int
    status: str                      # converged | max_iters | infeasible
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
    """Barrier subproblem phi_t(v) = -f(v) - (1/t)(sum ln g + box terms), minimized."""

    def __init__(self, program: ConcaveProgram, t: float):
        self.p = program
        self.t = t
        # Finite box sides; a slice (a view) when a side is finite throughout.
        fin_lo, fin_hi = np.isfinite(program.lower), np.isfinite(program.upper)
        self.fin_lo = slice(None) if fin_lo.all() else fin_lo
        self.fin_hi = slice(None) if fin_hi.all() else fin_hi

    def value(self, v):
        dlo = v[self.fin_lo] - self.p.lower[self.fin_lo]
        dhi = self.p.upper[self.fin_hi] - v[self.fin_hi]
        if (dlo <= 0).any() or (dhi <= 0).any():
            return np.inf
        g = np.atleast_1d(self.p.constraints(v))
        if g.size and (g <= 0).any():
            return np.inf
        f = self.p.objective(v)
        if not np.isfinite(f):
            return np.inf
        barrier = 0.0
        if g.size:
            barrier += float(np.log(g).sum())
        barrier += float(np.log(dlo).sum()) + float(np.log(dhi).sum())
        return -f - barrier / self.t

    def grad_and_pieces(self, v):
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
        grad = -grad_f
        if g.size:
            jtg = J.rmatvec(1.0 / g) if self.p.structure is not None else J.T @ (1.0 / g)
            grad -= jtg / self.t
        # Infinite box sides contribute 1/inf = 0.
        box_grad = 1.0 / (self.p.upper - v) - 1.0 / (v - self.p.lower)
        grad += box_grad / self.t
        return grad, g, J

    def box_hessian(self, v):
        """Diagonal of the box terms' Hessian."""
        return (1.0 / (v - self.p.lower) ** 2 + 1.0 / (self.p.upper - v) ** 2) / self.t

    def gauss_newton_hessian(self, v, g, J):
        """PSD part of the barrier Hessian (exact for the box, GN for g)."""
        H = np.zeros((self.p.n, self.p.n))
        if g.size:
            H += (J.T * (1.0 / g**2)) @ J / self.t
        H[np.diag_indices_from(H)] += self.box_hessian(v)
        return H

    def hessian(self, v, g, J):
        H = self.gauss_newton_hessian(v, g, J)
        if self.p.curvature is not None:
            w = (1.0 / (self.t * g)) if g.size else np.zeros(0)
            H -= self.p.curvature(v, w)   # -(hess f + sum w_j hess g_j) is PSD
        return H

    def newton_direction(self, v, g, J, grad):
        """Solve (barrier Hessian) d = -grad, in block form when declared."""
        if self.p.structure is None:
            return _solve_spd(self.hessian(v, g, J), -grad)
        return _solve_structured(self._block_hessian(v, g, J), -grad)

    def _block_hessian(self, v, g, J):
        """The barrier Hessian in block form: the blocks, the border, the
        block-border entries, the free diagonal and the coupling rows scaled
        by the square roots of their Gauss-Newton weights 1/(t g^2)."""
        st = self.p.structure
        nb, size = st.blocks.shape
        w = 1.0 / (self.t * g)
        curv = self.p.curvature(v, w)
        root_gn = np.sqrt(w / g)
        diag = self.box_hessian(v) - curv.diag
        a = J.local * root_gn[:nb, None]
        blocks = a[:, :, None] * a[:, None, :]
        if curv.blocks is not None:
            blocks -= curv.blocks
        blocks.reshape(nb, -1)[:, ::size + 1] += diag[st.blocks]
        if st.border.size:
            c = J.border_part * root_gn[:nb, None]
            border = c.T @ c
            border.flat[::len(st.border) + 1] += diag[st.border]
            if curv.border is not None:
                border -= curv.border
            cross = a[:, :, None] * c[:, None, :]
        else:
            border, cross = np.zeros((0, 0)), np.zeros((nb, size, 0))
        coupling = J.coupling.T * root_gn[nb:]
        return _BlockHessian(st, blocks, border, cross, diag[st.free], coupling)


def _solve_spd(H, rhs):
    ridge = _RIDGE0 * max(1.0, float(np.max(np.abs(np.diag(H)))))
    eye = np.eye(H.shape[0])
    for _ in range(12):
        try:
            L = np.linalg.cholesky(H + ridge * eye)
            y = np.linalg.solve(L, rhs)
            return np.linalg.solve(L.T, y)
        except np.linalg.LinAlgError:
            ridge *= 100.0
    return np.linalg.lstsq(H + ridge * eye, rhs, rcond=None)[0]


@dataclass
class _BlockHessian:
    """H = M + Uc Uc^T, where M is block diagonal over the blocks and the free
    variables except for a dense border coupled to every block."""

    structure: BlockStructure
    blocks: np.ndarray      # (nb, s, s)
    border: np.ndarray      # (b, b)
    cross: np.ndarray       # (nb, s, b) block-border entries
    free: np.ndarray        # (n_free,) diagonal of the free variables
    coupling: np.ndarray    # (n, k)

    def max_diag(self):
        """Largest |H_ii|, as _solve_spd reads it off the dense matrix."""
        st = self.structure
        size = self.blocks.shape[1]
        diag = np.square(self.coupling).sum(axis=1)
        diag[st.blocks] += self.blocks.reshape(len(st.blocks), -1)[:, ::size + 1]
        diag[st.border] += self.border.diagonal()
        diag[st.free] += self.free
        return float(np.abs(diag).max())

    def solve(self, rhs, ridge):
        """(H + ridge I)^{-1} rhs.

        With y = Uc^T d, H d = rhs is the system in (d, y) with matrix
        [[M, Uc], [Uc^T, -I]].  Eliminating the block and free variables
        leaves one small system in the border step and y, of size b + k: the
        border's Schur complement and the Sherman-Morrison-Woodbury capacitance
        in one matrix.  Raises LinAlgError unless the blocks, the free
        diagonal and the border's Schur complement are positive definite.
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
        if st.free.size:
            free = self.free + ridge
            if (free <= 0).any():
                raise np.linalg.LinAlgError("free diagonal not positive")
            Uf = self.coupling[st.free]
            Yf = np.concatenate([rhs[st.free, None], np.zeros((len(free), b)), Uf], axis=1) \
                / free[:, None]
            P[b:] += Uf.T @ Yf
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
        if st.free.size:
            d[st.free] = Yf[:, 0] - Yf[:, 1:] @ border_and_y
        return d


def _solve_structured(H: _BlockHessian, rhs):
    """_solve_spd's ridge escalation on a Hessian in block form."""
    ridge = _RIDGE0 * max(1.0, H.max_diag())
    for _ in range(12):
        try:
            return H.solve(rhs, ridge)
        except np.linalg.LinAlgError:
            ridge *= 100.0
    return rhs / ridge     # the ridge dominates H: a scaled steepest-descent step


def _newton_stage(barrier: _Barrier, v, max_steps, decrement_tol, use_bfgs):
    """Minimize one barrier subproblem; returns (v, last_decrement, steps)."""
    grad, g, J = barrier.grad_and_pieces(v)
    B = barrier.gauss_newton_hessian(v, g, J) + 1e-8 * np.eye(barrier.p.n) if use_bfgs else None
    phi = barrier.value(v)
    decrement = np.inf
    for step in range(max_steps):
        d = _solve_spd(B, -grad) if use_bfgs else barrier.newton_direction(v, g, J, grad)
        decrement = float(-grad @ d)
        if decrement < 0:        # model not PD enough; fall back to steepest descent
            d = -grad
            decrement = float(grad @ grad)
        if 0.5 * decrement <= decrement_tol:
            return v, 0.5 * decrement, step
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            trial = v + alpha * d
            phi_trial = barrier.value(trial)
            if np.isfinite(phi_trial) and phi_trial <= phi - _ARMIJO_SLOPE * alpha * decrement:
                accepted = True
                break
            alpha *= _BACKTRACK
        if not accepted:
            return v, 0.5 * decrement, step
        v_new = trial
        grad_new, g, J = barrier.grad_and_pieces(v_new)
        if use_bfgs:
            s = v_new - v
            y = grad_new - grad
            Bs = B @ s
            sBs = float(s @ Bs)
            sy = float(s @ y)
            if sBs > 0:
                if sy < 0.2 * sBs:   # Powell damping keeps B positive definite
                    theta = 0.8 * sBs / (sBs - sy)
                    y = theta * y + (1.0 - theta) * Bs
                    sy = float(s @ y)
                if sy > 1e-12 * sBs:
                    B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
        v, grad, phi = v_new, grad_new, phi_trial
    return v, 0.5 * decrement, max_steps


def solve_concave(program: ConcaveProgram, start=None, tol: float = 1e-9,
                  max_newton: int = 200) -> SolveReport:
    """Maximize the program; see module docstring for the method.

    start must be strictly interior; when omitted, a phase-I feasibility
    subproblem locates one (status 'infeasible' if none exists).
    """
    if start is None or not _interior(program, np.asarray(start, dtype=float)):
        candidate = None if start is None else np.asarray(start, dtype=float)
        start = _phase_one(program, candidate, tol=max(tol, 1e-8), max_newton=max_newton)
        if start is None:
            return SolveReport(solution=program.midpoint(), objective=-np.inf,
                               kkt_residual=np.inf, barrier_iterations=0,
                               status="infeasible")
    v = np.asarray(start, dtype=float).copy()

    m_total = np.atleast_1d(program.constraints(v)).size \
        + int(np.sum(np.isfinite(program.lower))) \
        + int(np.sum(np.isfinite(program.upper)))
    use_bfgs = program.curvature is None
    decrement_tol = 0.5 * tol

    t = 1.0
    total_steps = 0
    stage_objectives = []
    last_decrement = np.inf
    for _ in range(_MAX_STAGES):
        barrier = _Barrier(program, t)
        v, last_decrement, steps = _newton_stage(
            barrier, v, max_newton, decrement_tol, use_bfgs)
        total_steps += steps
        stage_objectives.append(float(program.objective(v)))
        if m_total == 0 or m_total / t < tol:
            break
        t *= _T_GROWTH

    gap = m_total / t if m_total else 0.0
    kkt = max(gap, last_decrement)
    g_final = np.atleast_1d(program.constraints(v))
    feasible = (not g_final.size or float(np.min(g_final)) >= -1e-9) \
        and np.all(v >= program.lower - 1e-9) and np.all(v <= program.upper + 1e-9)
    status = "converged" if (kkt <= tol and feasible) else "max_iters"
    return SolveReport(solution=v, objective=float(program.objective(v)),
                       kkt_residual=float(kkt), barrier_iterations=total_steps,
                       status=status, stage_objectives=stage_objectives)


def _phase_one(program: ConcaveProgram, candidate, tol, max_newton):
    """Find a strictly interior point by minimizing the worst constraint slack."""
    program = without_structure(program)
    v0 = program.midpoint() if candidate is None else np.clip(
        candidate,
        np.where(np.isfinite(program.lower), program.lower, -np.inf) + 1e-9,
        np.where(np.isfinite(program.upper), program.upper, np.inf) - 1e-9)
    g0 = np.atleast_1d(program.constraints(v0))
    if g0.size == 0:
        return v0
    s0 = max(0.0, -float(np.min(g0))) + 1.0
    n = program.n

    def obj(vs):
        return -vs[-1]

    def grad(vs):
        out = np.zeros(n + 1)
        out[-1] = -1.0
        return out

    def cons(vs):
        return np.atleast_1d(program.constraints(vs[:n])) + vs[-1]

    def jac(vs):
        J = np.atleast_2d(program.constraint_jac(vs[:n]))
        return np.hstack([J, np.ones((J.shape[0], 1))])

    curvature = None
    if program.curvature is not None:
        def curvature(vs, w):
            H = np.zeros((n + 1, n + 1))
            H[:n, :n] = program.curvature(vs[:n], w)
            return H

    aux = ConcaveProgram(
        n=n + 1,
        objective=obj, gradient=grad, constraints=cons, constraint_jac=jac,
        lower=np.append(program.lower, -2.0),
        upper=np.append(program.upper, s0 + 1.0),
        curvature=curvature, name=f"{program.name}:phase1")
    report = solve_concave(aux, start=np.append(v0, s0), tol=tol, max_newton=max_newton)
    v_feas = report.solution[:n]
    if report.solution[-1] < 0 and _interior(program, v_feas):
        return v_feas
    return None


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
