"""Dense reference for convex_core's block-form callbacks and Newton step.

The solver takes every Newton step in block form.  The tests check those
steps, and the block-form callbacks, against the dense matrices built here,
with no call into the block solve.  Generic programs written with dense
callbacks declare a border-only structure: no blocks, every variable in the
border and every row a coupling row (border_only).
"""

import numpy as np

from uavstream.convex_core import (_RIDGE0, BlockCurvature, BlockJacobian, BlockStructure,
                                   ConcaveProgram)


def border_only(n, constraint_jac, curvature, **fields):
    """A ConcaveProgram from dense callbacks: constraint_jac(v) -> (m, n) and
    curvature(v, w) -> (n, n).  fields are the remaining ConcaveProgram
    fields."""
    structure = BlockStructure(n, [], border=np.arange(n))
    no_local, no_border_part, zero_diag = np.zeros((0, 0)), np.zeros((0, n)), np.zeros(n)

    def jac(v):
        J = np.asarray(constraint_jac(v), dtype=float).reshape(-1, n)
        return BlockJacobian(structure, no_local, J, no_border_part)

    def curv(v, w):
        return BlockCurvature(zero_diag, np.asarray(curvature(v, w), dtype=float))

    return ConcaveProgram(n=n, constraint_jac=jac, curvature=curv, structure=structure,
                          **fields)


def dense_jacobian(J):
    """The (m, n) matrix of a BlockJacobian."""
    st = J.structure
    nb = len(st.blocks)
    D = np.zeros((nb + len(J.coupling), st.n))
    D[np.arange(nb)[:, None], st.blocks] = J.local
    D[:nb, st.border] = J.border_part
    D[nb:] = J.coupling
    return D


def dense_curvature(structure, C):
    """The (n, n) matrix of a BlockCurvature declared in structure."""
    H = np.diag(C.diag)
    H[np.ix_(structure.border, structure.border)] += C.border
    return H


def border_only_twin(program):
    """The same program through dense callbacks, as a border-only program."""
    jac, curvature, st = program.constraint_jac, program.curvature, program.structure
    return border_only(program.n, lambda v: dense_jacobian(jac(v)),
                       lambda v, w: dense_curvature(st, curvature(v, w)),
                       objective=program.objective, gradient=program.gradient,
                       constraints=program.constraints, lower=program.lower,
                       upper=program.upper, name=program.name)


def dense_newton_matrix(program, v, g, w, box):
    """The Newton matrix at v: the Gauss-Newton part of the constraint terms
    (weights w/g), the box diagonal, and minus the program's curvature."""
    J = dense_jacobian(program.constraint_jac(v))
    H = (J.T * (w / g)) @ J
    H[np.diag_indices_from(H)] += box
    H -= dense_curvature(program.structure, program.curvature(v, w))
    return H


def dense_step(H, rhs):
    """(H + ridge I)^{-1} rhs by Cholesky, with convex_core's first ridge:
    _RIDGE0 times the largest |H_ii|, at least 1."""
    ridge = _RIDGE0 * max(1.0, float(np.max(np.abs(np.diag(H)))))
    L = np.linalg.cholesky(H + ridge * np.eye(len(H)))
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def interior(program, v, margin=0.0):
    """Whether v lies strictly inside the box and every constraint row, by margin."""
    if np.any(v <= program.lower + margin) or np.any(v >= program.upper - margin):
        return False
    g = np.atleast_1d(program.constraints(v))
    return bool(np.all(np.isfinite(g)) and np.all(g > margin))


def _shrunk_toward(program, v0, target):
    """The first of v0 + 2^-i (target - v0), i = 0..20, strictly interior by
    1e-12, or None."""
    lam = 1.0
    v = v0 + lam * (target - v0)
    while lam > 1e-6 and not interior(program, v, margin=1e-12):
        lam *= 0.5
        v = v0 + lam * (target - v0)
    return v if interior(program, v, margin=1e-12) else None


def random_interior_points(program, v0, rng, count):
    """count points on segments from v0 toward random box points, shrunk
    until interior."""
    points = []
    while len(points) < count:
        v = _shrunk_toward(program, v0, rng.uniform(program.lower, program.upper))
        if v is not None:
            points.append(v)
    return points


def check_gradients(program, reference_point, rng=None, n_points=100, step=1e-6):
    """Max relative error of the gradient and Jacobian callbacks against
    central differences.

    Points are sampled on segments from the strictly interior reference point
    toward n_points random box points, shrunk until they stay interior.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    v0 = np.asarray(reference_point, dtype=float)
    if not interior(program, v0):
        raise ValueError("reference_point must be strictly interior")
    worst = 0.0
    for _ in range(n_points):
        v = _shrunk_toward(program, v0, rng.uniform(program.lower, program.upper))
        if v is not None:
            worst = max(worst, _point_gradient_error(program, v, step))
    return worst


def _point_gradient_error(program, v, step):
    grad = np.asarray(program.gradient(v), dtype=float)
    J = dense_jacobian(program.constraint_jac(v))
    m = len(J)
    worst = 0.0
    for i in range(program.n):
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
