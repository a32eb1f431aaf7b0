"""Barrier solver behaviour against closed forms and brute-force grid search."""

import numpy as np
import pytest

from uavstream.convex_core import (_RIDGE0, BlockCurvature, BlockJacobian, BlockStructure,
                                   ConcaveProgram, _Barrier, _BlockHessian, _solve_spd,
                                   check_gradients, solve_concave, without_structure)


def quadratic_program():
    """maximize -||v||^2 on [-1, 1]^2."""
    return ConcaveProgram(
        n=2,
        objective=lambda v: -float(v @ v),
        gradient=lambda v: -2.0 * v,
        constraints=lambda v: np.zeros(0),
        constraint_jac=lambda v: np.zeros((0, 2)),
        lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
        curvature=lambda v, w: -2.0 * np.eye(2),
    )


def waterfill_program():
    """maximize ln v1 + ln v2 subject to v1 + v2 <= 1."""
    return ConcaveProgram(
        n=2,
        objective=lambda v: float(np.sum(np.log(v))),
        gradient=lambda v: 1.0 / v,
        constraints=lambda v: np.array([1.0 - v[0] - v[1]]),
        constraint_jac=lambda v: np.array([[-1.0, -1.0]]),
        lower=np.zeros(2), upper=np.ones(2),
        curvature=lambda v, w: np.diag(-1.0 / v**2),
    )


def random_concave_program(seed):
    """Random concave quadratic with a linear coupling constraint on [0,1]^3."""
    rng = np.random.default_rng(seed)
    root = rng.uniform(0.2, 0.9, 3)
    M = rng.uniform(-1.0, 1.0, (3, 3))
    M = M @ M.T + 0.5 * np.eye(3)
    cap = float(rng.uniform(1.2, 1.8))

    def objective(v):
        d = v - root
        return -float(d @ M @ d)

    return ConcaveProgram(
        n=3,
        objective=objective,
        gradient=lambda v: -2.0 * (M @ (v - root)),
        constraints=lambda v: np.array([cap - v.sum()]),
        constraint_jac=lambda v: np.array([[-1.0, -1.0, -1.0]]),
        lower=np.zeros(3), upper=np.ones(3),
        curvature=lambda v, w: -2.0 * M,
    ), (root, M), cap


def block_program(coupled=True):
    """maximize sum_j ln y_j - |z - c|^2 - (s - 0.3)^2 subject to
    1 + a_j.z - x_j^2 - y_j >= 0 for three blocks (x_j, y_j), a border (z, s)
    in R^3 (no local row touches s) and, when coupled, 1.5 - sum_j y_j - s >= 0."""
    a = np.array([[0.5, -0.2], [0.1, 0.3], [-0.4, 0.2]])
    c = np.array([0.2, -0.1])
    n = 9
    xs, ys = np.arange(2, 8, 2), np.arange(3, 9, 2)
    structure = BlockStructure(n, np.column_stack([xs, ys]), border=[0, 1, 8])
    border_part = np.column_stack([a, np.zeros(3)])
    coupling = np.zeros((1 if coupled else 0, n))
    coupling[:, ys] = -1.0
    coupling[:, 8] = -1.0

    def objective(v):
        return float(np.sum(np.log(v[ys])) - np.sum((v[:2] - c) ** 2) - (v[8] - 0.3) ** 2)

    def gradient(v):
        out = np.zeros(n)
        out[ys] = 1.0 / v[ys]
        out[:2] = -2.0 * (v[:2] - c)
        out[8] = -2.0 * (v[8] - 0.3)
        return out

    def constraints(v):
        local = 1.0 + a @ v[:2] - v[xs] ** 2 - v[ys]
        return np.append(local, 1.5 - v[ys].sum() - v[8]) if coupled else local

    def constraint_jac(v):
        local = np.column_stack([-2.0 * v[xs], -np.ones(3)])
        return BlockJacobian(structure, local, coupling, border_part)

    def curvature(v, w):
        diag = np.zeros(n)
        diag[xs] = -2.0 * w[:3]
        diag[ys] = -1.0 / v[ys] ** 2
        return BlockCurvature(structure, diag, border=-2.0 * np.eye(3))

    lower = np.array([-2.0, -2.0, -2.0, 0.0, -2.0, 0.0, -2.0, 0.0, -2.0])
    return ConcaveProgram(n=n, objective=objective, gradient=gradient,
                          constraints=constraints, constraint_jac=constraint_jac,
                          lower=lower, upper=np.full(n, 2.0), curvature=curvature,
                          structure=structure)


def grid_search_3d(quad, cap, coarse=0.04, fine=0.001):
    """Dense grid maximization at effective step `fine`.

    The objective is concave, so a coarse pass plus a fine pass around the
    coarse winner (one coarse cell of margin) visits the fine-grid optimum.
    """
    root, M = quad

    def best_on(axes):
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = pts[pts.sum(axis=1) <= cap]
        d = pts - root
        vals = -np.einsum("ij,jk,ik->i", d, M, d)
        k = int(np.argmax(vals))
        return pts[k], vals[k]

    coarse_axes = [np.arange(0.0, 1.0 + coarse / 2, coarse)] * 3
    center, _ = best_on(coarse_axes)
    fine_axes = [np.arange(max(0.0, c - 1.5 * coarse), min(1.0, c + 1.5 * coarse) + fine / 2, fine)
                 for c in center]
    return best_on(fine_axes)


class TestClosedFormPrograms:
    def test_box_quadratic(self):
        report = solve_concave(quadratic_program(), start=np.array([0.7, -0.4]),
                               tol=1e-9)
        assert report.status == "converged"
        assert np.allclose(report.solution, 0.0, atol=1e-6)
        assert report.objective == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_waterfill(self):
        report = solve_concave(waterfill_program(), start=np.array([0.1, 0.3]), tol=1e-9)
        assert report.status == "converged"
        assert np.allclose(report.solution, 0.5, atol=1e-6)

    def test_stage_objectives_monotone(self):
        report = solve_concave(waterfill_program(), start=np.array([0.05, 0.02]), tol=1e-10)
        assert len(report.stage_objectives) >= 3
        diffs = np.diff(report.stage_objectives)
        assert np.all(diffs >= -1e-9)

    def test_feasibility_of_solution(self):
        program = waterfill_program()
        report = solve_concave(program, start=np.array([0.2, 0.2]), tol=1e-9)
        g = program.constraints(report.solution)
        assert float(np.min(g)) >= -1e-9
        assert np.all(report.solution >= program.lower - 1e-9)
        assert np.all(report.solution <= program.upper + 1e-9)


class TestGridOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_grid(self, seed):
        program, quad, cap = random_concave_program(seed)
        report = solve_concave(program, start=np.full(3, 0.3), tol=1e-10)
        assert report.status == "converged"
        _, grid_best = grid_search_3d(quad, cap)
        # solver must match the fine grid's best objective to 1e-4
        assert report.objective >= grid_best - 1e-6
        assert abs(report.objective - grid_best) <= 1e-4


class TestStartContract:
    @pytest.mark.parametrize("start", [
        [0.9, 0.9],      # violates the constraint v1 + v2 <= 1
        [0.5, 0.5],      # on the constraint's boundary
        [0.0, 0.3],      # on the box's boundary
        [-0.1, 0.3],     # outside the box
    ])
    def test_rejects_non_interior_start(self, start):
        with pytest.raises(ValueError, match="strictly interior"):
            solve_concave(waterfill_program(), np.array(start), 1e-9)


class TestGradientChecker:
    def test_accepts_correct_gradients(self):
        err = check_gradients(waterfill_program(), np.array([0.2, 0.3]),
                              np.random.default_rng(0), n_points=50)
        assert err <= 1e-6

    def test_flags_wrong_gradient(self):
        program = waterfill_program()
        program.gradient = lambda v: 1.1 / v    # deliberately off by 10%
        err = check_gradients(program, np.array([0.2, 0.3]),
                              np.random.default_rng(0), n_points=20)
        assert err > 1e-2


class TestStructuredPrograms:
    START = np.array([0.1, 0.1, 0.2, 0.2, -0.1, 0.2, 0.0, 0.2, 0.1])

    @pytest.mark.parametrize("coupled", [True, False])
    def test_block_solve_matches_dense_solve(self, coupled):
        program = block_program(coupled)
        block = solve_concave(program, start=self.START, tol=1e-10)
        dense = solve_concave(without_structure(program), start=self.START, tol=1e-10)
        assert block.status == dense.status == "converged"
        assert block.objective == pytest.approx(dense.objective, rel=1e-10)
        assert np.allclose(block.solution, dense.solution, atol=1e-6)

    @pytest.mark.parametrize("coupled", [True, False])
    def test_block_step_solves_the_newton_system(self, coupled):
        program, v, t = block_program(coupled), self.START, 10.0
        barrier = _Barrier(program)
        grad_f, log_grad, g, J = barrier.pieces(v)
        grad = log_grad / t - grad_f
        # The central-path weights at t: the barrier's own Hessian.
        w = 1.0 / (t * g)
        box = 1.0 / (t * (v - program.lower) ** 2) + 1.0 / (t * (program.upper - v) ** 2)
        d = barrier.newton_direction(v, g, J, grad, w, box)
        H = _Barrier(without_structure(program)).hessian(v, g, J.dense(), w, box)
        assert np.linalg.norm(H @ d + grad) <= 1e-9 * np.linalg.norm(grad)

    def test_gradient_checker_reads_block_jacobians(self):
        err = check_gradients(block_program(), self.START, np.random.default_rng(0), n_points=20)
        assert err <= 1e-6

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError):
            BlockStructure(4, [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            BlockStructure(4, [[0, 1]], border=[1])

    def test_rejects_variables_outside_blocks_and_border(self):
        with pytest.raises(ValueError):
            BlockStructure(4, [[0, 1]], border=[2])
        with pytest.raises(ValueError):
            BlockStructure(3, [[0, 1]], border=[3])
        BlockStructure(4, [[0, 1]], border=[2, 3])

    def test_barrier_value_checks_box_before_constraints(self):
        calls = []
        program = waterfill_program()
        constraints = program.constraints
        program.constraints = lambda v: calls.append(v) or constraints(v)
        assert _Barrier(program).terms(np.array([-0.1, 0.5])) is None
        assert calls == []


class TestLastResortStep:
    """When every ridge fails, both Newton paths return rhs / ridge: a scaled
    steepest-descent step.  The off-diagonal entries here exceed the largest
    ridge tried (1e12 times the largest diagonal entry, at least 1e12), so
    H + ridge I stays indefinite throughout the escalation."""

    H = np.array([[0.0, 1e13], [1e13, 0.0]])
    RHS = np.array([1.0, -2.0])
    LAST_RIDGE = _RIDGE0 * 100.0 ** 12

    def test_dense_path(self):
        assert np.allclose(_solve_spd(self.H, self.RHS), self.RHS / self.LAST_RIDGE,
                           rtol=1e-12, atol=0.0)

    def test_structured_path(self):
        structure = BlockStructure(2, [[0, 1]])
        H = _BlockHessian(structure, self.H[None], np.zeros((0, 0)), np.zeros((1, 2, 0)),
                          np.zeros((2, 0)))
        assert np.allclose(_solve_spd(H, self.RHS), self.RHS / self.LAST_RIDGE,
                           rtol=1e-12, atol=0.0)
