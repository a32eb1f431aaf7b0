"""Barrier solver behaviour against closed forms and brute-force grid search."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from uavstream import convex_core
from uavstream.convex_core import (_MAX_NEWTON, _RIDGE0, BlockCurvature, BlockJacobian,
                                   ConcaveProgram, NumericError, _pieces, _solve_spd, _terms,
                                   solve_concave)

from dense_reference import border_only, border_only_twin, check_gradients, dense_newton_matrix


def quadratic_program():
    """maximize -||v||^2 on [-1, 1]^2."""
    return border_only(
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
    return border_only(
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

    return border_only(
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
    1 + a_j.z - x_j^2 - y_j >= 0 for three one-variable blocks y_j, a border
    (z, x_1, x_2, x_3, s) with z in R^2 (no local row touches s, and row j
    touches x_j alone of the x) and, when coupled, 1.5 - sum_j y_j - s >= 0.
    Variables: the border, then y_1, y_2, y_3."""
    a = np.array([[0.5, -0.2], [0.1, 0.3], [-0.4, 0.2]])
    c = np.array([0.2, -0.1])
    n, b = 9, 6
    xs, ys = slice(2, 5), slice(b, n)
    coupling = np.zeros((1 if coupled else 0, n))
    coupling[:, ys] = -1.0
    coupling[:, 5] = -1.0

    def objective(v):
        return float(np.sum(np.log(v[ys])) - np.sum((v[:2] - c) ** 2) - (v[5] - 0.3) ** 2)

    def gradient(v):
        out = np.zeros(n)
        out[ys] = 1.0 / v[ys]
        out[:2] = -2.0 * (v[:2] - c)
        out[5] = -2.0 * (v[5] - 0.3)
        return out

    def constraints(v):
        local = 1.0 + a @ v[:2] - v[xs] ** 2 - v[ys]
        return np.append(local, 1.5 - v[ys].sum() - v[5]) if coupled else local

    def constraint_jac(v):
        border_part = np.zeros((b, 3))
        border_part[:2] = a.T
        border_part[2 + np.arange(3), np.arange(3)] = -2.0 * v[xs]
        return BlockJacobian(-np.ones(3), coupling, border_part)

    def curvature(v, w):
        diag = np.zeros(n)
        diag[xs] = -2.0 * w[:3]
        diag[ys] = -1.0 / v[ys] ** 2
        return BlockCurvature(diag, border=np.diag([-2.0, -2.0, 0.0, 0.0, 0.0, -2.0]))

    lower = np.concatenate([np.full(b, -2.0), np.zeros(n - b)])
    return ConcaveProgram(n=n, objective=objective, gradient=gradient,
                          constraints=constraints, constraint_jac=constraint_jac,
                          lower=lower, upper=np.full(n, 2.0), curvature=curvature, border=b)


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


class TestBoxContract:
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bounds(self, side, bound):
        # A NaN bound passes the lower < upper check, so finiteness is
        # checked on its own: every box side carries a log term.
        program = waterfill_program()
        box = {"lower": program.lower.copy(), "upper": program.upper.copy()}
        box[side][1] = bound
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(program, **box)

    def test_rejects_empty_program(self):
        # With n >= 1 the solver has m >= 2 slacks, so t = m / gap is defined.
        with pytest.raises(ValueError, match="n >= 1"):
            dataclasses.replace(quadratic_program(), n=0, lower=np.zeros(0), upper=np.zeros(0))

    def test_requires_a_border(self):
        fields = {f.name: getattr(waterfill_program(), f.name)
                  for f in dataclasses.fields(ConcaveProgram) if f.name != "border"}
        with pytest.raises(TypeError, match="border"):
            ConcaveProgram(**fields)

    @pytest.mark.parametrize("border", [-1, 3])
    def test_rejects_border_outside_the_program(self, border):
        with pytest.raises(ValueError, match=r"\[0, n\]"):
            dataclasses.replace(waterfill_program(), border=border)
        dataclasses.replace(waterfill_program(), border=0)     # both ends are allowed


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

    def test_rejects_start_with_non_finite_objective(self):
        # The start is inside the box and the constraint, but f(start) = -inf.
        program = border_only(
            n=1,
            objective=lambda v: -np.inf,
            gradient=lambda v: np.zeros(1),
            constraints=lambda v: np.array([1.0 - v[0]]),
            constraint_jac=lambda v: np.array([[-1.0]]),
            lower=np.zeros(1), upper=np.full(1, 2.0),
            curvature=lambda v, w: np.zeros((1, 1)),
        )
        with pytest.raises(ValueError, match="strictly interior"):
            solve_concave(program, np.array([0.5]), 1e-9)

    def test_rejects_non_finite_derivatives(self):
        # A NaN gradient at the start raises before any Newton step is built.
        program = dataclasses.replace(waterfill_program(),
                                      gradient=lambda v: np.full(2, np.nan))
        with pytest.raises(NumericError, match="non-finite"):
            solve_concave(program, np.array([0.2, 0.2]), 1e-9)


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
    START = np.array([0.1, 0.1, 0.2, -0.1, 0.0, 0.1, 0.2, 0.2, 0.2])

    @pytest.mark.parametrize("coupled", [True, False])
    def test_block_solve_matches_dense_solve(self, coupled):
        program = block_program(coupled)
        block = solve_concave(program, start=self.START, tol=1e-10)
        dense = solve_concave(border_only_twin(program), start=self.START, tol=1e-10)
        assert block.status == dense.status == "converged"
        assert block.objective == pytest.approx(dense.objective, rel=1e-10)
        assert np.allclose(block.solution, dense.solution, atol=1e-6)

    @pytest.mark.parametrize("coupled", [True, False])
    def test_block_step_solves_the_newton_system(self, coupled):
        program, v, t = block_program(coupled), self.START, 10.0
        s = _terms(program, v)[2]
        g = s[:-2 * program.n]
        grad_f, log_grad, J = _pieces(program, v, 1.0 / s)
        grad = log_grad / t - grad_f
        # The central-path weights at t: the barrier's own Hessian.
        w = 1.0 / (t * g)
        box = 1.0 / (t * (v - program.lower) ** 2) + 1.0 / (t * (program.upper - v) ** 2)
        d = _solve_spd(program, v, J, w, w / g, box, -grad)
        H = dense_newton_matrix(program, v, g, w, box)
        assert np.linalg.norm(H @ d + grad) <= 1e-9 * np.linalg.norm(grad)

    def off_path_system(self, coupled):
        """A block program at START with row and box weights scaled apart,
        as in a primal-dual step: (program, J, w, g, box)."""
        program, v, t = block_program(coupled), self.START, 10.0
        s = _terms(program, v)[2]
        g = s[:-2 * program.n]
        J = _pieces(program, v, 1.0 / s)[2]
        w = 0.7 / (t * g)
        box = 1.3 / (t * (v - program.lower) ** 2) + 0.6 / (t * (program.upper - v) ** 2)
        return program, J, w, g, box

    @pytest.mark.parametrize("coupled", [True, False])
    def test_off_path_steps_solve_the_dense_system(self, coupled):
        program, J, w, g, box = self.off_path_system(coupled)
        dense = dense_newton_matrix(program, self.START, g, w, box)
        dense += _RIDGE0 * max(1.0, np.abs(np.diag(dense)).max()) * np.eye(program.n)
        rng = np.random.default_rng(int(coupled))
        for rhs in rng.standard_normal((2, program.n)):
            expected = np.linalg.solve(dense, rhs)
            d = _solve_spd(program, self.START, J, w, w / g, box, rhs)
            assert np.linalg.norm(d - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("coupled", [True, False])
    def test_ridge_scales_with_the_largest_diagonal_entry(self, coupled, monkeypatch):
        # A first ridge of 1e-3 max |H_ii| moves the step by far more than
        # the tolerance, so the comparison pins the ridge's scale.
        monkeypatch.setattr(convex_core, "_RIDGE0", 1e-3)
        program, J, w, g, box = self.off_path_system(coupled)
        dense = dense_newton_matrix(program, self.START, g, w, box)
        scale = np.abs(np.diag(dense)).max()
        assert scale > 10.0
        rhs = np.random.default_rng(int(coupled)).standard_normal(program.n)
        d = _solve_spd(program, self.START, J, w, w / g, box, rhs)
        for ridge, matches in ((1e-3 * scale, True), (1e-3, False), (0.0, False)):
            expected = np.linalg.solve(dense + ridge * np.eye(program.n), rhs)
            error = np.linalg.norm(d - expected) / np.linalg.norm(expected)
            assert (error <= 1e-9) == matches, (ridge, error)

    def test_gradient_checker_reads_block_jacobians(self):
        err = check_gradients(block_program(), self.START, np.random.default_rng(0), n_points=20)
        assert err <= 1e-6

    def test_barrier_value_checks_box_before_constraints(self):
        calls = []
        program = waterfill_program()
        constraints = program.constraints
        program.constraints = lambda v: calls.append(v) or constraints(v)
        assert _terms(program, np.array([-0.1, 0.5])) is None
        assert calls == []


def _run_python(code, *args):
    """Run code in a fresh interpreter that imports uavstream from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)


def test_package_import_leaves_scipy_linalg_unloaded():
    # The package is numpy only at run time.  Importing scipy.special or
    # scipy.linalg would add tens to hundreds of milliseconds to every fresh
    # interpreter that imports uavstream.
    for module in ("uavstream", "uavstream.cli"):
        code = (f"import sys, {module}; "
                "print('scipy.linalg' in sys.modules, 'scipy' in sys.modules)")
        assert _run_python(code).stdout.strip() == "False False", module


def test_cli_runs_with_scipy_unimportable(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import raise, so a sweep
    # of all five schemes and a converge run exit 0 only if nothing on their
    # paths needs scipy.
    code = """\
import sys
sys.modules["scipy"] = None
from uavstream import cli
out = sys.argv[1]
assert cli.main(["sweep", "--grid", "5,10", "--seeds", "1", "--out", out + "/sweep.csv",
                 "--schemes", "joint,resource_only,position_only,relay_baseline,no_relay"]) == 0
assert cli.main(["converge", "--out", out + "/converge.csv"]) == 0
print("ok")
"""
    assert _run_python(code, str(tmp_path)).stdout.strip().endswith("ok")


def stub_step(border_matrix, block_diag, rhs):
    """_solve_spd on a stub program whose Newton matrix is border_matrix on
    the border and diag(block_diag) on the one-variable blocks, with zero
    row and box weights, so that the curvature alone gives the matrix."""
    b, nb = len(border_matrix), len(block_diag)
    n = b + nb
    curvature = BlockCurvature(-np.concatenate((np.zeros(b), block_diag)), -border_matrix)
    program = SimpleNamespace(n=n, border=b, curvature=lambda v, w: curvature)
    J = BlockJacobian(np.zeros(nb), np.zeros((0, n)), np.zeros((b, nb)))
    return _solve_spd(program, np.zeros(n), J, np.zeros(nb), np.zeros(nb), np.zeros(n), rhs)


class TestLastResortStep:
    """When every ridge fails, the Newton step is rhs / ridge: a scaled
    steepest-descent step.  The off-diagonal entries here exceed the largest
    ridge tried (1e12 times the largest diagonal entry, at least 1e12), so
    H + ridge I stays indefinite throughout the escalation."""

    H = np.array([[0.0, 1e13], [1e13, 0.0]])
    RHS = np.array([1.0, -2.0])
    LAST_RIDGE = _RIDGE0 * 100.0 ** 12

    def test_structured_path(self):
        assert np.allclose(stub_step(self.H, np.zeros(0), self.RHS), self.RHS / self.LAST_RIDGE,
                           rtol=1e-12, atol=0.0)


def test_ridge_grows_until_the_step_is_downhill():
    # H = diag(1, -1): the step along the second axis points uphill while
    # the ridge is below 1, and H + I is singular, so the first ridge that
    # passes the curvature test is 100.
    assert np.allclose(stub_step(np.diag([1.0, -1.0]), np.zeros(0), np.array([0.0, 1.0])),
                       [0.0, 1.0 / 99.0], rtol=1e-12, atol=0.0)


def test_a_negative_block_pivot_raises_the_ridge():
    # H = diag(1, -0.5), the second entry a one-variable block: its pivot
    # -0.5 + ridge fails until the ridge reaches 1 (100^5 times the first),
    # the first whose pivot is positive.
    assert np.allclose(stub_step(np.array([[1.0]]), np.array([-0.5]), np.array([1.0, 1.0])),
                       [0.5, 2.0], rtol=1e-12, atol=0.0)


def test_failed_line_searches_end_in_a_finite_report():
    # The gradient callback has the sign of the objective's slope flipped,
    # so every Newton step lowers the objective and each line search fails:
    # the solve moves t through its stages and stops at the start.
    def objective(v):
        return -10.0 * float((v[0] - 0.9) ** 2)

    program = border_only(
        n=1, objective=objective, gradient=lambda v: 20.0 * (v - 0.9),
        constraints=lambda v: np.zeros(0), constraint_jac=lambda v: np.zeros((0, 1)),
        lower=np.zeros(1), upper=np.ones(1), curvature=lambda v, w: np.array([[-20.0]]))
    start = np.array([0.5])
    report = solve_concave(program, start, 1e-9)
    assert np.array_equal(report.solution, start)
    assert report.objective == objective(start)
    assert math.isfinite(report.kkt_residual) and report.barrier_iterations < _MAX_NEWTON
    assert report.kkt_residual > 1e-9 and report.status == "stalled"


def test_a_spent_step_budget_ends_in_max_iters(monkeypatch):
    # A well-posed program cut off after two Newton steps.
    monkeypatch.setattr(convex_core, "_MAX_NEWTON", 2)
    program = border_only(
        n=1, objective=lambda v: -10.0 * float((v[0] - 0.9) ** 2),
        gradient=lambda v: -20.0 * (v - 0.9),
        constraints=lambda v: np.zeros(0), constraint_jac=lambda v: np.zeros((0, 1)),
        lower=np.zeros(1), upper=np.ones(1), curvature=lambda v, w: np.array([[-20.0]]))
    report = solve_concave(program, np.array([0.5]), 1e-9)
    assert report.barrier_iterations == 2 and report.status == "max_iters"
