import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidelab.errors import NotPositiveDefinite, SingularOperator
from sidelab.matrix_kernels import (
    decay_rate,
    is_positive_definite,
    kron,
    pencil_top,
    solve_ct_lyapunov,
    solve_dt_lyapunov,
)


def ct_residual(f, gs, dt_bar, p, q):
    """Defining-equation residual by plain matrix products (oracle path)."""
    f = np.asarray(f, dtype=float)
    lhs = f.T @ p + p @ f + dt_bar * (f.T @ p @ f)
    for g in gs:
        g = np.asarray(g, dtype=float)
        lhs = lhs + g.T @ p @ g
    return lhs + np.asarray(q, dtype=float)


def dt_residual(f, gs, dt, p, q):
    f = np.asarray(f, dtype=float)
    a = np.eye(f.shape[0]) + dt * f
    lhs = a.T @ p @ a - p
    for g in gs:
        g = np.asarray(g, dtype=float)
        lhs = lhs + dt * (g.T @ p @ g)
    return lhs + np.asarray(q, dtype=float)


class TestKron:
    def test_identity_factor_gives_block_diagonal(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = kron(np.eye(2), b)
        expected = np.zeros((4, 4))
        expected[:2, :2] = b
        expected[2:, 2:] = b
        assert np.array_equal(out, expected)

    def test_scalar_factor(self):
        b = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(kron([[2.0]], b), 2.0 * b)

    def test_nilpotent_with_identity(self):
        out = kron([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
        expected = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(out, expected)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            kron([[np.nan]], np.eye(2))

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-5, 5, allow_nan=False),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_bilinear_in_scalar(self, alpha, n, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, m))
        b = rng.normal(size=(m, n))
        left = kron(alpha * a, b)
        right = alpha * kron(a, b)
        assert np.allclose(left, right, rtol=0, atol=1e-12 * (1 + np.abs(right).max()))


class TestContinuousSolver:
    def test_identity_drift(self):
        p = solve_ct_lyapunov(-np.eye(2), [], 0.0, np.eye(2))
        assert np.allclose(p, 0.5 * np.eye(2), rtol=1e-12)

    def test_scalar_with_noise(self):
        p = solve_ct_lyapunov([[-1.0]], [[[1.0]]], 0.0, [[1.0]])
        assert p[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_scalar_with_stepsize_term(self):
        # (-8 + 1 + 0.4 * 16) p = -1  =>  p = 1 / 0.6
        p = solve_ct_lyapunov([[-4.0]], [[[1.0]]], 0.4, [[1.0]])
        assert p[0, 0] == pytest.approx(1.0 / 0.6, rel=1e-12)

    def test_rejects_negative_dt_bar(self):
        with pytest.raises(ValueError):
            solve_ct_lyapunov([[-1.0]], [], -0.1, [[1.0]])

    def test_random_instances_satisfy_equation(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 3))
            f = rng.normal(size=(n, n))
            gs = [0.4 * rng.normal(size=(n, n)) for _ in range(m)]
            q0 = rng.normal(size=(n, n))
            q = q0 @ q0.T + np.eye(n)
            dt_bar = float(rng.uniform(0, 0.5))
            try:
                p = solve_ct_lyapunov(f, gs, dt_bar, q)
            except SingularOperator:
                continue
            res = np.linalg.norm(ct_residual(f, gs, dt_bar, p, q))
            assert res <= 1e-9 * np.linalg.norm(q)
            assert np.array_equal(p, p.T)


class TestDiscreteSolver:
    def test_scalar_no_noise(self):
        # (1 - 0.5)^2 p - p = -1  =>  p = 4/3
        p = solve_dt_lyapunov([[-1.0]], [], 0.5, [[1.0]])
        assert p[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_zero_drift_unit_step_is_singular(self):
        with pytest.raises(SingularOperator):
            solve_dt_lyapunov([[0.0]], [], 1.0, [[1.0]])

    def test_scalar_with_noise(self):
        # 0.76 p - p = -1  =>  p = 1 / 0.24
        p = solve_dt_lyapunov([[-4.0]], [[[1.0]]], 0.4, [[1.0]])
        assert p[0, 0] == pytest.approx(1.0 / 0.24, rel=1e-12)

    def test_random_instances_satisfy_equation(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 3))
            f = rng.normal(size=(n, n))
            gs = [0.4 * rng.normal(size=(n, n)) for _ in range(m)]
            q0 = rng.normal(size=(n, n))
            q = q0 @ q0.T + np.eye(n)
            dt = float(rng.uniform(0.05, 0.5))
            try:
                p = solve_dt_lyapunov(f, gs, dt, q)
            except SingularOperator:
                continue
            res = np.linalg.norm(dt_residual(f, gs, dt, p, q))
            assert res <= 1e-9 * np.linalg.norm(q)
            assert np.array_equal(p, p.T)


@pytest.mark.parametrize("solve", [solve_ct_lyapunov, solve_dt_lyapunov])
class TestSolverInputs:
    def test_rejects_mis_sized_noise(self, solve):
        with pytest.raises(ValueError, match="diffusion matrix dimension differs from f"):
            solve(-np.eye(2), [np.eye(3)], 0.1, np.eye(2))

    def test_rejects_mis_sized_q(self, solve):
        with pytest.raises(ValueError, match="f and q dimensions differ"):
            solve(-np.eye(2), [], 0.1, np.eye(3))


class TestPositiveDefinite:
    def test_identity(self):
        report = is_positive_definite(np.eye(3), tol=1e-10)
        assert report and report.lambda_min == pytest.approx(1.0)

    def test_indefinite(self):
        report = is_positive_definite(np.diag([1.0, -1.0]))
        assert not report and report.lambda_min == pytest.approx(-1.0)

    def test_two_by_two(self):
        report = is_positive_definite([[2.0, 1.0], [1.0, 2.0]])
        assert report and report.lambda_min == pytest.approx(1.0, rel=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            is_positive_definite([[1.0, 2.0], [0.0, 1.0]])


class TestDecayRate:
    def test_scalar_ratio(self):
        assert decay_rate([[-7.0]], [[1.0]]) == pytest.approx(7.0, rel=1e-12)

    def test_pencil_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        p = a @ a.T + np.eye(3)
        assert decay_rate(-p, p) == pytest.approx(1.0, rel=1e-10)

    def test_boundary_zero(self):
        assert decay_rate([[0.0]], [[1.0]]) == pytest.approx(0.0, abs=1e-14)

    def test_requires_positive_definite_weight(self):
        with pytest.raises(NotPositiveDefinite):
            decay_rate([[1.0]], [[-1.0]])


class TestFeasibilityMatchesDirectCheck:
    def test_agreement_on_random_family(self):
        # P from the Q = I solve is positive definite exactly when the
        # vectorized operator P -> F'P + PF + sum G'PG, built here with
        # np.kron, has negative spectral abscissa
        rng = np.random.default_rng(11)
        seen_feasible = seen_infeasible = 0
        for _ in range(60):
            n = int(rng.integers(1, 4))
            a = rng.normal(size=(n, n))
            gs = [0.3 * rng.normal(size=(n, n))]
            shift = float(rng.uniform(-1.0, 2.5))
            f = a - shift * np.eye(n)
            try:
                p = solve_ct_lyapunov(f, gs, 0.0, np.eye(n))
            except SingularOperator:
                continue
            eye = np.eye(n)
            op = np.kron(f.T, eye) + np.kron(eye, f.T) + sum(np.kron(g.T, g.T) for g in gs)
            direct_stable = bool(np.linalg.eigvals(op).real.max() < 0.0)
            assert bool(is_positive_definite(p)) == direct_stable
            seen_feasible += direct_stable
            seen_infeasible += not direct_stable
        assert seen_feasible >= 5 and seen_infeasible >= 5

    def test_pencil_top_matches_eigendecomposition(self):
        rng = np.random.default_rng(5)
        m0 = rng.normal(size=(3, 3))
        m = (m0 + m0.T) / 2
        a = rng.normal(size=(3, 3))
        p = a @ a.T + np.eye(3)
        chol = np.linalg.cholesky(p)
        whitened = np.linalg.solve(chol, np.linalg.solve(chol, m).T)
        expected = np.linalg.eigvalsh((whitened + whitened.T) / 2).max()
        assert pencil_top(m, p) == pytest.approx(expected, rel=1e-9)
