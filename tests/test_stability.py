import math
from dataclasses import replace

import numpy as np
import pytest

from sidelab.errors import NotLinear, NotPositiveDefinite, ValidationFailed
from sidelab.matrix_kernels import ct_operator, vec_operator
from sidelab.models import ImpulseSchedule, LinearSde, make_cps
from sidelab.stability import (
    STRICT_SLACK,
    ConditionConstants,
    _certificate,
    check_thm1,
    check_thm2,
    check_thm4,
    check_thm5,
    check_thm6,
    cp_lyapunov_feasible,
    discrete_ms_stable,
    max_stepsize,
    quadratic_condition_constants,
    scalar_max_stepsize,
    stepsize_certificate,
)

from side_blocks import side_from_blocks

SCALAR = LinearSde.scalar(-4.0, 1.0)


def random_stable_sde(rng, n_max=3, m_max=2, n_min=1):
    """Shift the drift until the identity certifies mean-square stability."""
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    a = rng.normal(size=(n, n))
    gs = tuple(0.3 * rng.normal(size=(n, n)) for _ in range(m))
    sym = (a + a.T) / 2.0
    for g in gs:
        sym = sym + (g.T @ g) / 2.0
    shift = float(np.linalg.eigvalsh(sym).max()) + 0.25
    return LinearSde(a - shift * np.eye(n), gs)


def random_unstable_sde(rng, n_max=3, m_max=2):
    """Shift all drift eigenvalues into the right half plane."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    a = rng.normal(size=(n, n))
    gs = tuple(0.3 * rng.normal(size=(n, n)) for _ in range(m))
    shift = -float(np.linalg.eigvals(a).real.min()) + 0.3
    return LinearSde(a + shift * np.eye(n), gs)


def dense_stepsize(sde):
    """Oracle: 1 / rho(L0^{-1} K) from every eigenvalue of the dense matrix."""
    f = sde.drift_matrix
    l0 = ct_operator(sde.stack)
    k = vec_operator([(f, f)])
    return 1.0 / float(np.abs(np.linalg.eigvals(np.linalg.solve(l0, k))).max())


def certify_style_sde(rng, n):
    """A stable n-d system with two noise terms, rescaled by F -> 4^j F,
    G -> 2^j G (exact in floating point) so that its bound lies in [0.25, 1)."""
    f = -np.eye(n) + rng.standard_normal((n, n)) / (2.0 * math.sqrt(n))
    gs = [rng.uniform(0.2, 0.5) * rng.standard_normal((n, n)) / math.sqrt(n) for _ in range(2)]
    j = math.floor(math.log(dense_stepsize(LinearSde(f, tuple(gs))), 4.0)) + 1
    return LinearSde(f * 4.0**j, tuple(g * 2.0**j for g in gs))


def abscissa(sde, dt_bar):
    return float(np.linalg.eigvals(ct_operator(sde.stack, dt_bar)).real.max())


class TestLyapunovIto:
    def test_stable_identity_drift(self):
        cert = cp_lyapunov_feasible(LinearSde(-np.eye(2)), 0.0)
        assert cert.feasible
        assert np.allclose(cert.p, 0.5 * np.eye(2), rtol=1e-12)
        assert cert.margin > 0

    def test_unstable_scalar(self):
        cert = cp_lyapunov_feasible(LinearSde(np.array([[1.0]])), 0.0)
        assert not cert.feasible and cert.p is None

    def test_noise_boundary(self):
        cert = cp_lyapunov_feasible(LinearSde.scalar(-1.0, math.sqrt(2.0)), 0.0)
        assert not cert.feasible


class TestCpLyapunov:
    def test_feasible_below_bound(self):
        assert cp_lyapunov_feasible(SCALAR, 0.4).feasible

    def test_margin_below_the_slack_is_refused(self):
        # P = 5e299 > 0 solves the equation, but the decay rate is 2e-300
        cert = cp_lyapunov_feasible(LinearSde.scalar(-1e-300, 0.0), 0.5)
        assert not cert.feasible and cert.p is None
        assert cert.detail == "margin at or below the 1e-12 slack"
        assert 0.0 < cert.margin <= STRICT_SLACK

    def test_non_positive_margin_is_named(self):
        # form(P) = +P: the decay rate relative to P is -1
        cert = _certificate(0.5, lambda: np.eye(2), lambda p: p)
        assert not cert.feasible and cert.p is None
        assert (cert.margin, cert.detail) == (-1.0, "margin not positive")

    def test_infeasible_above_bound(self):
        assert not cp_lyapunov_feasible(SCALAR, 0.5).feasible

    def test_zero_reduces_to_classical(self):
        # the classical test: the generator of E[x x'] on all n x n matrices,
        # F (x) I + I (x) F + sum G (x) G, has its spectrum in the open left half-plane
        rng = np.random.default_rng(0)
        for _ in range(10):
            sde = random_stable_sde(rng) if rng.random() < 0.5 else random_unstable_sde(rng)
            f, eye = sde.drift_matrix, np.eye(sde.dim)
            gen = np.kron(f, eye) + np.kron(eye, f) + sum(np.kron(g, g) for g in sde.noise_matrices)
            assert cp_lyapunov_feasible(sde, 0.0).feasible == (np.linalg.eigvals(gen).real.max() < 0)

    def test_monotone_in_dt_bar(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            sde = random_stable_sde(rng)
            verdicts = [
                cp_lyapunov_feasible(sde, dt_bar).feasible
                for dt_bar in np.linspace(0.0, 3.0, 13)
            ]
            # once infeasible, stays infeasible
            assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))

    def test_margin_is_thm5_margin_bitwise(self):
        rng = np.random.default_rng(21)
        feasible = 0
        for _ in range(10):
            sde = random_stable_sde(rng)
            for dt_bar in (0.0, 0.05, 0.2):
                cert = cp_lyapunov_feasible(sde, dt_bar)
                if cert.feasible:
                    feasible += 1
                    assert cert.margin == check_thm5(sde, cert.p, dt_bar).margin
        assert feasible >= 10


class TestMaxStepsize:
    def test_scalar_closed_form(self):
        got = max_stepsize(SCALAR)
        assert got == pytest.approx(7.0 / 16.0, abs=1e-12)

    def test_noise_free_identity(self):
        got = max_stepsize(LinearSde(-np.eye(2)))
        assert got == pytest.approx(2.0, abs=1e-5)

    def test_unstable_returns_none(self):
        assert max_stepsize(LinearSde(np.array([[1.0]]))) is None

    def test_scalar_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            lam = float(rng.uniform(-5.0, -0.5))
            mu = float(rng.uniform(0.0, 1.5))
            closed = scalar_max_stepsize(lam, mu)
            numeric = max_stepsize(LinearSde.scalar(lam, mu))
            if closed is None:
                assert numeric is None
            else:
                assert numeric == pytest.approx(closed, rel=1e-12)

    def test_matches_full_space_spectrum(self):
        # the bound is computed on symmetric matrices; the Perron root of
        # L0^{-1} K on all n x n matrices (np.kron, row-major vec) is the same
        rng = np.random.default_rng(23)
        for _ in range(10):
            sde = random_stable_sde(rng, n_max=5)
            f, eye = sde.drift_matrix, np.eye(sde.dim)
            l0 = np.kron(f.T, eye) + np.kron(eye, f.T)
            for g in sde.noise_matrices:
                l0 += np.kron(g.T, g.T)
            rho = np.abs(np.linalg.eigvals(np.linalg.solve(l0, np.kron(f.T, f.T)))).max()
            assert max_stepsize(sde) == pytest.approx(1.0 / rho, rel=1e-10)

    def test_matches_dense_oracle_n1_to_8(self):
        rng = np.random.default_rng(29)
        for n in range(1, 9):
            for _ in range(3):
                sde = random_stable_sde(rng, n_max=n, n_min=n)
                assert max_stepsize(sde) == pytest.approx(dense_stepsize(sde), rel=1e-12)

    @pytest.mark.parametrize("n", [20, 30])
    def test_matches_dense_oracle_certify_scale(self, n):
        rng = np.random.default_rng(n)
        for _ in range(2):
            sde = certify_style_sde(rng, n)
            assert max_stepsize(sde) == pytest.approx(dense_stepsize(sde), rel=1e-12)

    def test_bound_is_the_operator_threshold(self):
        # L0 + dt_bar K is stable just below the bound and unstable just above
        rng = np.random.default_rng(31)
        systems = [random_stable_sde(rng, n_max=n, n_min=n) for n in range(1, 9)]
        systems += [certify_style_sde(rng, 20), certify_style_sde(rng, 30)]
        for sde in systems:
            bound = max_stepsize(sde)
            assert abscissa(sde, 0.999 * bound) < 0.0 < abscissa(sde, 1.001 * bound)

    def test_certificate_is_the_dt_bar_zero_certificate(self):
        rng = np.random.default_rng(37)
        for sde in [random_stable_sde(rng) for _ in range(5)] + [random_unstable_sde(rng) for _ in range(5)]:
            bound, cert = stepsize_certificate(sde)
            ref = cp_lyapunov_feasible(sde, 0.0)
            assert (bound is None) == (not ref.feasible) == (not cert.feasible)
            assert (cert.margin, cert.dt_bar, cert.detail) == (ref.margin, ref.dt_bar, ref.detail)
            if ref.feasible:
                assert np.array_equal(cert.p, ref.p)


class TestScalarMaxStepsize:
    def test_noise_free(self):
        assert scalar_max_stepsize(-1.0, 0.0) == pytest.approx(2.0)

    def test_with_noise(self):
        assert scalar_max_stepsize(-4.0, 1.0) == pytest.approx(0.4375)

    def test_boundary_infeasible(self):
        assert scalar_max_stepsize(-1.0, math.sqrt(2.0)) is None

    def test_tiny_lambda_does_not_underflow(self):
        # lam^2 = 1e-600 underflows to 0; dividing by lam twice does not
        assert scalar_max_stepsize(-1e-300, 0.0) == pytest.approx(2e300, rel=1e-15)

    def test_bound_beyond_the_float_range_is_inf(self):
        assert scalar_max_stepsize(-1e-310, 0.0) == math.inf


class TestDiscreteStability:
    def test_stable_stepsize(self):
        assert discrete_ms_stable(SCALAR, 0.4).feasible

    def test_unstable_stepsize(self):
        assert not discrete_ms_stable(SCALAR, 0.5).feasible

    def test_exact_boundary_rejected(self):
        assert not discrete_ms_stable(SCALAR, 0.4375).feasible


class TestSchemeConditionsAtSmallStepsizes:
    """The scheme's one-step form is dt * ct_form at dt_bar = dt, so its
    conditions keep every digit as dt shrinks."""

    @staticmethod
    def sde():
        rng = np.random.default_rng(0)
        f = -np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        return LinearSde(f, (0.3 * rng.normal(size=(3, 3)),))

    @pytest.mark.parametrize("dt", [1e-2, 1e-6, 1e-8, 1e-10])
    def test_discrete_certificate_is_the_scaled_cps_certificate(self, dt):
        sde = self.sde()
        cert = discrete_ms_stable(sde, dt)
        assert cert.feasible, cert.detail
        assert cert.margin == pytest.approx(dt * cp_lyapunov_feasible(sde, dt).margin, rel=1e-9)

    @pytest.mark.parametrize("dt", [1e-2, 1e-6, 1e-10])
    def test_thm6_rate_is_the_thm5_margin(self, dt):
        sde = self.sde()
        p = cp_lyapunov_feasible(sde, dt).p
        thm6 = check_thm6(sde, p, dt)
        assert thm6.passed and thm6.implied_alpha == check_thm5(sde, p, dt).margin


class TestConditionConstants:
    def test_scalar_generator_rate(self):
        side = make_cps(SCALAR, 0.4)
        c = quadratic_condition_constants(side, [[1.0]], [[1.0]])
        assert c.alpha == pytest.approx(7.0, rel=1e-10)

    def test_identity_impulse_gives_beta_one(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.5), 0.25)
        c = quadratic_condition_constants(side, [[1.0]], [[1.0]])
        # the x block never jumps here
        assert c.beta == pytest.approx(1.0, rel=1e-10)

    def test_cps_impulse_constants(self):
        # y' = (1 + lam dt) y - lam dt x - mu sqrt(dt) (x - y) xi at lam=-4, mu=1, dt=0.4:
        # E[y'^2] = ((1 + lam dt) y - lam dt x)^2 + mu^2 dt (x - y)^2, split at s=1
        side = make_cps(SCALAR, 0.4)
        c = quadratic_condition_constants(side, [[1.0]], [[1.0]], split=1.0)
        assert c.beta_self == pytest.approx(2.0 * 0.76, rel=1e-10)
        assert c.alpha_self == pytest.approx(1.0, rel=1e-10)
        assert c.dt_under == c.dt_over == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "name, bent",
        [
            ("drift_x", lambda x, t: -x * np.abs(x)),
            ("diffusion_x", lambda x, t: (0.5 * x * np.abs(x)).reshape(1, 1)),
            ("drift_y", lambda x, y, t: x - y * np.abs(y)),
            ("diffusion_y", lambda x, y, t: (0.5 * x * np.abs(y)).reshape(1, 1)),
            ("jump_x", lambda x, k: 0.3 * x * np.abs(x)),
            ("jump_x_gain", lambda x, k: (0.3 * x * np.abs(x)).reshape(1, 1)),
            ("jump_y", lambda x, y, k: 0.3 * y * np.abs(x)),
            ("jump_y_gain", lambda x, y, k: (0.3 * y * np.abs(y)).reshape(1, 1)),
            ("drift_x", lambda x, t: -(1.0 + t) * x),  # time-dependent
            ("jump_y", lambda x, y, k: -0.1 * k * y),  # index-dependent
        ],
        ids=[
            "drift_x", "diffusion_x", "drift_y", "diffusion_y", "jump_x", "jump_x_gain",
            "jump_y", "jump_y_gain", "time_dependent_drift", "index_dependent_jump",
        ],
    )
    def test_nonlinear_rejected(self, name, bent):
        side = make_cps(LinearSde.scalar(-1.0, 0.5), 0.5)
        bad = replace(side, **{name: bent})
        with pytest.raises(NotLinear):
            quadratic_condition_constants(bad, [[1.0]], [[1.0]])

    def test_growth_convention_on_a_thm2_system(self):
        # growing flow (lambda = mu = 0.5: 2 lambda + mu^2 = 1.25) against an
        # x-jump that halves x (beta = 0.25); the y-block only jumps, by 1/4
        drift = np.diag([0.5, 0.0])
        noise = [np.diag([0.5, 0.0])]
        jump = np.diag([-0.5, -0.75])
        upper = -math.log(0.25) / 1.25  # min with -ln(beta_self) / alpha_self = ln 8
        for dt_over, passed in ((1.0, True), (1.2, False)):
            side = side_from_blocks(1, drift, noise, jump, [np.zeros((2, 2))],
                                    ImpulseSchedule.equal_gaps(dt_over))
            c = quadratic_condition_constants(side, [[1.0]], [[1.0]], growth=True)
            assert c.alpha == 2 * 0.5 + 0.5**2
            assert c.beta == pytest.approx(0.25, rel=1e-14)
            assert (c.alpha_self, c.beta_self) == pytest.approx((1.0, 0.125), rel=1e-14)
            assert (dt_over < upper) is passed
            assert check_thm2(c) is passed

    def test_requires_positive_definite_weights(self):
        side = make_cps(SCALAR, 0.4)
        with pytest.raises(NotPositiveDefinite):
            quadratic_condition_constants(side, [[-1.0]], [[1.0]])


class TestDeclaredGaps:
    """`quadratic_condition_constants` checks the gaps whose declared bounds
    `check_thm1` and `check_thm2` trust."""

    CPS = make_cps(LinearSde(np.array([[-1.0, 0.3], [0.2, -2.0]]), (np.array([[0.4, 0.0], [0.1, 0.2]]),)), 0.25)

    def constants(self, schedule):
        return quadratic_condition_constants(replace(self.CPS, schedule=schedule), np.eye(2), np.eye(2))

    def test_false_schedule_declaration_names_the_gap(self):
        # gaps of 1.0 against a declared [0.1, 0.2]
        with pytest.raises(ValidationFailed, match=r"^schedule gap t_1 - t_0 = 1 lies outside the declared "
                                                   r"\[dt_under, dt_over\] = \[0.1, 0.2\]$"):
            self.constants(ImpulseSchedule(lambda k: 1.0 * k, 0.1, 0.2))
        # the declaration holds up to t_3 only
        with pytest.raises(ValidationFailed, match=r"^schedule gap t_4 - t_3 "):
            self.constants(ImpulseSchedule(lambda k: 0.1 * k if k <= 3 else 0.5 + k, 0.1, 0.2))
        # and up to t_999, the last gap checked
        with pytest.raises(ValidationFailed, match=r"^schedule gap t_1000 - t_999 "):
            self.constants(ImpulseSchedule(lambda k: 0.1 * k if k < 1000 else 200.0, 0.1, 0.2))

    @pytest.mark.parametrize(
        "time_fn, gap",
        [
            (lambda k: 0.05 * k, r"t_1 - t_0 = 0\.05"),  # below dt_under
            (lambda k: 0.1 * k if k <= 6 else 0.6 + 0.3 * (k - 6), r"t_7 - t_6 = 0\.3"),  # above dt_over
            (lambda k: math.nan if k == 2 else 0.1 * k, r"t_2 - t_1 = nan"),
        ],
        ids=["below", "above", "nan"],
    )
    def test_gap_outside_bounds_is_named(self, time_fn, gap):
        with pytest.raises(ValidationFailed, match=rf"^schedule gap {gap} lies outside the declared "
                                                   r"\[dt_under, dt_over\] = \[0\.1, 0\.2\]$"):
            self.constants(ImpulseSchedule(time_fn, 0.1, 0.2))

    def test_gaps_within_the_relative_slack_pass(self):
        # gaps 1e-7 relative outside the declared bounds pass; 1e-5 outside do not
        inside = ImpulseSchedule(lambda k: 0.2 * (1 + 1e-7) * k, 0.1, 0.2)
        assert self.constants(inside).dt_over == 0.2
        inside = ImpulseSchedule(lambda k: 0.1 * (1 - 1e-7) * k, 0.1, 0.2)
        assert self.constants(inside).dt_under == 0.1
        with pytest.raises(ValidationFailed, match=r"^schedule gap t_1 - t_0 = 0\.200002 "):
            self.constants(ImpulseSchedule(lambda k: 0.2 * (1 + 1e-5) * k, 0.1, 0.2))

    def test_true_schedule_declarations_pass(self):
        # k * 0.1 rounds its gaps up to 8.5e-14 away from 0.1 over 1000 gaps
        c = self.constants(ImpulseSchedule.equal_gaps(0.1))
        assert c.dt_under == c.dt_over == 0.1
        # the non-uniform schedule of the simulate oracle: gaps in [0.204, 0.396]
        c = self.constants(ImpulseSchedule(lambda k: 0.3 * k + 0.1 * math.sin(k), 0.1, 0.5))
        assert (c.dt_under, c.dt_over) == (0.1, 0.5)
        # a false gap past the first 1000 is not checked
        c = self.constants(ImpulseSchedule(lambda k: 0.1 * k if k <= 1000 else 500.0, 0.1, 0.2))
        assert (c.dt_under, c.dt_over) == (0.1, 0.2)

    def test_false_gap_declaration_does_not_reach_thm1(self):
        # declared gaps of 0.25 sit inside the Thm 1 window, whose upper end is
        # -ln(beta_self) / alpha_self = -ln(0.78125) / 0.25 ~ 0.99; the true gap, 5, does not
        side = replace(make_cps(LinearSde.scalar(-1.0, 0.5), 0.25),
                       schedule=ImpulseSchedule(lambda k: 5.0 * k, 0.25, 0.25))
        with pytest.raises(ValidationFailed, match=r"^schedule gap t_1 - t_0 = 5 "):
            check_thm1(quadratic_condition_constants(side, [[1.0]], [[1.0]], split=4.0))


def constants(**kw):
    base = dict(
        alpha=1.0, alpha_self=2.0,
        beta=0.5, beta_self=0.25,
        dt_under=0.1, dt_over=0.5,
    )
    base.update(kw)
    return ConditionConstants(**base)


class TestImpulseIntervalCheckers:
    def test_thm1_window_accepts(self):
        # upper limit -ln(0.25)/2 = ln(4)/2 ~ 0.693147
        assert check_thm1(constants())

    def test_thm1_rejects_wide_gaps(self):
        assert not check_thm1(constants(dt_over=0.7))

    def test_thm1_rejects_expanding_jumps(self):
        assert not check_thm1(constants(beta_self=1.0))
        assert not check_thm1(constants(beta_self=1.3))

    def test_thm1_boundary_is_strict(self):
        upper = -math.log(0.25) / 2.0
        assert not check_thm1(constants(dt_over=upper))
        assert check_thm1(constants(dt_over=upper - 1e-6))

    def test_thm1_needs_positive_alpha(self):
        with pytest.raises(ValueError):
            check_thm1(constants(alpha=-1.0))

    def test_thm2_window_accepts(self):
        # min(ln 2, ln(4)/2) ~ 0.693147
        assert check_thm2(constants())

    def test_thm2_rejects_wide_gaps(self):
        assert not check_thm2(constants(dt_over=0.7))

    def test_thm2_rejects_expanding_x_jump(self):
        assert not check_thm2(constants(beta=1.0))
        assert not check_thm2(constants(beta=2.0))

    def test_thm2_boundary_is_strict(self):
        upper = math.log(2.0)
        assert not check_thm2(constants(dt_over=upper))


class TestThm4:
    def test_well_below_bound(self):
        assert check_thm4(SCALAR, [[1.0]], 0.1).passed

    def test_above_bound(self):
        res = check_thm4(SCALAR, [[1.0]], 0.5)
        assert not res.passed and res.discrete_factor >= 1.0

    def test_tiny_step_noise_free(self):
        assert check_thm4(LinearSde.scalar(-1.0, 0.0), [[1.0]], 1e-4).passed

    def test_matches_discrete_verdict_on_grid(self):
        for dt in np.linspace(0.02, 0.6, 24):
            want = discrete_ms_stable(SCALAR, float(dt)).feasible
            got = check_thm4(SCALAR, [[1.0]], float(dt)).passed
            assert got == want

    def test_explicit_split(self):
        # alpha = -(2 lam + mu^2) = 7 and d = 1 - 0.1 (7 - 0.1 lam^2) = 0.46 at
        # lam = -4, mu = 1; the split s = 4 gives beta_self = (1 + 1/s) d
        res = check_thm4(SCALAR, [[1.0]], 0.1, split=4.0)
        assert (res.alpha, res.discrete_factor) == pytest.approx((7.0, 0.46), rel=1e-12)
        assert (res.alpha_self, res.beta_self) == pytest.approx((0.25, 1.25 * 0.46), rel=1e-12)
        assert res.stepsize_bound == pytest.approx(-math.log(1.25 * 0.46) / 0.25, rel=1e-12)
        assert res.passed


class TestThm5:
    def test_margin_at_stable_stepsize(self):
        res = check_thm5(SCALAR, [[1.0]], 0.4)
        assert res.passed and res.margin == pytest.approx(0.6, rel=1e-10)

    def test_boundary_fails(self):
        res = check_thm5(SCALAR, [[1.0]], 0.4375)
        assert not res.passed and res.margin == pytest.approx(0.0, abs=1e-12)

    def test_alpha_bar_capped_by_stepsize(self):
        res = check_thm5(LinearSde(-np.eye(2)), np.eye(2), 1.0)
        assert res.passed
        assert res.margin == pytest.approx(1.0, rel=1e-12)
        assert res.alpha_bar == pytest.approx(0.99, rel=1e-12)

    def test_downward_closure(self):
        p = cp_lyapunov_feasible(SCALAR, 0.4).p
        assert check_thm5(SCALAR, p, 0.4).passed
        for dt_bar in (0.3, 0.2, 0.1, 0.05):
            assert check_thm5(SCALAR, p, dt_bar).passed


class TestThm6:
    def test_factor_and_implied_rate(self):
        res = check_thm6(SCALAR, [[1.0]], 0.4)
        assert res.passed
        assert res.c_bar == pytest.approx(0.76, rel=1e-12)
        assert res.implied_alpha == pytest.approx(0.6, rel=1e-10)

    def test_unstable_stepsize(self):
        res = check_thm6(SCALAR, [[1.0]], 0.5)
        assert not res.passed and res.c_bar == pytest.approx(1.5, rel=1e-12)

    def test_frozen_system_is_strictly_rejected(self):
        res = check_thm6(LinearSde(np.zeros((1, 1))), [[1.0]], 1.0)
        assert not res.passed and res.c_bar == pytest.approx(1.0)


class TestEquivalenceChain:
    def test_constructive_direction(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            sde = random_stable_sde(rng)
            assert cp_lyapunov_feasible(sde, 0.0).feasible
            bound = max_stepsize(sde)
            assert bound is not None and bound > 0
            for frac in (0.25, 0.5, 0.99):
                dt = frac * bound
                assert discrete_ms_stable(sde, dt).feasible
            cert = cp_lyapunov_feasible(sde, 0.99 * bound)
            assert cert.feasible
            assert check_thm6(sde, cert.p, 0.99 * bound).passed
            assert check_thm5(sde, cert.p, 0.99 * bound).passed

    def test_converse_direction(self):
        rng = np.random.default_rng(321)
        for _ in range(25):
            sde = random_stable_sde(rng)
            bound = max_stepsize(sde)
            dt = 0.5 * bound
            cert = discrete_ms_stable(sde, dt)
            assert cert.feasible
            # the discrete certificate chains back through the one-step and
            # continuous conditions to the classical test
            thm6 = check_thm6(sde, cert.p, dt)
            assert thm6.passed
            assert check_thm5(sde, cert.p, dt).passed
            assert cp_lyapunov_feasible(sde, 0.0).feasible

    def test_unstable_family_fails_every_link(self):
        # any P < 0 witness at any link would certify stability, a contradiction
        rng = np.random.default_rng(999)
        for _ in range(10):
            sde = random_unstable_sde(rng)
            assert not cp_lyapunov_feasible(sde, 0.0).feasible
            assert max_stepsize(sde) is None
            eye = np.eye(sde.dim)
            for dt in (0.01, 0.1, 0.5):
                assert not discrete_ms_stable(sde, dt).feasible
                assert not check_thm6(sde, eye, dt).passed
            assert not check_thm5(sde, eye, 0.0).passed


class TestCertificateReport:
    def test_report_mentions_verdict_and_margin(self):
        cert = cp_lyapunov_feasible(SCALAR, 0.4)
        text = cert.report()
        assert "feasible" in text and "margin" in text and "P:" in text
