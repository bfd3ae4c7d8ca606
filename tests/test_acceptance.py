"""Acceptance gate: one test per criterion, each printing a pass/fail line
(run with `pytest -s tests/test_acceptance.py` to see them) and enforcing its
runtime budget."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sidelab.errors import StepsizeTooLarge
from sidelab.estimate import (
    as_exponent,
    moment_exponent,
    scalar_onestep_factor,
    strong_error_sup,
)
from sidelab.matrix_kernels import solve_ct_lyapunov, solve_dt_lyapunov
from sidelab.models import LinearSde
from sidelab.noise import NoisePlan
from sidelab.simulate import euler_maruyama, simulate_cps, simulate_scalar_cps_demo
from sidelab.stability import (
    ConditionConstants,
    check_thm1,
    check_thm2,
    check_thm5,
    check_thm6,
    cp_lyapunov_feasible,
    discrete_ms_stable,
    max_stepsize,
    scalar_max_stepsize,
)


@contextmanager
def criterion(num, name, limit_s=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit_s is not None and elapsed >= limit_s:
            print(f"ACCEPTANCE {num} ({name}): FAIL (runtime {elapsed:.1f}s >= {limit_s}s)")
            pytest.fail(f"criterion {num} exceeded its {limit_s}s budget: {elapsed:.1f}s")
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.2f}s]")


def seeded_stable_sde(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(0, 3))
    a = rng.normal(size=(n, n))
    gs = tuple(0.3 * rng.normal(size=(n, n)) for _ in range(m))
    sym = (a + a.T) / 2.0
    for g in gs:
        sym = sym + (g.T @ g) / 2.0
    shift = float(np.linalg.eigvalsh(sym).max()) + 0.25
    return LinearSde(a - shift * np.eye(n), gs)


def seeded_unstable_sde(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(0, 3))
    a = rng.normal(size=(n, n))
    gs = tuple(0.3 * rng.normal(size=(n, n)) for _ in range(m))
    shift = -float(np.linalg.eigvals(a).real.min()) + 0.3
    return LinearSde(a + shift * np.eye(n), gs)


def test_criterion_1_scalar_bound_equivalence():
    with criterion(1, "scalar stepsize bound equivalence", limit_s=1.0):
        sde = LinearSde.scalar(-4.0, 1.0)
        bound = max_stepsize(sde)
        assert abs(bound - 0.4375) <= 1e-6
        assert discrete_ms_stable(sde, 0.43).feasible
        assert not discrete_ms_stable(sde, 0.44).feasible
        assert not discrete_ms_stable(sde, 0.4375).feasible
        assert scalar_onestep_factor(-4.0, 1.0, 0.4375) == 1.0


def test_criterion_2_equivalence_chain():
    with criterion(2, "four-way equivalence chain on 50 random systems", limit_s=10.0):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            sde = seeded_stable_sde(rng)
            assert cp_lyapunov_feasible(sde, 0.0).feasible
            bound = max_stepsize(sde)
            assert bound is not None and bound > 0.0
            dt = 0.99 * bound
            assert discrete_ms_stable(sde, dt).feasible
            cert = cp_lyapunov_feasible(sde, dt)
            assert cert.feasible
            assert check_thm6(sde, cert.p, dt).passed
            assert check_thm5(sde, cert.p, dt).passed
        rng_bad = np.random.default_rng(77)
        for _ in range(10):
            sde = seeded_unstable_sde(rng_bad)
            assert not cp_lyapunov_feasible(sde, 0.0).feasible
            assert max_stepsize(sde) is None
            eye = np.eye(sde.dim)
            for dt in (0.05, 0.3):
                assert not discrete_ms_stable(sde, dt).feasible
                assert not check_thm6(sde, eye, dt).passed
            assert not check_thm5(sde, eye, 0.0).passed


def test_criterion_3_solver_oracle():
    with criterion(3, "Lyapunov solver defining-equation oracle", limit_s=30.0):
        rng = np.random.default_rng(99)
        solved = 0
        while solved < 100:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 3))
            f = rng.normal(size=(n, n))
            gs = [0.4 * rng.normal(size=(n, n)) for _ in range(m)]
            q0 = rng.normal(size=(n, n))
            q = q0 @ q0.T + np.eye(n)
            continuous = bool(rng.integers(0, 2))
            try:
                if continuous:
                    dt_bar = float(rng.uniform(0.0, 0.5))
                    p = solve_ct_lyapunov(f, gs, dt_bar, q)
                    lhs = f.T @ p + p @ f + dt_bar * (f.T @ p @ f)
                else:
                    dt = float(rng.uniform(0.05, 0.5))
                    p = solve_dt_lyapunov(f, gs, dt, q)
                    a = np.eye(n) + dt * f
                    lhs = a.T @ p @ a - p
                for g in gs:
                    lhs = lhs + (g.T @ p @ g if continuous else dt * (g.T @ p @ g))
            except Exception:
                continue
            assert np.linalg.norm(lhs + q) <= 1e-9 * np.linalg.norm(q)
            assert np.array_equal(p, p.T)
            solved += 1


def test_criterion_4_moment_exponent_oracle():
    with criterion(4, "moment exponent oracle on the scalar closed form", limit_s=60.0):
        gbm = LinearSde.scalar(-1.0, 0.5)
        est2 = moment_exponent(gbm, [1.0], 2.0, 10_000, 5.0, 1e-3, seed=11)
        assert abs(est2.slope - (-1.75)) <= 0.1
        est1 = moment_exponent(gbm, [1.0], 1.0, 10_000, 5.0, 1e-3, seed=11)
        assert abs(est1.slope - (-1.0)) <= 0.1


def test_criterion_5_pathwise_moment_gap():
    with criterion(5, "pathwise/moment gap and moment-implies-pathwise check", limit_s=60.0):
        gap = LinearSde.scalar(0.1, 1.0)
        est = as_exponent(gap, [1.0], 2000, 5.0, 1e-3, seed=5)
        assert abs(est.slope - (-0.4)) <= 0.1
        assert scalar_max_stepsize(0.1, 1.0) is None
        stable = LinearSde.scalar(-1.0, 0.5)
        assert cp_lyapunov_feasible(stable, 0.0).feasible
        est_stable = as_exponent(stable, [1.0], 2000, 5.0, 1e-3, seed=5)
        assert est_stable.slope + 3.0 * est_stable.stderr < 0.0


def test_criterion_6_strong_convergence_rate():
    with criterion(6, "strong sup-error rate across nested levels", limit_s=120.0):
        gbm = LinearSde.scalar(-1.0, 0.5)
        # scheme stepsizes 2^-9 .. 2^-4 observed one dyadic level finer
        study = strong_error_sup(gbm, [1.0], 1.0, range(1, 7), 2000, delta=2.0**-10, seed=0)
        dts = sorted(r.dt for r in study.records)
        assert dts[0] == pytest.approx(2.0**-9) and dts[-1] == pytest.approx(2.0**-4)
        assert 0.8 <= study.slope <= 1.2


def test_criterion_7_plateau_identity():
    with criterion(7, "difference process plateau identity on 20 seeded runs", limit_s=30.0):
        sde = LinearSde.scalar(-1.0, 0.5)
        for seed in range(20):
            plan = NoisePlan(seed, 0, 1, 0.5 / 16, 4.0)
            run = simulate_cps(sde, [1.0], 0.5, 4.0, seed=seed, inner_substeps=16)
            em = euler_maruyama(sde, [1.0], 0.5, math.sqrt(0.5) * plan.xi_block(8))
            hybrid = run.hybrid
            k = 0
            for i in range(hybrid.samples):
                if hybrid.impulse_flag[i]:
                    k += 1
                xk = em.states[k]
                gap = np.abs(hybrid.x[i] - hybrid.y[i] - xk).max()
                assert gap <= 1e-12 * (1.0 + np.abs(xk).max())


def test_criterion_8_scalar_controller_demo():
    with criterion(8, "sampled-feedback controller demo", limit_s=1.0):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, 10.0)
        assert demo.stepsize_bound == pytest.approx(math.log(2.0), rel=1e-12)
        assert demo.cyber[1] == pytest.approx(2.0 - math.exp(0.5), rel=1e-12)
        assert len(demo.cyber) >= 21
        mags = np.abs(demo.cyber[:21])
        assert np.all(mags[1:] < mags[:-1])
        assert abs(demo.cyber[1]) <= 1.0 * math.exp(-(2.0 - 1.0) * 0.5)
        with pytest.raises(StepsizeTooLarge):
            simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.8, 10.0)


def test_criterion_9_impulse_interval_checkers():
    with criterion(9, "impulse interval checkers at the worked constants", limit_s=1.0):
        ok = ConditionConstants(
            alpha=1.0, alpha_self=2.0,
            beta=0.5, beta_self=0.25,
            dt_under=0.1, dt_over=0.5,
        )
        assert check_thm1(ok)
        assert check_thm2(ok)
        wide = ConditionConstants(
            alpha=1.0, alpha_self=2.0,
            beta=0.5, beta_self=0.25,
            dt_under=0.1, dt_over=0.7,
        )
        assert not check_thm1(wide)
        assert not check_thm2(wide)
        expanding = ConditionConstants(
            alpha=1.0, alpha_self=2.0,
            beta=1.0, beta_self=1.0,
            dt_under=0.1, dt_over=0.5,
        )
        assert not check_thm1(expanding)  # -ln(beta_self) <= 0 closes the window
        assert not check_thm2(expanding)  # beta >= 1 cannot be rescued
        upper = -math.log(0.25) / 2.0
        boundary = ConditionConstants(
            alpha=1.0, alpha_self=2.0,
            beta=0.5, beta_self=0.25,
            dt_under=0.1, dt_over=upper,
        )
        assert not check_thm1(boundary)
        assert not check_thm2(boundary)
