import math

import numpy as np
import pytest

from sidelab.errors import (
    ContractionViolated,
    NoConvergence,
    NonFinite,
    OutOfRange,
    StepsizeTooLarge,
)
from sidelab.models import LinearSde, VectorFieldSde, make_cps
from sidelab.noise import NoisePlan
from sidelab.simulate import (
    DiscretePath,
    euler_maruyama,
    exact_gbm,
    simulate_cps,
    simulate_scalar_cps_demo,
    simulate_side,
    step_process,
    theta_method,
    trajectory_rows,
)


def plan_for(dt, T, m=1, seed=0, traj=0):
    return NoisePlan(seed, traj, m, dt, T)


class TestEulerMaruyama:
    def test_frozen_dynamics(self):
        sde = LinearSde(np.zeros((1, 1)))
        path = euler_maruyama(sde, [1.0], 0.5, 8, plan_for(0.5, 4.0, m=0))
        assert np.all(path.states == 1.0)

    def test_deterministic_geometric_decay(self):
        sde = LinearSde.scalar(-1.0, 0.0)
        path = euler_maruyama(sde, [1.0], 0.5, 6, plan_for(0.5, 3.0))
        assert np.array_equal(path.states.ravel(), 0.5 ** np.arange(7))

    def test_single_step_matches_definition(self):
        lam, mu, dt = -1.0, 0.5, 0.25
        plan = plan_for(dt, 1.0, seed=9)
        path = euler_maruyama(LinearSde.scalar(lam, mu), [2.0], dt, 1, plan)
        xi1 = plan.xi(1)[0]
        expected = 2.0 + dt * (lam * 2.0) + (mu * 2.0) * math.sqrt(dt) * xi1
        assert path.states[1, 0] == pytest.approx(expected, rel=1e-15)

    def test_brownian_driving_uses_increments(self):
        lam, mu, dt = -1.0, 0.5, 0.25
        plan = plan_for(dt, 1.0, seed=9)
        path = euler_maruyama(LinearSde.scalar(lam, mu), [2.0], dt, 1, plan, driving="brownian")
        db = plan.increments(0)[0, 0]
        expected = 2.0 + dt * (lam * 2.0) + (mu * 2.0) * db
        assert path.states[1, 0] == pytest.approx(expected, rel=1e-15)

    def test_overflow_reports_step(self):
        sde = LinearSde(np.array([[10.0]]))
        with pytest.raises(NonFinite) as err:
            euler_maruyama(sde, [1e300], 1.0, 50, plan_for(1.0, 50.0, m=0))
        assert err.value.step is not None


class TestThetaMethod:
    def test_theta_zero_is_bitwise_euler(self):
        sde = LinearSde.scalar(-1.0, 0.5)
        a = euler_maruyama(sde, [1.0], 0.1, 30, plan_for(0.1, 3.0, seed=4))
        b = theta_method(sde, [1.0], 0.1, 0.0, 30, plan_for(0.1, 3.0, seed=4))
        assert np.array_equal(a.states, b.states)

    def test_fully_implicit_deterministic(self):
        sde = LinearSde.scalar(-1.0, 0.0)
        path = theta_method(sde, [1.0], 0.5, 1.0, 5, plan_for(0.5, 2.5))
        assert np.allclose(path.states.ravel(), (1.0 / 1.5) ** np.arange(6), rtol=1e-9)

    def test_midpoint_deterministic(self):
        # (1 - 0.25) / (1 + 0.25) = 0.6 per step
        sde = LinearSde.scalar(-1.0, 0.0)
        path = theta_method(sde, [1.0], 0.5, 0.5, 4, plan_for(0.5, 2.0))
        assert np.allclose(path.states.ravel(), 0.6 ** np.arange(5), rtol=1e-9)

    def test_contraction_violated(self):
        sde = LinearSde.scalar(-4.0, 0.0)
        with pytest.raises(ContractionViolated):
            theta_method(sde, [1.0], 0.5, 1.0, 4, plan_for(0.5, 2.0))

    def test_no_convergence_with_understated_lipschitz(self):
        sde = VectorFieldSde(
            dim=1,
            noise_dim=0,
            drift_fn=lambda x, t: -40.0 * x,
            diffusion_fn=lambda x, t: np.zeros((1, 0)),
            lipschitz=0.1,  # understated on purpose: the iteration map is not contracting
        )
        with pytest.raises(NoConvergence):
            theta_method(sde, [1.0], 1.0, 1.0, 2, plan_for(1.0, 2.0, m=0))


    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_rejects_wrong_plan_width(self, theta):
        sde = LinearSde.scalar(-1.0, 0.5)
        with pytest.raises(ValueError, match="plan noise dimension does not match the system"):
            theta_method(sde, [1.0], 0.1, theta, 5, plan_for(0.1, 1.0, m=2))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_rejects_negative_step_count(self, theta):
        sde = LinearSde.scalar(-1.0, 0.5)
        with pytest.raises(ValueError, match="n_steps must be nonnegative"):
            theta_method(sde, [1.0], 0.1, theta, -1, plan_for(0.1, 1.0))


class TestStepProcess:
    def test_right_continuity_and_holds(self):
        path = DiscretePath(0.5, np.arange(4.0).reshape(4, 1))
        at = step_process(path)
        assert at(0.5)[0] == 1.0
        assert at(1.0 - 1e-12)[0] == 1.0
        assert at(0.0)[0] == 0.0

    def test_out_of_range(self):
        path = DiscretePath(0.5, np.arange(4.0).reshape(4, 1))
        at = step_process(path)
        with pytest.raises(OutOfRange):
            at(-1e-9)
        with pytest.raises(OutOfRange):
            at(2.0)  # beyond [0, 4 * 0.5)
        assert at(1.999999)[0] == 3.0


class TestSimulateSide:
    def test_zero_impulses_match_plain_integration(self):
        sde = LinearSde.scalar(-1.0, 0.5)
        side = make_cps(sde, 0.5)
        plan = plan_for(0.125, 2.0, seed=6)
        traj = simulate_side(side, [1.0, 0.0], 4, 2.0, plan)
        # replay the x block by hand with the same draws
        x = 1.0
        draws = NoisePlan(6, 0, 1, 0.125, 2.0).standard_normals(16)
        h = 0.125
        expect = [x]
        for j in range(16):
            w = math.sqrt(h) * draws[j, 0]
            x = x + h * (-x) + (0.5 * x) * w
            expect.append(x)
        mask = traj.impulse_flag == 0
        assert np.allclose(traj.x[mask, 0], expect, rtol=1e-15)

    def test_equilibrium_absorbs(self):
        side = make_cps(LinearSde.scalar(-2.0, 1.0), 0.25)
        traj = simulate_side(side, [0.0, 0.0], 8, 1.0, plan_for(0.03125, 1.0))
        assert np.all(traj.x == 0.0)
        assert np.all(traj.y == 0.0)

    def test_deterministic_cps_interval(self):
        # drift -x, dt = 0.5: y(0.5-) ~ e^{-0.5} - 1, jump +0.5, iterate X_1 = 0.5
        side = make_cps(LinearSde.scalar(-1.0, 0.0), 0.5)
        plan = plan_for(0.5 / 512, 0.5, m=1)
        traj = simulate_side(side, [1.0, 0.0], 512, 0.5, plan)
        pre = traj.y[-2, 0]
        post = traj.y[-1, 0]
        assert pre == pytest.approx(math.exp(-0.5) - 1.0, abs=2e-3)
        assert post - pre == pytest.approx(0.5, abs=2e-3)
        assert len(traj.impulses) == 1

    def test_impulse_rows_doubled(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.5), 0.5)
        traj = simulate_side(side, [1.0, 0.0], 4, 2.0, plan_for(0.125, 2.0))
        # 16 substeps + 4 impulses + initial row
        assert traj.samples == 16 + 4 + 1
        assert int(traj.impulse_flag.sum()) == 4
        for rec in traj.impulses:
            hits = np.flatnonzero(np.isclose(traj.times, rec.time))
            assert hits.size == 2

    def test_within_interval_jumps_shrink(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.0), 1.0)
        gaps = []
        for sub in (8, 16, 32):
            traj = simulate_side(side, [1.0, 0.0], sub, 1.0, plan_for(1.0 / sub, 1.0))
            mask = traj.impulse_flag == 0
            gaps.append(np.abs(np.diff(traj.x[mask, 0])).max())
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


class TestSimulateCps:
    def test_difference_starts_at_zero(self):
        run = simulate_cps(LinearSde.scalar(-1.0, 0.5), [1.0], 0.5, 2.0, plan_for(0.0625, 2.0))
        assert np.all(run.hybrid.y[0] == 0.0)

    def test_plateau_identity(self):
        sde = LinearSde.scalar(-1.0, 0.5)
        for seed in range(3):
            plan = plan_for(0.0625, 2.0, seed=seed)
            run = simulate_cps(sde, [1.0], 0.5, 2.0, plan, inner_substeps=8)
            em = euler_maruyama(sde, [1.0], 0.5, 4, plan_for(0.0625, 2.0, seed=seed))
            assert np.array_equal(run.cyber.states, em.states)
            k = 0
            for i in range(run.hybrid.samples):
                if run.hybrid.impulse_flag[i]:
                    k += 1
                xk = em.states[k]
                gap = np.abs(run.hybrid.x[i] - run.hybrid.y[i] - xk).max()
                assert gap <= 1e-12 * (1.0 + np.abs(xk).max())

    def test_coupled_mode_agrees(self):
        # the same system integrated block by block as a hybrid system
        sde = LinearSde(
            np.array([[-1.0, 0.2], [0.0, -0.5]]),
            (np.array([[0.3, 0.0], [0.0, 0.3]]),),
        )
        plan = plan_for(0.03125, 1.0, seed=2)
        a = simulate_cps(sde, [1.0, -1.0], 0.25, 1.0, plan, 8).hybrid
        b = simulate_side(make_cps(sde, 0.25), [1.0, -1.0, 0.0, 0.0], 8, 1.0, plan)
        scale = 1.0 + np.abs(a.y).max()
        assert np.abs(a.y - b.y).max() <= 1e-12 * scale
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.impulse_flag, b.impulse_flag)

    def test_brownian_impulse_mode_nests(self):
        sde = LinearSde.scalar(-1.0, 0.5)
        plan = plan_for(0.0625, 2.0, seed=5)
        run = simulate_cps(sde, [1.0], 0.5, 2.0, plan, 8, impulse_driving="brownian")
        em = euler_maruyama(
            sde, [1.0], 0.5, 4, plan_for(0.0625, 2.0, seed=5), driving="brownian"
        )
        assert np.array_equal(run.cyber.states, em.states)

    def test_equilibrium(self):
        run = simulate_cps(LinearSde.scalar(-1.0, 0.5), [0.0], 0.5, 1.0, plan_for(0.0625, 1.0))
        assert np.all(run.hybrid.x == 0.0) and np.all(run.hybrid.y == 0.0)

    def test_cyber_view(self):
        run = simulate_cps(LinearSde.scalar(-1.0, 0.0), [1.0], 0.5, 2.0, plan_for(0.125, 2.0))
        assert run.cyber_at(0.6)[0] == run.cyber.states[1, 0]

    def test_requires_whole_intervals(self):
        with pytest.raises(ValueError):
            simulate_cps(LinearSde.scalar(-1.0, 0.0), [1.0], 0.5, 1.7, plan_for(0.125, 2.0))


class TestExactGbm:
    def test_deterministic_reduction(self):
        times = np.linspace(0.0, 2.0, 9)
        vals = exact_gbm(-1.0, 0.0, 3.0, times, np.zeros(9))
        assert np.allclose(vals, 3.0 * np.exp(-times), rtol=1e-14)

    def test_initial_value(self):
        assert exact_gbm(-1.0, 0.5, 2.5, np.array([0.0]), np.array([0.0]))[0] == 2.5

    def test_drift_cancellation(self):
        mu = 0.7
        lam = mu * mu / 2.0
        plan = plan_for(0.25, 2.0, seed=3)
        times, b = plan.brownian_path(0)
        vals = exact_gbm(lam, mu, 1.0, times, b[:, 0])
        assert np.allclose(vals, np.exp(mu * b[:, 0]), rtol=1e-13)


class TestScalarCpsDemo:
    def test_admissible_bound_value(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, 10.0)
        assert demo.verdict.stepsize_bound == pytest.approx(math.log(2.0), rel=1e-12)

    def test_first_iterate_to_twelve_digits(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, 10.0)
        assert demo.cyber[1] == pytest.approx(2.0 - math.exp(0.5), rel=1e-12, abs=1e-13)

    def test_decreasing_and_bounded(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, 10.0)
        assert demo.verdict.strictly_decreasing
        assert abs(demo.cyber[1]) <= math.exp(-0.5)
        assert demo.verdict.decay_bound_ok and demo.verdict.same_sign

    def test_zero_start_stays_zero(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 0.0, 0.5, 5.0)
        assert np.all(demo.cyber == 0.0) and np.all(demo.x == 0.0)
        assert bool(demo.verdict)

    def test_stepsize_too_large(self):
        with pytest.raises(StepsizeTooLarge):
            simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.8, 5.0)

    def test_cyber_matches_plant_at_updates(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, 3.0)
        for k in range(1, len(demo.cyber)):
            t_k = k * demo.dt
            idx = np.flatnonzero(np.isclose(demo.times, t_k))
            if idx.size:
                assert demo.x[idx[0]] == pytest.approx(demo.cyber[k], rel=1e-12)


class TestTrajectoryRows:
    def test_header_and_counts(self):
        sde = LinearSde.scalar(-1.0, 0.5)
        run = simulate_cps(sde, [1.0], 0.5, 2.0, plan_for(0.125, 2.0), 4)
        header, rows = trajectory_rows(run.hybrid)
        assert header == ["t", "x_1", "y_1", "X_1", "impulse_flag"]
        assert len(rows) == run.hybrid.samples == 4 * 4 + 4 + 1
        flags = [r[-1] for r in rows]
        assert sum(flags) == 4
        assert all(type(v) is float for r in rows for v in r)
        view = np.array([r[3] for r in rows])
        assert np.array_equal(view, run.hybrid.x[:, 0] - run.hybrid.y[:, 0])
