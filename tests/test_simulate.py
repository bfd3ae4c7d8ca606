import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from sidelab.errors import NonFinite, StepsizeTooLarge
from sidelab.estimate import run_ensemble, strong_error_sup
from sidelab.matrix_kernels import solve_ct_lyapunov, solve_dt_lyapunov
from sidelab.models import ImpulseSchedule, LinearSde, VectorFieldSde, make_cps
from sidelab.noise import NoisePlan
from sidelab.simulate import (
    euler_maruyama,
    exact_gbm,
    simulate_cps,
    simulate_scalar_cps_demo,
    simulate_side,
    trajectory_rows,
)
from sidelab.stability import (
    check_thm4,
    check_thm5,
    check_thm6,
    cp_lyapunov_feasible,
    discrete_ms_stable,
    quadratic_condition_constants,
)
from side_blocks import random_blocks, side_from_blocks, stacked_as_x


def plan_for(dt, T, m=1, seed=0, traj=0):
    return NoisePlan(seed, traj, m, dt, T)


def _finite(x):
    if not np.isfinite(x).all():
        raise FloatingPointError("non-finite state")
    return x


def xi_increments(dt, n_steps, plan):
    """The scheme's increments sqrt(dt) xi(1) .. sqrt(dt) xi(n_steps)."""
    return math.sqrt(dt) * plan.xi_block(n_steps)


class TestEulerMaruyama:
    def test_frozen_dynamics(self):
        sde = LinearSde(np.zeros((1, 1)))
        path = euler_maruyama(sde, [1.0], 0.5, xi_increments(0.5, 8, plan_for(0.5, 4.0, m=0)))
        assert np.all(path.states == 1.0)

    def test_deterministic_geometric_decay(self):
        sde = LinearSde.scalar(-1.0, 0.0)
        path = euler_maruyama(sde, [1.0], 0.5, xi_increments(0.5, 6, plan_for(0.5, 3.0)))
        assert np.array_equal(path.states.ravel(), 0.5 ** np.arange(7))

    def test_single_step_matches_definition(self):
        lam, mu, dt = -1.0, 0.5, 0.25
        plan = plan_for(dt, 1.0, seed=9)
        path = euler_maruyama(LinearSde.scalar(lam, mu), [2.0], dt, xi_increments(dt, 1, plan))
        xi1 = plan.xi(1)[0]
        expected = 2.0 + dt * (lam * 2.0) + (mu * 2.0) * math.sqrt(dt) * xi1
        assert path.states[1, 0] == pytest.approx(expected, rel=1e-15)

    def test_brownian_driving_uses_increments(self):
        lam, mu, dt = -1.0, 0.5, 0.25
        plan = plan_for(dt, 1.0, seed=9)
        path = euler_maruyama(LinearSde.scalar(lam, mu), [2.0], dt, plan.increments(0)[:1])
        db = plan.increments(0)[0, 0]
        expected = 2.0 + dt * (lam * 2.0) + (mu * 2.0) * db
        assert path.states[1, 0] == pytest.approx(expected, rel=1e-15)

    def test_rejects_increments_that_are_not_rows(self):
        with pytest.raises(ValueError, match=r"^w must have shape \(N, 1\), got \(5,\)$"):
            euler_maruyama(LinearSde.scalar(-1.0, 0.5), [1.0], 0.1, np.zeros(5))

    def test_overflow_reports_step(self):
        # X_k = 1e300 * 11**k first exceeds the largest double at k = 8
        sde = LinearSde(np.array([[10.0]]))
        with pytest.raises(NonFinite, match="^state overflowed at step 8$") as err:
            euler_maruyama(sde, [1e300], 1.0, xi_increments(1.0, 50, plan_for(1.0, 50.0, m=0)))
        assert err.value.step == 8

    def test_evaluator_raising_on_overflow_reports_step(self):
        # the steps after an overflow see a non-finite state, on which this drift raises
        sde = VectorFieldSde(1, 0, lambda x, t: 10.0 * _finite(x), lambda x, t: np.zeros((1, 0)))
        with pytest.raises(NonFinite, match="^state overflowed at step 8$") as err:
            euler_maruyama(sde, [1e300], 1.0, np.zeros((50, 0)))
        assert err.value.step == 8

    def test_steps_of_a_3d_system_with_two_noises(self):
        rng = np.random.default_rng(12)
        f = -np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        gs = [0.3 * rng.standard_normal((3, 3)) for _ in range(2)]
        x0, dt, w = rng.standard_normal(3), 0.05, math.sqrt(0.05) * rng.standard_normal((40, 2))
        want = [x0]
        for w_k in w:
            x = want[-1]
            want.append(x + dt * (f @ x) + w_k[0] * (gs[0] @ x) + w_k[1] * (gs[1] @ x))
        got = euler_maruyama(LinearSde(f, tuple(gs)), x0, dt, w).states
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_scheme_is_the_substep_of_the_coupled_run(self):
        # at dt = h the scheme reproduces x of `simulate_cps` bit for bit
        rng = np.random.default_rng(3)
        sde = LinearSde(-np.eye(2) + 0.3 * rng.standard_normal((2, 2)),
                        tuple(0.4 * rng.standard_normal((2, 2)) for _ in range(2)))
        plan, s = plan_for(0.25, 2.0, m=2, seed=5), 8
        x = simulate_cps(sde, [1.0, -0.5], 0.25, 2.0, seed=5, inner_substeps=s).hybrid.x
        em = euler_maruyama(sde, [1.0, -0.5], 0.25 / s, math.sqrt(0.25 / s) * plan.standard_normals(8 * s))
        # drop the post-impulse rows, which repeat x
        substep_rows = np.arange(len(x)) % (s + 1) != 0
        substep_rows[0] = True
        assert np.array_equal(em.states, x[substep_rows])


class TestThetaMethod:
    """Input checks of `euler_maruyama`, the explicit (theta = 0) one-step
    scheme, at several noise intensities mu: they hold before any arithmetic."""

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_rejects_wrong_plan_width(self, mu):
        sde = LinearSde.scalar(-1.0, mu)
        with pytest.raises(ValueError, match=r"^w must have shape \(N, 1\), got \(5, 2\)$"):
            euler_maruyama(sde, [1.0], 0.1, xi_increments(0.1, 5, plan_for(0.1, 1.0, m=2)))


class TestSimulateSide:
    def test_zero_impulses_match_plain_integration(self):
        sde = LinearSde.scalar(-1.0, 0.5)
        side = make_cps(sde, 0.5)
        traj = simulate_side(side, [1.0, 0.0], 4, 2.0, seed=6)
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
        traj = simulate_side(side, [0.0, 0.0], 8, 1.0, seed=0)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.y == 0.0)

    def test_deterministic_cps_interval(self):
        # drift -x, dt = 0.5: y(0.5-) ~ e^{-0.5} - 1, jump +0.5, iterate X_1 = 0.5
        side = make_cps(LinearSde.scalar(-1.0, 0.0), 0.5)
        traj = simulate_side(side, [1.0, 0.0], 512, 0.5, seed=0)
        pre = traj.y[-2, 0]
        post = traj.y[-1, 0]
        assert pre == pytest.approx(math.exp(-0.5) - 1.0, abs=2e-3)
        assert post - pre == pytest.approx(0.5, abs=2e-3)
        assert int(traj.impulse_flag.sum()) == 1

    def test_impulse_rows_doubled(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.5), 0.5)
        traj = simulate_side(side, [1.0, 0.0], 4, 2.0, seed=0)
        # 16 substeps + 4 impulses + initial row
        assert traj.samples == 16 + 4 + 1
        assert int(traj.impulse_flag.sum()) == 4
        for time in traj.times[traj.impulse_flag == 1]:
            hits = np.flatnonzero(np.isclose(traj.times, time))
            assert hits.size == 2

    def test_within_interval_jumps_shrink(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.0), 1.0)
        gaps = []
        for sub in (8, 16, 32):
            traj = simulate_side(side, [1.0, 0.0], sub, 1.0, seed=0)
            mask = traj.impulse_flag == 0
            gaps.append(np.abs(np.diff(traj.x[mask, 0])).max())
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


def looped_side(side, z0, inner_substeps, T, plan):
    """Oracle: the split-evaluator integrator with per-step lists, which
    draws each interval's normals and each impulse draw as it reaches them."""
    z0 = np.asarray(z0, dtype=float)
    x, y = z0[: side.n].copy(), z0[side.n :].copy()
    times, xs, ys, flags, impulses = [0.0], [x.copy()], [y.copy()], [0], []
    slot = step_index = k = 0
    t_k = side.schedule.time(0)
    horizon_tol = 1e-9 * max(1.0, T)
    while t_k < T - horizon_tol:
        t_next = side.schedule.time(k + 1)
        end = min(t_next, T)
        h = (end - t_k) / inner_substeps
        draws = plan.standard_normals(slot + inner_substeps)[slot : slot + inner_substeps]
        slot += inner_substeps
        for j in range(inner_substeps):
            t = t_k + j * h
            w = math.sqrt(h) * draws[j]
            dx = h * side.drift_x(x, t) + side.diffusion_x(x, t) @ w
            dy = h * side.drift_y(x, y, t) + side.diffusion_y(x, y, t) @ w
            x, y = x + dx, y + dy
            step_index += 1
            times.append(end if j == inner_substeps - 1 else t_k + (j + 1) * h)
            xs.append(x.copy())
            ys.append(y.copy())
            flags.append(0)
        if t_next <= T + horizon_tol:
            xi = plan.xi(k + 1)
            pre = np.concatenate([x, y])
            x = x + side.jump_x(x, k + 1) + side.jump_x_gain(x, k + 1) @ xi
            y = y + side.jump_y(pre[: side.n], pre[side.n :], k + 1) \
                + side.jump_y_gain(pre[: side.n], pre[side.n :], k + 1) @ xi
            times.append(t_next)
            xs.append(x.copy())
            ys.append(y.copy())
            flags.append(1)
            impulses.append((k + 1, t_next, pre, np.concatenate([x, y])))
        k += 1
        t_k = side.schedule.time(k)
    n = len(times)
    return (np.asarray(times), np.asarray(xs).reshape(n, side.n),
            np.asarray(ys).reshape(n, side.q), np.asarray(flags, dtype=np.uint8), impulses)


def oracle_case(name):
    """(system, z0, inner_substeps, T) of one oracle comparison."""
    rng = np.random.default_rng(11)
    every_quarter = ImpulseSchedule.equal_gaps(0.25)
    if name == "scalar-cps":
        return make_cps(LinearSde.scalar(-1.0, 0.5), 0.5), [1.0, 0.0], 4, 2.0
    if name == "n2-q3-m2":
        return side_from_blocks(2, *random_blocks(rng, 2, 3, 2), every_quarter), np.ones(5), 4, 2.0
    if name == "m0":
        return side_from_blocks(2, *random_blocks(rng, 2, 2, 0), every_quarter), np.ones(4), 4, 2.0
    if name == "q0":
        side = side_from_blocks(2, *random_blocks(rng, 2, 3, 1), every_quarter)
        return stacked_as_x(side), np.ones(5), 4, 2.0
    if name == "non-uniform":
        # gaps 0.3 + 0.1 (sin(k + 1) - sin(k)) lie in [0.1, 0.5]
        schedule = ImpulseSchedule(lambda k: 0.3 * k + 0.1 * math.sin(k), 0.1, 0.5)
        return side_from_blocks(1, *random_blocks(rng, 1, 2, 1), schedule), np.ones(3), 5, 3.0
    if name == "horizon-inside-interval":
        return side_from_blocks(2, *random_blocks(rng, 2, 2, 1), every_quarter), np.ones(4), 3, 1.9
    raise KeyError(name)


class TestSimulateSideOracle:
    @pytest.mark.parametrize(
        "name", ["scalar-cps", "n2-q3-m2", "m0", "q0", "non-uniform", "horizon-inside-interval"]
    )
    def test_matches_looped_integrator(self, name):
        side, z0, substeps, T = oracle_case(name)
        got = simulate_side(side, z0, substeps, T, seed=4)
        times, xs, ys, flags, impulses = looped_side(
            side, z0, substeps, T, NoisePlan(4, 0, side.noise_dim, T, T)
        )
        assert np.array_equal(got.times, times)
        assert np.array_equal(got.impulse_flag, flags)
        # impulse k is the k-th flagged row, its left limit the row before
        rows, z = np.flatnonzero(got.impulse_flag), got.z()
        assert list(enumerate(got.times[rows].tolist(), start=1)) == [rec[:2] for rec in impulses]
        pairs = [(got.x, xs), (got.y, ys)]
        pairs += [(z[r - 1], rec[2]) for r, rec in zip(rows, impulses)]
        pairs += [(z[r], rec[3]) for r, rec in zip(rows, impulses)]
        for a, b in pairs:
            assert a.shape == b.shape
            if side.noise_dim <= 1:
                assert np.array_equal(a, b)
            else:
                # one stacked (n+q) x m product may round apart from two split ones
                assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(b)))

    def test_horizon_inside_interval_drops_last_jump(self):
        side, z0, substeps, T = oracle_case("horizon-inside-interval")
        traj = simulate_side(side, z0, substeps, T, seed=4)
        assert int(traj.impulse_flag.sum()) == 7 and traj.times[-1] == T
        assert traj.samples == 1 + 8 * substeps + 7

    def test_jump_overflow_reports_impulse_without_warnings(self):
        blocks = (-np.eye(2), [], np.array([[0.0, 0.0], [1e300, 0.0]]), [])
        side = side_from_blocks(1, *blocks, ImpulseSchedule.equal_gaps(0.5))
        with pytest.raises(NonFinite, match="at impulse 1$") as err:
            simulate_side(side, [1e10, 0.0], 4, 2.0, seed=0)
        assert err.value.step == 4

    def test_impulse_rows_share_one_time(self):
        # t_k + s h can miss t_{k+1} in the last bit (11 * (0.1 / 11) != 0.1);
        # the left limit and the post-impulse sample both sit at t_{k+1} exactly
        sde = LinearSde.scalar(-1.0, 0.5)
        for traj in (simulate_cps(sde, [1.0], 0.1, 2.0, seed=0, inner_substeps=11).hybrid,
                     simulate_side(make_cps(sde, 0.1), [1.0, 0.0], 11, 2.0, seed=0)):
            rows = np.flatnonzero(traj.impulse_flag)
            assert rows.size == 20
            assert np.array_equal(traj.times[rows - 1], traj.times[rows])
            assert np.array_equal(traj.times[rows], (np.arange(20) + 1) * 0.1)

    def test_non_increasing_schedule_rejected(self):
        # t_2 = 0.25 falls back below t_1 = 0.5
        schedule = ImpulseSchedule(lambda k: 0.5 * k if k < 2 else 0.25, 0.25, 0.5)
        side = side_from_blocks(1, -np.eye(2), [], np.zeros((2, 2)), [], schedule)
        with pytest.raises(ValueError, match="not strictly increasing"):
            simulate_side(side, [1.0, 0.0], 4, 2.0, seed=0)

    def test_nan_impulse_time_rejected(self):
        schedule = ImpulseSchedule(lambda k: 0.5 * k if k < 2 else math.nan, 0.25, 0.5)
        side = side_from_blocks(1, -np.eye(2), [], np.zeros((2, 2)), [], schedule)
        with pytest.raises(ValueError, match="not strictly increasing"):
            simulate_side(side, [1.0, 0.0], 4, 2.0, seed=0)

    def test_overflow_step_without_warnings(self):
        # under error::RuntimeWarning an overflow warning would fail this first
        sde = LinearSde.scalar(1e6, 0.5)
        with pytest.raises(NonFinite, match="at substep 74$") as err:
            simulate_cps(sde, [1.0], 0.5, 4.0, seed=0, inner_substeps=32)
        assert err.value.step == 74
        with pytest.raises(NonFinite, match="at substep 74$") as err:
            simulate_side(make_cps(sde, 0.5), [1.0, 0.0], 32, 4.0, seed=0)
        assert err.value.step == 74

    @pytest.mark.parametrize("s", [16, 30, 31])
    def test_overflow_step_anywhere_in_an_interval(self, s):
        # x grows by 1e10 per substep from 1, so it is first inf at substep 31:
        # inside the second interval (s = 16), its first substep (s = 30), or
        # the last substep of the first (s = 31)
        sde = LinearSde.scalar((1e10 - 1.0) * s, 0.0)
        runs = (lambda: simulate_cps(sde, [1.0], 1.0, 2.0, seed=0, inner_substeps=s),
                lambda: simulate_side(make_cps(sde, 1.0), [1.0, 0.0], s, 2.0, seed=0))
        for run in runs:
            with pytest.raises(NonFinite, match="at substep 31$") as err:
                run()
            assert err.value.step == 31

    def test_vector_field_overflow_without_warnings(self):
        # the substeps after the overflow evaluate np.sin at inf and nan,
        # which warns unless the integrator's errstate covers them
        sde = VectorFieldSde(1, 1, lambda x, t: 3e4 * x + 0.1 * np.sin(x),
                             lambda x, t: 0.5 * np.tanh(x).reshape(1, 1))
        for run in (lambda: simulate_cps(sde, [1.0], 0.25, 4.0, seed=1, inner_substeps=16),
                    lambda: simulate_side(make_cps(sde, 0.25), [1.0, 0.0], 16, 4.0, seed=1)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(NonFinite, match="at substep 115$") as err:
                    run()
            assert err.value.step == 115
            assert seen == []

    def test_evaluator_error_after_overflow_reports_the_overflow(self):
        def system(fail_after):
            # scipy.linalg.solve refuses a non-finite right-hand side
            def drift(x, t):
                if t > fail_after:
                    raise RuntimeError("drift failed")
                return 3e4 * scipy.linalg.solve(np.eye(1), x)

            return VectorFieldSde(1, 1, drift, lambda x, t: 0.5 * np.tanh(x).reshape(1, 1))

        sde = system(math.inf)
        with pytest.raises(NonFinite, match="at substep 115$") as err:
            simulate_cps(sde, [1.0], 0.25, 4.0, seed=1, inner_substeps=16)
        assert err.value.step == 115
        with pytest.raises(NonFinite, match="at substep 115$"):
            simulate_side(make_cps(sde, 0.25), [1.0, 0.0], 16, 4.0, seed=1)
        # an error on a finite state is the evaluator's own
        sde = system(1.5)
        with pytest.raises(RuntimeError, match="drift failed"):
            simulate_cps(sde, [1.0], 0.25, 4.0, seed=1, inner_substeps=16)
        with pytest.raises(RuntimeError, match="drift failed"):
            simulate_side(make_cps(sde, 0.25), [1.0, 0.0], 16, 4.0, seed=1)


class TestSimulateCps:
    def test_difference_starts_at_zero(self):
        run = simulate_cps(LinearSde.scalar(-1.0, 0.5), [1.0], 0.5, 2.0, seed=0)
        assert np.all(run.hybrid.y[0] == 0.0)

    def test_plateau_identity(self):
        sde = LinearSde.scalar(-1.0, 0.5)
        for seed in range(3):
            run = simulate_cps(sde, [1.0], 0.5, 2.0, seed=seed, inner_substeps=8)
            em = euler_maruyama(sde, [1.0], 0.5, xi_increments(0.5, 4, plan_for(0.0625, 2.0, seed=seed)))
            assert np.array_equal(run.cyber.states, em.states)
            k = 0
            for i in range(run.hybrid.samples):
                if run.hybrid.impulse_flag[i]:
                    k += 1
                xk = em.states[k]
                gap = np.abs(run.hybrid.x[i] - run.hybrid.y[i] - xk).max()
                assert gap <= 1e-12 * (1.0 + np.abs(xk).max())

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (10, 3), (13, 2)])
    def test_coupled_mode_agrees(self, n, m):
        # the same system integrated block by block as a hybrid system: the
        # batched linear increment against the evaluators, bit for bit in x
        # also where a row-stacked [F; G_1; ..] product would round otherwise
        if (n, m) == (2, 1):
            sde = LinearSde(
                np.array([[-1.0, 0.2], [0.0, -0.5]]),
                (np.array([[0.3, 0.0], [0.0, 0.3]]),),
            )
        else:
            rng = np.random.default_rng(100 * n + m)
            sde = LinearSde(
                -np.eye(n) + rng.normal(size=(n, n)) / (2 * n),
                tuple(rng.normal(size=(n, n)) / (3 * n) for _ in range(m)),
            )
        x0 = np.linspace(1.0, -1.0, n)
        a = simulate_cps(sde, x0, 0.25, 1.0, seed=2, inner_substeps=8).hybrid
        b = simulate_side(make_cps(sde, 0.25), np.concatenate([x0, np.zeros(n)]), 8, 1.0, seed=2)
        scale = 1.0 + np.abs(a.y).max()
        assert np.abs(a.y - b.y).max() <= 1e-12 * scale
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.impulse_flag, b.impulse_flag)

    def test_brownian_impulse_mode_nests(self):
        sde = LinearSde.scalar(-1.0, 0.5)
        plan = plan_for(0.0625, 2.0, seed=5)
        run = simulate_cps(sde, [1.0], 0.5, 2.0, seed=5, inner_substeps=8, impulse_driving="brownian")
        # 32 finest steps folded 3 times: the 4 increments of size 0.5
        em = euler_maruyama(sde, [1.0], 0.5, plan.increments(3))
        assert np.array_equal(run.cyber.states, em.states)

    def test_equilibrium(self):
        run = simulate_cps(LinearSde.scalar(-1.0, 0.5), [0.0], 0.5, 1.0, seed=0)
        assert np.all(run.hybrid.x == 0.0) and np.all(run.hybrid.y == 0.0)

    def test_requires_whole_intervals(self):
        with pytest.raises(ValueError):
            simulate_cps(LinearSde.scalar(-1.0, 0.0), [1.0], 0.5, 1.7, seed=0)


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
        b = np.concatenate([[0.0], np.cumsum(plan.increments(0)[:, 0])])
        times = np.arange(b.shape[0]) * 0.25
        vals = exact_gbm(lam, mu, 1.0, times, b)
        assert np.allclose(vals, np.exp(mu * b), rtol=1e-13)

    def test_time_column_has_the_bits_of_the_repeated_grid(self):
        rng = np.random.default_rng(5)
        times = np.arange(300, 813)[:, None] * 0.1
        brownian = np.cumsum(rng.normal(size=(513, 7)), axis=0)
        col = exact_gbm(-1.3, 0.7, 2.5, times, brownian)
        grid = exact_gbm(-1.3, 0.7, 2.5, np.repeat(times, 7, axis=1), brownian)
        assert col.shape == grid.shape == (513, 7)
        assert col.tobytes() == grid.tobytes()


class TestScalarCpsDemo:
    def test_admissible_bound_value(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, 10.0)
        assert demo.stepsize_bound == pytest.approx(math.log(2.0), rel=1e-12)

    def test_first_iterate_to_twelve_digits(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, 10.0)
        assert demo.cyber[1] == pytest.approx(2.0 - math.exp(0.5), rel=1e-12, abs=1e-13)

    def test_decreasing_and_bounded(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, 10.0)
        assert demo.strictly_decreasing
        assert abs(demo.cyber[1]) <= math.exp(-0.5)
        assert demo.decay_bound_ok and demo.same_sign

    def test_zero_start_stays_zero(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 0.0, 0.5, 5.0)
        assert np.all(demo.cyber == 0.0) and np.all(demo.x == 0.0)
        assert bool(demo)

    def test_stepsize_too_large(self):
        with pytest.raises(StepsizeTooLarge):
            simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.8, 5.0)

    @pytest.mark.parametrize("x0", [1.0, -1.0])
    def test_checks_hold_after_the_iterates_underflow(self, x0):
        # |X_k| falls below the smallest float near t = 670
        demo = simulate_scalar_cps_demo(1.0, 2.0, x0, 0.1, 1000.0)
        assert demo.cyber[-1] == 0.0 and demo.factor == 2.0 - math.exp(0.1)
        assert demo.strictly_decreasing and demo.decay_bound_ok and demo.same_sign

    def test_horizon_is_whole_steps(self):
        demo = simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.1, 1.0)
        assert demo.cyber.shape == (11,) and demo.times[-1] == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValueError, match="not a whole number of steps"):
            simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.1, 1.05)

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
        run = simulate_cps(sde, [1.0], 0.5, 2.0, seed=0, inner_substeps=4)
        header, rows = trajectory_rows(run.hybrid)
        assert header == ["t", "x_1", "y_1", "X_1", "impulse_flag"]
        assert len(rows) == run.hybrid.samples == 4 * 4 + 4 + 1
        flags = [r[-1] for r in rows]
        assert sum(flags) == 4
        assert all(type(v) is float for r in rows for v in r)
        view = np.array([r[3] for r in rows])
        assert np.array_equal(view, run.hybrid.x[:, 0] - run.hybrid.y[:, 0])


GBM = LinearSde.scalar(-1.0, 0.5)

# (entry point, parameter, call with the bad value, bad values)
NON_FINITE_CASES = [
    ("simulate_side", "T",
     lambda v: simulate_side(make_cps(GBM, 0.5), [1.0, 0.0], 4, v, seed=0), (math.nan, math.inf)),
    ("run_ensemble", "T",
     lambda v: run_ensemble(make_cps(GBM, 0.5), [1.0, 0.0], 2.0, 4, v, 0.5), (math.nan, math.inf)),
    # a hybrid path ignores dt, and a linear one inner_substeps: both are still checked
    ("run_ensemble", "dt",
     lambda v: run_ensemble(make_cps(GBM, 0.5), [1.0, 0.0], 2.0, 4, 2.0, v), (math.nan, math.inf, -1.0)),
    ("run_ensemble", "inner_substeps",
     lambda v: run_ensemble(GBM, [1.0], 2.0, 4, 1.0, 0.5, inner_substeps=v), (0, -3)),
    ("euler_maruyama", "dt", lambda v: euler_maruyama(GBM, [1.0], v, np.zeros((4, 1))), (math.nan, math.inf)),
    ("simulate_cps", "dt", lambda v: simulate_cps(GBM, [1.0], v, 1.0, seed=0), (math.nan, math.inf)),
    ("scalar_cps_demo", "dt", lambda v: simulate_scalar_cps_demo(1.0, 2.0, 1.0, v, 10.0), (math.nan, math.inf)),
    ("scalar_cps_demo", "T", lambda v: simulate_scalar_cps_demo(1.0, 2.0, 1.0, 0.5, v), (math.nan, math.inf)),
    ("cp_lyapunov_feasible", "dt_bar", lambda v: cp_lyapunov_feasible(GBM, v), (math.nan, math.inf)),
    ("discrete_ms_stable", "dt", lambda v: discrete_ms_stable(GBM, v), (math.nan, math.inf)),
    ("check_thm4", "dt", lambda v: check_thm4(GBM, [[1.0]], v), (math.nan, math.inf)),
    ("check_thm4", "split", lambda v: check_thm4(GBM, [[1.0]], 0.1, split=v), (math.nan, math.inf)),
    ("check_thm5", "dt_bar", lambda v: check_thm5(GBM, [[1.0]], v), (math.nan, math.inf)),
    ("check_thm6", "dt_bar", lambda v: check_thm6(GBM, [[1.0]], v), (math.nan, math.inf)),
    ("quadratic_condition_constants", "split",
     lambda v: quadratic_condition_constants(make_cps(GBM, 0.5), [[1.0]], [[1.0]], split=v), (math.nan, math.inf)),
    ("solve_ct_lyapunov", "dt_bar", lambda v: solve_ct_lyapunov([[-1.0]], [], v, [[1.0]]), (math.nan, math.inf)),
    ("solve_dt_lyapunov", "dt", lambda v: solve_dt_lyapunov([[-1.0]], [], v, [[1.0]]), (math.nan, math.inf)),
    ("NoisePlan", "delta", lambda v: NoisePlan(0, 0, 1, v, 1.0), (math.nan, math.inf)),
    ("NoisePlan", "horizon", lambda v: NoisePlan(0, 0, 1, 0.25, v), (math.nan, math.inf)),
    ("scalar_cps_demo", "a", lambda v: simulate_scalar_cps_demo(v, 2.0, 1.0, 0.5, 10.0), (math.nan, math.inf)),
    ("scalar_cps_demo", "k_p", lambda v: simulate_scalar_cps_demo(1.0, v, 1.0, 0.5, 10.0), (math.nan, math.inf)),
    ("scalar_cps_demo", "x0", lambda v: simulate_scalar_cps_demo(1.0, 2.0, v, 0.5, 10.0), (math.nan, math.inf)),
    ("make_cps", "dt", lambda v: make_cps(GBM, v), (math.nan, math.inf)),
    ("equal_gaps", "dt", lambda v: ImpulseSchedule.equal_gaps(v), (math.nan, math.inf)),
    ("strong_error_sup", "delta",
     lambda v: strong_error_sup(GBM, [1.0], 1.0, (1, 2), 4, delta=v), (math.nan, math.inf)),
]


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{entry}-{name}={value}")
    for entry, name, call, values in NON_FINITE_CASES for value in values
])
def test_non_finite_stepsize_or_horizon_is_named(name, call, value):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call(value)
