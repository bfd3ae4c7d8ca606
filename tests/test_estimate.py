import math
import pickle
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from sidelab import estimate, noise
from sidelab.errors import GridMismatch, NonFinite
from sidelab.estimate import (
    Ensemble,
    as_exponent,
    fit_moment_window,
    fit_pathwise,
    moment_exponent,
    run_ensemble,
    scalar_onestep_factor,
    strong_error_sup,
)
from sidelab.models import LinearSde, VectorFieldSde, make_cps
from sidelab.noise import NoisePlan, block_slots
from sidelab.simulate import euler_maruyama, exact_gbm
from sidelab.stability import cp_lyapunov_feasible, discrete_ms_stable

GBM = LinearSde.scalar(-1.0, 0.5)


class TestOnestepFactor:
    def test_worked_values(self):
        assert scalar_onestep_factor(-4.0, 1.0, 0.4) == pytest.approx(0.76, rel=1e-14)
        assert scalar_onestep_factor(-4.0, 1.0, 0.4375) == 1.0
        assert scalar_onestep_factor(0.0, 0.0, 0.7) == 1.0

    def test_matches_discrete_certificate_on_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            lam = float(rng.uniform(-5.0, 1.0))
            mu = float(rng.uniform(0.0, 1.5))
            dt = float(rng.uniform(0.01, 0.8))
            factor = scalar_onestep_factor(lam, mu, dt)
            cert = discrete_ms_stable(LinearSde.scalar(lam, mu), dt)
            assert cert.feasible == (factor < 1.0)


class TestMomentExponent:
    def test_deterministic_decay(self):
        sde = LinearSde(np.array([[-1.0]]))
        est = moment_exponent(sde, [1.0], 2.0, 200, 5.0, 1e-3, seed=0)
        # the one-step scheme realizes 2 ln(1 - dt)/dt, within a hair of -2
        assert est.slope == pytest.approx(-2.0, abs=0.01)
        assert est.stderr < 1e-9

    def test_gbm_second_moment(self):
        # |X|^2 of GBM is heavy-tailed (E|X|^4 / (E|X|^2)^2 = e^{4 mu^2 t}), so the
        # size sets the spread: at 10,000 paths, T = 2, dt = 1e-2 the slope's exact
        # sd is 0.024 (delta method), measured 0.020 over 30 seeds (worst
        # deviation 0.046), so abs=0.1 is over 4 sd.  At 2000 paths, T = 5 the
        # sd was 0.107 and 6 of 24 seeds failed.
        est = moment_exponent(GBM, [1.0], 2.0, 10_000, 2.0, 1e-2, seed=6)
        assert est.slope == pytest.approx(2.0 * (-1.0) + 0.25, abs=0.1)

    def test_gbm_first_moment(self):
        est = moment_exponent(GBM, [1.0], 1.0, 2000, 5.0, 1e-3, seed=6)
        assert est.slope == pytest.approx(-1.0, abs=0.1)

    def test_zero_start_reports_minus_infinity(self):
        est = moment_exponent(GBM, [0.0], 2.0, 50, 2.0, 0.01, seed=1)
        assert est.slope == -math.inf
        assert est.zero_trajectories == 50

    def test_window_needs_ten_points(self):
        with pytest.raises(ValueError, match="10"):
            moment_exponent(GBM, [1.0], 2.0, 50, 1.0, 0.25, seed=0)

    def test_side_system_path(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.2), 0.1)
        est = moment_exponent(side, [1.0, 0.0], 2.0, 120, 4.0, 0.1, seed=2, inner_substeps=4)
        assert est.slope < -0.5

    def test_reproducible_bitwise(self):
        a = moment_exponent(GBM, [1.0], 2.0, 300, 2.0, 0.01, seed=9)
        b = moment_exponent(GBM, [1.0], 2.0, 300, 2.0, 0.01, seed=9)
        assert a == b


class TestAsExponent:
    def test_deterministic(self):
        sde = LinearSde(np.array([[-1.0]]))
        est = as_exponent(sde, [1.0], 100, 5.0, 1e-3, seed=0)
        assert est.slope == pytest.approx(-1.0, abs=5e-3)
        assert est.stderr < 1e-12

    def test_gbm_pathwise_rate(self):
        est = as_exponent(GBM, [1.0], 1000, 5.0, 1e-3, seed=3)
        assert est.slope == pytest.approx(-1.0 - 0.125, abs=0.1)

    def test_moment_pathwise_gap(self):
        gap = LinearSde.scalar(0.1, 1.0)
        est = as_exponent(gap, [1.0], 1000, 5.0, 1e-3, seed=3)
        assert est.slope == pytest.approx(0.1 - 0.5, abs=0.1)
        # while the second moment grows: 2 lam + mu^2 > 0
        assert cp_lyapunov_feasible(gap, 0.0).feasible is False

    def test_zero_start(self):
        est = as_exponent(GBM, [0.0], 64, 1.0, 0.01, seed=0)
        assert est.slope == -math.inf and est.zero_trajectories == 64 and est.points == 0

    def test_certified_stable_is_negative_at_three_sigma(self):
        for lam, mu, seed in ((-1.0, 0.5, 4), (-2.0, 1.0, 5), (-0.8, 0.3, 6)):
            sde = LinearSde.scalar(lam, mu)
            assert cp_lyapunov_feasible(sde, 0.0).feasible
            est = as_exponent(sde, [1.0], 400, 4.0, 2e-3, seed=seed)
            assert est.slope + 3.0 * est.stderr < 0.0


    def test_fit_pathwise_ignores_moment_order(self):
        ens = run_ensemble(GBM, [1.0], 3.0, 50, 1.0, 0.01, seed=2)
        assert fit_pathwise(ens) == as_exponent(GBM, [1.0], 50, 1.0, 0.01, seed=2)


class TestFrontDoors:
    SIDE = make_cps(LinearSde.scalar(-1.0, 0.2), 0.1)

    def test_moment_exponent_forwards_options(self):
        got = moment_exponent(self.SIDE, [1.0, 0.0], 2.0, 8, 2.0, 0.1, seed=2, inner_substeps=4)
        ens = run_ensemble(self.SIDE, [1.0, 0.0], 2.0, 8, 2.0, 0.1, seed=2, inner_substeps=4)
        assert pickle.dumps(got) == pickle.dumps(fit_moment_window(ens)[0])

    def test_as_exponent_forwards_options(self):
        got = as_exponent(GBM, [1.0], 16, 1.0, 0.01, seed=5)
        ens = run_ensemble(GBM, [1.0], 2.0, 16, 1.0, 0.01, seed=5)
        assert pickle.dumps(got) == pickle.dumps(fit_pathwise(ens))

    @pytest.mark.parametrize("front_door, args", [
        (moment_exponent, (GBM, [1.0], 2.0, 8, 1.0, 0.05)),
        (as_exponent, (GBM, [1.0], 8, 1.0, 0.05)),
    ], ids=["moment_exponent", "as_exponent"])
    def test_unknown_or_positional_option_rejected(self, front_door, args):
        with pytest.raises(TypeError, match="seeds"):
            front_door(*args, seeds=1)
        with pytest.raises(TypeError):
            front_door(*args, 1)


class TestEnsemble:
    def test_requires_two_trajectories(self):
        with pytest.raises(ValueError):
            run_ensemble(GBM, [1.0], 2.0, 1, 1.0, 0.1)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
    def test_moment_order_must_be_positive(self, p):
        with pytest.raises(ValueError, match="^p must be positive$"):
            run_ensemble(GBM, [1.0], p, 8, 1.0, 0.1)

    @pytest.mark.parametrize("system", [GBM, VectorFieldSde(1, 1, GBM.drift, GBM.diffusion)],
                             ids=["linear", "vector_field"])
    def test_horizon_must_be_whole_steps(self, system):
        # the rule, and the error, of simulate_cps and the CLI
        with pytest.raises(ValueError, match="not a whole number of steps"):
            run_ensemble(system, [1.0], 2.0, 8, 1.0, 0.3)

    @pytest.mark.parametrize("system", [
        LinearSde(-np.eye(2)),
        VectorFieldSde(2, 0, lambda x, t: -x, lambda x, t: np.zeros((2, 0))),
    ], ids=["linear", "vector_field"])
    def test_x0_must_match_the_dimension(self, system):
        # a 1-element x0 is not broadcast, by either kernel
        with pytest.raises(ValueError, match=r"^x0 must have length 2, got 1$"):
            run_ensemble(system, [1.0], 2.0, 8, 1.0, 0.1)

    def test_moment_window_fit_returns_series(self):
        ens = run_ensemble(GBM, [1.0], 2.0, 100, 2.0, 0.05, seed=2)
        est, times, log_mean = fit_moment_window(ens)
        assert times.shape == log_mean.shape
        assert times[0] >= 1.0 - 1e-12 and est.points == times.shape[0]

    def test_sup_bound_sanity(self):
        # empirical E sup |x|^2 sits far below the a-priori envelope
        ens = run_ensemble(GBM, [1.0], 2.0, 500, 1.0, 1.0 / 512, seed=7)
        # the envelope constant bounds both coefficients: max(|lambda|, |mu|)
        x0, lip, T = 1.0, max(map(abs, GBM.scalar_coefficients)), 1.0
        bound = (1.0 + 3.0 * x0**2) * math.exp(3.0 * lip * T * (T + 4.0))
        assert float(np.mean(ens.sup_sq)) < bound


class TestStrongError:
    def test_gbm_rate_in_window(self):
        study = strong_error_sup(GBM, [1.0], 1.0, range(1, 7), 500, delta=2.0**-10, seed=0)
        assert 0.8 <= study.slope <= 1.2
        assert len(study.records) == 6
        dts = [r.dt for r in study.records]
        assert dts == sorted(dts)

    def test_deterministic_rate_is_quadratic(self):
        det = LinearSde(np.array([[-1.0]]))
        study = strong_error_sup(det, [1.0], 1.0, range(3, 9), 50, delta=2.0**-12, seed=0)
        assert study.slope == pytest.approx(2.0, abs=0.3)

    def test_frozen_system_has_zero_error(self):
        frozen = LinearSde(np.zeros((1, 1)))
        study = strong_error_sup(frozen, [1.0], 1.0, range(1, 4), 20, delta=2.0**-6, seed=0)
        assert all(r.error == 0.0 for r in study.records)
        assert math.isnan(study.slope)

    def test_errors_grow_with_stepsize(self):
        study = strong_error_sup(GBM, [1.0], 1.0, range(1, 7), 200, delta=2.0**-10, seed=1)
        errs = [r.error for r in study.records]
        assert all(a < b for a, b in zip(errs, errs[1:]))

    def test_multidimensional_reference_path(self):
        sde = LinearSde(
            np.array([[-1.0, 0.5], [0.0, -2.0]]),
            (np.array([[0.3, 0.0], [0.1, 0.2]]),),
        )
        study = strong_error_sup(sde, [1.0, -1.0], 1.0, range(2, 6), 100, delta=2.0**-9, seed=4)
        assert 0.6 <= study.slope <= 1.4

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError, match="observation"):
            strong_error_sup(GBM, [1.0], 1.0, range(0, 4), 50, delta=2.0**-8, seed=0)

    def test_horizon_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="not a whole number of steps"):
            strong_error_sup(GBM, [1.0], 1.0, [1, 2], 8, delta=0.3)

    def test_x0_must_match_the_dimension(self):
        with pytest.raises(ValueError, match=r"^x0 must have length 2, got 1$"):
            strong_error_sup(TWO_NOISE_2D, [1.0], 1.0, [1, 2], 8, delta=0.125)

    def test_reproducible_bitwise(self):
        a = strong_error_sup(GBM, [1.0], 1.0, range(1, 5), 100, delta=2.0**-8, seed=5)
        b = strong_error_sup(GBM, [1.0], 1.0, range(1, 5), 100, delta=2.0**-8, seed=5)
        assert a == b

    def test_csv_rows(self):
        study = strong_error_sup(GBM, [1.0], 1.0, range(1, 5), 50, delta=2.0**-8, seed=5)
        header, columns = study.csv_rows()
        assert header == ["level", "dt", "error", "stderr"]
        assert len(columns) == 4 and all(c.shape == (4,) for c in columns)
        for c, name in zip(columns, header):
            assert c.tolist() == [getattr(r, name) for r in study.records]


# ------------------------------------------------------- row-major oracles
# The kernels as they were before the batches went time-major: each batch is
# a (B, n) state stepped under per-trajectory NoisePlan draws of shape
# (B, N, m).  They share no kernel or draw routine with `estimate`.

def _row_major_steps(f, gs, x, dt, w):
    """Explicit steps x + dt x F^T + sum_j (x Gj^T) w_j of a (B, n) batch
    under noise w of shape (B, N, m); yields the batch after each step."""
    for k in range(w.shape[1]):
        step = dt * (x @ f.T)
        for j, g in enumerate(gs):
            step = step + (x @ g.T) * w[:, k, j][:, None]
        x = x + step
        yield x


def _plan_noise(seed, trajs, m, dt, T):
    """Per-step noise sqrt(dt) xi(k+1) of each trajectory from its own plan: (B, N, m)."""
    plans = [NoisePlan(seed, traj, m, dt, T) for traj in trajs]
    return np.stack([math.sqrt(dt) * plan.xi_block(plan.finest_steps) for plan in plans])


def row_major_ensemble(sde, x0, p, trajectories, T, dt, *, seed=0):
    n, m = sde.dim, sde.noise_dim
    n_steps = NoisePlan(seed, 0, m, dt, T).finest_steps
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (n,))
    moment_sum = np.zeros(n_steps + 1)
    sup_sq = np.empty(trajectories)
    terminal_log = np.empty(trajectories)
    for start in range(0, trajectories, estimate._ENSEMBLE_BATCH):
        idx = range(start, min(start + estimate._ENSEMBLE_BATCH, trajectories))
        b = len(idx)
        w = _plan_noise(seed, idx, m, dt, T)
        x = np.tile(x0, (b, 1))
        nrm = np.linalg.norm(x, axis=1)
        moment_sum[0] += float(np.sum(nrm**p))
        batch_sup = nrm**2
        with np.errstate(over="ignore", invalid="ignore"):
            for k, x in enumerate(_row_major_steps(sde.drift_matrix, sde.noise_matrices, x, dt, w), 1):
                nrm = np.linalg.norm(x, axis=1)
                moment_sum[k] += float(np.sum(nrm**p))
                np.maximum(batch_sup, nrm**2, out=batch_sup)
        sup_sq[start : start + b] = batch_sup
        with np.errstate(divide="ignore"):
            terminal_log[start : start + b] = np.log(nrm)
    return estimate.Ensemble(np.arange(n_steps + 1) * dt, trajectories, moment_sum, sup_sq, terminal_log)


# The convergence study as it was before it streamed over time chunks: every
# batch holds its full (B, n_fine + 1, n) paths.  The chunked study must give
# the same ConvergenceStudy bit for bit.

def _fold(inc, level):
    for _ in range(level):
        inc = inc[:, 0::2] + inc[:, 1::2]
    return inc


def _em_level_paths(f, gs, x0, dt, w):
    """Vectorized explicit paths: w is (B, N, m); returns (B, N+1, n)."""
    b, n_steps, _ = w.shape
    out = np.empty((b, n_steps + 1, f.shape[0]))
    out[:, 0] = x0
    for k, x in enumerate(_row_major_steps(f, gs, np.tile(x0, (b, 1)), dt, w), 1):
        out[:, k] = x
    return out


def whole_array_study(sde, x0, T, levels, trajectories, *, delta, seed=0):
    levels = sorted(set(int(l) for l in levels))
    n, m = sde.dim, sde.noise_dim
    f, gs = sde.drift_matrix, sde.noise_matrices
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (n,))
    n_fine = NoisePlan(seed, 0, m, delta, T).finest_steps
    err_sum = {l: 0.0 for l in levels}
    err_sumsq = {l: 0.0 for l in levels}
    for start in range(0, trajectories, estimate._SUP_BATCH):
        idx = range(start, min(start + estimate._SUP_BATCH, trajectories))
        b = len(idx)
        inc0 = np.stack([NoisePlan(seed, traj, m, delta, T).increments(0) for traj in idx])
        if n == 1 and m <= 1:
            lam = float(f[0, 0])
            mu = float(gs[0][0, 0]) if m else 0.0
            times_f = np.arange(n_fine + 1) * delta
            b_path = np.zeros((b, n_fine + 1))
            if m:
                b_path[:, 1:] = np.cumsum(inc0[:, :, 0], axis=1)
            ref = exact_gbm(lam, mu, float(x0[0]), np.tile(times_f, (b, 1)), b_path)[:, :, None]
        else:
            ref = _em_level_paths(f, gs, x0, delta, inc0)
        for level in levels:
            stride = 1 << level
            path = _em_level_paths(f, gs, x0, delta * stride, _fold(inc0, level))
            fine = np.repeat(path[:, :-1], stride, axis=1)
            fine = np.concatenate([fine, path[:, -1:]], axis=1)
            err = np.max(np.sum((ref - fine) ** 2, axis=2), axis=1)
            err_sum[level] += np.sum(err)
            err_sumsq[level] += np.sum(err**2)
    # float64 sums: `mean**2` above ~1e154 gives inf (stderr NaN), where a float's ** raises
    records = []
    for level in levels:
        mean = err_sum[level] / trajectories
        var = max(err_sumsq[level] / trajectories - mean**2, 0.0)
        records.append(estimate.LevelError(level, delta * (1 << level), float(mean), math.sqrt(var / trajectories)))
    fit = [(math.log(r.dt), math.log(r.error)) for r in records if r.error > 0.0]
    if len(fit) >= 2:
        slope, _ = estimate._ols(np.array([a for a, _ in fit]), np.array([b for _, b in fit]))
    else:
        slope = float("nan")
    return estimate.ConvergenceStudy(tuple(records), slope)


TWO_NOISE_2D = LinearSde(
    np.array([[-1.0, 0.5], [0.2, -2.0]]),
    (np.array([[0.3, 0.0], [0.1, 0.2]]), np.array([[0.0, 0.2], [-0.1, 0.1]])),
)

TWO_NOISE_1D = LinearSde(np.array([[-1.0]]), (np.array([[0.4]]), np.array([[-0.3]])))

MANY_NOISE_2D = LinearSde(np.array([[-1.0, 0.3], [0.0, -1.2]]),
                          tuple(0.05 * np.random.default_rng(0).standard_normal((257, 2, 2))))

# (system, x0, T, levels, trajectories, delta, seed); a chunk is the
# `block_slots(m, batch)` finest steps of a batch: 512 in every case but the
# 512-path batches of two noises (256) and of 257 noises (1)
PARITY_CASES = {
    "scalar-gbm": (GBM, [1.0], 1.0, range(1, 5), 100, 2.0**-10, 5),
    # at dt = 1/16 the explicit step is unstable (1 + lam dt = -1.5), so that
    # level's sup error sits at the final grid point
    "noise-free-scalar": (LinearSde(np.array([[-40.0]])), [1.0], 1.0, range(1, 7), 20, 2.0**-10, 0),
    "2d-two-noises": (TWO_NOISE_2D, [1.0, -1.0], 1.0, range(2, 6), 40, 2.0**-10, 4),
    "levels-1-3-4": (TWO_NOISE_2D, [0.5, 2.0], 1.0, [1, 3, 4], 30, 2.0**-10, 6),
    "two-batches": (GBM, [1.0], 2.0, range(1, 4), 600, 2.0**-9, 1),
    "n_fine-not-chunk-multiple": (GBM, [1.0], 2.5, range(1, 6), 64, 2.0**-9, 3),
    "coarsest-stride-above-chunk": (GBM, [1.0], 1.0, range(8, 11), 30, 2.0**-12, 3),
    # levels coarser than a chunk carry their increments across chunks as a
    # pairwise tree; here with a height between them that no level takes
    "levels-apart-above-chunk": (GBM, [1.0], 1.0, [2, 10, 12], 30, 2.0**-12, 2),
    "2d-above-chunk": (TWO_NOISE_2D, [1.0, -1.0], 1.0, [1, 4, 10, 11], 20, 2.0**-12, 3),
    "1d-two-noises-above-chunk": (TWO_NOISE_1D, [1.0], 0.5, range(8, 12), 20, 2.0**-12, 4),
    "two-batches-above-chunk": (TWO_NOISE_2D, [1.0, -1.0], 0.5, [10, 11], 520, 2.0**-12, 5),
    # one coordinate with an explicit-scheme reference
    "1d-two-noises": (TWO_NOISE_1D, [1.0], 1.0, range(1, 5), 40, 2.0**-10, 7),
    # the closed-form reference reaches -inf and every sup error is +inf
    "overflowing-scalar": (LinearSde.scalar(50.0, 3.0), [-1.0], 40.0, range(1, 4), 4, 0.125, 0),
    # finite errors near 3e161, whose squares overflow: every stderr is NaN
    "near-overflow-scalar": (LinearSde.scalar(50.0, 3.0), [1.0], 4.0, range(1, 4), 4, 0.125, 0),
    # 257 noises on 512 paths: a chunk of one step, so every level joins the
    # pairwise tree straight from the noise block
    "one-slot-chunks": (MANY_NOISE_2D, [1.0, -1.0], 0.25, range(1, 4), 512, 2.0**-7, 1),
}


def poisoned_blocks(*args):
    """`noise.normal_blocks` whose blocks are copies, each filled with NaN
    once the next block is requested, so a kernel that keeps a block, or a
    view of one, past that request reads NaN on any thread timing."""
    held = None
    for block in noise.normal_blocks(*args):
        if held is not None:
            held.fill(np.nan)
        held = block.copy()
        yield held
    held.fill(np.nan)


def _study_bytes(study):
    # pickle compares floats bit for bit, NaN included
    return pickle.dumps(study)


class TestStreamedStudyParity:
    @pytest.mark.parametrize("case", PARITY_CASES.values(), ids=PARITY_CASES.keys())
    def test_bitwise_equal_to_whole_array_study(self, case):
        sde, x0, T, levels, trajectories, delta, seed = case
        streamed = strong_error_sup(sde, x0, T, levels, trajectories, delta=delta, seed=seed)
        with np.errstate(over="ignore", invalid="ignore"):  # the overflowing case
            oracle = whole_array_study(sde, x0, T, levels, trajectories, delta=delta, seed=seed)
        assert _study_bytes(streamed) == _study_bytes(oracle)

    @staticmethod
    def _chunk(name):
        # a case's largest chunk: that of its first, fullest batch
        sde, _, _, _, trajectories, _, _ = PARITY_CASES[name]
        return block_slots(sde.noise_dim, min(trajectories, estimate._SUP_BATCH))

    def test_case_shapes(self):
        # the cases cover what their names say
        _, _, T, levels, _, delta, _ = PARITY_CASES["n_fine-not-chunk-multiple"]
        assert round(T / delta) % self._chunk("n_fine-not-chunk-multiple") != 0
        above = ("coarsest-stride-above-chunk", "levels-apart-above-chunk", "2d-above-chunk",
                 "1d-two-noises-above-chunk", "two-batches-above-chunk")
        assert all(1 << max(PARITY_CASES[name][3]) > self._chunk(name) for name in above)
        # the second batch of 8 paths takes a chunk of 512 steps
        assert block_slots(2, PARITY_CASES["two-batches-above-chunk"][4] - estimate._SUP_BATCH) == 512
        assert {PARITY_CASES[name][0].dim for name in above} == {1, 2}
        assert PARITY_CASES["two-batches-above-chunk"][4] > estimate._SUP_BATCH
        assert PARITY_CASES["two-batches"][4] > estimate._SUP_BATCH
        assert PARITY_CASES["noise-free-scalar"][0].noise_dim == 0
        assert self._chunk("one-slot-chunks") == 1
        assert len(PARITY_CASES["2d-two-noises"][0].noise_matrices) == 2
        sde = PARITY_CASES["1d-two-noises"][0]
        assert (sde.dim, sde.noise_dim) == (1, 2) and sde.scalar_coefficients is None
        sde, x0, T, levels, trajectories, delta, seed = PARITY_CASES["overflowing-scalar"]
        with np.errstate(over="ignore"):
            assert sde.dim == 1 and exact_gbm(*sde.scalar_coefficients, x0[0], T, 0.0) == -math.inf
        study = strong_error_sup(sde, x0, T, levels, trajectories, delta=delta, seed=seed)
        assert [r.error for r in study.records] == [math.inf] * len(levels)
        sde, x0, T, levels, trajectories, delta, seed = PARITY_CASES["near-overflow-scalar"]
        study = strong_error_sup(sde, x0, T, levels, trajectories, delta=delta, seed=seed)
        assert all(1e154 < r.error < math.inf and math.isnan(r.stderr) for r in study.records)

    @pytest.mark.parametrize("chunk, T", [(1, 1.0), (2, 1.0), (32, 1.0), (1024, 1.0), (1024, 1.5)],
                             ids=["one-step", "below-every-stride", "coarsest-stride", "n_fine", "short-last"])
    def test_chunk_size_changes_no_bit(self, monkeypatch, chunk, T):
        sde, x0, levels, trajectories, delta = TWO_NOISE_2D, [1.0, -1.0], range(2, 6), 40, 2.0**-10
        oracle = whole_array_study(sde, x0, T, levels, trajectories, delta=delta, seed=8)
        monkeypatch.setattr(noise, "_BLOCK_SLOTS", chunk)
        monkeypatch.setattr(estimate, "normal_blocks", poisoned_blocks)
        assert block_slots(2, trajectories) == chunk
        # only the last case ends in a short chunk: 1536 finest steps, chunks of 1024
        assert (round(T / delta) % chunk != 0) == (T == 1.5)
        streamed = strong_error_sup(sde, x0, T, levels, trajectories, delta=delta, seed=8)
        assert _study_bytes(streamed) == _study_bytes(oracle)

    @pytest.mark.parametrize("case", PARITY_CASES.values(), ids=PARITY_CASES.keys())
    def test_keeps_no_noise_block_past_the_next(self, monkeypatch, case):
        sde, x0, T, levels, trajectories, delta, seed = case
        monkeypatch.setattr(estimate, "normal_blocks", poisoned_blocks)
        streamed = strong_error_sup(sde, x0, T, levels, trajectories, delta=delta, seed=seed)
        with np.errstate(over="ignore", invalid="ignore"):  # the overflowing case
            oracle = whole_array_study(sde, x0, T, levels, trajectories, delta=delta, seed=seed)
        assert _study_bytes(streamed) == _study_bytes(oracle)

    def test_level_that_does_not_nest(self):
        # 6 finest steps: level 2 (stride 4) does not divide them
        with pytest.raises(GridMismatch):
            strong_error_sup(GBM, [1.0], 0.75, [1, 2], 10, delta=0.125)


class TestStreamedStudyMemory:
    @staticmethod
    def _peak(T, levels=range(1, 5), trajectories=64, delta=2.0**-10):
        tracemalloc.start()
        try:
            strong_error_sup(GBM, [1.0], T, levels, trajectories, delta=delta)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_horizon(self):
        # the whole-array study held full paths: 3.5 MiB at T = 1, 14 MiB at T = 4
        assert self._peak(4.0) <= 1.1 * self._peak(1.0)

    def test_peak_does_not_grow_with_the_coarsest_stride(self):
        # two coarsest steps on 512 paths; a chunk rounded up to the coarsest
        # stride peaked at 17.1 MiB for levels 1..8 and 132.7 MiB for 1..12
        delta = 2.0**-14
        low, high = (self._peak(2 * (1 << top) * delta, range(1, top + 1), 512, delta) for top in (8, 12))
        assert high <= 1.25 * low


# ------------------------------------------------------- time-major ensemble
# `run_ensemble` on a LinearSde steps (n, B) states under streamed (N, m, B)
# draws; the row-major oracle above must give the same Ensemble bit for bit.

SYS3 = LinearSde(
    np.array([[-2.0, 0.3, 0.0], [0.1, -1.5, 0.2], [0.0, -0.2, -1.8]]),
    (0.3 * np.eye(3), np.array([[0.0, 0.2, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.2]])),
)
X3 = [1.0, -0.5, 0.25]
OVERFLOWING = LinearSde.scalar(50.0, 3.0)  # |1 + 50 dt| = 26 per step at dt = 0.5
OVERFLOWING_FIELD = VectorFieldSde(1, 1, lambda x, t: 50.0 * x, lambda x, t: 3.0 * x.reshape(1, 1))

# (system, x0, p, trajectories, T, dt, seed); every case reads the impulse
# stream, so "xi" and "brownian" differ only in their seed
ENSEMBLE_CASES = {
    "xi": (SYS3, X3, 2.0, 300, 1.0, 1e-2, 1),
    "brownian": (SYS3, X3, 2.0, 300, 1.0, 1e-2, 2),
    "two-batches": (SYS3, X3, 2.0, 2100, 0.1, 1e-3, 3),
    "steps-not-chunk-multiple": (SYS3, X3, 2.0, 1024, 0.3, 1e-3, 4),
    "no-noise": (LinearSde(SYS3.drift_matrix), X3, 2.0, 20, 1.0, 1e-2, 5),
    "p1": (GBM, [1.0], 1.0, 200, 1.0, 1e-2, 6),
    "p3": (SYS3, X3, 3.0, 100, 1.0, 1e-2, 7),
    "zero-start": (GBM, [0.0], 2.0, 50, 1.0, 1e-2, 8),
    "overflow": (OVERFLOWING, [1.0], 2.0, 8, 200.0, 0.5, 9),
}


class TestTimeMajorEnsembleParity:
    @pytest.mark.parametrize("case", ENSEMBLE_CASES.values(), ids=ENSEMBLE_CASES.keys())
    def test_bitwise_equal_to_row_major_ensemble(self, case):
        sde, x0, p, trajectories, T, dt, seed = case
        got = run_ensemble(sde, x0, p, trajectories, T, dt, seed=seed)
        want = row_major_ensemble(sde, x0, p, trajectories, T, dt, seed=seed)
        assert pickle.dumps(got) == pickle.dumps(want)

    def test_case_shapes(self):
        # the cases cover what their names say
        assert ENSEMBLE_CASES["two-batches"][3] > estimate._ENSEMBLE_BATCH
        sde, _, _, trajectories, T, dt, _ = ENSEMBLE_CASES["steps-not-chunk-multiple"]
        chunk = block_slots(sde.noise_dim, trajectories)
        assert chunk < round(T / dt) and round(T / dt) % chunk != 0
        assert ENSEMBLE_CASES["no-noise"][0].noise_dim == 0
        assert not np.any(ENSEMBLE_CASES["zero-start"][1])
        sde, x0, p, trajectories, T, dt, seed = ENSEMBLE_CASES["overflow"]
        assert run_ensemble(sde, x0, p, trajectories, T, dt, seed=seed).diverged == trajectories

    @pytest.mark.parametrize("case", ENSEMBLE_CASES.values(), ids=ENSEMBLE_CASES.keys())
    def test_keeps_no_noise_block_past_the_next(self, monkeypatch, case):
        sde, x0, p, trajectories, T, dt, seed = case
        monkeypatch.setattr(estimate, "normal_blocks", poisoned_blocks)
        got = run_ensemble(sde, x0, p, trajectories, T, dt, seed=seed)
        want = row_major_ensemble(sde, x0, p, trajectories, T, dt, seed=seed)
        assert pickle.dumps(got) == pickle.dumps(want)

    @pytest.mark.parametrize("cap, value, chunk", [("_BLOCK_DRAWS", 1, 1), ("_BLOCK_DRAWS", 7 * 2 * 40, 4),
                                                   ("_BLOCK_SLOTS", 8, 8)])
    def test_chunk_size_changes_no_bit(self, monkeypatch, cap, value, chunk):
        # chunks of 1, 4 and 8 of the 50 steps for 40 paths of 2 noises
        want = row_major_ensemble(SYS3, X3, 2.0, 40, 0.5, 1e-2, seed=10)
        monkeypatch.setattr(noise, cap, value)
        assert block_slots(2, 40) == chunk
        got = run_ensemble(SYS3, X3, 2.0, 40, 0.5, 1e-2, seed=10)
        assert pickle.dumps(got) == pickle.dumps(want)


class TestLoopedEnsemble:
    def test_vector_field_ensemble_has_the_bits_of_its_paths(self):
        # a stable linear field: every path finishes, and the looped ensemble
        # sums its paths' norms in trajectory order
        f, g = SYS3.drift_matrix, SYS3.noise_matrices[0]
        field = VectorFieldSde(3, 1, lambda x, t: f @ x, lambda x, t: (g @ x).reshape(3, 1))
        trajectories, T, dt, seed = 5, 1.0, 0.125, 3
        got = run_ensemble(field, X3, 2.0, trajectories, T, dt, seed=seed)
        n_steps = 8
        moment_sum, sup_sq, terminal_log = 0.0, [], []
        for traj in range(trajectories):
            xi = noise.draws(seed, traj, noise._IMPULSE_STREAM, n_steps, 1)
            nrm = np.linalg.norm(euler_maruyama(field, X3, dt, math.sqrt(dt) * xi).states, axis=1)
            moment_sum = moment_sum + nrm**2.0
            sup_sq.append(float(np.max(nrm**2)))
            terminal_log.append(float(np.log(nrm[-1])))
        want = Ensemble(np.arange(n_steps + 1) * dt, trajectories, moment_sum, np.array(sup_sq), np.array(terminal_log))
        assert pickle.dumps(got) == pickle.dumps(want)
        assert got.diverged == 0


class TestDivergedTrajectories:
    def test_overflow_is_counted(self):
        ens = run_ensemble(OVERFLOWING, [1.0], 2.0, 6, 200.0, 0.5, seed=1)
        assert ens.diverged == 6
        assert not np.any(np.isfinite(ens.sup_sq))

    @pytest.mark.parametrize("system, z0, message", [
        (OVERFLOWING_FIELD, [1.0], "state overflowed at step 218"),
        (make_cps(OVERFLOWING, 0.5), [1.0, 0.0], "state overflowed at substep 218"),
    ], ids=["vector_field", "side_system"])
    def test_looped_overflow_raises(self, system, z0, message):
        # only the batched linear kernel counts an overflowing path: the
        # looped ensemble stops at the first one, here trajectory 0
        with pytest.raises(NonFinite, match=rf"^trajectory 0: {message}$") as err:
            run_ensemble(system, z0, 2.0, 6, 200.0, 0.5, seed=1)
        assert err.value.step == 218

    def test_stable_system_has_none(self):
        assert run_ensemble(SYS3, X3, 2.0, 64, 1.0, 1e-2, seed=1).diverged == 0

    def test_overflow_is_not_pathwise_decay(self):
        # every path overflows: no rate is finite, and none is an exact zero
        est = fit_pathwise(run_ensemble(OVERFLOWING, [1.0], 2.0, 4, 200.0, 0.5, seed=1))
        assert est.slope == math.inf and math.isnan(est.stderr)
        assert est.points == 0 and est.zero_trajectories == 0

    def test_one_diverged_trajectory_makes_the_rate_infinite(self):
        log = np.array([-1.0, np.nan, -np.inf, 2.0, np.inf])
        ens = Ensemble(np.array([0.0, 2.0]), 5, np.ones(2), np.ones(5), log)
        est = fit_pathwise(ens)
        assert est.slope == math.inf and math.isnan(est.stderr)
        assert est.points == 2 and est.zero_trajectories == 1

    @pytest.mark.parametrize("system", [GBM, VectorFieldSde(1, 1, GBM.drift, GBM.diffusion)],
                             ids=["linear", "vector_field"])
    def test_overflowing_moment_is_warning_free(self, system):
        # |x|^1000 overflows from t = 0 on while every state stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = run_ensemble(system, [10.0], 1000.0, 8, 2.0, 0.05, seed=0)
            est, _, log_mean = fit_moment_window(ens)
        assert ens.moment_sum[0] == math.inf and ens.diverged == 0
        assert np.all(log_mean == math.inf)
        assert math.isnan(est.slope) and math.isnan(est.stderr)

    def test_overflowing_study_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = strong_error_sup(OVERFLOWING, [1.0], 40.0, range(1, 4), 4, delta=0.125)
        assert [r.error for r in study.records] == [math.inf] * 3
        assert all(math.isnan(r.stderr) for r in study.records)
        assert math.isnan(study.slope)

    def test_finite_error_with_an_overflowing_square_is_warning_free(self):
        # at T = 4 the mean sup errors are finite near 2.9e161, but their
        # squares overflow: the error is kept and its stderr is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = strong_error_sup(OVERFLOWING, [1.0], 4.0, range(1, 4), 4, delta=0.125)
        assert all(type(r.error) is float and 1e161 < r.error < math.inf for r in study.records)
        assert all(math.isnan(r.stderr) for r in study.records)
        assert math.isfinite(study.slope)


class TestEnsembleMemory:
    @staticmethod
    def _peak(T):
        tracemalloc.start()
        try:
            run_ensemble(SYS3, X3, 2.0, 1024, T, 1e-3, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_horizon(self):
        # drawing each batch's whole (B, N, m) noise block before stepping
        # peaked at 31.4 MiB at T = 2 and 125.5 MiB at T = 8
        assert self._peak(8.0) <= 1.1 * self._peak(2.0)


class TestLinearSteps:
    @pytest.mark.parametrize("n, b", [(1, 512), (3, 64), (10, 1), (11, 1), (30, 1), (10, 64)])
    def test_bits_of_the_separate_products(self, n, b):
        # a one-path batch at n = 10, 11 or 30 is where a row-stacked product rounds apart
        rng = np.random.default_rng(n)
        sde = LinearSde(0.3 * rng.normal(size=(n, n)), tuple(0.2 * rng.normal(size=(n, n)) for _ in range(2)))
        x = rng.normal(size=(n, b))
        w = 0.1 * rng.normal(size=(20, 2, b))
        want = x
        for w_k in w:
            step = 0.01 * (sde.drift_matrix @ want)
            for g, w_kj in zip(sde.noise_matrices, w_k):
                step += (g @ want) * w_kj
            want = want + step
        *_, got = estimate._linear_steps(sde.stack, x, 0.01, w)
        assert got.tobytes() == want.tobytes()


class TestLeanStep:
    """The step scales `stack @ x` in place and adds its rows in order, and
    `_sumsq` squares once and adds in place: both keep the bits of the
    expressions they replaced, at any magnitude and at inf and NaN, also on
    the one-path batches where `np.add.reduce` sums pairwise."""

    @staticmethod
    def _batches(rng, shape):
        """Entries spread over 1e-3..1e3, where the order of a sum shows in its
        bits, then over 1e-300..1e300 with a tenth of them inf, -inf, NaN or 0."""
        for spread in (3, 300):
            a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-spread, spread, shape)
            if spread == 300:
                flat = a.reshape(-1)
                spots = rng.choice(flat.size, size=max(1, flat.size // 10), replace=False)
                flat[spots] = rng.choice([math.inf, -math.inf, math.nan, 0.0], spots.size)
            yield a

    @staticmethod
    def _old_sumsq(x):
        return sum((x[..., i, :] ** 2 for i in range(1, x.shape[-2])), x[..., 0, :] ** 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_step_has_the_bits_of_the_ordered_sum(self, n):
        rng = np.random.default_rng(n)
        for b in (1, 2, 64):
            for m in (0, 1, 2, 8):
                for stack, x in zip(self._batches(rng, (m + 1, n, n)), self._batches(rng, (n, b))):
                    w = rng.normal(size=(1, m, b))
                    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                        u = stack @ x
                        step = 0.01 * u[0]
                        for j, w_kj in enumerate(w[0], 1):
                            step += u[j] * w_kj
                        want = x + step
                        (got,) = estimate._linear_steps(stack, x, 0.01, w)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (b, m)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_norm_has_the_bits_of_the_ordered_sum(self, n):
        rng = np.random.default_rng(100 + n)
        for shape in ((n, 1), (n, 2), (n, 64), (3, 2, n, 5)):
            for x in self._batches(rng, shape):
                with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                    want = np.sqrt(self._old_sumsq(x))
                    got = np.sqrt(estimate._sumsq(x))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), shape


class TestMapWorker:
    """Each linear kernel call joins its map worker before it returns."""

    KERNELS = {  # three and eight blocks per batch
        "ensemble": (lambda: run_ensemble(SYS3, X3, 2.0, 64, 5.0, 1e-3, seed=1), "_linear_steps"),
        "strong_error_sup": (lambda: strong_error_sup(GBM, [1.0], 4.0, (1, 2), 16, delta=2.0**-10), "_em_chunk"),
    }

    @pytest.mark.parametrize("kernel, step", KERNELS.values(), ids=KERNELS.keys())
    def test_raise_after_first_block_leaves_no_thread(self, monkeypatch, kernel, step):
        maps = [0]
        standard_normals = noise._standard_normals

        def counted(*args):
            maps[0] += 1
            return standard_normals(*args)

        def fail(*args):
            raise RuntimeError("stop in the first block")

        monkeypatch.setattr(noise, "_standard_normals", counted)
        monkeypatch.setattr(estimate, step, fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^stop in the first block$"):
            kernel()
        # the first block, and the second, which the worker was mapping
        assert maps[0] == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("kernel", [kernel for kernel, _ in KERNELS.values()], ids=KERNELS.keys())
    def test_completed_call_leaves_no_thread(self, kernel):
        before = threading.active_count()
        kernel()
        assert threading.active_count() == before
