import math

import numpy as np
import pytest

from sidelab.estimate import (
    as_exponent,
    finite_time_second_moment_bound,
    fit_moment_window,
    fit_pathwise,
    moment_exponent,
    run_ensemble,
    scalar_onestep_factor,
    strong_error_sup,
)
from sidelab.models import LinearSde, make_cps
from sidelab.stability import discrete_ms_stable, lyapunov_ito_feasible

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
        assert lyapunov_ito_feasible(gap).feasible is False

    def test_zero_start(self):
        est = as_exponent(GBM, [0.0], 64, 1.0, 0.01, seed=0)
        assert est.slope == -math.inf and est.zero_trajectories == 64

    def test_certified_stable_is_negative_at_three_sigma(self):
        for lam, mu, seed in ((-1.0, 0.5, 4), (-2.0, 1.0, 5), (-0.8, 0.3, 6)):
            sde = LinearSde.scalar(lam, mu)
            assert lyapunov_ito_feasible(sde).feasible
            est = as_exponent(sde, [1.0], 400, 4.0, 2e-3, seed=seed)
            assert est.slope + 3.0 * est.stderr < 0.0


    def test_fit_pathwise_ignores_moment_order(self):
        ens = run_ensemble(GBM, [1.0], 3.0, 50, 1.0, 0.01, seed=2)
        assert fit_pathwise(ens) == as_exponent(GBM, [1.0], 50, 1.0, 0.01, seed=2)


class TestEnsemble:
    def test_requires_two_trajectories(self):
        with pytest.raises(ValueError):
            run_ensemble(GBM, [1.0], 2.0, 1, 1.0, 0.1)

    def test_moment_window_fit_returns_series(self):
        ens = run_ensemble(GBM, [1.0], 2.0, 100, 2.0, 0.05, seed=2)
        est, times, log_mean = fit_moment_window(ens)
        assert times.shape == log_mean.shape
        assert times[0] >= 1.0 - 1e-12 and est.points == times.shape[0]

    def test_sup_bound_sanity(self):
        # empirical E sup |x|^2 sits far below the a-priori envelope
        ens = run_ensemble(GBM, [1.0], 2.0, 500, 1.0, 1.0 / 512, seed=7, driving="brownian")
        bound = finite_time_second_moment_bound(1.0, GBM.lipschitz, 1.0)
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

    def test_reproducible_bitwise(self):
        a = strong_error_sup(GBM, [1.0], 1.0, range(1, 5), 100, delta=2.0**-8, seed=5)
        b = strong_error_sup(GBM, [1.0], 1.0, range(1, 5), 100, delta=2.0**-8, seed=5)
        assert a == b

    def test_csv_rows(self):
        study = strong_error_sup(GBM, [1.0], 1.0, range(1, 5), 50, delta=2.0**-8, seed=5)
        header, rows = study.csv_rows()
        assert header == ["level", "dt", "error", "stderr"]
        assert len(rows) == 4
