"""Self-tests of the benchmark: seeded configs, oracles and span accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
import spans
import workloads


@pytest.mark.parametrize("name", workloads.NAMES)
def test_configs_from_a_seed_are_identical(name, tmp_path):
    def configs(seed):
        wl = workloads.build(name, seed, tmp_path)
        return [op.config.read_bytes() for op in wl.ops], [op.expect_exit for op in wl.ops]

    first = configs(7)
    assert configs(7) == first
    if name != "converge":  # converge varies only its [numeric] seed
        assert configs(8)[0][0] != first[0][0]
    else:
        assert configs(8) != first


def test_certify_family_shape(tmp_path):
    wl = workloads.build("certify", 3, tmp_path)
    unstable = [op for op in wl.ops if op.name.endswith("-u")]
    assert [op.expect_exit for op in unstable] == [1] * len(workloads.CERTIFY_STABLE)
    for op in wl.ops:
        if "bound" in op.check:
            assert 0.25 <= op.check["bound"] < 1.0 and op.expect_exit == 0


def test_certify_oracle_rejects_a_stepsize_one_percent_off():
    op = workloads.Op("s", Path("c.ini"), Path("o"), 0, {"bound": 0.4375, "tol": 1e-6})
    assert workloads.check_certify(op, 0.4375 + 0.9e-6) == []
    assert workloads.check_certify(op, 0.4375 * 1.01)
    assert workloads.check_certify(op, None)


def test_exact_stepsize_matches_the_scalar_closed_form():
    # Higham's bound -(2 lam + mu^2) / lam^2 for lam = -4, mu = 1
    assert oracles.exact_stepsize(np.array([[-4.0]]), [np.array([[1.0]])]) == pytest.approx(0.4375, rel=1e-14)
    assert oracles.ms_abscissa(np.array([[-1.0]]), [np.array([[1.5]])]) > 0


def _run_cli(config: Path) -> int:
    import sidelab

    with contextlib.redirect_stdout(io.StringIO()):
        return sidelab.cli.main(["--config", str(config)])


def test_cps_oracle_accepts_the_program_and_rejects_tampering(tmp_path):
    rng = np.random.default_rng(0)
    f, gs, x0 = workloads._small_system(rng)
    dt, intervals, substeps = 0.01, 20, 4
    outdir = tmp_path / "out"
    config = tmp_path / "cps.ini"
    workloads._write_config(
        config, workloads._linear_system(f, gs), "simulate",
        {"x0": " ".join(repr(float(v)) for v in x0), "dt": repr(dt), "t": repr(dt * intervals),
         "substeps": substeps, "seed": 5}, outdir)
    samples = intervals * (substeps + 1) + 1
    op = workloads.Op("cps", config, outdir, 0, dict(f=f, gs=gs, x0=x0, dt=dt, intervals=intervals,
                                                     samples=samples, seed=5))
    assert _run_cli(config) == 0
    assert workloads.check_outputs("cps-trace", op) == ([], {})

    rows = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=1)
    final = rows[-1, 1:4] - rows[-1, 4:7]
    assert workloads.check_cps(op, samples, rows, final) == []
    assert workloads.check_cps(op, samples - 1, rows[:-1], final)  # a sample count one short
    bent = rows.copy()
    bent[-1, 1] += 1e-9
    assert workloads.check_cps(op, samples, bent, final)


def test_philox_oracle_matches_the_program_draws():
    from sidelab.noise import NoisePlan

    plan = NoisePlan(11, 3, 2, 0.01, 1.0)
    assert np.array_equal(plan.xi_block(100), oracles.philox_normals(11, 3, 1, 100, 2))
    assert np.array_equal(plan.standard_normals(100), oracles.philox_normals(11, 3, 0, 100, 2))


def test_moment_oracle_matches_the_scalar_closed_form():
    lam, mu, dt = -2.0, 0.8, 0.01
    exact, sd = oracles.moment_slope(np.array([[lam]]), [np.array([[mu]])], np.array([1.0]), dt,
                                     np.arange(50, 101), 1000)
    assert exact == pytest.approx(math.log((1 + lam * dt) ** 2 + mu * mu * dt) / dt, rel=1e-10)
    assert sd > 0


def test_moment_oracle_spread_matches_repeated_ensembles():
    """The delta-method sd of the fitted slope agrees with the spread of the
    slope over independent simulated ensembles."""
    rng = np.random.default_rng(1)
    f, gs, x0 = workloads._small_system(rng)
    dt, steps, paths, ensembles = 0.01, 100, 500, 200
    window = np.arange(steps // 2, steps + 1)
    exact, sd = oracles.moment_slope(f, gs, x0, dt, window, paths)

    x = np.tile(x0, (ensembles * paths, 1))
    moments = np.empty((steps + 1, ensembles))
    moments[0] = 1.0
    for k in range(steps):
        w = math.sqrt(dt) * rng.standard_normal((x.shape[0], len(gs)))
        x = x + dt * x @ f.T + sum(w[:, [j]] * (x @ g.T) for j, g in enumerate(gs))
        moments[k + 1] = np.mean(np.sum(x * x, axis=1).reshape(ensembles, paths), axis=1)
    slopes = np.array([oracles.ols_slope(window * dt, np.log(moments[window, e]))[0] for e in range(ensembles)])
    assert abs(np.mean(slopes) - exact) < 4 * sd / math.sqrt(ensembles) + 0.05 * sd
    assert 0.8 < np.std(slopes, ddof=1) / sd < 1.25


def test_ensemble_oracle_rejects_a_wrong_slope():
    rng = np.random.default_rng(2)
    f, gs, x0 = workloads._small_system(rng)
    dt, trajectories = 1e-3, 4096
    t = np.arange(1000, 2001) * dt
    exact, sd = oracles.moment_slope(f, gs, x0, dt, np.arange(1000, 2001), trajectories)
    op = workloads.Op("e", Path("c.ini"), Path("o"), 0, dict(f=f, gs=gs, x0=x0, dt=dt, trajectories=trajectories))
    log_mean = exact * t
    assert workloads.check_ensemble(op, exact, -1.0, t, log_mean) == []
    wrong = exact + 6 * sd
    assert workloads.check_ensemble(op, wrong, -1.0, t, wrong * t)
    assert workloads.check_ensemble(op, exact, 0.1, t, log_mean)       # pathwise not negative
    assert workloads.check_ensemble(op, exact, -1.0, t, 1.01 * log_mean)  # csv disagrees with report


def test_converge_oracle_band():
    op = workloads.Op("c", Path("c.ini"), Path("o"), 0, {"levels": 8})
    assert workloads.check_converge(op, 1.0, 8) == []
    assert workloads.check_converge(op, 0.79, 8)
    assert workloads.check_converge(op, 1.0, 7)


def test_self_times_of_nested_spans_add_up_to_the_root():
    # root [0, 10] holds a [1, 4] (which holds [2, 3]) and b [5, 9]
    trace = [
        ("root", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 4.0, 0, 0, 0),
        ("a.inner", 2.0, 3.0, 1, 0, 0),
        ("b", 5.0, 9.0, 0, 0, 0),
    ]
    own = spans.self_times(trace)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == 10.0


def test_recorder_nests_spans_by_call():
    rec = spans.Recorder()

    def leaf():
        return np.zeros(3)

    traced_leaf = rec.wrap("leaf", leaf)
    traced_root = rec.wrap("root", lambda: [traced_leaf() for _ in range(3)])
    traced_root()
    assert [(s[0], s[3]) for s in rec.spans] == [("root", -1), ("leaf", 0), ("leaf", 0), ("leaf", 0)]
    own = spans.self_times(rec.spans)
    assert sum(own) == pytest.approx(rec.spans[0][2] - rec.spans[0][1], abs=1e-12)


def test_calibration_divides_each_pass_by_the_slowdown_around_it():
    import hostspeed

    nominal = list(hostspeed.NOMINAL_S)
    assert hostspeed.slowdown(nominal) == pytest.approx(1.0)
    probes = [nominal, [2.0 * t for t in nominal], nominal]
    # each pass ran between probes at 1x and 2x nominal time: a host 1.5x slow
    assert hostspeed.calibrated([3.0, 3.0], probes) == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError):
        hostspeed.calibrated([3.0, 3.0], probes[:2])
