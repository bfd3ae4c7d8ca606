"""Monte-Carlo estimation of moment and pathwise exponential rates, and the
strong-convergence order study of the explicit scheme.

Trajectories are simulated in fixed index order, vectorized over batches for
linear systems, with all draws taken from per-trajectory counter-based
streams, so every statistic is bitwise reproducible from (seed, parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import LinearSde, Sde, SideSystem
from .noise import NoisePlan
from .simulate import _driving_increments, euler_maruyama, exact_gbm, simulate_side

_WINDOW_MIN_POINTS = 10


def scalar_onestep_factor(lam: float, mu: float, dt: float) -> float:
    """Exact one-step mean-square amplification (1 + lam dt)^2 + mu^2 dt.

    The explicit scheme for the scalar system is mean-square stable iff this
    factor is below 1; it is the independent oracle for the discrete
    certificate.
    """
    return (1.0 + lam * dt) ** 2 + mu * mu * dt


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y = slope * x + intercept; returns (slope, intercept, stderr)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    if n > 2:
        resid = y - (slope * x + intercept)
        s2 = float(resid @ resid) / (n - 2)
        stderr = math.sqrt(s2 / sxx)
    else:
        stderr = float("nan")
    return slope, intercept, stderr


@dataclass(frozen=True)
class ExponentEstimate:
    """A fitted exponential rate with its regression evidence.

    `slope` is the estimated exponent (of ln E|z|^p against t for moment
    estimates, or the ensemble mean pathwise rate); trajectories sitting at
    exact zero contribute rate -inf and are counted separately instead of
    being averaged.
    """

    slope: float
    intercept: float
    window: tuple[float, float]
    stderr: float
    points: int
    zero_trajectories: int = 0

    def report(self) -> str:
        return (
            f"exponent: {self.slope:.12g}\n"
            f"stderr: {self.stderr:.12g}\n"
            f"window: [{self.window[0]:.12g}, {self.window[1]:.12g}]\n"
            f"points: {self.points}\n"
            f"zero trajectories: {self.zero_trajectories}"
        )


@dataclass
class Ensemble:
    """Shared-grid trajectory statistics: moment accumulators per time,
    per-trajectory sup and terminal summaries."""

    times: np.ndarray
    p: float
    trajectories: int
    moment_sum: np.ndarray      # sum over trajectories of |z(t_i)|^p
    sup_sq: np.ndarray          # per trajectory, sup_t |z(t)|^2
    terminal_log: np.ndarray    # per trajectory, ln|z(T)| (-inf at exact zero)

    def __post_init__(self):
        if self.trajectories < 2:
            raise ValueError("an ensemble needs at least 2 trajectories")

    def moment_mean(self) -> np.ndarray:
        return self.moment_sum / self.trajectories


def _noise_block(seed, trajs, m, dt, horizon, n_steps, driving) -> np.ndarray:
    """Per-step noise of trajectories `trajs`, each from its own plan: (B, n_steps, m)."""
    w = np.empty((len(trajs), n_steps, m))
    for row, traj in enumerate(trajs):
        w[row] = _driving_increments(NoisePlan(seed, traj, m, dt, horizon), dt, n_steps, driving)
    return w


def _linear_steps(f, gs, x, dt, w):
    """Explicit steps x + dt x F^T + sum_j (x Gj^T) w_j of a (B, n) batch
    under noise w of shape (B, N, m); yields the batch after each step."""
    for k in range(w.shape[1]):
        step = dt * (x @ f.T)
        for j, g in enumerate(gs):
            step = step + (x @ g.T) * w[:, k, j][:, None]
        x = x + step
        yield x


def _ensemble_linear(
    sde: LinearSde, x0, p, trajectories, T, dt, seed, driving, batch_size
) -> Ensemble:
    n, m = sde.dim, sde.noise_dim
    n_steps = int(round(T / dt))
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (n,))
    times = np.arange(n_steps + 1) * dt

    moment_sum = np.zeros(n_steps + 1)
    sup_sq = np.empty(trajectories)
    terminal_log = np.empty(trajectories)

    for start in range(0, trajectories, batch_size):
        idx = range(start, min(start + batch_size, trajectories))
        b = len(idx)
        w = _noise_block(seed, idx, m, dt, max(T, dt), n_steps, driving)
        x = np.tile(x0, (b, 1))
        nrm = np.linalg.norm(x, axis=1)
        moment_sum[0] += float(np.sum(nrm**p))
        batch_sup = nrm**2
        with np.errstate(over="ignore", invalid="ignore"):
            for k, x in enumerate(_linear_steps(sde.drift_matrix, sde.noise_matrices, x, dt, w), 1):
                nrm = np.linalg.norm(x, axis=1)
                moment_sum[k] += float(np.sum(nrm**p))
                np.maximum(batch_sup, nrm**2, out=batch_sup)
        sup_sq[start : start + b] = batch_sup
        with np.errstate(divide="ignore"):
            terminal_log[start : start + b] = np.log(nrm)

    return Ensemble(times, p, trajectories, moment_sum, sup_sq, terminal_log)


def _ensemble_looped(
    system, z0, p, trajectories, T, dt, seed, driving, inner_substeps
) -> Ensemble:
    times = None
    moment_sum = None
    sup_sq = np.empty(trajectories)
    terminal_log = np.empty(trajectories)
    for traj in range(trajectories):
        if isinstance(system, SideSystem):
            plan = NoisePlan(seed, traj, system.noise_dim, T, T)
            hybrid = simulate_side(system, z0, inner_substeps, T, plan)
            grid = hybrid.times
            states = hybrid.z()
        else:
            n_steps = int(round(T / dt))
            plan = NoisePlan(seed, traj, system.noise_dim, dt, max(T, dt))
            path = euler_maruyama(system, z0, dt, n_steps, plan, driving)
            grid = path.times
            states = path.states
        nrm = np.linalg.norm(states, axis=1)
        if times is None:
            times = grid
            moment_sum = np.zeros(grid.shape[0])
        moment_sum += nrm**p
        sup_sq[traj] = float(np.max(nrm**2))
        with np.errstate(divide="ignore"):
            terminal_log[traj] = float(np.log(nrm[-1]))
    return Ensemble(times, p, trajectories, moment_sum, sup_sq, terminal_log)


def run_ensemble(
    system: Sde | SideSystem,
    z0,
    p: float,
    trajectories: int,
    T: float,
    dt: float,
    *,
    seed: int = 0,
    driving: str = "xi",
    inner_substeps: int = 1,
    batch_size: int = 2048,
) -> Ensemble:
    """Simulate `trajectories` paths on a shared grid and accumulate their
    |z|^p statistics in fixed trajectory order."""
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories")
    if p <= 0:
        raise ValueError("p must be positive")
    if isinstance(system, LinearSde):
        return _ensemble_linear(system, z0, p, trajectories, T, dt, seed, driving, batch_size)
    return _ensemble_looped(system, z0, p, trajectories, T, dt, seed, driving, inner_substeps)


def fit_moment_window(
    ens: Ensemble, window: tuple[float, float] | None = None
) -> tuple[ExponentEstimate, np.ndarray, np.ndarray]:
    """Regress ln(mean moment) on the tail window; returns the fitted series too.

    The default window is the second half of the grid and must contain at
    least 10 points.  A window mean of exact zero makes the log undefined:
    the exponent is then reported as -inf with every trajectory flagged.
    """
    T = float(ens.times[-1])
    lo, hi = window if window is not None else (T / 2.0, T)
    if not lo < hi:
        raise ValueError("fit window must satisfy t_a < T")
    mask = (ens.times >= lo - 1e-12) & (ens.times <= hi + 1e-12)
    points = int(np.count_nonzero(mask))
    if points < _WINDOW_MIN_POINTS:
        raise ValueError(f"fit window holds {points} grid points, need >= {_WINDOW_MIN_POINTS}")
    times = ens.times[mask]
    mean = ens.moment_mean()[mask]
    if np.any(mean == 0.0):
        est = ExponentEstimate(float("-inf"), 0.0, (lo, hi), 0.0, points, ens.trajectories)
        with np.errstate(divide="ignore"):
            return est, times, np.log(mean)
    log_mean = np.log(mean)
    slope, intercept, stderr = _ols(times, log_mean)
    return ExponentEstimate(slope, intercept, (lo, hi), stderr, points), times, log_mean


def moment_exponent(
    system: Sde | SideSystem,
    z0,
    p: float,
    trajectories: int,
    T: float,
    dt: float,
    *,
    seed: int = 0,
    driving: str = "xi",
    window: tuple[float, float] | None = None,
    inner_substeps: int = 1,
    batch_size: int = 2048,
) -> ExponentEstimate:
    """Tail-window regression slope of ln(sample mean |z(t)|^p) against t.

    A clearly negative slope signals pth-moment exponential stability.
    """
    ens = run_ensemble(
        system, z0, p, trajectories, T, dt,
        seed=seed, driving=driving, inner_substeps=inner_substeps, batch_size=batch_size,
    )
    est, _, _ = fit_moment_window(ens, window)
    return est


def fit_pathwise(ens: Ensemble) -> ExponentEstimate:
    """Ensemble mean of the pathwise rate (1/T) ln |z(T)| with its standard error.

    T is the ensemble's final grid time.  Trajectories at exact zero are
    counted separately rather than averaged at -inf.
    """
    T = float(ens.times[-1])
    rates = ens.terminal_log / T
    finite = np.isfinite(rates)
    zeros = int(np.count_nonzero(~finite))
    if zeros == ens.trajectories:
        return ExponentEstimate(float("-inf"), 0.0, (0.0, T), 0.0, 0, zeros)
    vals = rates[finite]
    stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.shape[0])) if vals.shape[0] > 1 else float("nan")
    return ExponentEstimate(float(np.mean(vals)), 0.0, (0.0, T), stderr, int(vals.shape[0]), zeros)


def as_exponent(
    system: Sde | SideSystem,
    z0,
    trajectories: int,
    T: float,
    dt: float,
    *,
    seed: int = 0,
    driving: str = "xi",
    inner_substeps: int = 1,
    batch_size: int = 2048,
) -> ExponentEstimate:
    """Pathwise exponent (see `fit_pathwise`) of a simulated ensemble.

    For a system certified pth-moment stable this estimate must come out
    negative (moment stability implies pathwise stability).
    """
    return fit_pathwise(run_ensemble(
        system, z0, 2.0, trajectories, T, dt,
        seed=seed, driving=driving, inner_substeps=inner_substeps, batch_size=batch_size,
    ))


@dataclass(frozen=True)
class LevelError:
    """One grid level of a convergence study."""

    level: int
    dt: float
    error: float
    stderr: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-level sup-error estimates and the fitted log-log order."""

    records: tuple[LevelError, ...]
    slope: float
    intercept: float
    sup_state_sq: float  # empirical E sup_t |x(t)|^2 of the reference

    def csv_rows(self) -> tuple[list[str], list[list[float]]]:
        header = ["level", "dt", "error", "stderr"]
        rows = [[r.level, r.dt, r.error, r.stderr] for r in self.records]
        return header, rows


def _fold(inc: np.ndarray, level: int) -> np.ndarray:
    for _ in range(level):
        inc = inc[:, 0::2] + inc[:, 1::2]
    return inc


def _em_level_paths(f, gs, x0, dt, w) -> np.ndarray:
    """Vectorized explicit paths: w is (B, N, m); returns (B, N+1, n)."""
    b, n_steps, _ = w.shape
    out = np.empty((b, n_steps + 1, f.shape[0]))
    out[:, 0] = x0
    for k, x in enumerate(_linear_steps(f, gs, np.tile(x0, (b, 1)), dt, w), 1):
        out[:, k] = x
    return out


def strong_error_sup(
    sde: Sde,
    x0,
    T: float,
    levels,
    trajectories: int,
    *,
    delta: float,
    seed: int = 0,
    batch_size: int = 512,
) -> ConvergenceStudy:
    """Strong sup-error of the explicit scheme per nested grid level.

    For each level ell (stepsize delta * 2**ell on one shared finest Brownian
    skeleton, jumps driven by the Brownian increments), estimates
    E sup_{t <= T} |x(t) - X(t)|^2 against the closed-form solution for the
    scalar linear system, or against the finest-level path otherwise, and
    fits the log-log slope of error against stepsize.

    The sup is sampled on the plan's finest grid (level 0), so every scheme
    level must be coarser than it: otherwise the step process has no observed
    points inside its intervals and the dominant within-interval mismatch is
    invisible.  Use levels >= 1, i.e. pick delta at least one dyadic level
    below the smallest stepsize under study.
    """
    levels = sorted(set(int(l) for l in levels))
    if len(levels) < 2:
        raise ValueError("need at least two levels to fit an order")
    if min(levels) < 1:
        raise ValueError(
            "levels must be >= 1: level 0 is the observation grid of the sup"
        )
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories")
    if not isinstance(sde, LinearSde):
        raise ValueError("convergence studies support linear systems only")
    scalar_linear = sde.dim == 1 and sde.noise_dim <= 1

    n, m = sde.dim, sde.noise_dim
    f = sde.drift_matrix
    gs = sde.noise_matrices
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (n,))
    probe = NoisePlan(seed, 0, m, delta, T)
    n_fine = probe.finest_steps
    for level in levels:
        probe.level_steps(level)  # raises GridMismatch if not nested

    err_sum = {l: 0.0 for l in levels}
    err_sumsq = {l: 0.0 for l in levels}
    sup_ref_sum = 0.0

    for start in range(0, trajectories, batch_size):
        idx = range(start, min(start + batch_size, trajectories))
        b = len(idx)
        inc0 = _noise_block(seed, idx, m, delta, T, n_fine, "brownian")

        if scalar_linear:
            lam = float(f[0, 0])
            mu = float(gs[0][0, 0]) if m else 0.0
            times_f = np.arange(n_fine + 1) * delta
            b_path = np.zeros((b, n_fine + 1))
            if m:
                b_path[:, 1:] = np.cumsum(inc0[:, :, 0], axis=1)
            ref = exact_gbm(lam, mu, float(x0[0]), np.tile(times_f, (b, 1)), b_path)
            ref = ref[:, :, None]
        else:
            ref = _em_level_paths(f, gs, x0, delta, inc0)
        sup_ref_sum += float(np.sum(np.max(np.sum(ref**2, axis=2), axis=1)))

        for level in levels:
            stride = 1 << level
            dt_l = delta * stride
            w = _fold(inc0, level)
            path = _em_level_paths(f, gs, x0, dt_l, w)
            # right-continuous step extension on the fine grid
            fine = np.repeat(path[:, :-1], stride, axis=1)
            fine = np.concatenate([fine, path[:, -1:]], axis=1)
            err = np.max(np.sum((ref - fine) ** 2, axis=2), axis=1)
            err_sum[level] += float(np.sum(err))
            err_sumsq[level] += float(np.sum(err**2))

    records = []
    for level in levels:
        mean = err_sum[level] / trajectories
        var = max(err_sumsq[level] / trajectories - mean**2, 0.0)
        stderr = math.sqrt(var / trajectories)
        records.append(LevelError(level, delta * (1 << level), mean, stderr))

    fit = [(math.log(r.dt), math.log(r.error)) for r in records if r.error > 0.0]
    if len(fit) >= 2:
        slope, intercept, _ = _ols(np.array([a for a, _ in fit]), np.array([b for _, b in fit]))
    else:
        slope, intercept = float("nan"), float("nan")
    return ConvergenceStudy(tuple(records), slope, intercept, sup_ref_sum / trajectories)


def finite_time_second_moment_bound(x0_norm: float, lipschitz: float, T: float) -> float:
    """Coarse a-priori bound (1 + 3 |x0|^2) e^{3 L T (T + 4)} on E sup |x(t)|^2."""
    return (1.0 + 3.0 * x0_norm**2) * math.exp(3.0 * lipschitz * T * (T + 4.0))
