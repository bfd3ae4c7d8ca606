"""Monte-Carlo estimation of moment and pathwise exponential rates, and the
strong-convergence order study of the explicit scheme.

Trajectories are simulated in fixed index order, vectorized over batches for
linear systems, with all draws from per-trajectory counter-based streams, so
every statistic is bitwise reproducible from (seed, parameters).  Batches are
time-major: (n, B) states, (steps, m, B) draws, (steps + 1, n, B) chunk paths.

Both linear kernels, the moment ensemble and the convergence study, stream each
batch over blocks of time from `noise.normal_blocks`, whose length the one
rule `noise.block_slots` sets, so memory is O(batch * block) at any horizon.
Batch sizes fix the summation order; block lengths enter no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonFinite
from .models import LinearSde, Sde, SideSystem, _as_vector
from .noise import _BROWNIAN_STREAM, _IMPULSE_STREAM, block_slots, draws, fold, normal_blocks
from .simulate import euler_maruyama, exact_gbm, simulate_side, whole_steps

_WINDOW_MIN_POINTS = 10

# Trajectories per vectorized batch.  A batch is summed as one block, so these
# sizes fix the summation order: changing them changes results in the last bits.
_ENSEMBLE_BATCH = 2048
_SUP_BATCH = 512


def scalar_onestep_factor(lam: float, mu: float, dt: float) -> float:
    """Exact one-step mean-square amplification (1 + lam dt)^2 + mu^2 dt.

    The explicit scheme for the scalar system is mean-square stable iff this
    factor is below 1; it is the independent oracle for the discrete
    certificate.
    """
    return (1.0 + lam * dt) ** 2 + mu * mu * dt


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least squares y = slope * x + intercept; returns (slope, stderr)."""
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
    return slope, stderr


@dataclass(frozen=True)
class ExponentEstimate:
    """A fitted exponential rate with its regression evidence.

    `slope` is the estimated exponent (of ln E|z|^p against t for moment
    estimates, or the ensemble mean pathwise rate); trajectories sitting at
    exact zero contribute rate -inf and are counted separately instead of
    being averaged.  A pathwise estimate with a diverged trajectory has
    slope +inf and stderr NaN, and `points` counts only the finite rates.
    """

    slope: float
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
    trajectories: int
    moment_sum: np.ndarray      # sum over trajectories of |z(t_i)|^p
    sup_sq: np.ndarray          # per trajectory, sup_t |z(t)|^2
    terminal_log: np.ndarray    # per trajectory, ln|z(T)| (-inf at exact zero)

    def __post_init__(self):
        if self.trajectories < 2:
            raise ValueError("an ensemble needs at least 2 trajectories")

    def moment_mean(self) -> np.ndarray:
        return self.moment_sum / self.trajectories

    @property
    def diverged(self) -> int:
        """Trajectories whose sup |z|^2 is not finite (overflowed or NaN).
        Only a `LinearSde` ensemble can count one: `run_ensemble` of any other
        system raises NonFinite at its first overflowing path instead."""
        return int(np.count_nonzero(~np.isfinite(self.sup_sq)))


def _linear_steps(stack, x, dt, w):
    """Explicit steps x + dt F x + sum_j (Gj x) w_j of an (n, B) batch under
    noise w of shape (N, m, B); yields the batch after each step.  One
    `stack @ x` per step, with `stack` the 3-d `LinearSde.stack`, gives every
    F x and Gj x with the bits of the separate products; the row-stacked
    matrix does not on a one-path batch (see `LinearSde`).  The products are
    scaled in place and added in order (see `_sumsq`)."""
    for w_k in w:
        u = stack @ x
        u[0] *= dt
        u[1:] *= w_k[:, None, :]
        step = u[0]
        for u_j in u[1:]:
            step += u_j
        x = x + step
        yield x


def _sumsq(x):
    """Squared norms over the coordinate axis -2 of a (..., n, B) batch,
    summed in coordinate order.  Not `np.add.reduce`: where the other axes
    hold one element, it sums pairwise from eight terms on."""
    sq = np.square(x)
    total = sq[..., 0, :]
    for i in range(1, x.shape[-2]):
        total += sq[..., i, :]
    return total


def _ensemble_linear(sde: LinearSde, x0, p, trajectories, T, dt, seed) -> Ensemble:
    n, m = sde.dim, sde.noise_dim
    n_steps = whole_steps(T, dt)
    x0 = _as_vector(x0, n, "x0")
    times = np.arange(n_steps + 1) * dt

    moment_sum = np.zeros(n_steps + 1)
    sup_sq = np.empty(trajectories)
    terminal_log = np.empty(trajectories)

    for start in range(0, trajectories, _ENSEMBLE_BATCH):
        b = min(_ENSEMBLE_BATCH, trajectories - start)
        x = np.repeat(x0[:, None], b, axis=1)
        norms = np.empty((block_slots(m, b), b))  # row k: the norms after step s + k + 1
        s = 0
        with np.errstate(over="ignore", invalid="ignore"):
            nrm = np.sqrt(_sumsq(x))
            moment_sum[0] += float(np.sum(nrm**p))
            batch_sup = nrm**2
            for w in normal_blocks(seed, _IMPULSE_STREAM, range(start, start + b), n_steps, m, math.sqrt(dt)):
                c = w.shape[0]
                for k, x in enumerate(_linear_steps(sde.stack, x, dt, w)):
                    np.sqrt(_sumsq(x), out=norms[k])
                moment_sum[s + 1 : s + c + 1] += np.sum(norms[:c] ** p, axis=1)
                np.maximum(batch_sup, np.max(norms[:c] ** 2, axis=0), out=batch_sup)
                s += c
        sup_sq[start : start + b] = batch_sup
        with np.errstate(divide="ignore"):
            terminal_log[start : start + b] = np.log(norms[c - 1])

    return Ensemble(times, trajectories, moment_sum, sup_sq, terminal_log)


def _ensemble_looped(system, z0, p, trajectories, T, dt, seed, inner_substeps) -> Ensemble:
    # path(traj) -> (grid, states) of one trajectory; a hybrid run takes its grid from the schedule
    if isinstance(system, SideSystem):
        def path(traj):
            hybrid = simulate_side(system, z0, inner_substeps, T, seed=seed, trajectory=traj)
            return hybrid.times, hybrid.z()
    else:
        n_steps = whole_steps(T, dt)

        def path(traj):
            xi = draws(seed, traj, _IMPULSE_STREAM, n_steps, system.noise_dim)
            em = euler_maruyama(system, z0, dt, math.sqrt(dt) * xi)
            return em.times, em.states

    moment_sum = 0.0  # the first trajectory's moments make it an array on the grid
    sup_sq = np.empty(trajectories)
    terminal_log = np.empty(trajectories)
    for traj in range(trajectories):
        try:
            times, states = path(traj)
        except NonFinite as err:
            raise NonFinite(f"trajectory {traj}: {err}", step=err.step) from err
        nrm = np.linalg.norm(states, axis=1)
        with np.errstate(over="ignore", divide="ignore"):
            moment_sum += nrm**p
            sup_sq[traj] = float(np.max(nrm**2))
            terminal_log[traj] = float(np.log(nrm[-1]))
    return Ensemble(times, trajectories, moment_sum, sup_sq, terminal_log)


def run_ensemble(
    system: Sde | SideSystem,
    z0,
    p: float,
    trajectories: int,
    T: float,
    dt: float,
    *,
    seed: int = 0,
    inner_substeps: int = 1,
) -> Ensemble:
    """Simulate `trajectories` paths on a shared grid and accumulate their
    |z|^p statistics in fixed trajectory order.  The scheme of an SDE steps
    at `dt` with the increments sqrt(dt) xi(k+1) of each trajectory's impulse
    stream.  A hybrid system takes its grid from its impulse schedule, not
    from `dt`, with `inner_substeps` substeps per interval.  Both are checked
    for every system, also where the path does not read them.

    A `LinearSde` runs its paths in batches and counts a path that overflows
    in `Ensemble.diverged`.  Any other system runs one path at a time, and
    the first path that overflows raises NonFinite with the integrator's
    message prefixed by "trajectory <index>: " and the step of the overflow.
    """
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories")
    if not p > 0:
        raise ValueError("p must be positive")
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if inner_substeps < 1:
        raise ValueError("inner_substeps must be >= 1")
    if isinstance(system, LinearSde):
        return _ensemble_linear(system, z0, p, trajectories, T, dt, seed)
    return _ensemble_looped(system, z0, p, trajectories, T, dt, seed, inner_substeps)


def fit_moment_window(ens: Ensemble) -> tuple[ExponentEstimate, np.ndarray, np.ndarray]:
    """Regress ln(mean moment) on the tail window; returns the fitted series too.

    The window is the second half of the grid and must contain at least 10
    points.  A window mean of exact zero makes the log undefined:
    the exponent is then reported as -inf with every trajectory flagged.
    """
    T = float(ens.times[-1])
    if not T > 0:
        raise ValueError("fit window needs a positive final grid time")
    lo, hi = T / 2.0, T
    mask = (ens.times >= lo - 1e-12) & (ens.times <= hi + 1e-12)
    points = int(np.count_nonzero(mask))
    if points < _WINDOW_MIN_POINTS:
        raise ValueError(f"fit window holds {points} grid points, need >= {_WINDOW_MIN_POINTS}")
    times = ens.times[mask]
    mean = ens.moment_mean()[mask]
    if np.any(mean == 0.0):
        est = ExponentEstimate(float("-inf"), (lo, hi), 0.0, points, ens.trajectories)
        with np.errstate(divide="ignore"):
            return est, times, np.log(mean)
    log_mean = np.log(mean)
    with np.errstate(invalid="ignore"):  # an overflowed moment leaves log_mean inf, and the fit NaN
        slope, stderr = _ols(times, log_mean)
    return ExponentEstimate(slope, (lo, hi), stderr, points), times, log_mean


def moment_exponent(
    system: Sde | SideSystem, z0, p: float, trajectories: int, T: float, dt: float, **options
) -> ExponentEstimate:
    """Tail-window regression slope of ln(sample mean |z(t)|^p) against t.

    A clearly negative slope signals pth-moment exponential stability.
    `options` are the keyword options of `run_ensemble`.
    """
    return fit_moment_window(run_ensemble(system, z0, p, trajectories, T, dt, **options))[0]


def fit_pathwise(ens: Ensemble) -> ExponentEstimate:
    """Ensemble mean of the pathwise rate (1/T) ln |z(T)| with its standard error.

    T is the ensemble's final grid time.  Trajectories at exact zero are
    counted separately rather than averaged at -inf.  A diverged trajectory
    (terminal log NaN or +inf) makes the exponent +inf with a NaN stderr;
    `points` then counts the finite rates.
    """
    T = float(ens.times[-1])
    rates = ens.terminal_log / T
    vals = rates[np.isfinite(rates)]
    zeros = int(np.count_nonzero(rates == -np.inf))
    if zeros == ens.trajectories:
        return ExponentEstimate(float("-inf"), (0.0, T), 0.0, 0, zeros)
    if vals.shape[0] + zeros < ens.trajectories:
        return ExponentEstimate(float("inf"), (0.0, T), float("nan"), int(vals.shape[0]), zeros)
    stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.shape[0])) if vals.shape[0] > 1 else float("nan")
    return ExponentEstimate(float(np.mean(vals)), (0.0, T), stderr, int(vals.shape[0]), zeros)


def as_exponent(
    system: Sde | SideSystem, z0, trajectories: int, T: float, dt: float, **options
) -> ExponentEstimate:
    """Pathwise exponent (see `fit_pathwise`) of a simulated ensemble.

    For a system certified pth-moment stable this estimate must come out
    negative (moment stability implies pathwise stability).  `options` are
    the keyword options of `run_ensemble`.
    """
    return fit_pathwise(run_ensemble(system, z0, 2.0, trajectories, T, dt, **options))


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

    def csv_rows(self) -> tuple[list[str], list[np.ndarray]]:
        """Header and columns of errors.csv: one column per LevelError field."""
        header = ["level", "dt", "error", "stderr"]
        return header, [np.array([getattr(r, name) for r in self.records]) for name in header]


def _em_chunk(stack, x, dt, w) -> tuple[np.ndarray, np.ndarray]:
    """Explicit steps of an (n, B) batch from x under noise w of shape
    (N, m, B), N >= 1: returns the (N+1, n, B) states, x first, and the last
    state as stepped, to start the next chunk from."""
    out = np.empty((w.shape[0] + 1,) + x.shape)
    out[0] = x
    for k, x in enumerate(_linear_steps(stack, x, dt, w), 1):
        out[k] = x
    return out, x


@np.errstate(over="ignore", invalid="ignore")
def strong_error_sup(
    sde: Sde,
    x0,
    T: float,
    levels,
    trajectories: int,
    *,
    delta: float,
    seed: int = 0,
) -> ConvergenceStudy:
    """Strong sup-error of the explicit scheme per nested grid level.

    For each level ell (stepsize delta * 2**ell on one shared finest Brownian
    skeleton, jumps driven by the Brownian increments), estimates
    E sup_{t <= T} |x(t) - X(t)|^2 against the closed-form solution for the
    scalar linear system, or against the finest-level path otherwise, and
    fits the log-log slope of error against stepsize.

    The sup is sampled on the finest grid (level 0), so every scheme level
    must be coarser than it: otherwise the step process has no observed points
    inside its intervals and the dominant within-interval mismatch is
    invisible.  Use levels >= 1, i.e. pick delta at least one dyadic level
    below the smallest stepsize under study.

    The finest grid is walked in the blocks of `noise.normal_blocks`, chunks
    of `noise.block_slots(m, batch)` steps, carrying per trajectory only the
    last state of each level and of the reference, the running sup errors,
    and for the levels coarser than a chunk the open pairwise sums of their
    increments, one row per height.  A chunk is a power of two of at most
    512 steps, so memory is O(_SUP_BATCH * (512 + levels) * (n + m)),
    whatever the horizon and the coarsest stride.  The chunk size changes no
    bit of the result: maxima do not depend on order, the sums keep their
    `_SUP_BATCH` grouping, the Brownian partial sum and the level states are
    carried across chunks in sequence, and a coarse increment is the pairwise
    tree of `noise.fold` whether it spans one chunk or several.

    Within a chunk, each level's path value p holds over a block of `stride`
    reference values r, or across the chunk for a level coarser than it.
    For n > 1 the error |r - p|^2, summed in coordinate order, is computed at
    every r of the block.  For n = 1 (also a 1-d system with several noises, whose
    reference is the fine explicit path) only the block's largest and smallest
    r are compared: r -> fl(r - p) is monotone and x -> fl(x^2) is monotone in
    |x|, so the largest rounded square of the block is reached at one of them,
    with the same bits.  The extremes are pairwise maxima and minima,
    coarsened level by level beside the Brownian increments, so a NaN or an
    infinity in a block reaches the sup as it would through every r.  Only the
    sign bit of a NaN error was seen to differ, in a one-trajectory batch:
    numpy's max reduction sets it by the length it reduces, and no output
    shows it.
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
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if not isinstance(sde, LinearSde):
        raise ValueError("convergence studies support linear systems only")
    scalar = sde.scalar_coefficients  # (lam, mu) of the closed-form reference

    n, m = sde.dim, sde.noise_dim
    x0 = _as_vector(x0, n, "x0")
    n_fine = whole_steps(T, delta)
    coarsest = 1 << levels[-1]
    if n_fine % coarsest:
        raise GridMismatch(f"level {levels[-1]} stepsize does not divide the horizon: "
                           f"{n_fine} finest steps are not a multiple of {coarsest}")

    err_sum = {l: 0.0 for l in levels}
    err_sumsq = {l: 0.0 for l in levels}

    for start in range(0, trajectories, _SUP_BATCH):
        idx = range(start, min(start + _SUP_BATCH, trajectories))
        b = len(idx)
        chunk = block_slots(m, b)
        top = chunk.bit_length() - 1  # chunks of 2**top finest steps
        # the states a chunk starts from: reference, each level, and the
        # Brownian value in row 0 of `brownian`
        ref_x = np.repeat(x0[:, None], b, axis=1)
        brownian = np.zeros((chunk + 1, b))
        xs = dict.fromkeys(levels, ref_x)
        err = {l: np.zeros(b) for l in levels}
        pending = {}  # height above a chunk -> the left half of an open pairwise sum

        s = 0
        for inc in normal_blocks(seed, _BROWNIAN_STREAM, idx, n_fine, m, math.sqrt(delta)):
            c = inc.shape[0]
            # ref holds fine indices s .. s + c, both ends included
            if scalar:
                # the carried sum in front, then sequential additions a row at a time
                b_path = brownian[: c + 1]
                b_path[1:] = inc[:, 0] if m else 0.0
                np.cumsum(b_path, axis=0, out=b_path)
                times = np.arange(s, s + c + 1)[:, None] * delta
                ref = exact_gbm(*scalar, float(x0[0]), times, b_path)[:, None]
                brownian[0] = b_path[-1]
            else:
                ref, ref_x = _em_chunk(sde.stack, ref_x, delta, inc)
            # one coordinate: the reference's extremes over each level's stride blocks
            hi = lo = ref[:-1, 0]

            w, folded = inc, 0
            for level in levels:
                # a level coarser than the chunk holds one value across it
                height = min(level, top)
                w = fold(w, height - folded)
                if level <= top:
                    path, xs[level] = _em_chunk(sde.stack, xs[level], delta * (1 << level), w)
                    held = path[:-1]
                else:
                    held = xs[level][None]
                # right-continuous step extension: fine index i sees level index i // stride
                if n == 1:
                    for _ in range(height - folded):
                        hi, lo = np.maximum(hi[0::2], hi[1::2]), np.minimum(lo[0::2], lo[1::2])
                    sq, sq_lo = hi - held[:, 0], lo - held[:, 0]
                    sq *= sq
                    sq_lo *= sq_lo
                    np.maximum(sq, sq_lo, out=sq)
                else:
                    sq = _sumsq(ref[:-1].reshape(-1, 1 << height, n, b) - held[:, None]).reshape(-1, b)
                np.maximum(err[level], np.max(sq, axis=0), out=err[level])
                folded = height
            if levels[-1] > top:
                # the chunk's increment, one row, joins the pairwise tree above
                # the chunk; each completed sum at a level's height steps it
                height = top
                while height in pending:
                    w, height = pending.pop(height) + w, height + 1
                    if height in xs:
                        xs[height] = _em_chunk(sde.stack, xs[height], delta * (1 << height), w)[1]
                if height < levels[-1]:
                    pending[height] = w.copy()  # w may be the noise block itself
            s += c

        for level in levels:
            np.maximum(err[level], _sumsq(ref[-1] - xs[level]), out=err[level])
            err_sum[level] += np.sum(err[level])
            err_sumsq[level] += np.sum(err[level] ** 2)

    # float64 sums, so `mean**2` above ~1e154 gives inf (stderr NaN) where a float's ** raises
    records = []
    for level in levels:
        mean = err_sum[level] / trajectories
        var = max(err_sumsq[level] / trajectories - mean**2, 0.0)
        stderr = math.sqrt(var / trajectories)
        records.append(LevelError(level, delta * (1 << level), float(mean), stderr))

    fit = [(math.log(r.dt), math.log(r.error)) for r in records if r.error > 0.0]
    slope = _ols(*zip(*fit))[0] if len(fit) >= 2 else float("nan")
    return ConvergenceStudy(tuple(records), slope)

