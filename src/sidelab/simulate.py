"""Time-stepping engines: the explicit Euler-Maruyama scheme, the hybrid
impulsive integrator, the coupled exact/numerical integrator, and closed-form
oracles for scalar linear systems.

Every integrator here steps one trajectory on the caller's thread.  The
ensembles of `estimate` run their trajectories in index order: a linear one
steps them in vectorized batches while one worker thread maps the next block
of draws, and any other runs them one at a time.  Unstable regimes are
expected outputs of this tool, so overflow aborts the trajectory with the
step index instead of clamping.

A single path reads its Brownian and impulse draws by key, with
`noise.draws(seed, trajectory, stream, count, width)` and the system's noise
dimension as the width; no grid or width is passed that could contradict it.

The scheme, x of the coupled run and the stacked z = (x, y) of a
`SideSystem` take one explicit substep, `_substeps`; for a `LinearSde` it is
one batched product with `LinearSde.stack`, which rounds as the separate
F/G_j products do.  Batches of paths take the same product in
`estimate._linear_steps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import GridMismatch, NonFinite, StepsizeTooLarge
from .models import LinearSde, Sde, SideSystem, _as_vector
from .noise import _BROWNIAN_STREAM, _IMPULSE_STREAM, draws, fold

Driving = Literal["xi", "brownian"]

_TIME_RTOL = 1e-9

# plant samples per update interval of the scalar controller demo
_DEMO_SAMPLES = 16


@dataclass(frozen=True)
class DiscretePath:
    """One-step scheme iterates X_0 .. X_N at constant stepsize."""

    dt: float
    states: np.ndarray  # (N + 1, n)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) * self.dt


@dataclass(frozen=True)
class HybridTrajectory:
    """Right-continuous sampled path of a hybrid system.

    Impulse times appear twice: the left limit first (impulse_flag 0), the
    post-impulse value second (impulse_flag 1): the flagged rows are the
    impulses k = 1, 2, ... in order, each after its left-limit row.
    """

    times: np.ndarray          # (S,)
    x: np.ndarray              # (S, n), the first columns of one (S, n+q) state array
    y: np.ndarray              # (S, q), its last columns
    impulse_flag: np.ndarray   # (S,) 0/1

    @property
    def samples(self) -> int:
        return self.times.shape[0]

    def z(self) -> np.ndarray:
        return np.hstack([self.x, self.y])


@dataclass(frozen=True)
class CpsTrajectory:
    """Coupled trajectory plus the one-step iterates realizing x - y."""

    hybrid: HybridTrajectory
    cyber: DiscretePath


def euler_maruyama(sde: Sde, x0, dt: float, w) -> DiscretePath:
    """Explicit one-step path X_{k+1} = X_k + (f(X_k) dt + g(X_k) w_k).

    `w` holds the increments w_0 .. w_{N-1}, shape (N, m): sqrt(dt) xi(k+1)
    from the impulse stream in an ensemble, or the nested Brownian increments
    of the coupled run in `simulate_cps`.  Each step is `_substeps` at h = dt;
    a state that overflows raises NonFinite with the step index.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] != sde.noise_dim:
        raise ValueError(f"w must have shape (N, {sde.noise_dim}), got {w.shape}")
    states = np.empty((w.shape[0] + 1, sde.dim))
    states[0] = _as_vector(x0, sde.dim, "x0")
    try:
        _substeps(sde, states[0], 0.0, dt, w, states[1:], 0)
    except NonFinite as exc:
        raise NonFinite(f"state overflowed at step {exc.step}", step=exc.step) from None
    return DiscretePath(dt, states)


def whole_steps(T: float, dt: float) -> int:
    """The number of steps of size dt that make up the horizon T.

    Raises ValueError unless dt is positive and finite and T is a positive
    whole multiple of dt within a relative 1e-9.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    ratio = T / dt
    steps = int(round(ratio)) if math.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - T) > _TIME_RTOL * max(1.0, T):
        raise ValueError(f"horizon t={T!r} is not a whole number of steps dt={dt!r}")
    return steps


def _substeps(system: Sde | SideSystem, z, t_k, h, w, out, step: int) -> np.ndarray:
    """The explicit substep z + (h f(z, t) + g(z, t) @ w_j) from t_k, one per
    row of the increments `w`, for every single-path integrator.

    A `LinearSde` takes f and g, C-ordered and with the bits of its `drift`
    and `diffusion`, from one batched `stack @ z` (see `LinearSde`); any
    other system calls its evaluators.

    Writes each state into a row of `out` and returns the last; `step` is the
    global index of the substep before the first, reported by NonFinite.

    Finiteness is checked once, after the block: NonFinite names the first
    substep whose state overflowed.  Until then the evaluators may see
    non-finite states for the rest of the block, under the errstate below;
    an evaluator that raises on such a state also reports that NonFinite.
    """
    stack = system.stack if isinstance(system, LinearSde) else None
    written = out
    # overflow is reported by NonFinite below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for j in range(w.shape[0]):
                if stack is None:
                    t = t_k + j * h
                    f, g = system.drift(z, t), system.diffusion(z, t)
                else:
                    u = stack @ z
                    f, g = u[0], u[1:].T.copy()
                z = z + (h * f + g @ w[j])
                out[j] = z
        except Exception:
            written = out[:j]
            if np.isfinite(written).all():
                raise
    bad = np.flatnonzero(~np.isfinite(written).all(axis=1))
    if bad.size:
        first = step + int(bad[0]) + 1
        raise NonFinite(f"state overflowed at substep {first}", step=first)
    return z


def simulate_side(
    side: SideSystem,
    z0,
    inner_substeps: int,
    T: float,
    *,
    seed: int,
    trajectory: int = 0,
) -> HybridTrajectory:
    """Integrate a hybrid system on [0, T].

    Each impulse interval is covered by `inner_substeps` explicit substeps of
    the stacked flow dz = side.drift(z, t) dt + side.diffusion(z, t) dB; at
    every impulse time within the horizon the left limit is recorded, the
    jump z + side.jump(z, k) + side.jump_gain(z, k) xi(k) is applied, and the
    post value is recorded at the same time, flagged.

    The schedule is walked up to the horizon first, so the Brownian normals
    and the impulse draws of (seed, trajectory) are each read in one block.
    With m >= 2 noise dimensions the stacked (n+q) x m products may round in the
    last bit differently from separate x- and y-block products.
    """
    if inner_substeps < 1:
        raise ValueError("inner_substeps must be >= 1")
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    z = _as_vector(z0, side.dim, "z0")
    horizon_tol = _TIME_RTOL * max(1.0, T)
    knots = [side.schedule.time(0)]
    while knots[-1] < T - horizon_tol:
        knots.append(side.schedule.time(len(knots)))
        if not knots[-1] > knots[-2]:
            raise ValueError("impulse schedule is not strictly increasing")
    # only the last interval may end past the horizon, without its jump
    s, intervals = inner_substeps, len(knots) - 1
    jumps = intervals - (knots[-1] > T + horizon_tol)
    normals = draws(seed, trajectory, _BROWNIAN_STREAM, intervals * s, side.noise_dim)
    xis = draws(seed, trajectory, _IMPULSE_STREAM, jumps, side.noise_dim)

    states = np.empty((1 + intervals * s + jumps, side.dim))
    times = np.empty(states.shape[0])
    flags = np.zeros(states.shape[0], dtype=np.uint8)
    states[0], times[0] = z, 0.0
    for k in range(intervals):
        t_k, t_next = knots[k], knots[k + 1]
        end = min(t_next, T)
        h = (end - t_k) / s
        row = 1 + k * (s + 1)
        z = _substeps(side, z, t_k, h, math.sqrt(h) * normals[k * s : (k + 1) * s],
                      states[row : row + s], k * s)
        times[row : row + s] = t_k + np.arange(1, s + 1) * h
        times[row + s - 1] = end
        if k < jumps:
            with np.errstate(over="ignore", invalid="ignore"):
                z = z + side.jump(z, k + 1) + side.jump_gain(z, k + 1) @ xis[k]
            if not np.all(np.isfinite(z)):
                raise NonFinite(f"state overflowed at impulse {k + 1}", step=(k + 1) * s)
            states[row + s], times[row + s], flags[row + s] = z, t_next, 1

    return HybridTrajectory(times, states[:, : side.n], states[:, side.n :], flags)


def simulate_cps(
    sde: Sde,
    x0,
    dt: float,
    T: float,
    *,
    seed: int,
    inner_substeps: int = 32,
    impulse_driving: Driving = "xi",
) -> CpsTrajectory:
    """Integrate the coupled exact/numerical hybrid system on [0, T].

    x takes `inner_substeps` substeps of size h per interval [k dt, (k+1) dt),
    with the increments sqrt(h) times the Brownian normals of `seed`.  y starts
    at 0, and x(t) - y(t) is piecewise constant, equal to the one-step iterate
    X_k of `euler_maruyama`; y is derived through that identity, which is
    numerically exact.  T must be a whole number of impulse intervals.

    The scheme's increments are sqrt(dt) xi(k+1) by default, as in
    `simulate_side(make_cps(sde, dt), ..., seed=seed)`, the same system
    integrated block by block.  With impulse_driving="brownian" they are x's
    increments folded pairwise over each interval, so inner_substeps must be a power of two.
    """
    n_intervals = whole_steps(T, dt)
    if inner_substeps < 1:
        raise ValueError("inner_substeps must be >= 1")
    s = inner_substeps
    if impulse_driving not in ("xi", "brownian"):
        raise ValueError(f"unknown driving mode {impulse_driving!r}")
    if impulse_driving == "brownian" and s & (s - 1):
        raise GridMismatch("brownian impulse mode requires power-of-two inner_substeps")

    h = dt / s
    w = math.sqrt(h) * draws(seed, 0, _BROWNIAN_STREAM, n_intervals * s, sde.noise_dim)
    if impulse_driving == "xi":
        cyber_w = math.sqrt(dt) * draws(seed, 0, _IMPULSE_STREAM, n_intervals, sde.noise_dim)
    else:
        # s is a power of two, so no pair spans two intervals
        cyber_w = fold(w, s.bit_length() - 1)
    # the one-step recursion, bitwise identical to the standalone scheme
    cyber = euler_maruyama(sde, x0, dt, cyber_w)

    # rows: the start, then per interval s substeps and the post-impulse
    # sample, which repeats x and moves only y
    n = sde.dim
    states = np.empty((1 + n_intervals * (s + 1), 2 * n))
    x = states[0, :n] = _as_vector(x0, n, "x0")
    body = states[1:].reshape(n_intervals, s + 1, 2 * n)
    for k in range(n_intervals):
        x = _substeps(sde, x, k * dt, h, w[k * s : (k + 1) * s], body[k, :s, :n], k * s)
        body[k, s, :n] = x
    states[:, n:] = states[:, :n] - cyber.states[np.arange(states.shape[0]) // (s + 1)]

    # the last substep and the impulse both sit at (k + 1) dt exactly
    grid = (np.arange(n_intervals) * dt)[:, None] + np.arange(1, s + 2) * h
    grid[:, s - 1 :] = (np.arange(1, n_intervals + 1) * dt)[:, None]
    flags = np.zeros(states.shape[0], dtype=np.uint8)
    flags[s + 1 :: s + 1] = 1
    hybrid = HybridTrajectory(np.concatenate([[0.0], grid.ravel()]), states[:, :n], states[:, n:], flags)
    return CpsTrajectory(hybrid=hybrid, cyber=cyber)


def exact_gbm(lam: float, mu: float, x0: float, times, brownian) -> np.ndarray:
    """Closed-form scalar solution x(t) = x0 exp((lam - mu^2/2) t + mu B(t)).

    `times` and `brownian` are sampled on one Brownian grid and broadcast
    against each other: a (k, 1) column of times serves a (k, B) batch of
    Brownian paths with the bits of the repeated (k, B) grid, since every
    element takes the same operations.
    """
    t = np.asarray(times, dtype=float)
    b = np.asarray(brownian, dtype=float)
    return x0 * np.exp((lam - 0.5 * mu * mu) * t + mu * b)


@dataclass(frozen=True)
class ScalarCpsDemo:
    """Exact trajectory of the scalar controller loop and its checks.

    X_k = x0 factor^k and x(t_k + s) = X_k shape(s), so each check reads the
    one-step factor and the shape at the sample offsets, never the samples,
    which underflow to 0 at long horizons; each holds when x0 = 0.
    """

    times: np.ndarray
    x: np.ndarray
    cyber: np.ndarray  # X_0 .. X_K
    dt: float
    factor: float
    stepsize_bound: float
    strictly_decreasing: bool  # |factor| < 1
    decay_bound_ok: bool       # |factor| <= e^{-(k_p - a) dt}, to a relative 1e-12
    same_sign: bool            # factor > 0 and shape > 0 at every sample offset

    def __bool__(self) -> bool:
        return self.strictly_decreasing and self.decay_bound_ok and self.same_sign


def simulate_scalar_cps_demo(
    a: float,
    k_p: float,
    x0: float,
    dt: float,
    T: float,
) -> ScalarCpsDemo:
    """Unstable scalar plant xdot = a x stabilized by the sampled feedback
    u = -k_p X(t), with X held constant between updates.

    Integrates the piecewise-linear ODE exactly; the held state obeys
    X_{k+1} = (k_p/a - (k_p - a)/a * e^{a dt}) X_k and coincides with the
    plant state at the update times.  Requires finite a > 0, k_p > a and x0
    (else ValueError), dt < (1/a) ln(k_p / (k_p - a)) (else StepsizeTooLarge)
    and T a whole number of steps dt (`whole_steps`, else ValueError).
    """
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    if not a < k_p < math.inf:
        raise ValueError("k_p must be finite and exceed a")
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    bound = math.log(k_p / (k_p - a)) / a
    if dt >= bound:
        raise StepsizeTooLarge(
            f"dt={dt:.12g} is not below the admissible bound {bound:.12g}"
        )
    n_intervals = whole_steps(T, dt)
    factor = k_p / a - (k_p - a) / a * math.exp(a * dt)
    cyber = x0 * factor ** np.arange(n_intervals + 1)

    ratio = k_p / a
    offsets = np.linspace(0.0, dt, _DEMO_SAMPLES + 1)[1:]
    shape = ratio + (1.0 - ratio) * np.exp(a * offsets)  # x(t_k + s) / X_k
    times = np.concatenate([[0.0], ((np.arange(n_intervals) * dt)[:, None] + offsets).ravel()])
    xvals = np.concatenate([[x0], (cyber[:-1, None] * shape).ravel()])

    zero = x0 == 0.0
    return ScalarCpsDemo(
        times=times, x=xvals, cyber=cyber, dt=dt, factor=factor, stepsize_bound=bound,
        strictly_decreasing=zero or abs(factor) < 1.0,
        decay_bound_ok=zero or abs(factor) <= math.exp(-(k_p - a) * dt) * (1.0 + 1e-12),
        same_sign=zero or (factor > 0.0 and bool((shape > 0.0).all())),
    )


def trajectory_rows(traj: HybridTrajectory) -> tuple[list[str], list[list[float]]]:
    """Header and rows of the trajectory CSV schema.

    Columns: t, x_1..x_n, y_1..y_q, X_1..X_n (only when q == n, as x - y),
    impulse_flag.  One row per sample; impulse times appear twice.
    """
    n = traj.x.shape[1]
    q = traj.y.shape[1]
    header = ["t"] + [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(q)]
    with_view = q == n
    if with_view:
        header += [f"X_{i+1}" for i in range(n)]
    header.append("impulse_flag")
    view = [traj.x - traj.y] if with_view else []
    columns = [traj.times[:, None], traj.x, traj.y, *view, traj.impulse_flag[:, None]]
    return header, np.hstack(columns).tolist()
