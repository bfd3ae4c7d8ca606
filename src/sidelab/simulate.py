"""Time-stepping engines: explicit and theta one-step schemes, the hybrid
impulsive integrator, the coupled exact/numerical integrator, and closed-form
oracles for scalar linear systems.

One trajectory is single-threaded; ensembles parallelize across trajectory
indices with no shared state (see `estimate`).  Unstable regimes are expected
outputs of this tool, so overflow aborts the trajectory with the step index
instead of clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import (
    ContractionViolated,
    GridMismatch,
    NoConvergence,
    NonFinite,
    OutOfRange,
    StepsizeTooLarge,
)
from .models import Sde, SideSystem, _as_vector
from .noise import NoisePlan

Driving = Literal["xi", "brownian"]

_TIME_RTOL = 1e-9


@dataclass(frozen=True)
class DiscretePath:
    """One-step scheme iterates X_0 .. X_N at constant stepsize."""

    dt: float
    states: np.ndarray  # (N + 1, n)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) * self.dt


@dataclass(frozen=True)
class ImpulseRecord:
    """One applied jump: index k, its time, and the (x, y) state around it."""

    k: int
    time: float
    pre: np.ndarray
    post: np.ndarray


@dataclass(frozen=True)
class HybridTrajectory:
    """Right-continuous sampled path of a hybrid system.

    Impulse times appear twice: the left limit first (impulse_flag 0), the
    post-impulse value second (impulse_flag 1).
    """

    times: np.ndarray          # (S,)
    x: np.ndarray              # (S, n)
    y: np.ndarray              # (S, q)
    impulse_flag: np.ndarray   # (S,) 0/1
    impulses: tuple[ImpulseRecord, ...]

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

    def cyber_at(self, t: float) -> np.ndarray:
        """Step-process view X(t) of the numerical iterates."""
        return step_process(self.cyber)(t)


def _driving_increments(plan: NoisePlan, dt: float, n_steps: int, driving: Driving) -> np.ndarray:
    """Per-step m-vector noise: sqrt(dt) * xi(k+1), or nested Brownian increments."""
    if driving == "xi":
        return math.sqrt(dt) * plan.xi_block(n_steps)
    if driving == "brownian":
        level = plan.level_for(dt)
        inc = plan.increments(level)
        if n_steps > inc.shape[0]:
            raise GridMismatch(
                f"{n_steps} steps of size {dt} exceed the plan horizon {plan.horizon}"
            )
        return inc[:n_steps]
    raise ValueError(f"unknown driving mode {driving!r}")


def euler_maruyama(
    sde: Sde,
    x0,
    dt: float,
    n_steps: int,
    plan: NoisePlan,
    driving: Driving = "xi",
) -> DiscretePath:
    """Explicit one-step path X_{k+1} = X_k + f(X_k) dt + g(X_k) w_k: the
    theta = 0 member of `theta_method`.

    The per-step noise w_k is sqrt(dt) xi(k+1) by default, or the nested
    Brownian increment of matching stepsize when driving="brownian".
    """
    return theta_method(sde, x0, dt, 0.0, n_steps, plan, driving)


def theta_method(
    sde: Sde,
    x0,
    dt: float,
    theta: float,
    n_steps: int,
    plan: NoisePlan,
    driving: Driving = "xi",
    tol: float = 1e-12,
    max_iter: int = 100,
) -> DiscretePath:
    """Drift-implicit family interpolating the explicit (theta=0) and fully
    implicit (theta=1) one-step schemes.

    Each step takes the explicit stage x + (1 - theta) dt f(x) + g(x) w; for
    theta > 0 the implicit stage is solved by fixed-point iteration, valid
    under the contraction condition theta * L * dt < 1.  An iteration that
    does not settle within `max_iter` steps, or whose iterate leaves the
    finite floats, raises NoConvergence; a state that overflows raises
    NonFinite with the step index.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if plan.noise_dim != sde.noise_dim:
        raise ValueError("plan noise dimension does not match the system")
    if theta > 0.0 and theta * sde.lipschitz * dt >= 1.0:
        raise ContractionViolated(
            f"theta * L * dt = {theta * sde.lipschitz * dt:.6g} >= 1; reduce the stepsize"
        )
    x = _as_vector(x0, sde.dim, "x0")
    w = _driving_increments(plan, dt, n_steps, driving)
    states = np.empty((n_steps + 1, sde.dim))
    states[0] = x
    # overflow is reported by NonFinite and NoConvergence below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = k * dt
            x = x + ((1.0 - theta) * dt) * sde.drift(x, t) + sde.diffusion(x, t) @ w[k]
            if theta > 0.0:
                explicit = x
                for _ in range(max_iter):
                    u = explicit + (theta * dt) * sde.drift(x, t + dt)
                    if not np.all(np.isfinite(u)):
                        raise NoConvergence(f"implicit stage diverged at step {k + 1}")
                    # max-abs norms cannot overflow for finite iterates, so a
                    # blown-up iterate can never pass the stopping test
                    change = np.abs(u - x).max(initial=0.0)
                    x = u
                    if change <= tol * (1.0 + np.abs(x).max(initial=0.0)):
                        break
                else:
                    raise NoConvergence(f"implicit stage did not converge at step {k + 1}")
            if not np.all(np.isfinite(x)):
                raise NonFinite(f"state overflowed at step {k + 1}", step=k + 1)
            states[k + 1] = x
    return DiscretePath(dt, states)


def step_process(path: DiscretePath) -> Callable[[float], np.ndarray]:
    """Right-continuous step extension X(t) = X_k on [k dt, (k+1) dt).

    Defined for t in [0, (N+1) dt); queries outside raise OutOfRange.
    """
    dt = path.dt
    n = path.steps

    def at(t: float) -> np.ndarray:
        if t < 0:
            raise OutOfRange(f"t={t!r} is below 0")
        k = int(math.floor(t / dt))
        # guard the floor against roundoff at grid points
        if (k + 1) * dt <= t:
            k += 1
        elif k * dt > t:
            k -= 1
        if k > n:
            raise OutOfRange(f"t={t!r} is beyond the path end {(n + 1) * dt!r}")
        return path.states[k]

    return at


def simulate_side(
    side: SideSystem,
    z0,
    inner_substeps: int,
    T: float,
    plan: NoisePlan,
) -> HybridTrajectory:
    """Integrate a hybrid system on [0, T].

    Each impulse interval is covered by `inner_substeps` explicit substeps of
    the continuous flow (both blocks driven by the same Brownian draws); at
    every impulse time within the horizon the left limit is recorded, the
    jump maps are applied with a fresh impulse draw, and the post value is
    recorded at the same time.
    """
    if inner_substeps < 1:
        raise ValueError("inner_substeps must be >= 1")
    if T <= 0:
        raise ValueError("T must be positive")
    if plan.noise_dim != side.noise_dim:
        raise ValueError("plan noise dimension does not match the system")
    z0 = _as_vector(z0, side.dim, "z0")
    x, y = z0[: side.n].copy(), z0[side.n :].copy()

    times = [0.0]
    xs = [x.copy()]
    ys = [y.copy()]
    flags = [0]
    impulses: list[ImpulseRecord] = []

    slot = 0
    step_index = 0
    k = 0
    t_k = side.schedule.time(0)
    horizon_tol = _TIME_RTOL * max(1.0, T)
    while t_k < T - horizon_tol:
        t_next = side.schedule.time(k + 1)
        if t_next <= t_k:
            raise ValueError("impulse schedule is not strictly increasing")
        end = min(t_next, T)
        h = (end - t_k) / inner_substeps
        draws = plan.standard_normals(slot + inner_substeps)[slot : slot + inner_substeps]
        slot += inner_substeps
        sqrt_h = math.sqrt(h)
        for j in range(inner_substeps):
            t = t_k + j * h
            w = sqrt_h * draws[j]
            dx = h * side.drift_x(x, t) + side.diffusion_x(x, t) @ w
            dy = h * side.drift_y(x, y, t) + side.diffusion_y(x, y, t) @ w
            x = x + dx
            y = y + dy
            step_index += 1
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise NonFinite(f"state overflowed at substep {step_index}", step=step_index)
            times.append(end if j == inner_substeps - 1 else t_k + (j + 1) * h)
            xs.append(x.copy())
            ys.append(y.copy())
            flags.append(0)
        if t_next <= T + horizon_tol:
            xi = plan.xi(k + 1)
            pre = np.concatenate([x, y])
            x = x + side.jumps.jump_x(x, k + 1) + side.jumps.jump_x_gain(x, k + 1) @ xi
            y = y + side.jumps.jump_y(pre[: side.n], pre[side.n :], k + 1) \
                + side.jumps.jump_y_gain(pre[: side.n], pre[side.n :], k + 1) @ xi
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise NonFinite(f"state overflowed at impulse {k + 1}", step=step_index)
            times.append(t_next)
            xs.append(x.copy())
            ys.append(y.copy())
            flags.append(1)
            impulses.append(ImpulseRecord(k + 1, t_next, pre, np.concatenate([x, y])))
        k += 1
        t_k = side.schedule.time(k)

    return HybridTrajectory(
        times=np.asarray(times),
        x=np.asarray(xs).reshape(len(times), side.n),
        y=np.asarray(ys).reshape(len(times), side.q),
        impulse_flag=np.asarray(flags, dtype=np.uint8),
        impulses=tuple(impulses),
    )


def simulate_cps(
    sde: Sde,
    x0,
    dt: float,
    T: float,
    plan: NoisePlan,
    inner_substeps: int = 32,
    impulse_driving: Driving = "xi",
) -> CpsTrajectory:
    """Integrate the coupled exact/numerical hybrid system on [0, T].

    x follows the SDE on a grid of `inner_substeps` substeps per interval
    [k dt, (k+1) dt); y starts at 0, and x(t) - y(t) is piecewise constant,
    equal to the one-step iterate X_k driven by the same impulse draws.

    y is derived through that identity, which is numerically exact; the same
    system integrated block by block is `simulate_side(make_cps(sde, dt), ...)`
    with xi-driven jumps.  With impulse_driving="brownian" the jump
    consumes the nested Brownian increment instead of sqrt(dt) xi(k+1), which
    requires the plan's finest grid to match the substep grid and
    inner_substeps to be a power of two.

    T must be a whole number of impulse intervals.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if inner_substeps < 1:
        raise ValueError("inner_substeps must be >= 1")
    n_intervals = int(round(T / dt))
    if n_intervals < 1 or abs(n_intervals * dt - T) > _TIME_RTOL * max(1.0, T):
        raise ValueError("T must be a whole number of impulse intervals k * dt")
    if plan.noise_dim != sde.noise_dim:
        raise ValueError("plan noise dimension does not match the system")

    h = dt / inner_substeps
    if impulse_driving == "brownian":
        if abs(h - plan.delta) > _TIME_RTOL * max(h, 1.0):
            raise GridMismatch(
                "brownian impulse mode requires the substep grid to equal the plan's finest grid"
            )
        if inner_substeps & (inner_substeps - 1):
            raise GridMismatch("brownian impulse mode requires power-of-two inner_substeps")

    # the one-step recursion, bitwise identical to the standalone scheme
    cyber = euler_maruyama(sde, x0, dt, n_intervals, plan, driving=impulse_driving)

    x = _as_vector(x0, sde.dim, "x0")
    y = np.zeros(sde.dim)
    times = [0.0]
    xs = [x.copy()]
    ys = [y.copy()]
    flags = [0]
    impulses: list[ImpulseRecord] = []
    sqrt_h = math.sqrt(h)
    draws = plan.standard_normals(n_intervals * inner_substeps)
    step_index = 0
    for k in range(n_intervals):
        t_k = k * dt
        for j in range(inner_substeps):
            t = t_k + j * h
            w = sqrt_h * draws[step_index]
            x = x + (h * sde.drift(x, t) + sde.diffusion(x, t) @ w)
            step_index += 1
            if not np.all(np.isfinite(x)):
                raise NonFinite(f"state overflowed at substep {step_index}", step=step_index)
            y = x - cyber.states[k]
            times.append((k + 1) * dt if j == inner_substeps - 1 else t_k + (j + 1) * h)
            xs.append(x.copy())
            ys.append(y.copy())
            flags.append(0)
        # jump of the difference block at t_{k+1}
        pre = np.concatenate([x, y])
        y = x - cyber.states[k + 1]
        times.append((k + 1) * dt)
        xs.append(x.copy())
        ys.append(y.copy())
        flags.append(1)
        impulses.append(ImpulseRecord(k + 1, (k + 1) * dt, pre, np.concatenate([x, y])))

    hybrid = HybridTrajectory(
        times=np.asarray(times),
        x=np.asarray(xs),
        y=np.asarray(ys),
        impulse_flag=np.asarray(flags, dtype=np.uint8),
        impulses=tuple(impulses),
    )
    return CpsTrajectory(hybrid=hybrid, cyber=cyber)


def exact_gbm(lam: float, mu: float, x0: float, times, brownian) -> np.ndarray:
    """Closed-form scalar solution x(t) = x0 exp((lam - mu^2/2) t + mu B(t)).

    `times` and `brownian` are matching arrays sampled on one Brownian grid.
    """
    t = np.asarray(times, dtype=float)
    b = np.asarray(brownian, dtype=float).reshape(t.shape)
    return x0 * np.exp((lam - 0.5 * mu * mu) * t + mu * b)


@dataclass(frozen=True)
class ScalarCpsVerdict:
    """Checks reported by the scalar controller demo."""

    strictly_decreasing: bool
    decay_bound_ok: bool
    same_sign: bool
    factor: float
    stepsize_bound: float

    def __bool__(self) -> bool:
        return self.strictly_decreasing and self.decay_bound_ok and self.same_sign


@dataclass(frozen=True)
class ScalarCpsDemo:
    """Exact trajectory of the scalar controller loop plus its verdict."""

    times: np.ndarray
    x: np.ndarray
    cyber: np.ndarray  # X_0 .. X_K
    dt: float
    verdict: ScalarCpsVerdict


def simulate_scalar_cps_demo(
    a: float,
    k_p: float,
    x0: float,
    dt: float,
    T: float,
    samples_per_interval: int = 16,
) -> ScalarCpsDemo:
    """Unstable scalar plant xdot = a x stabilized by the sampled feedback
    u = -k_p X(t), with X held constant between updates.

    Integrates the piecewise-linear ODE exactly; the held state obeys
    X_{k+1} = (k_p/a - (k_p - a)/a * e^{a dt}) X_k and coincides with the
    plant state at the update times.  Requires a > 0, k_p > a and
    dt < (1/a) ln(k_p / (k_p - a)); otherwise raises StepsizeTooLarge.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if k_p <= a:
        raise ValueError("k_p must exceed a")
    if dt <= 0 or T <= 0:
        raise ValueError("dt and T must be positive")
    bound = math.log(k_p / (k_p - a)) / a
    if dt >= bound:
        raise StepsizeTooLarge(
            f"dt={dt:.12g} is not below the admissible bound {bound:.12g}"
        )
    n_intervals = max(1, int(math.ceil(T / dt - _TIME_RTOL)))
    factor = k_p / a - (k_p - a) / a * math.exp(a * dt)
    cyber = x0 * factor ** np.arange(n_intervals + 1)

    ratio = k_p / a
    offsets = np.linspace(0.0, dt, samples_per_interval + 1)[1:]
    shape = ratio + (1.0 - ratio) * np.exp(a * offsets)  # x(t_k + s) / X_k
    times = [0.0]
    xvals = [x0]
    for k in range(n_intervals):
        times.extend(k * dt + offsets)
        xvals.extend(cyber[k] * shape)
    times = np.asarray(times)
    xvals = np.asarray(xvals)

    abs_cyber = np.abs(cyber)
    if x0 == 0.0:
        strictly_decreasing = True
        same_sign = True
        decay_ok = True
    else:
        strictly_decreasing = bool(np.all(abs_cyber[1:] < abs_cyber[:-1]))
        sign = math.copysign(1.0, x0)
        same_sign = bool(np.all(np.sign(cyber) == sign)) and bool(
            np.all(np.sign(xvals[times <= dt + _TIME_RTOL]) == sign)
        )
        decay_ok = abs(cyber[1]) <= abs(x0) * math.exp(-(k_p - a) * dt) * (1.0 + 1e-12)

    verdict = ScalarCpsVerdict(
        strictly_decreasing=strictly_decreasing,
        decay_bound_ok=decay_ok,
        same_sign=same_sign,
        factor=factor,
        stepsize_bound=bound,
    )
    return ScalarCpsDemo(times=times, x=xvals, cyber=cyber, dt=dt, verdict=verdict)


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
