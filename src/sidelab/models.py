"""System descriptions: linear and general SDEs, impulse schedules, impulsive
hybrid systems, and the construction coupling an SDE with its explicit
discretization into one hybrid (cyber-physical) system.

All descriptions are immutable after construction and safe to share across
threads.  User-supplied evaluators must be pure and reentrant and vanish at
the origin, which `VectorFieldSde` and `SideSystem` probe at construction;
`stability.quadratic_condition_constants` checks the declared impulse gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NotLinear, ValidationFailed
from .matrix_kernels import as_square

_LINEARITY_RTOL = 1e-8
_FLOAT64 = np.dtype(np.float64)


def _check_origin(name: str, value) -> None:
    """Raise ValidationFailed unless `value`, a map's value at the origin, is zero."""
    norm = float(np.abs(np.asarray(value, dtype=float)).max(initial=0.0))
    if norm != 0.0:
        raise ValidationFailed(f"{name}(0) = {norm:.6g} != 0: origin is not an equilibrium")


def _as_vector(x, dim: int, name: str = "x") -> np.ndarray:
    # a native float64 vector of the right length is returned as is: the
    # conversion below would return this same object
    if (type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1
            and x.shape[0] == dim):
        return x
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {v.shape}")
    if v.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True, eq=False)
class LinearSde:
    """Linear SDE dx = F x dt + sum_j Gj x dBj.

    `drift_matrix` is F (n x n); `noise_matrices` holds G_1 .. G_m, all n x n.
    Equality is identity, so a system compares and hashes without comparing
    its arrays.

    `stack` is the one owner of these matrices: a read-only C-ordered
    (m+1, n, n) array [F, G_1, .., G_m], copied once here, of which
    `drift_matrix` and `noise_matrices` are views.  `stack @ x` gives every
    product F x, G_j x in one batched call, and numpy runs the same gemv on
    each slice as on the matrix alone, so the bits are those of the separate
    products.  The stack stays 3-d on purpose: row-stacked into one
    (m+1) n x n matrix, gemv's blocking of the rows moves, and the products
    can differ in the last bit (seen for n >= 9 with OpenBLAS 0.3.31 on
    Haswell).
    """

    drift_matrix: np.ndarray
    noise_matrices: tuple[np.ndarray, ...] = ()
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        f = as_square(self.drift_matrix, "drift_matrix")
        gs = [as_square(g, "noise matrix") for g in self.noise_matrices]
        for g in gs:
            if g.shape != f.shape:
                raise ValueError("noise matrices must match the drift dimension")
        stack = np.stack([f, *gs])
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "drift_matrix", stack[0])
        object.__setattr__(self, "noise_matrices", tuple(stack[1:]))

    @staticmethod
    def scalar(lam: float, mu: float = 0.0) -> "LinearSde":
        """1-d system dx = lam x dt + mu x dB."""
        return LinearSde(np.array([[float(lam)]]), (np.array([[float(mu)]]),))

    @property
    def dim(self) -> int:
        return self.drift_matrix.shape[0]

    @property
    def noise_dim(self) -> int:
        return len(self.noise_matrices)

    @property
    def scalar_coefficients(self) -> tuple[float, float] | None:
        """(lam, mu) of a 1-d system with at most one noise, the inverse of
        `scalar` (mu = 0 without noise); None for any other system."""
        if self.dim != 1 or self.noise_dim > 1:
            return None
        return float(self.drift_matrix[0, 0]), (float(self.noise_matrices[0][0, 0]) if self.noise_dim else 0.0)

    def drift(self, x, t: float = 0.0) -> np.ndarray:
        return self.drift_matrix @ _as_vector(x, self.dim)

    def diffusion(self, x, t: float = 0.0) -> np.ndarray:
        # column j is G_j x; the copy gives the C-ordered (n, m) array
        return (self.stack[1:] @ _as_vector(x, self.dim)).T.copy()


@dataclass(frozen=True)
class VectorFieldSde:
    """General SDE dx = f(x, t) dt + g(x, t) dB.

    `drift_fn(x, t)` returns an n-vector, `diffusion_fn(x, t)` an n x m matrix.
    Both must vanish at the origin; the constructor probes that at t = 0 and
    t = 1 and raises ValidationFailed naming the map.
    """

    dim: int
    noise_dim: int
    drift_fn: Callable[[np.ndarray, float], np.ndarray]
    diffusion_fn: Callable[[np.ndarray, float], np.ndarray]

    def __post_init__(self):
        if self.dim < 1 or self.noise_dim < 0:
            raise ValueError("dim must be >= 1 and noise_dim >= 0")
        origin = np.zeros(self.dim)
        for t in (0.0, 1.0):
            _check_origin("drift", self.drift(origin, t))
            _check_origin("diffusion", self.diffusion(origin, t))

    def drift(self, x, t: float = 0.0) -> np.ndarray:
        return _as_vector(self.drift_fn(_as_vector(x, self.dim), t), self.dim, "drift value")

    def diffusion(self, x, t: float = 0.0) -> np.ndarray:
        g = np.asarray(self.diffusion_fn(_as_vector(x, self.dim), t), dtype=float)
        g = g.reshape(self.dim, self.noise_dim)
        return g


Sde = LinearSde | VectorFieldSde


@dataclass(frozen=True)
class ImpulseSchedule:
    """Strictly increasing impulse times t_0 = 0 < t_1 < ..., generated lazily.

    `time_fn(k)` returns t_k; `dt_under` and `dt_over` are the infimum and
    supremum of the gaps, with 0 < dt_under <= dt_over < inf so the schedule
    is unbounded without ever being stored.
    """

    time_fn: Callable[[int], float]
    dt_under: float
    dt_over: float

    def __post_init__(self):
        if not (0.0 < self.dt_under <= self.dt_over < math.inf):
            raise ValueError("need 0 < dt_under <= dt_over < inf")
        if not abs(self.time_fn(0)) <= 1e-12:
            raise ValueError("schedule must start at t_0 = 0")

    @staticmethod
    def equal_gaps(dt: float) -> "ImpulseSchedule":
        if not 0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        return ImpulseSchedule(lambda k: k * dt, dt, dt)

    def time(self, k: int) -> float:
        if k < 0:
            raise ValueError("impulse index must be nonnegative")
        return float(self.time_fn(k))


@dataclass(frozen=True)
class SideSystem:
    """Full hybrid system: continuous flow of (x, y) plus scheduled jumps.

    Between impulses
        dx = drift_x(x, t) dt + diffusion_x(x, t) dB,
        dy = drift_y(x, y, t) dt + diffusion_y(x, y, t) dB,
    and at impulse k, with xi(k) a fresh standard-normal m-vector,
        x -> x + jump_x(x, k) + jump_x_gain(x, k) @ xi(k),
        y -> y + jump_y(x, y, k) + jump_y_gain(x, y, k) @ xi(k).
    Every map must vanish at origin arguments so zero stays an equilibrium:
    the constructor probes them there, at (t, k) = (0, 1), in field order and
    raises ValidationFailed naming the first that does not vanish.
    Over z = (x, y) the flow is dz = drift(z, t) dt + diffusion(z, t) dB and
    impulse k maps z to z + jump(z, k) + jump_gain(z, k) @ xi(k).
    """

    n: int
    q: int
    noise_dim: int
    drift_x: Callable[[np.ndarray, float], np.ndarray]
    diffusion_x: Callable[[np.ndarray, float], np.ndarray]
    drift_y: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    diffusion_y: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    jump_x: Callable[[np.ndarray, int], np.ndarray]
    jump_x_gain: Callable[[np.ndarray, int], np.ndarray]
    jump_y: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    jump_y_gain: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    schedule: ImpulseSchedule

    def __post_init__(self):
        if self.n < 1 or self.q < 0 or self.noise_dim < 0:
            raise ValueError("need n >= 1, q >= 0, noise_dim >= 0")
        x, y = np.zeros(self.n), np.zeros(self.q)
        for name, args in (("drift_x", (x, 0.0)), ("diffusion_x", (x, 0.0)), ("drift_y", (x, y, 0.0)),
                           ("diffusion_y", (x, y, 0.0)), ("jump_x", (x, 1)), ("jump_x_gain", (x, 1)),
                           ("jump_y", (x, y, 1)), ("jump_y_gain", (x, y, 1))):
            _check_origin(name, getattr(self, name)(*args))

    @property
    def dim(self) -> int:
        return self.n + self.q

    def split(self, z) -> tuple[np.ndarray, np.ndarray]:
        z = _as_vector(z, self.dim, "z")
        return z[: self.n], z[self.n :]

    def drift(self, z, t: float = 0.0) -> np.ndarray:
        x, y = self.split(z)
        return np.concatenate([self.drift_x(x, t), self.drift_y(x, y, t)])

    def diffusion(self, z, t: float = 0.0) -> np.ndarray:
        x, y = self.split(z)
        return self._stack_gains(self.diffusion_x(x, t), self.diffusion_y(x, y, t))

    def jump(self, z, k: int) -> np.ndarray:
        x, y = self.split(z)
        return np.concatenate([self.jump_x(x, k), self.jump_y(x, y, k)])

    def jump_gain(self, z, k: int) -> np.ndarray:
        x, y = self.split(z)
        return self._stack_gains(self.jump_x_gain(x, k), self.jump_y_gain(x, y, k))

    def _stack_gains(self, gx, gy) -> np.ndarray:
        m = self.noise_dim
        gx, gy = np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)
        return np.concatenate([gx.reshape(self.n, m), gy.reshape(self.q, m)])


def make_cps(sde: Sde, dt: float) -> SideSystem:
    """Couple an SDE with its explicit one-step discretization.

    The second block y tracks the difference between the exact solution and
    the step-process numerical solution: it copies the x-dynamics between
    impulses, and at t_{k+1} = (k+1) dt jumps by
        -f(x - y) dt - g(x - y) sqrt(dt) xi(k+1),
    so x - y stays piecewise constant and reproduces the one-step recursion.
    The x-block has no impulses.
    """
    schedule = ImpulseSchedule.equal_gaps(dt)  # checks dt
    n, m = sde.dim, sde.noise_dim
    sqrt_dt = math.sqrt(dt)

    def drift_y(x, y, t):
        return sde.drift(x, t)

    def diffusion_y(x, y, t):
        return sde.diffusion(x, t)

    def jump_y(x, y, k):
        return -dt * sde.drift(x - y, 0.0)

    def jump_y_gain(x, y, k):
        return -sqrt_dt * sde.diffusion(x - y, 0.0)

    return SideSystem(
        n=n,
        q=n,
        noise_dim=m,
        drift_x=sde.drift,
        diffusion_x=sde.diffusion,
        drift_y=drift_y,
        diffusion_y=diffusion_y,
        jump_x=lambda x, k: np.zeros(n),
        jump_x_gain=lambda x, k: np.zeros((n, m)),
        jump_y=jump_y,
        jump_y_gain=jump_y_gain,
        schedule=schedule,
    )


def linear_compact_form(side: SideSystem) -> tuple[np.ndarray, np.ndarray]:
    """Probe a linear hybrid system's stacked evaluators (`SideSystem.drift`,
    `diffusion`, `jump` and `jump_gain`) for its matrices over z = (x, y).

    Returns the (m+1, n+q, n+q) stacks flow = [A, B_1, .., B_m] and jump =
    [J, H_1, .., H_m], laid out as `LinearSde.stack`: dz = A z dt + sum_j
    B_j z dB_j between impulses, z -> z + J z + sum_j H_j z xi_j at each.
    Rows and columns split as z does, [:n] for x and [n:] for y: the x-drift
    F is flow[0, :n, :n], and the x rows of every matrix have zero y columns.

    Basis probes at (t, k) = (0, 1) recover each matrix; random probes (seed
    0) at two other (t, k) pairs then verify linearity and time/index
    invariance of all four evaluators, raising NotLinear on failure.
    """
    def probe(value, gain, arg):
        # [value(e_i), gain(e_i)] is column i of every matrix of the stack
        cols = np.stack([np.column_stack([value(e, arg), gain(e, arg)]) for e in np.eye(side.dim)])
        return np.ascontiguousarray(cols.transpose(2, 1, 0))

    flow, jump = probe(side.drift, side.diffusion, 0.0), probe(side.jump, side.jump_gain, 1)
    rng = np.random.default_rng(0)
    for t, k in ((0.7, 2), (2.3, 3)):
        for _ in range(3):
            v = rng.uniform(-2.0, 2.0, side.dim)
            for label, got, want in (
                ("drift", side.drift(v, t), flow[0] @ v),
                ("diffusion", side.diffusion(v, t), (flow[1:] @ v).T),
                ("jump", side.jump(v, k), jump[0] @ v),
                ("jump_gain", side.jump_gain(v, k), (jump[1:] @ v).T),
            ):
                scale = 1.0 + float(np.abs(want).max(initial=0.0))
                if np.abs(got - want).max(initial=0.0) > _LINEARITY_RTOL * scale:
                    raise NotLinear(f"{label} of the compact form failed the linearity probe")
    return flow, jump
