"""Reference answers the benchmark checks the CLI's outputs against.

Every oracle here is computed from numpy and scipy alone, never through
`sidelab`, so a defect in the program cannot also hide in its own check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import ndtri


def philox_normals(seed: int, trajectory: int, stream: int, count: int, width: int) -> np.ndarray:
    """The documented counter-based draw: Philox keyed by (seed, 2*trajectory + stream),
    raw 64-bit words mapped to (0, 1) by their top 53 bits plus a half step, then
    inverse normal CDF."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 2 * trajectory + stream], dtype=np.uint64)))
    words = gen.integers(1 << 64, size=(count, width), dtype=np.uint64)
    return ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


def em_linear(f: np.ndarray, gs: list[np.ndarray], x0: np.ndarray, dt: float, w: np.ndarray) -> np.ndarray:
    """Explicit scheme X_{k+1} = X_k + dt F X_k + sum_j G_j X_k w_kj; returns X_0 .. X_N."""
    out = np.empty((w.shape[0] + 1, f.shape[0]))
    out[0] = x = np.asarray(x0, dtype=float)
    for k in range(w.shape[0]):
        x = x + dt * (f @ x) + sum(w[k, j] * (g @ x) for j, g in enumerate(gs))
        out[k + 1] = x
    return out


def ols_slope(t: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares slope of y on t and the weights c with slope = c @ y."""
    tc = np.asarray(t, dtype=float) - np.mean(t)
    c = tc / float(tc @ tc)
    return float(c @ y), c


def moment_slope(
    f: np.ndarray, gs: list[np.ndarray], x0: np.ndarray, dt: float, window: np.ndarray, trajectories: int
) -> tuple[float, float]:
    """Exact tail slope of ln E|X_k|^2 for the explicit scheme driven by
    sqrt(dt) * N(0, I) draws, and the standard deviation of the Monte-Carlo
    estimate of that slope from `trajectories` paths.

    `window` holds the step indices of the fit.  The second moment follows
    S_{k+1} = A S A' + dt sum G S G' with A = I + dt F.  The spread comes from
    the delta method on ln(mean |X_k|^2): it needs Cov(|X_s|^2, |X_t|^2),
    exact from the fourth-moment tensor E[X_s^{(x)4}] (propagated by E[B^{(x)4}],
    B = A + sqrt(dt) sum w_j G_j, computed by 3-point Gauss-Hermite quadrature,
    exact for these degree-4 polynomials) and the backward second-moment
    propagator Q_{L+1} = A' Q_L A + dt sum G' Q_L G.
    """
    n = f.shape[0]
    a = np.eye(n) + dt * f
    nodes, weights = np.polynomial.hermite_e.hermegauss(3)
    weights = weights / weights.sum()
    e4 = np.zeros((n**4, n**4))
    for idx in itertools.product(range(3), repeat=len(gs)):
        b = a + math.sqrt(dt) * sum(nodes[i] * g for i, g in zip(idx, gs))
        bb = np.kron(b, b)
        e4 += math.prod(weights[i] for i in idx) * np.kron(bb, bb)
    e2 = np.kron(a, a) + dt * sum(np.kron(g, g) for g in gs)

    window = np.asarray(window)
    lo, hi = int(window[0]), int(window[-1])
    x0 = np.asarray(x0, dtype=float)
    s = np.kron(x0, x0)
    m4 = np.kron(s, s)
    second = np.empty(hi + 1)
    mixed = np.empty((hi - lo + 1, n * n))  # E[|X_k|^2 X_k X_k'] over the window
    for k in range(hi + 1):
        second[k] = np.trace(s.reshape(n, n))
        if k >= lo:
            mixed[k - lo] = np.einsum("iijl->jl", m4.reshape(n, n, n, n)).ravel()
        s = e2 @ s
        m4 = e4 @ m4

    lags = np.empty((hi - lo + 1, n * n))
    q = np.eye(n)
    for lag in range(hi - lo + 1):
        lags[lag] = q.ravel()
        q = a.T @ q @ a + dt * sum(g.T @ q @ g for g in gs)
    joint = mixed @ lags.T  # joint[s, L] = E[|X_s|^2 |X_{s+L}|^2]

    rows = window - lo
    first = np.minimum.outer(rows, rows)
    lag = np.abs(np.subtract.outer(rows, rows))
    mean = second[window]
    cov = joint[first, lag] - np.outer(mean, mean)
    slope, c = ols_slope(window * dt, np.log(mean))
    cw = c / mean
    return slope, math.sqrt(max(float(cw @ cov @ cw), 0.0) / trajectories)


def ms_operators(f: np.ndarray, gs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Row-major vectorized L0 = F'(x)I + I(x)F' + sum G'(x)G' and K = F'(x)F'."""
    eye = np.eye(f.shape[0])
    l0 = np.kron(f.T, eye) + np.kron(eye, f.T) + sum(np.kron(g.T, g.T) for g in gs)
    return l0, np.kron(f.T, f.T)


def ms_abscissa(f: np.ndarray, gs: list[np.ndarray]) -> float:
    """Spectral abscissa of L0; the continuous system is mean-square stable iff it is negative."""
    return float(np.max(np.linalg.eigvals(ms_operators(f, gs)[0]).real))


def exact_stepsize(f: np.ndarray, gs: list[np.ndarray]) -> float:
    """Largest dt_bar keeping L0 + dt_bar K stable: 1 / rho(L0^{-1} K), for stable L0."""
    l0, k = ms_operators(f, gs)
    return 1.0 / float(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(l0, k)))))


def within(value: float, reference: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= tol
