"""Dense matrix primitives and the Lyapunov-type solvers behind every certificate.

Matrices are plain float64 NumPy arrays: a general matrix is any finite 2-d
array, a symmetric one is validated (and symmetrized) by `as_symmetric`.
Everything is a pure function of its inputs and safe to call concurrently.
Every certificate operator P -> sum_t A_t^T P B_t maps symmetric matrices to
symmetric matrices, so it is built once, restricted to them: the unknown is
the upper triangle of P (n(n+1)/2 coordinates).  That matrix is LU-factored
once (`lu_factors`), and the factors serve every question asked of it: the
continuous and discrete Lyapunov solves (`solve_gated`) and the exact
stepsize bound (`ct_stepsize_bound`), whose dominant eigenvalue is found by
Arnoldi iteration (ARPACK) on the factored operator rather than by a dense
eigendecomposition.

A linear system's matrices come as one (m+1, n, n) stack [F, G_1, .., G_m],
the layout of `LinearSde.stack`, which `ct_form` and `ct_operator` read.  The
certificate form `ct_form` (F^T P + P F + dt_bar F^T P F + sum Gj^T P Gj)
is written once by plain matrix products, independent of the vectorized
operator, for the solvers' residual gate and the certificates.  The scheme's
one-step form is that form at dt_bar = dt, exactly:

    (I + dt F)^T P (I + dt F) + dt sum Gj^T P Gj - P = dt * ct_form([F, G], P, dt),

so no condition on the scheme loses digits subtracting P from P + O(dt).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# scipy.linalg and scipy.sparse.linalg are imported by the functions that
# call them, not with the module: `simulate`, `exponent` and `converge`
# factor no matrix, and a fresh `import sidelab` would pay about 45 ms and
# 6 MB of resident memory for scipy.linalg, and about 20 ms and 4 MB more
# for scipy.sparse.linalg, which only the stepsize bound needs
from .errors import NoConvergence, NotPositiveDefinite, SingularOperator

#: Relative residual tolerance of the equation solvers' gate.
DEFAULT_RTOL = 1e-9

#: Scale factor for the default positive-definiteness tolerance.
DEFAULT_PD_SCALE = 1e-10


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square 2-d float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def as_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate symmetry to a relative 1e-8 and return the symmetrized matrix."""
    m = as_square(a, name)
    scale = 1.0 + np.abs(m).max(initial=0.0)
    if np.abs(m - m.T).max(initial=0.0) > 1e-8 * scale:
        raise ValueError(f"{name} is not symmetric")
    # (M + M^T) / 2 is exactly symmetric, since IEEE addition commutes
    return (m + m.T) / 2.0


@dataclass(frozen=True)
class PdReport:
    """Outcome of a positive-definiteness gate with its eigenvalue evidence."""

    is_pd: bool
    lambda_min: float

    def __bool__(self) -> bool:
        return self.is_pd


def is_positive_definite(p) -> PdReport:
    """Gate P > 0 by the smallest eigenvalue.

    True iff lambda_min(P) > DEFAULT_PD_SCALE * (1 + ||P||), a tolerance
    that scales with the matrix and leaves double-precision headroom for the
    dimensions this toolkit targets.
    """
    p = as_symmetric(p, "p")
    eigs = np.linalg.eigvalsh(p)
    lam_min = float(eigs[0])
    tol = DEFAULT_PD_SCALE * (1.0 + float(np.abs(eigs).max(initial=0.0)))
    return PdReport(lam_min > tol, lam_min)


def gate_pd(p, name: str) -> np.ndarray:
    """Symmetrized P, or NotPositiveDefinite naming it when P fails the gate."""
    p = as_symmetric(p, name)
    report = is_positive_definite(p)
    if not report:
        raise NotPositiveDefinite(
            f"{name} is not positive definite (lambda_min={report.lambda_min:.6g})"
        )
    return p


def pencil_top(m, p) -> float:
    """Largest eigenvalue of the P-weighted pencil of M.

    Equals lambda_max(L^-1 M L^-T) with L L^T = P, i.e. the smallest c with
    M <= c P.  Raises NotPositiveDefinite when P fails the gate.
    """
    import scipy.linalg

    m = as_symmetric(m, "m")
    p = gate_pd(p, "pencil weight")
    eigs = scipy.linalg.eigh(m, p, eigvals_only=True)
    return float(eigs[-1])


def decay_rate(m, p) -> float:
    """Largest alpha with M <= -alpha P; positive iff M < 0 relative to P."""
    return -pencil_top(m, p)


def vec_operator(terms: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Matrix of the linear map P -> sum_t A_t^T P B_t on symmetric n x n P.

    The map must send symmetric P to symmetric images.  Coordinates are the
    upper triangle P[i, j], i <= j, in np.triu_indices order; the resulting
    n(n+1)/2 square matrix has the map's eigenvalues on symmetric matrices.
    """
    # (A^T E_kl B)[i, j] = A[k, i] B[l, j]: gather the triangle rows (i, j)
    # of every term into one (rows, k, l) array; column (k, l) is the image
    # of E_kl + E_lk, halved back to the single term E_kk on the diagonal
    i, j = np.triu_indices(terms[0][0].shape[0])
    op = sum(a.T[i, :, None] * b.T[j, None, :] for a, b in terms)
    op = op[:, i, j] + op[:, j, i]
    op[:, i == j] *= 0.5
    return op


def ct_operator(stack: np.ndarray, dt_bar: float = 0.0) -> np.ndarray:
    """Matrix of P -> F^T P + P F + sum_j Gj^T P Gj + dt_bar F^T P F (see vec_operator)."""
    f = stack[0]
    eye = np.eye(f.shape[0])
    terms = [(f, eye), (eye, f)]
    if dt_bar:
        terms.append((f, dt_bar * f))
    terms += [(g, g) for g in stack[1:]]
    return vec_operator(terms)


def ct_form(stack: np.ndarray, p: np.ndarray, dt_bar: float = 0.0) -> np.ndarray:
    """F^T P + P F + dt_bar F^T P F + sum_j Gj^T P Gj by plain matrix products."""
    f = stack[0]
    m = f.T @ p + p @ f
    if dt_bar:
        m = m + dt_bar * (f.T @ p @ f)
    for g in stack[1:]:
        m = m + g.T @ p @ g
    return m


def lu_factors(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors of an operator matrix from vec_operator (scipy.linalg.lu_factor).

    An exactly singular matrix is factored too, with a zero pivot on the
    diagonal of U, which solve_gated refuses; LAPACK's warning about that
    pivot is therefore silenced here.
    """
    import scipy.linalg

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(op)


def solve_gated(factors: tuple[np.ndarray, np.ndarray], lhs: Callable[[np.ndarray], np.ndarray],
                q: np.ndarray) -> np.ndarray:
    """Solve op p = -Q[triu] for the upper triangle p of P, with op given by
    its lu_factors, mirror p into the lower triangle, then gate the residual
    lhs(P) + Q of the defining equation, which lhs evaluates by plain matrix
    products independent of the vectorized operator.  Raises
    SingularOperator at a zero pivot or unless the residual is within
    DEFAULT_RTOL * ||Q|| (a NaN residual is not)."""
    import scipy.linalg

    lu = factors[0]
    zero = np.flatnonzero(np.diagonal(lu) == 0.0)
    if zero.size:
        raise SingularOperator(
            f"vectorized Lyapunov operator is singular: pivot {zero[0] + 1} of {len(lu)} is zero"
        )
    i, j = np.triu_indices(q.shape[0])
    tri = scipy.linalg.lu_solve(factors, -q[i, j])
    p = np.empty_like(q)
    p[i, j] = tri
    p[j, i] = tri
    # a P out of the float range gives an inf or NaN residual, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.linalg.norm(lhs(p) + q))
    ref = max(float(np.linalg.norm(q)), np.finfo(float).tiny)
    if not res <= DEFAULT_RTOL * ref:
        raise SingularOperator(
            f"residual {res:.3e} exceeds {DEFAULT_RTOL:.1e} * ||Q||; "
            "operator is singular beyond tolerance (stability boundary)"
        )
    return p


def ct_stepsize_bound(factors: tuple[np.ndarray, np.ndarray], f: np.ndarray, p: np.ndarray) -> float:
    """1 / rho(L0^{-1} K) for K: P -> F^T P F, given the lu_factors of L0.

    L0 must be the stable operator ct_operator of [F, G_1, .., G_m] and p a
    positive definite solution of L0(P) = -Q, so that -L0^{-1} K preserves the cone
    of positive semidefinite matrices and p lies inside it.  ARPACK (eigs,
    k = 1, started at the triangle of p) finds the dominant eigenvalue of
    v -> L0^{-1} K v on the triangle coordinates, applying K as F^T P F on
    the unpacked matrix.  With n = 1 there is one coordinate, and the
    eigenvalue is the exact ratio (L0^{-1} K v) / v.  Raises NoConvergence
    when the Arnoldi iteration does not converge.
    """
    import scipy.linalg
    import scipy.sparse.linalg

    n = f.shape[0]
    i, j = np.triu_indices(n)
    s = np.empty((n, n))

    def matvec(v: np.ndarray) -> np.ndarray:
        s[i, j] = v
        s[j, i] = v
        return scipy.linalg.lu_solve(factors, (f.T @ s @ f)[i, j], check_finite=False)

    v0 = p[i, j]
    if i.size == 1:
        return abs(v0[0] / matvec(v0)[0])
    op = scipy.sparse.linalg.LinearOperator((i.size, i.size), matvec=matvec, dtype=float)
    try:
        lam = scipy.sparse.linalg.eigs(op, k=1, which="LM", v0=v0, return_eigenvectors=False)[0]
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NoConvergence(
            f"Arnoldi iteration for the stepsize bound did not converge on the "
            f"{i.size}-coordinate operator of a {n}-dimensional system"
        ) from exc
    return 1.0 / abs(lam)


def solve_ct_lyapunov(f, gs: Sequence, dt_bar: float, q) -> np.ndarray:
    """Solve F^T P + P F + sum_j Gj^T P Gj + dt_bar F^T P F = -Q for symmetric P.

    With dt_bar = 0 this is the classical continuous-time equation; dt_bar > 0
    adds the quadratic drift term certifying the discretization as well.
    Raises SingularOperator when the vectorized system is singular or the
    defining-equation residual exceeds DEFAULT_RTOL * ||Q||.
    """
    f = as_square(f, "f")
    q = as_symmetric(q, "q")
    if q.shape[0] != f.shape[0]:
        raise ValueError("f and q dimensions differ")
    gs = [as_square(g, "g") for g in gs]
    if any(g.shape[0] != f.shape[0] for g in gs):
        raise ValueError("diffusion matrix dimension differs from f")
    if not 0 <= dt_bar < math.inf:
        raise ValueError("dt_bar must be nonnegative and finite")
    stack = np.stack([f, *gs])
    return solve_gated(lu_factors(ct_operator(stack, dt_bar)), lambda p: ct_form(stack, p, dt_bar), q)


def solve_dt_lyapunov(f, gs: Sequence, dt: float, q) -> np.ndarray:
    """Solve (I + dt F)^T P (I + dt F) + dt sum_j Gj^T P Gj - P = -Q for symmetric P.

    The one-step mean-square equation of the explicit scheme at stepsize dt.
    Its left-hand side is dt * ct_form([F, G], P, dt), so this is
    solve_ct_lyapunov(f, gs, dt, Q / dt), with the same relative residual
    gate.  Raises SingularOperator at the stability boundary.
    """
    q = as_symmetric(q, "q")
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    return solve_ct_lyapunov(f, gs, dt, q / dt)
