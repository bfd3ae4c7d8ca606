"""Dense matrix primitives and the Lyapunov-type solvers behind every certificate.

Matrices are plain float64 NumPy arrays: a general matrix is any finite 2-d
array, a symmetric one is validated (and re-symmetrized after floating-point
solves) by the helpers here.  Everything is a pure function of its inputs and
safe to call concurrently.  Systems are small (n up to a few tens), so all
solvers are dense; the continuous and discrete Lyapunov equations are solved
by vectorizing to an n^2 x n^2 linear system via the Kronecker identity
vec(A X B) = (A kron B^T) vec(X) for row-major vec.  The same operators,
restricted to symmetric matrices (n(n+1)/2 coordinates), serve spectral
questions such as the exact stepsize bound.

The left-hand sides of the two certificate equations are also written once
each by plain matrix products: `ct_form` (F^T P + P F + dt_bar F^T P F +
sum Gj^T P Gj) and `dt_form` ((I + dt F)^T P (I + dt F) + dt sum Gj^T P Gj).
They evaluate the solvers' residual gates, independently of the Kronecker
path, and the quadratic forms of the certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, SingularOperator

#: Default relative residual tolerance for the equation solvers.
DEFAULT_RTOL = 1e-9

#: Scale factor for the default positive-definiteness tolerance.
DEFAULT_PD_SCALE = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def as_symmetric(a, name: str = "matrix", rtol: float = 1e-8) -> np.ndarray:
    """Validate symmetry up to roundoff and return the symmetrized matrix."""
    m = as_square(a, name)
    scale = 1.0 + np.abs(m).max(initial=0.0)
    if np.abs(m - m.T).max(initial=0.0) > rtol * scale:
        raise ValueError(f"{name} is not symmetric")
    return symmetrize(m)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2; exact symmetry since IEEE addition commutes."""
    return (a + a.T) / 2.0


def kron(a, b) -> np.ndarray:
    """Kronecker product of two finite matrices.

    Result has shape (a.rows * b.rows, a.cols * b.cols).
    """
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


@dataclass(frozen=True)
class PdReport:
    """Outcome of a positive-definiteness gate with its eigenvalue evidence."""

    is_pd: bool
    lambda_min: float
    tol: float

    def __bool__(self) -> bool:
        return self.is_pd


def is_positive_definite(p, tol: float | None = None) -> PdReport:
    """Gate P > 0 by the smallest eigenvalue.

    True iff lambda_min(P) > tol.  The default tolerance scales with the
    matrix, DEFAULT_PD_SCALE * (1 + ||P||), leaving double-precision headroom
    for the dimensions this toolkit targets.
    """
    p = as_symmetric(p, "p")
    eigs = np.linalg.eigvalsh(p)
    lam_min = float(eigs[0])
    if tol is None:
        tol = DEFAULT_PD_SCALE * (1.0 + float(np.abs(eigs).max(initial=0.0)))
    return PdReport(lam_min > tol, lam_min, float(tol))


def pencil_top(m, p) -> float:
    """Largest eigenvalue of the P-weighted pencil of M.

    Equals lambda_max(L^-1 M L^-T) with L L^T = P, i.e. the smallest c with
    M <= c P.  Raises NotPositiveDefinite when P fails the gate.
    """
    m = as_symmetric(m, "m")
    p = as_symmetric(p, "p")
    report = is_positive_definite(p)
    if not report:
        raise NotPositiveDefinite(
            f"pencil weight is not positive definite (lambda_min={report.lambda_min:.6g})"
        )
    eigs = scipy.linalg.eigh(m, p, eigvals_only=True)
    return float(eigs[-1])


def decay_rate(m, p) -> float:
    """Largest alpha with M <= -alpha P; positive iff M < 0 relative to P."""
    return -pencil_top(m, p)


def vec_operator(terms: Sequence[tuple[np.ndarray, np.ndarray]], symmetric: bool = False) -> np.ndarray:
    """Matrix of the linear map P -> sum_t A_t^T P B_t on n x n matrices.

    By default it acts on row-major vec(P), where it is sum_t A_t^T kron B_t^T.
    With symmetric=True the map must send symmetric P to symmetric images; it
    is then restricted to symmetric P, whose coordinates are the upper
    triangle P[i, j], i <= j, in np.triu_indices order.  The resulting
    n(n+1)/2 square matrix has the map's eigenvalues on symmetric matrices.
    """
    if not symmetric:
        op = np.kron(terms[0][0].T, terms[0][1].T)
        for a, b in terms[1:]:
            op += np.kron(a.T, b.T)
        return op
    # column (k, l) is the image of E_kl + E_lk (of E_kk on the diagonal),
    # row (i, j) its entry; (A^T E_kl B)[i, j] = A[k, i] B[l, j]
    i, j = np.triu_indices(terms[0][0].shape[0])
    off = i != j
    op = np.zeros((i.size, i.size))
    for a, b in terms:
        at, bt = a.T, b.T
        op += at[np.ix_(i, i)] * bt[np.ix_(j, j)]
        op[:, off] += at[np.ix_(i, j[off])] * bt[np.ix_(j, i[off])]
    return op


def ct_operator(f: np.ndarray, gs: Sequence[np.ndarray], dt_bar: float = 0.0,
                symmetric: bool = False) -> np.ndarray:
    """Matrix of P -> F^T P + P F + sum_j Gj^T P Gj + dt_bar F^T P F (see vec_operator)."""
    eye = np.eye(f.shape[0])
    terms = [(f, eye), (eye, f)]
    if dt_bar:
        terms.append((f, dt_bar * f))
    terms += [(g, g) for g in gs]
    return vec_operator(terms, symmetric)


def ct_form(f: np.ndarray, gs: Sequence[np.ndarray], p: np.ndarray, dt_bar: float = 0.0) -> np.ndarray:
    """F^T P + P F + dt_bar F^T P F + sum_j Gj^T P Gj by plain matrix products."""
    m = f.T @ p + p @ f
    if dt_bar:
        m = m + dt_bar * (f.T @ p @ f)
    for g in gs:
        m = m + g.T @ p @ g
    return m


def dt_form(f: np.ndarray, gs: Sequence[np.ndarray], p: np.ndarray, dt: float) -> np.ndarray:
    """(I + dt F)^T P (I + dt F) + dt sum_j Gj^T P Gj by plain matrix products."""
    a = np.eye(f.shape[0]) + dt * f
    m = a.T @ p @ a
    for g in gs:
        m = m + dt * (g.T @ p @ g)
    return m


def _coerce_equation(f, gs: Sequence, q) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    f = as_square(f, "f")
    q = as_symmetric(q, "q")
    if q.shape[0] != f.shape[0]:
        raise ValueError("f and q dimensions differ")
    gs = [as_square(g, "g") for g in gs]
    if any(g.shape[0] != f.shape[0] for g in gs):
        raise ValueError("diffusion matrix dimension differs from f")
    return f, gs, q


def _solve_gated(op: np.ndarray, lhs: Callable[[np.ndarray], np.ndarray], q: np.ndarray,
                 rtol: float) -> np.ndarray:
    """Solve op vec(P) = -vec(Q) for symmetric P, then gate the residual
    lhs(P) + Q of the defining equation, which lhs evaluates by plain matrix
    products independent of the Kronecker path."""
    n = q.shape[0]
    try:
        vec = np.linalg.solve(op, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularOperator(f"vectorized Lyapunov operator is singular: {exc}") from exc
    p = symmetrize(vec.reshape(n, n))
    res = float(np.linalg.norm(lhs(p) + q))
    ref = max(float(np.linalg.norm(q)), np.finfo(float).tiny)
    if res > rtol * ref:
        raise SingularOperator(
            f"residual {res:.3e} exceeds {rtol:.1e} * ||Q||; "
            "operator is singular beyond tolerance (stability boundary)"
        )
    return p


def solve_ct_lyapunov(f, gs: Sequence, dt_bar: float, q, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Solve F^T P + P F + sum_j Gj^T P Gj + dt_bar F^T P F = -Q for symmetric P.

    With dt_bar = 0 this is the classical continuous-time equation; dt_bar > 0
    adds the quadratic drift term certifying the discretization as well.
    Raises SingularOperator when the vectorized system is singular or the
    defining-equation residual exceeds rtol * ||Q||.
    """
    f, gs, q = _coerce_equation(f, gs, q)
    if dt_bar < 0:
        raise ValueError("dt_bar must be nonnegative")
    return _solve_gated(ct_operator(f, gs, dt_bar), lambda p: ct_form(f, gs, p, dt_bar), q, rtol)


def solve_dt_lyapunov(f, gs: Sequence, dt: float, q, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Solve (I + dt F)^T P (I + dt F) + dt sum_j Gj^T P Gj - P = -Q for symmetric P.

    The one-step mean-square equation of the explicit scheme at stepsize dt.
    Raises SingularOperator at the stability boundary.
    """
    f, gs, q = _coerce_equation(f, gs, q)
    if dt <= 0:
        raise ValueError("dt must be positive")
    eye = np.eye(f.shape[0])
    a = eye + dt * f
    op = vec_operator([(a, a), (eye, -eye), *((g, dt * g) for g in gs)])
    return _solve_gated(op, lambda p: dt_form(f, gs, p, dt) - p, q, rtol)
