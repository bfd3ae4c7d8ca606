"""Certificates and condition checkers for moment exponential stability.

Feasibility of each linear matrix inequality is decided constructively:
solve the matching equation with Q = I, then gate the candidate P > 0.
This is equivalent to the inequality being feasible (the conditions are
necessary and sufficient for the linear systems handled here) and needs no
external SDP solver.  All checkers are pure functions.

Boundary policy: every strict inequality is tested with an absolute slack of
1e-12, so a marginal case (e.g. a one-step mean-square factor of exactly 1)
is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotLinear, NotPositiveDefinite, SingularOperator
from .matrix_kernels import (
    as_symmetric,
    ct_form,
    ct_operator,
    decay_rate,
    dt_form,
    is_positive_definite,
    pencil_top,
    solve_ct_lyapunov,
    solve_dt_lyapunov,
    symmetrize,
    vec_operator,
)
from .models import LinearSde, SideSystem

#: Absolute slack applied to every strict inequality at a boundary.
STRICT_SLACK = 1e-12

#: Floor applied to constants the theorems require to be positive.
_POSITIVE_FLOOR = 1e-12

_LINEARITY_RTOL = 1e-8


@dataclass(frozen=True)
class StabilityCertificate:
    """A positive-definite certificate with margins, or a structured refusal.

    When feasible, `p` solves the defining equation with Q = I and `margin`
    is the smallest eigenvalue of -LHS relative to P (positive).  When
    infeasible, `p` is None and `margin` carries the diagnostic smallest
    eigenvalue of the failed candidate (or 0 at a singular boundary).
    """

    feasible: bool
    p: np.ndarray | None
    margin: float
    dt_bar: float | None = None
    detail: str = ""

    def report(self) -> str:
        lines = [f"verdict: {'feasible' if self.feasible else 'infeasible'}"]
        if self.dt_bar is not None:
            lines.append(f"dt_bar: {self.dt_bar:.12g}")
        lines.append(f"margin: {self.margin:.12g}")
        if self.p is not None:
            lines.append("P:")
            for row in self.p:
                lines.append("  " + " ".join(f"{v:.12g}" for v in row))
        if self.detail:
            lines.append(f"detail: {self.detail}")
        return "\n".join(lines)


def ct_quadratic_form(sde: LinearSde, p: np.ndarray, dt_bar: float = 0.0) -> np.ndarray:
    """F^T P + P F + sum_j Gj^T P Gj + dt_bar F^T P F."""
    return symmetrize(ct_form(sde.drift_matrix, sde.noise_matrices, p, dt_bar))


def dt_quadratic_form(sde: LinearSde, p: np.ndarray, dt: float) -> np.ndarray:
    """(I + dt F)^T P (I + dt F) + dt sum_j Gj^T P Gj."""
    return symmetrize(dt_form(sde.drift_matrix, sde.noise_matrices, p, dt))


def _certificate(sde: LinearSde, param: float, solve: Callable, form: Callable) -> StabilityCertificate:
    """Solve the defining equation with Q = I, gate the candidate P > 0, and
    require the decay rate of form(P) relative to P to be positive; a
    singular boundary maps to infeasible."""
    try:
        p = solve(sde.drift_matrix, sde.noise_matrices, param, np.eye(sde.dim))
    except SingularOperator as exc:
        return StabilityCertificate(False, None, 0.0, param, f"boundary: {exc}")
    gate = is_positive_definite(p)
    if not gate:
        return StabilityCertificate(
            False, None, gate.lambda_min, param, "candidate P is not positive definite"
        )
    margin = decay_rate(form(p), p)
    if margin <= STRICT_SLACK:
        return StabilityCertificate(False, None, margin, param, "margin not positive")
    return StabilityCertificate(True, p, margin, param)


def cp_lyapunov_feasible(sde: LinearSde, dt_bar: float) -> StabilityCertificate:
    """Feasibility of F^T P + P F + sum Gj^T P Gj + dt_bar F^T P F < 0, P > 0.

    With dt_bar = 0 this is the classical mean-square stability test of the
    continuous system; with dt_bar > 0 feasibility additionally certifies the
    explicit scheme and the coupled hybrid system for every stepsize in
    (0, dt_bar].
    """
    if dt_bar < 0:
        raise ValueError("dt_bar must be nonnegative")
    return _certificate(sde, dt_bar, solve_ct_lyapunov, lambda p: ct_quadratic_form(sde, p, dt_bar))


def lyapunov_ito_feasible(sde: LinearSde) -> StabilityCertificate:
    """Classical mean-square stability test: dt_bar = 0 case of the above."""
    return cp_lyapunov_feasible(sde, 0.0)


def discrete_ms_stable(sde: LinearSde, dt: float) -> StabilityCertificate:
    """Mean-square stability of the explicit one-step scheme at stepsize dt.

    Solves (I + dt F)^T P (I + dt F) + dt sum Gj^T P Gj - P = -I and gates
    P > 0; a singular boundary maps to infeasible.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _certificate(sde, dt, solve_dt_lyapunov, lambda p: dt_quadratic_form(sde, p, dt) - p)


def scalar_max_stepsize(lam: float, mu: float) -> float | None:
    """Closed-form stepsize bound -(2 lam + mu^2) / lam^2 for the scalar system.

    Defined (and positive) exactly when 2 lam + mu^2 < 0; returns None
    otherwise, including the marginal case 2 lam + mu^2 = 0.
    """
    drift_margin = 2.0 * lam + mu * mu
    if drift_margin >= 0.0:
        return None
    return -drift_margin / (lam * lam)


def max_stepsize(sde: LinearSde, tol: float = 1e-6) -> float | None:
    """Supremum stepsize with the cyber-physical inequality feasible.

    With L0: P -> F^T P + P F + sum Gj^T P Gj and K: P -> F^T P F, the
    operator L0 + dt_bar K is stable iff L0 is stable and
    dt_bar * rho(L0^{-1} K) < 1 (Damm, LNCIS 297, 2004), so the bound is
    1 / rho(L0^{-1} K): one eigenvalue problem on symmetric matrices, where
    the dominant eigenvector of this cone-preserving map lies.  The bound is
    exact to round-off, so any positive `tol` is met.  Returns None when even
    dt_bar = 0 is infeasible.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not cp_lyapunov_feasible(sde, 0.0).feasible:
        return None
    f = sde.drift_matrix
    l0 = ct_operator(f, sde.noise_matrices, symmetric=True)
    k = vec_operator([(f, f)], symmetric=True)
    return 1.0 / float(np.abs(np.linalg.eigvals(np.linalg.solve(l0, k))).max())


@dataclass(frozen=True)
class ConditionConstants:
    """Constants entering the impulse-interval tests.

    `alpha` bounds the generator of the x-block (decay rate by default,
    growth rate under the growth convention); `alpha_cross` / `alpha_self`
    bound the coupled generator by V(x) and V(y) terms; `beta` bounds the
    x-jump second moment, `beta_cross` / `beta_self` the y-jump second
    moment.  `split` records the s-parameter used to break the x-y cross
    terms; only the self constants enter the interval tests.
    """

    alpha: float
    alpha_cross: float
    alpha_self: float
    beta: float
    beta_cross: float
    beta_self: float
    dt_under: float
    dt_over: float
    split: float = 1.0

    def __post_init__(self):
        values = (
            self.alpha, self.alpha_cross, self.alpha_self,
            self.beta, self.beta_cross, self.beta_self,
        )
        if not all(np.isfinite(values)):
            raise ValueError("condition constants must be finite")
        if self.alpha_self <= 0 or self.beta_self <= 0:
            raise ValueError("alpha_self and beta_self must be positive")
        if not (0 < self.dt_under <= self.dt_over):
            raise ValueError("need 0 < dt_under <= dt_over")


def _columns(values: list[np.ndarray]) -> np.ndarray:
    return np.column_stack([np.atleast_1d(np.asarray(v, dtype=float)) for v in values])


def _extract_vector_map(fn: Callable, dim_in: int, out_dim: int) -> np.ndarray:
    if dim_in == 0:
        return np.zeros((out_dim, 0))
    eye = np.eye(dim_in)
    return _columns([fn(eye[i]) for i in range(dim_in)]).reshape(out_dim, dim_in)


def _extract_gain_maps(fn: Callable, dim_in: int, out_dim: int, width: int) -> list[np.ndarray]:
    """Recover the matrices M_j of a map x -> [M_1 x, ..., M_m x] (columns)."""
    if dim_in == 0:
        return [np.zeros((out_dim, 0)) for _ in range(width)]
    eye = np.eye(dim_in)
    probes = [np.asarray(fn(eye[i]), dtype=float).reshape(out_dim, width) for i in range(dim_in)]
    return [_columns([probes[i][:, j] for i in range(dim_in)]) for j in range(width)]


def _linearity_check(fn: Callable, matrices, dim_in: int, label: str, rng) -> None:
    for _ in range(3):
        v = rng.uniform(-2.0, 2.0, dim_in)
        got = np.asarray(fn(v), dtype=float)
        want = matrices(v)
        scale = 1.0 + float(np.abs(want).max(initial=0.0))
        if np.abs(got - want).max(initial=0.0) > _LINEARITY_RTOL * scale:
            raise NotLinear(f"{label} failed the linearity probe")


def _gate_pd(p, name: str) -> np.ndarray:
    p = as_symmetric(p, name)
    report = is_positive_definite(p)
    if not report:
        raise NotPositiveDefinite(
            f"{name} is not positive definite (lambda_min={report.lambda_min:.6g})"
        )
    return p


@dataclass(frozen=True)
class _LinearSideMaps:
    """Matrices of a linear hybrid system recovered from its evaluators."""

    f: np.ndarray
    gs: list[np.ndarray]
    a_y: np.ndarray          # drift_y x-part
    b_y: np.ndarray          # drift_y y-part
    c_y: list[np.ndarray]    # diffusion_y x-parts
    d_y: list[np.ndarray]    # diffusion_y y-parts
    a_jx: np.ndarray         # jump_x
    h_jx: list[np.ndarray]   # jump_x_gain
    a_jy: np.ndarray         # jump_y x-part
    b_jy: np.ndarray         # jump_y y-part
    c_jy: list[np.ndarray]   # jump_y_gain x-parts
    d_jy: list[np.ndarray]   # jump_y_gain y-parts


def extract_linear_maps(side: SideSystem, seed: int = 0) -> _LinearSideMaps:
    """Probe the evaluators of a linear hybrid system for their matrices.

    Basis probes recover each matrix; random probes then verify linearity
    (and time/index invariance), raising NotLinear on failure.
    """
    n, q, m = side.n, side.q, side.noise_dim
    rng = np.random.default_rng(seed)
    zq = np.zeros(q)
    zn = np.zeros(n)

    f = _extract_vector_map(lambda x: side.drift_x(x, 0.0), n, n)
    gs = _extract_gain_maps(lambda x: side.diffusion_x(x, 0.0), n, n, m)
    a_y = _extract_vector_map(lambda x: side.drift_y(x, zq, 0.0), n, q)
    b_y = _extract_vector_map(lambda y: side.drift_y(zn, y, 0.0), q, q)
    c_y = _extract_gain_maps(lambda x: side.diffusion_y(x, zq, 0.0), n, q, m)
    d_y = _extract_gain_maps(lambda y: side.diffusion_y(zn, y, 0.0), q, q, m)
    a_jx = _extract_vector_map(lambda x: side.jumps.jump_x(x, 1), n, n)
    h_jx = _extract_gain_maps(lambda x: side.jumps.jump_x_gain(x, 1), n, n, m)
    a_jy = _extract_vector_map(lambda x: side.jumps.jump_y(x, zq, 1), n, q)
    b_jy = _extract_vector_map(lambda y: side.jumps.jump_y(zn, y, 1), q, q)
    c_jy = _extract_gain_maps(lambda x: side.jumps.jump_y_gain(x, zq, 1), n, q, m)
    d_jy = _extract_gain_maps(lambda y: side.jumps.jump_y_gain(zn, y, 1), q, q, m)

    for t, k in ((0.7, 2), (2.3, 3)):
        _linearity_check(lambda x: side.drift_x(x, t), lambda x: f @ x, n, "drift_x", rng)
        _linearity_check(
            lambda x: side.diffusion_x(x, t),
            lambda x: _columns([g @ x for g in gs]).reshape(n, m) if m else np.zeros((n, 0)),
            n, "diffusion_x", rng,
        )
        _linearity_check(
            lambda x: side.jumps.jump_x(x, k), lambda x: a_jx @ x, n, "jump_x", rng
        )

        def joint(v):
            return side.drift_y(v[:n], v[n:], t)

        def joint_mat(v):
            return a_y @ v[:n] + b_y @ v[n:]

        _linearity_check(joint, joint_mat, n + q, "drift_y", rng)

        def joint_diff(v):
            return side.diffusion_y(v[:n], v[n:], t)

        def joint_diff_mat(v):
            if not m:
                return np.zeros((q, 0))
            return _columns([c_y[j] @ v[:n] + d_y[j] @ v[n:] for j in range(m)])

        _linearity_check(joint_diff, joint_diff_mat, n + q, "diffusion_y", rng)

        def joint_jump(v):
            return side.jumps.jump_y(v[:n], v[n:], k)

        def joint_jump_mat(v):
            return a_jy @ v[:n] + b_jy @ v[n:]

        _linearity_check(joint_jump, joint_jump_mat, n + q, "jump_y", rng)

        def joint_gain(v):
            return side.jumps.jump_y_gain(v[:n], v[n:], k)

        def joint_gain_mat(v):
            if not m:
                return np.zeros((q, 0))
            return _columns([c_jy[j] @ v[:n] + d_jy[j] @ v[n:] for j in range(m)])

        _linearity_check(joint_gain, joint_gain_mat, n + q, "jump_y_gain", rng)

    return _LinearSideMaps(f, gs, a_y, b_y, c_y, d_y, a_jx, h_jx, a_jy, b_jy, c_jy, d_jy)


def quadratic_condition_constants(
    side: SideSystem,
    p,
    p_tilde,
    split: float = 1.0,
    growth: bool = False,
    seed: int = 0,
) -> ConditionConstants:
    """Exact condition constants of a linear hybrid system for V = x'Px, W = y'Qy.

    The generator and jump second moments of linear maps are exact quadratic
    forms (Gaussian cross terms vanish; E[u'Mu] sums the component forms), so
    each constant is the largest eigenvalue of the corresponding P- or
    Q-weighted pencil.  Cross x-y terms are split by the s-parameter bound
    2 a' P b <= s b' P b + (1/s) a' P a; only the self constants enter the
    interval tests downstream.

    With growth=False, `alpha` is the decay rate of the x-generator
    (positive when the continuous block is stable); with growth=True it is
    the growth rate bound (positive constant, floored), as consumed by the
    impulse-stabilized test.
    """
    if split <= 0:
        raise ValueError("split must be positive")
    p = _gate_pd(p, "p")
    p_tilde = _gate_pd(p_tilde, "p_tilde")
    maps = extract_linear_maps(side, seed=seed)
    s = float(split)

    # x-generator: F'P + PF + sum Gj'P Gj
    m_lv = symmetrize(ct_form(maps.f, maps.gs, p))
    if growth:
        alpha = max(pencil_top(m_lv, p), _POSITIVE_FLOOR)
    else:
        alpha = decay_rate(m_lv, p)

    # coupled generator, split into x- and y-weighted forms
    m_ax = s * (maps.a_y.T @ p_tilde @ maps.a_y)
    for c in maps.c_y:
        m_ax = m_ax + (1.0 + s) * (c.T @ p_tilde @ c)
    m_ay = p_tilde @ maps.b_y + maps.b_y.T @ p_tilde + (1.0 / s) * p_tilde
    for d in maps.d_y:
        m_ay = m_ay + (1.0 + 1.0 / s) * (d.T @ p_tilde @ d)
    alpha_cross = max(pencil_top(symmetrize(m_ax), p), _POSITIVE_FLOOR)
    alpha_self = max(pencil_top(symmetrize(m_ay), p_tilde), _POSITIVE_FLOOR)

    # x-jump second moment: (I + A)'P(I + A) + sum Hj'P Hj, the unit-step
    # one-step form
    beta = max(pencil_top(symmetrize(dt_form(maps.a_jx, maps.h_jx, p, 1.0)), p), _POSITIVE_FLOOR)

    # y-jump second moment, split likewise
    m_bx = maps.a_jy.T @ p_tilde @ maps.a_jy
    for c in maps.c_jy:
        m_bx = m_bx + c.T @ p_tilde @ c
    m_by = dt_form(maps.b_jy, maps.d_jy, p_tilde, 1.0)
    beta_cross = max((1.0 + s) * pencil_top(symmetrize(m_bx), p), _POSITIVE_FLOOR)
    beta_self = max((1.0 + 1.0 / s) * pencil_top(symmetrize(m_by), p_tilde), _POSITIVE_FLOOR)

    return ConditionConstants(
        alpha=alpha,
        alpha_cross=alpha_cross,
        alpha_self=alpha_self,
        beta=beta,
        beta_cross=beta_cross,
        beta_self=beta_self,
        dt_under=side.schedule.dt_under,
        dt_over=side.schedule.dt_over,
        split=s,
    )


def impulse_second_moment(side: SideSystem, p_tilde, x, y, k: int = 1) -> float:
    """Exact E[(y + jump)' Q (y + jump)] over the impulse draw.

    Valid for arbitrary jump maps: with mean part mu and gain matrix Gm,
    the expectation is mu' Q mu + trace(Gm' Q Gm).
    """
    p_tilde = as_symmetric(p_tilde, "p_tilde")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mean = y + np.asarray(side.jumps.jump_y(x, y, k), dtype=float)
    gain = np.asarray(side.jumps.jump_y_gain(x, y, k), dtype=float).reshape(side.q, -1)
    return float(mean @ p_tilde @ mean + np.trace(gain.T @ p_tilde @ gain))


def check_thm1(c: ConditionConstants, slack: float = STRICT_SLACK) -> bool:
    """Interval test for a stabilizing continuous block with possibly
    destabilizing jumps:

        ln(beta) / alpha < dt_under <= dt_over < -ln(beta_self) / alpha_self,

    all strict as stated; requires alpha > 0.
    """
    if c.alpha <= 0:
        raise ValueError("check_thm1 needs alpha > 0 (stable continuous block)")
    lower = math.log(c.beta) / c.alpha
    upper = -math.log(c.beta_self) / c.alpha_self
    return (
        c.dt_under - lower > slack
        and c.dt_under <= c.dt_over
        and upper - c.dt_over > slack
    )


def check_thm2(c: ConditionConstants, slack: float = STRICT_SLACK) -> bool:
    """Interval test for stabilizing jumps against a growing continuous block:

        dt_over < min(-ln(beta) / alpha, -ln(beta_self) / alpha_self),

    with alpha the growth rate (positive).
    """
    if c.alpha <= 0:
        raise ValueError("check_thm2 needs alpha > 0 (growth-rate convention)")
    upper = min(-math.log(c.beta) / c.alpha, -math.log(c.beta_self) / c.alpha_self)
    return upper - c.dt_over > slack


@dataclass(frozen=True)
class Thm4Check:
    """Stepsize admissibility of the coupled system at a quadratic certificate.

    `discrete_factor` is the exact one-step mean-square factor of the scheme
    relative to P; the reported (alpha_self, beta_self) are one admissible
    choice of split constants, with `stepsize_bound` the window they induce,
    not the supremum over all choices.
    """

    passed: bool
    alpha: float
    discrete_factor: float
    alpha_self: float
    beta_self: float
    stepsize_bound: float


def check_thm4(
    sde: LinearSde,
    p,
    dt: float,
    split: float | None = None,
    slack: float = STRICT_SLACK,
) -> Thm4Check:
    """Does the coupled exact/numerical system inherit stability at stepsize dt?

    Requires the continuous block stable at P (decay rate alpha > 0) and
    tests dt < -ln(beta_self) / alpha_self.  With `split` given, the cross
    terms are broken with that fixed s on both the generator and the jump;
    by default the two splits are chosen independently (admissible, since
    the conditions only require existence): the jump split keeps beta_self
    below 1 whenever the one-step factor d < 1, and alpha_self is then set
    to -ln(beta_self) / (2 dt), so the verdict reduces to alpha > 0 and
    d < 1, matching the equivalence chain for linear systems.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    p = _gate_pd(p, "p")
    alpha = decay_rate(ct_quadratic_form(sde, p, 0.0), p)
    d = pencil_top(dt_quadratic_form(sde, p, dt), p)

    if split is not None:
        if split <= 0:
            raise ValueError("split must be positive")
        alpha_self = 1.0 / split
        beta_self = max((1.0 + 1.0 / split) * d, _POSITIVE_FLOOR)
        bound = -math.log(beta_self) / alpha_self
        passed = alpha > slack and bound - dt > slack
        return Thm4Check(passed, alpha, d, alpha_self, beta_self, bound)

    if alpha <= slack or d >= 1.0 - slack:
        beta_self = max((1.0 + d) / 2.0, _POSITIVE_FLOOR)
        return Thm4Check(False, alpha, d, float("nan"), beta_self, float("-inf") if beta_self >= 1 else 0.0)
    beta_self = max((1.0 + d) / 2.0, _POSITIVE_FLOOR)
    alpha_self = -math.log(beta_self) / (2.0 * dt)
    bound = -math.log(beta_self) / alpha_self  # = 2 dt by construction
    return Thm4Check(True, alpha, d, alpha_self, beta_self, bound)


@dataclass(frozen=True)
class Thm5Check:
    """Mean-square stepsize condition at a quadratic certificate."""

    passed: bool
    margin: float
    alpha_bar: float


def check_thm5(sde: LinearSde, p, dt_bar: float, eps: float = 0.01) -> Thm5Check:
    """Test L V(x) + dt_bar V(F x) <= -alpha_bar V(x) with alpha_bar dt_bar < 1.

    For linear systems the margin is exact: the decay rate of
    F'P + PF + sum Gj'P Gj + dt_bar F'P F relative to P.  The reported
    alpha_bar is min(margin, (1 - eps) / dt_bar) so the side constraint
    alpha_bar * dt_bar < 1 always holds when the margin is positive.
    """
    if dt_bar < 0:
        raise ValueError("dt_bar must be nonnegative")
    p = _gate_pd(p, "p")
    margin = decay_rate(ct_quadratic_form(sde, p, dt_bar), p)
    passed = margin > STRICT_SLACK
    if dt_bar > 0:
        alpha_bar = min(margin, (1.0 - eps) / dt_bar)
    else:
        alpha_bar = margin
    return Thm5Check(passed, margin, alpha_bar)


@dataclass(frozen=True)
class Thm6Check:
    """One-step decrease condition of the scheme at a quadratic certificate."""

    passed: bool
    c_bar: float
    implied_alpha: float


def check_thm6(sde: LinearSde, p, dt_bar: float) -> Thm6Check:
    """Test E[V(X_{k+1}) | X_k] <= c_bar V(X_k) with c_bar < 1 at stepsize dt_bar.

    For linear systems c_bar is exact: the largest eigenvalue of the
    P-pencil of (I + dt_bar F)'P(I + dt_bar F) + dt_bar sum Gj'P Gj.  Also
    reports the implied continuous rate (1 - c_bar) / dt_bar.
    """
    if dt_bar <= 0:
        raise ValueError("dt_bar must be positive")
    p = _gate_pd(p, "p")
    c_bar = pencil_top(dt_quadratic_form(sde, p, dt_bar), p)
    passed = 1.0 - c_bar > STRICT_SLACK
    return Thm6Check(passed, c_bar, (1.0 - c_bar) / dt_bar)
