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

from .errors import SingularOperator, ValidationFailed
from .matrix_kernels import (
    ct_form,
    ct_operator,
    ct_stepsize_bound,
    decay_rate,
    gate_pd,
    is_positive_definite,
    lu_factors,
    pencil_top,
    solve_ct_lyapunov,
    solve_dt_lyapunov,
    solve_gated,
)
from .models import LinearSde, SideSystem, linear_compact_form

#: Absolute slack applied to every strict inequality at a boundary.
STRICT_SLACK = 1e-12

#: Floor applied to constants the theorems require to be positive.
_POSITIVE_FLOOR = 1e-12

#: `quadratic_condition_constants` checks this many gaps against their bounds, with this relative slack.
_GAP_PROBES = 1000
_GAP_SLACK = 1e-6

#: Thm 5 reports alpha_bar <= (1 - _THM5_EPS) / dt_bar, keeping alpha_bar dt_bar < 1.
_THM5_EPS = 0.01


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
    dt_bar: float
    detail: str = ""

    def report(self) -> str:
        lines = [f"verdict: {'feasible' if self.feasible else 'infeasible'}",
                 f"dt_bar: {self.dt_bar:.12g}", f"margin: {self.margin:.12g}"]
        if self.p is not None:
            lines.append("P:")
            for row in self.p:
                lines.append("  " + " ".join(f"{v:.12g}" for v in row))
        if self.detail:
            lines.append(f"detail: {self.detail}")
        return "\n".join(lines)


def _certificate(param: float, solve: Callable[[], np.ndarray], form: Callable) -> StabilityCertificate:
    """Solve the defining equation with Q = I (solve()), gate the candidate
    P > 0, and require the decay rate of form(P) relative to P to be
    positive; a singular boundary maps to infeasible."""
    try:
        p = solve()
    except SingularOperator as exc:
        return StabilityCertificate(False, None, 0.0, param, f"boundary: {exc}")
    gate = is_positive_definite(p)
    if not gate:
        return StabilityCertificate(
            False, None, gate.lambda_min, param, "candidate P is not positive definite"
        )
    margin = decay_rate(form(p), p)
    if margin <= STRICT_SLACK:
        detail = "margin not positive" if margin <= 0.0 else f"margin at or below the {STRICT_SLACK:g} slack"
        return StabilityCertificate(False, None, margin, param, detail)
    return StabilityCertificate(True, p, margin, param)


def cp_lyapunov_feasible(sde: LinearSde, dt_bar: float) -> StabilityCertificate:
    """Feasibility of F^T P + P F + sum Gj^T P Gj + dt_bar F^T P F < 0, P > 0.

    With dt_bar = 0 this is the classical mean-square stability test of the
    continuous system; with dt_bar > 0 feasibility additionally certifies the
    explicit scheme and the coupled hybrid system for every stepsize in
    (0, dt_bar].
    """
    if not 0 <= dt_bar < math.inf:
        raise ValueError("dt_bar must be nonnegative and finite")
    return _certificate(
        dt_bar, lambda: solve_ct_lyapunov(sde.drift_matrix, sde.noise_matrices, dt_bar, np.eye(sde.dim)),
        lambda p: ct_form(sde.stack, p, dt_bar))


def discrete_ms_stable(sde: LinearSde, dt: float) -> StabilityCertificate:
    """Mean-square stability of the explicit one-step scheme at stepsize dt.

    Solves (I + dt F)^T P (I + dt F) + dt sum Gj^T P Gj - P = -I and gates
    P > 0; a singular boundary maps to infeasible.  The margin is dt times
    that of the dt_bar = dt certificate.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    return _certificate(
        dt, lambda: solve_dt_lyapunov(sde.drift_matrix, sde.noise_matrices, dt, np.eye(sde.dim)),
        lambda p: dt * ct_form(sde.stack, p, dt))


def scalar_max_stepsize(lam: float, mu: float) -> float | None:
    """Closed-form stepsize bound -(2 lam + mu^2) / lam^2 for the scalar system.

    Defined (and positive) exactly when 2 lam + mu^2 < 0; returns None
    otherwise, including the marginal case 2 lam + mu^2 = 0.  It divides by
    lam twice, as lam^2 can underflow to 0; past the float range it is inf.
    """
    drift_margin = 2.0 * lam + mu * mu
    if drift_margin >= 0.0:
        return None
    return -drift_margin / lam / lam


def stepsize_certificate(sde: LinearSde) -> tuple[float | None, StabilityCertificate]:
    """The bound of `max_stepsize` together with the dt_bar = 0 certificate.

    L0 is built and LU-factored once; the factors solve the certificate
    (the same solve, residual gate, P > 0 gate and margin as
    `cp_lyapunov_feasible(sde, 0.0)`) and then drive the Arnoldi iteration
    for the bound, started at the certificate's P.  Returns (None, cert)
    when the certificate is infeasible.
    """
    factors = lu_factors(ct_operator(sde.stack))
    cert = _certificate(0.0, lambda: solve_gated(factors, lambda p: ct_form(sde.stack, p), np.eye(sde.dim)),
                        lambda p: ct_form(sde.stack, p))
    if not cert.feasible:
        return None, cert
    return ct_stepsize_bound(factors, sde.drift_matrix, cert.p), cert


def max_stepsize(sde: LinearSde) -> float | None:
    """Supremum stepsize with the cyber-physical inequality feasible.

    With L0: P -> F^T P + P F + sum Gj^T P Gj and K: P -> F^T P F, the
    operator L0 + dt_bar K is stable iff L0 is stable and
    dt_bar * rho(L0^{-1} K) < 1 (Damm, LNCIS 297, 2004), so the bound is
    1 / rho(L0^{-1} K), an eigenvalue problem on symmetric matrices.  Only
    the dominant eigenvalue is needed: Arnoldi iteration (ARPACK, k = 1)
    finds it through one LU of L0, the one that also solves the dt_bar = 0
    certificate.  It starts at that certificate's P, which lies inside the
    cone of positive semidefinite matrices that -L0^{-1} K preserves.  For
    n = 1 the operator has one coordinate, and the bound is its exact
    ratio.  The bound is exact to round-off, with no tolerance to choose.
    Returns None when even dt_bar = 0 is infeasible; raises NoConvergence
    when the Arnoldi iteration does not converge.
    """
    return stepsize_certificate(sde)[0]


@dataclass(frozen=True)
class ConditionConstants:
    """Constants entering the impulse-interval tests.

    `alpha` bounds the generator of the x-block (decay rate by default,
    growth rate under the growth convention) and `alpha_self` the V(y) term
    of the coupled generator; `beta` bounds the x-jump second moment and
    `beta_self` the V(y) term of the y-jump second moment.
    """

    alpha: float
    alpha_self: float
    beta: float
    beta_self: float
    dt_under: float
    dt_over: float

    def __post_init__(self):
        if not all(np.isfinite((self.alpha, self.alpha_self, self.beta, self.beta_self))):
            raise ValueError("condition constants must be finite")
        if self.alpha_self <= 0 or self.beta_self <= 0:
            raise ValueError("alpha_self and beta_self must be positive")
        if not (0 < self.dt_under <= self.dt_over):
            raise ValueError("need 0 < dt_under <= dt_over")


def quadratic_condition_constants(
    side: SideSystem,
    p,
    p_tilde,
    split: float = 1.0,
    growth: bool = False,
) -> ConditionConstants:
    """Exact condition constants of a linear hybrid system for V = x'Px, W = y'Qy.

    The generator and jump second moments of linear maps are exact quadratic
    forms (Gaussian cross terms vanish; E[u'Mu] sums the component forms), so
    each constant is the largest eigenvalue of the corresponding P- or
    Q-weighted pencil.  Cross x-y terms are split by the s-parameter bound
    2 a' P b <= s b' P b + (1/s) a' P a, which scales the y-weighted
    (self) forms; the x-weighted (cross) forms enter no interval test and
    are not computed.

    With growth=False, `alpha` is the decay rate of the x-generator
    (positive when the continuous block is stable); with growth=True it is
    the growth rate bound (positive constant, floored), as consumed by the
    impulse-stabilized test.  The matrices are x and y blocks of the flow
    and jump stacks of `linear_compact_form(side)`, which raises NotLinear
    for a nonlinear, time-dependent or index-dependent evaluator.

    `check_thm1` and `check_thm2` trust the declared dt_under and dt_over that
    the constants carry, so the gaps t_{k+1} - t_k, k < 1000, are checked
    first (relative slack 1e-6): ValidationFailed names the first outside.
    """
    if not 0 < split < math.inf:
        raise ValueError("split must be positive and finite")
    p = gate_pd(p, "p")
    p_tilde = gate_pd(p_tilde, "p_tilde")
    sched = side.schedule
    for k, gap in enumerate(np.diff([sched.time(k) for k in range(_GAP_PROBES + 1)]).tolist()):
        if not sched.dt_under * (1.0 - _GAP_SLACK) <= gap <= sched.dt_over * (1.0 + _GAP_SLACK):
            raise ValidationFailed(f"schedule gap t_{k + 1} - t_{k} = {gap:.6g} lies outside the declared "
                                   f"[dt_under, dt_over] = [{sched.dt_under:.6g}, {sched.dt_over:.6g}]")
    flow, jump = linear_compact_form(side)
    n = side.n
    s = float(split)

    # x-generator: F'P + PF + sum Gj'P Gj
    m_lv = ct_form(flow[:, :n, :n], p)
    if growth:
        alpha = max(pencil_top(m_lv, p), _POSITIVE_FLOOR)
    else:
        alpha = decay_rate(m_lv, p)

    # coupled generator, its y-weighted form after the split
    b_y = flow[0, n:, n:]
    m_ay = p_tilde @ b_y + b_y.T @ p_tilde + (1.0 / s) * p_tilde
    for g in flow[1:, n:, n:]:
        m_ay = m_ay + (1.0 + 1.0 / s) * (g.T @ p_tilde @ g)
    alpha_self = max(pencil_top(m_ay, p_tilde), _POSITIVE_FLOOR)

    # x-jump second moment: (I + J)'P(I + J) + sum Hj'P Hj = P + ct_form([J, H], P, 1);
    # a beta below 1e-4 keeps only 1e-16 / beta relative, clamped at the floor
    beta = max(1.0 + pencil_top(ct_form(jump[:, :n, :n], p, 1.0), p), _POSITIVE_FLOOR)

    # y-jump second moment, its y-weighted form after the split
    m_by = ct_form(jump[:, n:, n:], p_tilde, 1.0)
    beta_self = max((1.0 + 1.0 / s) * (1.0 + pencil_top(m_by, p_tilde)), _POSITIVE_FLOOR)

    return ConditionConstants(
        alpha=alpha,
        alpha_self=alpha_self,
        beta=beta,
        beta_self=beta_self,
        dt_under=sched.dt_under,
        dt_over=sched.dt_over,
    )


def check_thm1(c: ConditionConstants) -> bool:
    """Interval test for a stabilizing continuous block with possibly
    destabilizing jumps:

        ln(beta) / alpha < dt_under <= dt_over < -ln(beta_self) / alpha_self,

    all strict as stated (each by STRICT_SLACK); requires alpha > 0.
    """
    if c.alpha <= 0:
        raise ValueError("check_thm1 needs alpha > 0 (stable continuous block)")
    lower = math.log(c.beta) / c.alpha
    upper = -math.log(c.beta_self) / c.alpha_self
    return (
        c.dt_under - lower > STRICT_SLACK
        and c.dt_under <= c.dt_over
        and upper - c.dt_over > STRICT_SLACK
    )


def check_thm2(c: ConditionConstants) -> bool:
    """Interval test for stabilizing jumps against a growing continuous block:

        dt_over < min(-ln(beta) / alpha, -ln(beta_self) / alpha_self),

    with alpha the growth rate (positive).
    """
    if c.alpha <= 0:
        raise ValueError("check_thm2 needs alpha > 0 (growth-rate convention)")
    upper = min(-math.log(c.beta) / c.alpha, -math.log(c.beta_self) / c.alpha_self)
    return upper - c.dt_over > STRICT_SLACK


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
) -> Thm4Check:
    """Does the coupled exact/numerical system inherit stability at stepsize dt?

    Requires the continuous block stable at P (decay rate alpha > 0) and
    tests dt < -ln(beta_self) / alpha_self.  With `split` given, the cross
    terms are broken with that fixed s on both the generator and the jump;
    by default the two splits are chosen independently (admissible, since
    the conditions only require existence): the jump split keeps beta_self
    below 1 whenever the one-step factor d < 1, and alpha_self is then set
    to -ln(beta_self) / (2 dt), so the verdict reduces to alpha > 0 and
    d < 1, matching the equivalence chain for linear systems, with
    d = 1 - dt * decay_rate(ct_form([F, G], P, dt), P).
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if split is not None and not 0 < split < math.inf:
        raise ValueError("split must be positive and finite")
    p = gate_pd(p, "p")
    alpha = decay_rate(ct_form(sde.stack, p), p)
    d = 1.0 - dt * decay_rate(ct_form(sde.stack, p, dt), p)

    if split is not None:
        alpha_self = 1.0 / split
        beta_self = max((1.0 + 1.0 / split) * d, _POSITIVE_FLOOR)
        bound = -math.log(beta_self) / alpha_self
        passed = alpha > STRICT_SLACK and bound - dt > STRICT_SLACK
        return Thm4Check(passed, alpha, d, alpha_self, beta_self, bound)

    beta_self = max((1.0 + d) / 2.0, _POSITIVE_FLOOR)
    if alpha <= STRICT_SLACK or d >= 1.0 - STRICT_SLACK:
        return Thm4Check(False, alpha, d, float("nan"), beta_self, float("-inf") if beta_self >= 1 else 0.0)
    alpha_self = -math.log(beta_self) / (2.0 * dt)
    bound = -math.log(beta_self) / alpha_self  # = 2 dt by construction
    return Thm4Check(True, alpha, d, alpha_self, beta_self, bound)


@dataclass(frozen=True)
class Thm5Check:
    """Mean-square stepsize condition at a quadratic certificate."""

    passed: bool
    margin: float
    alpha_bar: float


def check_thm5(sde: LinearSde, p, dt_bar: float) -> Thm5Check:
    """Test L V(x) + dt_bar V(F x) <= -alpha_bar V(x) with alpha_bar dt_bar < 1.

    For linear systems the margin is exact: the decay rate of
    F'P + PF + sum Gj'P Gj + dt_bar F'P F relative to P.  The reported
    alpha_bar is min(margin, (1 - _THM5_EPS) / dt_bar) so the side constraint
    alpha_bar * dt_bar < 1 always holds when the margin is positive.
    """
    if not 0 <= dt_bar < math.inf:
        raise ValueError("dt_bar must be nonnegative and finite")
    p = gate_pd(p, "p")
    margin = decay_rate(ct_form(sde.stack, p, dt_bar), p)
    passed = margin > STRICT_SLACK
    if dt_bar > 0:
        alpha_bar = min(margin, (1.0 - _THM5_EPS) / dt_bar)
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

    For linear systems c_bar = 1 - dt_bar * rate is exact, with rate the
    decay rate of ct_form([F, G], P, dt_bar) relative to P; the implied
    continuous rate is that rate, the margin of check_thm5 at dt_bar.
    """
    if not 0 < dt_bar < math.inf:
        raise ValueError("dt_bar must be positive and finite")
    p = gate_pd(p, "p")
    rate = decay_rate(ct_form(sde.stack, p, dt_bar), p)
    return Thm6Check(dt_bar * rate > STRICT_SLACK, 1.0 - dt_bar * rate, rate)
