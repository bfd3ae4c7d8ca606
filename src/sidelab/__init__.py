"""sidelab: simulate stochastic impulsive differential equations, couple an
SDE with its explicit discretization into one hybrid (cyber-physical) system,
and certify or estimate mean-square and pth-moment exponential stability."""

from . import cli, errors, estimate, matrix_kernels, models, noise, simulate, stability
from .estimate import (
    ConvergenceStudy,
    Ensemble,
    ExponentEstimate,
    as_exponent,
    moment_exponent,
    scalar_onestep_factor,
    strong_error_sup,
)
from .matrix_kernels import (
    decay_rate,
    is_positive_definite,
    solve_ct_lyapunov,
    solve_dt_lyapunov,
)
from .models import (
    ImpulseSchedule,
    LinearSde,
    SideSystem,
    VectorFieldSde,
    make_cps,
)
from .simulate import (
    DiscretePath,
    HybridTrajectory,
    CpsTrajectory,
    euler_maruyama,
    exact_gbm,
    simulate_cps,
    simulate_scalar_cps_demo,
    simulate_side,
)
from .stability import (
    ConditionConstants,
    StabilityCertificate,
    check_thm1,
    check_thm2,
    check_thm4,
    check_thm5,
    check_thm6,
    cp_lyapunov_feasible,
    discrete_ms_stable,
    max_stepsize,
    quadratic_condition_constants,
    scalar_max_stepsize,
    stepsize_certificate,
)

__version__ = "0.1.0"

