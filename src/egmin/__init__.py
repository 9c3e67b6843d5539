"""Optimization on the positive orthant via multiplicative geodesic steps.

The library treats the strictly positive vectors as a Riemannian manifold
under two diagonal metrics (Fisher-Rao ``diag(1/x)`` and interior-point
``diag(1/x^2)``), both of which share the closed-form geodesics
``x * exp(tau * v / x)``.  On top of that geometry it provides Armijo
backtracking along geodesics, four iterative solvers (exponentiated
gradient, two interior-point variants, and Polak-Ribiere-type geometric
conjugate gradients), a KL + Huber-TV tomographic test problem with a
built-in parallel-beam projector, and an independent oracle battery.
"""

from .divergence import (
    NEG_ENTROPY,
    BregmanGenerator,
    HDerivatives,
    bregman,
    h_derivatives,
    kappa,
    kl,
    kl_duality_check,
    log_partition,
    neg_entropy,
    scl_mu,
)
from .geometry import (
    EXP_ARG_MAX,
    ExpMapResult,
    Geodesic,
    GeometryKind,
    as_point,
    exp_map,
    m_hessian_apply,
    metric_inner,
    multiplicative_update,
    riemannian_grad,
    transport_e,
)
from .linesearch import (
    ArmijoParams,
    ConstantStep,
    StepResult,
    StepStatus,
    armijo_backtrack,
    constant_step,
    exact_residual,
    exact_residual_model,
)
from .objective import Objective
from .operators import SparseOperator
from .problems import (
    ProblemInstance,
    build_instance,
    discrete_gradient,
    discrete_gradient_adjoint,
    full_objective,
    huber,
    huber_tv,
    kl_fidelity,
    make_objective,
    make_phantom,
    simulate_data,
)
from .projector import build_projector
from .solvers import (
    IterationRecord,
    Method,
    RunTrace,
    SolverConfig,
    StepInfeasible,
    TerminalStatus,
    check_termination,
    default_x0,
    read_trace_csv,
    relative_lipschitz_step,
    solve,
    step_eg,
    step_ip_e_md,
)
from .verification import (
    BATTERY_SIZE,
    ExactLineSearchResult,
    OracleReport,
    exact_linesearch_oracle,
    fd_gradient_check,
    geodesic_ode_oracle,
    md_argmin_oracle,
    run_battery,
)

__version__ = "0.1.0"
