"""Stochastic subgradient mirror descent with weighted iterate averaging."""

from .averaging import AverageState
from .gaussian import norm_cdf, norm_pdf, norm_ppf, rng_from_seed, standard_normals
from .harness import (
    ConfigError,
    ExperimentConfig,
    McSummary,
    emit_csv,
    parse_config,
    run_experiment,
    sweep_a,
    verify_suite,
)
from .sets import CappedBox, bregman_diameter_sq
from .solver import (
    ProblemHandle,
    RunTrace,
    compact_rate_bound,
    noiseless_compact_rate_bound,
    optimal_stepsize_scale,
    prox_step,
    run_compact,
    run_strongly_convex,
    strongly_convex_rate_bounds,
)
from .stepsizes import (
    InverseSqrtStepsize,
    NesterovStepsize,
    TsengStepsize,
    alpha_cap_violations,
    alpha_sq_sum_violations,
    sqrt_sum_growth_violations,
    step_condition_violations,
)
from .utility import (
    AffinePiece,
    Envelope,
    UtilityInstance,
    build_envelope,
    default_instance,
    default_pieces,
    estimate_constants,
    expected_phi_gaussian,
    f_value,
    grad_f,
    make_instance,
    make_problem,
    phi,
    phi_slope,
    reference_solution,
    stochastic_subgradient,
)

__version__ = "0.1.0"
