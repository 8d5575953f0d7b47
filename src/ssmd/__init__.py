"""Stochastic subgradient mirror descent with weighted iterate averaging."""

from .averaging import AverageState, weights
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
from .mirror import MirrorMap, bregman, check_quadratic_upper_bound, grad_w, prox_step
from .sets import CappedBox, Simplex, bregman_diameter_sq
from .solver import (
    ProblemHandle,
    RunTrace,
    combined_second_moment,
    compact_rate_bound,
    noiseless_compact_rate_bound,
    optimal_stepsize_scale,
    run_baseline_uniform,
    run_compact,
    run_strongly_convex,
    strongly_convex_rate_bounds,
)
from .stepsizes import (
    InverseSqrtStepsize,
    NesterovStepsize,
    TsengStepsize,
    verify_alpha_cap,
    verify_alpha_sq_sum_bound,
    verify_sqrt_sum_growth,
    verify_step_condition,
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
