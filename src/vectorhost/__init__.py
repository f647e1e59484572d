"""Seasonal vector-host reaction-diffusion model on an interval.

Discretizes the three-component host/vector system with T-periodic
coefficients, computes its principal eigenvalues through the period map,
builds periodic orbits by monotone two-sided iteration, and classifies
the long-time regime (extinction, disease-free, endemic) from the signs
of the growth thresholds.
"""

from .coeffs import (COEFFICIENT_FIELDS, CoefficientSet, Expression,
                     ValidationReport, Violation, evaluate, field_lattice,
                     field_values, parse_expression, to_source,
                     validate_hypothesis_H)
from .config import (RunConfig, RunSettings, SweepSettings, load_config,
                     substituted_coeffs)
from .dynamics import (DISEASE_FREE, ENDEMIC, EXTINCTION, INDETERMINATE,
                       ConvergenceReport, RegimeReport, SandwichReport,
                       SolverOptions, build_initial_state, classify_regime,
                       sandwich_check, verify_trichotomy)
from .eigen import (EigenResult, PeriodicOrbit, apply_period_map, gamma_rho,
                    lambda_V, lambda_V_eps, principal_eigenvalue, zeta)
from .errors import (BlowupError, CoefficientError, ConfigError, DomainError,
                     EpsilonTooLarge, EvalError, GapError, InputError,
                     InternalError, NoConvergence, NonUniqueOrbit, ParseError,
                     RegimeError, ReducibleSystemWarning, SolveError,
                     VectorHostError)
from .grid import (BoundarySpec, Grid, assemble_diffusion, build_grid,
                   map_between)
from .periodic import (EndemicPairResult, LogisticOrbitResult, band_edges,
                       shrink_band, solve_Hbar, solve_endemic_pair,
                       solve_logistic_orbit)
from .stepper import (ComponentSpec, LinearPeriodicSystem, NonlinearModel,
                      Trajectory, integrate_over_period, integrate_trajectory,
                      prepare)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coefficients and expressions
    "COEFFICIENT_FIELDS", "CoefficientSet", "Expression", "ValidationReport",
    "Violation", "evaluate", "field_lattice", "field_values",
    "parse_expression", "to_source", "validate_hypothesis_H",
    # configuration
    "RunConfig", "RunSettings", "SweepSettings", "load_config",
    "substituted_coeffs",
    # dynamics and classification
    "DISEASE_FREE", "ENDEMIC", "EXTINCTION", "INDETERMINATE",
    "ConvergenceReport", "RegimeReport", "SandwichReport", "SolverOptions",
    "build_initial_state", "classify_regime", "sandwich_check",
    "verify_trichotomy",
    # eigenvalues
    "EigenResult", "PeriodicOrbit", "apply_period_map", "gamma_rho",
    "lambda_V", "lambda_V_eps", "principal_eigenvalue", "zeta",
    # errors
    "BlowupError", "CoefficientError", "ConfigError", "DomainError",
    "EpsilonTooLarge", "EvalError", "GapError", "InputError", "InternalError",
    "NoConvergence", "NonUniqueOrbit", "ParseError", "RegimeError",
    "ReducibleSystemWarning", "SolveError", "VectorHostError",
    # mesh and boundary operators
    "BoundarySpec", "Grid", "assemble_diffusion", "build_grid", "map_between",
    # periodic orbits
    "EndemicPairResult", "LogisticOrbitResult", "band_edges", "shrink_band",
    "solve_Hbar", "solve_endemic_pair", "solve_logistic_orbit",
    # time stepping
    "ComponentSpec", "LinearPeriodicSystem", "NonlinearModel", "Trajectory",
    "integrate_over_period", "integrate_trajectory", "prepare",
]
