"""Numerical verification toolkit for non-reversible Minkowski-norm
geometry: discrete Finsler calculus with exact integration by parts,
weighted curvature bounds, nonlinear heat flow, and checkers for the
Poincare, log-Sobolev, Talagrand, entropy-energy, Nash, and Sobolev
inequalities with explicit curvature constants."""

from .norms import (AsymNorm1D, EuclideanNorm, LegendreError, MinkowskiNorm,
                    RandersNorm, uniform_smoothness)
from .space import Domain, WeightedSpace, build_space, integrate
from .calculus import DiffOperators, gradient_kink_mask, operators_for
from .curvature import CurvatureReport, admissible_N, effective_K
from .heatflow import (FlowParams, FlowState, FlowSolverError, check_dEdt_identity,
                       decay_rates, evolve, observables, step)
from .transport import lp_transport_cost, quantile_transport_cost, transport_cost_sq
from .inequalities import (ABParameters, CheckReport, SobolevExponents,
                           ab_parameter_solver, check_bochner_pointwise,
                           check_entropy_energy, check_gamma2_integral,
                           check_integrated_bochner, check_logsobolev, check_nash,
                           check_nonsharp_sobolev, check_poincare, check_sobolev,
                           check_sobolev_inf, check_talagrand,
                           estimate_poincare_constant, feasibility_boundary,
                           lichnerowicz_coeff, make_test_bank, run_checker_matrix,
                           sobolev_exponent_table)
from .config import ConfigError, ExperimentConfig, load_config, parse_config

__version__ = "0.1.0"
