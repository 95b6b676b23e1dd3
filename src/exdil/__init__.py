"""exdil: exciton diffusion length estimation on randomly perturbed films.

The package solves a screened diffusion equation over a thin film whose
absorbing interface fluctuates randomly, computes expected
photoluminescence either by collocation over the coefficient space or by a
perturbation expansion in the roughness size, and estimates the diffusion
length from photoluminescence curves by Newton iteration on a least-squares
misfit.
"""

__version__ = "0.1.0"

from .interface import (InterfaceModel, InterfaceSample, ThetaMoments,
                        UniformDist, check_period, moments, profile, sample)
from .fd_core import (EllipticOperator, Field2D, Grid2D, PdeCoefficients,
                      SolverError, trapezoid_2d)
from .forward_mapped import (DeviceConfig, DomainValidityError,
                             GenerationProfile, MappedSolution, Solution1D,
                             expected_mapped_pl, sensitivities_mapped,
                             solve_mapped_1d, solve_mapped_2d,
                             solve_mapped_profile)
from .collocation import (MONTE_CARLO, SMOLYAK, TENSOR_GL, CollocationError,
                          ExpectationResult, QuadratureRule, build_rule,
                          expect)
from .inverse import (SENSITIVITY_PDE, AsymptoticForward,
                      DeviceFamily, EstimationError, EstimationTrace,
                      MappedCollocationForward, NewtonOptions,
                      OneDimensionalForward, PLCurve, newton_estimate,
                      objective, objective_with_derivatives, sensitivities_1d)
from .experiments import (ConvergenceResult, SlopeFit, TimingResult,
                          ValidationResult, convergence_study,
                          estimation_study, fit_slope,
                          generate_synthetic_curve, timing_study,
                          validation_study, write_csv)
