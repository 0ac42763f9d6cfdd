"""energylab: exact additive energies of discrete-cube subsets, the discrete
L4 Fourier-norm inequality, and certified lower bounds for the energy
exponent t_n (with t_n = 4/q_n duality)."""

__version__ = "0.1.0"

from .certificates import (Certificate, DiscretizationReport, GaussianScheduleParams,
                           build_gaussian_certificate, build_perturbation_certificate,
                           certificate_from_dict, certificate_to_dict,
                           continuum_discretization_report, evaluate_certificate,
                           interval_overlap_sum, revalidate_certificate)
from .continuum import (GaussianSpec, QuadratureError, gaussian_l4hat, gaussian_lq,
                        gaussian_ratio, quadrature_l4hat, quadrature_lq_pow)
from .discrete_core import (CapExceededError, DiscreteFunction, InvalidExponentError,
                            LatticeSet, RatioReport, ZeroFunctionError, energy_bruteforce,
                            energy_interval_formula, energy_of_set, fourier_l4_pow4,
                            fourier_l4_pow4_quadruple, lq_norm, ratio_report, tensor_power,
                            trivial_lower_bound)
from .experiments import (BallExperimentRow, BoundsRow, asymptotic_target,
                          ball_energy_experiment, ball_lattice_set, bounds_table,
                          conjecture_target, manifest_document, results_document)
from .optimizer import OptimizerConfig, OptimizerResult, QnEstimate, estimate_qn, maximize_ratio

__all__ = [
    "__version__",
    "BallExperimentRow", "BoundsRow", "CapExceededError",
    "Certificate", "DiscreteFunction", "DiscretizationReport", "GaussianScheduleParams",
    "GaussianSpec", "InvalidExponentError", "LatticeSet",
    "OptimizerConfig", "OptimizerResult", "QnEstimate", "QuadratureError", "RatioReport",
    "ZeroFunctionError", "asymptotic_target", "ball_energy_experiment", "ball_lattice_set",
    "bounds_table", "build_gaussian_certificate",
    "build_perturbation_certificate", "certificate_from_dict",
    "certificate_to_dict", "conjecture_target", "continuum_discretization_report",
    "energy_bruteforce", "energy_interval_formula", "energy_of_set",
    "estimate_qn", "evaluate_certificate",
    "fourier_l4_pow4", "fourier_l4_pow4_quadruple", "gaussian_l4hat", "gaussian_lq",
    "gaussian_ratio", "interval_overlap_sum", "lq_norm", "manifest_document",
    "maximize_ratio", "quadrature_l4hat", "quadrature_lq_pow", "ratio_report",
    "results_document", "revalidate_certificate", "tensor_power",
    "trivial_lower_bound",
]
