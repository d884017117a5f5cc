"""Simulation workbench for kernel-interacting population models: a
particle simulator, its nonlocal cross-diffusion PDE limit, stochastic-flow
and Feynman-Kac estimators, and a bounded-Lipschitz metric engine.
"""

from .grids import GridField
from .initial import InitialCondition, project_to_grid
from .kernels import (EmpiricalMeasure, KernelSpec, convolve_empirical,
                      convolve_field, convolve_field_grid, mollifier)
from .metrics import DiscreteMeasure, bl_distance, rate_fit
from .model import CoefficientModel, ProbeSpec, builtin_model, validate

__all__ = [
    "GridField", "InitialCondition", "project_to_grid",
    "EmpiricalMeasure", "KernelSpec", "convolve_empirical", "convolve_field",
    "convolve_field_grid", "mollifier",
    "DiscreteMeasure", "bl_distance", "rate_fit",
    "CoefficientModel", "ProbeSpec", "builtin_model", "validate",
]

__version__ = "0.1.0"
