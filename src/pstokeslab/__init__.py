"""Numerical laboratory for the stochastic symmetric p-Stokes system.

Simulates sample paths of the velocity field driven by truncated
cylindrical Wiener noise on the unit square, reconstructs both pressure
components, and measures temporal regularity (Nikolskii/Besov-Orlicz
exponents) of the velocity, the nonlinear strain tensor, and the
time-integrated stochastic pressure.
"""

__version__ = "0.1.0"

from .grid import Grid, ScalarField, TensorField, VectorField
from .noise import NoiseSpec, PathRng
from .potential import PotentialParams
from .projection import BogovskiiOperator, HelmholtzProjector
from .seminorms import OrliczSpec, SampledPath
from .stepping import SolverConfig, Stepper

__all__ = [
    "__version__",
    "Grid",
    "ScalarField",
    "VectorField",
    "TensorField",
    "PotentialParams",
    "NoiseSpec",
    "PathRng",
    "HelmholtzProjector",
    "BogovskiiOperator",
    "SampledPath",
    "OrliczSpec",
    "SolverConfig",
    "Stepper",
]
