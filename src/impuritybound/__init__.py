"""Numerics for the stability analysis of a point-interacting impurity in
a Fermi gas: stability functional and critical mass, periodic singular
forms on the momentum lattice, Dirichlet-box spectral machinery,
localization geometry, and assembled energy lower bounds.
"""

from .errors import (AccuracyError, DomainError, NumericError,
                     PreconditionError, SearchError, StabilityRegimeError)
from .params import (LambdaArgs, LambdaResult, ModelParams, ShiftedLattice,
                     SupSearchConfig, default_a_const)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "DomainError", "NumericError", "PreconditionError",
    "SearchError", "StabilityRegimeError", "LambdaArgs", "LambdaResult",
    "ModelParams", "ShiftedLattice", "SupSearchConfig",
    "default_a_const", "__version__",
]
