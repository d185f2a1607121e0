"""Core value types shared by all modules.

Units follow the convention hbar = 1 with gas-particle mass 1: momenta are
inverse lengths, energies are inverse squared lengths, and the mass ratio m
is dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError


def check_domain(name: str, value, lower: float = -math.inf,
                 strict: bool = True) -> float:
    """The package's one scalar domain check: ``value`` as a float if it is
    finite and above ``lower`` (at or above it when not ``strict``), else a
    DomainError naming the parameter and the value."""
    v = float(value)
    if math.isfinite(v) and (v > lower if strict else v >= lower):
        return v
    if lower == -math.inf:
        raise DomainError(f"{name} must be finite, got {value}")
    want = (("positive" if strict else "non-negative") if lower == 0
            else f"{'>' if strict else '>='} {lower}")
    raise DomainError(f"{name} must be {want} and finite, got {value}")


def as_momentum(v) -> np.ndarray:
    """Coerce an input to a finite 3-component float vector."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"momentum vector must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"momentum vector has non-finite components: {arr}")
    return arr


def default_a_const(m: float) -> float:
    """Coefficient A of the lambda kernel as a function of the mass ratio.

    Chosen so that the kernel's closed-form minimization identities over the
    K parameter hold exactly; see the constants registry for provenance.
    """
    return 1.0 / (m + 2.0)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: mass ratio m, coupling alpha, spectral shift mu,
    particle count n and box side ell. The large box side of the Dirichlet
    and localization code is passed to those functions directly."""

    m: float
    alpha: float = 0.0
    mu: float = 1.0
    n: int = 1
    ell: float = 1.0

    def __post_init__(self):
        check_domain("m", self.m, 0.0)
        check_domain("alpha", self.alpha)
        check_domain("mu", self.mu)
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"particle count must be a positive integer, got n={self.n}")
        check_domain("ell", self.ell, 0.0)


@dataclass(frozen=True)
class ShiftedLattice:
    """Momentum lattice (2*pi/ell) Z^3 translated by an offset vector."""

    spacing: float
    offset: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        check_domain("spacing", self.spacing, 0.0)
        object.__setattr__(self, "offset", tuple(as_momentum(self.offset)))

    def points_within(self, center, radius: float) -> np.ndarray:
        """All lattice points p with |p - center| <= radius, as an (n,3) array."""
        center = as_momentum(center)
        off = np.asarray(self.offset)
        lo = np.floor((center - radius - off) / self.spacing).astype(int)
        hi = np.ceil((center + radius - off) / self.spacing).astype(int)
        axes = [np.arange(lo[i], hi[i] + 1) for i in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = grid * self.spacing + off
        d2 = ((pts - center) ** 2).sum(axis=1)
        return pts[d2 <= radius**2]


@dataclass(frozen=True)
class LambdaArgs:
    """Arguments of the lambda kernel other than the integration variable."""

    s_tilde: tuple
    k_vec: tuple
    q_mu: float
    m: float
    delta: float = 0.0
    n: int = 1
    ell: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "s_tilde", tuple(as_momentum(self.s_tilde)))
        object.__setattr__(self, "k_vec", tuple(as_momentum(self.k_vec)))
        check_domain("m", self.m, 0.0)
        check_domain("q_mu", self.q_mu, 0.0, strict=False)
        check_domain("delta", self.delta, 0.0, strict=False)
        check_domain("ell", self.ell, 0.0)

    @property
    def a_const(self) -> float:
        """Coefficient A of the kernel, always ``default_a_const(m)``."""
        return default_a_const(self.m)


@dataclass(frozen=True)
class SupSearchConfig:
    """Controls for the supremum search behind the stability functional.

    The kernel's scaling freedom pins |s_tilde| to 1; |K| and Q_mu are
    scanned on ``n_magnitude`` log-spaced values over [1e-3, 1e3] and the
    angle between s_tilde and K on ``n_angle`` uniform values, followed by
    derivative-free refinement from the best ``n_starts`` cells.
    """

    n_magnitude: int = 9
    n_angle: int = 7
    n_starts: int = 5
    refine_maxiter: int = 250
    quad_tol: float = 1e-5
    m_tol: float = 1e-3

    def __post_init__(self):
        if not (0 < self.quad_tol < math.inf and 0 < self.m_tol < math.inf):
            raise PreconditionError("tolerances must be positive and finite")


@dataclass(frozen=True)
class LambdaResult:
    """Value and argmax of a supremum search, with error estimates."""

    value: float
    argmax: dict = field(default_factory=dict)
    err_quad: float = 0.0
    err_search: float = 0.0

    def __post_init__(self):
        if self.value < 0:
            raise DomainError(f"functional value must be non-negative, got {self.value}")
        if self.err_quad < 0 or self.err_search < 0:
            raise DomainError("error estimates must be non-negative")
