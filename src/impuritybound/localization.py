"""Smooth partitions of unity for box localization.

Two constructions. The lattice partition {J_i} cuts the big box of side L
into (L/ell)^3 cells of side ell, with J_i^2 proportional to the indicator
of cell i mollified by a bump of radius eps*ell; its gradient constant
scales like 1/ell^2. The cube partition (V_i, V_i-tilde) smoothly separates
a single slightly-enlarged cell from its complement with V^2 + Vt^2 = 1,
and W_i = (|grad V_i|^2 + |grad Vt_i|^2)/2 is the localization error
density. All constants are measured on fine grids and reported in
scale-invariant form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy_import
from .errors import DomainError, NumericError, PreconditionError
from .params import check_domain

_sci_fft = lazy_import("scipy.fft")

__all__ = [
    "PartitionSpec", "LatticePartition", "build_partition",
    "build_v_partition", "ims_overlap_bound", "bump_profile",
    "smooth_step",
]


def bump_profile(u):
    """C-infinity bump exp(-1/(1-u^2)) on (-1,1), zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def smooth_step(u):
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1, built by
    integrating the bump profile."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    fine = np.linspace(0.0, 1.0, 8193)
    dens = bump_profile(2.0 * fine - 1.0)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)])
    cum /= cum[-1]
    return np.interp(np.clip(u, 0.0, 1.0), fine, cum)


@dataclass(frozen=True)
class PartitionSpec:
    """Geometry of the partition: big box side lbig, cell side ell with
    lbig/ell a positive integer, mollification half-width eps (in units of
    ell, constrained to (0, 1/4)), and grid resolution per cell."""

    ell: float
    lbig: float | None = None
    eps: float = 0.125
    grid_per_cell: int = 64

    def __post_init__(self):
        check_domain("ell", self.ell, 0.0)
        if self.lbig is None:
            object.__setattr__(self, "lbig", 3.0 * self.ell)
        check_domain("lbig", self.lbig, 0.0)
        ratio = self.lbig / self.ell
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise DomainError(
                f"lbig/ell must be a positive integer, got {ratio}")
        if not 0 < self.eps < 0.25:
            raise PreconditionError(
                f"mollification width must lie in (0, 1/4), got {self.eps}")
        if self.grid_per_cell < 32:
            raise PreconditionError(
                f"grid_per_cell must be >= 32 for reliable gradients, "
                f"got {self.grid_per_cell}")

    @property
    def n_cells(self) -> int:
        return int(round(self.lbig / self.ell))


def _mollified_indicator_1d(spec: PartitionSpec):
    """k(x) = (indicator of (0, ell)) convolved with the normalized bump of
    half-width eps*ell, sampled on a periodic grid of period lbig.

    Periodicity makes every cell's profile an exact translate of the first,
    so the tiling identity sum_c k_c = 1 holds to rounding; convolution by
    FFT at the construction resolution.
    """
    n = spec.n_cells * spec.grid_per_cell
    period = spec.n_cells * spec.ell
    h = period / n
    ax = np.arange(n) * h
    ind = (ax < spec.ell).astype(float)
    half = spec.eps * spec.ell
    d = np.minimum(ax, period - ax)
    ker = bump_profile(d / half)
    ker /= ker.sum() * h
    k = np.real(_sci_fft.ifft(_sci_fft.fft(ind) * _sci_fft.fft(ker))) * h
    return ax, np.clip(k, 0.0, None)


@dataclass(frozen=True)
class LatticePartition:
    """Measured lattice partition of unity.

    ``j_profiles`` holds the 1D profiles j_c(x) on the construction grid;
    the 3D functions are products J_i(x) = prod_d j_{c_d}(x_d), so
    sum_i J_i^2 = 1 by construction.
    """

    spec: PartitionSpec
    axis: np.ndarray
    j_profiles: np.ndarray
    c_eta: float
    c_eta_spread: float
    grad_sq_sum_max: float

    def j_values(self, cell, x):
        """J_i at points x (shape (..., 3)) for the cell index triple.

        The squared 1D profiles are interpolated (not the profiles
        themselves) so that the partition identity sum_i J_i^2 = 1 survives
        interpolation exactly: linear interpolation commutes with the sum
        over cells, which is constant on the grid.
        """
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        period = self.spec.n_cells * self.spec.ell
        for d in range(3):
            prof_sq = self.j_profiles[cell[d]] ** 2
            out = out * np.interp(x[..., d], self.axis, prof_sq,
                                  period=period)
        return np.sqrt(out)

    def partition_residual(self) -> float:
        """max |sum_i J_i^2 - 1| over a uniform 17^3 interior sample."""
        period = self.spec.n_cells * self.spec.ell
        pts = np.linspace(0.0, period, 17, endpoint=False) + 0.37
        X = np.stack(np.meshgrid(pts, pts, pts, indexing="ij"), -1)
        total = np.zeros(X.shape[:-1])
        nc = self.spec.n_cells
        for cx in range(nc):
            for cy in range(nc):
                for cz in range(nc):
                    total += self.j_values((cx, cy, cz), X) ** 2
        return float(np.abs(total - 1.0).max())


def _grad_1d(f: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered first derivative on a periodic grid."""
    return (8.0 * (np.roll(f, -1) - np.roll(f, 1))
            - (np.roll(f, -2) - np.roll(f, 2))) / (12.0 * h)


def build_partition(spec: PartitionSpec) -> LatticePartition:
    """Construct the lattice partition J_i^2 = k_i / sum_j k_j and measure
    its gradient constants.

    Reported constants:
      c_eta           = ell^2 * max_i sup |grad J_i|^2   (scale invariant)
      c_eta_spread    = relative spread of the per-cell maxima (zero up to
                        rounding, since all cells are exact translates)
      grad_sq_sum_max = sup_x sum_i |grad J_i(x)|^2
    """
    ax, k = _mollified_indicator_1d(spec)
    shift = spec.grid_per_cell
    profs = np.stack([np.roll(k, c * shift) for c in range(spec.n_cells)])
    denom = profs.sum(axis=0)
    if np.abs(denom - 1.0).max() > 1e-8:
        raise NumericError(
            "mollified indicators failed to tile the period: residual "
            f"{np.abs(denom - 1.0).max():.3e}")
    j = np.sqrt(profs / denom)
    h = spec.ell / spec.grid_per_cell
    dj = np.stack([_grad_1d(row, h) for row in j])
    j2 = j * j
    dj2 = dj * dj
    # |grad J_i|^2 factorizes over axes once the cell triple is fixed;
    # evaluate exactly on a coarsened 3D grid (every profile extremum is
    # well resolved at >= 32 points per transition region)
    stride = max(1, spec.grid_per_cell // 32)
    sl = slice(None, None, stride)
    j2c = j2[:, sl]
    dj2c = dj2[:, sl]
    nc3 = j2c.shape[1]
    total = np.zeros((nc3, nc3, nc3))
    cell_maxima = []
    for c in range(spec.n_cells):
        for d in range(spec.n_cells):
            for e in range(spec.n_cells):
                g = (dj2c[c][:, None, None] * j2c[d][None, :, None]
                     * j2c[e][None, None, :]
                     + j2c[c][:, None, None] * dj2c[d][None, :, None]
                     * j2c[e][None, None, :]
                     + j2c[c][:, None, None] * j2c[d][None, :, None]
                     * dj2c[e][None, None, :])
                total += g
                cell_maxima.append(float(g.max()))
    cell_maxima = np.asarray(cell_maxima)
    spread = float((cell_maxima.max() - cell_maxima.min())
                   / max(cell_maxima.max(), 1e-300))
    return LatticePartition(
        spec=spec, axis=ax, j_profiles=j,
        c_eta=float(cell_maxima.max()) * spec.ell**2,
        c_eta_spread=spread,
        grad_sq_sum_max=float(total.max()),
    )


def build_v_partition(spec: PartitionSpec):
    """Smooth cube partition for one cell: V_i equals 1 on the enlarged
    cube ell*(-eps, 1+eps)^3, vanishes outside ell*(-2 eps, 1+2 eps)^3, and
    V_i^2 + Vt_i^2 = 1 with Vt_i = sqrt(1 - V_i^2).

    Returns a dict with the sample axis, gridded v, v_tilde, w (the error
    density (|grad V|^2 + |grad Vt|^2)/2) and the scale-invariant measured
    constants w_max_ell2 = ||W||_inf ell^2 and supp_w_ell3 = |supp W|/ell^3.
    """
    eps = spec.eps
    ell = spec.ell
    ng = int(spec.grid_per_cell * (1.0 + 6.0 * eps))
    ax = np.linspace(-3.0 * eps * ell, (1.0 + 3.0 * eps) * ell, ng)
    u = ax / ell
    # 1D profile: rises 0 -> 1 over (-2 eps, -eps), plateau to (1+eps),
    # falls back over (1+eps, 1+2 eps); C-infinity via the bump step
    rise = smooth_step((u + 2.0 * eps) / eps)
    fall = smooth_step(((1.0 + 2.0 * eps) - u) / eps)
    prof = np.minimum(rise, fall)
    if prof.min() < 0 or prof.max() > 1 + 1e-12:
        raise NumericError("cube profile left the range [0, 1]")
    V = (prof[:, None, None] * prof[None, :, None] * prof[None, None, :])
    Vt = np.sqrt(np.clip(1.0 - V * V, 0.0, None))
    resid = float(np.abs(V * V + Vt * Vt - 1.0).max())
    if resid > 1e-12:
        raise NumericError(f"partition identity residual {resid:.3e}")
    h = ax[1] - ax[0]
    gV = np.gradient(V, h, edge_order=2)
    gVt = np.gradient(Vt, h, edge_order=2)
    W = 0.5 * sum(g * g for g in gV) + 0.5 * sum(g * g for g in gVt)
    if not np.all(np.isfinite(W)):
        raise NumericError("gradient blow-up in the square-root branch")
    thresh = 1e-12 * max(W.max(), 1.0)
    supp = float(np.count_nonzero(W > thresh)) * h**3
    return {
        "axis": ax, "v": V, "v_tilde": Vt, "w": W,
        "w_max_ell2": float(W.max()) * ell**2,
        "supp_w_ell3": supp / ell**3,
    }


def ims_overlap_bound(partition: LatticePartition) -> dict:
    """The universal localization-energy bound 8 c_eta / ell^2 together
    with the sharper grid-measured sup_x sum_i |grad J_i|^2."""
    ell = partition.spec.ell
    return {
        "universal": 8.0 * partition.c_eta / ell**2,
        "measured": partition.grad_sq_sum_max,
    }
