"""Dirichlet-box spectral machinery: eigenvalue enumeration, the Fermi-sea
density, shell counts, the S/R profile functions, a sine-basis Galerkin
solver for the Laplacian plus a potential, and the finite-rank trace
inequalities they feed.

The box is (0, L)^3 with eigenfunctions (2/L)^{3/2} prod_j sin(n_j pi x_j/L)
for n in N^3 (n_j >= 1) and eigenvalues p^2, p = pi n / L. The sine basis is
used throughout; it vanishes on the boundary and spans the same spectrum as
any other labeling of the Dirichlet eigenfunctions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy_import
from .errors import DomainError, NumericError, PreconditionError
from .kernels import s_function_arr
from .params import check_domain

_sci_fft = lazy_import("scipy.fft")
_sci_linalg = lazy_import("scipy.linalg")

__all__ = [
    "DirichletSpectrum", "FiniteRankPerturbation", "PotentialGrid",
    "dirichlet_levels", "sum_lowest", "rho0", "shell_count_f", "r_function",
    "galerkin_spectrum", "lt_gap_check", "thm_a1_check", "phi_sum",
    "random_admissible_q", "random_smooth_potential", "basis_labels",
    "thm_a3_check",
]


def _enumerate_n2(n2_max: int, signed: bool = False):
    """All n in N^3 (n_j >= 1), or in Z^3 when ``signed``, with
    |n|^2 <= n2_max, as an (m, 3) int array in lexicographic order."""
    if n2_max < (0 if signed else 3):
        return np.empty((0, 3), dtype=int)
    r = int(math.isqrt(n2_max))
    ax = np.arange(-r if signed else 1, r + 1)
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1).reshape(-1, 3)
    return g[(g * g).sum(axis=1) <= n2_max]


@dataclass(frozen=True)
class DirichletSpectrum:
    """Sorted Dirichlet levels of the box Laplacian on (0, L)^3.

    ``levels`` is a tuple of (eigenvalue, multiplicity, representative
    integer triple); eigenvalue = (pi/L)^2 |n|^2.
    """

    lbig: float
    levels: tuple

    def __post_init__(self):
        vals = [v for v, _, _ in self.levels]
        if vals != sorted(vals):
            raise DomainError("levels must be sorted ascending")

    def eigenvalues(self, count: int) -> np.ndarray:
        """The lowest ``count`` eigenvalues repeated with multiplicity."""
        out = []
        for v, mult, _ in self.levels:
            out.extend([v] * mult)
            if len(out) >= count:
                break
        if len(out) < count:
            raise PreconditionError(
                f"spectrum holds {len(out)} levels, requested {count}")
        return np.asarray(out[:count])

    def count_below(self, mu: float) -> int:
        return sum(mult for v, mult, _ in self.levels if v <= mu)


def _lowest_modes(count: int, signed: bool = False):
    """Labels n in N^3 (Z^3 when ``signed``) of an enumeration ball that
    holds the lowest ``count`` modes strictly inside it, sorted by
    (|n|^2, n), and their |n|^2. The ball doubles until its ``count``-th
    mode lies inside, so a level inside is complete."""
    # a Z^3 ball holds about 8 times the modes of the N^3 ball
    n2_max = max(12, int((6.0 * count / (8 if signed else 1)) ** (2.0 / 3.0))
                 + 16)
    while True:
        g = _enumerate_n2(n2_max, signed)
        n2 = (g * g).sum(axis=1)
        # g is in lexicographic order, so a stable sort breaks ties by label
        order = np.argsort(n2, kind="stable")
        if len(g) >= count and n2[order[count - 1]] < n2_max:
            return g[order], n2[order]
        n2_max *= 2


def _mode_levels(lbig: float, count: int):
    """The labels and |n|^2 of ``_lowest_modes(count)`` and their levels
    (pi/L)^2 |n|^2: the first ``count`` are the lowest Dirichlet modes, and
    every level up to the ``count``-th mode's is complete."""
    if count < 1:
        raise PreconditionError(f"count must be >= 1, got {count}")
    check_domain("lbig", lbig, 0.0)
    labels, n2s = _lowest_modes(count)
    return labels, n2s, (math.pi / lbig) ** 2 * n2s


def dirichlet_levels(lbig: float, count: int) -> DirichletSpectrum:
    """The ``count`` smallest Dirichlet eigenvalues by exhaustive
    enumeration of integer triples, with certified completeness (the
    enumeration ball strictly contains the largest reported level)."""
    labels, n2s, values = _mode_levels(lbig, count)
    _, first, mult = np.unique(n2s, return_index=True, return_counts=True)
    # the levels up to the one that holds the count-th mode
    nlev = int(np.searchsorted(np.cumsum(mult), count)) + 1
    levels = tuple((float(values[f]), int(k), tuple(labels[f].tolist()))
                   for k, f in zip(mult[:nlev], first[:nlev]))
    return DirichletSpectrum(lbig=lbig, levels=levels)


def sum_lowest(lbig: float, count: int):
    """Sum of the lowest ``count`` levels in both conventions:
    (full Laplacian -Delta, half Laplacian -Delta/2)."""
    full = float(_mode_levels(lbig, count)[2][:count].sum())
    return full, 0.5 * full


def basis_labels(lbig: float, count: int):
    """Integer triples of the lowest ``count`` sine modes (deterministic
    tie-break by lexicographic label order)."""
    return [tuple(t) for t in _lowest_modes(count)[0][:count].tolist()]


def rho0(x, lbig: float, mu: float):
    """Fermi-sea density: sum over levels p^2 <= mu of |phi_p(x)|^2."""
    x = np.asarray(x, dtype=float)
    scalar = x.shape == (3,)
    pts = x.reshape(-1, 3)
    if np.any(pts < 0) or np.any(pts > lbig):
        raise DomainError("position outside the box [0, L]^3")
    check_domain("mu", mu, 0.0)
    n2_max = int(mu * (lbig / math.pi) ** 2)
    g = _enumerate_n2(n2_max)
    out = np.zeros(len(pts))
    if len(g):
        arg = math.pi / lbig * pts  # (npts, 3)
        for chunk in np.array_split(g, max(1, len(g) // 256)):
            s = np.sin(arg[:, None, :] * chunk[None, :, :])
            out += (s * s).prod(axis=2).sum(axis=1)
    out *= (2.0 / lbig) ** 3
    return float(out[0]) if scalar else out.reshape(x.shape[:-1])


def shell_count_f(e: float, mu: float, lbig: float) -> float:
    """(2/L)^3 times the number of levels with |p^2 - mu| < e (strict)."""
    check_domain("e", e, 0.0, strict=False)
    check_domain("mu", mu, 0.0)
    if e == 0.0:
        return 0.0
    n2_hi = (mu + e) * (lbig / math.pi) ** 2
    g = _enumerate_n2(int(n2_hi) + 1)
    vals = (math.pi / lbig) ** 2 * (g * g).sum(axis=1)
    return (2.0 / lbig) ** 3 * int(np.count_nonzero(np.abs(vals - mu) < e))


def r_function(rho: float, mu: float, lbig: float) -> float:
    """R(rho): integral over e of (sqrt(rho) - sqrt(f(e)))_+^2, evaluated
    exactly on the step structure of the shell count f."""
    check_domain("rho", rho, 0.0, strict=False)
    check_domain("mu", mu, 0.0)
    check_domain("lbig", lbig, 0.0)
    if rho == 0.0:
        return 0.0
    meas = (2.0 / lbig) ** 3
    # enlarge the enumeration until the cumulative count reaches rho/meas
    n2_max = max(12, int(mu * (lbig / math.pi) ** 2) + 16)
    need = rho / meas
    while True:
        g = _enumerate_n2(n2_max)
        vals = (math.pi / lbig) ** 2 * (g * g).sum(axis=1)
        dist = np.sort(np.abs(vals - mu))
        # distances coming from levels beyond the enumeration ball are all
        # larger than edge; the step structure is certified below `edge`
        edge = (math.pi / lbig) ** 2 * n2_max - mu
        if edge > 0 and np.count_nonzero(dist < edge) >= need:
            break
        n2_max *= 2
    total = 0.0
    prev = 0.0
    count = 0
    for d in dist:
        if count >= need:
            break
        if d > prev:
            total += (math.sqrt(rho) - math.sqrt(meas * count)) ** 2 * (d - prev)
            prev = d
        count += 1
    return total


# ---------------------------------------------------------------------------
# potentials and the Galerkin solver

@dataclass(frozen=True)
class PotentialGrid:
    """Real potential sampled on a uniform cell-centered grid over (0,L)^3.

    Grid point (i,j,k) sits at ((i+1/2) h, (j+1/2) h, (k+1/2) h), h = L/n,
    which is the natural sampling for the cosine transforms used in the
    Galerkin matrix assembly.
    """

    lbig: float
    values: np.ndarray

    def __post_init__(self):
        check_domain("lbig", self.lbig, 0.0)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or len(set(v.shape)) != 1:
            raise DomainError(f"potential grid must be cubic, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("potential grid has non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def n_grid(self) -> int:
        return self.values.shape[0]

    @property
    def h(self) -> float:
        return self.lbig / self.n_grid

    def require_nonpositive(self):
        if np.any(self.values > 1e-14):
            raise PreconditionError("potential must be non-positive")

    def integral(self, power: float = 1.0) -> float:
        """Integral of |V|^power over the box."""
        return float((np.abs(self.values) ** power).sum()) * self.h**3


def galerkin_spectrum(v: PotentialGrid, basis_size: int) -> np.ndarray:
    """Rayleigh-Ritz eigenvalues of -Delta + V in the lowest sine modes.

    The potential matrix elements reduce to eight cosine transforms of V,
    evaluated in one DCT of the grid; variational upper bounds to the true
    eigenvalues, monotone non-increasing in basis_size.
    """
    if basis_size < 1:
        raise PreconditionError(f"basis_size must be >= 1, got {basis_size}")
    labels, _, levels = _mode_levels(v.lbig, basis_size)
    lab, p2 = labels[:basis_size], levels[:basis_size]
    nmax = int(lab.max())
    if 2 * nmax >= v.n_grid:
        raise PreconditionError(
            f"grid resolution {v.n_grid} too coarse for basis frequencies up "
            f"to {2 * nmax} (aliasing)")
    # C[d] = integral of V(x) prod_j cos(pi d_j x_j / L)
    coefs = _sci_fft.dctn(v.values, type=2) * (v.h**3 / 8.0)
    w = np.zeros((basis_size, basis_size))
    diff = np.abs(lab[:, None, :] - lab[None, :, :])
    summ = lab[:, None, :] + lab[None, :, :]
    for eps in range(8):
        bits = [(eps >> b) & 1 for b in range(3)]
        d = np.where(np.array(bits, dtype=bool)[None, None, :], summ, diff)
        sign = (-1.0) ** sum(bits)
        w += sign * coefs[d[..., 0], d[..., 1], d[..., 2]]
    w *= (2.0 / v.lbig) ** 3 / 8.0
    h = np.diag(p2) + w
    try:
        return _sci_linalg.eigh(h, eigvals_only=True)
    except _sci_linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"Galerkin diagonalization failed: {exc}") from exc


def lt_gap_check(v: PotentialGrid, count: int, basis_size: int = 512):
    """Energy-shift inequality data for a non-positive potential:
    gap = E^D_N - E^{V,D}_N versus the integral bound
    integral of N^{1/3}/L |V|^2 + |V|^{5/2} + N/L^3 |V|.
    Returns (gap, rhs, ratio); ratio is 0 when both sides vanish.
    """
    v.require_nonpositive()
    if basis_size < count:
        raise PreconditionError(
            f"basis_size {basis_size} smaller than requested count {count}")
    e_free = sum_lowest(v.lbig, count)[0]
    vals = galerkin_spectrum(v, basis_size)
    e_pot = float(np.sort(vals)[:count].sum())
    gap = e_free - e_pot
    rhs = (count ** (1.0 / 3.0) / v.lbig * v.integral(2.0)
           + v.integral(2.5) + count / v.lbig**3 * v.integral(1.0))
    ratio = 0.0 if rhs == 0.0 else gap / rhs
    return gap, rhs, ratio


def thm_a3_check(v: PotentialGrid, mu: float, basis_size: int = 512):
    """Data for the potential-version trace inequality: returns
    (lhs, rhs_integral) where
    lhs = -tr(-Delta+V-mu)_- + tr(-Delta-mu)_- - integral of rho0 V
    rhs_integral = integral of mu^{1/2}|V|^2 + |V|^{5/2} + mu/L |V|.
    The inequality asserts lhs >= -K rhs_integral for a universal K, and
    lhs <= 0.
    """
    check_domain("mu", mu)
    if mu < 3.0 * math.pi**2 / v.lbig**2:
        raise PreconditionError(
            "mu below the lowest Dirichlet level: the standard inequality "
            "applies in that regime instead")
    vals_v = galerkin_spectrum(v, basis_size)
    tr_v = float(np.minimum(vals_v - mu, 0.0).sum())
    free = _mode_levels(v.lbig, basis_size)[2][:basis_size]
    tr_0 = float(np.minimum(free - mu, 0.0).sum())
    ng = v.n_grid
    ax = (np.arange(ng) + 0.5) * v.h
    xs = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1)
    dens = rho0(xs, v.lbig, mu)
    rho_v = float((dens * v.values).sum()) * v.h**3
    lhs = tr_v - tr_0 - rho_v
    rhs = (math.sqrt(mu) * v.integral(2.0) + v.integral(2.5)
           + mu / v.lbig * v.integral(1.0))
    return lhs, rhs


# ---------------------------------------------------------------------------
# finite-rank perturbations of the Fermi sea

@dataclass(frozen=True)
class FiniteRankPerturbation:
    """Self-adjoint Q on a finite slice of sine modes with
    -P <= Q <= 1-P, where P projects onto levels <= mu."""

    lbig: float
    mu: float
    labels: tuple
    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        nb = len(self.labels)
        if q.shape != (nb, nb):
            raise DomainError(f"matrix shape {q.shape} != ({nb},{nb})")
        if not np.allclose(q, q.T, atol=1e-12):
            raise DomainError("matrix must be symmetric")
        object.__setattr__(self, "matrix", q)
        object.__setattr__(self, "labels",
                           tuple(tuple(int(c) for c in t) for t in self.labels))
        evs = np.linalg.eigvalsh(q + np.diag(self.pi_minus()))
        if evs.min() < -1e-10 or evs.max() > 1.0 + 1e-10:
            raise PreconditionError(
                "admissibility violated: spectrum of Q + P not within [0, 1]")

    def level_values(self) -> np.ndarray:
        lab = np.asarray(self.labels)
        return (math.pi / self.lbig) ** 2 * (lab * lab).sum(axis=1)

    def pi_minus(self) -> np.ndarray:
        return (self.level_values() <= self.mu).astype(float)


def thm_a1_check(q: FiniteRankPerturbation, eta: float = 1.0):
    """Trace data for the positive-density inequality.

    Returns a dict with lhs = tr(-Delta-mu)Q, rhs_integral = the integral
    of S((|rho_Q| - eta mu/L)_+) on a 48^3 cell-centered grid, and
    lemma_lhs = tr(|-Delta-mu| Q^2) which must not exceed lhs.
    """
    if q.mu < 3.0 * math.pi**2 / q.lbig**2:
        raise PreconditionError("mu below the lowest Dirichlet level")
    vals = q.level_values()
    shifted = vals - q.mu
    lhs = float((shifted * np.diag(q.matrix)).sum())
    q2 = q.matrix @ q.matrix
    lemma_lhs = float((np.abs(shifted) * np.diag(q2)).sum())
    # density of Q on the grid
    n_grid = 48
    ax = (np.arange(n_grid) + 0.5) * q.lbig / n_grid
    lab = np.asarray(q.labels)
    # sine mode values on the 1D axis for each label component
    phi = [np.sin(math.pi / q.lbig * np.outer(lab[:, d], ax)) for d in range(3)]
    # psi_b(x) over the grid, built separably per basis function
    nb = len(q.labels)
    basis_vals = np.empty((nb, n_grid, n_grid, n_grid))
    for b in range(nb):
        basis_vals[b] = (phi[0][b][:, None, None] * phi[1][b][None, :, None]
                         * phi[2][b][None, None, :])
    basis_vals *= (2.0 / q.lbig) ** 1.5
    flat = basis_vals.reshape(nb, -1)
    dens = np.einsum("bx,bc,cx->x", flat, q.matrix, flat, optimize=True)
    dens = dens.reshape(n_grid, n_grid, n_grid)
    arg = np.maximum(np.abs(dens) - eta * q.mu / q.lbig, 0.0)
    integ = float(s_function_arr(arg, q.mu).sum()) * (q.lbig / n_grid) ** 3
    return {"lhs": lhs, "rhs_integral": integ,
            "lemma_lhs": lemma_lhs}


def phi_sum(k, mu: float, lbig: float) -> float:
    """Exact lattice sum over q in (pi Z/L)^3 with q^2 < mu - sqrt(mu)/L
    and (q-k)^2 > mu + sqrt(mu)/L of the inverse square-root product."""
    if mu < 3.0 * math.pi**2 / lbig**2:
        raise PreconditionError("mu below the lowest Dirichlet level")
    k = np.asarray(k, dtype=float)
    lo = mu - math.sqrt(mu) / lbig
    hi = mu + math.sqrt(mu) / lbig
    if lo <= 0:
        return 0.0
    # the ball holds every q with q^2 < lo, whatever the rounding of q^2
    g = _enumerate_n2(int(lo * (lbig / math.pi) ** 2) + 1, signed=True)
    qs = (math.pi / lbig) * g
    q2 = (qs * qs).sum(axis=1)
    d2 = ((qs - k) ** 2).sum(axis=1)
    sel = (q2 < lo) & (d2 > hi)
    if not sel.any():
        return 0.0
    terms = 1.0 / (np.sqrt(mu - q2[sel]) * np.sqrt(d2[sel] - mu))
    return float(terms.sum()) / lbig**3


# ---------------------------------------------------------------------------
# random ensembles

def random_admissible_q(lbig: float, mu: float, seed: int
                        ) -> FiniteRankPerturbation:
    """Random admissible finite-rank perturbation of the Fermi sea.

    Basis: all modes below mu plus the lowest 12 modes above. A random
    symmetric matrix of spectral radius 0.6 is projected into the
    admissible set by clipping the eigenvalues of Q + P to [0, 1].
    """
    check_domain("lbig", lbig, 0.0)
    check_domain("mu", mu)
    # expand multiplicity: all modes below mu plus a slice above
    n_below = len(_enumerate_n2(int(mu * (lbig / math.pi) ** 2)))
    if not n_below:
        raise PreconditionError("mu below the lowest Dirichlet level")
    n_above = 12
    count = n_below + n_above
    labels, _, levels = _mode_levels(lbig, count)
    # the levels ascend, so the modes at or below mu come first
    nb = min(count, int(np.count_nonzero(levels[:count] <= mu)) + n_above)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((nb, nb))
    a = (a + a.T) / 2.0
    a *= 0.6 / max(np.abs(np.linalg.eigvalsh(a)).max(), 1e-12)
    pi_m = (levels[:nb] <= mu).astype(float)
    evs, vecs = np.linalg.eigh(a + np.diag(pi_m))
    evs = np.clip(evs, 0.0, 1.0)
    q = vecs @ np.diag(evs) @ vecs.T - np.diag(pi_m)
    q = (q + q.T) / 2.0
    return FiniteRankPerturbation(lbig=lbig, mu=mu,
                                  labels=labels[:nb].tolist(), matrix=q)


def random_smooth_potential(lbig: float, seed: int, depth: float = 1.0,
                            n_grid: int = 64) -> PotentialGrid:
    """Random smooth non-positive potential: a sum of four negative
    Gaussian bumps with centers and widths drawn reproducibly from the
    seed."""
    check_domain("lbig", lbig, 0.0)
    rng = np.random.default_rng(seed)
    ax = (np.arange(n_grid) + 0.5) * lbig / n_grid
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    v = np.zeros_like(X)
    for _ in range(4):
        cx, cy, cz = rng.uniform(0.2 * lbig, 0.8 * lbig, size=3)
        w = rng.uniform(0.08 * lbig, 0.25 * lbig)
        amp = depth * rng.uniform(0.3, 1.0)
        v -= amp * np.exp(-(((X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2)
                            / (2.0 * w * w)))
    return PotentialGrid(lbig=lbig, values=v)
