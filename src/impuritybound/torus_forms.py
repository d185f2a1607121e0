"""Periodic singular quadratic forms on the momentum lattice.

The diagonal kernel on the torus, L^per, is evaluated through its exact
Poisson-summation representation: the continuum kernel minus a sum of
Fourier coefficients of the resolvent profile over the dual lattice, which
converges exponentially fast. A brute-force mollified lattice-sum oracle
(the defining limit, with a concrete smooth cutoff) is provided for
cross-validation.

Momentum tuples are stored as integer triples scaled by 2 pi / ell. Form
evaluations reduce their terms with math.fsum, which is correctly rounded,
so results are reproducible bit-for-bit whatever order the terms come in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._lazy import lazy_import
from .errors import DomainError, NumericError, PreconditionError
from .kernels import fhat_infinity_arr, l_continuum
from .params import ModelParams, check_domain

_sci_integrate = lazy_import("scipy.integrate")

__all__ = [
    "SingularAmplitude", "TorusFormBreakdown", "l_periodic", "Mollifier",
    "l_periodic_bruteforce", "t_dia_per", "t_off_per", "t_off_per_complex",
    "t_alpha_per", "t_tilde_vector", "g_norm_sq", "rep_sing_check",
    "random_fermionic_amplitude",
]


def _as_triple(t):
    t = tuple(int(c) for c in t)
    if len(t) != 3:
        raise DomainError(f"lattice label must be an integer triple, got {t}")
    return t


def _perm_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


@dataclass(frozen=True)
class SingularAmplitude:
    """Finitely supported boundary amplitude xi-hat on the momentum lattice.

    Keys of ``support`` are n-tuples of integer triples; the physical
    momentum of a triple z is (2 pi / ell) z. The first slot is the
    composite pair momentum, the remaining n - 1 slots are the momenta of
    the other gas particles. ``antisymmetric`` asserts sign change under
    transposition of any two of those n - 1 slots.
    """

    n: int
    ell: float
    support: dict
    antisymmetric: bool = False

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"particle count must be a positive integer, got {self.n}")
        check_domain("ell", self.ell, 0.0)
        cleaned = {}
        for key, amp in self.support.items():
            key = tuple(_as_triple(t) for t in key)
            if len(key) != self.n:
                raise DomainError(
                    f"support key has {len(key)} momenta, expected {self.n}")
            amp = complex(amp)
            if amp != 0:
                cleaned[key] = amp
        object.__setattr__(self, "support", cleaned)
        if self.antisymmetric:
            self._check_antisymmetry()

    def _check_antisymmetry(self):
        for key, amp in self.support.items():
            rest = key[1:]
            for a, b in itertools.combinations(range(len(rest)), 2):
                swapped = list(rest)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                other = self.support.get((key[0],) + tuple(swapped), 0.0)
                if abs(other + amp) > 1e-12 * max(abs(amp), 1.0):
                    raise PreconditionError(
                        "amplitude is not antisymmetric in the last slots "
                        f"at key {key}")

    def items(self):
        """Support entries in lexicographic key order (deterministic)."""
        return sorted(self.support.items())

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.ell

    def momentum(self, triple) -> np.ndarray:
        return self.spacing * np.asarray(triple, dtype=float)

    def norm_sq(self) -> float:
        """(2 pi / ell)^{3n} sum of |amplitude|^2."""
        meas = self.spacing ** (3 * self.n)
        return meas * math.fsum(abs(a) ** 2 for _, a in self.items())


@dataclass(frozen=True)
class TorusFormBreakdown:
    """Terms of the fermionic singular form: total = alpha + dia + off."""

    alpha_term: float
    t_dia: float
    t_off: float
    total: float
    mu: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        parts = self.alpha_term + self.t_dia + self.t_off
        scale = abs(self.alpha_term) + abs(self.t_dia) + abs(self.t_off)
        if abs(self.total - parts) > 1e-10 * max(scale, 1e-300):
            raise DomainError("breakdown total does not equal the sum of its terms")


# ---------------------------------------------------------------------------
# periodic diagonal kernel

def _gamma_offset(m, mu, ell, k1, khat_sq):
    """Positive radicand gamma = k1^2/(2(1+m)) + khat_sq/2 + mu, and the
    lattice shift m k1/(m+1) folded into the central cell of (2 pi/ell) Z^3."""
    gamma = float(k1 @ k1) / (2.0 * (1.0 + m)) + 0.5 * khat_sq + mu
    if gamma <= 0:
        raise DomainError(
            f"radicand {gamma} is non-positive: mu={mu} is below the allowed "
            "range for this momentum tuple")
    spacing = 2.0 * math.pi / ell
    off = m * k1 / (m + 1.0)
    return gamma, off - np.round(off / spacing) * spacing


def _l_periodic_impl(m, mu, ell, k1, khat_sq):
    # the t-sum runs over the shifted lattice L + m k1/(m+1); in position
    # space the shift becomes a phase cos(offset . z) on the dual sum
    gamma, off = _gamma_offset(m, mu, ell, k1, khat_sq)
    base = l_continuum(ModelParams(m=m, mu=mu, ell=ell), k1, khat_sq)
    eta = math.sqrt(2.0 * m / (m + 1.0)) * math.sqrt(gamma) * ell
    # truncate when the geometric tail of e^{-eta |n|}/|n| is below 1e-14
    # of the leading shell, i.e. at nmax ~ 40/eta
    nmax = max(1, int(math.ceil(40.0 / eta)))
    if nmax > 400:
        raise NumericError(
            f"Poisson correction needs nmax={nmax} shells (gamma*ell^2 too "
            "small for the exponential representation)")
    rng = np.arange(-nmax, nmax + 1)
    Z = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), -1).reshape(-1, 3)
    Z = Z[(Z * Z).sum(axis=1) > 0].astype(float) * ell
    fh = fhat_infinity_arr(m, gamma, np.sqrt((Z * Z).sum(axis=1)))
    corr = float((np.cos(Z @ off) * fh).sum())
    return (base - (2.0 * math.pi) ** 1.5 * corr,
            {"nmax": nmax, "n_terms": int(Z.shape[0])})


def _split_kvec(params: ModelParams, kvec):
    ks = np.atleast_2d(np.asarray(kvec, dtype=float))
    if ks.shape != (params.n, 3):
        raise DomainError(
            f"expected {params.n} lattice momenta of dimension 3, got shape {ks.shape}")
    k1 = ks[0]
    khat_sq = float((ks[1:] ** 2).sum())
    return k1, khat_sq


def l_periodic(params: ModelParams, kvec) -> float:
    """L^per(k): the continuum kernel minus the exponentially convergent
    dual-lattice Poisson correction, truncated with a certified tail."""
    k1, khat_sq = _split_kvec(params, kvec)
    return _l_periodic_impl(params.m, params.mu, params.ell, k1, khat_sq)[0]


class Mollifier:
    """Smooth compactly supported cutoff for the brute-force definition.

    Built as the self-convolution of a radial bump (so its Fourier
    transform is non-negative), scaled so that tau-hat(0) = 1 and
    the momentum-space normalization integral of tau-hat(u)/u^2 is 4 pi,
    matching the 8 pi m R/(m+1) counterterm.
    """

    def __init__(self, shape: float = 2.0):
        self.shape = float(shape)
        kk = np.linspace(0.0, 200.0, 20001)
        rr = np.linspace(1e-9, 1.0 - 1e-12, 2001)
        b = np.exp(-self.shape / (1.0 - rr**2))
        integ = np.empty_like(kk)
        for i0 in range(0, len(kk), 500):
            sl = slice(i0, i0 + 500)
            integ[sl] = np.trapezoid(
                rr[None, :] * np.sin(np.outer(kk[sl], rr)) * b[None, :], rr, axis=1)
        bh = np.where(kk > 1e-12, integ / np.maximum(kk, 1e-12),
                      np.trapezoid(rr**2 * b, rr))
        bh *= 4.0 * math.pi / (2.0 * math.pi) ** 1.5
        self.kk, self.bh2 = kk, bh**2
        i0 = self.bh2[0]
        i1 = np.trapezoid(self.bh2, kk)
        self.sig = i1 / i0
        self.c = 1.0 / (self.sig**3 * i0)

    def hat(self, u):
        """tau-hat at radial momentum |u| (vectorized)."""
        v = self.sig * np.abs(u)
        return self.c * self.sig**3 * np.interp(v, self.kk, self.bh2, right=0.0)

    @property
    def support_radius(self) -> float:
        """Radius beyond which tau-hat is numerically zero."""
        idx = np.nonzero(self.bh2 > 1e-14 * self.bh2[0])[0][-1]
        return float(self.kk[idx] / self.sig)


def l_periodic_bruteforce(params: ModelParams, kvec, tau: Mollifier,
                          r_cut: float) -> float:
    """Direct mollified-definition oracle for L^per at cutoff scale r_cut.

    Evaluated in the numerically stable paired arrangement
    L - [lattice sum - integral] of tau-hat(p/R) f_inf(p), whose error
    decays like 1/R^2; the raw counterterm arrangement converges like 1/R
    with a large constant.
    """
    k1, khat_sq = _split_kvec(params, kvec)
    m, mu, ell = params.m, params.mu, params.ell
    gamma, off = _gamma_offset(m, mu, ell, k1, khat_sq)
    a = (1.0 + m) / (2.0 * m)
    spacing = 2.0 * math.pi / ell
    pmax = tau.support_radius * r_cut
    nmax = int(math.ceil((pmax + 1.0) / spacing))
    n = np.arange(-nmax, nmax + 1)
    P1, P2 = np.meshgrid(n, n, indexing="ij")
    tot = 0.0
    for n3 in n:
        px = P1 * spacing + off[0]
        py = P2 * spacing + off[1]
        pz = n3 * spacing + off[2]
        p2 = px * px + py * py + pz * pz
        tot += float((tau.hat(np.sqrt(p2) / r_cut) / (a * p2 + gamma)).sum())
    rr = np.linspace(0.0, pmax, 400001)
    integ = 4.0 * math.pi * np.trapezoid(
        tau.hat(rr / r_cut) * rr**2 / (a * rr**2 + gamma), rr)
    base = l_continuum(ModelParams(m=m, mu=mu, ell=ell), k1, khat_sq)
    return base - (spacing**3 * tot - integ)


def l_periodic_richardson(params: ModelParams, kvec, tau: Mollifier,
                          r_lo: float = 14.0, r_hi: float = 20.0) -> float:
    """Brute-force mollified oracle with the leading 1/R^2 cutoff error
    eliminated by two-point Richardson extrapolation; relative accuracy
    around 1e-6 at the default cutoffs for order-one parameters."""
    if not 0 < r_lo < r_hi:
        raise PreconditionError(
            f"need 0 < r_lo < r_hi, got ({r_lo}, {r_hi})")
    v_lo = l_periodic_bruteforce(params, kvec, tau, r_cut=r_lo)
    v_hi = l_periodic_bruteforce(params, kvec, tau, r_cut=r_hi)
    return (v_hi * r_hi**2 - v_lo * r_lo**2) / (r_hi**2 - r_lo**2)


# ---------------------------------------------------------------------------
# quadratic forms

def _guard_negative_mu(xi: SingularAmplitude, params: ModelParams):
    if params.mu < 0 and not xi.antisymmetric:
        raise PreconditionError(
            "negative mu requires an antisymmetric amplitude (otherwise the "
            "form is not well-defined below the continuum threshold)")


def t_dia_per(xi: SingularAmplitude, params: ModelParams) -> float:
    """Diagonal singular form: (2 pi/ell)^{3n} sum |xi-hat|^2 L^per."""
    if xi.n != params.n:
        raise PreconditionError(f"amplitude has n={xi.n}, params n={params.n}")
    _guard_negative_mu(xi, params)
    meas = xi.spacing ** (3 * xi.n)
    terms = []
    for key, amp in xi.items():
        kvec = [xi.momentum(t) for t in key]
        terms.append(abs(amp) ** 2 * l_periodic(params, kvec))
    return meas * math.fsum(terms)


def _pair_terms(xi_i: SingularAmplitude, xi_j: SingularAmplitude,
                i: int, j: int, sp: float, params: ModelParams):
    """Terms conj(xi_j) xi_i / denom of the off-diagonal form for slots
    (i, j), i != j: one per pair of entries that share the full momentum
    tuple (k_1 .. k_n) and the impurity momentum k0.

    Entry (v0, w) of xi_i holds k_j at w[idx_j], entry (v0', w') of xi_j
    holds k_i at w'[idx_i]. They pair exactly when their companions other
    than k_j and k_i agree and v0 + k_j = v0' + k_i (= k0 + k_i + k_j). So
    xi_j's entries are indexed by that key, and xi_i's entries look up
    their partners in the order of a scan over both supports: the first
    failing denominator is the scan's.
    """
    inv2m = 1.0 / (2.0 * params.m)
    idx_i = i - 1 if i < j else i - 2
    idx_j = j - 1 if j < i else j - 2

    def key(v0, w, idx):
        k = w[idx]
        return w[:idx] + w[idx + 1:], tuple(v0[c] + k[c] for c in range(3))

    partners = {}
    for key_j, amp_j in xi_j.items():
        partners.setdefault(key(key_j[0], key_j[1:], idx_i), []).append(
            (key_j[0], amp_j))
    for key_i, amp_i in xi_i.items():
        v0_i, w_i = key_i[0], key_i[1:]
        kj = w_i[idx_j]
        for v0_j, amp_j in partners.get(key(v0_i, w_i, idx_j), ()):
            k0 = tuple(v0_j[c] - kj[c] for c in range(3))
            kfull = list(w_i)
            kfull.insert(i - 1, tuple(v0_i[c] - k0[c] for c in range(3)))
            k0v = sp * np.asarray(k0, dtype=float)
            kv = sp * np.asarray(kfull, dtype=float)
            denom = (inv2m * float(k0v @ k0v)
                     + 0.5 * float((kv * kv).sum()) + params.mu)
            if denom <= 0:
                raise DomainError(
                    f"resolvent denominator {denom} <= 0 at lattice "
                    f"point k0={k0}, k={tuple(kfull)} (mu={params.mu} "
                    "too negative)")
            yield np.conj(amp_j) * amp_i / denom


def _slot_pairs(n: int):
    return ((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)


def t_off_per_complex(xi: SingularAmplitude, params: ModelParams) -> complex:
    """Off-diagonal singular form by exact pair enumeration, kept complex.

    Computes the vector form over xi_i = (-1)^{i+1} xi and divides by n,
    giving the per-particle fermionic value.
    """
    if xi.n != params.n:
        raise PreconditionError(f"amplitude has n={xi.n}, params n={params.n}")
    _guard_negative_mu(xi, params)
    n = xi.n
    if n == 1:
        return 0.0 + 0.0j
    sp = xi.spacing
    re_terms, im_terms = [], []
    for i, j in _slot_pairs(n):
        for val in _pair_terms(xi, xi, i, j, sp, params):
            if (i + j) % 2:
                val = -val
            re_terms.append(val.real)
            im_terms.append(val.imag)
    meas = sp ** (3 * (n + 1))
    total = complex(math.fsum(re_terms), math.fsum(im_terms))
    return -meas * total / n


def t_off_per(xi: SingularAmplitude, params: ModelParams) -> float:
    """Real part of the off-diagonal form (exact for fermionic input)."""
    return t_off_per_complex(xi, params).real


def t_alpha_per(xi: SingularAmplitude, params: ModelParams) -> TorusFormBreakdown:
    """Full fermionic singular form T = n (alpha-term + dia + off)."""
    norm = xi.norm_sq()
    alpha_term = (2.0 * params.m / (params.m + 1.0)) * params.alpha * params.n * norm
    dia = params.n * t_dia_per(xi, params)
    off = params.n * t_off_per(xi, params)
    meta = {"norm_sq": norm, "n": params.n, "mu": params.mu}
    return TorusFormBreakdown(alpha_term=alpha_term, t_dia=dia, t_off=off,
                              total=alpha_term + dia + off, mu=params.mu,
                              metadata=meta)


def off_bound_check(xi: SingularAmplitude, params: ModelParams,
                    lambda_tilde_val: float, kappa: float, c_t: float):
    """Off-diagonal lower-bound data: returns (lhs, rhs) where lhs is the
    total off-diagonal form and rhs is the lattice-functional envelope
    -(Lambda-tilde/(1 - kappa/c_T)) times the continuum-kernel weighted
    norm of the amplitude. The inequality asserts lhs >= rhs whenever the
    spectral shift is above the confinement scale.
    """
    if not 0 <= kappa < c_t:
        raise PreconditionError(f"kappa must lie in [0, c_T), got {kappa}")
    floor = -kappa * params.n ** (5.0 / 3.0) / params.ell ** 2
    if params.mu < floor:
        raise PreconditionError(
            f"mu = {params.mu} below the confinement floor {floor}")
    lhs = params.n * t_off_per(xi, params)
    meas = xi.spacing ** (3 * xi.n)
    terms = []
    for key, amp in xi.items():
        k1, khat_sq = _split_kvec(params, [xi.momentum(t) for t in key])
        terms.append(abs(amp) ** 2 * l_continuum(params, k1, khat_sq))
    weighted = meas * math.fsum(terms)
    rhs = -lambda_tilde_val / (1.0 - kappa / c_t) * weighted
    return lhs, rhs


def t_tilde_vector(xis, params: ModelParams):
    """Vector (non-reduced) forms over explicit (xi_1 .. xi_n): returns
    (alpha_tilde, dia_tilde, off_tilde). Used to verify the fermionic
    reduction: with xi_i = (-1)^{i+1} xi the total equals n times the
    per-particle form.
    """
    xis = list(xis)
    if len(xis) != params.n:
        raise PreconditionError(f"need {params.n} amplitudes, got {len(xis)}")
    sp = xis[0].spacing
    n = params.n
    alpha_t = math.fsum(
        (2.0 * params.m / (params.m + 1.0)) * params.alpha * x.norm_sq()
        for x in xis)
    dia_t = math.fsum(t_dia_per(x, params) for x in xis)
    re_terms = [val.real for i, j in _slot_pairs(n) for val in
                _pair_terms(xis[i - 1], xis[j - 1], i, j, sp, params)]
    off_t = -sp ** (3 * (n + 1)) * math.fsum(re_terms)
    return alpha_t, dia_t, off_t


# ---------------------------------------------------------------------------
# continuum identities

def _reduced_weight(m, ksq_rel, nu):
    return math.pi**2 * (2.0 * m / (m + 1.0)) ** 1.5 / math.sqrt(
        ksq_rel / (2.0 * (1.0 + m)) + nu)


def g_norm_sq(xi, nu: float, params: ModelParams) -> float:
    """Squared norm of the resolvent at spectral shift nu applied to a
    continuum boundary amplitude, given as a callable radial profile
    (n = 1): a 1D radial quadrature after the impurity-momentum
    integration.
    """
    m = params.m
    if params.n != 1:
        raise PreconditionError("continuum radial profile requires n=1")
    check_domain("nu", nu, 0.0)

    def integrand(r):
        return 4.0 * math.pi * r * r * abs(xi(r)) ** 2 * _reduced_weight(m, r * r, nu)

    val, _ = _sci_integrate.quad(integrand, 0.0, np.inf, limit=200)
    return val


def _profile_norm_sq(xi):
    val, _ = _sci_integrate.quad(
        lambda r: 4.0 * math.pi * r * r * abs(xi(r)) ** 2, 0.0, np.inf, limit=200)
    return val


def rep_sing_check(xi, params: ModelParams) -> float:
    """Relative residual of the resolvent-integral representation of the
    singular form at n=1, where both sides reduce to radial quadratures.

    left  = (2m alpha/(m+1)) |xi|^2 + integral of |xi-hat|^2 L
    right = (2m alpha/(m+1) + 2 pi^2 (2m/(m+1))^{3/2} sqrt(mu)) |xi|^2
            - integral over nu >= mu of the resolvent-norm deficit
    """
    if params.n != 1:
        raise PreconditionError("the n=1 reduction is required here")
    check_domain("mu", params.mu, 0.0)
    m, mu, alpha = params.m, params.mu, params.alpha
    c32 = (2.0 * m / (m + 1.0)) ** 1.5
    norm = _profile_norm_sq(xi)

    def dia_integrand(r):
        rad = r * r / (2.0 * (1.0 + m)) + mu
        return (4.0 * math.pi * r * r * abs(xi(r)) ** 2
                * 2.0 * math.pi**2 * c32 * math.sqrt(rad))

    t_dia, _ = _sci_integrate.quad(dia_integrand, 0.0, np.inf, limit=200)
    left = (2.0 * m / (m + 1.0)) * alpha * norm + t_dia

    def deficit(nu):
        return g_norm_sq(xi, nu, params) - math.pi**2 * c32 * norm / math.sqrt(nu)

    tail, _ = _sci_integrate.quad(deficit, mu, np.inf, limit=200)
    right = ((2.0 * m / (m + 1.0)) * alpha
             + 2.0 * math.pi**2 * c32 * math.sqrt(mu)) * norm - tail
    return abs(left - right) / (abs(left) + abs(right))


# ---------------------------------------------------------------------------
# random ensembles

def random_fermionic_amplitude(n: int, ell: float, seed: int,
                               n_terms: int = 4) -> SingularAmplitude:
    """Random finitely supported fermionic amplitude, reproducible by seed.

    Draws base entries (v0; w_1 < ... < w_{n-1}) with distinct companion
    momenta among the integer triples in [-2, 2]^3 and antisymmetrizes
    over the companion slots.
    """
    rng = np.random.default_rng(seed)
    support = {}
    labels = [(a, b, c)
              for a in range(-2, 3)
              for b in range(-2, 3)
              for c in range(-2, 3)]
    for _ in range(n_terms):
        v0 = labels[rng.integers(len(labels))]
        comp = sorted(labels[i] for i in rng.choice(len(labels), size=n - 1,
                                                    replace=False))
        amp = complex(rng.standard_normal(), rng.standard_normal())
        for perm in itertools.permutations(range(n - 1)):
            key = (v0,) + tuple(comp[p] for p in perm)
            support[key] = support.get(key, 0.0) + _perm_sign(perm) * amp
    return SingularAmplitude(n=n, ell=ell, support=support,
                             antisymmetric=(n > 1))

