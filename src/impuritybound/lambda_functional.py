"""The stability functional: continuum integral, supremum searches, the
critical mass, and the lattice analogue with its sum-vs-integral gap.

The kernel is homogeneous of degree -3 under simultaneous scaling of
(s_tilde, Q, K, t_tilde), so the supremum search fixes |s_tilde| = 1
(the "gauge") and scans |K|, Q and the angle between s_tilde and K. All
integrals use tensorized Gauss-Legendre quadrature in spherical
coordinates centered at the kernel's singular point A*K, where the
1/(t-AK)^2 factor is cancelled by the Jacobian. The fixed-resolution rule
evaluates its grid in blocks of whole r-rows into one grid-sized array and
sums that array once, so its floats do not depend on the block size; the
lattice sum likewise walks its index box in blocks of z-slabs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._lazy import lazy_import
from .errors import AccuracyError, DomainError, PreconditionError, SearchError
from .kernels import LambdaSetup, lambda_coefficients, quartic_root_factor
from .params import (LambdaArgs, LambdaResult, SupSearchConfig, check_domain,
                     default_a_const)

_sci_integrate = lazy_import("scipy.integrate")
_sci_optimize = lazy_import("scipy.optimize")

__all__ = [
    "integrate_lambda", "lambda_of_m", "critical_mass", "lattice_lambda_sum",
    "lambda_tilde", "fit_c_lambda", "LatticeSumResult",
]


@lru_cache(maxsize=64)
def _gl(n: int):
    x, w = leggauss(n)
    return x, w


def _args_geometry(args: LambdaArgs):
    """Reduce vector arguments to the invariant magnitudes (S, K, psi)."""
    s = np.asarray(args.s_tilde)
    k = np.asarray(args.k_vec)
    S = float(np.sqrt(s @ s))
    K = float(np.sqrt(k @ k))
    if S > 0 and K > 0:
        cospsi = float(s @ k) / (S * K)
        psi = math.acos(min(1.0, max(-1.0, cospsi)))
    else:
        psi = 0.0
    return S, K, psi


@lru_cache(maxsize=16)
def _angular(nth: int, nphi: int):
    """Angular nodes and weights of the (theta, phi) rule, shaped to
    broadcast against an (nr, nth, nphi) grid: cos(theta), sin(theta) and
    the theta weights as (1, nth, 1); cos(phi), sin(phi)^2 and the phi
    weights as (1, 1, nphi). phi runs over (0, pi); the integrand is even
    under phi -> -phi since s_y = 0."""
    ct, wt = _gl(nth)
    st = np.sqrt(np.maximum(1.0 - ct**2, 0.0))
    xp, wp = _gl(nphi)
    phi = 0.5 * math.pi * (xp + 1.0)
    jp = 0.5 * math.pi * wp
    th = [v.reshape(1, nth, 1) for v in (ct, st, wt)]
    ph = [v.reshape(1, 1, nphi) for v in (np.cos(phi), np.sin(phi) ** 2, jp)]
    for v in th + ph:
        v.flags.writeable = False
    return tuple(th + ph)


# grid points per block of _lam_quad_fixed: its temporaries stay cache-sized
_QUAD_BLOCK_POINTS = 1 << 15


def _lam_quad_fixed(m, A, S, K, psi, Q, delta, n, ell,
                    nr, nth, nphi, r_hi=None):
    """Integral of lambda over t (r_hi=None) or over |t - AK| <= r_hi,
    at a fixed tensor-product resolution.

    Coordinates: K along e_z, s_tilde in the x-z plane at angle psi.
    Factors of (r, theta) alone are formed once on (nr, nth, 1) arrays.
    The phi-dependent terms are evaluated in blocks of whole r-rows of at
    most ``_QUAD_BLOCK_POINTS`` points (one row if a row is larger), in
    block-sized temporaries; each block's integrand values land in their
    rows of one (nr, nth, nphi) array. Each element sees the same
    operations in the same order as a plain meshgrid evaluation, and the
    final sum runs over that one C-contiguous grid, so numpy's pairwise
    summation adds the same values in the same tree. Results therefore
    depend neither on this layout nor on the block size.
    """
    if S == 0.0:
        return 0.0
    c1, a, c4 = lambda_coefficients(m)
    ak = A * K
    sx, sz = S * math.sin(psi), S * math.cos(psi)
    B = a * (2.0 * Q * Q + A * K * K)
    dreg = delta / ell**2
    s2 = S * S

    pref = (sx * sx + (sz - ak) ** 2 + 2.0 * Q * Q + n * dreg) / (
        math.pi**2 * (1.0 + m))
    pref *= quartic_root_factor(c1, s2, B)

    scale = math.sqrt(s2 + 2.0 * Q * Q + ak * ak + B + dreg)
    if scale == 0.0:
        return 0.0

    xr, wr = _gl(nr)
    if r_hi is None:
        # map r = scale * x/(1-x), x in (0,1)
        x = 0.5 * (xr + 1.0)
        r = scale * x / (1.0 - x)
        jr = 0.5 * wr * scale / (1.0 - x) ** 2
    else:
        r = 0.5 * r_hi * (xr + 1.0)
        jr = 0.5 * r_hi * wr
    ct, st, wt, cp, sp2, jp = _angular(nth, nphi)
    R = r.reshape(nr, 1, 1)
    tz = ak + R * ct
    # (r, theta) factors of t_x, t_y^2, t_z^2, s_z t_z and the r and theta
    # weights; the 1/((t-AK)^2 + dreg) factor against the Jacobian r^2
    rst = R * st
    rrss = R * R * st * st
    tz2 = tz * tz
    sztz = sz * tz
    jrwt = jr.reshape(nr, 1, 1) * wt
    rfac = R * R / (R * R + dreg)

    full = np.empty((nr, nth, nphi))
    step = max(1, _QUAD_BLOCK_POINTS // (nth * nphi))
    tx_buf = np.empty((min(step, nr), nth, nphi))
    tmp_buf = np.empty_like(tx_buf)
    csq_buf = np.empty_like(tx_buf)
    for i0 in range(0, nr, step):
        rows = slice(i0, i0 + step)
        k = min(step, nr - i0)
        # t_x, then t^2 (in its rows of the full grid) and s.t, in place
        tx = np.multiply(rst[rows], cp, out=tx_buf[:k])
        t2 = np.multiply(tx, tx, out=full[rows])
        tmp = np.multiply(rrss[rows], sp2, out=tmp_buf[:k])
        t2 += tmp
        t2 += tz2[rows]
        sdott = tx
        sdott *= sx
        sdott += sztz[rows]
        denom = np.add(s2, t2, out=tmp)
        denom += B
        denom *= denom
        csq = np.multiply(c4, sdott, out=csq_buf[:k])
        csq **= 2
        denom -= csq
        f = t2
        f *= c1
        f += B
        f **= -0.25
        f *= np.abs(sdott, out=sdott)
        f /= denom
        f *= rfac[rows]
        f *= np.multiply(jrwt[rows], jp, out=csq)
    return 2.0 * pref * float(full.sum())


_LEVELS = ((48, 28, 28), (72, 44, 44), (108, 64, 64), (160, 96, 96),
           (240, 144, 144))


def integrate_lambda(args: LambdaArgs, tol: float = 1e-5,
                     return_err: bool = False, r_hi=None):
    """Integral of the lambda kernel over t_tilde in R^3.

    The integrable singularity at t_tilde = A*K (delta = 0) is absorbed by
    spherical coordinates centered there. The resolution ladder is refined
    until two consecutive levels agree within ``tol * max(1, |value|)``;
    failure raises :class:`AccuracyError` carrying the best estimate.
    """
    S, K, psi = _args_geometry(args)
    if args.delta == 0.0 and args.q_mu <= 0.0 and S == 0.0 and K == 0.0:
        raise DomainError("degenerate input: q_mu = delta = 0 with s = K = 0")
    prev = None
    err = math.inf
    for nr, nth, nphi in _LEVELS:
        val = _lam_quad_fixed(args.m, args.a_const, S, K, psi, args.q_mu,
                              args.delta, args.n, args.ell, nr, nth, nphi,
                              r_hi=r_hi)
        if prev is not None:
            err = abs(val - prev)
            if err <= tol * max(1.0, abs(val)):
                return (val, err) if return_err else val
        prev = val
    raise AccuracyError(
        f"lambda integral did not converge to tol={tol} (last change {err})",
        estimate=prev, error_bound=err)


def _fold_angle(psi: float) -> float:
    psi = psi % (2.0 * math.pi)
    return 2.0 * math.pi - psi if psi > math.pi else psi


def lambda_of_m(m: float, cfg: SupSearchConfig = SupSearchConfig()) -> LambdaResult:
    """Supremum over (s_tilde, K, Q_mu) of the lambda integral.

    Coarse log-grid scan of (|K|, Q) over [1e-3, 1e3]^2 and of the angle,
    under the scaling gauge |s_tilde| = 1, followed by Nelder-Mead
    refinement from the best ``cfg.n_starts`` grid cells.
    """
    check_domain("m", m, 0.0)
    A = default_a_const(m)

    def value(u, v, psi, level):
        S, K, Q = 1.0, 10.0**u, 10.0**v
        try:
            return _lam_quad_fixed(m, A, S, K, psi, Q, 0.0, 1, 1.0,
                                   *_LEVELS[level])
        except DomainError:
            return 0.0

    grid = np.linspace(-3.0, 3.0, cfg.n_magnitude)
    angles = np.linspace(0.0, math.pi, cfg.n_angle)
    cells = []
    for u in grid:
        for v in grid:
            for psi in angles:
                cells.append((value(u, v, psi, 0), u, v, psi))
    cells.sort(key=lambda c: (-c[0], c[1:]))
    if cells[0][0] <= 0.0:
        raise SearchError("coarse scan found no positive value",
                          diagnostics=cells)
    best_coarse = cells[0][0]

    best_val, best_x = -math.inf, None
    for val0, u, v, psi in cells[:cfg.n_starts]:
        res = _sci_optimize.minimize(
            lambda x: -value(x[0], x[1], _fold_angle(x[2]), 1),
            x0=np.array([u, v, psi]), method="Nelder-Mead",
            options=dict(xatol=1e-4, fatol=cfg.quad_tol * 0.1,
                         maxiter=cfg.refine_maxiter))
        if -res.fun > best_val:
            best_val, best_x = -res.fun, res.x
    S, K, Q = 1.0, 10.0**best_x[0], 10.0**best_x[1]
    psi = _fold_angle(best_x[2])
    # certify the best point at the accuracy ladder
    final, err_quad = integrate_lambda(
        LambdaArgs(s_tilde=(S * math.sin(psi), 0.0, S * math.cos(psi)),
                   k_vec=(0.0, 0.0, K), q_mu=Q, m=m),
        tol=cfg.quad_tol, return_err=True)
    err_search = max(final - best_coarse, 0.0)
    return LambdaResult(
        value=max(final, 0.0),
        argmax={"s_tilde": S, "k_vec": K, "angle": psi, "q_mu": Q,
                "gauge": "s_tilde"},
        err_quad=err_quad, err_search=err_search)


def critical_mass(cfg: SupSearchConfig = SupSearchConfig(),
                  bracket=(0.30, 0.45)) -> float:
    """Bisection root of Lambda(m) = 1 inside ``bracket``.

    Requires finite 0 < m_lo < m_hi (checked before any search) and
    Lambda(m_lo) > 1 > Lambda(m_hi); returns the midpoint of the final
    bracket at tolerance ``cfg.m_tol``. If ``cfg.m_tol`` is below the
    float spacing of the bracket, the bisection stops once its ends are
    adjacent floats (the midpoint rounds to one of them) and returns that
    midpoint.
    """
    lo, hi = bracket
    check_domain("lo", lo, 0.0)
    check_domain("hi", hi, 0.0)
    if not lo < hi:
        raise PreconditionError(f"invalid bracket: need lo < hi, got ({lo}, {hi})")
    f_lo = lambda_of_m(lo, cfg).value
    f_hi = lambda_of_m(hi, cfg).value
    if not (f_lo > 1.0 > f_hi):
        raise PreconditionError(
            f"invalid bracket: Lambda({lo})={f_lo}, Lambda({hi})={f_hi}; "
            "need Lambda(m_lo) > 1 > Lambda(m_hi)")
    while hi - lo > cfg.m_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if lambda_of_m(mid, cfg).value > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# lattice sums

class LatticeSumResult(float):
    """Float subclass carrying the point count of a sum."""

    def __new__(cls, value, n_points):
        obj = super().__new__(cls, value)
        obj.n_points = n_points
        return obj


def _envelope_tail(args: LambdaArgs, radius: float) -> float:
    """Upper bound on (2 pi/ell)^3 * sum of lambda over |t - AK| > radius,
    from the closed-form radial envelope of the kernel; the tail bound of
    ``lattice_lambda_sum(args, radius)``."""
    m, Q = args.m, args.q_mu
    setup = LambdaSetup(args)
    s2, dreg = setup.sk2, setup.dreg
    q2 = 2.0 * Q * Q
    if s2 + q2 <= 0:
        return 0.0
    c5 = ((m + 1.0) / m) ** 1.5 * (m * m + 4.0 * m + 2.0) / (
        2.0 * math.pi**2 * m * (m + 2.0) ** 2)
    c0 = c5 * (s2 + q2 + args.n * dreg) * (s2 + q2) ** -0.25

    def env(r):
        return c0 / ((r * r + dreg) * (r * r + q2) ** 0.25 * (s2 + r * r + q2))

    h = 2.0 * math.pi / args.ell
    r0 = max(radius - math.sqrt(3.0) * h / 2.0, 0.5 * h)
    val, _ = _sci_integrate.quad(lambda r: 4.0 * math.pi * r * r * env(r),
                                 r0, np.inf, limit=200)
    return float(val)


# box points per block of lattice_lambda_sum: its arrays stay cache-sized
_BLOCK_POINTS = 1 << 13


def lattice_lambda_sum(args: LambdaArgs, cutoff: float) -> LatticeSumResult:
    """(2 pi/ell)^3 times the kernel summed over the shifted lattice
    L + A*K within |t - AK| <= cutoff; ``_envelope_tail(args, cutoff)``
    bounds the rest.

    The index box [-nmax, nmax]^3 is walked in blocks of whole z-slabs,
    indexed [z, x, y], of at most ``_BLOCK_POINTS`` points (one slab if a
    slab is larger), so memory stays bounded whatever the cutoff. Squared
    lengths are broadcast from per-axis coordinates as (x^2 + y^2) + z^2,
    the order of a row sum over (x, y, z). s.t is one matrix-vector product
    per slab over that slab's selected points, and each slab's kernel
    values are summed and added to the total in slab order. The result
    therefore does not depend on the block size.
    """
    check_domain("cutoff", cutoff, 0.0, strict=False)
    h = 2.0 * math.pi / args.ell
    ak = args.a_const * np.asarray(args.k_vec)
    if args.delta == 0.0:
        # reject an exactly singular lattice point
        frac = ak / h - np.round(ak / h)
        if np.all(np.abs(frac) < 1e-12):
            raise DomainError(
                "delta = 0 with A*K on the lattice: summand is singular")
    kernel = LambdaSetup(args)

    nmax = int(math.ceil(cutoff / h))
    hn = np.arange(-nmax, nmax + 1) * h
    side = hn.size
    slab = side * side
    step = max(1, _BLOCK_POINTS // max(slab, 1))
    # per-axis lattice coordinates t_c and offsets t_c - AK_c
    px, py, pz = (hn + ak[c] for c in range(3))
    dx, dy, dz = (p - ak[c] for c, p in enumerate((px, py, pz)))
    dz2, tz2 = dz * dz, pz * pz
    # (x, y) tables of one slab, and of a block's worth of slabs, C order
    dxy = ((dx * dx)[:, None] + dy * dy).ravel()
    txy = np.tile(((px * px)[:, None] + py * py).ravel(), step)
    xs = np.tile(np.repeat(px, side), step)
    ys = np.tile(py, side * step)
    c2 = cutoff * cutoff
    total = 0.0
    npts = 0
    for z0 in range(0, side, step):
        zs = slice(z0, z0 + step)
        d2 = (dxy + dz2[zs, None]).ravel()
        idx = np.flatnonzero(d2 <= c2)
        if idx.size == 0:
            continue
        sing = d2[idx]
        sing += kernel.dreg
        if np.any(sing <= 0):
            raise DomainError(
                "lattice point coincides with the singular point at delta=0")
        nz = min(step, side - z0)
        # [lo, hi) of each non-empty slab in the block's selected points
        cuts = np.searchsorted(idx, slab * np.arange(nz + 1)).tolist()
        spans = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        counts = np.diff(cuts)
        t2 = txy[idx]
        t2 += np.repeat(tz2[zs], counts)
        pts = np.empty((idx.size, 3))
        pts[:, 0] = xs[idx]
        pts[:, 1] = ys[idx]
        pts[:, 2] = np.repeat(pz[zs], counts)
        # one product per slab: BLAS row results can depend on the row count
        sdott = np.empty(idx.size)
        for lo, hi in spans:
            sdott[lo:hi] = pts[lo:hi] @ kernel.s
        chunk = kernel.value(t2, sdott, sing)
        for lo, hi in spans:
            total += float(chunk[lo:hi].sum())
        npts += idx.size
    return LatticeSumResult(h**3 * total, npts)


def _hybrid_lattice_sum(args: LambdaArgs, tol: float = 1e-6) -> float:
    """Lattice sum evaluated as continuum integral plus a local
    sum-minus-integral correction near the singular point: the full
    integral, minus the integral over the sharp ball of 28 lattice
    spacings around AK, plus the lattice sum over that ball.

    The sum-minus-integral outside the ball is dropped, and it is not
    negligible at the 1e-5 level: it is the lattice-point discrepancy of a
    sharp sphere, which does not decay smoothly with the radius. At
    delta = 2, N = 10, s = (40, 0, 0), K = (0, 0, 30), Q = 25, m = 1 and
    tol = 1e-5, balls of 28, 40 and 56 spacings give 0.1638070, 0.1638025
    and 0.1638042: swings of about 4e-6, not monotone in the radius.
    """
    r0 = 28 * (2.0 * math.pi / args.ell)
    full = integrate_lambda(args, tol=tol)
    local_int = integrate_lambda(args, tol=tol, r_hi=r0)
    local_sum = lattice_lambda_sum(args, cutoff=r0)
    return full - local_int + float(local_sum)


def lambda_tilde(m: float, kappa: float, n: int, ell: float,
                 cfg: SupSearchConfig = SupSearchConfig(), *, c_t: float,
                 delta_factors=(0.3, 1.0, 3.0)) -> LambdaResult:
    """Lattice analogue of the stability functional.

    inf over a delta grid (around delta ~ N^{4/9}) of the sup over
    (s_tilde, K) and Q_mu on or above the boundary
    Q_mu^2 = (c_T - kappa) N^{5/3} / ell^2 of the lattice sum.
    """
    if not 0 < kappa < c_t:
        raise PreconditionError(f"need 0 < kappa < c_T={c_t}, got {kappa}")
    check_domain("m", m, 0.0)
    q_b = math.sqrt((c_t - kappa)) * n ** (5.0 / 6.0) / ell

    def evaluate(S, K, psi, Q, delta, tol):
        args = LambdaArgs(
            s_tilde=(S * math.sin(psi), 0.0, S * math.cos(psi)),
            k_vec=(0.0, 0.0, K), q_mu=Q, m=m, delta=delta, n=n, ell=ell)
        try:
            return _hybrid_lattice_sum(args, tol=tol)
        except AccuracyError as exc:
            return float(exc.estimate)

    best_overall = None
    for fac in delta_factors:
        delta = fac * n ** (4.0 / 9.0)
        ratios = 10.0 ** np.linspace(0.0, 3.0, 5)
        angles = np.linspace(0.0, math.pi, 4)
        qs = (q_b * 1.0000001, q_b * 2.0)
        cells = []
        for rs in ratios:
            for rk in ratios:
                for psi in angles:
                    for Q in qs:
                        v = evaluate(rs * Q, rk * Q, psi, Q, delta, 1e-4)
                        cells.append((v, rs, rk, psi, Q))
        cells.sort(key=lambda c: -c[0])
        v0, rs, rk, psi0, Q0 = cells[0]

        def neg(x):
            lrs, lrk, psi, lq = x
            Q = q_b * (1.0 + math.exp(lq))  # keep Q strictly above the boundary
            return -evaluate(10.0**lrs * Q, 10.0**lrk * Q,
                             _fold_angle(psi), Q, delta, cfg.quad_tol)

        lq0 = math.log(max(Q0 / q_b - 1.0, 1e-7))
        res = _sci_optimize.minimize(
            neg, x0=np.array([math.log10(rs), math.log10(rk), psi0, lq0]),
            method="Nelder-Mead",
            options=dict(xatol=1e-3, fatol=cfg.quad_tol, maxiter=100))
        val = -res.fun
        Q = q_b * (1.0 + math.exp(res.x[3]))
        cand = LambdaResult(
            value=max(val, 0.0),
            argmax={"s_tilde": 10.0 ** res.x[0] * Q, "k_vec": 10.0 ** res.x[1] * Q,
                    "angle": _fold_angle(res.x[2]), "q_mu": Q, "delta": delta},
            err_quad=cfg.quad_tol, err_search=max(val - v0, 0.0))
        if best_overall is None or cand.value < best_overall.value:
            best_overall = cand
    return best_overall


def fit_c_lambda(sweep) -> float:
    """Least envelope constant for the lattice-vs-continuum gap law
    gap <= c * m^{-1} (1 - kappa/c_T)^{-2} N^{-2/9} over a sweep.

    Each sweep row must provide m, kappa, n, value (the lattice functional),
    lambda_m (the continuum functional) and c_t.
    """
    rows = list(sweep)
    if len(rows) < 6:
        raise PreconditionError(
            f"need at least 6 sweep triples to fit c_Lambda, got {len(rows)}")
    c = 0.0
    for row in rows:
        gap = max(row["value"] - row["lambda_m"], 0.0)
        c = max(c, gap * row["m"] * (1.0 - row["kappa"] / row["c_t"]) ** 2
                * row["n"] ** (2.0 / 9.0))
    return max(c, 1e-12)
