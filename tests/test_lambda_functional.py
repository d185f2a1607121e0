import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate

from impuritybound import lambda_functional
from impuritybound.errors import AccuracyError, DomainError, PreconditionError
from impuritybound.kernels import lambda_coefficients, lambda_kernel
from impuritybound.lambda_functional import (_LEVELS, _QUAD_BLOCK_POINTS,
                                             _envelope_tail, _gl,
                                             _hybrid_lattice_sum,
                                             _lam_quad_fixed, critical_mass,
                                             fit_c_lambda, integrate_lambda,
                                             lattice_lambda_sum)
from impuritybound.params import (LambdaArgs, LambdaResult, SupSearchConfig,
                                  default_a_const)

# frozen in-repo reference: full quadrature ladder at tol 1e-5
SPOT_ARGS = dict(s_tilde=(1.0, 0.0, 0.0), k_vec=(0.0, 0.0, 1.1),
                 q_mu=0.4, m=1.0)
SPOT_VALUE = 0.1489504349749875


def test_integral_spot_value():
    val = integrate_lambda(LambdaArgs(**SPOT_ARGS), tol=1e-5)
    assert val == pytest.approx(SPOT_VALUE, rel=1e-9)


def test_integral_error_report():
    val, err = integrate_lambda(LambdaArgs(**SPOT_ARGS), tol=1e-5,
                                return_err=True)
    assert err < 1e-5 * max(1.0, abs(val))


def test_integral_unreachable_tolerance():
    with pytest.raises(AccuracyError) as exc:
        integrate_lambda(LambdaArgs(**SPOT_ARGS), tol=1e-12)
    # the failure carries a usable estimate
    assert exc.value.estimate == pytest.approx(SPOT_VALUE, rel=1e-4)


def test_integral_scale_invariance():
    """The integral of a (-3)-homogeneous kernel is dilation invariant."""
    nu = 2.7
    scaled = LambdaArgs(s_tilde=(nu, 0.0, 0.0), k_vec=(0.0, 0.0, 1.1 * nu),
                        q_mu=0.4 * nu, m=1.0)
    v0 = integrate_lambda(LambdaArgs(**SPOT_ARGS), tol=1e-5)
    v1 = integrate_lambda(scaled, tol=1e-5)
    assert v1 == pytest.approx(v0, rel=1e-6)


def test_integral_rotation_invariance():
    """Joint rotation of s, K leaves the integral unchanged."""
    c, s = math.cos(0.9), math.sin(0.9)
    rot = LambdaArgs(s_tilde=(c, 0.0, -s), k_vec=(1.1 * s, 0.0, 1.1 * c),
                     q_mu=0.4, m=1.0)
    v1 = integrate_lambda(rot, tol=1e-5)
    assert v1 == pytest.approx(SPOT_VALUE, rel=1e-6)


def _meshgrid_quad(m, A, S, K, psi, Q, delta, n, ell, nr, nth, nphi,
                   r_hi=None):
    """Reference evaluation of the fixed-resolution quadrature on full
    meshgrid arrays, one expression per factor."""
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
    quart_s = c1 * s2 + B
    if quart_s <= 0:
        raise DomainError("vanishing quartic-root factor")
    pref *= quart_s**-0.25
    scale = math.sqrt(s2 + 2.0 * Q * Q + ak * ak + B + dreg)
    if scale == 0.0:
        return 0.0
    xr, wr = _gl(nr)
    if r_hi is None:
        x = 0.5 * (xr + 1.0)
        r = scale * x / (1.0 - x)
        jr = 0.5 * wr * scale / (1.0 - x) ** 2
    else:
        r = 0.5 * r_hi * (xr + 1.0)
        jr = 0.5 * r_hi * wr
    ct, wt = _gl(nth)
    xp, wp = _gl(nphi)
    phi = 0.5 * math.pi * (xp + 1.0)
    jp = 0.5 * math.pi * wp
    R, CT, PH = np.meshgrid(r, ct, phi, indexing="ij")
    ST = np.sqrt(np.maximum(1.0 - CT**2, 0.0))
    tz = ak + R * CT
    tx = R * ST * np.cos(PH)
    t2 = tx * tx + R * R * ST * ST * np.sin(PH) ** 2 + tz * tz
    sdott = sx * tx + sz * tz
    bracket = s2 + t2 + B
    denom = bracket * bracket - (c4 * sdott) ** 2
    f = (c1 * t2 + B) ** -0.25 * np.abs(sdott) / denom
    f *= R * R / (R * R + dreg)
    W = jr[:, None, None] * wt[None, :, None] * jp[None, None, :]
    return 2.0 * pref * float((f * W).sum())


def test_quadrature_bit_identical_to_meshgrid_reference():
    """The broadcast, in-place quadrature returns exactly the meshgrid
    reference's floats: same operations per element, same summation."""
    rng = np.random.default_rng(20261018)
    for i in range(48):
        m = float(10.0 ** rng.uniform(math.log10(0.25), math.log10(30.0)))
        S, K, Q = (float(10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(3))
        psi = float(rng.uniform(0.0, math.pi))
        delta = 0.0 if i % 2 else float(10.0 ** rng.uniform(-2.0, 2.0))
        r_hi = None if i % 4 < 2 else float(10.0 ** rng.uniform(-2.0, 3.0))
        level = (0, 1, 0, 1, 2, 0, 1, 0)[i % 8]
        args = (m, default_a_const(m), S, K, psi, Q, delta,
                int(rng.integers(1, 200)), float(rng.uniform(0.5, 2.0)),
                *_LEVELS[level])
        assert _lam_quad_fixed(*args, r_hi=r_hi) == _meshgrid_quad(
            *args, r_hi=r_hi)
    # both reject a vanishing quartic-root factor: c1 < 0 below m = 0, and
    # an underflowing S^2 with Q = K = 0
    for m, S in ((-0.5, 1.0), (1.0, 1e-200)):
        args = (m, 1.0, S, 0.0, 0.3, 0.0, 0.0, 1, 1.0, *_LEVELS[0])
        for quad in (_lam_quad_fixed, _meshgrid_quad):
            with pytest.raises(DomainError):
                quad(*args)


def _random_quad_args(rng, i, level):
    """Seeded positional arguments of _lam_quad_fixed and an r_hi (None for
    the full integral on every other pair of cases)."""
    m = float(10.0 ** rng.uniform(math.log10(0.25), math.log10(30.0)))
    S, K, Q = (float(10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(3))
    psi = float(rng.uniform(0.0, math.pi))
    delta = 0.0 if i % 2 else float(10.0 ** rng.uniform(-2.0, 2.0))
    r_hi = None if i % 4 < 2 else float(10.0 ** rng.uniform(-2.0, 3.0))
    args = (m, default_a_const(m), S, K, psi, Q, delta,
            int(rng.integers(1, 200)), float(rng.uniform(0.5, 2.0)),
            *_LEVELS[level])
    return args, r_hi


def test_quadrature_level3_bit_identical_to_meshgrid_reference():
    """At level 3 a block is three r-rows and the last block one row; the
    meshgrid reference still fits in memory (about 580 MB at level 4)."""
    rng = np.random.default_rng(20261020)
    for i in range(4):
        args, r_hi = _random_quad_args(rng, i, 3)
        assert _lam_quad_fixed(*args, r_hi=r_hi) == _meshgrid_quad(
            *args, r_hi=r_hi)


def test_quadrature_independent_of_block_size(monkeypatch):
    """One r-row a block, odd sizes, the default and one block for the
    whole grid all give the same floats, ball and full."""
    rng = np.random.default_rng(20261021)
    cases = [_random_quad_args(rng, i, i % 3) for i in range(24)]
    expected = [_lam_quad_fixed(*args, r_hi=r_hi) for args, r_hi in cases]
    for block in (1, 777, _QUAD_BLOCK_POINTS, 1 << 30):
        monkeypatch.setattr(lambda_functional, "_QUAD_BLOCK_POINTS", block)
        assert [_lam_quad_fixed(*args, r_hi=r_hi)
                for args, r_hi in cases] == expected


def test_quadrature_memory_bounded():
    """Level 4 is 240 * 144 * 144 points: one 40 MB grid array plus
    block-sized temporaries (four whole-grid arrays would be 160 MB)."""
    args = (1.0, default_a_const(1.0), 1.0, 1.1, 0.7, 0.4, 0.0, 1, 1.0,
            *_LEVELS[4])
    _lam_quad_fixed(*args)  # fill the node caches before tracing
    tracemalloc.start()
    try:
        _lam_quad_fixed(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56e6


def test_critical_mass_stops_at_float_spacing(monkeypatch):
    """With m_tol far below the float spacing of the bracket the bisection
    ends once its ends are adjacent floats, at about 52 halvings."""
    root = 0.3577
    calls = []

    def step_lambda(m, cfg):
        calls.append(m)
        assert len(calls) <= 60
        return LambdaResult(value=2.0 if m < root else 0.5)

    monkeypatch.setattr(lambda_functional, "lambda_of_m", step_lambda)
    got = critical_mass(SupSearchConfig(m_tol=1e-20), bracket=(0.30, 0.45))
    assert len(calls) <= 60
    assert abs(got - root) <= 2.0 * math.ulp(root)


LATTICE_ARGS = dict(s_tilde=(40.0, 0.0, 0.0), k_vec=(0.0, 0.0, 30.0),
                    q_mu=25.0, m=1.0, delta=2.0, n=10, ell=1.0)
HYBRID_VALUE = 0.16380698821107123


def test_lattice_sum_and_hybrid_agree():
    args = LambdaArgs(**LATTICE_ARGS)
    direct = lattice_lambda_sum(args, cutoff=900.0)
    tail = _envelope_tail(args, 900.0)
    hybrid = _hybrid_lattice_sum(args, tol=1e-5)
    assert hybrid == pytest.approx(HYBRID_VALUE, rel=1e-6)
    # direct truncation explains the entire discrepancy
    assert abs(float(hybrid) - float(direct)) <= tail + 1e-4
    assert direct.n_points > 0
    assert tail >= 0.0


def _slab_loop_sum(args, cutoff):
    """Reference lattice sum: one full (x, y) slab of (n, 3) points per z
    index, row sums for the squared lengths, kernel on the selected rows.
    Returns the sum and the point count."""
    h = 2.0 * math.pi / args.ell
    s = np.asarray(args.s_tilde)
    K = np.asarray(args.k_vec)
    m, A, Q = args.m, args.a_const, args.q_mu
    ak = A * K
    if args.delta == 0.0:
        frac = ak / h - np.round(ak / h)
        if np.all(np.abs(frac) < 1e-12):
            raise DomainError(
                "delta = 0 with A*K on the lattice: summand is singular")
    c1, a, c4 = lambda_coefficients(m)
    B = a * (2.0 * Q * Q + A * float(K @ K))
    dreg = args.delta / args.ell**2
    s2 = float(s @ s)
    pref = (float((s - ak) @ (s - ak)) + 2.0 * Q * Q + args.n * dreg) / (
        math.pi**2 * (1.0 + m))
    pref *= (c1 * s2 + B) ** -0.25
    nmax = int(math.ceil(cutoff / h))
    n1 = np.arange(-nmax, nmax + 1)
    P1, P2 = np.meshgrid(n1, n1, indexing="ij")
    base = np.empty((P1.size, 3))
    base[:, 0] = P1.ravel() * h
    base[:, 1] = P2.ravel() * h
    total = 0.0
    npts = 0
    for k in n1:
        base[:, 2] = k * h
        pts = base + ak
        sel = ((pts - ak) ** 2).sum(axis=1) <= cutoff * cutoff
        if not sel.any():
            continue
        pts = pts[sel]
        d = pts - ak
        sing = (d * d).sum(axis=1) + dreg
        if np.any(sing <= 0):
            raise DomainError(
                "lattice point coincides with the singular point at delta=0")
        t2 = (pts * pts).sum(axis=1)
        sdott = pts @ s
        bracket = s2 + t2 + B
        denom = bracket * bracket - (c4 * sdott) ** 2
        chunk = pref * (c1 * t2 + B) ** -0.25 / sing * np.abs(sdott) / denom
        total += float(chunk.sum())
        npts += int(sel.sum())
    return h**3 * total, npts


def test_lattice_sum_bit_identical_to_slab_loop():
    """The blocked, axis-factored sum returns exactly the slab loop's value
    and point count, and raises the same DomainError."""
    rng = np.random.default_rng(20261019)
    for i in range(60):
        m = float(10.0 ** rng.uniform(math.log10(0.3), math.log10(30.0)))

        def mag():
            return float(10.0 ** rng.uniform(-1.0, 3.0))

        if i % 3:
            s = tuple(rng.standard_normal(3) * mag())
            k = tuple(rng.standard_normal(3) * mag())
        else:
            s, k = (mag(), 0.0, -mag()), (0.0, 0.0, mag())
        ell = float(rng.choice([0.5, 1.0, 1.7]))
        # from below one spacing (slabs of 1-3 points) to many slabs a block
        spacings = (0.4, 0.75, 1.0)[i % 3] if i < 12 else float(
            10.0 ** rng.uniform(0.0, math.log10(28.0)))
        cutoff = spacings * 2.0 * math.pi / ell
        args = LambdaArgs(s_tilde=s, k_vec=k, q_mu=mag() if i % 5 else 0.0,
                          m=m, delta=0.0 if i % 4 == 3 else mag() / 10.0,
                          n=int(rng.integers(1, 200)), ell=ell)
        if args.delta == 0.0:
            # the lattice L + AK contains the singular point itself
            with pytest.raises(DomainError) as new:
                lattice_lambda_sum(args, cutoff)
            with pytest.raises(DomainError) as ref:
                _slab_loop_sum(args, cutoff)
            assert str(new.value) == str(ref.value)
            continue
        res = lattice_lambda_sum(args, cutoff)
        assert (float(res), res.n_points) == _slab_loop_sum(args, cutoff)


def test_lattice_sum_is_kernel_sum():
    """The lattice sum is h^3 times lambda_kernel summed over the points of
    L + AK within the cutoff, enumerated here one at a time."""
    rng = np.random.default_rng(20261023)
    for i in range(12):
        m = float(10.0 ** rng.uniform(math.log10(0.3), math.log10(30.0)))
        s, k = rng.standard_normal((2, 3)) * 10.0 ** rng.uniform(-1.0, 2.0)
        ell = float(rng.choice([0.5, 1.0, 1.7]))
        args = LambdaArgs(s_tilde=s, k_vec=k, q_mu=float(rng.uniform(0, 3)),
                          m=m, delta=float(rng.uniform(0.1, 3.0)),
                          n=int(rng.integers(1, 200)), ell=ell)
        h = 2.0 * math.pi / ell
        cutoff = (1.2, 1.5, 2.2)[i % 3] * h
        ak = args.a_const * np.asarray(k)
        grid = [h * (np.array(n) - 2) for n in np.ndindex(5, 5, 5)]
        pts = [p + ak for p in grid if np.linalg.norm(p) <= cutoff]
        res = lattice_lambda_sum(args, cutoff)
        assert res.n_points == len(pts) <= 33
        ref = h**3 * math.fsum(lambda_kernel(args, t) for t in pts)
        assert float(res) == pytest.approx(ref, rel=1e-14)


def test_lattice_sum_finite_at_vanishing_b():
    """At Q = K = 0 the lattice point t = 0 has s.t = 0 and a vanishing
    quartic root c1 t^2 + B; its term is the kernel's limit there, 0."""
    args = LambdaArgs(s_tilde=(1.0, 0.0, 0.0), k_vec=(0.0, 0.0, 0.0),
                      q_mu=0.0, m=1.0, delta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = lattice_lambda_sum(args, 10.0)
    assert math.isfinite(res) and res > 0.0
    assert res.n_points == 19


def test_lattice_sum_memory_bounded():
    """A whole-box array at this cutoff would be 289^3 * 8 B = 193 MB."""
    tracemalloc.start()
    try:
        lattice_lambda_sum(LambdaArgs(**LATTICE_ARGS), cutoff=900.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_lattice_sum_monotone_in_cutoff():
    args = LambdaArgs(**LATTICE_ARGS)
    small = lattice_lambda_sum(args, cutoff=400.0)
    large = lattice_lambda_sum(args, cutoff=900.0)
    assert float(large) >= float(small)
    assert _envelope_tail(args, 900.0) <= _envelope_tail(args, 400.0)


def _own_setup_envelope_tail(args, radius):
    """_envelope_tail with its own set-up of A*K, delta/ell^2 and
    |s - AK|^2, before it read them from LambdaSetup; kept as its oracle."""
    m, Q = args.m, args.q_mu
    s = np.asarray(args.s_tilde)
    ak = args.a_const * np.asarray(args.k_vec)
    s2 = float((s - ak) @ (s - ak))
    dreg = args.delta / args.ell**2
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
    val, _ = scipy.integrate.quad(lambda r: 4.0 * math.pi * r * r * env(r),
                                  r0, np.inf, limit=200)
    return float(val)


def test_envelope_tail_bit_identical_to_own_setup():
    rng = np.random.default_rng(20261024)
    for i in range(40):
        m = float(10.0 ** rng.uniform(math.log10(0.3), math.log10(30.0)))
        mag = float(10.0 ** rng.uniform(-1.0, 3.0))
        s, k = rng.standard_normal((2, 3)) * mag
        ell = float(rng.choice([0.5, 1.0, 1.7]))
        args = LambdaArgs(s_tilde=s, k_vec=k, q_mu=mag * (i % 3) / 2.0, m=m,
                          delta=float(rng.uniform(0.0, 3.0)),
                          n=int(rng.integers(1, 200)), ell=ell)
        radius = float(rng.uniform(0.5, 40.0)) * 2.0 * math.pi / ell
        assert _envelope_tail(args, radius).hex() == _own_setup_envelope_tail(
            args, radius).hex()


def test_lattice_sum_runs_no_quadrature(monkeypatch):
    """The tail bound is _envelope_tail's, computed where it is read; the
    sum itself calls nothing in scipy.integrate."""
    class NoIntegrate:
        def __getattr__(self, name):
            raise AssertionError(f"lattice sum called scipy.integrate.{name}")

    monkeypatch.setattr(lambda_functional, "_sci_integrate", NoIntegrate())
    res = lattice_lambda_sum(LambdaArgs(**LATTICE_ARGS), cutoff=400.0)
    assert float(res) > 0.0 and res.n_points > 0


def test_lattice_sum_rejects_vanishing_quartic_factor():
    """s = K = Q = 0 with delta > 0 zeroes the prefactor's quartic root."""
    args = LambdaArgs(s_tilde=(0.0, 0.0, 0.0), k_vec=(0.0, 0.0, 0.0),
                      q_mu=0.0, m=1.0, delta=1.0)
    for cutoff in (0.0, 3.0, 30.0):
        with pytest.raises(DomainError, match="vanishing quartic-root factor"):
            lattice_lambda_sum(args, cutoff)


def test_lattice_sum_rejects_bad_cutoff():
    args = LambdaArgs(**LATTICE_ARGS)
    for cutoff in (-0.5, -10.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="cutoff"):
            lattice_lambda_sum(args, cutoff)


def test_fit_c_lambda_validation():
    with pytest.raises(PreconditionError):
        fit_c_lambda([{"m": 1.0, "kappa": 0.5, "n": 100, "value": 0.3,
                       "lambda_m": 0.3, "c_t": 3.0}] * 5)


def test_fit_c_lambda_envelope(lambda_tilde_rows):
    c_lam = fit_c_lambda(lambda_tilde_rows)
    assert c_lam > 0
    for row in lambda_tilde_rows:
        gap = row["value"] - row["lambda_m"]
        bound = (c_lam / row["m"]
                 / (1.0 - row["kappa"] / row["c_t"]) ** 2
                 * row["n"] ** (-2.0 / 9.0))
        assert gap <= bound * (1.0 + 1e-12)
