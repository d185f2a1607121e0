import itertools
import math
import tracemalloc

import numpy as np
import pytest

from impuritybound import box_spectra, torus_forms
from impuritybound.errors import DomainError, NumericError, PreconditionError
from impuritybound.kernels import fhat_infinity, l_continuum, s_function
from impuritybound.params import ModelParams
from impuritybound.torus_forms import (Mollifier, SingularAmplitude,
                                       g_norm_sq, l_periodic,
                                       l_periodic_richardson,
                                       off_bound_check,
                                       random_fermionic_amplitude,
                                       rep_sing_check, t_alpha_per,
                                       t_dia_per, t_off_per, t_tilde_vector)

# frozen oracle: Poisson closed form validated against the mollified
# brute-force definition (two bump shapes, rel. agreement ~4e-5)
ORACLE = dict(m=1.0, mu=1.3, ell=1.7)
ORACLE_LPER = 56.48701108110785


def _oracle_kvec():
    sp = 2.0 * math.pi / ORACLE["ell"]
    return np.array([[sp, 0.0, -sp]])


def test_l_periodic_frozen_oracle():
    params = ModelParams(n=1, **ORACLE)
    assert l_periodic(params, _oracle_kvec()) == pytest.approx(
        ORACLE_LPER, rel=1e-12)


def test_l_periodic_bruteforce_cross_check():
    params = ModelParams(n=1, **ORACLE)
    tau = Mollifier(shape=2.0)
    brute = l_periodic_richardson(params, _oracle_kvec(), tau)
    assert brute == pytest.approx(ORACLE_LPER, rel=1e-5)


def test_l_periodic_matches_oracle_on_lattice_row():
    """Small m and gamma * ell^2 at k = 0, where the sweep rows' gap to the
    continuum kernel is largest (about -21.517 against 6.189); the two
    values agree to about 9e-7 relative."""
    params = ModelParams(m=0.3, mu=1.0, ell=1.9, n=1)
    kvec = np.zeros((1, 3))
    brute = l_periodic_richardson(params, kvec, Mollifier())
    assert l_periodic(params, kvec) == pytest.approx(brute, rel=1e-5)


def _inline_fhat(m, gamma, r):
    """_l_periodic_impl's own inline copy of the fhat_infinity formula."""
    return (math.sqrt(math.pi / 2.0) * (2.0 * m / (1.0 + m))
            * np.exp(-math.sqrt(2.0 * m / (m + 1.0)) * math.sqrt(gamma) * r)
            / r)


def _inline_gamma(m, mu, k1, khat_sq):
    """The radicand gamma as _gamma_offset wrote it inline."""
    gamma = float(k1 @ k1) / (2.0 * (1.0 + m)) + 0.5 * khat_sq + mu
    if gamma <= 0:
        raise DomainError(
            f"radicand {gamma} is non-positive: mu={mu} is below the allowed "
            "range for this momentum tuple")
    return gamma


def _inline_l(m, gamma):
    """L(gamma) as l_continuum wrote it inline."""
    return 2.0 * np.pi**2 * (2.0 * m / (m + 1.0)) ** 1.5 * np.sqrt(gamma)


def _inline_fhat_l_periodic(m, mu, ell, k1, khat_sq):
    """_l_periodic_impl with its own inline copies of gamma, the folded
    lattice shift, L(gamma) and the fhat_infinity formula; kept as its
    oracle."""
    gamma = _inline_gamma(m, mu, k1, khat_sq)
    spacing = 2.0 * math.pi / ell
    off = m * k1 / (m + 1.0)
    off = off - np.round(off / spacing) * spacing
    base = _inline_l(m, gamma)
    eta = math.sqrt(2.0 * m / (m + 1.0)) * math.sqrt(gamma) * ell
    nmax = max(1, int(math.ceil(40.0 / eta)))
    if nmax > 400:
        raise NumericError(
            f"Poisson correction needs nmax={nmax} shells (gamma*ell^2 too "
            "small for the exponential representation)")
    rng = np.arange(-nmax, nmax + 1)
    Z = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), -1).reshape(-1, 3)
    Z = Z[(Z * Z).sum(axis=1) > 0].astype(float) * ell
    fh = _inline_fhat(m, gamma, np.sqrt((Z * Z).sum(axis=1)))
    corr = float((np.cos(Z @ off) * fh).sum())
    return (base - (2.0 * math.pi) ** 1.5 * corr,
            {"nmax": nmax, "n_terms": int(Z.shape[0])})


def test_l_periodic_bit_identical_to_inline_fhat():
    """Seeded cases with the decay rate eta = sqrt(2m/(m+1) gamma) ell
    between 2 and 12, where the Poisson correction shows in the value and
    the shell cube stays small (nmax <= 20), and the f-hat terms
    themselves, since a last-bit change in them need not move L^per; then
    inputs up to nmax 90, with and without an offset, and both error
    paths."""
    rng = np.random.default_rng(20261019)
    cases = []
    for i in range(60):
        m = float(10.0 ** rng.uniform(-1.0, 1.5))
        ell = float(rng.choice([0.5, 0.7, 1.0, 1.7, 1.9]))
        sp = 2.0 * math.pi / ell
        k1 = sp * (i % 2) * rng.integers(-1, 2, size=3).astype(float)
        khat_sq = float(sp * sp * rng.integers(0, 2)) if i % 3 == 0 else 0.0
        gamma = (rng.uniform(2.0, 12.0) / ell) ** 2 * (m + 1.0) / (2.0 * m)
        mu = gamma - float(k1 @ k1) / (2.0 * (1.0 + m)) - 0.5 * khat_sq
        cases.append((m, mu, ell, k1, khat_sq))
    zero = np.zeros(3)
    # the perfbench refs.json inputs at k = 0 (nmax 57, 74 and 90), and an
    # offset o = (o1, o1, 0) with nmax 33
    cases += [(1.0, mu, 1.0, zero, 0.0) for mu in (0.5, 0.3, 0.2)]
    cases.append((0.02, 0.2, 1.0, np.array([2.0 * math.pi] * 2 + [0.0]), 0.0))
    for m, mu, ell, k1, khat_sq in cases:
        val, meta = torus_forms._l_periodic_impl(m, mu, ell, k1, khat_sq)
        ref = _inline_fhat_l_periodic(m, mu, ell, k1, khat_sq)
        assert (val.hex(), meta) == (ref[0].hex(), ref[1])
        gamma = torus_forms._gamma_offset(m, mu, ell, k1, khat_sq)[0]
        r = ell * np.sqrt(np.arange(1.0, 2000.0))
        assert (fhat_infinity(m, gamma, r).tobytes()
                == _inline_fhat(m, gamma, r).tobytes())
    for exc, mu in ((DomainError, -1.0), (NumericError, 1e-6)):
        with pytest.raises(exc) as ref:
            _inline_fhat_l_periodic(1.0, mu, 1.0, zero, 0.0)
        with pytest.raises(exc) as new:
            torus_forms._l_periodic_impl(1.0, mu, 1.0, zero, 0.0)
        assert str(new.value) == str(ref.value)


def test_l_periodic_shell_memory_bounded():
    """The shell sum forms no (N^3, 3) index array: at the ensemble
    reference mu = 0.2 (nmax 90) one call peaks near 24 B per cube point,
    and one shell above MAX_SHELLS it raises before it allocates."""
    zero = np.zeros(3)
    nmax = torus_forms.MAX_SHELLS + 1
    tracemalloc.start()
    try:
        assert torus_forms._l_periodic_impl(
            1.0, 0.2, 1.0, zero, 0.0)[1]["nmax"] == 90
        peak_ref = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # ceil(40 / sqrt(mu)) = nmax at m = ell = 1, k = 0
        with pytest.raises(NumericError) as exc:
            torus_forms._l_periodic_impl(
                1.0, (40.0 / (nmax - 0.5)) ** 2, 1.0, zero, 0.0)
        peak_above = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak_ref < 250e6 and peak_above < 1e6
    assert str(exc.value) == (
        f"Poisson correction needs nmax={nmax} shells (gamma*ell^2 too "
        "small for the exponential representation)")


def _inline_diagonal_sum(xi, kernel):
    """(2 pi/ell)^{3n} sum |xi-hat|^2 kernel(k1, khat_sq), as t_dia_per and
    off_bound_check each wrote it inline."""
    meas = xi.spacing ** (3 * xi.n)
    terms = []
    for key, amp in xi.items():
        ks = np.array([xi.momentum(t) for t in key])
        terms.append(abs(amp) ** 2 * kernel(ks[0], float((ks[1:] ** 2).sum())))
    return meas * math.fsum(terms)


def _inline_g_norm_sq(xi, nu, m):
    """g_norm_sq with its own inline radicand and radial integral."""
    from scipy import integrate

    def integrand(r):
        weight = math.pi**2 * (2.0 * m / (m + 1.0)) ** 1.5 / math.sqrt(
            r * r / (2.0 * (1.0 + m)) + nu)
        return 4.0 * math.pi * r * r * abs(xi(r)) ** 2 * weight

    return integrate.quad(integrand, 0.0, np.inf, limit=200)[0]


def _inline_s(rho, mu):
    """S(rho) as the array form s_function_arr wrote it."""
    rho = np.asarray(rho, dtype=float)
    return np.maximum((mu**1.5 + rho) ** (5.0 / 3.0) - mu**2.5
                      - (5.0 / 3.0) * mu * rho, 0.0)


def test_pair_kernel_forms_bit_identical_to_inline_bodies():
    """l_periodic, _l_periodic_impl's info, t_dia_per, off_bound_check and
    g_norm_sq read gamma, L(gamma), f-hat and the radial and diagonal sums
    from one place each; their values equal those of the inline bodies.
    mu is drawn so that the decay rate times ell lies in [2, 6] (nmax <=
    20)."""
    rng = np.random.default_rng(20261020)
    for case in range(8):
        n = 1 + case % 4
        ell = float(rng.choice([0.7, 1.0, 1.3]))
        m = float(rng.choice([0.3, 1.0, 3.0]))
        mu = (rng.uniform(2.0, 6.0) / ell) ** 2 * (m + 1.0) / (2.0 * m)
        params = ModelParams(m=m, mu=mu, n=n, ell=ell)
        xi = random_fermionic_amplitude(n, ell=ell, n_terms=2,
                                        seed=int(rng.integers(10**6)))

        def l_per(k1, khat_sq):
            return _inline_fhat_l_periodic(m, mu, ell, k1, khat_sq)[0]

        for key, _ in xi.items():
            ks = np.array([xi.momentum(t) for t in key])
            k1, khat_sq = ks[0], float((ks[1:] ** 2).sum())
            val, info = torus_forms._l_periodic_impl(m, mu, ell, k1, khat_sq)
            ref = _inline_fhat_l_periodic(m, mu, ell, k1, khat_sq)
            assert (val.hex(), info) == (ref[0].hex(), ref[1])
            assert l_periodic(params, ks).hex() == ref[0].hex()
        assert t_dia_per(xi, params).hex() == _inline_diagonal_sum(
            xi, l_per).hex()
        lhs, rhs = off_bound_check(xi, params, 0.34, 1.0, 3.1)
        weighted = _inline_diagonal_sum(
            xi, lambda k1, khat_sq: _inline_l(m, _inline_gamma(m, mu, k1,
                                                               khat_sq)))
        assert (lhs.hex(), rhs.hex()) == (
            (n * t_off_per(xi, params)).hex(),
            (-0.34 / (1.0 - 1.0 / 3.1) * weighted).hex())
    for xi in (lambda r: math.exp(-r * r / 2.0), lambda r: 1.0 / (1.0 + r**4)):
        for m in (0.4, 1.0, 2.5):
            for nu in (0.3, 4.0):
                assert g_norm_sq(xi, nu, ModelParams(m=m, n=1)).hex() == (
                    _inline_g_norm_sq(xi, nu, m).hex())


def test_fhat_s_and_thm_a1_bit_identical_to_inline_bodies(monkeypatch):
    """fhat_infinity and s_function on one number and on an array equal
    their inline bodies, and thm_a1_check reads S as the array form did."""
    for m in (0.3, 1.0, 7.0):
        for gamma in (0.1, 1.0, 9.0):
            r = np.linspace(0.01, 20.0, 997)
            assert (fhat_infinity(m, gamma, r).tobytes()
                    == _inline_fhat(m, gamma, r).tobytes())
            for x in (0.05, 1.7, 13.0):
                assert float(fhat_infinity(m, gamma, x)).hex() == float(
                    _inline_fhat(m, gamma, x)).hex()
    for mu in (0.5, 2.0, 12.0):
        rho = np.linspace(0.0, 30.0, 1001)
        assert s_function(rho, mu).tobytes() == _inline_s(rho, mu).tobytes()
        for x in (0.0, 1e-4, 0.7, 1e6):
            assert s_function(x, mu).hex() == float(_inline_s(x, mu)).hex()
    qs = [box_spectra.random_admissible_q(2.0, 12.0, seed) for seed in range(3)]
    new = [box_spectra.thm_a1_check(q, eta=0.5) for q in qs]
    monkeypatch.setattr(box_spectra, "s_function", _inline_s)
    ref = [box_spectra.thm_a1_check(q, eta=0.5) for q in qs]
    assert [{k: v.hex() for k, v in d.items()} for d in new] == [
        {k: v.hex() for k, v in d.items()} for d in ref]


def test_l_periodic_approaches_continuum_large_ell():
    """Dual-lattice correction dies off exponentially with the box side."""
    sp = 2.0 * math.pi / 12.0
    kvec = np.array([[sp, 0.0, 0.0]])
    params = ModelParams(m=1.0, mu=1.0, ell=12.0, n=1)
    cont = l_continuum(params, kvec[0], 0.0)
    assert l_periodic(params, kvec) == pytest.approx(cont, rel=1e-4)


def test_amplitude_antisymmetry_enforced():
    bad = {((0, 0, 0), (1, 0, 0), (0, 1, 0)): 1.0,
           ((0, 0, 0), (0, 1, 0), (1, 0, 0)): 1.0}
    with pytest.raises(PreconditionError):
        SingularAmplitude(n=3, ell=1.0, support=bad, antisymmetric=True)


def test_random_amplitude_is_fermionic():
    xi = random_fermionic_amplitude(3, ell=1.0, seed=11)
    for key, amp in xi.items():
        swapped = (key[0], key[2], key[1])
        assert xi.support.get(swapped, 0.0) == pytest.approx(-amp)


def test_form_breakdown_additivity():
    params = ModelParams(m=1.0, alpha=0.7, mu=2.0, n=2, ell=1.3)
    xi = random_fermionic_amplitude(2, ell=1.3, seed=3)
    br = t_alpha_per(xi, params)
    assert br.total == pytest.approx(br.alpha_term + br.t_dia + br.t_off)
    assert br.alpha_term == pytest.approx(
        (2.0 * params.m / (params.m + 1.0)) * params.alpha * params.n
        * xi.norm_sq())


def test_vector_form_reduces_to_fermionic():
    """Alternating-sign replicas of one amplitude reproduce n times the
    per-particle forms exactly."""
    params = ModelParams(m=1.0, alpha=0.0, mu=2.0, n=2, ell=1.3)
    xi = random_fermionic_amplitude(2, ell=1.3, seed=5)
    _, dia_t, off_t = t_tilde_vector([xi, SingularAmplitude(
        n=2, ell=1.3, support={k: -a for k, a in xi.items()},
        antisymmetric=True)], params)
    assert off_t == pytest.approx(2.0 * t_off_per(xi, params), rel=1e-12)
    assert dia_t == pytest.approx(2.0 * t_dia_per(xi, params), rel=1e-12)


def test_off_diagonal_is_real_for_fermions():
    from impuritybound.torus_forms import t_off_per_complex

    params = ModelParams(m=0.8, mu=3.0, n=3, ell=1.0)
    xi = random_fermionic_amplitude(3, ell=1.0, seed=9)
    val = t_off_per_complex(xi, params)
    assert abs(val.imag) < 1e-12 * max(abs(val.real), 1.0)


def test_rep_sing_gaussian_residual():
    params = ModelParams(m=1.0, alpha=0.5, mu=1.0, n=1)
    residual = rep_sing_check(lambda r: math.exp(-r * r / 2.0), params)
    assert residual < 1e-6


def test_off_bound_check_small_ensemble(registry):
    params = ModelParams(m=1.0, mu=2.0, n=2, ell=1.0)
    c_t = registry.value("c_t")
    for seed in range(5):
        xi = random_fermionic_amplitude(2, ell=1.0, seed=seed)
        lhs, rhs = off_bound_check(xi, params, lambda_tilde_val=0.3409,
                                   kappa=1.04, c_t=c_t)
        assert lhs >= rhs


def test_off_bound_check_preconditions(registry):
    xi = random_fermionic_amplitude(2, ell=1.0, seed=0)
    params = ModelParams(m=1.0, mu=-100.0, n=2, ell=1.0)
    with pytest.raises(PreconditionError):
        off_bound_check(xi, params, 0.3, kappa=1.0,
                        c_t=registry.value("c_t"))


def test_negative_mu_requires_antisymmetry():
    sym = SingularAmplitude(n=2, ell=1.0,
                            support={((0, 0, 0), (1, 0, 0)): 1.0},
                            antisymmetric=False)
    params = ModelParams(m=1.0, mu=-0.5, n=2, ell=1.0)
    with pytest.raises(PreconditionError):
        t_dia_per(sym, params)


def _scan_pair_terms(xi_i, xi_j, i, j, params):
    """The full |supp|^2 scan that the off-diagonal forms used before the
    keyed matcher: every entry pair, kept when slot j's view of the full
    momentum tuple agrees. Kept as an oracle for the matcher."""
    sp = xi_i.spacing
    inv2m = 1.0 / (2.0 * params.m)
    idx_j = j - 1 if j < i else j - 2
    for key_i, amp_i in xi_i.items():
        v0_i, w_i = key_i[0], key_i[1:]
        kj = w_i[idx_j]
        for key_j, amp_j in xi_j.items():
            v0_j, w_j = key_j[0], key_j[1:]
            k0 = tuple(v0_j[c] - kj[c] for c in range(3))
            ki = tuple(v0_i[c] - k0[c] for c in range(3))
            kfull = list(w_i)
            kfull.insert(i - 1, ki)
            if tuple(kfull[:j - 1] + kfull[j:]) != w_j:
                continue
            k0v = sp * np.asarray(k0, dtype=float)
            kv = sp * np.asarray(kfull, dtype=float)
            denom = (inv2m * float(k0v @ k0v)
                     + 0.5 * float((kv * kv).sum()) + params.mu)
            if denom <= 0:
                raise DomainError(
                    f"resolvent denominator {denom} <= 0 at lattice "
                    f"point k0={k0}, k={tuple(kfull)} (mu={params.mu} "
                    "too negative)")
            yield (-1) ** (i + j), np.conj(amp_j) * amp_i / denom


def _scan_slots(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _scan_t_off_complex(xi, params):
    n = xi.n
    if n == 1:
        return 0.0 + 0.0j
    vals = [sign * val for i, j in _scan_slots(n)
            for sign, val in _scan_pair_terms(xi, xi, i, j, params)]
    total = complex(math.fsum(v.real for v in vals),
                    math.fsum(v.imag for v in vals))
    return -xi.spacing ** (3 * (n + 1)) * total / n


def _scan_off_tilde(xis, params):
    n = params.n
    re_terms = [val.real for i, j in _scan_slots(n)
                for _, val in _scan_pair_terms(xis[i - 1], xis[j - 1], i, j,
                                               params)]
    return -xis[0].spacing ** (3 * (n + 1)) * math.fsum(re_terms)


def test_off_forms_bit_identical_to_full_scan():
    """The keyed pair matcher returns exactly the full scan's values: the
    complex fermionic form (mu < 0 included) and the vector form over
    alternating replicas and over unrelated amplitudes."""
    from impuritybound.torus_forms import t_off_per_complex

    rng = np.random.default_rng(20261018)
    for case in range(10):
        n = 1 + case % 5
        ell = float(rng.choice([0.7, 1.0, 1.3]))
        m = float(rng.choice([0.4, 1.0, 3.0]))
        n_terms = 2 if n == 5 else 3
        seed = int(rng.integers(10**6))
        xi = random_fermionic_amplitude(n, ell=ell, seed=seed, n_terms=n_terms)
        for mu in (1.5, -0.5) if xi.antisymmetric else (1.5,):
            params = ModelParams(m=m, mu=mu, n=n, ell=ell)
            assert t_off_per_complex(xi, params) == _scan_t_off_complex(
                xi, params)
        if n > 4:
            continue
        params = ModelParams(m=m, mu=2.0, n=n, ell=ell)
        replicas = [SingularAmplitude(n=n, ell=ell, antisymmetric=xi.antisymmetric,
                                      support={k: (-1) ** q * a
                                               for k, a in xi.items()})
                    for q in range(n)]
        # same support as xi, independent values: not replicas, same pairs
        others = [SingularAmplitude(n=n, ell=ell, support={
            k: complex(*rng.standard_normal(2)) for k in xi.support})
            for _ in range(n)]
        for xis in (replicas, others):
            assert t_tilde_vector(xis, params)[2] == _scan_off_tilde(xis, params)


def test_off_forms_bit_identical_on_generic_supports():
    """Entries drawn independently from a small label cube, so that pairs
    also form between entries that are not permutations of one another
    (where k_i != k_j)."""
    from impuritybound.torus_forms import t_off_per_complex

    rng = np.random.default_rng(7)
    labels = list(itertools.product((-1, 0, 1), repeat=3))
    for n, size in ((2, 30), (3, 60), (4, 60)):
        def draw():
            return SingularAmplitude(n=n, ell=1.0, support={
                tuple(labels[c] for c in rng.integers(27, size=n)):
                complex(*rng.standard_normal(2)) for _ in range(size)})
        params = ModelParams(m=0.7, mu=0.8, n=n, ell=1.0)
        xi = draw()
        assert t_off_per_complex(xi, params) == _scan_t_off_complex(xi, params)
        if n < 4:
            xis = [draw() for _ in range(n)]
            assert t_tilde_vector(xis, params)[2] == _scan_off_tilde(
                xis, params)


def test_off_forms_reject_nonpositive_resolvent():
    """mu = -100 drives a resolvent denominator below zero: the
    per-particle form raises the full scan's DomainError, and so does the
    vector form (from its diagonal part, whose radicand is no larger)."""
    from impuritybound.torus_forms import t_off_per_complex

    xi = random_fermionic_amplitude(2, ell=1.0, seed=1)
    params = ModelParams(m=1.0, mu=-100.0, n=2, ell=1.0)
    with pytest.raises(DomainError) as ref:
        _scan_t_off_complex(xi, params)
    with pytest.raises(DomainError) as new:
        t_off_per_complex(xi, params)
    assert str(new.value) == str(ref.value)
    replicas = [xi, SingularAmplitude(n=2, ell=1.0, antisymmetric=True,
                                      support={k: -a for k, a in xi.items()})]
    with pytest.raises(DomainError):
        t_tilde_vector(replicas, params)
