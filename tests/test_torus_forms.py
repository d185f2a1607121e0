import itertools
import math

import numpy as np
import pytest

from impuritybound.errors import DomainError, PreconditionError
from impuritybound.kernels import l_continuum
from impuritybound.params import ModelParams
from impuritybound.torus_forms import (Mollifier, SingularAmplitude,
                                       l_periodic, l_periodic_richardson,
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
