"""Acceptance suite: one test per release criterion.

Each criterion is a single test function; the terminal summary hook in
conftest.py prints one PASS/FAIL line per criterion at the end of the run.
Slow searches (criteria 1, 2, 7) dominate the runtime; everything else is
seconds.
"""

import math

import numpy as np
import pytest

from impuritybound import bounds as bd
from impuritybound import box_spectra as bs
from impuritybound import localization as loc
from impuritybound.kernels import lambda_kernel
from impuritybound.lambda_functional import (critical_mass, fit_c_lambda,
                                             lambda_of_m, lambda_tilde)
from impuritybound.params import LambdaArgs, ModelParams, SupSearchConfig
from impuritybound.torus_forms import (Mollifier, l_periodic,
                                       l_periodic_richardson,
                                       off_bound_check,
                                       random_fermionic_amplitude,
                                       rep_sing_check, t_alpha_per)

# the calibrated registry the release ships with; criterion 11 pins it
PINNED_REGISTRY_HASH = \
    "96ec2886cb41a0319425fbcd3d5ca9322dae3e4a3bed680263fd79de13344d6d"

CRITERIA = {
    1: "critical mass in [0.33, 0.40], root stable under halved "
       "quadrature tolerance",
    2: "stability functional decay: m*Lambda(m) bounded, Lambda "
       "decreasing, Lambda(0.45) < 1 < Lambda(0.30)",
    3: "kernel nu^-3 homogeneity to 1e-12 over 1e3 random samples",
    4: "periodic pair kernel vs brute-force mollified oracle (two "
       "bump shapes, 20 sets, 1e-4) and uniform gap envelope over a "
       "1e3-point sweep",
    5: "singular-representation identity residual < 1e-6 over the "
       "(mu, m, alpha) grid",
    6: "form positivity at the optimizing spectral shift on 200 "
       "fermionic amplitudes, plus the off-diagonal lower bound",
    7: "lattice-vs-continuum gap envelope follows the N^(-2/9) law "
       "across N in {1e2, 1e3, 1e4}",
    8: "finite-rank trace inequalities, fitted kinetic-energy and "
       "shift constants, bounded spectral-gap ratio over 50 random "
       "potentials",
    9: "Dirichlet spectrum facts: lowest level, bulk energy "
       "stability, degeneracy pattern",
    10: "partition of unity to 1e-12 and scale-invariant "
        "localization constants across ell in {0.5, 1, 2}",
    11: "bound calculators reproduce independent hand arithmetic "
        "bit-for-bit on 5 pinned inputs; alpha >= 0 carries no "
        "coupling penalty",
}


@pytest.mark.slow
def test_criterion_01_critical_mass():
    cfg = SupSearchConfig()
    root = critical_mass(cfg)
    root_finer = critical_mass(SupSearchConfig(quad_tol=cfg.quad_tol / 2.0))
    assert 0.33 <= root <= 0.40
    assert abs(root - root_finer) < 1e-3


@pytest.mark.slow
def test_criterion_02_lambda_decay():
    lam = {m: lambda_of_m(m).value
           for m in (0.30, 0.45, 1.0, 3.0, 10.0, 30.0, 100.0)}
    assert lam[0.30] > 1.0 > lam[0.45]
    seq = [lam[m] for m in (0.45, 1.0, 3.0, 10.0, 30.0, 100.0)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    fitted = max(m * lam[m] for m in (1.0, 3.0, 10.0, 30.0, 100.0))
    assert 0.0 < fitted < 10.0
    for m in (1.0, 3.0, 10.0, 30.0, 100.0):
        assert m * lam[m] <= fitted
    assert lam[100.0] < 0.05


def test_criterion_03_kernel_homogeneity():
    rng = np.random.default_rng(20260823)
    for _ in range(1000):
        s, k, t = rng.normal(size=(3, 3))
        q = float(rng.uniform(0.1, 3.0))
        m = float(rng.uniform(0.2, 5.0))
        nu = float(rng.uniform(0.3, 3.0))
        base = lambda_kernel(
            LambdaArgs(s_tilde=s, k_vec=k, q_mu=q, m=m), t)
        scaled = lambda_kernel(
            LambdaArgs(s_tilde=nu * s, k_vec=nu * k, q_mu=nu * q, m=m),
            nu * t)
        assert scaled == pytest.approx(base / nu**3, rel=1e-12)


@pytest.mark.slow
def test_criterion_04_periodic_kernel_oracle(registry):
    rng = np.random.default_rng(7)
    shapes = (Mollifier(shape=2.0), Mollifier(shape=3.0))
    for i in range(20):
        m = float(rng.uniform(0.5, 3.0))
        mu = float(rng.uniform(0.5, 3.0))
        ell = float(rng.uniform(0.8, 2.0))
        spacing = 2.0 * math.pi / ell
        kvec = spacing * rng.integers(-2, 3, size=(1, 3)).astype(float)
        params = ModelParams(m=m, mu=mu, ell=ell, n=1)
        exact = l_periodic(params, kvec)
        brute = l_periodic_richardson(params, kvec, shapes[i % 2])
        assert brute == pytest.approx(exact, rel=1e-4)

    rows = bd.sweep_l_gap(m_values=(0.3, 0.5, 1.0, 3.0, 10.0),
                          mu_values=(0.3, 1.0, 3.0, 10.0),
                          ell_values=(0.5, 0.7, 1.0, 1.4, 1.9), n_k=10)
    assert len(rows) == 1000
    c_env = bd.fit_c_l_prime(rows)
    assert 0.0 < c_env < 50.0
    for r in rows:
        gap = abs(r["l_per"] - r["l_cont"])
        assert gap <= c_env / (r["q_mu_sq"] * r["ell"] ** 3) * (1.0 + 1e-12)


def test_criterion_05_identity_suite():
    for mu in (0.1, 1.0, 10.0):
        for m in (0.5, 1.0, 3.0):
            for alpha in (-1.0, 0.0, 1.0):
                params = ModelParams(m=m, alpha=alpha, mu=mu, n=1)
                residual = rep_sing_check(
                    lambda r: math.exp(-r * r / 2.0), params)
                assert residual < 1e-6


def test_criterion_06_form_positivity(registry):
    m, n, ell, alpha = 1.0, 3, 1.0, -1.0
    lam = 0.3409053025539931
    kappa = bd.kappa_default(m, registry, lambda_val=lam)
    mu = bd.mu_star(m, kappa, n, ell, alpha, registry, lambda_val=lam)
    params = ModelParams(m=m, alpha=alpha, mu=mu, n=n, ell=ell)
    lam_tilde = 0.34089922625764607  # frozen lattice sweep, m=1, N=100
    c_t = registry.value("c_t")
    for seed in range(200):
        xi = random_fermionic_amplitude(n, ell, seed=seed)
        br = t_alpha_per(xi, params)
        assert br.total >= -1e-10 * max(xi.norm_sq(), 1.0)
        lhs, rhs = off_bound_check(xi, params, lam_tilde, kappa, c_t)
        assert lhs >= rhs


@pytest.mark.slow
def test_criterion_07_lattice_gap_law(lambda_tilde_rows):
    c_lam = fit_c_lambda(lambda_tilde_rows)
    assert c_lam > 0.0
    for row in lambda_tilde_rows:
        gap = row["value"] - row["lambda_m"]
        bound = (c_lam / row["m"]
                 / (1.0 - row["kappa"] / row["c_t"]) ** 2
                 * row["n"] ** (-2.0 / 9.0))
        assert gap <= bound * (1.0 + 1e-12)
        # the lattice functional has converged to the continuum one at
        # these sizes: gaps sit at quadrature noise level
        assert abs(gap) < 2e-5
    for m in (1.0, 3.0):
        rows = sorted((r for r in lambda_tilde_rows if r["m"] == m),
                      key=lambda r: r["n"])
        env = [c_lam / r["m"] / (1.0 - r["kappa"] / r["c_t"]) ** 2
               * r["n"] ** (-2.0 / 9.0) for r in rows]
        slope = np.polyfit(np.log([r["n"] for r in rows]), np.log(env), 1)[0]
        assert -0.25 <= slope <= -0.15
    # live spot re-evaluation of the cheapest frozen row
    row = next(r for r in lambda_tilde_rows
               if r["m"] == 3.0 and r["n"] == 100)
    live = lambda_tilde(row["m"], row["kappa"], row["n"], 1.0,
                        c_t=row["c_t"])
    assert live.value == pytest.approx(row["value"], abs=1e-4)


@pytest.mark.slow
def test_criterion_08_appendix_suite():
    # exact finite-rank trace inequality on 100 admissible perturbations
    for seed in range(100):
        q = bs.random_admissible_q(2.0, mu=12.0, seed=seed)
        out = bs.thm_a1_check(q)
        assert out["lemma_lhs"] <= out["lhs"] + 1e-10
        assert out["lhs"] >= -1e-10

    # fitted kinetic-energy constant at window eta = 0.05
    rows = []
    for seed in range(30):
        q = bs.random_admissible_q(2.0, mu=12.0, seed=1000 + seed)
        out = bs.thm_a1_check(q, eta=0.05)
        rows.append((out["lhs"], out["rhs_integral"]))
    active = [(l, r) for l, r in rows if r > 1e-12]
    assert active
    k_tilde = min(l / r for l, r in active)
    assert k_tilde > 0.0
    for lhs, rhs in rows:
        assert lhs >= k_tilde * rhs - 1e-10

    # fitted shift constant over a seeded potential ensemble
    shift_rows = []
    for seed in range(10):
        v = bs.random_smooth_potential(2.0, seed=seed, depth=1.0, n_grid=48)
        lhs, rhs = bs.thm_a3_check(v, 12.0, basis_size=256)
        assert lhs <= 1e-8
        assert rhs > 0.0
        shift_rows.append((lhs, rhs))
    k_shift = max(-l / r for l, r in shift_rows)
    assert np.isfinite(k_shift)
    for lhs, rhs in shift_rows:
        assert lhs >= -k_shift * rhs - 1e-10

    # spectral-gap ratio bounded over 50 random potentials, N up to 50
    rng = np.random.default_rng(20260823)
    ratios = []
    for seed in range(50):
        v = bs.random_smooth_potential(
            2.0, seed=seed, depth=float(rng.uniform(0.5, 3.0)), n_grid=48)
        n = int(rng.integers(2, 51))
        gap, rhs, ratio = bs.lt_gap_check(v, n, basis_size=512)
        assert gap >= 0.0
        assert rhs > 0.0
        ratios.append(ratio)
    assert max(ratios) < 5.0


def test_criterion_09_spectrum_facts():
    for lbig in (0.7, 1.0, math.pi, 2.5):
        spec = bs.dirichlet_levels(lbig, 1)
        assert spec.levels[0][0] == pytest.approx(
            3.0 * math.pi**2 / lbig**2, rel=1e-15)
    _, h4 = bs.sum_lowest(1.0, 10**4)
    _, h5 = bs.sum_lowest(1.0, 10**5)
    r4 = h4 / (10**4 * (10**4) ** (2.0 / 3.0))
    r5 = h5 / (10**5 * (10**5) ** (2.0 / 3.0))
    assert abs(r4 - r5) / r5 < 0.05
    spec = bs.dirichlet_levels(math.pi, 11)
    assert [mult for _, mult, _ in spec.levels[:5]] == [1, 3, 3, 3, 1]


def test_criterion_10_localization():
    base = loc.build_partition(loc.PartitionSpec(ell=1.0))
    assert base.partition_residual() < 1e-12
    base_v = loc.build_v_partition(loc.PartitionSpec(ell=1.0))
    for ell in (0.5, 2.0):
        part = loc.build_partition(loc.PartitionSpec(ell=ell))
        assert part.partition_residual() < 1e-12
        assert part.c_eta == pytest.approx(base.c_eta, rel=0.01)
        vp = loc.build_v_partition(loc.PartitionSpec(ell=ell))
        assert vp["w_max_ell2"] == pytest.approx(
            base_v["w_max_ell2"], rel=0.01)
        assert vp["supp_w_ell3"] == pytest.approx(
            base_v["supp_w_ell3"], rel=0.01)


def test_criterion_11_bound_calculators(registry):
    assert registry.content_hash() == PINNED_REGISTRY_HASH
    c_t = registry.value("c_t")
    c_l = registry.value("c_l")
    c_lam = registry.value("c_lambda")

    def hand_confined(m, kappa, n, ell, alpha, lam):
        one = 1.0 - kappa / c_t
        nz = ((one - lam) * m * one ** 2 / c_lam) ** (-4.5)
        neg = min(alpha - c_l / ell, 0.0)
        confine = kappa * n ** (5.0 / 3.0) / ell ** 2
        sub = (1.0 / (4.0 * math.pi ** 4)) * (m + 1.0) / (2.0 * m) \
            * neg ** 2 / ((one - lam) ** 2
                          * (1.0 - (nz / n) ** (2.0 / 9.0)) ** 2)
        return confine - sub

    def hand_main(m, n, lbig, alpha, const, lam):
        rho = n / lbig ** 3
        e_d = bs.sum_lowest(lbig, n)[1]
        a_neg = min(alpha, 0.0)
        corr = const * (rho ** (2.0 / 3.0) / (1.0 - lam) ** 4.5
                        + a_neg ** 2 / (1.0 - lam) ** 2)
        return e_d - corr

    confined_sets = [
        ((1.0, 1.0, 1000, 1.0, -1.0, 0.3409), 99999.71968200138),
        ((3.0, 0.5, 100, 2.0, 0.5, 0.111), 269.3023267483016),
        ((0.5, 1.2, 10**6, 0.5, -2.0, 0.55), 47999999960.35026),
    ]
    for args, frozen in confined_sets:
        rep = bd.bound_confined(*args[:5], registry, lambda_val=args[5])
        assert rep.value == hand_confined(*args)
        assert rep.value == frozen

    main_sets = [
        ((1.0, 64, 4.0, -1.0, 2.0, 0.3409), 399.6411304162592),
        ((2.0, 216, 6.0, 1.0, 1.5, 0.2), 1251.2644859312347),
    ]
    for args, frozen in main_sets:
        rep = bd.bound_main(args[0], args[1], args[2], args[3], registry,
                            fitted_const=args[4], lambda_val=args[5])
        assert rep.value == hand_main(*args)
        assert rep.value == frozen

    # non-negative coupling carries no penalty in either calculator
    lam = 0.3409
    above = c_l / 1.0 + 0.5
    rep = bd.bound_confined(1.0, 1.0, 1000, 1.0, above, registry,
                            lambda_val=lam)
    assert rep.intermediates["subtraction_term"] == 0.0
    r0 = bd.bound_main(1.0, 64, 4.0, 0.0, registry, fitted_const=2.0,
                       lambda_val=lam)
    r2 = bd.bound_main(1.0, 64, 4.0, 2.0, registry, fitted_const=2.0,
                       lambda_val=lam)
    assert r0.value == r2.value
    rho = 64 / 4.0 ** 3
    assert r0.intermediates["correction"] == \
        2.0 * (rho ** (2.0 / 3.0) / (1.0 - lam) ** 4.5 + 0.0)
