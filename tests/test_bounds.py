import json
import math

import numpy as np
import pytest

from impuritybound import bounds as bd
from impuritybound.errors import (DomainError, PreconditionError,
                                  StabilityRegimeError)


def test_c_t_closed_form():
    value = bd.enumerate_c_t(1000)
    assert value == pytest.approx(2.0 * math.pi**2 / 3.0 ** (5.0 / 3.0),
                                  rel=1e-14)


def test_c_t_stability_and_asymptote():
    v3 = bd.enumerate_c_t(1000)
    v4 = bd.enumerate_c_t(10000)
    assert abs(v4 - v3) / v3 < 1e-3
    _, ns, curve = bd.enumerate_c_t(5000, return_curve=True)
    assert curve[-1] == pytest.approx(bd.weyl_c_t(), rel=5e-3)


def _own_cube_c_t(n_max):
    """enumerate_c_t's own certified-doubling loop over a Z^3 cube, before
    it read box_spectra's lowest modes; kept as its oracle. Returns the
    value and the curve."""
    r2 = max(9, int((3.0 * n_max / (4.0 * math.pi) * 1.6) ** (2.0 / 3.0)) + 4)
    while True:
        r = int(math.isqrt(r2))
        ax = np.arange(-r, r + 1)
        g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1).reshape(-1, 3)
        n2 = np.sort((g * g).sum(axis=1))
        n2 = n2[n2 <= r2]
        if len(n2) >= n_max and n2[n_max - 2] < r2:
            break
        r2 *= 2
    prefix = np.cumsum(n2)
    ns = np.arange(3, n_max + 1)
    ratios = (0.5 * (2.0 * math.pi) ** 2 * prefix[ns - 2]) / ns ** (5.0 / 3.0)
    return float(ratios.min()), ratios


def test_enumerate_c_t_bit_identical_to_own_cube():
    rng = np.random.default_rng(20261019)
    sizes = list(range(3, 80)) + [1000, 5000, 10000] + [
        int(n) for n in rng.integers(80, 10001, size=12)]
    for n_max in sizes:
        value, ns, curve = bd.enumerate_c_t(n_max, return_curve=True)
        ref_value, ref_curve = _own_cube_c_t(n_max)
        assert value.hex() == ref_value.hex(), n_max
        assert [x.hex() for x in curve.tolist()] == [
            x.hex() for x in ref_curve.tolist()], n_max
        assert ns.tolist() == list(range(3, n_max + 1))


def test_fit_c_l_prime_envelope():
    rows = bd.sweep_l_gap(m_values=(0.5, 1.0), mu_values=(1.0,),
                          ell_values=(1.0,), n_k=3)
    c = bd.fit_c_l_prime(rows)
    assert c > 0
    for r in rows:
        gap = abs(r["l_per"] - r["l_cont"])
        assert gap <= c / (r["q_mu_sq"] * r["ell"] ** 3) * (1.0 + 1e-12)
    with pytest.raises(PreconditionError):
        bd.fit_c_l_prime([])


def test_registry_roundtrip(tmp_path, registry):
    path = tmp_path / "reg.json"
    registry.save(path)
    back = bd.ConstantsRegistry.load(path)
    assert back.content_hash() == registry.content_hash()


def test_registry_validation(registry):
    broken = {k: dict(v) for k, v in registry.constants.items()}
    broken["c_l"]["value"] = 1.0
    with pytest.raises(PreconditionError):
        bd.ConstantsRegistry(constants=broken)
    bad_prov = {k: dict(v) for k, v in registry.constants.items()}
    bad_prov["c_t"]["provenance"] = "guessed"
    with pytest.raises(PreconditionError):
        bd.ConstantsRegistry(constants=bad_prov)
    missing = {k: dict(v) for k, v in registry.constants.items()}
    del missing["c_eta"]
    with pytest.raises(PreconditionError):
        bd.ConstantsRegistry(constants=missing)


def test_registry_provenances(registry):
    assert registry.constants["c_t"]["provenance"] == "enumerated"
    assert registry.constants["c_l_prime"]["provenance"] == "fitted"
    assert registry.constants["c_eta"]["provenance"] == "measured"
    assert registry.constants["a_const"]["provenance"] == "sourced"
    assert registry.constants["a_const"]["rule"] == bd.A_CONST_RULE


def test_n_zero_unit_plugin():
    constants = {
        "c_t": {"value": 1.0, "provenance": "enumerated", "manifest": {}},
        "c_l_prime": {"value": 1.0, "provenance": "fitted", "manifest": {}},
        "c_l": {"value": 1.0, "provenance": "fitted", "manifest": {}},
        "c_lambda": {"value": 1.0, "provenance": "fitted", "manifest": {}},
        "c_eta": {"value": 1.0, "provenance": "measured", "manifest": {}},
        "m_star_star": {"value": 0.5, "provenance": "measured",
                        "manifest": {}},
        "a_const": {"rule": bd.A_CONST_RULE, "provenance": "sourced",
                    "manifest": {}},
    }
    # satisfy the c_l recomputation invariant: (1.5/1.0) * 1 / 1
    constants["c_l"]["value"] = 1.5
    reg = bd.ConstantsRegistry(constants=constants)
    assert bd.n_zero(1.0, 0.0, reg, lambda_val=0.0) == pytest.approx(1.0)


def test_n_zero_monotone_in_kappa(registry):
    lam = 0.3409
    c_t = registry.value("c_t")
    vals = [bd.n_zero(1.0, k, registry, lambda_val=lam)
            for k in (0.1 * c_t, 0.3 * c_t, 0.5 * c_t)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(PreconditionError):
        bd.n_zero(1.0, 0.9 * c_t, registry, lambda_val=0.5)


def test_bound_unconfined_examples():
    assert bd.bound_unconfined(2.0, 1.0, 0.5) == 0.0
    lam = 0.25
    alpha = -2.0 * math.pi**2 * (1.0 - lam)
    assert bd.bound_unconfined(1.0, alpha, lam) == pytest.approx(-1.0)
    assert abs(bd.bound_unconfined(1.0, -1e-12, lam)) < 1e-20
    with pytest.raises(StabilityRegimeError):
        bd.bound_unconfined(1.0, -1.0, 1.2)


def test_bound_confined_no_penalty_above_threshold(registry):
    lam = 0.3409
    kappa = bd.kappa_default(1.0, registry, lambda_val=lam)
    alpha = registry.value("c_l") / 1.0 + 1.0
    rep = bd.bound_confined(1.0, kappa, 1000, 1.0, alpha, registry,
                            lambda_val=lam)
    assert rep.value == kappa * 1000 ** (5.0 / 3.0)
    assert rep.intermediates["subtraction_term"] == 0.0


def test_bound_confined_large_n_limit(registry):
    lam = 0.3409
    kappa = 0.25 * registry.value("c_t")
    one = 1.0 - kappa / registry.value("c_t")
    alpha = -1.0
    neg = alpha - registry.value("c_l")
    rep = bd.bound_confined(1.0, kappa, 10**12, 1.0, alpha, registry,
                            lambda_val=lam)
    asym = (1.0 / (4.0 * math.pi**4)) * 1.0 * neg**2 / (one - lam) ** 2
    assert rep.intermediates["subtraction_term"] == pytest.approx(
        asym, rel=1e-2)


def test_bound_confined_determinism(registry):
    a = bd.bound_confined(1.0, 1.0, 500, 1.0, -1.0, registry,
                          lambda_val=0.3409)
    b = bd.bound_confined(1.0, 1.0, 500, 1.0, -1.0, registry,
                          lambda_val=0.3409)
    assert a.to_json() == b.to_json()
    assert a.registry_hash == registry.content_hash()


def test_bound_confined_monotone_rays(registry):
    lam = 0.3409
    vals_alpha = [bd.bound_confined(1.0, 1.0, 500, 1.0, a, registry,
                                    lambda_val=lam).value
                  for a in (-3.0, -1.0, 0.0, 5.0)]
    assert all(x <= y + 1e-12 for x, y in zip(vals_alpha, vals_alpha[1:]))
    vals_n = [bd.bound_confined(1.0, 1.0, n, 1.0, -1.0, registry,
                                lambda_val=lam).value
              for n in (100, 1000, 10000)]
    assert vals_n[0] < vals_n[1] < vals_n[2]


def test_bound_main_shape(registry):
    lam = 0.3409
    rep = bd.bound_main(1.0, 64, 4.0, -1.0, registry, fitted_const=1.0,
                        lambda_val=lam)
    assert rep.value == rep.intermediates["e_dirichlet"] - \
        rep.intermediates["correction"]
    # alpha >= 0 removes the coupling penalty
    rep0 = bd.bound_main(1.0, 64, 4.0, 2.0, registry, fitted_const=1.0,
                         lambda_val=lam)
    rho = 64 / 4.0**3
    assert rep0.intermediates["correction"] == pytest.approx(
        rho ** (2.0 / 3.0) / (1.0 - lam) ** 4.5)


def test_bound_main_correction_density_only(registry):
    """Doubling the box at fixed density leaves the correction unchanged."""
    lam = 0.3409
    r1 = bd.bound_main(1.0, 64, 4.0, -1.0, registry, fitted_const=2.0,
                       lambda_val=lam)
    r2 = bd.bound_main(1.0, 512, 8.0, -1.0, registry, fitted_const=2.0,
                       lambda_val=lam)
    assert r1.intermediates["correction"] == pytest.approx(
        r2.intermediates["correction"], rel=1e-12, abs=0.0)
    with pytest.raises(StabilityRegimeError):
        bd.bound_main(1.0, 8, 2.0, 0.0, registry, fitted_const=1.0,
                      lambda_val=1.5)


@pytest.mark.parametrize("n", [0, -5])
def test_bounds_reject_n_below_one(registry, n):
    with pytest.raises(PreconditionError, match=f"n must be >= 1, got {n}"):
        bd.bound_confined(1.0, 1.0, n, 1.0, -1.0, registry,
                          lambda_val=0.3409)
    with pytest.raises(PreconditionError, match=f"n must be >= 1, got {n}"):
        bd.bound_main(1.0, n, 4.0, -1.0, registry, fitted_const=1.0,
                      lambda_val=0.3409)


def test_choose_ell():
    ell = bd.choose_ell(1000, 10.0)
    rho13 = (1000 / 10.0**3) ** (1.0 / 3.0)
    assert 0.5 <= ell * rho13 <= 2.0
    assert (10.0 / ell) == pytest.approx(round(10.0 / ell))
    with pytest.raises(DomainError):
        bd.choose_ell(0, 1.0)


def test_report_json_full_precision(registry):
    rep = bd.bound_confined(1.0, 1.0, 500, 1.0, -1.0, registry,
                            lambda_val=0.3409)
    doc = json.loads(rep.to_json())
    assert doc["value"] == rep.value
