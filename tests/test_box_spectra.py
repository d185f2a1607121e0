import math

import numpy as np
import pytest

from impuritybound import box_spectra as bs
from impuritybound.errors import DomainError, PreconditionError


def test_degeneracy_pattern_at_l_pi():
    spec = bs.dirichlet_levels(math.pi, 11)
    got = [(round(v), mult) for v, mult, _ in spec.levels[:5]]
    assert got == [(3, 1), (6, 3), (9, 3), (11, 3), (12, 1)]


def test_lowest_level_closed_form():
    for lbig in (0.7, 1.0, 2.5):
        spec = bs.dirichlet_levels(lbig, 1)
        assert spec.levels[0][0] == pytest.approx(3.0 * math.pi**2 / lbig**2,
                                                  rel=1e-14)


def test_sum_lowest_conventions():
    full, half = bs.sum_lowest(1.0, 1)
    assert full == pytest.approx(3.0 * math.pi**2)
    assert half == pytest.approx(1.5 * math.pi**2)


def test_eigenvalue_count_certified():
    spec = bs.dirichlet_levels(1.0, 500)
    vals = spec.eigenvalues(500)
    assert len(vals) == 500
    assert np.all(np.diff(vals) >= 0)
    with pytest.raises(PreconditionError):
        spec.eigenvalues(10**6)


def test_rho0_normalization_and_bound():
    lbig, mu = 2.0, 30.0
    ng = 40
    ax = (np.arange(ng) + 0.5) * lbig / ng
    x = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1)
    dens = bs.rho0(x, lbig, mu)
    count = bs.dirichlet_levels(lbig, 200).count_below(mu)
    assert dens.sum() * (lbig / ng) ** 3 == pytest.approx(count, rel=1e-10)
    assert dens.max() <= 2**5 * mu**1.5 / (3.0 * math.pi**2)
    with pytest.raises(DomainError):
        bs.rho0([3.0, 0.0, 0.0], lbig, mu)


def test_shell_count_strictness():
    # at L=pi the levels are the integers n^2; e=1 about mu=6 catches only
    # the shell at 6 itself, which the strict inequality excludes at e->0
    assert bs.shell_count_f(0.0, 6.0, math.pi) == 0.0
    assert bs.shell_count_f(0.5, 6.0, math.pi) == pytest.approx(
        (2.0 / math.pi) ** 3 * 3)
    # |n^2 - 6| < 3.5 catches the shells 3 (x1), 6 (x3) and 9 (x3)
    assert bs.shell_count_f(3.5, 6.0, math.pi) == pytest.approx(
        (2.0 / math.pi) ** 3 * 7)


def test_r_function_against_numeric_integral():
    rho, mu, lbig = 0.8, 20.0, 2.0
    exact = bs.r_function(rho, mu, lbig)
    es = np.linspace(1e-9, 60.0, 400001)
    f = np.array([bs.shell_count_f(float(e), mu, lbig) for e in
                  np.linspace(1e-9, 60.0, 2001)])
    fi = np.interp(es, np.linspace(1e-9, 60.0, 2001), f)
    # direct Riemann evaluation of the defining integral (coarse oracle)
    integrand = np.maximum(math.sqrt(rho) - np.sqrt(fi), 0.0) ** 2
    approx = np.trapezoid(integrand, es)
    assert exact == pytest.approx(approx, rel=0.05)
    assert bs.r_function(0.0, mu, lbig) == 0.0


def test_galerkin_exact_at_zero_potential():
    v0 = bs.PotentialGrid(lbig=2.0, values=np.zeros((48, 48, 48)))
    vals = np.sort(bs.galerkin_spectrum(v0, 40))
    exact = bs.dirichlet_levels(2.0, 40).eigenvalues(40)
    assert np.abs(vals - exact).max() < 1e-10


def test_galerkin_variational_monotone():
    v = bs.random_smooth_potential(2.0, seed=1, depth=1.5, n_grid=48)
    small = np.sort(bs.galerkin_spectrum(v, 64))[:20]
    large = np.sort(bs.galerkin_spectrum(v, 256))[:20]
    assert np.all(large <= small + 1e-10)


def test_galerkin_aliasing_guard():
    v = bs.PotentialGrid(lbig=1.0, values=np.zeros((16, 16, 16)))
    with pytest.raises(PreconditionError):
        bs.galerkin_spectrum(v, 512)


@pytest.mark.parametrize("size", [0, -1])
def test_galerkin_rejects_nonpositive_basis_size(size):
    v = bs.PotentialGrid(lbig=1.0, values=np.zeros((16, 16, 16)))
    with pytest.raises(PreconditionError, match="basis_size"):
        bs.galerkin_spectrum(v, size)


def test_potential_grid_validation():
    with pytest.raises(DomainError):
        bs.PotentialGrid(lbig=1.0, values=np.zeros((4, 5, 6)))
    with pytest.raises(DomainError):
        bs.PotentialGrid(lbig=1.0, values=np.full((8, 8, 8), np.nan))
    vpos = bs.PotentialGrid(lbig=1.0, values=np.ones((8, 8, 8)))
    with pytest.raises(PreconditionError):
        vpos.require_nonpositive()


def test_lt_gap_positive_for_negative_potential():
    v = bs.random_smooth_potential(2.0, seed=4, depth=2.0, n_grid=48)
    gap, rhs, ratio = bs.lt_gap_check(v, 8, basis_size=256)
    assert gap >= 0.0
    assert rhs > 0.0
    assert ratio == gap / rhs


def test_admissibility_enforced():
    with pytest.raises(PreconditionError):
        bs.FiniteRankPerturbation(
            lbig=2.0, mu=12.0, labels=((1, 1, 1), (1, 1, 2)),
            matrix=np.array([[2.0, 0.0], [0.0, 0.0]]))


def test_squared_trace_inequality_sample():
    for seed in range(10):
        q = bs.random_admissible_q(2.0, mu=12.0, seed=seed)
        out = bs.thm_a1_check(q)
        assert out["lemma_lhs"] <= out["lhs"] + 1e-10
        assert out["lhs"] >= -1e-10


def test_random_admissible_q_rejects_nonpositive_box():
    for lbig in (0.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            bs.random_admissible_q(lbig, mu=12.0, seed=1)


def test_phi_sum_scaling():
    vals = [bs.phi_sum([1.0, 0.0, 0.0], mu, 3.0) / math.sqrt(mu)
            for mu in (25.0, 100.0, 400.0)]
    assert max(vals) < 5.0
    assert bs.phi_sum([0.1, 0.0, 0.0], 4.0, 3.0) >= 0.0


def test_shift_inequality_sign():
    v = bs.random_smooth_potential(2.0, seed=7, depth=1.0, n_grid=48)
    lhs, rhs = bs.thm_a3_check(v, 12.0, basis_size=256)
    assert lhs <= 1e-8
    assert rhs > 0.0


def _doubling_enumeration(count):
    """The n2_max doubling loop that dirichlet_levels and basis_labels each
    ran before they shared one enumerator; kept as their oracle."""
    n2_max = max(12, int((6.0 * count) ** (2.0 / 3.0)) + 16)
    while True:
        g = bs._enumerate_n2(n2_max)
        if len(g) >= count and sorted((g * g).sum(axis=1))[count - 1] < n2_max:
            return g, n2_max
        n2_max *= 2


def _scan_levels(lbig, count):
    g, n2_max = _doubling_enumeration(count)
    n2 = (g * g).sum(axis=1)
    order = np.argsort(n2, kind="stable")
    n2s = n2[order]
    levels = []
    i = total = 0
    while i < len(n2s) and total < count:
        j = i
        while j < len(n2s) and n2s[j] == n2s[i]:
            j += 1
        if n2s[i] > n2_max - 1:
            break
        rep = tuple(int(c) for c in g[order[i]])
        levels.append(((math.pi / lbig) ** 2 * float(n2s[i]), j - i, rep))
        total += j - i
        i = j
    return tuple(levels)


def _scan_labels(count):
    g, _ = _doubling_enumeration(count)
    keyed = sorted((int((t * t).sum()), tuple(int(c) for c in t)) for t in g)
    return [t for _, t in keyed[:count]]


def test_lowest_modes_bit_identical_to_doubling_loops():
    for count in list(range(1, 65)) + [512, 2048]:
        for lbig in (0.7, math.pi):
            assert bs.dirichlet_levels(lbig, count).levels == _scan_levels(
                lbig, count)
        assert bs.basis_labels(1.0, count) == _scan_labels(count)
