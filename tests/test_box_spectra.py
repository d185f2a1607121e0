import itertools
import math

import numpy as np
import pytest

from impuritybound import box_spectra as bs
from impuritybound.errors import DomainError, PreconditionError
from impuritybound.params import check_domain


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


@pytest.mark.parametrize("mu, lbig, name", [
    (math.nan, 2.0, "mu"), (0.0, 2.0, "mu"), (12.0, math.inf, "lbig"),
    (12.0, 0.0, "lbig"), (12.0, math.nan, "lbig")])
def test_r_function_rejects_bad_inputs(mu, lbig, name):
    with pytest.raises(DomainError, match=name):
        bs.r_function(0.5, mu, lbig)


_ONE_MODE = {"labels": ((1, 1, 1),), "matrix": np.zeros((1, 1))}


@pytest.mark.parametrize("call, name", [
    (lambda: bs.phi_sum([1.0, 0.0, 0.0], math.nan, 2.0), "mu"),
    (lambda: bs.phi_sum([1.0, 0.0, 0.0], 12.0, math.nan), "lbig"),
    (lambda: bs.phi_sum([1.0, 0.0, 0.0], 12.0, math.inf), "lbig"),
    (lambda: bs.shell_count_f(0.5, 6.0, math.nan), "lbig"),
    (lambda: bs.shell_count_f(0.5, 6.0, math.inf), "lbig"),
    (lambda: bs.shell_count_f(0.5, 6.0, -1.0), "lbig"),
    (lambda: bs.rho0([0.5, 0.5, 0.5], math.nan, 12.0), "lbig"),
    (lambda: bs.rho0([0.5, 0.5, 0.5], math.inf, 12.0), "lbig"),
    (lambda: bs.FiniteRankPerturbation(lbig=math.nan, mu=12.0, **_ONE_MODE),
     "lbig"),
    (lambda: bs.FiniteRankPerturbation(lbig=2.0, mu=math.nan, **_ONE_MODE),
     "mu"),
    (lambda: bs.thm_a1_check(bs.random_admissible_q(2.0, 12.0, 1),
                             eta=math.nan), "eta"),
    (lambda: bs.thm_a1_check(bs.random_admissible_q(2.0, 12.0, 1),
                             eta=-1.0), "eta"),
], ids=["phi-mu-nan", "phi-lbig-nan", "phi-lbig-inf", "shell-lbig-nan",
        "shell-lbig-inf", "shell-lbig-negative", "rho0-lbig-nan",
        "rho0-lbig-inf", "frp-lbig-nan", "frp-mu-nan", "a1-eta-nan",
        "a1-eta-negative"])
def test_box_inputs_reject_bad_values(call, name):
    with pytest.raises(DomainError, match=name):
        call()


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
    for lbig in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="lbig"):
            bs.PotentialGrid(lbig=lbig, values=np.zeros((4, 4, 4)))
    vpos = bs.PotentialGrid(lbig=1.0, values=np.ones((8, 8, 8)))
    with pytest.raises(PreconditionError):
        vpos.require_nonpositive()


def test_lt_gap_positive_for_negative_potential():
    v = bs.random_smooth_potential(2.0, seed=4, depth=2.0, n_grid=48)
    gap, rhs, ratio = bs.lt_gap_check(v, 8, bs.galerkin_spectrum(v, 256))
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
    lhs, rhs = bs.thm_a3_check(v, 12.0, bs.galerkin_spectrum(v, 256))
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


def _hexes(a):
    return [float(x).hex() for x in np.ravel(a)]


def _scan_eigenvalues(lbig, count):
    """The lowest ``count`` levels with multiplicity, as
    DirichletSpectrum.eigenvalues listed them from the scanned levels."""
    out = []
    for v, mult, _ in _scan_levels(lbig, count):
        out.extend([v] * mult)
    return np.asarray(out[:count])


def test_sum_lowest_bit_identical_to_level_scan():
    """sum_lowest used to sum DirichletSpectrum.eigenvalues; it now sums
    the mode levels directly."""
    rng = np.random.default_rng(20261019)
    counts = list(range(1, 65)) + [100, 1000] + [
        int(c) for c in rng.integers(65, 20001, size=6)]
    for count in counts:
        for lbig in (0.7, 1.0, math.pi):
            full = float(_scan_eigenvalues(lbig, count).sum())
            assert [x.hex() for x in bs.sum_lowest(lbig, count)] == [
                full.hex(), (0.5 * full).hex()], (lbig, count)
    for lbig, count in ((40.0, 100000), (2.5, 65536), (0.3, 99991)):
        full = float(_scan_eigenvalues(lbig, count).sum())
        assert bs.sum_lowest(lbig, count)[0].hex() == full.hex()


def _label_galerkin(v, basis_size):
    """galerkin_spectrum as it read basis_labels' tuples and formed the
    levels from them; kept as its oracle."""
    import scipy.fft
    import scipy.linalg
    if basis_size < 1:
        raise PreconditionError(f"basis_size must be >= 1, got {basis_size}")
    labels = bs.basis_labels(v.lbig, basis_size)
    nmax = max(max(t) for t in labels)
    if 2 * nmax >= v.n_grid:
        raise PreconditionError(
            f"grid resolution {v.n_grid} too coarse for basis frequencies up "
            f"to {2 * nmax} (aliasing)")
    coefs = scipy.fft.dctn(v.values, type=2) * (v.h**3 / 8.0)
    lab = np.asarray(labels)
    p2 = (math.pi / v.lbig) ** 2 * (lab * lab).sum(axis=1)
    nb = len(labels)
    w = np.zeros((nb, nb))
    diff = np.abs(lab[:, None, :] - lab[None, :, :])
    summ = lab[:, None, :] + lab[None, :, :]
    for eps in range(8):
        bits = [(eps >> b) & 1 for b in range(3)]
        d = np.where(np.array(bits, dtype=bool)[None, None, :], summ, diff)
        sign = (-1.0) ** sum(bits)
        w += sign * coefs[d[..., 0], d[..., 1], d[..., 2]]
    w *= (2.0 / v.lbig) ** 3 / 8.0
    return scipy.linalg.eigh(np.diag(p2) + w, eigvals_only=True)


def _label_thm_a3(v, mu, basis_size):
    """thm_a3_check as it read the free levels from dirichlet_levels."""
    vals_v = _label_galerkin(v, basis_size)
    tr_v = float(np.minimum(vals_v - mu, 0.0).sum())
    free = _scan_eigenvalues(v.lbig, basis_size)
    tr_0 = float(np.minimum(free - mu, 0.0).sum())
    ng = v.n_grid
    ax = (np.arange(ng) + 0.5) * v.h
    xs = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1)
    rho_v = float((bs.rho0(xs, v.lbig, mu) * v.values).sum()) * v.h**3
    rhs = (math.sqrt(mu) * v.integral(2.0) + v.integral(2.5)
           + mu / v.lbig * v.integral(1.0))
    return tr_v - tr_0 - rho_v, rhs


def test_galerkin_and_thm_a3_bit_identical_to_label_path():
    """Seeded small cases, then ltcheck's ensemble size (basis 512, grid
    48)."""
    rng = np.random.default_rng(20261020)
    drawn = ((float(rng.choice([1.0, 1.5, 2.0, 3.0])),
              int(rng.choice([12, 16, 20, 24])),
              int(rng.choice([1, 2, 7, 8, 27, 40, 64, 100])),
              int(rng.integers(1000)), float(rng.uniform(0.5, 3.0)))
             for _ in range(16))
    for lbig, n_grid, basis, seed, depth in itertools.chain(
            drawn, [(2.0, 48, 512, 26, 2.0)]):
        v = bs.random_smooth_potential(lbig, seed=seed, depth=depth,
                                       n_grid=n_grid)
        try:
            ref = _label_galerkin(v, basis)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as new:
                bs.galerkin_spectrum(v, basis)
            assert str(new.value) == str(exc)
            continue
        assert _hexes(bs.galerkin_spectrum(v, basis)) == _hexes(ref)
        mu = 3.0 * math.pi**2 / lbig**2 * float(rng.uniform(1.0, 3.0))
        assert _hexes(bs.thm_a3_check(
            v, mu, bs.galerkin_spectrum(v, basis))) == _hexes(
            _label_thm_a3(v, mu, basis))


def _own_solve_lt_gap(v, count, basis_size):
    """lt_gap_check as it ran its own Galerkin solve; kept as its oracle."""
    v.require_nonpositive()
    if basis_size < count:
        raise PreconditionError(
            f"basis_size {basis_size} smaller than requested count {count}")
    e_free = bs.sum_lowest(v.lbig, count)[0]
    vals = bs.galerkin_spectrum(v, basis_size)
    e_pot = float(np.sort(vals)[:count].sum())
    gap = e_free - e_pot
    rhs = (count ** (1.0 / 3.0) / v.lbig * v.integral(2.0)
           + v.integral(2.5) + count / v.lbig**3 * v.integral(1.0))
    ratio = 0.0 if rhs == 0.0 else gap / rhs
    return gap, rhs, ratio


def _own_solve_thm_a3(v, mu, basis_size):
    """thm_a3_check as it ran its own Galerkin solve; kept as its oracle."""
    check_domain("mu", mu)
    if mu < 3.0 * math.pi**2 / v.lbig**2:
        raise PreconditionError(
            "mu below the lowest Dirichlet level: the standard inequality "
            "applies in that regime instead")
    vals_v = bs.galerkin_spectrum(v, basis_size)
    tr_v = float(np.minimum(vals_v - mu, 0.0).sum())
    free = bs._mode_levels(v.lbig, basis_size)[2][:basis_size]
    tr_0 = float(np.minimum(free - mu, 0.0).sum())
    ng = v.n_grid
    ax = (np.arange(ng) + 0.5) * v.h
    xs = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1)
    rho_v = float((bs.rho0(xs, v.lbig, mu) * v.values).sum()) * v.h**3
    lhs = tr_v - tr_0 - rho_v
    rhs = (math.sqrt(mu) * v.integral(2.0) + v.integral(2.5)
           + mu / v.lbig * v.integral(1.0))
    return lhs, rhs


def test_checks_on_one_spectrum_bit_identical_to_own_solves():
    rng = np.random.default_rng(20261023)
    for basis in (64, 100, 200, 256, 384, 512):
        lbig = float(rng.choice([1.5, 2.0, 3.0]))
        v = bs.random_smooth_potential(lbig, seed=int(rng.integers(1000)),
                                       depth=float(rng.uniform(0.5, 3.0)),
                                       n_grid=48)
        count = int(rng.integers(1, 65))
        mu = 3.0 * math.pi**2 / lbig**2 * float(rng.uniform(1.0, 4.0))
        vals = bs.galerkin_spectrum(v, basis)
        assert _hexes(bs.lt_gap_check(v, count, vals)) == _hexes(
            _own_solve_lt_gap(v, count, basis)), basis
        assert _hexes(bs.thm_a3_check(v, mu, vals)) == _hexes(
            _own_solve_thm_a3(v, mu, basis)), basis


def _label_admissible_q(lbig, mu, seed):
    """random_admissible_q as it built label tuples and their levels;
    returns its labels and matrix."""
    n2_mu = int(mu * (lbig / math.pi) ** 2)
    lab_below = [tuple(int(c) for c in t) for t in bs._enumerate_n2(n2_mu)]
    if not lab_below:
        raise PreconditionError("mu below the lowest Dirichlet level")
    all_lab = bs.basis_labels(lbig, len(lab_below) + 12)
    vals = (math.pi / lbig) ** 2 * (np.asarray(all_lab) ** 2).sum(axis=1)
    labels = [t for t, v in zip(all_lab, vals) if v <= mu]
    labels += [t for t, v in zip(all_lab, vals) if v > mu][:12]
    nb = len(labels)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((nb, nb))
    a = (a + a.T) / 2.0
    a *= 0.6 / max(np.abs(np.linalg.eigvalsh(a)).max(), 1e-12)
    pi_m = ((math.pi / lbig) ** 2
            * (np.asarray(labels) ** 2).sum(axis=1) <= mu).astype(float)
    evs, vecs = np.linalg.eigh(a + np.diag(pi_m))
    evs = np.clip(evs, 0.0, 1.0)
    q = vecs @ np.diag(evs) @ vecs.T - np.diag(pi_m)
    return tuple(labels), (q + q.T) / 2.0


def test_random_admissible_q_bit_identical_to_label_path():
    rng = np.random.default_rng(20261021)
    cases = [(2.0, 12.0), (math.pi, 6.0), (math.pi, 9.0), (1.0, 29.7),
             (2.0, 3.0 * math.pi**2 / 4.0)]
    for _ in range(10):
        lbig = float(rng.uniform(1.0, 3.0))
        cases.append((lbig, 3.0 * math.pi**2 / lbig**2
                      * float(rng.uniform(1.0, 4.0))))
    for lbig, mu in cases:
        seed = int(rng.integers(2**31))
        labels, q = _label_admissible_q(lbig, mu, seed)
        new = bs.random_admissible_q(lbig, mu, seed)
        assert new.labels == labels
        assert _hexes(new.matrix) == _hexes(q)
    with pytest.raises(PreconditionError, match="mu below"):
        bs.random_admissible_q(2.0, 3.0 * math.pi**2 / 4.0 * 0.999, 1)


def _own_cube_phi_sum(k, mu, lbig):
    """phi_sum over its own cube of Z^3, before it read the ball of
    _enumerate_n2; kept as its oracle."""
    k = np.asarray(k, dtype=float)
    lo = mu - math.sqrt(mu) / lbig
    hi = mu + math.sqrt(mu) / lbig
    if lo <= 0:
        return 0.0
    r = int(math.floor(math.sqrt(lo) * lbig / math.pi)) + 1
    ax = np.arange(-r, r + 1)
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1).reshape(-1, 3)
    qs = (math.pi / lbig) * g
    q2 = (qs * qs).sum(axis=1)
    d2 = ((qs - k) ** 2).sum(axis=1)
    sel = (q2 < lo) & (d2 > hi)
    if not sel.any():
        return 0.0
    terms = 1.0 / (np.sqrt(mu - q2[sel]) * np.sqrt(d2[sel] - mu))
    return float(terms.sum()) / lbig**3


def test_phi_sum_bit_identical_to_own_cube():
    rng = np.random.default_rng(20261022)
    for _ in range(60):
        lbig = float(rng.choice([1.0, 2.0, 3.0, 5.0, math.pi]))
        mu = 3.0 * math.pi**2 / lbig**2 * float(10.0 ** rng.uniform(0, 2))
        k = rng.standard_normal(3) * math.sqrt(mu) * float(rng.uniform(0, 3))
        assert bs.phi_sum(k, mu, lbig).hex() == _own_cube_phi_sum(
            k, mu, lbig).hex()
    # the levels at L = pi are integers: q^2 = lo exactly on a shell
    for mu in (4.0, 9.0, 16.0, 36.0):
        k = [1.0, 0.5, 0.0]
        assert bs.phi_sum(k, mu, math.pi).hex() == _own_cube_phi_sum(
            k, mu, math.pi).hex()


# L whose lowest level, as dirichlet_levels reports it, is one ulp below
# 3 pi^2 / L^2 as that expression rounds
GROUND_L = 3.2399999999999998
GROUND_CALLERS = {
    "thm_a1_check": lambda mu: bs.thm_a1_check(bs.FiniteRankPerturbation(
        lbig=GROUND_L, mu=mu, labels=((1, 1, 1),), matrix=np.zeros((1, 1)))),
    "thm_a3_check": lambda mu: bs.thm_a3_check(
        bs.random_smooth_potential(GROUND_L, seed=1, n_grid=8), mu,
        np.zeros(4)),
    "phi_sum": lambda mu: bs.phi_sum([1.0, 0.0, 0.0], mu, GROUND_L),
    "random_admissible_q": lambda mu: bs.random_admissible_q(GROUND_L, mu, 1),
}


@pytest.mark.parametrize("caller", GROUND_CALLERS)
def test_ground_level_check_accepts_the_reported_level(caller):
    """mu at the lowest level that dirichlet_levels reports, and at
    3 pi^2/L^2 as that rounds, are at the ground level; one ulp below the
    level is not."""
    level = bs.dirichlet_levels(GROUND_L, 1).levels[0][0]
    assert level < 3.0 * math.pi**2 / GROUND_L**2
    for mu in (level, 3.0 * math.pi**2 / GROUND_L**2):
        GROUND_CALLERS[caller](mu)
    with pytest.raises(PreconditionError, match="mu below the lowest"):
        GROUND_CALLERS[caller](float(np.nextafter(level, 0.0)))


def test_enumeration_limit():
    """Counts above MAX_MODES are refused before anything is enumerated,
    with a message that names the count and the limit."""
    over = bs.MAX_MODES + 1
    for call in (lambda: bs.dirichlet_levels(1.0, over),
                 lambda: bs.sum_lowest(1.0, over),
                 lambda: bs.basis_labels(1.0, over),
                 lambda: bs._lowest_modes(over, signed=True)):
        with pytest.raises(PreconditionError,
                           match=f"{over} modes requested, above the "
                                 f"enumeration limit of {bs.MAX_MODES}"):
            call()
