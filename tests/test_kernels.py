import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impuritybound.errors import DomainError
from impuritybound.kernels import (fhat_infinity, green_g, l_continuum,
                                   lambda_coefficients, lambda_kernel,
                                   s_function, s_function_arr)
from impuritybound.params import LambdaArgs, ModelParams


def test_green_g_value():
    params = ModelParams(m=2.0, mu=1.5)
    val = green_g(params, [1.0, 0.0, 0.0], [[0.0, 2.0, 0.0]])
    assert val == pytest.approx(1.0 / (0.25 + 2.0 + 1.5))


def test_green_g_rejects_closed_channel():
    params = ModelParams(m=1.0, mu=-10.0)
    with pytest.raises(DomainError):
        green_g(params, [0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])


def test_l_continuum_closed_form():
    params = ModelParams(m=1.0, mu=2.0)
    # gamma = 4/(2*2) + 0 + 2 = 3
    val = l_continuum(params, [2.0, 0.0, 0.0], 0.0)
    assert val == pytest.approx(2.0 * math.pi**2 * math.sqrt(3.0))


def test_lambda_coefficients():
    c1, a, c4 = lambda_coefficients(1.0)
    assert c1 == pytest.approx(0.75)
    assert a == pytest.approx(0.5)
    assert c4 == pytest.approx(1.0)


def test_lambda_kernel_singularity_guard():
    args = LambdaArgs(s_tilde=(1, 0, 0), k_vec=(0, 0, 0), q_mu=1.0, m=1.0)
    with pytest.raises(DomainError):
        lambda_kernel(args, (0.0, 0.0, 0.0))


def test_lambda_kernel_degenerate_rejected():
    # fully degenerate gauge: q_mu = delta = 0 at the singular point t = AK
    args = LambdaArgs(s_tilde=(1, 0, 0), k_vec=(0, 0, 0), q_mu=0.0, m=1.0)
    with pytest.raises(DomainError):
        lambda_kernel(args, (0.0, 0.0, 0.0))


def test_lambda_kernel_zero_where_s_dot_t_vanishes():
    """At Q = K = 0 with delta > 0 the point t = 0 is regular, and the
    kernel takes its limit 0 there, as everywhere on the plane s.t = 0."""
    args = LambdaArgs(s_tilde=(1, 0, 0), k_vec=(0, 0, 0), q_mu=0.0, m=1.0,
                      delta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lambda_kernel(args, (0.0, 0.0, 0.0)) == 0.0
        assert lambda_kernel(args, (0.0, 0.3, -2.0)) == 0.0
    assert lambda_kernel(args, (1e-3, 0.0, 0.0)) > 0.0


@settings(deadline=None, max_examples=200)
@given(st.floats(0.2, 5.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0),
       st.floats(0.3, 3.0), st.floats(0.0, math.pi))
def test_lambda_kernel_homogeneity(m, smag, q, nu, psi):
    """nu^-3 scaling of the kernel under simultaneous dilation."""
    s = (smag, 0.0, 0.0)
    k = (0.7 * math.cos(psi), 0.7 * math.sin(psi), 0.0)
    t = (0.4, -0.3, 0.9)
    a0 = LambdaArgs(s_tilde=s, k_vec=k, q_mu=q, m=m)
    a1 = LambdaArgs(s_tilde=tuple(nu * x for x in s),
                    k_vec=tuple(nu * x for x in k), q_mu=nu * q, m=m)
    v0 = lambda_kernel(a0, t)
    v1 = lambda_kernel(a1, tuple(nu * x for x in t))
    assert v1 == pytest.approx(v0 / nu**3, rel=1e-12)


def test_lambda_kernel_delta_envelope():
    """Regularized kernel dominated by (1 + n delta/(2 ell^2 Q^2)) times
    the unregularized one at every point."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        s, k, t = rng.normal(size=(3, 3))
        q = rng.uniform(0.3, 2.0)
        delta = rng.uniform(0.0, 2.0)
        n = int(rng.integers(1, 20))
        ell = rng.uniform(0.5, 2.0)
        base = LambdaArgs(s_tilde=s, k_vec=k, q_mu=q, m=1.0)
        reg = LambdaArgs(s_tilde=s, k_vec=k, q_mu=q, m=1.0, delta=delta,
                         n=n, ell=ell)
        boost = 1.0 + n * delta / (2.0 * ell**2 * q * q)
        assert lambda_kernel(reg, t) <= boost * lambda_kernel(base, t) + 1e-15


def test_s_function_shape():
    assert s_function(0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    # small-rho quadratic behavior
    mu, rho = 4.0, 1e-4
    assert s_function(rho, mu) == pytest.approx(
        (5.0 / 9.0) * mu**-0.5 * rho**2, rel=1e-3)
    # large-rho power
    assert s_function(1e6, 1.0) == pytest.approx(1e6 ** (5.0 / 3.0), rel=1e-2)
    arr = s_function_arr(np.array([0.0, 1.0, 2.0]), 1.0)
    assert arr[0] == 0.0 and np.all(np.diff(arr) > 0)


def test_fhat_infinity_matches_quadrature():
    """Radial Fourier integral cross-check of the closed form."""
    from scipy import integrate

    m, gamma, r = 1.3, 0.8, 1.7
    a = (1.0 + m) / (2.0 * m)

    val, _ = integrate.quad(lambda k: k / (a * k * k + gamma),
                            0.0, np.inf, weight="sin", wvar=r)
    direct = val / r * (4.0 * math.pi) / (2.0 * math.pi) ** 1.5
    assert fhat_infinity(m, gamma, [r, 0.0, 0.0]) == pytest.approx(
        direct, rel=1e-6)
