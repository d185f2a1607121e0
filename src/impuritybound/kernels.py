"""Pointwise mathematical kernels shared by all other modules.

All functions are pure and accept plain floats / 3-vectors. Vectorized
variants used by the integrators live in :mod:`impuritybound.lambda_functional`.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .params import LambdaArgs, ModelParams, as_momentum, check_domain


def green_g(params: ModelParams, k0, kvec) -> float:
    """Free two-species resolvent kernel G_mu(k0, kvec).

    ``kvec`` is a sequence of gas-particle momenta. Returns
    1 / (k0^2/(2m) + sum(k_i^2)/2 + mu).
    """
    k0 = as_momentum(k0)
    ks = np.atleast_2d(np.asarray(kvec, dtype=float))
    if ks.size and ks.shape[-1] != 3:
        raise DomainError(f"gas momenta must be 3-vectors, got shape {ks.shape}")
    denom = (k0 @ k0) / (2.0 * params.m) + 0.5 * float((ks**2).sum()) + params.mu
    if denom <= 0:
        raise DomainError(
            f"resolvent denominator {denom} is non-positive (mu={params.mu} too negative)")
    return 1.0 / denom


def l_continuum(params: ModelParams, k1, khat_sq: float) -> float:
    """Continuum diagonal kernel L(k) = 2 pi^2 (2m/(m+1))^{3/2} sqrt(gamma)
    with gamma = k1^2/(2(m+1)) + khat_sq/2 + mu."""
    k1 = as_momentum(k1)
    check_domain("khat_sq", khat_sq, 0.0, strict=False)
    m = params.m
    gamma = (k1 @ k1) / (2.0 * (m + 1.0)) + 0.5 * khat_sq + params.mu
    if gamma <= 0:
        raise DomainError(
            f"radicand {gamma} is non-positive (mu={params.mu} too negative)")
    return 2.0 * np.pi**2 * (2.0 * m / (m + 1.0)) ** 1.5 * np.sqrt(gamma)


def lambda_coefficients(m: float):
    """The m-dependent coefficients (c1, a, c4) of the lambda kernel:
    c1 = m(m+2)/(m+1)^2 multiplies the quartic-root arguments, a = m/(m+1)
    multiplies the additive constant, c4 = 2/(1+m) multiplies the cross term.
    """
    c1 = m * (m + 2.0) / (m + 1.0) ** 2
    a = m / (m + 1.0)
    c4 = 2.0 / (1.0 + m)
    return c1, a, c4


def lambda_kernel(args: LambdaArgs, t_tilde) -> float:
    """Pointwise value of the weight kernel lambda_{s,Q,K,m,delta}(t)."""
    t = as_momentum(t_tilde)
    s = np.asarray(args.s_tilde)
    K = np.asarray(args.k_vec)
    m, A, Q, delta = args.m, args.a_const, args.q_mu, args.delta
    c1, a, c4 = lambda_coefficients(m)
    B = a * (2.0 * Q * Q + A * float(K @ K))
    ak = A * K
    dreg = delta / args.ell**2

    sing = float((t - ak) @ (t - ak)) + dreg
    if sing <= 0:
        raise DomainError(
            "singular point: t_tilde = A*K with delta = 0; integrators must "
            "exclude or transform this point")
    quart_s = c1 * float(s @ s) + B
    quart_t = c1 * float(t @ t) + B
    if quart_s <= 0 or quart_t <= 0:
        raise DomainError(
            "vanishing quartic-root factor; require q_mu > 0 or delta > 0")
    sdott = float(s @ t)
    bracket = float(s @ s) + float(t @ t) + B
    denom = bracket**2 - (c4 * sdott) ** 2
    if denom <= 0:
        raise DomainError("vanishing cross-term denominator")

    pref = (float((s - ak) @ (s - ak)) + 2.0 * Q * Q + args.n * dreg) / (
        np.pi**2 * (1.0 + m))
    return pref * quart_s**-0.25 / sing * quart_t**-0.25 * abs(sdott) / denom


def s_function(rho: float, mu: float) -> float:
    """S(rho) = (mu^{3/2} + rho)^{5/3} - mu^{5/2} - (5/3) mu rho.

    Non-negative and convex; behaves like (5/9) mu^{-1/2} rho^2 for small
    rho and like rho^{5/3} for large rho.
    """
    check_domain("rho", rho, 0.0, strict=False)
    return float(s_function_arr(rho, mu))


def s_function_arr(rho, mu: float):
    """Vectorized S(rho) for non-negative array input."""
    rho = np.asarray(rho, dtype=float)
    check_domain("mu", mu, 0.0)
    if np.any(rho < 0):
        raise DomainError("rho must be non-negative")
    return np.maximum((mu**1.5 + rho) ** (5.0 / 3.0) - mu**2.5 - (5.0 / 3.0) * mu * rho, 0.0)


def fhat_infinity(m: float, gamma: float, z) -> float:
    """Fourier transform of t -> 1/((1+m)/(2m) t^2 + gamma) at position z:
    sqrt(pi/2) (2m/(1+m)) exp(-sqrt(2m/(m+1)) sqrt(gamma) |z|)/|z|."""
    check_domain("gamma", gamma, 0.0)
    z = np.asarray(z, dtype=float)
    r = float(np.sqrt((z**2).sum())) if z.shape == (3,) else float(abs(z))
    if r <= 0:
        raise DomainError("z must be nonzero")
    eta = np.sqrt(2.0 * m / (m + 1.0)) * np.sqrt(gamma)
    return np.sqrt(np.pi / 2.0) * (2.0 * m / (1.0 + m)) * np.exp(-eta * r) / r
