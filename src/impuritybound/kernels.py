"""Pointwise mathematical kernels shared by all other modules.

All functions are pure and accept plain floats / 3-vectors; ``s_function``,
``fhat_infinity`` and the lambda kernel's point formula
(:meth:`LambdaSetup.value`) also take arrays. The lattice sum of
:mod:`impuritybound.lambda_functional` evaluates the latter on blocks of
lattice points and :func:`lambda_kernel` on one point.
"""

from __future__ import annotations

import math

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


def pair_gamma(m: float, k1_sq: float, khat_sq: float, mu: float) -> float:
    """The radicand gamma = |k1|^2/(2(1+m)) + khat_sq/2 + mu of the
    continuum pair kernel, which must be positive."""
    gamma = k1_sq / (2.0 * (1.0 + m)) + 0.5 * khat_sq + mu
    if gamma <= 0:
        raise DomainError(
            f"radicand {gamma} is non-positive: mu={mu} is below the allowed "
            "range for this momentum tuple")
    return gamma


def l_of_gamma(m: float, gamma: float) -> float:
    """The continuum diagonal kernel 2 pi^2 (2m/(m+1))^{3/2} sqrt(gamma)."""
    return 2.0 * math.pi**2 * (2.0 * m / (m + 1.0)) ** 1.5 * math.sqrt(gamma)


def l_continuum(params: ModelParams, k1, khat_sq: float) -> float:
    """Continuum diagonal kernel L(k) = l_of_gamma(m, gamma) with
    gamma = k1^2/(2(m+1)) + khat_sq/2 + mu."""
    k1 = as_momentum(k1)
    check_domain("khat_sq", khat_sq, 0.0, strict=False)
    return l_of_gamma(params.m, pair_gamma(params.m, float(k1 @ k1), khat_sq,
                                           params.mu))


def lambda_coefficients(m: float):
    """The m-dependent coefficients (c1, a, c4) of the lambda kernel:
    c1 = m(m+2)/(m+1)^2 multiplies the quartic-root arguments, a = m/(m+1)
    multiplies the additive constant, c4 = 2/(1+m) multiplies the cross term.
    """
    c1 = m * (m + 2.0) / (m + 1.0) ** 2
    a = m / (m + 1.0)
    c4 = 2.0 / (1.0 + m)
    return c1, a, c4


def quartic_root_factor(c1: float, s2: float, B: float) -> float:
    """(c1 |s|^2 + B)^(-1/4), the t-independent quartic root of the lambda
    kernel; B = a(2 Q^2 + A K.K) vanishes only at Q = K = 0."""
    quart_s = c1 * s2 + B
    if quart_s <= 0:
        raise DomainError("vanishing quartic-root factor; require q_mu > 0, "
                          "s != 0 or K != 0")
    return quart_s**-0.25


class LambdaSetup:
    """The t-independent part of lambda_{s,Q,K,m,delta}(t): A*K, delta/ell^2,
    |s|^2, |s - AK|^2, B = a(2 Q^2 + A K.K), c1, c4 and the prefactor
    (|s - AK|^2 + 2 Q^2 + n delta/ell^2) / (pi^2 (1+m)) (c1 |s|^2 + B)^(-1/4).
    """

    def __init__(self, args: LambdaArgs):
        self.s = np.asarray(args.s_tilde)
        K = np.asarray(args.k_vec)
        m, A, Q = args.m, args.a_const, args.q_mu
        self.c1, a, self.c4 = lambda_coefficients(m)
        self.ak = A * K
        self.B = a * (2.0 * Q * Q + A * float(K @ K))
        self.dreg = args.delta / args.ell**2
        self.s2 = float(self.s @ self.s)
        self.sk2 = float((self.s - self.ak) @ (self.s - self.ak))
        self.pref = (self.sk2 + 2.0 * Q * Q + args.n * self.dreg) / (
            math.pi**2 * (1.0 + m)) * quartic_root_factor(self.c1, self.s2,
                                                          self.B)

    def value(self, t2, sdott, sing):
        """The kernel at points with |t|^2 = t2, s.t = sdott and
        |t - AK|^2 + delta/ell^2 = sing (scalars or arrays), as
        pref (c1 t2 + B)^(-1/4) / sing |s.t| / (bracket^2 - (c4 s.t)^2)
        with bracket = |s|^2 + t2 + B. It is 0 where s.t = 0, which is its
        limit also at t = 0 when B = 0."""
        bracket = self.s2 + t2 + self.B
        denom = bracket * bracket - (self.c4 * sdott) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (self.pref * (self.c1 * t2 + self.B) ** -0.25 / sing
                   * np.abs(sdott) / denom)
        # c1 t2 + B vanishes only at t = 0 with B = 0, where 0 * inf is NaN
        return val if self.B > 0.0 else np.where(sdott == 0.0, 0.0, val)


def lambda_kernel(args: LambdaArgs, t_tilde) -> float:
    """Pointwise value of the weight kernel lambda_{s,Q,K,m,delta}(t)."""
    t = as_momentum(t_tilde)
    setup = LambdaSetup(args)
    sing = float((t - setup.ak) @ (t - setup.ak)) + setup.dreg
    if sing <= 0:
        raise DomainError(
            "singular point: t_tilde = A*K with delta = 0; integrators must "
            "exclude or transform this point")
    return float(setup.value(t @ t, setup.s @ t, sing))


def s_function(rho, mu: float):
    """S(rho) = (mu^{3/2} + rho)^{5/3} - mu^{5/2} - (5/3) mu rho, on a
    number or an array of them (finite and non-negative).

    Non-negative and convex; behaves like (5/9) mu^{-1/2} rho^2 for small
    rho and like rho^{5/3} for large rho.
    """
    rho = np.asarray(rho, dtype=float)
    for v in (rho.min(initial=0.0), rho.max(initial=0.0)):
        check_domain("rho", v, 0.0, strict=False)
    check_domain("mu", mu, 0.0)
    val = np.maximum((mu**1.5 + rho) ** (5.0 / 3.0) - mu**2.5
                     - (5.0 / 3.0) * mu * rho, 0.0)
    return val if val.ndim else float(val)


def fhat_decay(m: float, gamma: float) -> float:
    """sqrt(2m/(m+1)) sqrt(gamma), the decay rate of fhat_infinity in r."""
    return math.sqrt(2.0 * m / (m + 1.0)) * math.sqrt(gamma)


def fhat_infinity(m: float, gamma: float, r):
    """Fourier transform of t -> 1/((1+m)/(2m) t^2 + gamma) at a distance
    |z| = r > 0, or at an array of them:
    sqrt(pi/2) (2m/(1+m)) exp(-fhat_decay(m, gamma) r)/r."""
    check_domain("gamma", gamma, 0.0)
    r = np.asarray(r, dtype=float)
    # the least distance, read without an array-sized temporary
    if r.size and not r.min() > 0:
        raise DomainError(f"distances must be positive, got {r.min()}")
    pref = np.sqrt(np.pi / 2.0) * (2.0 * m / (1.0 + m))
    # the exponential's array first, so that numpy reuses it in place
    return np.exp(-fhat_decay(m, gamma) * r) * pref / r
