"""Constants registry and assembled energy lower bounds.

The registry stores every calibrated constant with its provenance
(enumerated, fitted, measured, paper-fixed, sourced) and the manifest of
the sweep that produced it; the bound calculators are pure arithmetic in
the registry values and a given value of the stability functional
Lambda(m), and emit deterministic reports.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .box_spectra import _lowest_modes, sum_lowest
from .errors import DomainError, PreconditionError, StabilityRegimeError
from .params import ModelParams, SupSearchConfig, check_domain

__all__ = [
    "PROVENANCES", "A_CONST_RULE", "ConstantsRegistry", "BoundReport",
    "weyl_c_t", "enumerate_c_t", "fit_c_l_prime", "sweep_l_gap",
    "n_zero", "mu_star", "bound_unconfined", "bound_confined", "bound_main",
    "check_kappa", "check_fitted_const", "check_n", "choose_ell",
    "kappa_default", "build_registry", "default_registry",
]

PROVENANCES = ("enumerated", "fitted", "measured", "paper-fixed", "sourced")
A_CONST_RULE = "1/(m+2)"
_SCHEMA_VERSION = 1

_REQUIRED = ("c_t", "c_l_prime", "c_l", "c_lambda", "c_eta", "m_star_star")


class ConstantsRegistry:
    """Immutable store of calibrated constants.

    Each entry is a dict with keys value, provenance and manifest; the
    kernel coefficient entry ``a_const`` stores its defining rule instead
    of a number since it depends on the mass ratio.
    """

    def __init__(self, constants: dict, created: str | None = None,
                 schema_version: int = _SCHEMA_VERSION):
        self.schema_version = int(schema_version)
        self.created = created or datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        self.constants = {k: dict(v) for k, v in constants.items()}
        self.validate()

    def validate(self):
        for name in _REQUIRED:
            if name not in self.constants:
                raise PreconditionError(f"registry missing constant {name!r}")
        for name, entry in self.constants.items():
            prov = entry.get("provenance")
            if prov not in PROVENANCES:
                raise PreconditionError(
                    f"constant {name!r} has invalid provenance {prov!r}")
            if name == "a_const":
                if entry.get("rule") != A_CONST_RULE:
                    raise PreconditionError(
                        f"a_const rule must be {A_CONST_RULE!r}")
                continue
            v = entry.get("value")
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise PreconditionError(
                    f"constant {name!r} must be a positive finite number, "
                    f"got {v!r}")
        mss = self.value("m_star_star")
        want = (mss + 1.0) / (2.0 * mss) * self.value("c_l_prime") / self.value("c_t")
        if self.value("c_l") != want:
            raise PreconditionError(
                f"derived constant c_l = {self.value('c_l')!r} does not "
                f"recompute from c_l_prime, c_t and m_star_star ({want!r})")

    def value(self, name: str) -> float:
        try:
            return float(self.constants[name]["value"])
        except KeyError as exc:
            raise PreconditionError(f"registry has no constant {name!r}") from exc

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "created": self.created,
            "constants": self.constants,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ConstantsRegistry":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read registry {path}: {exc}") from exc
        if not (isinstance(doc, dict) and "constants" in doc):
            raise DomainError(f"{path} holds no registry 'constants'")
        return cls(constants=doc["constants"], created=doc.get("created"),
                   schema_version=doc.get("schema_version", _SCHEMA_VERSION))


def default_registry() -> ConstantsRegistry:
    """The calibrated registry shipped with the package."""
    from importlib import resources
    ref = resources.files("impuritybound").joinpath("data/default_registry.json")
    with resources.as_file(ref) as path:
        return ConstantsRegistry.load(path)


# ---------------------------------------------------------------------------
# constant calibrators

def weyl_c_t() -> float:
    """Shell-filling asymptote of the kinetic-energy ratio: the large-N
    limit of the enumerated minimum-energy quotient."""
    return (2.0 * math.pi) ** 2 * 0.6 * (3.0 / (4.0 * math.pi)) ** (2.0 / 3.0) / 2.0


def enumerate_c_t(n_max: int, return_curve: bool = False):
    """Smallest value over 2 < N <= n_max of half the minimal total squared
    momentum of N distinct unit-lattice vectors (including 0), times
    (2 pi)^2, divided by N^{5/3}. Enumeration is certified complete: the
    ball radius strictly exceeds every norm that enters a prefix sum.
    """
    if n_max < 3:
        raise PreconditionError(f"n_max must be >= 3, got {n_max}")
    prefix = np.cumsum(_lowest_modes(n_max - 1, signed=True)[1])
    ns = np.arange(3, n_max + 1)
    ratios = (0.5 * (2.0 * math.pi) ** 2 * prefix[ns - 2]) / ns ** (5.0 / 3.0)
    value = float(ratios.min())
    if return_curve:
        return value, ns, ratios
    return value


def _l_gap_envelope(row) -> float:
    """|L^per - L| * Q_mu^2 * ell^3 of one sweep row."""
    return abs(row["l_per"] - row["l_cont"]) * row["q_mu_sq"] * row["ell"] ** 3


def fit_c_l_prime(rows) -> float:
    """Least envelope constant of |L^per - L| * Q_mu^2 * ell^3 over a sweep.

    Each row needs keys l_per, l_cont, q_mu_sq, ell.
    """
    rows = list(rows)
    if not rows:
        raise PreconditionError("empty sweep")
    return max(max(_l_gap_envelope(r) for r in rows), 1e-300)


def sweep_l_gap(m_values=(0.3, 0.5, 1.0, 3.0, 10.0),
                mu_values=(0.3, 1.0, 3.0),
                ell_values=(0.7, 1.0, 1.9),
                n_k: int = 4, seed: int = 20260823):
    """Sweep of the periodic-minus-continuum diagonal kernel gap over
    masses, spectral shifts, box sides and lattice momenta; rows feed
    fit_c_l_prime."""
    from .kernels import l_continuum
    from .torus_forms import l_periodic

    rng = np.random.default_rng(seed)
    rows = []
    for m in m_values:
        for mu in mu_values:
            for ell in ell_values:
                sp = 2.0 * math.pi / ell
                for _ in range(n_k):
                    k1 = sp * rng.integers(-2, 3, size=3).astype(float)
                    khat = sp * rng.integers(-1, 2, size=(2, 3)).astype(float)
                    khat_sq = float((khat * khat).sum())
                    params = ModelParams(m=m, mu=mu, ell=ell, n=3)
                    kvec = np.vstack([k1, khat])
                    l_per = l_periodic(params, kvec)
                    l_cont = l_continuum(params, k1, khat_sq)
                    rows.append({
                        "m": m, "mu": mu, "ell": ell,
                        "k1": k1.tolist(), "khat_sq": khat_sq,
                        "q_mu_sq": 0.5 * khat_sq + mu,
                        "l_per": l_per, "l_cont": l_cont,
                    })
    return rows


# ---------------------------------------------------------------------------
# bound calculators

@dataclass(frozen=True)
class BoundReport:
    """Deterministic record of a bound evaluation: inputs, registry hash,
    every intermediate value, and the final lower bound."""

    kind: str
    inputs: dict
    registry_hash: str
    intermediates: dict = field(default_factory=dict)
    value: float = 0.0

    def to_json(self) -> str:
        doc = {
            "kind": self.kind, "inputs": self.inputs,
            "registry_hash": self.registry_hash,
            "intermediates": self.intermediates, "value": self.value,
            "version": __version__,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def kappa_default(m: float, registry: ConstantsRegistry,
                  lambda_val: float) -> float:
    """Half-way confinement weight kappa = c_T (1 - Lambda(m)) / 2."""
    check_domain("m", m, 0.0)
    lam = check_domain("lambda_val", lambda_val, 0.0, strict=False)
    if lam >= 1.0:
        raise StabilityRegimeError(
            f"Lambda(m) = {lam} >= 1: no stable kappa exists")
    return registry.value("c_t") * (1.0 - lam) / 2.0


def check_kappa(kappa, c_t):
    """The confinement weight's range: kappa in [0, c_T)."""
    if not 0 <= kappa < c_t:
        raise PreconditionError(
            f"kappa must lie in [0, c_T) = [0, {c_t}), got {kappa}")


def check_fitted_const(fitted_const):
    """The main bound's overall constant: finite and positive."""
    check_domain("fitted_const", fitted_const)
    if not fitted_const > 0:
        raise PreconditionError(
            f"fitted_const must be positive, got {fitted_const}")


def check_n(n):
    """The particle count of the confined and main bounds: n >= 1."""
    if not n >= 1:
        raise PreconditionError(f"n must be >= 1, got {n}")


def _check_cond_kappa(kappa, lam, c_t):
    check_kappa(kappa, c_t)
    if not 1.0 - kappa / c_t > lam:
        raise PreconditionError(
            f"stability condition fails: 1 - kappa/c_T = {1.0 - kappa / c_t} "
            f"is not above Lambda(m) = {lam}")


def n_zero(m: float, kappa: float, registry: ConstantsRegistry,
           lambda_val: float) -> float:
    """Particle-number threshold above which the lattice functional is
    close enough to its continuum limit for the confined bound."""
    check_domain("m", m, 0.0)
    lam = check_domain("lambda_val", lambda_val, 0.0, strict=False)
    c_t = registry.value("c_t")
    _check_cond_kappa(kappa, lam, c_t)
    c_lam = registry.value("c_lambda")
    base = (1.0 - kappa / c_t - lam) * m * (1.0 - kappa / c_t) ** 2 / c_lam
    return base ** (-4.5)


def mu_star(m: float, kappa: float, n: int, ell: float, alpha: float,
            registry: ConstantsRegistry,
            lambda_val: float) -> float:
    """Optimizing spectral shift of the confined bound."""
    check_domain("m", m, 0.0)
    check_domain("ell", ell, 0.0)
    check_domain("alpha", alpha)
    lam = check_domain("lambda_val", lambda_val, 0.0, strict=False)
    c_t = registry.value("c_t")
    _check_cond_kappa(kappa, lam, c_t)
    c_lp = registry.value("c_l_prime")
    c_lam = registry.value("c_lambda")
    one = 1.0 - kappa / c_t
    shift = alpha - (m + 1.0) / (2.0 * m) * c_lp / (c_t - kappa) \
        * n ** (-5.0 / 3.0) / ell
    neg = min(shift, 0.0)
    denom = one - lam - c_lam / (m * one ** 2) * n ** (-2.0 / 9.0)
    if denom <= 0:
        raise PreconditionError(
            f"n = {n} is below the lattice-continuum threshold: effective "
            f"stability margin {denom} is not positive")
    return (-kappa * n ** (5.0 / 3.0) / ell ** 2
            + (m + 1.0) / (2.0 * m) / (4.0 * math.pi ** 4)
            * one ** 2 * neg ** 2 / denom ** 2)


def bound_unconfined(m: float, alpha: float, lambda_val: float) -> float:
    """N-independent lower bound: zero for non-negative coupling, else the
    negative-coupling well depth."""
    check_domain("m", m, 0.0)
    check_domain("alpha", alpha)
    lam = check_domain("lambda_val", lambda_val, 0.0, strict=False)
    if lam >= 1.0:
        raise StabilityRegimeError(
            f"Lambda = {lam} >= 1: outside the stability regime")
    if alpha >= 0.0:
        return 0.0
    return -(m + 1.0) / (2.0 * m) * (
        alpha / (2.0 * math.pi ** 2 * (1.0 - lam))) ** 2


def bound_confined(m: float, kappa: float, n: int, ell: float, alpha: float,
                   registry: ConstantsRegistry,
                   lambda_val: float) -> BoundReport:
    """Lower bound for n fermions plus the impurity in a box of side ell,
    with confinement weight kappa."""
    check_domain("m", m, 0.0)
    check_domain("ell", ell, 0.0)
    check_domain("alpha", alpha)
    check_n(n)
    lam = check_domain("lambda_val", lambda_val, 0.0, strict=False)
    c_t = registry.value("c_t")
    _check_cond_kappa(kappa, lam, c_t)
    nz = n_zero(m, kappa, registry, lambda_val=lam)
    if not n > nz:
        raise PreconditionError(
            f"n = {n} is not above the threshold N_0 = {nz}; use the "
            "unconfined bound in this regime")
    c_l = registry.value("c_l")
    one = 1.0 - kappa / c_t
    neg = min(alpha - c_l / ell, 0.0)
    confine = kappa * n ** (5.0 / 3.0) / ell ** 2
    subtraction = (1.0 / (4.0 * math.pi ** 4)) * (m + 1.0) / (2.0 * m) \
        * neg ** 2 / ((one - lam) ** 2
                      * (1.0 - (nz / n) ** (2.0 / 9.0)) ** 2)
    value = confine - subtraction
    mu_s = mu_star(m, kappa, n, ell, alpha, registry, lambda_val=lam)
    return BoundReport(
        kind="confined",
        inputs={"m": m, "kappa": kappa, "n": n, "ell": ell, "alpha": alpha,
                "lambda_val": lam},
        registry_hash=registry.content_hash(),
        intermediates={
            "lambda_m": lam, "n_zero": nz, "mu_star": mu_s,
            "confinement_term": confine, "subtraction_term": subtraction,
            "alpha_shifted_neg": neg,
        },
        value=value,
    )


def bound_main(m: float, n: int, lbig: float, alpha: float,
               registry: ConstantsRegistry, fitted_const: float,
               lambda_val: float) -> BoundReport:
    """Thermodynamic-shape lower bound: the free Dirichlet energy minus a
    density and coupling correction that is bounded independently of n.

    The overall constant of the correction is not derivable from first
    principles here; it must be supplied (registry provenance "fitted"),
    never invented.
    """
    check_domain("m", m, 0.0)
    check_domain("lbig", lbig, 0.0)
    check_domain("alpha", alpha)
    check_n(n)
    lam = check_domain("lambda_val", lambda_val, 0.0, strict=False)
    if lam >= 1.0:
        raise StabilityRegimeError(
            f"Lambda = {lam} >= 1: outside the stability regime")
    check_fitted_const(fitted_const)
    rho_bar = n / lbig ** 3
    _, e_dirichlet = sum_lowest(lbig, n)
    alpha_neg = min(alpha, 0.0)
    correction = fitted_const * (rho_bar ** (2.0 / 3.0) / (1.0 - lam) ** 4.5
                                 + alpha_neg ** 2 / (1.0 - lam) ** 2)
    return BoundReport(
        kind="main",
        inputs={"m": m, "n": n, "lbig": lbig, "alpha": alpha,
                "fitted_const": fitted_const, "lambda_val": lam},
        registry_hash=registry.content_hash(),
        intermediates={
            "lambda_m": lam, "rho_bar": rho_bar,
            "e_dirichlet": e_dirichlet, "correction": correction,
        },
        value=e_dirichlet - correction,
    )


def choose_ell(n: int, lbig: float) -> float:
    """Cell side for localization: lbig/ell integral and ell matched to the
    mean interparticle distance (ell * rho^{1/3} within a factor 2)."""
    check_domain("n", n, 1, strict=False)
    check_domain("lbig", lbig, 0.0)
    rho13 = (n / lbig ** 3) ** (1.0 / 3.0)
    k_best = max(1, round(lbig * rho13))
    for k in sorted(range(max(1, k_best - 3), k_best + 4),
                    key=lambda k: abs(k - lbig * rho13)):
        ell = lbig / k
        if 0.5 <= ell * rho13 <= 2.0:
            return ell
    raise PreconditionError(
        f"no admissible cell count near {lbig * rho13:.3f} gives "
        "ell * rho^(1/3) within [1/2, 2]")


# ---------------------------------------------------------------------------
# calibration pipeline

def _per_m_spread(rows) -> dict:
    """Per-mass envelope maxima of the sweep rows, recorded so the
    m-dependence of the fitted constant is auditable."""
    out = {}
    for r in rows:
        key = repr(float(r["m"]))
        out[key] = max(out.get(key, 0.0), _l_gap_envelope(r))
    return out


def build_registry(lambda_rows, c_t_nmax: int = 1000) -> ConstantsRegistry:
    """Run the full calibration and assemble a registry with provenance and
    manifests. ``lambda_rows`` is the lattice-vs-continuum functional sweep
    that ``fit_c_lambda`` reads; it is too expensive to run here."""
    from .lambda_functional import critical_mass, fit_c_lambda
    from .localization import PartitionSpec, build_partition

    c_t = enumerate_c_t(c_t_nmax)
    l_rows = sweep_l_gap()
    c_lp = fit_c_l_prime(l_rows)
    m_star_star = critical_mass(SupSearchConfig())
    c_lam = fit_c_lambda(lambda_rows)
    c_eta = build_partition(PartitionSpec(ell=1.0)).c_eta
    c_l = (m_star_star + 1.0) / (2.0 * m_star_star) * c_lp / c_t
    constants = {
        "c_t": {"value": c_t, "provenance": "enumerated",
                "manifest": {"n_max": c_t_nmax}},
        "c_l_prime": {"value": c_lp, "provenance": "fitted",
                      "manifest": {"n_rows": len(l_rows),
                                   "per_m_spread": _per_m_spread(l_rows)}},
        "c_l": {"value": c_l, "provenance": "fitted",
                "manifest": {"derived_from": ["c_l_prime", "c_t",
                                              "m_star_star"]}},
        "c_lambda": {"value": c_lam, "provenance": "fitted",
                     "manifest": {"n_rows": len(list(lambda_rows))}},
        "c_eta": {"value": c_eta, "provenance": "measured",
                  "manifest": {"eps": 0.125, "grid_per_cell": 64}},
        "m_star_star": {"value": m_star_star, "provenance": "measured",
                        "manifest": {"bracket": [0.30, 0.45]}},
        "a_const": {"rule": A_CONST_RULE, "provenance": "sourced",
                    "manifest": {"note": "kernel coefficient as a function "
                                         "of the mass ratio"}},
    }
    return ConstantsRegistry(constants=constants)
