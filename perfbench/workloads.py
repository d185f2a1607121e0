"""Workload definitions: inputs from the seed, one batch of operations,
and the correctness check of every operation against ``refs.json``.

A batch is a list of operations run one after the other in the driver
process (a closed loop with one client). Each operation returns its checked
outputs and a list of failed checks; an exception also fails it.

Each workload returns ``(batch, warm_up)``: ``batch(k)`` gives the
operations of batch k, and ``warm_up`` the operations that run once, checked
but untimed, before the timed batches. No two batches of a run share an
input: the seeded inputs are drawn per batch, and
the fixed ones move by ``k * SHIFT``, far below every check's tolerance. A
cache that lives across batches therefore cannot turn later batches into
lookups, while repeats inside one batch (the bound's second Lambda query)
stay exact repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

LT_ARGS = ["--n", "30", "--basis", "512"]
LT_COUNT = 8
SHIFT = 1e-9

# Reduced search used by the stability workload. At the default
# SupSearchConfig one Lambda(m) takes about 30 s, so one `bound` without
# --lambda-val (two searches) would not fit a run. This grid still brackets
# the maximum (psi = pi is a grid angle) and reproduces Lambda(1) to 1e-8.
STABILITY_CFG = dict(n_magnitude=4, n_angle=3, n_starts=1,
                     refine_maxiter=80, m_tol=0.015)
CRIT_BRACKET = (0.35, 0.37)
BOUND_ARGS = dict(m=1.0, n=1000, ell=1.0, alpha=-1.0)

FORMS_N = (3, 4, 5)
FORMS_LAMBDA = 0.3409053025539931      # criterion 6 inputs
FORMS_LAMBDA_TILDE = 0.34089922625764607
PARTITION_ELLS = (0.5, 1.0, 2.0)


class Op:
    """One operation of a batch: a name and a callable returning
    (outputs, failures)."""

    def __init__(self, name, fn):
        self.name, self.fn = name, fn


def _cli(argv):
    """Run ``impuritybound`` in-process; returns (exit code, JSON doc)."""
    from impuritybound import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    return code, (json.loads(text) if code == 0 and text.strip() else None)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _hand_confined(reg, m, kappa, n, ell, alpha, lam):
    """Criterion 11's hand arithmetic for the confined bound."""
    c_t, c_l, c_lam = (reg.value(k) for k in ("c_t", "c_l", "c_lambda"))
    one = 1.0 - kappa / c_t
    nz = ((one - lam) * m * one ** 2 / c_lam) ** (-4.5)
    neg = min(alpha - c_l / ell, 0.0)
    confine = kappa * n ** (5.0 / 3.0) / ell ** 2
    sub = (1.0 / (4.0 * math.pi ** 4)) * (m + 1.0) / (2.0 * m) \
        * neg ** 2 / ((one - lam) ** 2 * (1.0 - (nz / n) ** (2.0 / 9.0)) ** 2)
    return confine - sub


def _hand_main(m, n, lbig, alpha, const, lam):
    """Criterion 11's hand arithmetic for the main bound."""
    from impuritybound import box_spectra
    rho = n / lbig ** 3
    e_d = box_spectra.sum_lowest(lbig, n)[1]
    corr = const * (rho ** (2.0 / 3.0) / (1.0 - lam) ** 4.5
                    + min(alpha, 0.0) ** 2 / (1.0 - lam) ** 2)
    return e_d - corr


# ---------------------------------------------------------------------------
# stability

def stability(seed, refs, jobs):
    from impuritybound import bounds as bd
    from impuritybound import lambda_functional as lf
    from impuritybound.params import SupSearchConfig

    cfg = SupSearchConfig(**STABILITY_CFG)
    reg = bd.default_registry()
    lam_ref = refs["lambda_1"]

    def batch(k):
        shift = k * SHIFT
        return [Op("critical_mass", lambda: critical(shift)),
                Op("bound", lambda: bound(shift))]

    def warm_up():
        # one search at the bracket's lower end, whose ladder reaches the
        # top level as the critical mass does; critical_mass requires
        # Lambda(lo) > 1 there
        lo = CRIT_BRACKET[0] - SHIFT
        lam = lf.lambda_of_m(lo, cfg).value
        return [lam], [] if lam > 1.0 else [f"Lambda({lo}) = {lam} <= 1"]

    def critical(shift):
        root = lf.critical_mass(cfg, bracket=(CRIT_BRACKET[0] + shift,
                                              CRIT_BRACKET[1] + shift))
        ref = refs["critical_mass"]["value"]
        bad = [] if abs(root - ref) <= cfg.m_tol else [
            f"critical mass {root} not within m_tol={cfg.m_tol} of {ref}"]
        return [root], bad

    def bound(shift):
        # the query sequence of `bound --kind confined` without --lambda-val:
        # kappa_default asks for Lambda(m), then bound_confined asks again
        a = dict(BOUND_ARGS, m=BOUND_ARGS["m"] + shift)
        lam_k = lf.lambda_of_m(a["m"], cfg).value
        kappa = bd.kappa_default(a["m"], reg, lambda_val=lam_k)
        lam_b = lf.lambda_of_m(a["m"], cfg).value
        rep = bd.bound_confined(a["m"], kappa, a["n"], a["ell"], a["alpha"],
                                reg, lambda_val=lam_b)
        bad = [f"Lambda(1) = {lam} off {lam_ref['value']} by more than "
               f"rel {lam_ref['rel_tol']}" for lam in (lam_k, lam_b)
               if _rel(lam, lam_ref["value"]) > lam_ref["rel_tol"]]
        if kappa != reg.value("c_t") * (1.0 - lam_k) / 2.0:
            bad.append(f"kappa {kappa} differs from c_T (1 - Lambda) / 2")
        hand = _hand_confined(reg, a["m"], kappa, a["n"], a["ell"],
                              a["alpha"], lam_b)
        if rep.value != hand:
            bad.append(f"bound {rep.value} differs from hand value {hand}")
        return [lam_k, lam_b, kappa, rep.value], bad

    return batch, [Op("warm_up", warm_up)]


# ---------------------------------------------------------------------------
# lattice

def lattice(seed, refs, jobs):
    from impuritybound import lambda_functional as lf
    from impuritybound.params import SupSearchConfig

    row = refs["lambda_tilde"]

    def batch(k):
        return [Op("lambda_tilde", lambda: lam_tilde(row["kappa"] + k * SHIFT))]

    def lam_tilde(kappa):
        res = lf.lambda_tilde(row["m"], kappa, row["n"], row["ell"],
                              cfg=SupSearchConfig(quad_tol=row["quad_tol"]),
                              c_t=row["c_t"],
                              delta_factors=tuple(row["delta_factors"]))
        bad = [] if abs(res.value - row["value"]) <= row["abs_tol"] else [
            f"lambda_tilde {res.value} off the frozen row {row['value']} "
            f"by more than {row['abs_tol']}"]
        return [res.value], bad

    # At the seed commit the first lambda_tilde of a process is no slower
    # than later ones (19.9 s against 21.0 s), so a warm-up would only
    # spend 20 s of every run.
    return batch, []


# ---------------------------------------------------------------------------
# ensemble and parallel

def _seeds(seed, k):
    """Inputs the package receives in batch k, derived from the seed."""
    rng = np.random.default_rng([seed, k])
    return {
        "ltcheck": int(rng.integers(0, 2**31)),
        "forms": [int(s) for s in rng.integers(0, 2**31, size=len(FORMS_N))],
        "sweep": int(rng.integers(0, 2**31)),
    }


def _ltcheck_op(seed, count, jobs):
    def run():
        code, doc = _cli(["ltcheck", "--count", str(count), "--jobs",
                          str(jobs), "--seed", str(seed)] + LT_ARGS)
        if doc is None:
            return [], [f"ltcheck exit code {code}"]
        bad = []
        if len(doc["results"]) != count:
            bad.append(f"ltcheck returned {len(doc['results'])} of {count}")
        out = []
        for r in doc["results"]:
            out += [r["gap"], r["gap_ratio"], r["trace_lhs"]]
            if not r["squared_trace_ok"]:
                bad.append(f"seed {r['seed']}: squared-trace check failed")
            if not r["gap"] >= 0.0:
                bad.append(f"seed {r['seed']}: gap {r['gap']} < 0")
            if not r["gap_ratio"] < 5.0:
                bad.append(f"seed {r['seed']}: gap ratio {r['gap_ratio']} >= 5")
        return out, bad
    return run


def ensemble(seed, refs, jobs):
    from impuritybound import bounds as bd
    from impuritybound import localization as loc
    from impuritybound import torus_forms as tf
    from impuritybound.params import ModelParams

    reg = bd.default_registry()
    main_hand = _hand_main(m=1.0, n=100000, lbig=40.0, alpha=-1.0, const=2.0,
                           lam=0.3409)

    def batch(k):
        seeds = _seeds(seed, k)
        return [Op("ltcheck", _ltcheck_op(seeds["ltcheck"], LT_COUNT, 1)),
                Op("forms", lambda: forms(seeds["forms"])),
                Op("l_periodic", lambda: l_periodic(k * SHIFT, seeds["sweep"])),
                Op("spectrum_bound", spectrum_bound),
                Op("partition", partitions)]

    def forms(form_seeds):
        lam = FORMS_LAMBDA
        kappa = bd.kappa_default(1.0, reg, lambda_val=lam)
        c_t = reg.value("c_t")
        out, bad = [], []
        for n, s in zip(FORMS_N, form_seeds):
            mu = bd.mu_star(1.0, kappa, n, 1.0, -1.0, reg, lambda_val=lam)
            params = ModelParams(m=1.0, alpha=-1.0, mu=mu, n=n, ell=1.0)
            xi = tf.random_fermionic_amplitude(n, 1.0, seed=s)
            br = tf.t_alpha_per(xi, params)
            lhs, rhs = tf.off_bound_check(xi, params, FORMS_LAMBDA_TILDE,
                                          kappa, c_t)
            out += [br.total, lhs, rhs]
            if br.total < -1e-10 * max(xi.norm_sq(), 1.0):
                bad.append(f"n={n} seed={s}: form {br.total} is negative")
            if not lhs >= rhs:
                bad.append(f"n={n} seed={s}: off-diagonal {lhs} < bound {rhs}")
        return out, bad

    def l_periodic(shift, sweep_seed):
        out, bad = [], []
        for ref in refs["l_periodic"]:
            params = ModelParams(m=ref["m"], mu=ref["mu"] + shift,
                                 ell=ref["ell"], n=1)
            val = tf.l_periodic(params, np.zeros((1, 3)))
            out.append(val)
            if _rel(val, ref["value"]) > ref["rel_tol"]:
                bad.append(f"l_periodic(mu={ref['mu']}) = {val} off the "
                           f"Richardson reference {ref['value']}")
        rows = bd.sweep_l_gap(seed=sweep_seed)
        c_env = bd.fit_c_l_prime(rows)
        out.append(c_env)
        if len(rows) != 180 or not 0.0 < c_env < 50.0:
            bad.append(f"sweep_l_gap: {len(rows)} rows, envelope {c_env}")
        return out, bad

    def spectrum_bound():
        bad = []
        lbig = 3.14159
        code, spec = _cli(["spectrum", "--lbig", str(lbig), "--count", "12"])
        if spec is None:
            return [], [f"spectrum exit code {code}"]
        lowest = spec["levels"][0]["value"]
        if _rel(lowest, 3.0 * math.pi ** 2 / lbig ** 2) > 1e-15:
            bad.append(f"lowest Dirichlet level {lowest} is not 3 pi^2/L^2")
        mults = [lv["multiplicity"] for lv in spec["levels"][:5]]
        if mults != [1, 3, 3, 3, 1]:
            bad.append(f"degeneracy pattern {mults} is not [1, 3, 3, 3, 1]")
        code, doc = _cli(["bound", "--kind", "main", "--m", "1", "--n",
                          "100000", "--lbig", "40", "--alpha", "-1",
                          "--lambda-val", "0.3409", "--const", "2"])
        if doc is None:
            return [lowest], bad + [f"bound --kind main exit code {code}"]
        if doc["value"] != main_hand:
            bad.append(f"main bound {doc['value']} differs from hand value "
                       f"{main_hand}")
        return [lowest, spec["sum_full"], doc["value"]], bad

    def partitions():
        out, bad = [], []
        base = v_base = None
        for ell in PARTITION_ELLS:
            spec = loc.PartitionSpec(ell=ell)
            part = loc.build_partition(spec)
            vp = loc.build_v_partition(spec)
            res = part.partition_residual()
            out += [part.c_eta, vp["w_max_ell2"], vp["supp_w_ell3"], res]
            if not res < 1e-12:
                bad.append(f"ell={ell}: partition residual {res}")
            if ell == 1.0:
                base, v_base = part, vp
        for ell, c, w, s in zip(PARTITION_ELLS, out[0::4], out[1::4],
                                out[2::4]):
            if (_rel(c, base.c_eta) > 0.01
                    or _rel(w, v_base["w_max_ell2"]) > 0.01
                    or _rel(s, v_base["supp_w_ell3"]) > 0.01):
                bad.append(f"ell={ell}: localization constants not scale "
                           "invariant to 1%")
        return out, bad

    # batch 0 warms up; the timed batches are 1, 2, ...
    return lambda k: batch(k + 1), batch(0)


def parallel(seed, refs, jobs):
    def batch(k):
        return [Op("ltcheck", _ltcheck_op(_seeds(seed, k)["ltcheck"],
                                          LT_COUNT, jobs))]
    return lambda k: batch(k + 1), batch(0)


WORKLOADS = {"stability": stability, "lattice": lattice,
             "ensemble": ensemble, "parallel": parallel}

# Workloads whose work runs in pool workers, not in the driver process. The
# speed probe would compete with the workers there and measure them, not
# the machine, so their runs are not rescaled.
POOLED = {"parallel"}


def nproc():
    return len(os.sched_getaffinity(0))
