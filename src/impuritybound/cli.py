"""Command-line front end.

Subcommands wrap the library calculators: ``lambda`` and ``critical-mass``
for the stability functional, ``calibrate`` for the constants registry,
``bound`` for the assembled lower bounds, ``ltcheck`` for the trace
inequality suites, and ``spectrum`` for Dirichlet-box levels. Every run
prints a JSON document and writes a manifest (inputs, seed, registry hash,
tool version) next to its output.

Exit codes: 0 success, 2 usage or domain error, 3 precondition violation,
4 accuracy or search failure, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import __version__
from .errors import (AccuracyError, DomainError, NumericError,
                     PreconditionError, SearchError)
from .params import SupSearchConfig, check_domain

EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_ACCURACY = 4
EXIT_NUMERIC = 5


def _load_config(path: str) -> dict:
    """Flat key=value configuration file; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(pathlib.Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _emit(args, name: str, payload: dict, registry_hash: str | None = None):
    """Print the payload and drop it plus a manifest in the output dir."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out is None:
        return
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.json").write_text(text + "\n")
    manifest = {
        "command": name,
        "inputs": {k: v for k, v in vars(args).items()
                   if k not in ("func", "config") and v is not None},
        "seed": getattr(args, "seed", None),
        "registry_hash": registry_hash,
        "version": __version__,
    }
    (out / f"{name}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")


def _search_config(args) -> SupSearchConfig:
    kw = {}
    if getattr(args, "tol", None) is not None:
        kw["quad_tol"] = args.tol
    if getattr(args, "m_tol", None) is not None:
        kw["m_tol"] = args.m_tol
    return SupSearchConfig(**kw)


# ---------------------------------------------------------------------------
# subcommands

def cmd_lambda(args):
    from .lambda_functional import lambda_of_m
    res = lambda_of_m(args.m, _search_config(args))
    _emit(args, "lambda", {
        "m": args.m, "value": res.value, "argmax": res.argmax,
        "err_quad": res.err_quad, "err_search": res.err_search,
    })


def cmd_critical_mass(args):
    from .lambda_functional import critical_mass
    value = critical_mass(_search_config(args), bracket=(args.lo, args.hi))
    _emit(args, "critical_mass", {
        "value": value, "bracket": [args.lo, args.hi], "tol": args.m_tol,
    })


def cmd_calibrate(args):
    from .bounds import build_registry
    if args.sweep == "default":
        from importlib import resources
        ref = resources.files("impuritybound").joinpath(
            "data/lambda_tilde_sweep.json")
        lambda_rows = json.loads(ref.read_text())
    else:
        lambda_rows = json.loads(pathlib.Path(args.sweep).read_text())
    reg = build_registry(lambda_rows, c_t_nmax=args.ct_nmax)
    dest = pathlib.Path(args.write)
    dest.parent.mkdir(parents=True, exist_ok=True)
    reg.save(dest)
    _emit(args, "calibrate", {
        "registry_path": str(dest), "registry_hash": reg.content_hash(),
        "constants": {k: v.get("value", v.get("rule"))
                      for k, v in reg.constants.items()},
    }, registry_hash=reg.content_hash())


# the bound flags that only some kinds read: (those kinds, their default)
_KIND_FLAGS = {"n": (("confined", "main"), 1000), "ell": (("confined",), 1.0),
               "kappa": (("confined",), None), "lbig": (("main",), None),
               "const": (("main",), None)}


def cmd_bound(args):
    from .bounds import (ConstantsRegistry, bound_confined, bound_main,
                         bound_unconfined, check_fitted_const, check_kappa,
                         check_n, default_registry, kappa_default)
    for dest, (kinds, default) in _KIND_FLAGS.items():
        if args.kind not in kinds:
            if getattr(args, dest) is not None:
                raise DomainError(f"--{dest} is not read by --kind {args.kind}")
        elif getattr(args, dest) is None:
            setattr(args, dest, default)
    reg = (ConstantsRegistry.load(args.registry) if args.registry
           else default_registry())
    if args.kind == "main" and (args.lbig is None or args.const is None):
        raise DomainError("--kind main requires --lbig and --const")
    # the calculator's own checks of the flags its kind reads, so that a
    # bad flag exits before any Lambda(m) search
    check_domain("m", args.m, 0.0)
    check_domain("alpha", args.alpha)
    if args.kind != "unconfined":
        check_n(args.n)
    if args.kind == "confined":
        check_domain("ell", args.ell, 0.0)
        if args.kappa is not None:
            check_kappa(args.kappa, reg.value("c_t"))
    elif args.kind == "main":
        from .box_spectra import check_mode_count
        check_domain("lbig", args.lbig, 0.0)
        check_fitted_const(args.const)
        check_mode_count(args.n)
    lam = args.lambda_val
    if lam is None and args.kind != "unconfined":
        from .lambda_functional import lambda_of_m
        lam = lambda_of_m(args.m, SupSearchConfig()).value
    if args.kind == "confined":
        kappa = args.kappa
        if kappa is None:
            kappa = kappa_default(args.m, reg, lambda_val=lam)
        report = bound_confined(args.m, kappa, args.n, args.ell, args.alpha,
                                reg, lambda_val=lam)
    elif args.kind == "main":
        report = bound_main(args.m, args.n, args.lbig, args.alpha, reg,
                            args.const, lambda_val=lam)
    else:
        if args.lambda_val is None:
            raise DomainError("--kind unconfined requires --lambda-val")
        value = bound_unconfined(args.m, args.alpha, args.lambda_val)
        _emit(args, "bound", {"kind": "unconfined", "value": value,
                              "m": args.m, "alpha": args.alpha},
              registry_hash=reg.content_hash())
        return
    _emit(args, "bound", json.loads(report.to_json()),
          registry_hash=reg.content_hash())


def _ltcheck_one(task):
    from .box_spectra import (galerkin_spectrum, lt_gap_check,
                              random_admissible_q, random_smooth_potential,
                              thm_a1_check, thm_a3_check)
    seed, n, mu, lbig, depth, grid, basis = task
    v = random_smooth_potential(lbig, seed=seed, depth=depth, n_grid=grid)
    vals = galerkin_spectrum(v, basis)
    gap, rhs, ratio = lt_gap_check(v, n, vals)
    a3_lhs, a3_rhs = thm_a3_check(v, mu, vals)
    q = random_admissible_q(lbig, mu, seed=seed)
    a1 = thm_a1_check(q)
    return {
        "seed": seed, "gap": gap, "gap_rhs": rhs, "gap_ratio": ratio,
        "shift_lhs": a3_lhs, "shift_rhs": a3_rhs,
        "trace_lhs": a1["lhs"], "trace_rhs": a1["rhs_integral"],
        "squared_trace": a1["lemma_lhs"],
        "squared_trace_ok": a1["lemma_lhs"] <= a1["lhs"] + 1e-10,
    }


def cmd_ltcheck(args):
    # the integer flags, checked before any task runs
    for flag, low in (("count", 1), ("jobs", 1), ("n", 1), ("basis", args.n)):
        if getattr(args, flag) < low:
            raise PreconditionError(
                f"--{flag} must be >= {low}, got {getattr(args, flag)}")
    check_domain("seed", args.seed, 0.0, strict=False)
    tasks = [(args.seed + i, args.n, args.mu, args.lbig, args.depth,
              args.grid, args.basis) for i in range(args.count)]
    if args.jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            results = list(pool.map(_ltcheck_one, tasks))
    else:
        results = [_ltcheck_one(t) for t in tasks]
    _emit(args, "ltcheck", {
        "count": args.count, "results": results,
        "all_squared_trace_ok": all(r["squared_trace_ok"] for r in results),
        "max_gap_ratio": max(r["gap_ratio"] for r in results),
    })


def cmd_spectrum(args):
    from .box_spectra import dirichlet_levels, sum_lowest
    spec = dirichlet_levels(args.lbig, args.count)
    full, half = sum_lowest(args.lbig, args.count)
    _emit(args, "spectrum", {
        "lbig": args.lbig, "count": args.count,
        "levels": [{"value": v, "multiplicity": mult, "triple": list(t)}
                   for v, mult, t in spec.levels],
        "sum_full": full, "sum_half": half,
    })


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="impuritybound",
        description="Stability functional, trace inequalities and energy "
                    "lower bounds for an impurity in a Fermi gas.")
    p.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value configuration file; "
                                         "command-line flags win")
    common.add_argument("--out", help="output directory for JSON + manifest")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lambda", parents=[common],
                        help="evaluate the stability functional")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--tol", type=float)
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("critical-mass", parents=[common],
                        help="locate the critical mass ratio")
    sp.add_argument("--lo", type=float, default=0.30)
    sp.add_argument("--hi", type=float, default=0.45)
    sp.add_argument("--m-tol", type=float, default=1e-3)
    sp.add_argument("--tol", type=float)
    sp.set_defaults(func=cmd_critical_mass)

    sp = sub.add_parser("calibrate", parents=[common],
                        help="run the constants calibration pipeline")
    sp.add_argument("--sweep", default="default",
                    help="'default' or a path to lattice-functional sweep rows")
    sp.add_argument("--ct-nmax", type=int, default=1000)
    sp.add_argument("--write", default="registry.json",
                    help="where to write the calibrated registry")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("bound", parents=[common],
                        help="evaluate an energy lower bound")
    sp.add_argument("--kind", choices=("confined", "main", "unconfined"),
                    default="confined")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--n", type=int,
                    help="confined and main only; default 1000")
    sp.add_argument("--ell", type=float,
                    help="confined only; default 1.0")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--kappa", type=float, help="confined only")
    sp.add_argument("--lbig", type=float, help="main only")
    sp.add_argument("--const", type=float,
                    help="fitted overall constant; main only")
    sp.add_argument("--lambda-val", type=float,
                    help="reuse a precomputed functional value")
    sp.add_argument("--registry", help="path to a constants registry")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("ltcheck", parents=[common],
                        help="run the trace-inequality check suites")
    sp.add_argument("--seed", type=int, default=20260823,
                    help="ensemble seed (64-bit integer)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes")
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--mu", type=float, default=12.0)
    sp.add_argument("--lbig", type=float, default=2.0)
    sp.add_argument("--depth", type=float, default=2.0)
    sp.add_argument("--grid", type=int, default=48)
    sp.add_argument("--basis", type=int, default=256)
    sp.set_defaults(func=cmd_ltcheck)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="enumerate Dirichlet-box levels")
    sp.add_argument("--lbig", type=float, default=1.0)
    sp.add_argument("--count", type=int, default=20)
    sp.set_defaults(func=cmd_spectrum)
    return p


def _apply_config(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """Parse argv; with ``--config``, parse it again with the file's values
    as the subcommand's defaults. argparse then converts each value with its
    flag's ``type`` (a bad value exits 2), flags on the command line still
    win, and a required flag may come from the file instead.

    The first parse waives the subcommands' required flags so that the file
    is read before they are checked. Without ``--config`` it is the only
    parse, unless a required flag is missing: then the second parse, with
    the flags required again, reports it as a usage error."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    required = [a for sp in sub.choices.values() for a in sp._actions
                if a.required]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    # the destinations this subcommand accepts
    valid = set(vars(args)) - {"func", "command"}
    unknown = [k for k in cfg if k not in valid]
    if unknown:
        raise DomainError(
            f"unknown configuration keys: {', '.join(sorted(unknown))}")
    sub.choices[args.command].set_defaults(**cfg)
    for action in required:
        action.required = action.dest not in cfg
    chosen = sub.choices[args.command]._actions
    if cfg or any(a.required and getattr(args, a.dest) is None
                  for a in chosen):
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else argv)
        args.func(args)
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (AccuracyError, SearchError) as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
