"""Span recorder for the traced benchmark run.

The recorder wraps package functions from outside the package: it replaces
module attributes that the package looks up at call time, so no source file
changes and an untraced run executes the original functions. Each call of a
wrapped function becomes one span (name, start, end, parent, tags, error).
Spans stay in memory; ``layer_metrics`` reduces the spans of one batch to
the per-layer metrics.
"""

from __future__ import annotations

import functools
import time

# one row of ``Recorder.spans``
NAME, START, END, PARENT, TAGS, ERROR = range(6)


class _Proxy:
    """Stand-in for a module with one attribute replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, module, attr, name, tags=None):
        """Replace ``module.attr`` by a wrapper that records a span.

        ``tags(args, kwargs, result)`` returns a dict stored on the span;
        ``result`` is None when the call raised.
        """
        orig = getattr(module, attr)
        setattr(module, attr, self._wrapper(orig, name, tags))
        self._patches.append((module, attr, orig))

    def wrap_in_proxy(self, module, attr, inner, name):
        """Replace the module object ``module.attr`` by a proxy whose
        ``inner`` function records spans; other users of that module
        object are left alone."""
        target = getattr(module, attr)
        proxy = _Proxy(target, **{inner: self._wrapper(
            getattr(target, inner), name, None)})
        setattr(module, attr, proxy)
        self._patches.append((module, attr, target))

    def _wrapper(self, orig, name, tags):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if tags is not None:
                    span[TAGS] = tags(args, kwargs, result)
        return wrapper

    def unwrap(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def install(rec: Recorder):
    """Wrap the stages the per-layer metrics are built from."""
    from impuritybound import (bounds, box_spectra, cli, lambda_functional,
                               localization, torus_forms)

    lf = lambda_functional
    levels = {lv: i for i, lv in enumerate(lf._LEVELS)}

    def quad_tags(args, kwargs, result):
        res = tuple(_arg(args, kwargs, 9 + i, k) for i, k in
                    enumerate(("nr", "nth", "nphi")))
        return {"level": levels.get(res, -1),
                "ball": _arg(args, kwargs, 12, "r_hi") is not None,
                "points": res[0] * res[1] * res[2]}

    def lambda_tags(args, kwargs, result):
        return {"key": repr((_arg(args, kwargs, 0, "m"),
                             _arg(args, kwargs, 1, "cfg")))}

    def lattice_tags(args, kwargs, result):
        return {"points": 0 if result is None else result.n_points}

    def l_periodic_tags(args, kwargs, result):
        if result is None:
            return {"terms": 0, "nmax": 0}
        return {"terms": result[1]["n_terms"], "nmax": result[1]["nmax"]}

    def t_off_tags(args, kwargs, result):
        xi = _arg(args, kwargs, 0, "xi")
        return {"pair_visits": xi.n * (xi.n - 1) * len(xi.support) ** 2}

    def ltcheck_tags(args, kwargs, result):
        return {"jobs": args[0].jobs, "count": args[0].count}

    rec.wrap(lf, "_lam_quad_fixed", "quad", quad_tags)
    rec.wrap(lf, "integrate_lambda", "integrate_lambda")
    rec.wrap(lf, "lambda_of_m", "lambda_of_m", lambda_tags)
    rec.wrap(lf, "critical_mass", "critical_mass")
    rec.wrap(lf, "lattice_lambda_sum", "lattice_sum", lattice_tags)
    rec.wrap(lf, "_hybrid_lattice_sum", "hybrid")
    rec.wrap(lf, "_envelope_tail", "envelope_tail")
    rec.wrap(torus_forms, "_l_periodic_impl", "l_periodic", l_periodic_tags)
    rec.wrap(torus_forms, "t_off_per_complex", "t_off", t_off_tags)
    rec.wrap(torus_forms, "t_dia_per", "t_dia")
    rec.wrap(torus_forms, "off_bound_check", "off_bound")
    rec.wrap(box_spectra, "galerkin_spectrum", "galerkin")
    rec.wrap_in_proxy(box_spectra, "_sci_linalg", "eigh", "eigh")
    for fn in ("thm_a1_check", "thm_a3_check", "rho0", "basis_labels",
               "dirichlet_levels"):
        rec.wrap(box_spectra, fn, fn.replace("_check", ""))
    rec.wrap(localization, "build_partition", "build_partition")
    rec.wrap(localization, "build_v_partition", "build_v_partition")
    rec.wrap(bounds, "sum_lowest", "sum_lowest")
    rec.wrap(cli, "cmd_ltcheck", "ltcheck", ltcheck_tags)
    rec.wrap(cli, "_ltcheck_one", "ltcheck_task")
    rec.wrap(cli, "_emit", "emit")


def layer_metrics(spans, lo, hi):
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one batch)."""
    batch = spans[lo:hi]
    dur = [s[END] - s[START] for s in batch]
    child = [0.0] * len(batch)
    for i, s in enumerate(batch):
        if s[PARENT] >= lo:
            child[s[PARENT] - lo] += dur[i]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    def outermost(i):
        # a span nested in a span of its own name is already counted
        name, p = batch[i][NAME], batch[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return False
            p = spans[p][PARENT]
        return True

    def busy(name):
        return sum(dur[i] for i, s in enumerate(batch)
                   if s[NAME] == name and outermost(i))

    def calls(name):
        return sum(1 for s in batch if s[NAME] == name)

    def tag_sum(name, key):
        return sum(s[TAGS][key] for s in batch if s[NAME] == name)

    m = {}
    quads = [(i, s) for i, s in enumerate(batch) if s[NAME] == "quad"]
    for lv in range(5):
        sel = [i for i, s in quads if s[TAGS]["level"] == lv
               and not s[TAGS]["ball"]]
        m[f"lambda_functional.quad.calls.l{lv}"] = len(sel)
        m[f"lambda_functional.quad.busy_s.l{lv}"] = sum(dur[i] for i in sel)
    ball = [i for i, s in quads if s[TAGS]["ball"]]
    m["lambda_functional.quad.calls.ball"] = len(ball)
    m["lambda_functional.quad.busy_s.ball"] = sum(dur[i] for i in ball)
    m["lambda_functional.quad.points"] = sum(s[TAGS]["points"] for _, s in quads)

    lams = [s for s in batch if s[NAME] == "lambda_of_m"]
    m["lambda_functional.lambda_of_m.calls"] = len(lams)
    m["lambda_functional.lambda_of_m.distinct"] = len(
        {s[TAGS]["key"] for s in lams})
    m["lambda_functional.critical_mass.lambda_evals"] = sum(
        1 for s in lams if parent_name(s) == "critical_mass")
    in_search = [s for _, s in quads if parent_name(s) == "lambda_of_m"]
    m["lambda_functional.search.scan_evals"] = sum(
        1 for s in in_search if s[TAGS]["level"] == 0)
    m["lambda_functional.search.refine_evals"] = sum(
        1 for s in in_search if s[TAGS]["level"] == 1)
    m["lambda_functional.search.certify_levels"] = sum(
        1 for _, s in quads if parent_name(s) == "integrate_lambda"
        and parent_name(spans[s[PARENT]]) == "lambda_of_m")
    m["lambda_functional.search.self_s"] = sum(
        dur[i] - child[i] for i, s in enumerate(batch)
        if s[NAME] == "lambda_of_m")
    m["lambda_functional.search.domain_zeroed"] = sum(
        1 for s in in_search if s[ERROR] == "DomainError")

    m["lambda_functional.lattice_sum.calls"] = calls("lattice_sum")
    m["lambda_functional.lattice_sum.busy_s"] = busy("lattice_sum")
    m["lambda_functional.lattice_sum.points"] = tag_sum("lattice_sum", "points")
    m["lambda_functional.envelope_tail.busy_s"] = busy("envelope_tail")
    m["lambda_functional.hybrid.calls"] = calls("hybrid")
    m["lambda_functional.hybrid.accuracy_swallowed"] = sum(
        1 for s in batch if s[NAME] == "hybrid" and s[ERROR] == "AccuracyError")

    m["torus_forms.l_periodic.calls"] = calls("l_periodic")
    m["torus_forms.l_periodic.busy_s"] = busy("l_periodic")
    m["torus_forms.l_periodic.terms"] = tag_sum("l_periodic", "terms")
    m["torus_forms.l_periodic.nmax_max"] = max(
        [s[TAGS]["nmax"] for s in batch if s[NAME] == "l_periodic"],
        default=0)
    m["torus_forms.t_off.busy_s"] = busy("t_off")
    m["torus_forms.t_off.pair_visits"] = tag_sum("t_off", "pair_visits")
    m["torus_forms.t_dia.busy_s"] = busy("t_dia")
    m["torus_forms.off_bound.busy_s"] = busy("off_bound")

    galerkin = busy("galerkin")
    eigh = sum(dur[i] for i, s in enumerate(batch)
               if s[NAME] == "eigh" and parent_name(s) == "galerkin")
    m["box_spectra.galerkin.calls"] = calls("galerkin")
    m["box_spectra.galerkin.busy_s"] = galerkin
    m["box_spectra.eigh.busy_s"] = eigh
    m["box_spectra.galerkin.assembly_s"] = galerkin - eigh
    for fn in ("thm_a1", "thm_a3", "rho0", "basis_labels", "dirichlet_levels"):
        m[f"box_spectra.{fn}.busy_s"] = busy(fn)

    pooled = [(i, s) for i, s in enumerate(batch)
              if s[NAME] == "ltcheck" and s[TAGS]["jobs"] > 1]
    emit_in = {s[PARENT] - lo: dur[j] for j, s in enumerate(batch)
               if s[NAME] == "emit" and s[PARENT] >= lo}
    m["cli.ltcheck.pool_s"] = sum(dur[i] - emit_in.get(i, 0.0)
                                  for i, _ in pooled)
    m["cli.ltcheck.pool_jobs"] = max((s[TAGS]["jobs"] for _, s in pooled),
                                     default=0)
    m["cli.ltcheck.pool_tasks"] = sum(s[TAGS]["count"] for _, s in pooled)
    m["cli.ltcheck.task_busy_s"] = busy("ltcheck_task")
    m["cli.ltcheck.tasks"] = calls("ltcheck_task")
    m["cli.emit_s"] = busy("emit")

    m["localization.build_partition.busy_s"] = busy("build_partition")
    m["localization.build_v_partition.busy_s"] = busy("build_v_partition")
    m["bounds.sum_lowest.busy_s"] = busy("sum_lowest")
    return m
