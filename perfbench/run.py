"""Benchmark of the impuritybound toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout. The run measures set-up in fresh interpreters,
runs the workload's warm-up, then runs batches for about S seconds. An
untraced run samples the machine's speed meanwhile (``speed.py``) and
reports its times in reference seconds. It checks every output against
``perfbench/refs.json`` and prints one JSON object as the last line of stdout: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Lines before it give the environment, every named metric and
any flags. A record of the run is written under ``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

SETUP_REPEATS = 7
SETUP_SLICES = 3      # probe slices after each set-up probe
SETUP_TIMEOUT_S = 60

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]

_LEVELS = [f"l{i}" for i in range(5)]
PER_LAYER = (
    [("lambda_functional.lambda_of_m.calls", "count"),
     ("lambda_functional.lambda_of_m.distinct", "count"),
     ("lambda_functional.critical_mass.lambda_evals", "count")]
    + [(f"lambda_functional.quad.calls.{lv}", "count")
       for lv in _LEVELS + ["ball"]]
    + [(f"lambda_functional.quad.busy_s.{lv}", "s")
       for lv in _LEVELS + ["ball"]]
    + [("lambda_functional.quad.points", "count"),
       ("lambda_functional.search.scan_evals", "count"),
       ("lambda_functional.search.refine_evals", "count"),
       ("lambda_functional.search.certify_levels", "count"),
       ("lambda_functional.search.self_s", "s"),
       ("lambda_functional.search.domain_zeroed", "count"),
       ("lambda_functional.lattice_sum.calls", "count"),
       ("lambda_functional.lattice_sum.busy_s", "s"),
       ("lambda_functional.lattice_sum.points", "count"),
       ("lambda_functional.envelope_tail.busy_s", "s"),
       ("lambda_functional.hybrid.calls", "count"),
       ("lambda_functional.hybrid.accuracy_swallowed", "count"),
       ("torus_forms.l_periodic.calls", "count"),
       ("torus_forms.l_periodic.busy_s", "s"),
       ("torus_forms.l_periodic.terms", "count"),
       ("torus_forms.l_periodic.nmax_max", "count"),
       ("torus_forms.t_off.busy_s", "s"),
       ("torus_forms.t_off.pair_visits", "count"),
       ("torus_forms.t_dia.busy_s", "s"),
       ("torus_forms.off_bound.busy_s", "s"),
       ("box_spectra.galerkin.calls", "count"),
       ("box_spectra.galerkin.busy_s", "s"),
       ("box_spectra.eigh.busy_s", "s"),
       ("box_spectra.galerkin.assembly_s", "s"),
       ("box_spectra.thm_a1.busy_s", "s"),
       ("box_spectra.thm_a3.busy_s", "s"),
       ("box_spectra.rho0.busy_s", "s"),
       ("box_spectra.basis_labels.busy_s", "s"),
       ("box_spectra.dirichlet_levels.busy_s", "s"),
       ("cli.import_s", "s"),
       ("cli.emit_s", "s"),
       ("localization.build_partition.busy_s", "s"),
       ("localization.build_v_partition.busy_s", "s"),
       ("bounds.sum_lowest.busy_s", "s"),
       ("bounds.registry_load_s", "s")])

# per-layer counts that must repeat exactly for the same inputs
EXACT_COUNTS = [name for name, unit in PER_LAYER if unit == "count"]

# the workload-specific end-to-end metrics: (name, unit, operation)
NAMED = {
    "stability": [("critical_mass_s", "s", "critical_mass"),
                  ("bound_s", "s", "bound")],
    "lattice": [("lattice_lambda_s", "s", "lambda_tilde")],
    "ensemble": [("ltcheck_seeds_per_s", "1/s", "ltcheck"),
                 ("forms_s", "s", "forms"), ("l_periodic_s", "s", "l_periodic"),
                 ("spectrum_bound_s", "s", "spectrum_bound"),
                 ("partition_s", "s", "partition")],
    "parallel": [("ltcheck_seeds_per_s", "1/s", "ltcheck")],
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

PROBE = """
import json, time
t0 = time.perf_counter()
import impuritybound
from impuritybound import (bounds, box_spectra, cli, errors, kernels,
                           lambda_functional, localization, params,
                           torus_forms)
t1 = time.perf_counter()
bounds.default_registry()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "registry_s": t2 - t1,
                  "file": impuritybound.__file__}), flush=True)
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup():
    """Start-to-ready time of fresh interpreters that import every package
    module and load the default registry, and the probe slices run after
    each of them."""
    import speed
    speed.probe()
    rows = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], env=child_env(),
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited with code {code}")
        row = json.loads(line)
        if pathlib.Path(row["file"]).resolve().parent != SRC / "impuritybound":
            raise RuntimeError(f"set-up probe imported {row['file']}, "
                               f"not the checkout's package")
        rows.append(dict(row, ready_s=ready, slices_s=[
            speed.probe() for _ in range(SETUP_SLICES)]))
    return rows


def environment(nproc):
    import numpy
    import scipy
    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "nproc": nproc, "machine": platform.machine(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_batch(ops, sampler=None):
    """Run one batch; returns (attempted, failed, outputs, times), where
    times holds (name, seconds) of each operation, less the probe slices
    that ran inside it."""
    failed, outputs, times = 0, [], []
    for op in ops:
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            out, bad = op.fn()
        except Exception:
            out, bad = [], ["exception:\n" + traceback.format_exc()]
        dt = time.perf_counter() - t0
        if sampler:
            dt -= sampler.spent - spent
        times.append((op.name, dt))
        outputs.append([op.name, [repr(float(x)) for x in out]])
        if bad:
            failed += 1
            for msg in bad:
                print(f"FAILED {op.name}: {msg}", file=sys.stderr)
    return len(ops), failed, outputs, times


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _read_state(name):
    path = RUNS / name
    return json.loads(path.read_text()) if path.exists() else None


def _write_state(name, doc):
    RUNS.mkdir(exist_ok=True)
    (RUNS / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    import speed
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(
        workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "impuritybound" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'impuritybound'}; run "
              "from the root of an impuritybound checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    nproc = workloads.nproc()
    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))
    setup = measure_setup()

    refs = json.loads((HERE / "refs.json").read_text())
    batch, warm_ops = workloads.WORKLOADS[args.workload](args.seed, refs,
                                                         nproc)
    rec = sampler = None
    if args.trace:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
    elif args.workload not in workloads.POOLED:
        sampler = speed.Sampler()

    # The warm-up (first allocations, lazy set-up) is checked but not timed
    # into run_s; the timed batches then run for --seconds. An untraced run
    # samples the machine's speed throughout them.
    t0 = time.perf_counter()
    attempted, failed, warm_outputs, warm_times = run_batch(warm_ops)
    warm_up_s = time.perf_counter() - t0
    batch_wall, batch_times, batch_outputs, batch_layers = [], [], [], []
    op_times = {}       # seconds per operation, in reference seconds
    try:
        if sampler:
            sampler.start()
        t_run = time.perf_counter()
        while True:
            k = len(batch_outputs)
            mark = len(rec.spans) if rec else 0
            n_slices = len(sampler.slices) if sampler else 0
            spent = sampler.spent if sampler else 0.0
            t0 = time.perf_counter()
            a, f, outputs, times = run_batch(batch(k), sampler)
            dt = time.perf_counter() - t0
            attempted, failed = attempted + a, failed + f
            batch_outputs.append(outputs)
            scale = 1.0
            if sampler:
                dt -= sampler.spent - spent
                scale = speed.factor(sampler.slices[n_slices:]
                                     or [speed.probe()])
            for name, op_s in times:
                op_times.setdefault(name, []).append(op_s * scale)
            batch_wall.append(dt)
            batch_times.append(dt * scale)
            if rec:
                batch_layers.append(
                    tracing.layer_metrics(rec.spans, mark, len(rec.spans)))
            elapsed = time.perf_counter() - t_run
            if elapsed + statistics.median(batch_wall) > args.seconds:
                break
    finally:
        if sampler:
            sampler.stop()
        if rec:
            rec.unwrap()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    e2e = {
        "setup_s": statistics.median(r["ready_s"] for r in setup)
        * speed.factor([x for r in setup for x in r["slices_s"]]),
        "run_s": statistics.median(batch_times),
        "peak_rss_mb": max(own, kids) / 1024.0,
    }
    named = {"error_rate": (failed / attempted, "fraction"),
             "warm_up_s": (warm_up_s, "s"),
             "run_wall_s": (statistics.median(batch_wall), "s")}
    if sampler:
        named["probe_slice_s"] = (statistics.median(sampler.slices), "s")
    for name, unit, op in NAMED[args.workload]:
        t = statistics.median(op_times[op])
        named[name] = ((workloads.LT_COUNT / t, unit) if unit == "1/s"
                       else (t, unit))

    # batch k has the same inputs in every run of this workload and seed
    flags = []
    key = f"{args.workload}-seed{args.seed}"
    digests = [_digest(o) for o in [warm_outputs] + batch_outputs]
    other = _read_state(f"outputs-{key}-trace{1 - args.trace}.json")
    if other and any(a != b for a, b in zip(digests, other)):
        flags.append("checked outputs differ between traced and untraced runs")
    _write_state(f"outputs-{key}-trace{args.trace}.json", digests)

    layers = None
    if rec:
        # counts from the first timed batch, times as medians over batches
        layers = {name: batch_layers[0][name] if name in EXACT_COUNTS
                  else statistics.median(b[name] for b in batch_layers)
                  for name in batch_layers[0]}
        layers["cli.import_s"] = statistics.median(r["import_s"] for r in setup)
        layers["bounds.registry_load_s"] = statistics.median(
            r["registry_s"] for r in setup)
        counts = [{n: b[n] for n in EXACT_COUNTS if n in b}
                  for b in batch_layers]
        prev = _read_state(f"counts-{key}.json")
        if prev is not None:
            moved = sorted({n for a, b in zip(prev, counts) for n in b
                            if a.get(n) != b[n]})
            if moved:
                flags.append("per-layer counts moved since the last traced "
                             f"run of this seed: {', '.join(moved)}")
        _write_state(f"counts-{key}.json", counts)
        serial = _read_state(f"last-ensemble-seed{args.seed}-trace1.json")
        if layers["cli.ltcheck.pool_s"] and serial:
            per_task = (serial["layers"]["cli.ltcheck.task_busy_s"]
                        / serial["layers"]["cli.ltcheck.tasks"])
            layers["cli.ltcheck.parallel_efficiency"] = (
                per_task * layers["cli.ltcheck.pool_tasks"]
                / (layers["cli.ltcheck.pool_jobs"] * layers["cli.ltcheck.pool_s"]))
        untraced = _read_state(f"last-{key}-trace0.json")
        if untraced:
            named["trace_overhead_s"] = (
                statistics.median(batch_wall)
                - untraced["named"]["run_wall_s"], "s")

    for name, (value, unit) in named.items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    for name, value in e2e.items():
        print(f"metric {args.workload} {name} {value!r} "
              f"{dict(END_TO_END)[name]}")
    if layers:
        for name, value in sorted(layers.items()):
            print(f"layer {args.workload} {name} {value!r}")
    for flag in flags:
        print(f"FLAG {flag}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "setup": setup,
        "warm_op_s": dict(warm_times), "batch_s": batch_times,
        "batch_wall_s": batch_wall, "op_s": op_times,
        "probe_slices_s": sampler.slices if sampler else None,
        "attempted": attempted, "failed": failed, "end_to_end": e2e,
        "named": {k: v[0] for k, v in named.items()}, "layers": layers,
        "flags": flags, "time": time.time(),
    }
    _write_state(f"last-{key}-trace{args.trace}.json", record)
    _write_state(f"run-{key}-trace{args.trace}-{time.time_ns()}.json", record)

    if rec:
        metrics = {n: {"value": int(layers[n]) if u == "count"
                       else float(layers[n]), "unit": u}
                   for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
