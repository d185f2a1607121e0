"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json lists exactly the metrics run.py prints;
  * the speed probe fires inside an operation and its time is taken out
    of the operation's time;
  * every reference, when made wrong, fails the operation that checks
    against it, so the run's error rate rises above 0;
  * the ensemble batch passes with the true references;
  * run.py exits non-zero without printing a result in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
Takes about a minute; exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def error_rate(workload, op_name, refs):
    ops = [op for op in workloads.WORKLOADS[workload](1, refs, 1)[0](1)
           if op.name == op_name]
    attempted, failed, _, _ = run.run_batch(ops)
    return failed / attempted


def probe_is_excluded():
    """A 1 s busy operation, interrupted by the probe every 0.1 s."""
    def busy():
        t_end = time.perf_counter() + 1.0
        while time.perf_counter() < t_end:
            pass
        return [], []
    sampler = speed.Sampler(period=0.1)
    sampler.start()
    try:
        _, _, _, times = run.run_batch([workloads.Op("busy", busy)], sampler)
    finally:
        sampler.stop()
    return (len(sampler.slices) >= 5
            and abs(times[0][1] + sampler.spent - 1.0) < 0.05)


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]]
          == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"]) for m in bench["per_layer"]]
          == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    check(probe_is_excluded(),
          "probe slices run inside an operation and are not timed into it")

    refs = json.loads((HERE / "refs.json").read_text())
    check(all(error_rate("ensemble", op.name, refs) == 0.0
              for op in workloads.ensemble(1, refs, 1)[0](1)),
          "ensemble batch passes with the true references")

    wrong = [
        ("ensemble", "l_periodic",
         lambda r: r["l_periodic"][2].update(value=r["l_periodic"][2]["value"]
                                             * (1.0 + 1e-3))),
        ("stability", "bound",
         lambda r: r["lambda_1"].update(value=r["lambda_1"]["value"] * 1.0001)),
        ("stability", "critical_mass",
         lambda r: r["critical_mass"].update(value=0.38)),
        ("lattice", "lambda_tilde",
         lambda r: r["lambda_tilde"].update(
             value=r["lambda_tilde"]["value"] + 5e-4)),
    ]
    for workload, op_name, corrupt in wrong:
        bad = copy.deepcopy(refs)
        corrupt(bad)
        check(error_rate(workload, op_name, bad) > 0.0,
              f"a wrong reference fails {workload}/{op_name}")

    bare = HERE / ".runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py fails without a result where the package source is missing")


if __name__ == "__main__":
    main()
