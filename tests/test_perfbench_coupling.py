"""The traced benchmark in ``perfbench/`` wraps private package names,
builds the search config of its ``stability`` workload from field names,
runs CLI commands and calls library functions with keywords. This checks
that coupling in the fast suite, so a rename or a removed flag or keyword
fails here rather than only in a benchmark run. The perfbench files are
loaded by path and not edited."""

import importlib.util
import inspect
import pathlib

import numpy as np

from impuritybound import bounds as bd
from impuritybound import cli
from impuritybound import lambda_functional as lf
from impuritybound import localization as loc
from impuritybound import torus_forms as tf
from impuritybound.params import ModelParams, SupSearchConfig

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracing_reads_package_names():
    tracing, workloads = _load("tracing"), _load("workloads")
    SupSearchConfig(**workloads.STABILITY_CFG)
    rec = tracing.Recorder()
    try:
        tracing.install(rec)
        lf._lam_quad_fixed(1.0, 1.0 / 3.0, 1.0, 1.0, np.pi, 1.0, 0.0, 1,
                           1.0, *lf._LEVELS[0])
        tf.l_periodic(ModelParams(m=1.0, mu=1.0, ell=1.0, n=2),
                      np.array([[0.5, 0.0, 0.0], [0.0, 0.3, 0.0]]))
    finally:
        rec.unwrap()
    spans = {s[tracing.NAME]: s for s in rec.spans}
    quad = spans["quad"][tracing.TAGS]
    assert quad == {"level": 0, "ball": False, "points": 48 * 28 * 28}
    l_per = spans["l_periodic"][tracing.TAGS]
    assert set(l_per) == {"terms", "nmax"}
    assert l_per["terms"] > 0 and l_per["nmax"] > 0
    assert all(s[tracing.ERROR] is None for s in rec.spans)


def test_perfbench_cli_argv_parses():
    workloads = _load("workloads")
    sent = []

    def record(argv):
        sent.append(argv)
        # enough of a document for the operation to reach its next command
        return 0, {"results": [], "levels": [{"value": 1.0,
                                              "multiplicity": 1}],
                   "sum_full": 1.0, "value": 1.0}

    workloads._cli = record
    workloads._ltcheck_op(5, workloads.LT_COUNT, 1)()
    _, warm_up = workloads.ensemble(5, {}, 1)
    next(op for op in warm_up if op.name == "spectrum_bound").fn()
    assert [argv[0] for argv in sent] == ["ltcheck", "spectrum", "bound"]
    parser = cli.build_parser()
    for argv in sent:
        parser.parse_args(argv)


# (callable, positional count, keywords) of the workloads' library calls
WORKLOAD_CALLS = [
    (lf.lambda_of_m, 2, ()),
    (lf.critical_mass, 1, ("bracket",)),
    (lf.lambda_tilde, 4, ("cfg", "c_t", "delta_factors")),
    (SupSearchConfig, 0, ("quad_tol",)),
    (bd.kappa_default, 2, ("lambda_val",)),
    (bd.mu_star, 6, ("lambda_val",)),
    (bd.bound_confined, 6, ("lambda_val",)),
    (bd.sweep_l_gap, 0, ("seed",)),
    (bd.fit_c_l_prime, 1, ()),
    (ModelParams, 0, ("m", "alpha", "mu", "n", "ell")),
    (tf.random_fermionic_amplitude, 2, ("seed",)),
    (tf.t_alpha_per, 2, ()),
    (tf.off_bound_check, 5, ()),
    (tf.l_periodic, 2, ()),
    (loc.PartitionSpec, 0, ("ell",)),
    (loc.build_partition, 1, ()),
    (loc.build_v_partition, 1, ()),
    (loc.LatticePartition.partition_residual, 1, ()),
]


def test_perfbench_keywords_bind():
    for fn, n_pos, keywords in WORKLOAD_CALLS:
        inspect.signature(fn).bind(*[None] * n_pos, **dict.fromkeys(keywords))
