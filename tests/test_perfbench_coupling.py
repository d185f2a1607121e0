"""The traced benchmark in ``perfbench/`` wraps private package names and
builds the search config of its ``stability`` workload from field names.
This checks that coupling in the fast suite, so a rename fails here rather
than only in a traced benchmark run. The perfbench files are loaded by path
and not edited."""

import importlib.util
import pathlib

import numpy as np

from impuritybound import lambda_functional as lf
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
