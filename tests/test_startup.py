"""Start-up cost: importing the package, loading the default registry and
running the commands that never call scipy must leave the deferred scipy
submodules unexecuted. Checked in a fresh interpreter, since the test
session itself has long since imported them."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, importlib, io, json, pkgutil, sys
import impuritybound
from impuritybound import bounds, cli

for info in pkgutil.iter_modules(impuritybound.__path__):
    importlib.import_module(f"impuritybound.{info.name}")
bounds.default_registry()

# scipy submodule -> (package modules binding it, a function it defines)
DEFERRED = {
    "scipy.linalg": ("_sci_linalg", ["box_spectra"], "eigh"),
    "scipy.fft": ("_sci_fft", ["box_spectra", "localization"], "dctn"),
    "scipy.integrate": ("_sci_integrate",
                        ["lambda_functional", "torus_forms"], "quad"),
    "scipy.optimize": ("_sci_optimize", ["lambda_functional"], "minimize"),
}


def state():
    # read each module's namespace without the attribute access that
    # would run a deferred import
    return {
        "absent": [name for name in ("scipy.sparse", "scipy.special")
                   if name not in sys.modules],
        "executed": [name for name, (_, _, fn) in DEFERRED.items()
                     if name in sys.modules and fn in
                     object.__getattribute__(sys.modules[name], "__dict__")],
    }


out = {"imported": state()}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["spectrum"]),
             cli.main(["bound", "--m", "1", "--alpha", "-1",
                       "--lambda-val", "0.3409"])]
out["commands"] = dict(state(), codes=codes)
same = []
for name, (attr, holders, fn) in DEFERRED.items():
    for holder in holders:
        module = sys.modules[f"impuritybound.{holder}"]
        getattr(getattr(module, attr), fn)
        same.append(getattr(module, attr) is importlib.import_module(name))
out["after_use"] = dict(state(), same=same)
print(json.dumps(out))
"""


def test_scipy_submodules_load_on_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    unexecuted = {"absent": ["scipy.sparse", "scipy.special"],
                  "executed": []}
    assert out["imported"] == unexecuted
    assert out["commands"] == dict(unexecuted, codes=[0, 0])
    after = out["after_use"]
    assert after["executed"] == ["scipy.linalg", "scipy.fft",
                                 "scipy.integrate", "scipy.optimize"]
    assert after["same"] == [True] * 6
