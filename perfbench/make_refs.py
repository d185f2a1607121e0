"""Write ``refs.json``, the references the benchmark checks outputs against.

Every reference comes from a computation independent of the routine the
benchmark times, and records where it came from. Run from the repository
root:

    python3 perfbench/make_refs.py

Only the ``l_periodic`` entries are computed here (from the brute-force
mollified oracle ``l_periodic_richardson``, not from the Poisson-summed
``l_periodic`` that the ensemble workload times); the others are copied
from the sources named in their ``source`` field.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

L_PERIODIC_POINTS = [dict(m=1.0, ell=1.0, k=[0.0, 0.0, 0.0], mu=mu)
                     for mu in (0.5, 0.3, 0.2)]


def main():
    import numpy as np

    from impuritybound import __version__
    from impuritybound.params import ModelParams
    from impuritybound.torus_forms import Mollifier, l_periodic_richardson

    sweep = json.loads((HERE.parent / "src/impuritybound/data/"
                        "lambda_tilde_sweep.json").read_text())
    row = next(r for r in sweep if r["m"] == 3.0 and r["n"] == 100)
    refs = {
        "lambda_1": {
            "value": 0.3409053, "rel_tol": 1e-5,
            "source": "Lambda(1) of the closed-form azimuthal (2D) scheme, "
                      "0.34090523, and the frozen continuum value "
                      "0.34090530; the tolerance admits both"},
        "critical_mass": {
            "value": 0.358,
            "source": "critical mass ratio m** ~ 0.358 from the default "
                      "search; checked to within the run's --m-tol"},
        "lambda_tilde": {
            "m": row["m"], "n": row["n"], "ell": 1.0, "kappa": row["kappa"],
            "c_t": row["c_t"], "value": row["value"], "abs_tol": 1e-4,
            "quad_tol": 1e-4, "delta_factors": [1.0],
            "source": "frozen row m=3, n=100 of the lattice-functional "
                      "sweep (acceptance criterion 7, abs 1e-4)"},
        "l_periodic": [],
    }
    tau = Mollifier()
    for pt in L_PERIODIC_POINTS:
        params = ModelParams(m=pt["m"], mu=pt["mu"], ell=pt["ell"], n=1)
        value = l_periodic_richardson(params, np.asarray([pt["k"]]), tau)
        refs["l_periodic"].append(dict(pt, value=value, rel_tol=1e-4, source=(
            "l_periodic_richardson (brute-force mollified lattice sum, "
            f"Mollifier(shape={tau.shape}), r_lo=14, r_hi=20), "
            f"impuritybound {__version__}")))
    (HERE / "refs.json").write_text(json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
