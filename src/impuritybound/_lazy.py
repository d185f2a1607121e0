"""Deferred import of the scipy submodules the package calls.

Importing ``scipy.linalg``, ``scipy.fft``, ``scipy.integrate`` and
``scipy.optimize`` takes about half a second (2-core x86-64, scipy 1.17),
and commands such as ``spectrum`` or ``bound --lambda-val`` never call
them.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``, imported on its first attribute access.

    The modules that call scipy bind the result to module-level names
    (``_sci_linalg``, ``_sci_fft``, ``_sci_integrate``, ``_sci_optimize``)
    rather than importing inside each function, so every call site reads
    ``_sci_linalg.eigh`` as before and code outside the package (the traced
    benchmark) can wrap a scipy function by replacing that one name. A
    module that is already imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
