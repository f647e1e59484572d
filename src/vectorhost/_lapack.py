"""The LAPACK and BLAS kernels the solvers call, scipy.linalg.lapack's and .blas's, without
scipy.linalg's costly package __init__: scipy's private extension modules _flapack and _fblas,
loaded by file path from <scipy>/linalg/<name><suffix> under their own names, or through
scipy.linalg when that file is not found or cannot be loaded (renamed modules break both paths)."""

import importlib.machinery
import importlib.util
import os
import sys


def _load(name: str):
    """scipy.linalg.<name>: the module loaded already, else its extension file."""
    full = "scipy.linalg." + name
    if full not in sys.modules:
        base = importlib.util.find_spec("scipy").submodule_search_locations[0]
        paths = (os.path.join(base, "linalg", name + s) for s in importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.util.spec_from_file_location(full, next(filter(os.path.isfile, paths)))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module   # registered only once loaded, so a failure leaves none
    return sys.modules[full]


try:
    _flapack, _fblas = _load("_flapack"), _load("_fblas")
except (ImportError, OSError, AttributeError, StopIteration):  # not found, or not loadable
    from scipy.linalg import _fblas, _flapack

dgtsv, dgttrf, dgttrs = _flapack.dgtsv, _flapack.dgttrf, _flapack.dgttrs
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
ddot, dgbmv = _fblas.ddot, _fblas.dgbmv
