"""numpy's bundled OpenBLAS, reached through ctypes: numpy itself cannot
say or set how many threads split a product."""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np


@functools.cache
def openblas(suffix: str, restype, *argtypes):
    """numpy's bundled OpenBLAS function ``openblas_<suffix>``, under its
    scipy-openblas, 64-bit or plain name, looked up once; None if there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for name in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}64_",
                     f"openblas_{suffix}"):
            function = getattr(ctypes.CDLL(str(lib)), name, None)
            if function is not None:
                function.restype, function.argtypes = restype, argtypes
                return function
    return None


def set_blas_threads(n: int) -> int:
    """Run OpenBLAS on ``n`` threads; the count it had. OSError if numpy has
    no bundled OpenBLAS to ask."""
    get, put = openblas("get_num_threads", ctypes.c_int), openblas("set_num_threads", None, ctypes.c_int)
    if get is None or put is None:
        raise OSError("numpy has no bundled OpenBLAS")
    old = get()
    put(n)
    return old
