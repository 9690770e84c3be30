"""A math-based scalar reference for the lane kernel.

cobord2 computes every chart point as a batch of lanes, with numpy's
sqrt, sin, cos, log, arctan2, hypot and cbrt (cobord2._kernel).  Inside
math_kernel() each of those functions is taken from math instead, one
scalar at a time, the cube root as math.pow(x, 1/3).  Everything else a
chart operation does (+ - * /, comparisons, numpy's matmul and SVD) is
the same IEEE operation on a scalar as on a lane, so inside
math_kernel() every lane holds the value that the operation computes on
Python floats through math.  A lane and its reference agree to
rounding: numpy's log, arctan2 and hypot are within 1 ulp of math's, its
cbrt within 2 ulp of math.pow(x, 1/3), and the chart operations carry
those differences forward.

splitmix_stream is SplitMix64 on a Python int, the exact reference for
the uint64 streams of su2.SplitMix64.
"""

from __future__ import annotations

import contextlib
import math
import sys

import numpy as np

from cobord2 import _kernel

_MASK64 = (1 << 64) - 1

# kernel function -> its form on one Python float
MATH = {
    "sqrt": math.sqrt,
    "cos": math.cos,
    "sin": math.sin,
    "log": math.log,
    "atan2": math.atan2,
    "hypot": math.hypot,
    "cbrt": lambda x: math.pow(x, 1.0 / 3.0),
}


def _one_scalar_at_a_time(f):
    """f applied to each element of its broadcast arguments, as an array
    of the broadcast shape."""
    def apply(*args):
        arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
        out = np.fromiter(map(f, *(a.ravel().tolist() for a in arrays)), dtype=float,
                          count=arrays[0].size)
        return out.reshape(arrays[0].shape)
    return apply


@contextlib.contextmanager
def math_kernel():
    """Every cobord2 module's binding of a kernel function of MATH
    replaced by its math form, one scalar at a time, for the duration."""
    patches = []
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("cobord2") and m]
    try:
        for name, f in MATH.items():
            lanewise, scalar = getattr(_kernel, name), _one_scalar_at_a_time(f)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is lanewise:
                        patches.append((mod, key, value))
                        setattr(mod, key, scalar)
        yield
    finally:
        for mod, key, value in reversed(patches):
            setattr(mod, key, value)


def splitmix_stream(seed: int):
    """The 64-bit outputs of SplitMix64 seeded with the int seed."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)
