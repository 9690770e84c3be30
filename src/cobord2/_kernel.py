"""Quaternion kernel over floats or over lanes of floats.

Quaternions are 4-tuples (w, x, y, z), su(2) vectors 3-tuples (a, b, c)
of pure-quaternion coefficients.  A component is a Python float (one
point) or an (N,) float64 array (N points, one per lane); the two may
mix in one tuple, a float standing for the same value on every lane.
Every function here has one body for both kinds: sqrt, sin, cos and
lanewise pick math or numpy by the argument, select picks a branch by a
bool or per lane by a boolean array, and the rest is arithmetic.  A
float input never reaches numpy.

Lanes must give the bits a float gives.  numpy's float64 sqrt, sin and
cos agree with math bit for bit (no difference in 2M inputs each on
x86-64 with numpy 2.4), and + - * / are the same IEEE operations; its
log, atan2, pow and hypot do not, so on lanes these go through math, one
call per lane (lanewise).
"""

import math
from itertools import repeat

import numpy as np

# Norm drift stays below 1e-12 if chains renormalize at this cadence.
RENORM_EVERY = 16


def lanewise(fn, *args):
    """fn(*args) for a math function fn: one call on floats, one call
    per lane when an argument is an array (floats broadcast)."""
    for a in args:
        if isinstance(a, np.ndarray):
            break
    else:
        return fn(*args)
    cols = [x.tolist() if isinstance(x, np.ndarray) else repeat(x) for x in args]
    return np.fromiter(map(fn, *cols), dtype=float, count=len(a))


def sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def cos(x):
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def sin(x):
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def select(cond, a, b):
    """a if cond else b for a bool; per lane, np.where, for a boolean
    lane array."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def qmul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def qconj(q):
    return (q[0], -q[1], -q[2], -q[3])


def qnormalize(q):
    w, x, y, z = q
    n = sqrt(w * w + x * x + y * y + z * z)
    return (w / n, x / n, y / n, z / n)


def qexp(v):
    a, b, c = v
    r = sqrt(a * a + b * b + c * c)
    zero = r == 0.0
    safe = select(zero, 1.0, r)
    s = sin(safe) / safe
    return (cos(r),) + tuple(select(zero, 0.0, u * s) for u in (a, b, c))


def qlog(q):
    # Caller guarantees q is not at the w = -1 branch point.
    w, x, y, z = q
    s = sqrt(x * x + y * y + z * z)
    zero = s == 0.0
    safe = select(zero, 1.0, s)
    f = lanewise(math.atan2, safe, w) / safe
    return tuple(select(zero, 0.0, u * f) for u in (x, y, z))


def qrot(g, v):
    t = qmul(g, (0.0, v[0], v[1], v[2]))
    r = qmul(t, qconj(g))
    return (r[1], r[2], r[3])


def qcomm(p, q):
    return qmul(qmul(p, q), qmul(qconj(p), qconj(q)))


def qprod(qs):
    acc = (1.0, 0.0, 0.0, 0.0)
    n = 0
    for q in qs:
        acc = qmul(acc, q)
        n += 1
        if n % RENORM_EVERY == 0:
            acc = qnormalize(acc)
    return acc
