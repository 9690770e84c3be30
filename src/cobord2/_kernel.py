"""Quaternion kernel over lanes of floats.

Quaternions are 4-tuples (w, x, y, z), su(2) vectors 3-tuples (a, b, c)
of pure-quaternion coefficients.  A component is an (N,) float64 array,
one point per lane, or an (n, N) stack of n such values; a float in a
tuple stands for the same value on every lane (the identity, say).  sqrt, sin, cos, log,
atan2, hypot and cbrt are numpy's, select is np.where, and the rest is
arithmetic.

numpy computes each element of these functions on its own, so a lane
has the bits of its input run as a one-lane batch.  numpy's sqrt, sin
and cos match math bit for bit on x86-64 with numpy 2.4, and + - * /
are the same IEEE operations; its log, arctan2 and hypot are within
1 ulp of math's, and its cbrt within 2 ulp of math.pow(x, 1/3) (1M
inputs each, AVX-512 dispatch).

The constant identity.  qmul and qrot do not multiply by the identity
written as four floats, 1 and three zeros of either sign (su2.ONE, its
inverse (1.0, -0.0, -0.0, -0.0), qprod's start): qmul returns the other
operand's components, the operand's own arrays rather than copies, as
qconj returns q's real part.  On nonzero components that is the product
bit for bit.  A zero component keeps its sign, where the computed
product would add a zero of the other sign and round -0.0 to +0.0:
ONE * (-0.0, x, y, z) is (-0.0, x, y, z), not (+0.0, x, y, z).
"""

import numpy as np

# Norm drift stays below 1e-12 if chains renormalize at this cadence.
RENORM_EVERY = 16

sqrt = np.sqrt
cos = np.cos
sin = np.sin
log = np.log
atan2 = np.arctan2
hypot = np.hypot
cbrt = np.cbrt
select = np.where  # select(cond, a, b): a where the lane's cond holds, else b


def _one(w, x, y, z) -> bool:
    """Whether (w, x, y, z) is the constant identity: four floats, 1 and
    three zeros."""
    return (type(w) is float and w == 1.0 and type(x) is float and x == 0.0
            and type(y) is float and y == 0.0 and type(z) is float and z == 0.0)


def qmul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    if _one(pw, px, py, pz):
        return (qw, qx, qy, qz)
    if _one(qw, qx, qy, qz):
        return (pw, px, py, pz)
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
    f = atan2(safe, w) / safe
    return tuple(select(zero, 0.0, u * f) for u in (x, y, z))


def qrot(g, v):
    # the vector part of qmul(qmul(g, (0, v)), qconj(g)): its real part is 0
    if _one(*g):
        return (v[0], v[1], v[2])
    tw, tx, ty, tz = qmul(g, (0.0, v[0], v[1], v[2]))
    cw, cx, cy, cz = qconj(g)
    return (
        tw * cx + tx * cw + ty * cz - tz * cy,
        tw * cy - tx * cz + ty * cw + tz * cx,
        tw * cz + tx * cy - ty * cx + tz * cw,
    )


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
