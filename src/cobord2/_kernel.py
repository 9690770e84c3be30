"""Scalar quaternion kernel.

Quaternions are 4-tuples (w, x, y, z), su(2) vectors 3-tuples (a, b, c)
of pure-quaternion coefficients.
"""

import math

# Norm drift stays below 1e-12 if chains renormalize at this cadence.
RENORM_EVERY = 16


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
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / n, x / n, y / n, z / n)


def qexp(v):
    a, b, c = v
    r = math.sqrt(a * a + b * b + c * c)
    if r == 0.0:
        return (1.0, 0.0, 0.0, 0.0)
    s = math.sin(r) / r
    return (math.cos(r), a * s, b * s, c * s)


def qlog(q):
    # Caller guarantees q is not at the w = -1 branch point.
    w, x, y, z = q
    s = math.sqrt(x * x + y * y + z * z)
    if s == 0.0:
        return (0.0, 0.0, 0.0)
    f = math.atan2(s, w) / s
    return (x * f, y * f, z * f)


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
