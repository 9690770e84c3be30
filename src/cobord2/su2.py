"""SU(2) as unit quaternions, su(2) as pure-imaginary quaternions.

The exponential map sends the open ball of radius pi injectively into
SU(2) minus {-1}; log_su2 inverts it on that branch and raises
BranchError within BRANCH_EPS of the excluded point.  Sampling is
deterministic: every draw is keyed by a 64-bit seed through a splitmix
stream, so trials are reproducible and splittable by index.

Floats or lanes.  A component of a UnitQuaternion or an AlgVector is a
Python float (one point) or an (N,) float64 array (N points, one per
lane), as in the kernel (cobord2._kernel).  Every function here has
one body for both kinds and gives on each lane the bits it gives on that
lane's floats; on lanes, log, atan2 and the cube root of sample_ball
run through math one lane at a time, because numpy's versions round
differently.  The matrix-valued adjoint_matrices, left_jacobian
and left_jacobian_inv put the lanes on a leading axis, (N, 3, 3) where a
point has (3, 3), and choose their small-angle series per lane; numpy's
matmul and SVD give each matrix of such a stack the bits they give it
alone.  stack_lanes builds that axis.  A seed is a Python int (or numpy
integer scalar, taken as the int it holds) or a uint64 array of per-lane
seeds: mix_seed, SplitMix64, sample_haar and sample_ball then draw the
same integer stream on each lane as on its int, in uint64 arithmetic
(Steele, Lea and Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014).  A branch test on lanes is per lane:
log_su2 (through check_branch) raises if any lane hits the branch, and
the error's ``lanes`` mask names those lanes.  where, any_lane and
largest are the lane forms of a conditional, of a truth test and of max.

exp_su2(v) = cos|v| + sin|v| v/|v| has bracket [u, w] = 2 u x w, so the
left Jacobian of exp here is the SO(3) one (Sola, Deray and Atchuthan,
"A micro Lie theory for state estimation in robotics", arXiv:1812.01537)
evaluated at 2v.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from cobord2 import _kernel
from cobord2._kernel import cos, lanewise, select, sin, sqrt

BRANCH_EPS = 1e-9

_MASK64 = (1 << 64) - 1


class UnitQuaternion(NamedTuple):
    w: float
    x: float
    y: float
    z: float

    def conj(self) -> "UnitQuaternion":
        return UnitQuaternion(self.w, -self.x, -self.y, -self.z)

    inv = conj

    def norm(self) -> float:
        return _norm4(self.w, self.x, self.y, self.z)


class AlgVector(NamedTuple):
    a: float
    b: float
    c: float

    def norm(self) -> float:
        return _norm3(self.a, self.b, self.c)


ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
MINUS_ONE = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
ZERO_VEC = AlgVector(0.0, 0.0, 0.0)


class BranchError(ValueError):
    """Logarithm requested at (or too close to) the excluded point -1.
    On lanes, ``lanes`` is the boolean mask of the lanes that hit it."""

    def __init__(self, message, lanes=None):
        super().__init__(message)
        self.lanes = lanes


def where(cond, a, b):
    """a where cond holds, else b: one choice for a bool, a choice per
    lane, component by component, for a boolean lane array."""
    vals = [select(cond, x, y) for x, y in zip(a, b)]
    return type(a)._make(vals) if hasattr(a, "_make") else tuple(vals)


def any_lane(cond) -> bool:
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def largest(x):
    """The largest lane of x (0.0 for no lanes); x itself for a float."""
    return float(np.max(x, initial=0.0)) if isinstance(x, np.ndarray) else x


def mul(p, q) -> UnitQuaternion:
    return UnitQuaternion(*_kernel.qmul(p, q))


def inv(q) -> UnitQuaternion:
    return UnitQuaternion(q[0], -q[1], -q[2], -q[3])


def product(qs) -> UnitQuaternion:
    """Product of a chain of unit quaternions, renormalizing every 16."""
    return UnitQuaternion(*_kernel.qprod(qs))


def exp_su2(v) -> UnitQuaternion:
    return UnitQuaternion(*_kernel.qexp(v))


def log_su2(q) -> AlgVector:
    check_branch(q[0] <= -1.0 + BRANCH_EPS, "logarithm at the excluded point -1")
    return AlgVector(*_kernel.qlog(q))


def adjoint(g, v) -> AlgVector:
    """Ad_g v = g v g^-1 on pure quaternions."""
    return AlgVector(*_kernel.qrot(g, v))


def commutator(a, b) -> UnitQuaternion:
    """a b a^-1 b^-1."""
    return UnitQuaternion(*_kernel.qcomm(a, b))


def stack_lanes(values) -> np.ndarray:
    """values (floats, or lane arrays and floats) as one array: shape
    (n,) for floats, (N, n) when any value has lanes, a float then
    standing for the same value on every lane."""
    for v in values:
        if isinstance(v, np.ndarray):
            return np.stack(np.broadcast_arrays(*values), axis=-1)
    return np.array(values, dtype=float)


def adjoint_matrices(qs) -> np.ndarray:
    """Ad_q as 3x3 rotation matrices, one per unit quaternion of qs,
    stacked to shape (n, 3, 3); (N, n, 3, 3) when the quaternions have
    lanes."""
    q = stack_lanes([c for qi in qs for c in qi])
    q = q.reshape(q.shape[:-1] + (len(qs), 4))
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(w.shape + (3, 3))
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def _hat2(v):
    """([2v]x, |2v|): the bracket matrix of v and its angle; on lanes a
    stack of matrices and an array of angles."""
    a, b, c = 2.0 * v[0], 2.0 * v[1], 2.0 * v[2]
    t = sqrt(a * a + b * b + c * c)
    k = np.zeros(np.shape(t) + (3, 3))
    k[..., 0, 1], k[..., 0, 2], k[..., 1, 2] = -c, b, -a
    k[..., 1, 0], k[..., 2, 0], k[..., 2, 1] = c, -b, a
    return k, t


def _per_lane(t, series, closed):
    """series(t) where t < 1e-4, else closed(t), as a (1, 1) array for a
    float or an (N, 1, 1) array that scales a stack of matrices lane by
    lane."""
    small = t < 1e-4
    return np.expand_dims(select(small, series(t), closed(select(small, 1.0, t))), (-2, -1))


def left_jacobian(v) -> np.ndarray:
    """J_l(v), with exp_su2(v + d) = exp_su2(J_l(v) d) exp_su2(v) to first
    order in d: I + (1 - cos t)/t^2 K + (t - sin t)/t^3 K^2, K = [2v]x,
    t = 2|v|."""
    k, t = _hat2(v)
    b = _per_lane(t, lambda t: 0.5 - t * t / 24.0, lambda t: (1.0 - cos(t)) / (t * t))
    c = _per_lane(t, lambda t: 1.0 / 6.0 - t * t / 120.0,
                  lambda t: (t - sin(t)) / (t * t * t))
    return np.eye(3) + b * k + c * (k @ k)


def left_jacobian_inv(v) -> np.ndarray:
    """J_l(v)^-1 for |v| < pi, so that log_su2(exp_su2(d) q) =
    log_su2(q) + J_l(log_su2(q))^-1 d to first order:
    I - K/2 + (1/t^2 - cot(t/2)/(2t)) K^2."""
    k, t = _hat2(v)
    e = _per_lane(t, lambda t: 1.0 / 12.0 + t * t / 720.0,
                  lambda t: 1.0 / (t * t) - cos(t / 2) / (2.0 * t * sin(t / 2)))
    return np.eye(3) - 0.5 * k + e * (k @ k)


def near_minus_one(q, eps: float = BRANCH_EPS) -> bool:
    return q[0] <= -1.0 + eps


def check_branch(bad, message: str):
    """Raise BranchError(message) if bad holds, on any lane of a batch;
    the error then carries bad as its lanes mask."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise BranchError("%s on %d lanes" % (message, np.count_nonzero(bad)), bad)
    elif bad:
        raise BranchError(message)


def vec_neg(v) -> AlgVector:
    return AlgVector(-v[0], -v[1], -v[2])


def vec_scale(v, t: float) -> AlgVector:
    return AlgVector(v[0] * t, v[1] * t, v[2] * t)


def _norm3(a, b, c):
    return sqrt(a * a + b * b + c * c)


def _norm4(w, x, y, z):
    return sqrt(w * w + x * x + y * y + z * z)


def vec_dist(u, v) -> float:
    return _norm3(u[0] - v[0], u[1] - v[1], u[2] - v[2])


def quat_dist(p, q) -> float:
    return _norm4(p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3])


# --- deterministic sampling ------------------------------------------------


def _u64(x):
    """x as 64-bit seed material: an int (or numpy integer scalar, as the
    int it holds) reduced mod 2**64, an array of lanes cast to uint64 (a
    negative int64 wraps the same way)."""
    if type(x) is int:
        return x & _MASK64
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=False)
    return operator.index(x) & _MASK64


def _mix(x):
    # no augmented assignment: on lanes that would write into the caller's array
    x = x ^ (x >> 30)
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x = x ^ (x >> 27)
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(seed, *indices):
    """Fold trial indices into a seed; fixed 64-bit mix, order-sensitive.
    The seed or any index may be a uint64 array of lanes."""
    x = _u64(seed)
    for k in indices:
        x = _mix(x ^ ((_u64(k) * 0x9E3779B97F4A7C15) & _MASK64))
    return x


def seed_lanes(seeds) -> np.ndarray:
    """Per-trial seeds (a uint64 array or any iterable of ints) as a
    uint64 array of lanes."""
    if isinstance(seeds, np.ndarray):
        return seeds.astype(np.uint64, copy=False)
    return np.fromiter(seeds, dtype=np.uint64)


class SplitMix64:
    """Tiny deterministic PRNG; identical output on every platform.  A
    uint64 seed array runs one stream per lane."""

    def __init__(self, seed):
        self._state = _u64(seed)

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        return _mix(self._state)

    def uniform(self):
        # 53-bit mantissa in [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def gauss_pair(self):
        u1 = 1.0 - self.uniform()  # (0, 1]
        u2 = self.uniform()
        r = sqrt(-2.0 * lanewise(math.log, u1))
        return (r * cos(2.0 * math.pi * u2), r * sin(2.0 * math.pi * u2))


def sample_haar(seed) -> UnitQuaternion:
    """Haar-uniform SU(2) element: normalized 4-dimensional Gaussian.
    A lane whose Gaussian is too short draws again from its own stream."""
    rng = SplitMix64(seed)
    out, todo = None, True
    while any_lane(todo):
        g1, g2 = rng.gauss_pair()
        g3, g4 = rng.gauss_pair()
        n = sqrt(g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4)
        short = n <= 1e-12
        n = select(short, 1.0, n)
        q = UnitQuaternion(g1 / n, g2 / n, g3 / n, g4 / n)
        # every lane still drawing takes q; a short q is drawn over next round
        out = q if out is None else where(todo, q, out)
        todo = todo & short
    return out


def sample_ball(radius: float, seed) -> AlgVector:
    """Uniform direction, radius density proportional to r^2 on [0, radius)."""
    if not 0.0 < radius <= math.pi:
        raise ValueError("radius must lie in (0, pi]")
    rng = SplitMix64(seed)
    z = 2.0 * rng.uniform() - 1.0
    phi = 2.0 * math.pi * rng.uniform()
    u = rng.uniform()
    r = radius * lanewise(math.pow, u, 1.0 / 3.0)
    s = sqrt(1.0 - z * z)  # z in [-1, 1), so z * z <= 1 after rounding too
    return AlgVector(r * s * cos(phi), r * s * sin(phi), r * z)
