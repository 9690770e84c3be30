"""SU(2) as unit quaternions, su(2) as pure-imaginary quaternions.

The exponential map sends the open ball of radius pi injectively into
SU(2) minus {-1}; log_su2 inverts it on that branch and raises
BranchError within BRANCH_EPS of the excluded point.  Sampling is
deterministic: every draw is keyed by a 64-bit seed through a splitmix
stream, so trials are reproducible and splittable by index.

exp_su2(v) = cos|v| + sin|v| v/|v| has bracket [u, w] = 2 u x w, so the
left Jacobian of exp here is the SO(3) one (Sola, Deray and Atchuthan,
"A micro Lie theory for state estimation in robotics", arXiv:1812.01537)
evaluated at 2v.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cobord2 import _kernel

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
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)


class AlgVector(NamedTuple):
    a: float
    b: float
    c: float

    def norm(self) -> float:
        return math.sqrt(self.a ** 2 + self.b ** 2 + self.c ** 2)


ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
MINUS_ONE = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
ZERO_VEC = AlgVector(0.0, 0.0, 0.0)


class BranchError(ValueError):
    """Logarithm requested at (or too close to) the excluded point -1."""


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
    if q[0] <= -1.0 + BRANCH_EPS:
        raise BranchError("logarithm at the excluded point -1 (w=%r)" % (q[0],))
    return AlgVector(*_kernel.qlog(q))


def adjoint(g, v) -> AlgVector:
    """Ad_g v = g v g^-1 on pure quaternions."""
    return AlgVector(*_kernel.qrot(g, v))


def commutator(a, b) -> UnitQuaternion:
    """a b a^-1 b^-1."""
    return UnitQuaternion(*_kernel.qcomm(a, b))


def adjoint_matrices(qs) -> np.ndarray:
    """Ad_q as 3x3 rotation matrices, one per unit quaternion of qs,
    stacked to shape (n, 3, 3)."""
    q = np.asarray(qs, dtype=float).reshape(-1, 4)
    w, x, y, z = q.T
    out = np.empty((len(q), 3, 3))
    out[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[:, 0, 1] = 2.0 * (x * y - w * z)
    out[:, 0, 2] = 2.0 * (x * z + w * y)
    out[:, 1, 0] = 2.0 * (x * y + w * z)
    out[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[:, 1, 2] = 2.0 * (y * z - w * x)
    out[:, 2, 0] = 2.0 * (x * z - w * y)
    out[:, 2, 1] = 2.0 * (y * z + w * x)
    out[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def _hat2(v):
    """([2v]x, |2v|): the bracket matrix of v and its angle."""
    a, b, c = 2.0 * v[0], 2.0 * v[1], 2.0 * v[2]
    return np.array([[0.0, -c, b], [c, 0.0, -a], [-b, a, 0.0]]), math.sqrt(a * a + b * b + c * c)


def left_jacobian(v) -> np.ndarray:
    """J_l(v), with exp_su2(v + d) = exp_su2(J_l(v) d) exp_su2(v) to first
    order in d: I + (1 - cos t)/t^2 K + (t - sin t)/t^3 K^2, K = [2v]x,
    t = 2|v|."""
    k, t = _hat2(v)
    if t < 1e-4:
        b, c = 0.5 - t * t / 24.0, 1.0 / 6.0 - t * t / 120.0
    else:
        b, c = (1.0 - math.cos(t)) / (t * t), (t - math.sin(t)) / (t * t * t)
    return np.eye(3) + b * k + c * (k @ k)


def left_jacobian_inv(v) -> np.ndarray:
    """J_l(v)^-1 for |v| < pi, so that log_su2(exp_su2(d) q) =
    log_su2(q) + J_l(log_su2(q))^-1 d to first order:
    I - K/2 + (1/t^2 - cot(t/2)/(2t)) K^2."""
    k, t = _hat2(v)
    if t < 1e-4:
        e = 1.0 / 12.0 + t * t / 720.0
    else:
        e = 1.0 / (t * t) - math.cos(t / 2) / (2.0 * t * math.sin(t / 2))
    return np.eye(3) - 0.5 * k + e * (k @ k)


def near_minus_one(q, eps: float = BRANCH_EPS) -> bool:
    return q[0] <= -1.0 + eps


def vec_neg(v) -> AlgVector:
    return AlgVector(-v[0], -v[1], -v[2])


def vec_scale(v, t: float) -> AlgVector:
    return AlgVector(v[0] * t, v[1] * t, v[2] * t)


def vec_dist(u, v) -> float:
    return math.sqrt((u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 + (u[2] - v[2]) ** 2)


def quat_dist(p, q) -> float:
    return math.sqrt(
        (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2 + (p[3] - q[3]) ** 2
    )


# --- deterministic sampling ------------------------------------------------


def _mix(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def mix_seed(seed: int, *indices: int) -> int:
    """Fold trial indices into a seed; fixed 64-bit mix, order-sensitive."""
    x = seed & _MASK64
    for k in indices:
        x = _mix(x ^ ((k * 0x9E3779B97F4A7C15) & _MASK64))
    return x


class SplitMix64:
    """Tiny deterministic PRNG; identical output on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        # 53-bit mantissa in [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def gauss_pair(self):
        u1 = 1.0 - self.uniform()  # (0, 1]
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return (r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2))


def sample_haar(seed: int) -> UnitQuaternion:
    """Haar-uniform SU(2) element: normalized 4-dimensional Gaussian."""
    rng = SplitMix64(seed)
    while True:
        g1, g2 = rng.gauss_pair()
        g3, g4 = rng.gauss_pair()
        n = math.sqrt(g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4)
        if n > 1e-12:
            return UnitQuaternion(g1 / n, g2 / n, g3 / n, g4 / n)


def sample_ball(radius: float, seed: int) -> AlgVector:
    """Uniform direction, radius density proportional to r^2 on [0, radius)."""
    if not 0.0 < radius <= math.pi:
        raise ValueError("radius must lie in (0, pi]")
    rng = SplitMix64(seed)
    z = 2.0 * rng.uniform() - 1.0
    phi = 2.0 * math.pi * rng.uniform()
    r = radius * rng.uniform() ** (1.0 / 3.0)
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return AlgVector(r * s * math.cos(phi), r * s * math.sin(phi), r * z)
