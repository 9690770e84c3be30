"""Numerical holonomy charts for moduli of flat SU(2) connections on a
surface with boundary.

A connected surface of genus g with k >= 1 labeled boundary circles is
charted by tuples

    (theta_2 .. theta_k, Gamma_2 .. Gamma_k, A_1, B_1 .. A_g, B_g)

with theta_i in the open ball of radius pi, Gamma_i and A_j, B_j unit
quaternions.  theta_i is the boundary value at circle i, Gamma_i the
holonomy of an arc from the basepoint (on circle 1) to circle i, and
A_j, B_j the handle holonomies.  Writing c_i = Gamma_i e^{theta_i}
Gamma_i^{-1}, the first boundary value is determined by

    e^{theta_1} c_2 ... c_k [A_1,B_1] ... [A_g,B_g] = 1,

and a tuple is admissible when the product after e^{theta_1} stays away
from -1, so theta_1 = log of its inverse is well defined.

Conventions fixed here (validated by the action axioms, moment
equivariance, and glue/split round trips, since only the topological
description is canonical):

* group action by a tuple (g_1 .. g_k), one per boundary in chart
  order: A, B -> g_1 () g_1^-1, Gamma_i -> g_1 Gamma_i g_i^-1,
  theta_i -> Ad_{g_i} theta_i;
* moment = per-boundary theta with sign +1 on incoming and -1 on
  outgoing circles, so gluing matches moments by literal equality;
* cross-gluing attaches the second chart's arcs and handles through
  the last arc of the first chart, with the second chart's handles
  listed first; self-gluing creates the handle pair
  A* = Gamma_a e^{theta_a} Gamma_b^{-1}, B* = Gamma_b Gamma_a^{-1}
  listed first.  Splitting inverts these words with the gauge choice
  Gamma_glued = 1.

Tangent computations.  Jacobians are left-trivialized and exact: the
row block of a word W is d log W = J_l(log W)^-1 (dW W^-1), built in one
prefix-product pass over the word.  Columns follow perturb's order:
theta_2 .. theta_k (additive), then Gamma_2 .. Gamma_k, then A_1, B_1
.. A_g, B_g (left translation x -> exp(h e_c) x), three each;
relation_kernel_dim puts the three theta_1 columns first.  A factor
x^{+1} after the prefix P contributes Ad_P u, a factor x^{-1} contributes
-Ad_{P x^-1} u, where u = dx x^-1 is e_c for a translated holonomy and
J_l(theta) e_c for e^theta.  A boundary loop is the three factors
Gamma e^theta Gamma^-1, and the basepoint loop e^{theta_1} = D^-1 the
inverted factors of D = chart_defect.  exp_su2 has bracket
[u, w] = 2 u x w, so J_l(v) is the SO(3) left Jacobian at 2v (see su2).

Batches.  Every ChartPoint is a batch: its components are (N,) float64
arrays, N points of one chart, one per lane, and a float component
stands for the same value on every lane (a zero theta, a pinned
identity).  random_point takes a uint64 seed array and draws on each
lane the point its seed draws as a one-lane batch; every map here acts
lane by lane, with the bits on each lane that a one-lane batch of it
gets.  A BranchError names the offending lanes (BranchError.lanes), and
select_lanes drops them.  The tangent layer puts the lanes on a leading
axis of every array it returns (a (3, D) Jacobian becomes (N, 3, D), and
one stacked SVD serves the batch); numpy's matmul and SVD treat each
matrix of a stack as they treat it alone, so a lane's arrays do not
depend on the other lanes either.  sample_on_locus refines its lanes by
Gauss-Newton with one stacked least-squares solve per iteration over the
lanes still active; a lane leaves the solve at the iteration where it
converges or fails.
A point computes its chart_defect once (ChartPoint.defect), for
admissibility, theta_1 and the relation residual alike; a point is
frozen and every map builds a new one.

Generators.  Work done once per generator of a batch (Gamma_i, A_j,
B_j, theta_i) runs as one call over a generator axis (su2.each): the
generators' lane arrays are stacked into (n_gen, N) arrays, the kernel
function runs once on them, and each generator gets its row back.
random_point draws all arcs and handles of a trial round in one
sample_haar call and all thetas in one sample_ball call, with the seeds
mix_seed(s, tag, index) of the one-by-one draw; the chart defect takes
every boundary loop in one call and every commutator in one; action,
the rotations, glue, split, canonical_gauge and point_distance map
their arcs and handles the same way.  numpy computes each element on
its own, so every lane of every generator keeps the bits it has from a
call of its own, and products along a word (su2.product, the prefix
products of the Jacobians) stay one factor at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cobord2 import _kernel, su2
from cobord2.su2 import (
    AlgVector,
    ONE,
    UnitQuaternion,
    adjoint,
    commutator,
    exp_su2,
    inv,
    log_su2,
    mix_seed,
    mul,
    sample_ball,
    sample_haar,
)
from cobord2.words import Word

SVD_RTOL = 1e-8
ADMISSIBLE_MARGIN = 1e-6
MOMENT_TOL = 1e-9  # largest moment difference glue and glue_self accept
LOCUS_TOL = 1e-9  # largest constraint residual locus_tangent accepts
LOCUS_RESTARTS = 10
NEWTON_ITERS = 60


class MomentMismatch(ValueError):
    pass


class ConstraintViolated(ValueError):
    pass


class SamplingFailed(RuntimeError):
    """No admissible or on-locus sample.  ``lanes`` is the boolean mask
    of the seeds that found none, and ``point`` the batch of the other
    lanes (those ~lanes picks, in order), which did find one."""

    def __init__(self, message, lanes, point):
        super().__init__(message)
        self.lanes = lanes
        self.point = point


@dataclass(frozen=True)
class ModuliChart:
    genus: int
    boundaries: tuple  # circle labels, chart order; index 0 carries the basepoint
    incoming: frozenset = frozenset()

    def __post_init__(self):
        if self.genus < 0 or len(self.boundaries) < 1:
            raise ValueError("chart needs genus >= 0 and k >= 1")
        if len(set(self.boundaries)) != len(self.boundaries):
            raise ValueError("duplicate boundary labels")

    @property
    def k(self) -> int:
        return len(self.boundaries)

    @property
    def dim(self) -> int:
        return 6 * self.genus + 6 * self.k - 6

    def index_of(self, label: str) -> int:
        return self.boundaries.index(label)

    def sign(self, label: str) -> int:
        return 1 if label in self.incoming else -1


@dataclass(frozen=True)
class ChartPoint:
    chart: ModuliChart
    thetas: tuple   # AlgVector per boundary 1..k-1
    gammas: tuple   # UnitQuaternion per boundary 1..k-1
    handles: tuple  # (A_j, B_j) pairs, j = 1..genus

    def __post_init__(self):
        if len(self.thetas) != self.chart.k - 1 or len(self.gammas) != self.chart.k - 1:
            raise ValueError("wrong number of boundary coordinates")
        if len(self.handles) != self.chart.genus:
            raise ValueError("wrong number of handle pairs")

    @functools.cached_property
    def defect(self) -> UnitQuaternion:
        """chart_defect of this point, computed on first use; the point
        is frozen and every map builds a new one, so it cannot go stale."""
        return _defect(self)


def _map_point(f, p: ChartPoint, *others) -> ChartPoint:
    """The point of p's chart whose every component is f of the matching
    components of p and the others."""
    ps = (p,) + others

    def vec(*vs):
        return AlgVector._make(map(f, *vs))

    def quat(*qs):
        return UnitQuaternion._make(map(f, *qs))

    thetas = tuple(vec(*ts) for ts in zip(*(x.thetas for x in ps)))
    gammas = tuple(quat(*gs) for gs in zip(*(x.gammas for x in ps)))
    handles = tuple((quat(*(h[0] for h in hs)), quat(*(h[1] for h in hs)))
                    for hs in zip(*(x.handles for x in ps)))
    return ChartPoint(p.chart, thetas, gammas, handles)


def select_lanes(p: ChartPoint, lanes) -> ChartPoint:
    """The batch of the lanes of p that lanes (an index or boolean
    array) picks; a float component, the same on every lane, stays."""
    return _map_point(lambda c: c[lanes] if isinstance(c, np.ndarray) else c, p)


def boundary_loop(p: ChartPoint, pos: int) -> UnitQuaternion:
    """Holonomy of the loop around boundary pos (>= 1) based at the
    basepoint: Gamma e^theta Gamma^-1."""
    return _loop(p.gammas[pos - 1], p.thetas[pos - 1])


def _loop(g, t) -> UnitQuaternion:
    return mul(mul(g, exp_su2(t)), inv(g))


def _flat(handles) -> list:
    """A_1, B_1 .. A_g, B_g as one list."""
    return [x for pair in handles for x in pair]


def _pairs(qs) -> tuple:
    """Inverse of _flat."""
    return tuple(zip(qs[::2], qs[1::2]))


def _conjugate(g, x) -> UnitQuaternion:
    return mul(mul(g, x), inv(g))


def _moved_arc(g1, gi, gamma) -> UnitQuaternion:
    return mul(mul(g1, gamma), inv(gi))


def _conjugate_handles(g, handles) -> tuple:
    """Every handle holonomy x as g x g^-1."""
    xs = _flat(handles)
    return _pairs(su2.each(_conjugate, [g] * len(xs), xs))


def _left(g, qs) -> list:
    """Every quaternion q of qs as g q."""
    return su2.each(mul, [g] * len(qs), qs)


def _commutators(handles) -> list:
    """[A_1,B_1] .. [A_g,B_g]."""
    return su2.each(commutator, [a for a, _ in handles], [b for _, b in handles])


def _commutator_product(handles) -> UnitQuaternion:
    """[A_1,B_1] ... [A_g,B_g], multiplied from 1 in order."""
    kq = ONE
    for c in _commutators(handles):
        kq = mul(kq, c)
    return kq


def chart_defect(p: ChartPoint) -> UnitQuaternion:
    """The product c_2 ... c_k [A_1,B_1] ... [A_g,B_g]; admissibility
    is this staying away from -1."""
    return p.defect


def _defect(p: ChartPoint) -> UnitQuaternion:
    factors = su2.each(_loop, p.gammas, p.thetas)
    factors += _commutators(p.handles)
    return su2.product(factors)


def is_admissible(p: ChartPoint, margin: float = su2.BRANCH_EPS) -> np.ndarray:
    return p.defect[0] > -1.0 + margin


def theta1_of(p: ChartPoint) -> AlgVector:
    """The determined first boundary value; BranchError on the excluded
    locus."""
    return log_su2(inv(p.defect))


def relation_residual(p: ChartPoint) -> np.ndarray:
    """|e^{theta_1} c_2 ... c_k [A,B]... - 1|; zero by construction up
    to rounding."""
    return su2.quat_dist(mul(exp_su2(theta1_of(p)), p.defect), ONE)


def theta_raw(p: ChartPoint, label: str) -> AlgVector:
    pos = p.chart.index_of(label)
    if pos == 0:
        return theta1_of(p)
    return p.thetas[pos - 1]


def moment(p: ChartPoint) -> tuple:
    """Signed boundary values in chart order: +theta on incoming
    circles, -theta on outgoing ones."""
    out = []
    for label in p.chart.boundaries:
        t = theta_raw(p, label)
        if p.chart.sign(label) < 0:
            t = su2.vec_neg(t)
        out.append(t)
    return tuple(out)


def action(gs, p: ChartPoint) -> ChartPoint:
    """SU(2)^k action, one factor per boundary in chart order."""
    if len(gs) != p.chart.k:
        raise ValueError("need one group element per boundary")
    g1 = gs[0]
    thetas = tuple(su2.each(adjoint, gs[1:], p.thetas))
    gammas = tuple(su2.each(_moved_arc, [g1] * len(p.gammas), gs[1:], p.gammas))
    return ChartPoint(p.chart, thetas, gammas, _conjugate_handles(g1, p.handles))


def random_point(chart: ModuliChart, seed, zero_thetas: bool = False) -> ChartPoint:
    """Admissible points with ball-uniform thetas and Haar holonomies,
    one per seed of the uint64 array seed; deterministic in the seed,
    resampling away from the excluded locus.  Only the rejected lanes
    redraw, with the next trial index, so each lane is the point its
    seed gives as a one-lane batch."""
    todo = np.arange(len(seed))
    out = None
    k1, g = chart.k - 1, chart.genus
    # seed tags: 1 theta_i, 2 Gamma_i, 3 A_j, 4 B_j, each with its index
    tags = (2,) * k1 + (3, 4) * g
    index = tuple(range(k1)) + tuple(j for j in range(g) for _ in (3, 4))
    for trial in range(64):
        s = mix_seed(seed[todo], trial)
        if zero_thetas:
            thetas = (AlgVector(0.0, 0.0, 0.0),) * k1
        else:
            thetas = tuple(su2.each(lambda s, i: sample_ball(math.pi, mix_seed(s, 1, i)),
                                    (s,) * k1, range(k1)))
        qs = su2.each(lambda s, tag, i: sample_haar(mix_seed(s, tag, i)),
                      (s,) * len(tags), tags, index)
        p = ChartPoint(chart, thetas, tuple(qs[:k1]), _pairs(qs[k1:]))
        ok = np.broadcast_to(is_admissible(p, ADMISSIBLE_MARGIN), todo.shape)
        out = p if out is None else _map_point(lambda a, b: _put(a, todo, b), out, p)
        todo = todo[~ok]
        if not len(todo):
            return out
    lost = _mask(len(seed), todo)
    raise SamplingFailed("no admissible point found on %d lanes, seed %d"
                         % (len(todo), seed[todo[0]]), lost, select_lanes(out, ~lost))


def _mask(n: int, lanes) -> np.ndarray:
    """The boolean mask over n lanes of the given lane indices."""
    out = np.zeros(n, dtype=bool)
    out[lanes] = True
    return out


def _put(a, lanes, b):
    """a with b written into the given lanes; a float component (a zero
    or pinned coordinate) is the same on every draw and every lane."""
    if not isinstance(a, np.ndarray):
        return a
    out = a.copy()
    out[lanes] = b
    return out


# --- chart moves ----------------------------------------------------------------


def rotate_first(p: ChartPoint, pos: int) -> ChartPoint:
    """Chart change making boundary pos (>= 1) the basepoint boundary;
    new boundary order is the cyclic rotation starting at pos."""
    k = p.chart.k
    if not 1 <= pos < k:
        raise ValueError("rotation position out of range")
    gi_inv = inv(p.gammas[pos - 1])
    handles = _conjugate_handles(gi_inv, p.handles)
    kq = _commutator_product(handles)
    new_order = p.chart.boundaries[pos:] + p.chart.boundaries[:pos]
    # boundaries after pos keep their arcs; the old basepoint boundary and
    # the rest follow, pushed past the commutators
    thetas = p.thetas[pos:] + (theta1_of(p),) + p.thetas[:pos - 1]
    gammas = (_left(gi_inv, p.gammas[pos:]) + [mul(kq, gi_inv)]
              + _left(kq, _left(gi_inv, p.gammas[:pos - 1])))
    chart = ModuliChart(p.chart.genus, new_order, p.chart.incoming)
    return ChartPoint(chart, thetas, tuple(gammas), handles)


def rotate_first_inv(q: ChartPoint, pos: int) -> ChartPoint:
    """Inverse of rotate_first(_, pos): rotations are mapping-class
    moves, not involutions, so gluing records them and splitting undoes
    them explicitly."""
    k = q.chart.k
    if not 1 <= pos < k:
        raise ValueError("rotation position out of range")
    kq = _commutator_product(q.handles)
    # the old basepoint boundary sits at new position k - pos with arc
    # holonomy K Gamma_i^-1
    gi = inv(mul(inv(kq), q.gammas[k - pos - 1]))
    handles = _conjugate_handles(gi, q.handles)
    # new positions 1 .. k-pos-1 were old pos+1 .. k-1, new k-pos+1 .. k-1
    # were old 1 .. pos-1
    thetas = q.thetas[k - pos:] + (theta1_of(q),) + q.thetas[:k - pos - 1]
    gammas = (_left(gi, _left(inv(kq), q.gammas[k - pos:])) + [gi]
              + _left(gi, q.gammas[:k - pos - 1]))
    order = q.chart.boundaries[k - pos:] + q.chart.boundaries[:k - pos]
    chart = ModuliChart(q.chart.genus, order, q.chart.incoming)
    return ChartPoint(chart, thetas, tuple(gammas), handles)


def swap_adjacent(p: ChartPoint, pos: int) -> ChartPoint:
    """Chart change exchanging boundaries pos and pos+1 (both >= 1):
    the later loop moves first, the earlier one gets conjugated past it."""
    k = p.chart.k
    if not 1 <= pos < k - 1:
        raise ValueError("swap position out of range")
    i = pos - 1
    c_next = boundary_loop(p, pos + 1)
    thetas = list(p.thetas)
    gammas = list(p.gammas)
    thetas[i], thetas[i + 1] = thetas[i + 1], thetas[i]
    gammas[i], gammas[i + 1] = gammas[i + 1], mul(inv(c_next), gammas[i])
    order = list(p.chart.boundaries)
    order[pos], order[pos + 1] = order[pos + 1], order[pos]
    chart = ModuliChart(p.chart.genus, tuple(order), p.chart.incoming)
    return ChartPoint(chart, tuple(thetas), tuple(gammas), p.handles)


def swap_adjacent_inv(p: ChartPoint, pos: int) -> ChartPoint:
    """Inverse braid move of swap_adjacent(_, pos)."""
    k = p.chart.k
    if not 1 <= pos < k - 1:
        raise ValueError("swap position out of range")
    i = pos - 1
    c_old_next = boundary_loop(p, pos)
    thetas = list(p.thetas)
    gammas = list(p.gammas)
    thetas[i], thetas[i + 1] = thetas[i + 1], thetas[i]
    gammas[i], gammas[i + 1] = mul(c_old_next, gammas[i + 1]), gammas[i]
    order = list(p.chart.boundaries)
    order[pos], order[pos + 1] = order[pos + 1], order[pos]
    chart = ModuliChart(p.chart.genus, tuple(order), p.chart.incoming)
    return ChartPoint(chart, tuple(thetas), tuple(gammas), p.handles)


def unapply_script(p: ChartPoint, script) -> ChartPoint:
    for kind, pos in reversed(script):
        p = rotate_first_inv(p, pos) if kind == "rot" else swap_adjacent_inv(p, pos)
    return p


def _move_last(p: ChartPoint, label: str):
    """Normalize the labeled boundary to the last chart position;
    returns (point, move script)."""
    script = []
    pos = p.chart.index_of(label)
    if pos == 0:
        if p.chart.k == 1:
            return p, script
        p = rotate_first(p, 1)
        script.append(("rot", 1))
        pos = p.chart.index_of(label)
    while pos < p.chart.k - 1:
        p = swap_adjacent(p, pos)
        script.append(("swap", pos))
        pos += 1
    return p, script


def _move_first(p: ChartPoint, label: str):
    pos = p.chart.index_of(label)
    if pos == 0:
        return p, []
    return rotate_first(p, pos), [("rot", pos)]


def move_boundary_first(p: ChartPoint, label: str) -> ChartPoint:
    return _move_first(p, label)[0]


# --- gluing ---------------------------------------------------------------------


@dataclass(frozen=True)
class GlueRecipe:
    kind: str  # "cross" | "self"
    chart1: ModuliChart  # normalized chart of the first piece (glued last)
    chart2: Optional[ModuliChart]  # normalized chart of the second (glued first)
    label_a: str
    label_b: str
    script1: tuple = ()  # moves that normalized the first piece
    script2: tuple = ()


def glue(p1: ChartPoint, label_a: str, p2: ChartPoint, label_b: str):
    """Glue boundary label_a of p1 to label_b of p2 (distinct points).

    Precondition is literal equality of the signed moments on the glued
    circles.  Returns (glued point, recipe); the glued chart lists p1's
    boundaries (minus label_a) then p2's (minus label_b), and p2's
    handles before p1's.  Raises BranchError when the result lands on
    the excluded locus, which cannot happen for matched admissible
    inputs, and MomentMismatch when the moment precondition fails."""
    if p1.chart.sign(label_a) == p2.chart.sign(label_b):
        raise MomentMismatch("glued circles need opposite roles")
    if p1.chart.k == 1:
        # the basepoint piece must keep a boundary; swap roles
        glued, recipe = glue(p2, label_b, p1, label_a)
        return glued, recipe
    q1, script1 = _move_last(p1, label_a)
    q2, script2 = _move_first(p2, label_b)
    m1 = theta_raw(q1, label_a)
    if q1.chart.sign(label_a) < 0:
        m1 = su2.vec_neg(m1)
    m2 = theta_raw(q2, label_b)
    if q2.chart.sign(label_b) < 0:
        m2 = su2.vec_neg(m2)
    gap = su2.largest(su2.vec_dist(m1, m2))
    if gap > MOMENT_TOL:
        raise MomentMismatch("moments differ by %g" % gap)
    gl = q1.gammas[-1]
    boundaries = q1.chart.boundaries[:-1] + q2.chart.boundaries[1:]
    incoming = (q1.chart.incoming | q2.chart.incoming) - {label_a, label_b}
    chart = ModuliChart(q1.chart.genus + q2.chart.genus, boundaries, frozenset(incoming))
    thetas = q1.thetas[:-1] + q2.thetas
    gammas = q1.gammas[:-1] + tuple(_left(gl, q2.gammas))
    glued = ChartPoint(chart, thetas, gammas, _conjugate_handles(gl, q2.handles) + q1.handles)
    su2.check_branch(su2.near_minus_one(chart_defect(glued)),
                     "glued point lies on the excluded locus")
    recipe = GlueRecipe(
        "cross", q1.chart, q2.chart, label_a, label_b, tuple(script1), tuple(script2)
    )
    return glued, recipe


def glue_self(p: ChartPoint, label_a: str, label_b: str):
    """Glue two boundaries of one connected piece; genus rises by one
    and the new handle pair is listed first."""
    if p.chart.sign(label_a) == p.chart.sign(label_b):
        raise MomentMismatch("glued circles need opposite roles")
    if p.chart.k < 3:
        raise MomentMismatch("self-gluing would close the surface")
    script = []
    if p.chart.index_of(label_a) == 0 or p.chart.index_of(label_b) == 0:
        other = [
            l for l in p.chart.boundaries if l not in (label_a, label_b)
        ][0]
        p, moves = _move_first(p, other)
        script.extend(moves)
    p, moves = _move_last(p, label_b)
    script.extend(moves)
    pos_a = p.chart.index_of(label_a)
    while pos_a < p.chart.k - 2:
        p = swap_adjacent(p, pos_a)
        script.append(("swap", pos_a))
        pos_a += 1
    k = p.chart.k
    ta, tb = p.thetas[k - 3], p.thetas[k - 2]
    ma = su2.vec_neg(ta) if p.chart.sign(label_a) < 0 else ta
    mb = su2.vec_neg(tb) if p.chart.sign(label_b) < 0 else tb
    gap = su2.largest(su2.vec_dist(ma, mb))
    if gap > MOMENT_TOL:
        raise MomentMismatch("moments differ by %g" % gap)
    ga, gb = p.gammas[k - 3], p.gammas[k - 2]
    a_star = mul(mul(ga, exp_su2(ta)), inv(gb))
    b_star = mul(gb, inv(ga))
    chart = ModuliChart(
        p.chart.genus + 1,
        p.chart.boundaries[:-2],
        p.chart.incoming - {label_a, label_b},
    )
    glued = ChartPoint(
        chart, p.thetas[:-2], p.gammas[:-2], ((a_star, b_star),) + p.handles
    )
    su2.check_branch(su2.near_minus_one(chart_defect(glued)),
                     "self-glued point lies on the excluded locus")
    recipe = GlueRecipe("self", p.chart, None, label_a, label_b, tuple(script))
    return glued, recipe


def split(q: ChartPoint, recipe: GlueRecipe):
    """Invert glue/glue_self with the gauge choice Gamma_glued = 1.

    Returns (p1, p2) for a cross recipe and a single point for a self
    recipe, undoing the recipe's normalization moves so the points come
    back in the charts glue was fed; the originals are recovered up to
    one SU(2) gauge factor at the glued circle.  Raises BranchError on
    the excised locus, where the glued circle's holonomy is -1 and no
    boundary value in the open ball exists."""
    if recipe.kind == "self":
        chart = recipe.chart1
        a_star, b_star = q.handles[0]
        theta_a = log_su2(mul(b_star, a_star))
        thetas = q.thetas + (theta_a, su2.vec_neg(theta_a))
        gammas = q.gammas + (inv(b_star), ONE)
        back = ChartPoint(chart, thetas, gammas, q.handles[1:])
        return unapply_script(back, recipe.script1)
    chart1, chart2 = recipe.chart1, recipe.chart2
    k1, g2 = chart1.k, chart2.genus
    thetas1 = q.thetas[: k1 - 2]
    gammas1 = q.gammas[: k1 - 2]
    thetas2 = q.thetas[k1 - 2:]
    gammas2 = q.gammas[k1 - 2:]
    handles2 = q.handles[:g2]
    handles1 = q.handles[g2:]
    # piece 1's relation e^{theta_1} c_2..c_{k1-1} e^{theta_last} K1 = 1
    # determines its last boundary value once Gamma_last = 1
    ahead = ONE
    for c in su2.each(_loop, gammas1, thetas1):
        ahead = mul(ahead, c)
    kq = _commutator_product(handles1)
    theta1 = theta1_of(q)
    c_last = mul(inv(ahead), mul(exp_su2(su2.vec_neg(theta1)), inv(kq)))
    theta_last = log_su2(c_last)
    p1 = ChartPoint(chart1, thetas1 + (theta_last,), gammas1 + (ONE,), handles1)
    p2 = ChartPoint(chart2, thetas2, gammas2, handles2)
    return unapply_script(p1, recipe.script1), unapply_script(p2, recipe.script2)


# --- serialization ----------------------------------------------------------------


def flatten_point(p: ChartPoint) -> tuple:
    """Chart point as a flat real tuple, bit-exact field order:
    theta_2..theta_k as (a, b, c), Gamma_2..Gamma_k as (w, x, y, z),
    then A_1, B_1 .. A_g, B_g as (w, x, y, z) each."""
    out: list = []
    for t in p.thetas:
        out.extend(t)
    for g in p.gammas:
        out.extend(g)
    for a, b in p.handles:
        out.extend(a)
        out.extend(b)
    return tuple(out)


# --- word evaluation --------------------------------------------------------------


def eval_generator(p: ChartPoint, kind: str, ref) -> UnitQuaternion:
    if kind == "a":
        return p.handles[ref - 1][0]
    if kind == "b":
        return p.handles[ref - 1][1]
    pos = p.chart.index_of(ref)
    if kind == "g":
        return ONE if pos == 0 else p.gammas[pos - 1]
    if kind == "d":
        if pos == 0:
            return exp_su2(theta1_of(p))
        return boundary_loop(p, pos)
    raise ValueError("unknown generator kind %r" % kind)


def eval_word(p: ChartPoint, word: Word) -> UnitQuaternion:
    out = ONE
    for kind, ref, sign in word.gens:
        q = eval_generator(p, kind, ref)
        out = mul(out, q if sign > 0 else inv(q))
    return out


def word_residual(p: ChartPoint, word: Word) -> np.ndarray:
    return su2.quat_dist(eval_word(p, word), ONE)


# --- tangent computations ----------------------------------------------------------


def perturb(p: ChartPoint, coord: int, h) -> ChartPoint:
    """Shift one ambient coordinate by h (a float, or an (N,) array of
    steps, one per lane): additive on theta components, left-translation
    by exp(h e_i) on quaternion generators."""
    k1 = p.chart.k - 1
    if coord < 3 * k1:
        i, c = divmod(coord, 3)
        t = list(p.thetas[i])
        t[c] = t[c] + h  # not +=, which would write into a lane array of p
        thetas = p.thetas[:i] + (AlgVector(*t),) + p.thetas[i + 1:]
        return ChartPoint(p.chart, thetas, p.gammas, p.handles)
    coord -= 3 * k1
    if coord < 3 * k1:
        i, c = divmod(coord, 3)
        step = exp_su2(AlgVector(*[h if j == c else 0.0 for j in range(3)]))
        gammas = p.gammas[:i] + (mul(step, p.gammas[i]),) + p.gammas[i + 1:]
        return ChartPoint(p.chart, p.thetas, gammas, p.handles)
    coord -= 3 * k1
    j, rest = divmod(coord, 6)
    which, c = divmod(rest, 3)
    step = exp_su2(AlgVector(*[h if i == c else 0.0 for i in range(3)]))
    a, b = p.handles[j]
    pair = (mul(step, a), b) if which == 0 else (a, mul(step, b))
    handles = p.handles[:j] + (pair,) + p.handles[j + 1:]
    return ChartPoint(p.chart, p.thetas, p.gammas, handles)


def constraint_map(p: ChartPoint, words) -> np.ndarray:
    """log Hol_w for every word, 3 values each; (N, 3 * len(words)) on a
    batch."""
    return su2.stack_lanes([c for w in words for c in log_su2(eval_word(p, w))])


def _loop_factors(p: ChartPoint, pos: int) -> list:
    """Elementary factors (value, sign, column block, u) of the boundary
    loop Gamma e^theta Gamma^-1 at pos >= 1; u is None for the identity."""
    k1 = p.chart.k - 1
    g, t = p.gammas[pos - 1], p.thetas[pos - 1]
    return [(g, 1, k1 + pos - 1, None), (exp_su2(t), 1, pos - 1, su2.left_jacobian(t)),
            (g, -1, k1 + pos - 1, None)]


def _defect_factors(p: ChartPoint) -> list:
    out = []
    for pos in range(1, p.chart.k):
        out.extend(_loop_factors(p, pos))
    first = 2 * (p.chart.k - 1)
    for j, (a, b) in enumerate(p.handles):
        ca, cb = first + 2 * j, first + 2 * j + 1
        out.extend(((a, 1, ca, None), (b, 1, cb, None), (a, -1, ca, None), (b, -1, cb, None)))
    return out


def _inverse(factors) -> list:
    return [(q, -sign, col, u) for q, sign, col, u in reversed(factors)]


def _generator_factors(p: ChartPoint, kind: str, ref) -> list:
    k1 = p.chart.k - 1
    if kind in ("a", "b"):
        which = 0 if kind == "a" else 1
        return [(p.handles[ref - 1][which], 1, 2 * k1 + 2 * (ref - 1) + which, None)]
    pos = p.chart.index_of(ref)
    if kind == "g":
        return [] if pos == 0 else [(p.gammas[pos - 1], 1, k1 + pos - 1, None)]
    if kind == "d":
        return _inverse(_defect_factors(p)) if pos == 0 else _loop_factors(p, pos)
    raise ValueError("unknown generator kind %r" % kind)


def _log_differential(factors, blocks: int) -> np.ndarray:
    """d log W, 3 x 3*blocks, of the product W of elementary factors;
    N x 3 x 3*blocks on a batch."""
    prefix = ONE
    at = []
    for q, sign, _, _ in factors:
        if sign > 0:
            at.append(prefix)
            prefix = mul(prefix, q)
        else:
            prefix = mul(prefix, inv(q))
            at.append(prefix)
    terms = su2.adjoint_matrices(at)
    incidence = np.zeros((blocks, len(factors)))
    for i, (_, sign, col, u) in enumerate(factors):
        incidence[col, i] = sign
        if u is not None:
            terms[..., i, :, :] = terms[..., i, :, :] @ u
    per_block = incidence @ terms.reshape(terms.shape[:-2] + (9,))
    per_block = per_block.reshape(per_block.shape[:-1] + (3, 3))
    jac = per_block.swapaxes(-3, -2).reshape(per_block.shape[:-3] + (3, 3 * blocks))
    return su2.left_jacobian_inv(log_su2(prefix)) @ jac


def constraint_jacobian(p: ChartPoint, words) -> np.ndarray:
    """Differential of constraint_map, 3 rows per word, one column per
    ambient coordinate in perturb's order; N x rows x columns on a
    batch."""
    blocks = p.chart.dim // 3
    rows = []
    for w in words:
        factors = []
        for kind, ref, sign in w.gens:
            f = _generator_factors(p, kind, ref)
            factors.extend(f if sign > 0 else _inverse(f))
        rows.append(_log_differential(factors, blocks))
    if not rows:
        return np.zeros((0, p.chart.dim))
    if len(rows) > 1:
        rows = np.broadcast_arrays(*rows)  # a word may take no lanes from the batch
    return np.concatenate(rows, axis=-2)


def _rank(s, rtol: float):
    """Number of singular values above rtol * sigma_max: an int for one
    matrix, an int array over a stack (s of shape (N, r))."""
    rank = np.sum(s > rtol * (s[..., :1] if s.shape[-1] else 1.0), axis=-1)
    return int(rank) if rank.ndim == 0 else rank


@dataclass(frozen=True)
class TangentFrame:
    """rank is an (N,) int array and vectors holds one kernel basis per
    lane, a (dim - rank, dim) array.  A constraint differential that is
    the same on every lane (no words, or pinned generators only) gives
    an int rank and one basis, rows of length chart.dim."""
    vectors: tuple  # orthonormal kernel basis per lane
    rank: int


def locus_tangent(p: ChartPoint, words, rtol: float = SVD_RTOL) -> TangentFrame:
    """Kernel of the constraint differential at on-locus points via SVD
    rank with threshold rtol * sigma_max, lane by lane; raises
    ConstraintViolated if any lane is off the locus."""
    d = p.chart.dim
    if not words:
        basis = tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))
        return TangentFrame(basis, 0)
    res = su2.largest(np.max(np.abs(constraint_map(p, words)), axis=-1))
    if res > LOCUS_TOL:
        raise ConstraintViolated("constraint residual %g at the sample" % res)
    jac = constraint_jacobian(p, words)
    u, s, vt = np.linalg.svd(jac)
    rank = _rank(s, rtol)
    if jac.ndim == 2:
        return TangentFrame(tuple(map(tuple, vt[rank:])), rank)
    return TangentFrame(tuple(v[r:] for v, r in zip(vt, rank.tolist())), rank)


def relation_jacobian(p: ChartPoint) -> np.ndarray:
    """Differential of log(e^{theta_1} c_2 ... c_k [A_1,B_1] ... [A_g,B_g])
    with theta_1 a free coordinate: 3 x (3 + dim), the theta_1 columns
    first, then perturb's order."""
    t1 = theta1_of(p)
    factors = [(exp_su2(t1), 1, 0, su2.left_jacobian(t1))]
    factors.extend((q, sign, col + 1, u) for q, sign, col, u in _defect_factors(p))
    return _log_differential(factors, p.chart.dim // 3 + 1)


def relation_kernel_dim(p: ChartPoint, rtol: float = SVD_RTOL) -> tuple:
    """Treat theta_1 as a free coordinate and cut the full relation
    e^{theta_1} c_2 ... [A,B].. = 1; the kernel of its differential is
    the tangent space of the chart, of dimension 6g + 6k - 6.

    Returns (kernel dimension, rank of the relation differential), as
    int arrays over the lanes of a batch."""
    jac = relation_jacobian(p)
    rank = _rank(np.linalg.svd(jac, compute_uv=False), rtol)
    return (jac.shape[-1] - rank, rank)


# --- sampling on loci ----------------------------------------------------------------


def sample_on_locus(chart: ModuliChart, words, seed) -> ChartPoint:
    """Points satisfying Hol_w = 1 for every word, one per seed of the
    uint64 array seed.

    Single-generator words are solved exactly by pinning the generator;
    anything else falls back to seeded Gauss-Newton refinement down to
    residual 1e-10.

    All lanes draw, pin, refine and test admissibility at once; a lane
    that fails moves on to its next attempt seed, so each lane is the
    point its seed gives as a one-lane batch.  A lane whose random_point
    draw fails stops there, as its seed alone raises.  If any lane finds
    no sample, SamplingFailed names them all (its lanes mask) and carries
    the points of the others."""
    pinned_handles = {}
    pinned_thetas = set()
    hard = []
    for w in words:
        single = w.single_generator()
        if single and single[0] in ("a", "b"):
            pinned_handles[(single[1] - 1, 0 if single[0] == "a" else 1)] = ONE
        elif single and single[0] == "d" and chart.index_of(single[1]) > 0:
            pinned_thetas.add(chart.index_of(single[1]) - 1)
        else:
            hard.append(w)
    todo = np.arange(len(seed))
    out = None
    failed = []  # lanes whose random_point draw failed
    for attempt in range(LOCUS_RESTARTS):
        try:
            p = random_point(chart, mix_seed(seed[todo], 101, attempt))
        except SamplingFailed as err:
            failed.extend(todo[err.lanes].tolist())
            todo, p = todo[~err.lanes], err.point
        p = _pin(p, pinned_thetas, pinned_handles)
        ok = np.broadcast_to(is_admissible(p, ADMISSIBLE_MARGIN), todo.shape)
        if hard:
            p, ok = _refine_lanes(p, ok, words, pinned_thetas, pinned_handles)
        if words:
            ok = _residual_below(p, ok, words, 1e-10)
        ok = ok & is_admissible(p, ADMISSIBLE_MARGIN)
        if out is None:
            out = _map_point(lambda c: np.empty(len(seed)) if isinstance(c, np.ndarray) else c, p)
        out = _map_point(lambda a, b: _put(a, todo, b), out, p)
        todo = todo[~ok]
        if not len(todo):
            break
    if failed or len(todo):
        lost = _mask(len(seed), failed + todo.tolist())
        raise SamplingFailed("no on-locus sample on %d lanes: %d draws failed, %d used up %d "
                             "restarts" % (np.count_nonzero(lost), len(failed), len(todo),
                                           LOCUS_RESTARTS),
                             lost, None if out is None else select_lanes(out, ~lost))
    return out


def _pin(p: ChartPoint, pinned_thetas, pinned_handles) -> ChartPoint:
    """p with the pinned thetas set to zero and the pinned handle
    holonomies to their values."""
    thetas = tuple(AlgVector(0.0, 0.0, 0.0) if i in pinned_thetas else t
                   for i, t in enumerate(p.thetas))
    handles = tuple((pinned_handles.get((j, 0), a), pinned_handles.get((j, 1), b))
                    for j, (a, b) in enumerate(p.handles))
    return ChartPoint(p.chart, thetas, p.gammas, handles)


def _refine_lanes(p: ChartPoint, ok, words, pinned_thetas, pinned_handles):
    """(p, ok) after Gauss-Newton refinement of the lanes that ok admits;
    ok drops the lanes that fail.

    Each iteration takes one stacked least-squares solve over the lanes
    still active.  A lane whose residual is at most 1e-12 leaves as
    converged, one whose step is not finite leaves as failed, and after
    NEWTON_ITERS iterations the rest pass at residual 1e-10.  The step
    is capped at length 0.5, applied coordinate by coordinate in
    perturb's order; thetas are pulled back inside the ball and pinned
    generators reset.  A lane's iterations use only its own rows, so it
    refines as its one-lane batch does."""
    lanes = np.flatnonzero(ok)
    q = select_lanes(p, lanes)
    rows, dim = 3 * len(words), p.chart.dim
    done = []  # (lane indices, their refined batch)
    for _ in range(NEWTON_ITERS):
        # a word may take no lanes from the batch
        f = np.broadcast_to(constraint_map(q, words), (len(lanes), rows))
        conv = np.max(np.abs(f), axis=-1, initial=0.0) <= 1e-12
        done.append((lanes[conv], select_lanes(q, conv)))
        q, lanes, f = select_lanes(q, ~conv), lanes[~conv], f[~conv]
        if not len(lanes):
            break
        jac = np.broadcast_to(constraint_jacobian(q, words), (len(lanes), rows, dim))
        # minimum-norm least squares, singular values cut at max(rows, dim) * eps
        dx = (np.linalg.pinv(jac, rtol=None) @ -f[..., None])[..., 0]
        finite = np.all(np.isfinite(dx), axis=-1)
        q, lanes, dx = select_lanes(q, finite), lanes[finite], dx[finite]
        if not len(lanes):
            break
        # a step longer than 0.5 shrinks to 0.5
        dx = dx * (0.5 / np.maximum(np.linalg.norm(dx, axis=-1), 0.5))[:, None]
        for coord in range(dim):
            q = perturb(q, coord, dx[:, coord])
        thetas = []
        for t in q.thetas:
            n = t.norm()
            thetas.append(su2.where(n >= math.pi - 1e-6,
                                    su2.vec_scale(t, (math.pi - 1e-3) / np.maximum(n, 1.0)), t))
        q = _pin(ChartPoint(q.chart, tuple(thetas), q.gammas, q.handles),
                 pinned_thetas, pinned_handles)
    else:
        f = np.broadcast_to(constraint_map(q, words), (len(lanes), rows))
        conv = np.max(np.abs(f), axis=-1, initial=0.0) <= 1e-10
        done.append((lanes[conv], select_lanes(q, conv)))
    for idx, r in done:
        if len(idx):
            p = _map_point(lambda a, b: _put(a, idx, b), p, r)
    return p, _mask(len(ok), np.concatenate([idx for idx, _ in done]))


def _residual_below(p: ChartPoint, ok, words, tol: float):
    """ok, narrowed to where the constraint residual is at most tol; a
    lane that ok rejects is not evaluated."""
    lanes = np.flatnonzero(ok)
    res = np.max(np.abs(constraint_map(select_lanes(p, lanes), words)), axis=-1)
    return _mask(len(ok), lanes[np.broadcast_to(res <= tol, lanes.shape)])


# --- gauge comparison -----------------------------------------------------------------


def _rotation_between(v: AlgVector, u: AlgVector) -> UnitQuaternion:
    """Minimal rotation sending direction v to direction u; the
    degenerate and antiparallel cases are chosen per lane."""
    nv, nu = v.norm(), u.norm()
    degenerate = (nv < 1e-12) | (nu < 1e-12)
    # a degenerate lane turns the x-axis to itself, by ONE
    x_axis = AlgVector(1.0, 0.0, 0.0)
    v, u = su2.where(degenerate, x_axis, v), su2.where(degenerate, x_axis, u)
    nv, nu = np.where(degenerate, 1.0, nv), np.where(degenerate, 1.0, nu)
    a = AlgVector(v.a / nv, v.b / nv, v.c / nv)
    b = AlgVector(u.a / nu, u.b / nu, u.c / nu)
    cross = AlgVector(
        a.b * b.c - a.c * b.b, a.c * b.a - a.a * b.c, a.a * b.b - a.b * b.a
    )
    dot = a.a * b.a + a.b * b.b + a.c * b.c
    s = cross.norm()
    parallel = s < 1e-12
    if parallel.any():
        s = np.where(parallel, 1.0, s)
    angle = _kernel.atan2(s, dot)
    out = exp_su2(AlgVector(cross.a / s * angle / 2, cross.b / s * angle / 2,
                            cross.c / s * angle / 2))
    if parallel.any():
        out = su2.where(parallel, su2.where(dot > 0, ONE, _half_turn(a)), out)
    return out


def _half_turn(a: AlgVector) -> UnitQuaternion:
    """Turn by pi around an axis orthogonal to the unit vector a."""
    axis = su2.where(abs(a.a) < 0.9, AlgVector(1.0, 0.0, 0.0), AlgVector(0.0, 1.0, 0.0))
    ortho = AlgVector(
        a.b * axis.c - a.c * axis.b,
        a.c * axis.a - a.a * axis.c,
        a.a * axis.b - a.b * axis.a,
    )
    n = ortho.norm()
    return exp_su2(AlgVector(ortho.a / n * math.pi / 2, ortho.b / n * math.pi / 2,
                             ortho.c / n * math.pi / 2))


def _vec(q: UnitQuaternion) -> AlgVector:
    return AlgVector(q.x, q.y, q.z)


def canonical_gauge(p: ChartPoint) -> ChartPoint:
    """Deterministic gauge fixing: every arc holonomy is set to 1 (the
    factor at boundary i is forced to g_1 Gamma_i), then the residual
    diagonal rotation is pinned by sending the first usable frame
    vector (handle logs first, boundary values after) to the x-axis and
    the next independent one into the upper xy-plane.  Returns the
    canonical point.  Every lane makes these choices for itself; open
    marks the lanes still looking."""
    k = p.chart.k
    fix = (ONE,) + tuple(p.gammas)
    q = action(fix, p)
    frame = []
    for a, b in q.handles:
        frame.append(_vec(a))
        frame.append(_vec(b))
    frame.extend(q.thetas)
    v1, open_ = None, np.True_
    for v in frame:
        n = v.norm()
        take = open_ & (n > 1e-8)
        if take.any():
            v1 = v if v1 is None else su2.where(take, v, v1)
            open_ = open_ & (n <= 1e-8)
            if not open_.any():
                break
    if v1 is None:
        return q
    r1 = _rotation_between(v1, AlgVector(v1.norm(), 0.0, 0.0))
    twist, twist_open = ONE, np.True_
    for v in frame:
        w = adjoint(r1, v)
        planar = _kernel.hypot(w.b, w.c)
        take = twist_open & (planar > 1e-8)
        if take.any():
            ang = _kernel.atan2(w.c, w.b)
            twist = su2.where(take, exp_su2(AlgVector(-ang / 2, 0.0, 0.0)), twist)
            twist_open = twist_open & (planar <= 1e-8)
            if not twist_open.any():
                break
    out = action((mul(twist, r1),) * k, q)
    # a lane with no usable frame vector keeps q
    if open_.any():
        return _map_point(lambda a, b: np.where(open_, a, b), q, out)
    return out


def point_distance(p: ChartPoint, q: ChartPoint):
    """Largest coordinate distance, per lane."""
    dists = su2.each(su2.vec_dist, p.thetas, q.thetas)
    dists += su2.each(su2.quat_dist, p.gammas + tuple(_flat(p.handles)),
                      q.gammas + tuple(_flat(q.handles)))
    return functools.reduce(np.maximum, dists, 0.0)


def gauge_equivalent(p: ChartPoint, q: ChartPoint, tol: float = 1e-9):
    """(equal mod gauge, residual): the residual is the distance between
    the canonical forms of the two points."""
    if p.chart != q.chart:
        raise ValueError("points live in different charts")
    r = point_distance(canonical_gauge(p), canonical_gauge(q))
    return (r < tol, r)
