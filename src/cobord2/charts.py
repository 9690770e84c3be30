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

Batches.  Every ChartPoint is a batch of N points of one chart, one
per lane.  random_point takes a uint64 seed array and draws on each lane
the point its seed draws as a one-lane batch; every map here acts lane
by lane, with the bits on each lane that a one-lane batch of it gets.
A BranchError names the offending lanes (BranchError.lanes), and
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

Generators.  A point holds one stack per generator family: thetas
(theta_2 .. theta_k), gammas (Gamma_2 .. Gamma_k) and handles (A_1 ..
A_g, then B_1 .. B_g, the halves ChartPoint.a and .b), each component
a contiguous (n, N) float64 array with generators on the leading axis,
constants (a zero theta, a pinned identity) filled in and n possibly 0.
Per-generator work runs once on a stack: random_point's draws (with
the seeds mix_seed(s, tag, index) of a one-by-one draw), the defect's
loops and commutators, action, the rotations, glue, split,
canonical_gauge and point_distance.  numpy computes each element on its
own, so every lane of every generator keeps the bits of a call of its
own; products along a word (su2.product, the prefix products of the
Jacobians) stay one factor at a time over row views.
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
    thetas: AlgVector        # theta_2 .. theta_k, components (k - 1, N)
    gammas: UnitQuaternion   # Gamma_2 .. Gamma_k, components (k - 1, N)
    handles: UnitQuaternion  # A_1 .. A_g, B_1 .. B_g, components (2g, N)

    def __post_init__(self):
        if len(self.thetas.a) != self.chart.k - 1 or len(self.gammas.w) != self.chart.k - 1:
            raise ValueError("wrong number of boundary coordinates")
        if len(self.handles.w) != 2 * self.chart.genus:
            raise ValueError("wrong number of handle pairs")

    @property
    def lanes(self) -> int:
        return self.thetas.a.shape[1]

    @property
    def a(self) -> UnitQuaternion:  # A_1 .. A_g, the first half of handles
        return _take(self.handles, slice(self.chart.genus))

    @property
    def b(self) -> UnitQuaternion:  # B_1 .. B_g, the second half
        return _take(self.handles, slice(self.chart.genus, None))

    @functools.cached_property
    def defect(self) -> UnitQuaternion:
        """chart_defect of this point, computed on first use; the point
        is frozen and every map builds a new one, so it cannot go stale."""
        return _defect(self)


# --- stacks: one value per generator on the leading axis --------------------------


def _row(x, i: int):
    """Generator i of the stack x, its components row views."""
    return type(x)._make(c[i] for c in x)


def _rows(x) -> list:
    """Every generator of the stack x in order, as row views."""
    return list(map(type(x)._make, zip(*x)))


def _take(x, rows):
    """The stack of the generators of x that rows (a slice or an index
    list) picks, as views when the rows are consecutive."""
    if not isinstance(rows, slice):
        start = rows[0] if rows else 0
        if rows != list(range(start, start + len(rows))):
            rows = np.array(rows, dtype=np.intp)
            return type(x)._make(c.take(rows, axis=0) for c in x)
        rows = slice(start, start + len(rows))
    return type(x)._make(c[rows] for c in x)


def _cat(n: int, *parts):
    """One stack of n lanes holding the parts in order: each part a
    stack, or a single generator (lane arrays, or floats standing for
    every lane)."""
    stacks = [x if np.ndim(x[0]) == 2 else
              type(x)._make(c[None] if np.ndim(c) else np.full((1, n), c) for c in x)
              for x in parts]
    stacks = [x for x in stacks if len(x[0])] or stacks[:1]
    if len(stacks) == 1:
        return stacks[0]
    return type(stacks[0])._make(np.concatenate(cs) for cs in zip(*stacks))


def _spread(x, m: int):
    """The single generator x as a stack of m copies, a float staying a
    float: numpy combines an (N,) array with an (m, N) one more slowly."""
    return type(x)._make(np.repeat(c[None], m, 0) if np.ndim(c) else c for c in x)


def _left(g, xs):
    """g x for every generator x of the stack xs."""
    return mul(_spread(g, len(xs.w)), xs) if len(xs.w) else xs


def _conjugate(g, xs):
    """g x g^-1 for every generator x of the stack xs."""
    if not len(xs.w):
        return xs
    gs = _spread(g, len(xs.w))
    return mul(mul(gs, xs), inv(gs))


def _set_row(x, i, value):
    """The stack x with generator i (or those of an index list) set to value."""
    out = [c.copy() for c in x]
    for c, v in zip(out, value):
        c[i] = v
    return type(x)._make(out)


def _pairs(handles, js):
    """The handle stack of the pairs js (indices from 0) of handles."""
    js, g = list(js), len(handles.w) // 2
    return _take(handles, js + [g + j for j in js])


def _map_point(f, p: ChartPoint, *others) -> ChartPoint:
    """The point of p's chart whose every component is f of the matching
    components of p and the others; the components of a family with no
    generators share f of one of them, an empty array."""
    ps = (p,) + others
    empty = []

    def stack(field):
        xs = [getattr(x, field) for x in ps]
        if len(xs[0][0]):
            return type(xs[0])._make(map(f, *xs))
        if not empty:
            empty.append(f(*(x[0] for x in xs)))
        return type(xs[0])._make(empty * len(xs[0]))

    return ChartPoint(p.chart, stack("thetas"), stack("gammas"), stack("handles"))


def select_lanes(p: ChartPoint, lanes) -> ChartPoint:
    """The batch of the lanes of p that lanes (an index or boolean
    array) picks."""
    lanes = np.flatnonzero(lanes) if np.asarray(lanes).dtype == bool else np.asarray(lanes)
    return _map_point(lambda c: c.take(lanes, axis=1), p)


def with_theta(p: ChartPoint, label: str, theta) -> ChartPoint:
    """p with the boundary value theta at circle label, which must not
    be the basepoint circle, whose theta is determined."""
    pos = p.chart.index_of(label)
    if pos == 0:
        raise ValueError("the basepoint circle's theta is determined")
    return ChartPoint(p.chart, _set_row(p.thetas, pos - 1, theta), p.gammas, p.handles)


def pick_generators(p: ChartPoint, chart: ModuliChart, positions, pairs) -> ChartPoint:
    """The point of chart whose theta and arc at boundary i + 1 are p's
    at boundary positions[i] (>= 1) and whose handle pair j + 1 is p's
    pair pairs[j] (from 1)."""
    rows = [pos - 1 for pos in positions]
    handles = _pairs(p.handles, [j - 1 for j in pairs])
    return ChartPoint(chart, _take(p.thetas, rows), _take(p.gammas, rows), handles)


def boundary_loop(p: ChartPoint, pos: int) -> UnitQuaternion:
    """Holonomy of the loop around boundary pos (>= 1) based at the
    basepoint: Gamma e^theta Gamma^-1."""
    return _loop(_row(p.gammas, pos - 1), _row(p.thetas, pos - 1))


def _loop(g, t) -> UnitQuaternion:
    return mul(mul(g, exp_su2(t)), inv(g))


def _commutators(handles) -> list:
    """[A_1,B_1] .. [A_g,B_g] of a handle stack, as row views."""
    g = len(handles.w) // 2
    return _rows(commutator(_take(handles, slice(g)), _take(handles, slice(g, None)))) if g else []


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
    factors = _rows(_loop(p.gammas, p.thetas)) if p.chart.k > 1 else []
    return su2.product(factors + _commutators(p.handles))


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
    return theta1_of(p) if pos == 0 else _row(p.thetas, pos - 1)


def moment(p: ChartPoint) -> AlgVector:
    """Signed boundary values in chart order, as a stack of k: +theta on
    incoming circles, -theta on outgoing ones."""
    signs = np.array([[p.chart.sign(label)] for label in p.chart.boundaries], dtype=float)
    return AlgVector._make(c * signs for c in _cat(p.lanes, theta1_of(p), p.thetas))


def action(gs, p: ChartPoint) -> ChartPoint:
    """SU(2)^k action of gs, a stack of k group elements, one factor per
    boundary in chart order."""
    if len(gs.w) != p.chart.k:
        raise ValueError("need one group element per boundary")
    return _act(_row(gs, 0), _take(gs, slice(1, None)), p)


def _act(g1, gi, p: ChartPoint) -> ChartPoint:
    """The action by g1 at the basepoint circle and the stack gi at the
    others."""
    thetas, gammas, handles = p.thetas, p.gammas, p.handles
    if p.chart.k > 1:
        thetas = adjoint(gi, thetas)
        gammas = mul(_left(g1, gammas), inv(gi))
    return ChartPoint(p.chart, thetas, gammas, _conjugate(g1, handles))


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
    tags = np.array([2] * k1 + [3] * g + [4] * g, dtype=np.uint64)[:, None]
    index = np.array([*range(k1), *range(g), *range(g)], dtype=np.uint64)[:, None]
    for trial in range(64):
        s = mix_seed(seed[todo], trial)
        if zero_thetas or not k1:
            thetas = AlgVector._make(np.zeros((3, k1, len(s))))
        else:
            thetas = sample_ball(math.pi, mix_seed(s, 1, index[:k1]))
        qs = UnitQuaternion._make(np.zeros((4, 0, len(s))))
        if k1 + g:
            qs = sample_haar(mix_seed(s, tags, index))
        p = ChartPoint(chart, thetas, _take(qs, slice(k1)), _take(qs, slice(k1, None)))
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
    """The stack component a with b written into the given lanes."""
    out = a.copy()
    out[:, lanes] = b
    return out


# --- chart moves ----------------------------------------------------------------


def rotate_first(p: ChartPoint, pos: int) -> ChartPoint:
    """Chart change making boundary pos (>= 1) the basepoint boundary;
    new boundary order is the cyclic rotation starting at pos."""
    k = p.chart.k
    if not 1 <= pos < k:
        raise ValueError("rotation position out of range")
    gi_inv = inv(_row(p.gammas, pos - 1))
    handles = _conjugate(gi_inv, p.handles)
    kq = _commutator_product(handles)
    new_order = p.chart.boundaries[pos:] + p.chart.boundaries[:pos]
    # boundaries after pos keep their arcs; the old basepoint boundary and
    # the rest follow, pushed past the commutators
    thetas = _cat(p.lanes, _take(p.thetas, slice(pos, None)), theta1_of(p),
                  _take(p.thetas, slice(pos - 1)))
    gammas = _cat(p.lanes, _left(gi_inv, _take(p.gammas, slice(pos, None))), mul(kq, gi_inv),
                  _left(kq, _left(gi_inv, _take(p.gammas, slice(pos - 1)))))
    chart = ModuliChart(p.chart.genus, new_order, p.chart.incoming)
    return ChartPoint(chart, thetas, gammas, handles)


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
    gi = inv(mul(inv(kq), _row(q.gammas, k - pos - 1)))
    handles = _conjugate(gi, q.handles)
    # new positions 1 .. k-pos-1 were old pos+1 .. k-1, new k-pos+1 .. k-1
    # were old 1 .. pos-1
    thetas = _cat(q.lanes, _take(q.thetas, slice(k - pos, None)), theta1_of(q),
                  _take(q.thetas, slice(k - pos - 1)))
    later = _left(inv(kq), _take(q.gammas, slice(k - pos, None)))
    gammas = _cat(q.lanes, _left(gi, later), gi, _left(gi, _take(q.gammas, slice(k - pos - 1))))
    order = q.chart.boundaries[k - pos:] + q.chart.boundaries[:k - pos]
    chart = ModuliChart(q.chart.genus, order, q.chart.incoming)
    return ChartPoint(chart, thetas, gammas, handles)


def swap_adjacent(p: ChartPoint, pos: int) -> ChartPoint:
    """Chart change exchanging boundaries pos and pos+1 (both >= 1):
    the later loop moves first, the earlier one gets conjugated past it."""
    return _swapped(p, pos, lambda ga, gb: (gb, mul(inv(boundary_loop(p, pos + 1)), ga)))


def swap_adjacent_inv(p: ChartPoint, pos: int) -> ChartPoint:
    """Inverse braid move of swap_adjacent(_, pos)."""
    return _swapped(p, pos, lambda ga, gb: (mul(boundary_loop(p, pos), gb), ga))


def _swapped(p: ChartPoint, pos: int, arcs) -> ChartPoint:
    """p with boundaries pos, pos+1 and their thetas exchanged, arcs(old arcs) their arcs."""
    if not 1 <= pos < p.chart.k - 1:
        raise ValueError("swap position out of range")
    i = pos - 1
    first, second = arcs(_row(p.gammas, i), _row(p.gammas, i + 1))
    rows = list(range(p.chart.k - 1))
    rows[i], rows[i + 1] = i + 1, i
    order = list(p.chart.boundaries)
    order[pos], order[pos + 1] = order[pos + 1], order[pos]
    chart = ModuliChart(p.chart.genus, tuple(order), p.chart.incoming)
    gammas = _cat(p.lanes, _take(p.gammas, slice(i)), first, second,
                  _take(p.gammas, slice(i + 2, None)))
    return ChartPoint(chart, _take(p.thetas, rows), gammas, p.handles)


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
        return glue(p2, label_b, p1, label_a)  # the basepoint piece must keep a boundary
    q1, script1 = _move_last(p1, label_a)
    q2, script2 = _move_first(p2, label_b)
    _check_moments(q1, label_a, theta_raw(q1, label_a), q2, label_b, theta_raw(q2, label_b))
    n, g2 = q1.lanes, q2.chart.genus
    gl = _row(q1.gammas, -1)
    boundaries = q1.chart.boundaries[:-1] + q2.chart.boundaries[1:]
    incoming = (q1.chart.incoming | q2.chart.incoming) - {label_a, label_b}
    chart = ModuliChart(q1.chart.genus + g2, boundaries, frozenset(incoming))
    thetas = _cat(n, _take(q1.thetas, slice(-1)), q2.thetas)
    gammas = _cat(n, _take(q1.gammas, slice(-1)), _left(gl, q2.gammas))
    h2 = _conjugate(gl, q2.handles)
    handles = _cat(n, _take(h2, slice(g2)), q1.a, _take(h2, slice(g2, None)), q1.b)
    glued = ChartPoint(chart, thetas, gammas, handles)
    su2.check_branch(su2.near_minus_one(chart_defect(glued)),
                     "glued point lies on the excluded locus")
    return glued, GlueRecipe("cross", q1.chart, q2.chart, label_a, label_b, tuple(script1),
                             tuple(script2))


def _check_moments(p1: ChartPoint, label_a: str, ta, p2: ChartPoint, label_b: str, tb):
    """MomentMismatch unless the signed moments ta at label_a of p1 and
    tb at label_b of p2 agree to MOMENT_TOL on every lane."""
    ma = su2.vec_neg(ta) if p1.chart.sign(label_a) < 0 else ta
    mb = su2.vec_neg(tb) if p2.chart.sign(label_b) < 0 else tb
    gap = su2.largest(su2.vec_dist(ma, mb))
    if gap > MOMENT_TOL:
        raise MomentMismatch("moments differ by %g" % gap)


def glue_self(p: ChartPoint, label_a: str, label_b: str):
    """Glue two boundaries of one connected piece; genus rises by one
    and the new handle pair is listed first."""
    if p.chart.sign(label_a) == p.chart.sign(label_b):
        raise MomentMismatch("glued circles need opposite roles")
    if p.chart.k < 3:
        raise MomentMismatch("self-gluing would close the surface")
    script = []
    if p.chart.index_of(label_a) == 0 or p.chart.index_of(label_b) == 0:
        other = [l for l in p.chart.boundaries if l not in (label_a, label_b)][0]
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
    ta, tb = _row(p.thetas, k - 3), _row(p.thetas, k - 2)
    _check_moments(p, label_a, ta, p, label_b, tb)
    ga, gb = _row(p.gammas, k - 3), _row(p.gammas, k - 2)
    a_star = mul(mul(ga, exp_su2(ta)), inv(gb))
    b_star = mul(gb, inv(ga))
    chart = ModuliChart(p.chart.genus + 1, p.chart.boundaries[:-2],
                        p.chart.incoming - {label_a, label_b})
    handles = _cat(p.lanes, a_star, p.a, b_star, p.b)
    glued = ChartPoint(chart, _take(p.thetas, slice(-2)), _take(p.gammas, slice(-2)), handles)
    su2.check_branch(su2.near_minus_one(chart_defect(glued)),
                     "self-glued point lies on the excluded locus")
    return glued, GlueRecipe("self", p.chart, None, label_a, label_b, tuple(script))


def split(q: ChartPoint, recipe: GlueRecipe):
    """Invert glue/glue_self with the gauge choice Gamma_glued = 1.

    Returns (p1, p2) for a cross recipe and a single point for a self
    recipe, undoing the recipe's normalization moves so the points come
    back in the charts glue was fed; the originals are recovered up to
    one SU(2) gauge factor at the glued circle.  Raises BranchError on
    the excised locus, where the glued circle's holonomy is -1 and no
    boundary value in the open ball exists."""
    n, g = q.lanes, q.chart.genus
    if recipe.kind == "self":
        a_star, b_star = _row(q.handles, 0), _row(q.handles, g)
        theta_a = log_su2(mul(b_star, a_star))
        thetas = _cat(n, q.thetas, theta_a, su2.vec_neg(theta_a))
        gammas = _cat(n, q.gammas, inv(b_star), ONE)
        back = ChartPoint(recipe.chart1, thetas, gammas, _pairs(q.handles, range(1, g)))
        return unapply_script(back, recipe.script1)
    chart1, chart2 = recipe.chart1, recipe.chart2
    k1, g2 = chart1.k, chart2.genus
    thetas1 = _take(q.thetas, slice(k1 - 2))
    gammas1 = _take(q.gammas, slice(k1 - 2))
    handles1 = _pairs(q.handles, range(g2, g))
    # piece 1's relation e^{theta_1} c_2..c_{k1-1} e^{theta_last} K1 = 1
    # determines its last boundary value once Gamma_last = 1
    ahead = ONE
    for c in _rows(_loop(gammas1, thetas1)) if k1 > 2 else []:
        ahead = mul(ahead, c)
    kq = _commutator_product(handles1)
    theta1 = theta1_of(q)
    c_last = mul(inv(ahead), mul(exp_su2(su2.vec_neg(theta1)), inv(kq)))
    theta_last = log_su2(c_last)
    p1 = ChartPoint(chart1, _cat(n, thetas1, theta_last), _cat(n, gammas1, ONE), handles1)
    p2 = ChartPoint(chart2, _take(q.thetas, slice(k1 - 2, None)),
                    _take(q.gammas, slice(k1 - 2, None)), _pairs(q.handles, range(g2)))
    return unapply_script(p1, recipe.script1), unapply_script(p2, recipe.script2)


# --- serialization ----------------------------------------------------------------


def flatten_point(p: ChartPoint) -> tuple:
    """Chart point as a flat real tuple, bit-exact field order:
    theta_2..theta_k as (a, b, c), Gamma_2..Gamma_k as (w, x, y, z),
    then A_1, B_1 .. A_g, B_g as (w, x, y, z) each."""
    g = p.chart.genus
    handles = [_row(p.handles, j + half) for j in range(g) for half in (0, g)]
    return tuple(c for x in _rows(p.thetas) + _rows(p.gammas) + handles for c in x)


# --- word evaluation --------------------------------------------------------------


def eval_generator(p: ChartPoint, kind: str, ref) -> UnitQuaternion:
    if kind == "a":
        return _row(p.handles, ref - 1)
    if kind == "b":
        return _row(p.handles, p.chart.genus + ref - 1)
    pos = p.chart.index_of(ref)
    if kind == "g":
        return ONE if pos == 0 else _row(p.gammas, pos - 1)
    if kind == "d":
        return exp_su2(theta1_of(p)) if pos == 0 else boundary_loop(p, pos)
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
        t = list(p.thetas)
        t[c] = t[c].copy()  # a new array: p's stays as it is
        t[c][i] = t[c][i] + h
        return ChartPoint(p.chart, AlgVector(*t), p.gammas, p.handles)
    block, c = divmod(coord - 3 * k1, 3)
    step = exp_su2(AlgVector(*[h if j == c else 0.0 for j in range(3)]))
    if block < k1:
        gammas = _set_row(p.gammas, block, mul(step, _row(p.gammas, block)))
        return ChartPoint(p.chart, p.thetas, gammas, p.handles)
    j, which = divmod(block - k1, 2)
    row = j + which * p.chart.genus
    handles = _set_row(p.handles, row, mul(step, _row(p.handles, row)))
    return ChartPoint(p.chart, p.thetas, p.gammas, handles)


def constraint_map(p: ChartPoint, words) -> np.ndarray:
    """log Hol_w for every word, 3 values each; (N, 3 * len(words)) on a
    batch."""
    return su2.stack_lanes([c for w in words for c in log_su2(eval_word(p, w))])


def _loop_factors(p: ChartPoint, start: int, stop: int) -> list:
    """Elementary factors (value, sign, column block, u) of the boundary
    loops Gamma e^theta Gamma^-1 at positions start .. stop-1 (>= 1), in
    order; u is None for the identity."""
    t = _take(p.thetas, slice(start - 1, stop - 1))
    es, us = _rows(exp_su2(t)), su2.left_jacobian(t)
    out = []
    for i, pos in enumerate(range(start, stop)):
        g, col = _row(p.gammas, pos - 1), p.chart.k - 2 + pos
        out += [(g, 1, col, None), (es[i], 1, pos - 1, us[i]), (g, -1, col, None)]
    return out


def _defect_factors(p: ChartPoint) -> list:
    out = _loop_factors(p, 1, p.chart.k) if p.chart.k > 1 else []
    first, g = 2 * (p.chart.k - 1), p.chart.genus
    for j in range(g):
        a, b = _row(p.handles, j), _row(p.handles, g + j)
        ca, cb = first + 2 * j, first + 2 * j + 1
        out.extend(((a, 1, ca, None), (b, 1, cb, None), (a, -1, ca, None), (b, -1, cb, None)))
    return out


def _inverse(factors) -> list:
    return [(q, -sign, col, u) for q, sign, col, u in reversed(factors)]


def _generator_factors(p: ChartPoint, kind: str, ref) -> list:
    k1 = p.chart.k - 1
    if kind in ("a", "b"):
        which = 0 if kind == "a" else 1
        return [(eval_generator(p, kind, ref), 1, 2 * k1 + 2 * (ref - 1) + which, None)]
    pos = p.chart.index_of(ref)
    if kind == "g":
        return [] if pos == 0 else [(_row(p.gammas, pos - 1), 1, k1 + pos - 1, None)]
    if kind == "d":
        return _inverse(_defect_factors(p)) if pos == 0 else _loop_factors(p, pos, pos + 1)
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
    lane, a (dim - rank, dim) array.  No words, or a constraint
    differential that is the same on each of two or more lanes, bit for
    bit (pinned generators only), give an int rank and one basis, rows of
    length chart.dim."""
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
    bits = jac.view(np.uint64)
    if bits.ndim == 3 and len(bits) > 1 and np.all(bits == bits[:1]):
        jac = jac[0]  # the same on every lane (pinned generators): one SVD serves all
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

    Each attempt re-tests every word but a single handle a_j or b_j
    against that residual.  A pinned handle holds the exact floats of
    ONE, so its constraint log is exactly 0.0 on every lane and the test
    would pass every lane it is given; with handle words only, no word
    is evaluated.  A pinned d word of a non-basepoint circle is still
    tested: its loop Gamma e^0 Gamma^-1 rounds to a few 1e-17, not to
    0.

    All lanes draw, pin, refine and test admissibility at once; a lane
    that fails moves on to its next attempt seed, so each lane is the
    point its seed gives as a one-lane batch.  A lane whose random_point
    draw fails stops there, as its seed alone raises.  If any lane finds
    no sample, SamplingFailed names them all (its lanes mask) and carries
    the points of the others."""
    pinned_handles = set()  # rows of handles pinned to the identity
    pinned_thetas = set()
    hard = []
    tested = []  # the words a pinned point does not satisfy exactly
    for w in words:
        single = w.single_generator()
        if single and single[0] in ("a", "b"):
            pinned_handles.add(single[1] - 1 + (0 if single[0] == "a" else chart.genus))
            continue
        tested.append(w)
        if single and single[0] == "d" and chart.index_of(single[1]) > 0:
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
        if tested:
            ok = _residual_below(p, ok, tested, 1e-10)
        ok = ok & is_admissible(p, ADMISSIBLE_MARGIN)
        if out is None:  # p itself when every lane drew
            out = p if len(todo) == len(seed) else _map_point(
                lambda c: np.empty((len(c), len(seed))), p)
        if out is not p:
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
    """p with the pinned rows of thetas set to zero and those of handles
    to the identity."""
    thetas, handles = p.thetas, p.handles
    if pinned_thetas:
        thetas = _set_row(thetas, sorted(pinned_thetas), su2.ZERO_VEC)
    if pinned_handles:
        handles = _set_row(handles, sorted(pinned_handles), ONE)
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
        t = q.thetas
        n = t.norm()
        thetas = su2.where(n >= math.pi - 1e-6,
                           su2.vec_scale(t, (math.pi - 1e-3) / np.maximum(n, 1.0)), t)
        q = _pin(ChartPoint(q.chart, thetas, q.gammas, q.handles), pinned_thetas, pinned_handles)
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
    cross = _cross(a, b)
    dot = a.a * b.a + a.b * b.b + a.c * b.c
    s = cross.norm()
    parallel = s < 1e-12
    if parallel.any():
        s = np.where(parallel, 1.0, s)
    angle = _kernel.atan2(s, dot)
    out = exp_su2(AlgVector._make(c / s * angle / 2 for c in cross))
    if parallel.any():
        out = su2.where(parallel, su2.where(dot > 0, ONE, _half_turn(a)), out)
    return out


def _half_turn(a: AlgVector) -> UnitQuaternion:
    """Turn by pi around an axis orthogonal to the unit vector a."""
    axis = su2.where(abs(a.a) < 0.9, AlgVector(1.0, 0.0, 0.0), AlgVector(0.0, 1.0, 0.0))
    ortho = _cross(a, axis)
    n = ortho.norm()
    return exp_su2(AlgVector._make(c / n * math.pi / 2 for c in ortho))


def _cross(a: AlgVector, b: AlgVector) -> AlgVector:
    return AlgVector(a.b * b.c - a.c * b.b, a.c * b.a - a.a * b.c, a.a * b.b - a.b * b.a)


def _vec(q: UnitQuaternion) -> AlgVector:
    return AlgVector(q.x, q.y, q.z)


def _frame(p: ChartPoint):
    """canonical_gauge's frame: A_1, B_1 .. A_g, B_g as vectors, then the thetas."""
    g = p.chart.genus
    yield from (_vec(_row(p.handles, j + half)) for j in range(g) for half in (0, g))
    yield from _rows(p.thetas)


def canonical_gauge(p: ChartPoint) -> ChartPoint:
    """Deterministic gauge fixing: every arc holonomy is set to 1 (the
    factor at boundary i is forced to g_1 Gamma_i), then the residual
    diagonal rotation is pinned by sending the first usable frame
    vector (handle logs first, boundary values after) to the x-axis and
    the next independent one into the upper xy-plane.  Returns the
    canonical point.  Every lane makes these choices for itself; open
    marks the lanes still looking."""
    q = _act(ONE, p.gammas, p)
    v1, open_ = None, np.True_
    for v in _frame(q):
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
    for v in _frame(q):
        w = adjoint(r1, v)
        planar = _kernel.hypot(w.b, w.c)
        take = twist_open & (planar > 1e-8)
        if take.any():
            ang = _kernel.atan2(w.c, w.b)
            twist = su2.where(take, exp_su2(AlgVector(-ang / 2, 0.0, 0.0)), twist)
            twist_open = twist_open & (planar <= 1e-8)
            if not twist_open.any():
                break
    r = mul(twist, r1)
    out = _act(r, _spread(r, p.chart.k - 1), q)
    # a lane with no usable frame vector keeps q
    if open_.any():
        return _map_point(lambda a, b: np.where(open_, a, b), q, out)
    return out


def point_distance(p: ChartPoint, q: ChartPoint):
    """Largest coordinate distance, per lane."""
    dists = []
    if p.chart.k > 1:
        dists += [su2.vec_dist(p.thetas, q.thetas), su2.quat_dist(p.gammas, q.gammas)]
    if p.chart.genus:
        dists.append(su2.quat_dist(p.handles, q.handles))
    return np.max(np.concatenate(dists), axis=0, initial=0.0) if dists else np.zeros(p.lanes)


def gauge_equivalent(p: ChartPoint, q: ChartPoint, tol: float = 1e-9):
    """(equal mod gauge, residual): the residual is the distance between
    the canonical forms of the two points, which are fixed as one batch
    of the lanes of p and then those of q."""
    if p.chart != q.chart:
        raise ValueError("points live in different charts")
    n = p.lanes
    both = canonical_gauge(_map_point(lambda a, b: np.concatenate((a, b), axis=1), p, q))
    r = point_distance(*(_map_point(lambda c: c[:, h], both) for h in (np.s_[:n], np.s_[n:])))
    return (r < tol, r)
