"""Test-side chart helpers: the central-difference Jacobians that the
analytic ones in cobord2.charts are checked against, the reader of
flatten_point's layout, gluing that drops the lanes on the excluded
locus, and the chart operations with one kernel call per generator that
the generator axis is checked against."""

from __future__ import annotations

import functools
import math

import numpy as np

from cobord2 import _kernel, su2
from cobord2 import charts as ch
from cobord2.su2 import AlgVector, UnitQuaternion, exp_su2, log_su2, mul

FD_STEP = 1e-6


def fd_constraint_jacobian(p, words) -> np.ndarray:
    """Central differences of constraint_map along every coordinate of
    charts.perturb; lanes on the leading axis, as constraint_jacobian
    has them."""
    cols = []
    for coord in range(p.chart.dim):
        fp = ch.constraint_map(ch.perturb(p, coord, FD_STEP), words)
        fm = ch.constraint_map(ch.perturb(p, coord, -FD_STEP), words)
        cols.append((fp - fm) / (2.0 * FD_STEP))
    if not cols:
        return np.zeros((3 * len(words), 0))
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def fd_relation_jacobian(p) -> np.ndarray:
    """Central differences of log(e^{theta_1} D) with theta_1 free:
    the theta_1 columns first, then charts.perturb's order."""
    t1 = ch.theta1_of(p)

    def rel(t1v, pt):
        return su2.stack_lanes(log_su2(mul(exp_su2(t1v), ch.chart_defect(pt))))

    cols = []
    for c in range(3):
        hp = list(t1)
        hm = list(t1)
        hp[c] = hp[c] + FD_STEP
        hm[c] = hm[c] - FD_STEP
        cols.append((rel(AlgVector(*hp), p) - rel(AlgVector(*hm), p)) / (2 * FD_STEP))
    for coord in range(p.chart.dim):
        fp = rel(t1, ch.perturb(p, coord, FD_STEP))
        fm = rel(t1, ch.perturb(p, coord, -FD_STEP))
        cols.append((fp - fm) / (2 * FD_STEP))
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def kernel_dim_and_rank(jac, rtol=ch.SVD_RTOL) -> tuple:
    """(kernel dimension, rank) with the threshold the charts use, of one
    matrix or of the one matrix of a one-lane stack."""
    jac = jac.reshape(jac.shape[-2:])
    s = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.sum(s > rtol * s[0])) if len(s) else 0
    return (jac.shape[1] - rank, rank)


def one_lane(seed) -> np.ndarray:
    """A seed as a one-lane seed array."""
    return np.array([seed], dtype=np.uint64)


def ranks_and_sizes(frame, n) -> list:
    """(rank, number of kernel vectors) of a tangent frame on each of n
    lanes; a frame the same on every lane has one of each."""
    if np.ndim(frame.rank) == 0:
        return [(int(frame.rank), len(frame.vectors))] * n
    return list(zip(frame.rank.tolist(), [len(v) for v in frame.vectors]))


def unflatten_point(chart, values):
    """Inverse of charts.flatten_point for the given chart."""
    values = list(values)
    n = chart.k - 1
    want = 3 * n + 4 * n + 8 * chart.genus
    if len(values) != want:
        raise ValueError("expected %d reals, got %d" % (want, len(values)))
    pos = 0
    thetas = []
    for _ in range(n):
        thetas.append(AlgVector(*values[pos:pos + 3]))
        pos += 3
    gammas = []
    for _ in range(n):
        gammas.append(UnitQuaternion(*values[pos:pos + 4]))
        pos += 4
    handles = []
    for _ in range(chart.genus):
        a = UnitQuaternion(*values[pos:pos + 4])
        b = UnitQuaternion(*values[pos + 4:pos + 8])
        handles.append((a, b))
        pos += 8
    return ch.ChartPoint(chart, tuple(thetas), tuple(gammas), tuple(handles))


def glue_lanes(p1, label_a, p2, label_b, n):
    """charts.glue of two batches of n lanes, dropping the lanes on the
    excluded locus as suites.round_trip does; returns (kept lane
    indices, glued, recipe)."""
    kept = np.arange(n)
    while True:
        try:
            return (kept,) + ch.glue(p1, label_a, p2, label_b)
        except su2.BranchError as err:
            kept = kept[~err.lanes]
            p1, p2 = ch.select_lanes(p1, ~err.lanes), ch.select_lanes(p2, ~err.lanes)


# --- the chart operations one generator at a time ------------------------------------
#
# cobord2.charts runs the per-generator work of an operation as one call
# over a generator axis (su2.each).  These are the same operations with
# one kernel call per generator, as a reference that every lane must
# equal bit for bit.  They share no code with charts that su2.each
# reaches, and compute every chart defect themselves.


def loop_of(g, t):
    """Gamma e^theta Gamma^-1."""
    return su2.mul(su2.mul(g, su2.exp_su2(t)), su2.inv(g))


def defect_loop(p):
    """charts.chart_defect, one boundary loop and one commutator at a time."""
    factors = [loop_of(g, t) for g, t in zip(p.gammas, p.thetas)]
    factors.extend(su2.commutator(a, b) for a, b in p.handles)
    return su2.product(factors)


def theta1_loop(p):
    return su2.log_su2(su2.inv(defect_loop(p)))


def random_point_loop(chart, seed, zero_thetas=False):
    """charts.random_point, one Haar and one ball draw per generator."""
    todo = np.arange(len(seed))
    out = None
    for trial in range(64):
        s = su2.mix_seed(seed[todo], trial)
        thetas = tuple(
            AlgVector(0.0, 0.0, 0.0) if zero_thetas
            else su2.sample_ball(math.pi, su2.mix_seed(s, 1, i))
            for i in range(chart.k - 1))
        gammas = tuple(su2.sample_haar(su2.mix_seed(s, 2, i)) for i in range(chart.k - 1))
        handles = tuple((su2.sample_haar(su2.mix_seed(s, 3, j)),
                         su2.sample_haar(su2.mix_seed(s, 4, j))) for j in range(chart.genus))
        p = ch.ChartPoint(chart, thetas, gammas, handles)
        ok = np.broadcast_to(defect_loop(p)[0] > -1.0 + ch.ADMISSIBLE_MARGIN, todo.shape)
        out = p if out is None else ch._map_point(lambda a, b: ch._put(a, todo, b), out, p)
        todo = todo[~ok]
        if not len(todo):
            return out
    raise ch.SamplingFailed("no admissible point found")


def action_loop(gs, p):
    """charts.action, one generator at a time."""
    g1 = gs[0]
    thetas = tuple(su2.adjoint(gs[i], t) for i, t in enumerate(p.thetas, start=1))
    gammas = tuple(su2.mul(su2.mul(g1, gm), su2.inv(gs[i]))
                   for i, gm in enumerate(p.gammas, start=1))
    handles = tuple((su2.mul(su2.mul(g1, a), su2.inv(g1)), su2.mul(su2.mul(g1, b), su2.inv(g1)))
                    for a, b in p.handles)
    return ch.ChartPoint(p.chart, thetas, gammas, handles)


def _commutator_product_loop(handles):
    kq = su2.ONE
    for a, b in handles:
        kq = su2.mul(kq, su2.commutator(a, b))
    return kq


def rotate_first_loop(p, pos):
    """charts.rotate_first, one generator at a time."""
    k = p.chart.k
    gi = p.gammas[pos - 1]
    gi_inv = su2.inv(gi)
    handles = tuple((su2.mul(su2.mul(gi_inv, a), gi), su2.mul(su2.mul(gi_inv, b), gi))
                    for a, b in p.handles)
    kq = _commutator_product_loop(handles)
    thetas, gammas = [], []
    for j in range(pos + 1, k):
        thetas.append(p.thetas[j - 1])
        gammas.append(su2.mul(gi_inv, p.gammas[j - 1]))
    thetas.append(theta1_loop(p))
    gammas.append(su2.mul(kq, gi_inv))
    for j in range(1, pos):
        thetas.append(p.thetas[j - 1])
        gammas.append(su2.mul(kq, su2.mul(gi_inv, p.gammas[j - 1])))
    order = p.chart.boundaries[pos:] + p.chart.boundaries[:pos]
    chart = ch.ModuliChart(p.chart.genus, order, p.chart.incoming)
    return ch.ChartPoint(chart, tuple(thetas), tuple(gammas), handles)


def rotate_first_inv_loop(q, pos):
    """charts.rotate_first_inv, one generator at a time."""
    k = q.chart.k
    kq = _commutator_product_loop(q.handles)
    gi = su2.inv(su2.mul(su2.inv(kq), q.gammas[k - pos - 1]))
    gi_inv = su2.inv(gi)
    handles = tuple((su2.mul(su2.mul(gi, a), gi_inv), su2.mul(su2.mul(gi, b), gi_inv))
                    for a, b in q.handles)
    thetas = [None] * (k - 1)
    gammas = [None] * (k - 1)
    thetas[pos - 1] = theta1_loop(q)
    gammas[pos - 1] = gi
    for newpos in range(1, k):
        oldpos = (newpos + pos) % k
        if oldpos == 0:
            continue
        if newpos < k - pos:
            gammas[oldpos - 1] = su2.mul(gi, q.gammas[newpos - 1])
        else:
            gammas[oldpos - 1] = su2.mul(gi, su2.mul(su2.inv(kq), q.gammas[newpos - 1]))
        thetas[oldpos - 1] = q.thetas[newpos - 1]
    order = q.chart.boundaries[k - pos:] + q.chart.boundaries[:k - pos]
    chart = ch.ModuliChart(q.chart.genus, order, q.chart.incoming)
    return ch.ChartPoint(chart, tuple(thetas), tuple(gammas), handles)


def _move_last_loop(p, label):
    script = []
    pos = p.chart.index_of(label)
    if pos == 0:
        if p.chart.k == 1:
            return p, script
        p = rotate_first_loop(p, 1)
        script.append(("rot", 1))
        pos = p.chart.index_of(label)
    while pos < p.chart.k - 1:
        p = ch.swap_adjacent(p, pos)
        script.append(("swap", pos))
        pos += 1
    return p, script


def _move_first_loop(p, label):
    pos = p.chart.index_of(label)
    if pos == 0:
        return p, []
    return rotate_first_loop(p, pos), [("rot", pos)]


def _signed_theta_loop(p, label):
    pos = p.chart.index_of(label)
    t = theta1_loop(p) if pos == 0 else p.thetas[pos - 1]
    return su2.vec_neg(t) if p.chart.sign(label) < 0 else t


def glue_loop(p1, label_a, p2, label_b):
    """charts.glue of two points, one generator at a time."""
    if p1.chart.k == 1:
        return glue_loop(p2, label_b, p1, label_a)
    q1, script1 = _move_last_loop(p1, label_a)
    q2, script2 = _move_first_loop(p2, label_b)
    gap = su2.largest(su2.vec_dist(_signed_theta_loop(q1, label_a),
                                   _signed_theta_loop(q2, label_b)))
    if gap > ch.MOMENT_TOL:
        raise ch.MomentMismatch("moments differ by %g" % gap)
    gl = q1.gammas[-1]
    boundaries = q1.chart.boundaries[:-1] + q2.chart.boundaries[1:]
    incoming = (q1.chart.incoming | q2.chart.incoming) - {label_a, label_b}
    chart = ch.ModuliChart(q1.chart.genus + q2.chart.genus, boundaries, frozenset(incoming))
    gammas = q1.gammas[:-1] + tuple(su2.mul(gl, g) for g in q2.gammas)
    handles2 = tuple((su2.mul(su2.mul(gl, a), su2.inv(gl)), su2.mul(su2.mul(gl, b), su2.inv(gl)))
                     for a, b in q2.handles)
    glued = ch.ChartPoint(chart, q1.thetas[:-1] + q2.thetas, gammas, handles2 + q1.handles)
    su2.check_branch(su2.near_minus_one(defect_loop(glued)),
                     "glued point lies on the excluded locus")
    return glued, ch.GlueRecipe("cross", q1.chart, q2.chart, label_a, label_b,
                                tuple(script1), tuple(script2))


def _unapply_loop(p, script):
    for kind, pos in reversed(script):
        p = rotate_first_inv_loop(p, pos) if kind == "rot" else ch.swap_adjacent_inv(p, pos)
    return p


def split_loop(q, recipe):
    """charts.split of a cross recipe, one generator at a time."""
    chart1, chart2 = recipe.chart1, recipe.chart2
    k1, g2 = chart1.k, chart2.genus
    thetas1, gammas1 = q.thetas[:k1 - 2], q.gammas[:k1 - 2]
    handles1 = q.handles[g2:]
    ahead = su2.ONE
    for t, g in zip(thetas1, gammas1):
        ahead = su2.mul(ahead, loop_of(g, t))
    kq = _commutator_product_loop(handles1)
    c_last = su2.mul(su2.inv(ahead),
                     su2.mul(su2.exp_su2(su2.vec_neg(theta1_loop(q))), su2.inv(kq)))
    p1 = ch.ChartPoint(chart1, thetas1 + (su2.log_su2(c_last),), gammas1 + (su2.ONE,), handles1)
    p2 = ch.ChartPoint(chart2, q.thetas[k1 - 2:], q.gammas[k1 - 2:], q.handles[:g2])
    return _unapply_loop(p1, recipe.script1), _unapply_loop(p2, recipe.script2)


def canonical_gauge_loop(p):
    """charts.canonical_gauge with action_loop for both of its actions."""
    k = p.chart.k
    q = action_loop((su2.ONE,) + tuple(p.gammas), p)
    frame = [ch._vec(x) for pair in q.handles for x in pair] + list(q.thetas)
    v1, open_ = None, True
    for v in frame:
        n = v.norm()
        take = open_ & (n > 1e-8)
        if np.any(take):
            v1 = v if v1 is None else su2.where(take, v, v1)
            open_ = open_ & (n <= 1e-8)
            if not np.any(open_):
                break
    if v1 is None:
        return q
    r1 = ch._rotation_between(v1, AlgVector(v1.norm(), 0.0, 0.0))
    twist, twist_open = su2.ONE, True
    for v in frame:
        w = su2.adjoint(r1, v)
        planar = _kernel.hypot(w.b, w.c)
        take = twist_open & (planar > 1e-8)
        if np.any(take):
            ang = _kernel.atan2(w.c, w.b)
            twist = su2.where(take, su2.exp_su2(AlgVector(-ang / 2, 0.0, 0.0)), twist)
            twist_open = twist_open & (planar <= 1e-8)
            if not np.any(twist_open):
                break
    out = action_loop((su2.mul(twist, r1),) * k, q)
    if np.any(open_):
        return ch._map_point(lambda a, b: np.where(open_, a, b), q, out)
    return out


def point_distance_loop(p, q):
    """charts.point_distance, one generator at a time."""
    dists = [su2.vec_dist(t1, t2) for t1, t2 in zip(p.thetas, q.thetas)]
    dists += [su2.quat_dist(g1, g2) for g1, g2 in zip(p.gammas, q.gammas)]
    dists += [su2.quat_dist(x1, x2) for h1, h2 in zip(p.handles, q.handles)
              for x1, x2 in zip(h1, h2)]
    return functools.reduce(np.maximum, dists, 0.0)
