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


def stack(values, n, kind):
    """Values of kind, one per generator (each component an (n,) lane
    array or a float standing for every lane), as the stack of kind with
    (len(values), n) components that a ChartPoint holds."""
    return kind._make(
        np.array([np.broadcast_to(np.asarray(v[c], dtype=float), (n,)) for v in values]
                 ).reshape(len(values), n)
        for c in range(len(kind._fields)))


def point(chart, thetas, gammas, handles, n):
    """The ChartPoint of n lanes with the given generators: thetas and
    gammas one per boundary 2..k, handles as (A_j, B_j) pairs."""
    return ch.ChartPoint(chart, stack(thetas, n, AlgVector), stack(gammas, n, UnitQuaternion),
                         stack([a for a, _ in handles] + [b for _, b in handles], n,
                               UnitQuaternion))


def rows(x) -> list:
    """The generators of a stack, one value per generator."""
    return [type(x)._make(cs) for cs in zip(*x)]


def generators(p):
    """(thetas, gammas, handle pairs) of a point, one value per
    generator, as point takes them."""
    hs, g = rows(p.handles), p.chart.genus
    return tuple(rows(p.thetas)), tuple(rows(p.gammas)), tuple(zip(hs[:g], hs[g:]))


def unflatten_point(chart, values):
    """Inverse of charts.flatten_point for the given chart; a float
    value fills one lane."""
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
    lanes = max((np.size(v) for v in values), default=1)
    return point(chart, thetas, gammas, handles, lanes)


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
# cobord2.charts holds each generator family of a point as one stack and
# runs the per-generator work of an operation once on the stack.  These
# are the same operations with one kernel call per generator, as a
# reference that every lane must equal bit for bit.  They read a point's
# generators as row values (generators), build their results with point,
# and share no code with charts that acts on a stack.


def loop_of(g, t):
    """Gamma e^theta Gamma^-1."""
    return su2.mul(su2.mul(g, su2.exp_su2(t)), su2.inv(g))


def conjugate(g, x):
    return su2.mul(su2.mul(g, x), su2.inv(g))


def defect_loop(p):
    """charts.chart_defect, one boundary loop and one commutator at a time."""
    thetas, gammas, handles = generators(p)
    factors = [loop_of(g, t) for g, t in zip(gammas, thetas)]
    factors.extend(su2.commutator(a, b) for a, b in handles)
    return su2.product(factors)


def theta1_loop(p):
    return su2.log_su2(su2.inv(defect_loop(p)))


def _merge(out, lanes, p):
    """out with the lanes of p written into the given lanes."""
    def merge(field):
        parts = []
        for a, b in zip(getattr(out, field), getattr(p, field)):
            a = a.copy()
            a[:, lanes] = b
            parts.append(a)
        return type(getattr(out, field))._make(parts)
    return ch.ChartPoint(out.chart, merge("thetas"), merge("gammas"), merge("handles"))


def random_point_loop(chart, seed, zero_thetas=False):
    """charts.random_point, one Haar and one ball draw per generator."""
    todo = np.arange(len(seed))
    out = None
    for trial in range(64):
        s = su2.mix_seed(seed[todo], trial)
        thetas = [
            AlgVector(0.0, 0.0, 0.0) if zero_thetas
            else su2.sample_ball(math.pi, su2.mix_seed(s, 1, i))
            for i in range(chart.k - 1)]
        gammas = [su2.sample_haar(su2.mix_seed(s, 2, i)) for i in range(chart.k - 1)]
        handles = [(su2.sample_haar(su2.mix_seed(s, 3, j)), su2.sample_haar(su2.mix_seed(s, 4, j)))
                   for j in range(chart.genus)]
        p = point(chart, thetas, gammas, handles, len(todo))
        ok = np.broadcast_to(defect_loop(p)[0] > -1.0 + ch.ADMISSIBLE_MARGIN, todo.shape)
        out = p if out is None else _merge(out, todo, p)
        todo = todo[~ok]
        if not len(todo):
            return out
    raise ch.SamplingFailed("no admissible point found")


def action_loop(gs, p):
    """charts.action of a stack of k group elements, one generator at a
    time."""
    gs = rows(gs)
    g1 = gs[0]
    thetas, gammas, handles = generators(p)
    thetas = [su2.adjoint(gi, t) for gi, t in zip(gs[1:], thetas)]
    gammas = [su2.mul(su2.mul(g1, gm), su2.inv(gi)) for gi, gm in zip(gs[1:], gammas)]
    handles = [(conjugate(g1, a), conjugate(g1, b)) for a, b in handles]
    return point(p.chart, thetas, gammas, handles, p.lanes)


def _commutator_product_loop(handles):
    kq = su2.ONE
    for a, b in handles:
        kq = su2.mul(kq, su2.commutator(a, b))
    return kq


def rotate_first_loop(p, pos):
    """charts.rotate_first, one generator at a time."""
    k = p.chart.k
    old_thetas, old_gammas, old_handles = generators(p)
    gi_inv = su2.inv(old_gammas[pos - 1])
    handles = [(conjugate(gi_inv, a), conjugate(gi_inv, b)) for a, b in old_handles]
    kq = _commutator_product_loop(handles)
    thetas, gammas = [], []
    for j in range(pos + 1, k):
        thetas.append(old_thetas[j - 1])
        gammas.append(su2.mul(gi_inv, old_gammas[j - 1]))
    thetas.append(theta1_loop(p))
    gammas.append(su2.mul(kq, gi_inv))
    for j in range(1, pos):
        thetas.append(old_thetas[j - 1])
        gammas.append(su2.mul(kq, su2.mul(gi_inv, old_gammas[j - 1])))
    order = p.chart.boundaries[pos:] + p.chart.boundaries[:pos]
    chart = ch.ModuliChart(p.chart.genus, order, p.chart.incoming)
    return point(chart, thetas, gammas, handles, p.lanes)


def rotate_first_inv_loop(q, pos):
    """charts.rotate_first_inv, one generator at a time."""
    k = q.chart.k
    old_thetas, old_gammas, old_handles = generators(q)
    kq = _commutator_product_loop(old_handles)
    gi = su2.inv(su2.mul(su2.inv(kq), old_gammas[k - pos - 1]))
    handles = [(conjugate(gi, a), conjugate(gi, b)) for a, b in old_handles]
    thetas = [None] * (k - 1)
    gammas = [None] * (k - 1)
    thetas[pos - 1] = theta1_loop(q)
    gammas[pos - 1] = gi
    for newpos in range(1, k):
        oldpos = (newpos + pos) % k
        if oldpos == 0:
            continue
        if newpos < k - pos:
            gammas[oldpos - 1] = su2.mul(gi, old_gammas[newpos - 1])
        else:
            gammas[oldpos - 1] = su2.mul(gi, su2.mul(su2.inv(kq), old_gammas[newpos - 1]))
        thetas[oldpos - 1] = old_thetas[newpos - 1]
    order = q.chart.boundaries[k - pos:] + q.chart.boundaries[:k - pos]
    chart = ch.ModuliChart(q.chart.genus, order, q.chart.incoming)
    return point(chart, thetas, gammas, handles, q.lanes)


def _swapped_chart(chart, pos):
    order = list(chart.boundaries)
    order[pos], order[pos + 1] = order[pos + 1], order[pos]
    return ch.ModuliChart(chart.genus, tuple(order), chart.incoming)


def swap_adjacent_loop(p, pos):
    """charts.swap_adjacent, one generator at a time."""
    thetas, gammas, handles = (list(x) for x in generators(p))
    i = pos - 1
    c_next = loop_of(gammas[i + 1], thetas[i + 1])
    thetas[i], thetas[i + 1] = thetas[i + 1], thetas[i]
    gammas[i], gammas[i + 1] = gammas[i + 1], su2.mul(su2.inv(c_next), gammas[i])
    return point(_swapped_chart(p.chart, pos), thetas, gammas, handles, p.lanes)


def swap_adjacent_inv_loop(p, pos):
    """charts.swap_adjacent_inv, one generator at a time."""
    thetas, gammas, handles = (list(x) for x in generators(p))
    i = pos - 1
    c_old_next = loop_of(gammas[i], thetas[i])
    thetas[i], thetas[i + 1] = thetas[i + 1], thetas[i]
    gammas[i], gammas[i + 1] = su2.mul(c_old_next, gammas[i + 1]), gammas[i]
    return point(_swapped_chart(p.chart, pos), thetas, gammas, handles, p.lanes)


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
        p = swap_adjacent_loop(p, pos)
        script.append(("swap", pos))
        pos += 1
    return p, script


def _move_first_loop(p, label):
    pos = p.chart.index_of(label)
    if pos == 0:
        return p, []
    return rotate_first_loop(p, pos), [("rot", pos)]


def move_boundary_first_loop(p, label):
    """charts.move_boundary_first, one generator at a time."""
    return _move_first_loop(p, label)[0]


def permute_to_chart_loop(p, chart):
    """The boundary moves of crosscheck._permute_to_chart (the target's
    first circle moved first, then adjacent swaps into its order), one
    generator at a time."""
    q = p
    if q.chart.boundaries[0] != chart.boundaries[0]:
        q = move_boundary_first_loop(q, chart.boundaries[0])
    for want_pos in range(1, chart.k):
        pos = q.chart.index_of(chart.boundaries[want_pos])
        while pos > want_pos:
            q = swap_adjacent_loop(q, pos - 1)
            pos -= 1
    return q


def _signed_theta_loop(p, label):
    pos = p.chart.index_of(label)
    t = theta1_loop(p) if pos == 0 else generators(p)[0][pos - 1]
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
    thetas1, gammas1, handles1 = generators(q1)
    thetas2, gammas2, handles2 = generators(q2)
    gl = gammas1[-1]
    boundaries = q1.chart.boundaries[:-1] + q2.chart.boundaries[1:]
    incoming = (q1.chart.incoming | q2.chart.incoming) - {label_a, label_b}
    chart = ch.ModuliChart(q1.chart.genus + q2.chart.genus, boundaries, frozenset(incoming))
    gammas = gammas1[:-1] + tuple(su2.mul(gl, g) for g in gammas2)
    handles = tuple((conjugate(gl, a), conjugate(gl, b)) for a, b in handles2) + handles1
    glued = point(chart, thetas1[:-1] + thetas2, gammas, handles, q1.lanes)
    su2.check_branch(su2.near_minus_one(defect_loop(glued)),
                     "glued point lies on the excluded locus")
    return glued, ch.GlueRecipe("cross", q1.chart, q2.chart, label_a, label_b,
                                tuple(script1), tuple(script2))


def _unapply_loop(p, script):
    for kind, pos in reversed(script):
        p = rotate_first_inv_loop(p, pos) if kind == "rot" else swap_adjacent_inv_loop(p, pos)
    return p


def split_loop(q, recipe):
    """charts.split of a cross recipe, one generator at a time."""
    chart1, chart2 = recipe.chart1, recipe.chart2
    k1, g2 = chart1.k, chart2.genus
    thetas, gammas, handles = generators(q)
    thetas1, gammas1 = thetas[:k1 - 2], gammas[:k1 - 2]
    handles1 = handles[g2:]
    ahead = su2.ONE
    for t, g in zip(thetas1, gammas1):
        ahead = su2.mul(ahead, loop_of(g, t))
    kq = _commutator_product_loop(handles1)
    c_last = su2.mul(su2.inv(ahead),
                     su2.mul(su2.exp_su2(su2.vec_neg(theta1_loop(q))), su2.inv(kq)))
    p1 = point(chart1, thetas1 + (su2.log_su2(c_last),), gammas1 + (su2.ONE,), handles1,
               q.lanes)
    p2 = point(chart2, thetas[k1 - 2:], gammas[k1 - 2:], handles[:g2], q.lanes)
    return _unapply_loop(p1, recipe.script1), _unapply_loop(p2, recipe.script2)


def canonical_gauge_loop(p):
    """charts.canonical_gauge with action_loop for both of its actions."""
    k, n = p.chart.k, p.lanes
    q = action_loop(stack((su2.ONE,) + generators(p)[1], n, UnitQuaternion), p)
    thetas, _, handles = generators(q)
    frame = [AlgVector(x.x, x.y, x.z) for pair in handles for x in pair] + list(thetas)
    v1, open_ = None, True
    for v in frame:
        nv = v.norm()
        take = open_ & (nv > 1e-8)
        if np.any(take):
            v1 = v if v1 is None else su2.where(take, v, v1)
            open_ = open_ & (nv <= 1e-8)
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
    out = action_loop(stack([su2.mul(twist, r1)] * k, n, UnitQuaternion), q)
    if np.any(open_):
        keep = np.flatnonzero(open_)
        return _merge(out, keep, ch.select_lanes(q, keep))
    return out


def point_distance_loop(p, q):
    """charts.point_distance, one generator at a time."""
    (t1, g1, h1), (t2, g2, h2) = generators(p), generators(q)
    dists = [su2.vec_dist(a, b) for a, b in zip(t1, t2)]
    dists += [su2.quat_dist(a, b) for a, b in zip(g1, g2)]
    dists += [su2.quat_dist(x1, x2) for a, b in zip(h1, h2) for x1, x2 in zip(a, b)]
    return functools.reduce(np.maximum, dists, np.zeros(p.lanes))
