"""Test-side chart helpers: the central-difference Jacobians that the
analytic ones in cobord2.charts are checked against, the reader of
flatten_point's layout, and the one-trial-at-a-time round trip that the
batched suite is checked against."""

from __future__ import annotations

import numpy as np

from cobord2 import charts as ch
from cobord2.su2 import AlgVector, UnitQuaternion, exp_su2, log_su2, mul

FD_STEP = 1e-6


def fd_constraint_jacobian(p, words) -> np.ndarray:
    """Central differences of constraint_map along every coordinate of
    charts.perturb."""
    cols = []
    for coord in range(p.chart.dim):
        fp = ch.constraint_map(ch.perturb(p, coord, FD_STEP), words)
        fm = ch.constraint_map(ch.perturb(p, coord, -FD_STEP), words)
        cols.append((fp - fm) / (2.0 * FD_STEP))
    return np.stack(cols, axis=1) if cols else np.zeros((3 * len(words), 0))


def fd_relation_jacobian(p) -> np.ndarray:
    """Central differences of log(e^{theta_1} D) with theta_1 free:
    the theta_1 columns first, then charts.perturb's order."""
    t1 = ch.theta1_of(p)

    def rel(t1v, pt):
        return np.array(log_su2(mul(exp_su2(t1v), ch.chart_defect(pt))))

    cols = []
    for c in range(3):
        hp = list(t1)
        hm = list(t1)
        hp[c] += FD_STEP
        hm[c] -= FD_STEP
        cols.append((rel(AlgVector(*hp), p) - rel(AlgVector(*hm), p)) / (2 * FD_STEP))
    for coord in range(p.chart.dim):
        fp = rel(t1, ch.perturb(p, coord, FD_STEP))
        fm = rel(t1, ch.perturb(p, coord, -FD_STEP))
        cols.append((fp - fm) / (2 * FD_STEP))
    return np.stack(cols, axis=1)


def kernel_dim_and_rank(jac, rtol=ch.SVD_RTOL) -> tuple:
    """(kernel dimension, rank) with the threshold the charts use."""
    s = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.sum(s > rtol * s[0])) if len(s) else 0
    return (jac.shape[1] - rank, rank)


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


def round_trip_loop(chart1, chart2, label, seeds):
    """suites.round_trip one trial at a time, on points of floats: the
    loop the batched suite must agree with bit for bit."""
    from cobord2 import su2

    worst = 0.0
    relation_worst = 0.0
    rejects = 0
    pos = chart2.index_of(label)
    for s in seeds:
        p1 = ch.random_point(chart1, su2.mix_seed(s, 1))
        p2 = ch.random_point(chart2, su2.mix_seed(s, 2))
        thetas = list(p2.thetas)
        thetas[pos - 1] = su2.vec_neg(ch.theta_raw(p1, label))
        p2 = ch.ChartPoint(chart2, tuple(thetas), p2.gammas, p2.handles)
        try:
            glued, recipe = ch.glue(p1, label, p2, label)
        except su2.BranchError:
            rejects += 1
            continue
        relation_worst = max(relation_worst, ch.relation_residual(glued))
        back1, back2 = ch.split(glued, recipe)
        if back1.chart != p1.chart:
            back1, back2 = back2, back1
        _, r1 = ch.gauge_equivalent(back1, p1)
        _, r2 = ch.gauge_equivalent(back2, p2)
        worst = max(worst, r1, r2)
    return worst, relation_worst, rejects
