"""Test-side chart helpers: the central-difference Jacobians that the
analytic ones in cobord2.charts are checked against, and the reader of
flatten_point's layout."""

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
