"""The chart verification suites, shared by the command line and the
acceptance tests.  They import the holonomy charts and nothing of the
biset oracle, whose composition-loop check is catalog.axiom_loops.

Each suite runs one family of checks over caller-supplied charts and
per-trial seeds and returns what it measured; the caller owns the
seeds, the sample counts, the bounds and the report records.  Seeds
come as a uint64 array or any iterable of ints (su2.seed_lanes).

Every chart suite runs the trials of a chart in batches of up to
BATCH: each trial is a lane of the chart operations (see su2 and
charts), with the bits the trial has as a one-lane batch, so their
results do not depend on BATCH and equal a loop over the seeds one at a
time.  The tangent suites, dimension_defects and locus_ranks, build one
stack of Jacobians per batch and take one stacked SVD of it; locus_ranks
samples its batch with sample_on_locus on the seed array, and a seed
that finds no sample is a reject for its own trial only.
"""

from __future__ import annotations

import numpy as np

from cobord2 import charts as ch
from cobord2 import su2


# Trials per batch.  A batch holds a few kilobytes per lane, so this
# bounds the suites' memory at any trial count.
BATCH = 4096


def _batches(seeds):
    """The seeds as uint64 arrays of at most BATCH lanes; one empty
    array for no seeds."""
    seeds = su2.seed_lanes(seeds)
    return [seeds[i:i + BATCH] for i in range(0, len(seeds), BATCH)] or [seeds]


def dimension_defects(chart, seeds, rtol):
    """(trial, kernel dim, rank) for every random point whose relation
    differential does not have kernel dimension chart.dim and rank 3."""
    defects = []
    start = 0
    for batch in _batches(seeds):
        kdim, rank = (np.broadcast_to(x, batch.shape) for x in
                      ch.relation_kernel_dim(ch.random_point(chart, batch), rtol=rtol))
        for t in np.flatnonzero((kdim != chart.dim) | (rank != 3)).tolist():
            defects.append((start + t, int(kdim[t]), int(rank[t])))
        start += len(batch)
    return defects


def equivariance_worst(chart, seeds):
    """Largest distance between mu(g . p) and Ad_g mu(p) over one random
    point and one random boundary action per seed, a batch of seeds at
    a time."""
    worst = 0.0
    for batch in _batches(seeds):
        p = ch.random_point(chart, batch)
        gs = su2.sample_haar(su2.mix_seed(batch, np.arange(chart.k, dtype=np.uint64)[:, None]))
        lhs = ch.moment(ch.action(gs, p))
        rhs = su2.adjoint(gs, ch.moment(p))
        worst = max(worst, su2.largest(su2.vec_dist(lhs, rhs)))
    return worst


def round_trip(chart1, chart2, label, seeds):
    """Glue a random point of chart1 to one of chart2 along label, split
    the result and compare both halves with their inputs modulo gauge,
    a batch of seeds at a time.  label must not be chart2's first
    circle, whose theta is determined.  A trial whose gluing hits the
    excluded locus is rejected and dropped from its batch.

    Returns (worst gauge residual, worst relation residual of the glued
    points, number of trials rejected near the excluded locus)."""
    worst = 0.0
    relation_worst = 0.0
    rejects = 0
    pos = chart2.index_of(label)
    if pos == 0:
        raise ValueError("round_trip cannot glue along %r, the first circle of chart2, "
                         "whose theta is determined" % label)
    for batch in _batches(seeds):
        p1 = ch.random_point(chart1, su2.mix_seed(batch, 1))
        p2 = ch.random_point(chart2, su2.mix_seed(batch, 2))
        p2 = ch.with_theta(p2, label, su2.vec_neg(ch.theta_raw(p1, label)))
        while True:
            try:
                glued, recipe = ch.glue(p1, label, p2, label)
                break
            except su2.BranchError as err:
                rejects += int(np.count_nonzero(err.lanes))
                p1, p2 = ch.select_lanes(p1, ~err.lanes), ch.select_lanes(p2, ~err.lanes)
        relation_worst = max(relation_worst, su2.largest(ch.relation_residual(glued)))
        back1, back2 = ch.split(glued, recipe)
        if back1.chart != p1.chart:
            back1, back2 = back2, back1  # gluing a one-boundary piece swaps roles
        _, r1 = ch.gauge_equivalent(back1, p1)
        _, r2 = ch.gauge_equivalent(back2, p2)
        worst = max(worst, su2.largest(r1), su2.largest(r2))
    return worst, relation_worst, rejects


def locus_ranks(chart, words, seeds, rtol):
    """Sample one point on the locus cut out by words per seed and count
    (clean rank-3 points, rejects), a batch of seeds at a time; a failed
    sample or a point whose tangent frame is not of rank 3 is a reject
    (the frame of a rank-3 point has codimension 3: locus_tangent keeps
    dim - rank kernel vectors)."""
    clean = 0
    rejects = 0
    for batch in _batches(seeds):
        try:
            p = ch.sample_on_locus(chart, words, batch)
        except ch.SamplingFailed as err:
            rejects += int(np.count_nonzero(err.lanes))
            p, batch = err.point, batch[~err.lanes]
        if not len(batch):
            continue
        frame = ch.locus_tangent(p, words, rtol=rtol)
        good = np.broadcast_to(frame.rank == 3, batch.shape)
        clean += int(np.count_nonzero(good))
        rejects += len(batch) - int(np.count_nonzero(good))
    return clean, rejects
