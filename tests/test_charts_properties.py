"""Property tests over seeded random chart points of genus <= 3 with
<= 4 boundaries (<= 8 for the tangent layer): the chart moves, gauge
fixing, the analytic constraint Jacobian, the glue/split round trip and
moment equivariance, that a batch of N points (one per lane) gives
on each lane the bits of that lane run as a one-lane batch, and the
math-based scalar reference (scalar_reference.math_kernel) to rounding,
that batched Gauss-Newton refines and fails each lane as its one-lane
batch does, and that the chart operations on a generator axis give
every lane the bits of the one-generator-at-a-time reference in
chart_reference.py.  They need the hypothesis package."""
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chart_reference
from chart_reference import (
    fd_constraint_jacobian,
    glue_lanes,
    kernel_dim_and_rank,
    one_lane,
    point,
    ranks_and_sizes,
    stack,
)
from cobord2 import crosscheck as xc
from cobord2 import suites
from cobord2 import charts as ch
from cobord2 import su2
from cobord2.words import Word
from scalar_reference import math_kernel

SEEDS = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64)

# Lanes round log, atan2, hypot and the cube root as numpy does, the
# scalar reference as math does, so a lane and its reference agree to
# rounding only.  The largest coordinate difference measured over
# 115,200 lanes (1800 random charts and glue cases, 64 seeds each) is
# noted beside the bound held here; logs near the excluded point -1 make
# the later steps less well conditioned.
FLOAT_TOL = {
    "draw": 1e-14,  # random_point, action, sample_on_locus: 1.8e-15
    "glue": 1e-12,  # glue, moment, canonical_gauge: 4.5e-14
    "split": 1e-10,  # split and the round-trip residuals: 1.1e-11
}


@st.composite
def _chart(draw, min_k=1, max_genus=3, max_k=4):
    """A chart with a random genus, boundary count and set of incoming
    circles."""
    genus = draw(st.integers(0, max_genus))
    labels = tuple("c%d" % i for i in range(1, draw(st.integers(min_k, max_k)) + 1))
    incoming = frozenset(draw(st.sets(st.sampled_from(labels))))
    return ch.ModuliChart(genus, labels, incoming)


@st.composite
def _point(draw, min_k=1, max_genus=2):
    """A random admissible point as a one-lane batch, drawn by its seed."""
    chart = draw(_chart(min_k, max_genus))
    return ch.random_point(chart, one_lane(draw(st.integers(0, 2 ** 64 - 1))))


@st.composite
def _glue_case(draw):
    """(chart1, chart2, label): label is a circle of chart1 and a circle
    of chart2 other than its first, with opposite roles."""
    chart1 = draw(_chart())
    label = draw(st.sampled_from(chart1.boundaries))
    k2 = draw(st.integers(2, 4))
    labels2 = ["p%d" % i for i in range(1, k2)]
    labels2.insert(draw(st.integers(1, k2 - 1)), label)
    incoming2 = set(draw(st.sets(st.sampled_from(labels2)))) - {label}
    if label not in chart1.incoming:
        incoming2.add(label)
    chart2 = ch.ModuliChart(draw(st.integers(0, 3)), tuple(labels2), frozenset(incoming2))
    return chart1, chart2, label


def _haar_stack(seeds, k, *tags):
    """A stack of k Haar-random group elements per lane of the seeds,
    drawn one by one."""
    return stack([su2.sample_haar(su2.mix_seed(seeds, *tags, i)) for i in range(k)],
                 len(seeds), su2.UnitQuaternion)


def _columns(values, n):
    """values (lane arrays, or floats standing for every lane) as an
    (len(values), n) float array."""
    return np.array([np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in values]
                    ).reshape(len(values), n)


def _point_columns(p, n):
    """The coordinates of a batch of n lanes as a (coordinates, n) array."""
    return _columns(ch.flatten_point(p), n)


def _same(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _assert_lanes(batch, singles):
    """Lane i of the batch is the one-lane batch singles[i], bit for bit."""
    got = _point_columns(batch, len(singles))
    want = np.hstack([np.zeros((len(got), 0))] + [_point_columns(p, 1) for p in singles])
    assert _same(got, want)


def _assert_near(batch, ref, n, tol):
    """Each lane of a batch of n lanes is within tol of the same lane of
    ref, coordinate by coordinate."""
    assert np.max(np.abs(_point_columns(batch, n) - _point_columns(ref, n)), initial=0.0) <= tol


@settings(max_examples=60, deadline=None)
@given(_point(min_k=2), st.data())
def test_rotate_first_inv_undoes_rotate_first(p, data):
    pos = data.draw(st.integers(1, p.chart.k - 1))
    back = ch.rotate_first_inv(ch.rotate_first(p, pos), pos)
    assert back.chart == p.chart
    assert ch.point_distance(back, p) < 1e-10


@settings(max_examples=60, deadline=None)
@given(_point(min_k=3), st.data())
def test_swap_adjacent_inv_undoes_swap_adjacent(p, data):
    pos = data.draw(st.integers(1, p.chart.k - 2))
    back = ch.swap_adjacent_inv(ch.swap_adjacent(p, pos), pos)
    assert back.chart == p.chart
    assert ch.point_distance(back, p) < 1e-10


@settings(max_examples=60, deadline=None)
@given(_point(), st.integers(0, 2 ** 64 - 1))
def test_gauge_equivalent_to_every_haar_gauge_of_itself(p, seed):
    gs = _haar_stack(one_lane(seed), p.chart.k)
    ok, residual = ch.gauge_equivalent(p, ch.action(gs, p))
    assert ok and residual < 1e-9


@settings(max_examples=60, deadline=None)
@given(_point(max_genus=3), st.data())
def test_constraint_jacobian_matches_finite_differences(p, data):
    handles = [(kind, j) for j in range(1, p.chart.genus + 1) for kind in "ab"]
    loops = [(kind, label) for label in p.chart.boundaries for kind in "gd"]
    base = st.sampled_from(handles + loops)
    gens = data.draw(st.lists(st.tuples(base, st.sampled_from((1, -1))), min_size=1, max_size=8))
    word = Word(0, tuple((kind, ref, sign) for (kind, ref), sign in gens))
    # log is ill-conditioned next to -1, where the differences lose their digits
    assume(ch.eval_word(p, word).w > -0.9 and ch.chart_defect(p).w > -0.9)
    jac = ch.constraint_jacobian(p, [word])
    ref = fd_constraint_jacobian(p, [word])
    assert np.max(np.abs(jac - ref), initial=0.0) < 1e-6
    if np.max(np.abs(jac), initial=0.0) > 1e-6:
        # a word constant on the chart (g:c1 d:c1 g:c1 d:c1-, say) has
        # differential 0, where the relative rank cut reads rounding noise
        assert kernel_dim_and_rank(jac) == kernel_dim_and_rank(ref)


# --- a batch equals its lanes, bit for bit ----------------------------------------


@settings(max_examples=40, deadline=None)
@given(_chart(), SEEDS, st.sampled_from((ch.ADMISSIBLE_MARGIN, 0.5)))
def test_random_point_batch_equals_each_lane(chart, seeds, margin):
    # margin 0.5 rejects about half the draws, so lanes redraw at
    # different trial indices
    lanes = np.array(seeds, dtype=np.uint64)
    with mock.patch.object(ch, "ADMISSIBLE_MARGIN", margin):
        batch = ch.random_point(chart, lanes)
        _assert_lanes(batch, [ch.random_point(chart, one_lane(s)) for s in seeds])
        with math_kernel():
            ref = ch.random_point(chart, lanes)
    _assert_near(batch, ref, len(seeds), FLOAT_TOL["draw"])


def test_random_point_batch_redraws_only_the_rejected_lanes():
    chart = ch.ModuliChart(0, ("c1", "c2"))
    seeds = [su2.mix_seed(61, t) for t in range(64)]
    first = ch.random_point(chart, np.array(seeds, dtype=np.uint64))
    with mock.patch.object(ch, "ADMISSIBLE_MARGIN", 0.5):
        strict = ch.random_point(chart, np.array(seeds, dtype=np.uint64))
        _assert_lanes(strict, [ch.random_point(chart, one_lane(s)) for s in seeds])
    a, b = _point_columns(first, 64), _point_columns(strict, 64)
    moved = np.count_nonzero(np.any(a.view(np.uint64) != b.view(np.uint64), axis=0))
    assert 0 < moved < 64


@settings(max_examples=40, deadline=None)
@given(_chart(), SEEDS)
def test_action_and_moment_batch_equal_each_lane(chart, seeds):
    n = len(seeds)

    def act(seed):
        return ch.action(_haar_stack(seed, chart.k), ch.random_point(chart, seed))

    def moments(p, n):
        # boundary by boundary, (a, b, c) each
        return np.stack(ch.moment(p), axis=1).reshape(-1, n)

    lanes = np.array(seeds, dtype=np.uint64)
    moved = act(lanes)
    singles = [act(one_lane(s)) for s in seeds]
    with math_kernel():
        ref = act(lanes)
        ref_moments, ref_gauged = moments(ref, n), ch.canonical_gauge(ref)
    _assert_lanes(moved, singles)
    _assert_near(moved, ref, n, FLOAT_TOL["draw"])
    got = moments(moved, n)
    assert _same(got, np.hstack([moments(p, 1) for p in singles]))
    assert np.max(np.abs(got - ref_moments), initial=0.0) <= FLOAT_TOL["glue"]
    gauged = ch.canonical_gauge(moved)
    _assert_lanes(gauged, [ch.canonical_gauge(p) for p in singles])
    _assert_near(gauged, ref_gauged, n, FLOAT_TOL["glue"])


def _matched(chart1, chart2, label, seed):
    p1 = ch.random_point(chart1, su2.mix_seed(seed, 1))
    p2 = ch.random_point(chart2, su2.mix_seed(seed, 2))
    return p1, ch.with_theta(p2, label, su2.vec_neg(ch.theta_raw(p1, label)))


def _glue_matched(chart1, chart2, label, seeds):
    """(kept lane indices, glued, recipe) of the matched pair of the
    seeds, dropping the lanes on the excluded locus."""
    p1, p2 = _matched(chart1, chart2, label, seeds)
    return glue_lanes(p1, label, p2, label, len(seeds))


@settings(max_examples=30, deadline=None)
@given(_glue_case(), SEEDS, st.sampled_from((su2.BRANCH_EPS, 0.5)))
def test_glue_and_split_batch_equal_each_lane(case, seeds, eps):
    chart1, chart2, label = case
    lanes = np.array(seeds, dtype=np.uint64)
    # eps 0.5 puts about a quarter of the glued points "on the excluded
    # locus", so some lanes of a batch fail admissibility
    with mock.patch.object(su2, "near_minus_one", lambda q, e=eps: q[0] <= -1.0 + e):
        kept, glued, recipe = _glue_matched(chart1, chart2, label, lanes)
        singles = _glue_each(chart1, chart2, label, seeds)
        with math_kernel():
            ref_kept, ref_glued, ref_recipe = _glue_matched(chart1, chart2, label, lanes)
            ref_back = ch.split(ref_glued, ref_recipe)
    kept_list = kept.tolist()
    n = len(kept_list)
    assert kept_list == sorted(singles) == ref_kept.tolist()
    _assert_lanes(glued, [singles[i][0] for i in kept_list])
    _assert_near(glued, ref_glued, n, FLOAT_TOL["glue"])
    assert all(singles[i][1] == recipe for i in kept_list) and ref_recipe == recipe
    back = ch.split(glued, recipe)
    for j in (0, 1):
        _assert_lanes(back[j], [ch.split(*singles[i])[j] for i in kept_list])
        _assert_near(back[j], ref_back[j], n, FLOAT_TOL["split"])


def _glue_each(chart1, chart2, label, seeds):
    """{trial: (glued, recipe)} for the seeds whose own one-lane gluing
    is off the excluded locus."""
    out = {}
    for i, s in enumerate(seeds):
        p1, p2 = _matched(chart1, chart2, label, one_lane(s))
        try:
            out[i] = ch.glue(p1, label, p2, label)
        except su2.BranchError:
            pass
    return out


@settings(max_examples=30, deadline=None)
@given(_glue_case(), SEEDS, st.sampled_from((su2.BRANCH_EPS, 0.5)))
def test_round_trip_batch_equals_the_one_lane_loop(case, seeds, eps):
    with mock.patch.object(su2, "near_minus_one", lambda q, e=eps: q[0] <= -1.0 + e):
        got = suites.round_trip(*case, seeds)
        with mock.patch.object(suites, "BATCH", 1):
            want = suites.round_trip(*case, seeds)
    assert got[2] == want[2]
    assert [float(v).hex() for v in got[:2]] == [float(v).hex() for v in want[:2]]


def test_round_trip_rejects_lanes_as_the_scalar_loop_does():
    chart1 = ch.ModuliChart(1, ("x1", "glue"), frozenset(("x1",)))
    chart2 = ch.ModuliChart(0, ("y1", "glue", "y2"), frozenset(("glue",)))
    seeds = [su2.mix_seed(4, t) for t in range(64)]
    with mock.patch.object(su2, "near_minus_one", lambda q, e=0.5: q[0] <= -1.0 + e):
        got = suites.round_trip(chart1, chart2, "glue", seeds)
        with math_kernel():
            want = suites.round_trip(chart1, chart2, "glue", seeds)
    assert got[2] == want[2]
    assert max(abs(a - b) for a, b in zip(got[:2], want[:2])) <= FLOAT_TOL["split"]
    assert 0 < got[2] < 64


def test_canonical_gauge_lanes_take_their_own_branches():
    # with every arc holonomy 1 the frame is the thetas themselves, so
    # lanes can be put on the degenerate and antiparallel cases
    chart = ch.ModuliChart(0, ("c1", "c2", "c3"))
    rng = np.random.default_rng(5)
    t1, t2 = rng.uniform(-1, 1, (3, 8)), rng.uniform(-1, 1, (3, 8))
    t1[:, 1] = (-0.5, 0.0, 0.0)  # antiparallel to the x-axis
    t1[:, 2] = (0.5, 0.0, 0.0)  # already on it
    t1[:, 3] = 0.0  # the second theta is the first usable vector
    t1[:, 4] = t2[:, 4] = 0.0  # no usable frame vector
    t2[:, 5] = t1[:, 5]  # no independent second vector
    batch = point(chart, (su2.AlgVector(*t1), su2.AlgVector(*t2)), (su2.ONE, su2.ONE), (), 8)
    gauged = ch.canonical_gauge(batch)
    _assert_lanes(gauged, [ch.canonical_gauge(ch.select_lanes(batch, [i])) for i in range(8)])
    with math_kernel():
        ref = ch.canonical_gauge(batch)
    _assert_near(gauged, ref, 8, FLOAT_TOL["glue"])


# --- the generator axis equals the per-generator path, bit for bit ----------------------


def _equal_lanes(xs, ys, n):
    """xs and ys agree bit for bit on each of n lanes, component by
    component, a float standing for the same value on every lane."""
    return _same(_columns(xs, n), _columns(ys, n))


def _same_bits(p, q, n):
    """p and q lie in one chart and agree bit for bit on each of n lanes."""
    return p.chart == q.chart and _same(_point_columns(p, n), _point_columns(q, n))


def _lane0(v):
    """The first lane of a value, as floats."""
    return type(v)(*(float(c[0]) if isinstance(c, np.ndarray) else c for c in v))


@st.composite
def _constants_in(draw, p):
    """p with some of its generators made the same on every lane: the
    identity or a zero vector, as sample_on_locus pins them and split
    sets an arc, or the generator's first lane."""
    def pick(v, plain):
        choice = draw(st.sampled_from(("lanes", "plain", "lane0")))
        return v if choice == "lanes" else plain if choice == "plain" else _lane0(v)

    zero = su2.AlgVector(0.0, 0.0, 0.0)
    thetas, gammas, handles = chart_reference.generators(p)
    thetas = tuple(pick(t, zero) for t in thetas)
    gammas = tuple(pick(g, su2.ONE) for g in gammas)
    handles = tuple((pick(a, su2.ONE), pick(b, su2.ONE)) for a, b in handles)
    return point(p.chart, thetas, gammas, handles, p.lanes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_chart(max_genus=8, max_k=3), SEEDS, st.booleans(),
       st.sampled_from((ch.ADMISSIBLE_MARGIN, 0.5)), st.data())
def test_generator_axis_equals_the_per_generator_path(chart, seeds, zero_thetas, margin, data):
    n = len(seeds)
    seeds = np.array(seeds, dtype=np.uint64)
    # margin 0.5 rejects about half the draws, so lanes redraw at
    # different trial indices
    with mock.patch.object(ch, "ADMISSIBLE_MARGIN", margin):
        p = ch.random_point(chart, seeds, zero_thetas=zero_thetas)
        assert _same_bits(p, chart_reference.random_point_loop(chart, seeds, zero_thetas), n)
    gs = _haar_stack(seeds, chart.k, 7)
    for q in (p, data.draw(_constants_in(p))):
        assert _equal_lanes(ch.chart_defect(q), chart_reference.defect_loop(q), n)
        moved = ch.action(gs, q)
        assert _same_bits(moved, chart_reference.action_loop(gs, q), n)
        assert _same_bits(ch.canonical_gauge(q), chart_reference.canonical_gauge_loop(q), n)
        assert _equal_lanes([ch.point_distance(q, moved)],
                            [chart_reference.point_distance_loop(q, moved)], n)
        ok, r = ch.gauge_equivalent(q, moved)
        want = chart_reference.point_distance_loop(chart_reference.canonical_gauge_loop(q),
                                                   chart_reference.canonical_gauge_loop(moved))
        assert _equal_lanes([r], [want], n) and np.array_equal(ok, want < 1e-9)
        for pos in range(1, chart.k):
            rotated = ch.rotate_first(q, pos)
            assert _same_bits(rotated, chart_reference.rotate_first_loop(q, pos), n)
            assert _same_bits(ch.rotate_first_inv(rotated, pos),
                              chart_reference.rotate_first_inv_loop(rotated, pos), n)
        for pos in range(1, chart.k - 1):
            assert _same_bits(ch.swap_adjacent(q, pos),
                              chart_reference.swap_adjacent_loop(q, pos), n)
            assert _same_bits(ch.swap_adjacent_inv(q, pos),
                              chart_reference.swap_adjacent_inv_loop(q, pos), n)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_glue_case(), SEEDS, st.sampled_from((su2.BRANCH_EPS, 0.5)))
def test_glue_and_split_on_the_generator_axis_equal_the_per_generator_path(case, seeds, eps):
    chart1, chart2, label = case
    seeds = np.array(seeds, dtype=np.uint64)
    # eps 0.5 drops about a quarter of the lanes as on the excluded locus
    with mock.patch.object(su2, "near_minus_one", lambda q, e=eps: q[0] <= -1.0 + e):
        kept, glued, recipe = _glue_matched(chart1, chart2, label, seeds)
        p1, p2 = (ch.select_lanes(x, kept) for x in _matched(chart1, chart2, label, seeds))
        want, want_recipe = chart_reference.glue_loop(p1, label, p2, label)
    n = len(kept)
    assert recipe == want_recipe and _same_bits(glued, want, n)
    for got, ref in zip(ch.split(glued, recipe), chart_reference.split_loop(glued, recipe),
                        strict=True):
        assert _same_bits(got, ref, n)


def test_permute_to_chart_equals_the_per_generator_moves():
    # every order of four circles whose first circle differs from the
    # point's: move_boundary_first rotates it to the front, and adjacent
    # swaps put the rest in order
    chart = ch.ModuliChart(2, ("c1", "c2", "c3", "c4"), frozenset(("c2", "c3")))
    seeds = np.array([su2.mix_seed(71, t) for t in range(16)], dtype=np.uint64)
    p = ch.random_point(chart, seeds)
    swaps = 0
    for order in itertools.permutations(chart.boundaries):
        if order[0] == "c1":
            continue
        moved = ch.move_boundary_first(p, order[0])
        assert _same_bits(moved, chart_reference.move_boundary_first_loop(p, order[0]), 16)
        target = ch.ModuliChart(2, order, chart.incoming)
        got = xc._permute_to_chart(p, target)
        want = chart_reference.permute_to_chart_loop(p, target)
        assert got.chart == target and want.chart.boundaries == order
        assert _same(_point_columns(got, 16), _point_columns(want, 16))
        swaps += moved.chart.boundaries != order
    assert swaps


# --- the round trip and equivariance laws over random charts ------------------------


@settings(max_examples=30, deadline=None)
@given(_glue_case(), SEEDS)
def test_glue_split_round_trip_returns_both_inputs_modulo_gauge(case, seeds):
    worst, relation_worst, _ = suites.round_trip(*case, seeds)
    assert worst < 1e-9 and relation_worst < 1e-9


@settings(max_examples=30, deadline=None)
@given(_chart(), SEEDS)
def test_moment_is_equivariant_under_random_boundary_actions(chart, seeds):
    assert suites.equivariance_worst(chart, seeds) < 1e-9


def test_suites_combine_their_batches_exactly():
    chart = ch.ModuliChart(1, ("c1", "c2"), frozenset(("c1",)))
    partner = ch.ModuliChart(0, ("p1", "c2"), frozenset(("c2",)))
    seeds = [su2.mix_seed(67, t) for t in range(23)]
    pinned, newton = Word(0, (("a", 1, 1),)), Word(0, (("a", 1, 1), ("b", 1, 1)))

    def run():
        # margin 1.0 and two restarts make some seeds find no locus sample
        with mock.patch.object(ch, "ADMISSIBLE_MARGIN", 1.0), \
                mock.patch.object(ch, "LOCUS_RESTARTS", 2):
            ranks = (suites.locus_ranks(chart, [pinned], seeds, ch.SVD_RTOL),
                     suites.locus_ranks(chart, [newton], seeds[:10], ch.SVD_RTOL))
        return (suites.dimension_defects(chart, seeds, 0.6),
                suites.equivariance_worst(chart, seeds),
                suites.round_trip(chart, partner, "c2", seeds)) + ranks

    whole = run()
    with mock.patch.object(suites, "BATCH", 5):
        assert run() == whole
    # rtol 0.6 cuts small singular values, so some points are defects,
    # one of them past the first batch of 5
    assert whole[0] and whole[0][-1][0] >= 5
    assert all(clean and rejects for clean, rejects in whole[3:])


def test_locus_ranks_counts_a_failed_lane_once():
    # a large margin and few restarts make some seeds find no locus sample;
    # the counts are those of the suite that sampled the other lanes of
    # a failed batch a second time, and of one seed at a time
    chart = ch.ModuliChart(1, ("c1", "c2"), frozenset(("c1",)))
    seeds = [su2.mix_seed(67, t) for t in range(23)]
    for word in (Word(0, (("a", 1, 1),)), Word(0, (("a", 1, 1), ("b", 1, 1)))):
        with mock.patch.object(ch, "ADMISSIBLE_MARGIN", 1.0), \
                mock.patch.object(ch, "LOCUS_RESTARTS", 2):
            with mock.patch.object(ch, "sample_on_locus", wraps=ch.sample_on_locus) as sample:
                got = suites.locus_ranks(chart, [word], seeds, ch.SVD_RTOL)
            each = _sample_each(chart, [word], seeds)
        assert sample.call_count == 1
        clean = sum(ranks_and_sizes(ch.locus_tangent(p, [word]), 1)[0][0] == 3
                    for p in each.values())
        assert got == (clean, len(seeds) - clean) == (10, 13)


def test_round_trip_refuses_chart2s_first_circle_before_drawing():
    chart1 = ch.ModuliChart(1, ("c1", "m"))
    chart2 = ch.ModuliChart(0, ("m", "p1"))
    with mock.patch.object(ch, "random_point", side_effect=AssertionError("drew a point")):
        with pytest.raises(ValueError, match="first circle of chart2") as err:
            suites.round_trip(chart1, chart2, "m", [1, 2, 3])
    assert type(err.value) is ValueError  # not a MomentMismatch after drawing


# --- the tangent layer on batches -------------------------------------------------


def _pinned_words(chart):
    """Every single-generator word that sample_on_locus solves by pinning."""
    gens = [(kind, j) for j in range(1, chart.genus + 1) for kind in "ab"]
    gens += [("d", label) for label in chart.boundaries[1:]]
    return [Word(0, ((kind, ref, 1),)) for kind, ref in gens]


def _sample_lanes(chart, words, seeds):
    """sample_on_locus on the seed array, keeping the lanes that found a
    sample; returns (kept lane indices, their batch)."""
    try:
        return np.arange(len(seeds)), ch.sample_on_locus(chart, words, seeds)
    except ch.SamplingFailed as err:
        return np.flatnonzero(~err.lanes), err.point


def _sample_each(chart, words, seeds):
    """{lane: one-lane batch} for the seeds whose own one-lane
    sample_on_locus call succeeds."""
    out = {}
    for i, s in enumerate(seeds):
        try:
            out[i] = ch.sample_on_locus(chart, words, one_lane(s))
        except ch.SamplingFailed:
            pass
    return out


def _assert_samples_equal_each_lane(chart, words, seeds):
    """Each lane of the batch is its seed's one-lane sample, bit for bit,
    and near the scalar reference's sample; returns (kept lane indices,
    batch, {lane: one-lane sample})."""
    lanes = np.array(seeds, dtype=np.uint64)
    kept, batch = _sample_lanes(chart, words, lanes)
    each = _sample_each(chart, words, seeds)
    with math_kernel():
        ref_kept, ref = _sample_lanes(chart, words, lanes)
    assert kept.tolist() == sorted(each) == ref_kept.tolist()
    _assert_lanes(batch, [each[i] for i in kept.tolist()])
    _assert_near(batch, ref, len(kept), FLOAT_TOL["draw"])
    return kept, batch, each


@settings(max_examples=30, deadline=None)
@given(_chart(max_genus=8), st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8),
       st.data())
def test_tangent_batch_equals_each_lane(chart, seeds, data):
    n = len(seeds)
    kdim, rank = ch.relation_kernel_dim(ch.random_point(chart, np.array(seeds, dtype=np.uint64)))
    want = [tuple(int(np.broadcast_to(x, 1)[0])
                  for x in ch.relation_kernel_dim(ch.random_point(chart, one_lane(s))))
            for s in seeds]
    assert list(zip(np.broadcast_to(kdim, n).tolist(), np.broadcast_to(rank, n).tolist())) == want
    words = _pinned_words(chart)
    assume(words)
    words = [data.draw(st.sampled_from(words))]
    kept, batch, each = _assert_samples_equal_each_lane(chart, words, seeds)
    assume(len(kept))
    frame = ch.locus_tangent(batch, words)
    singles = [ch.locus_tangent(each[i], words) for i in kept.tolist()]
    assert ranks_and_sizes(frame, len(kept)) == [ranks_and_sizes(f, 1)[0] for f in singles]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_chart(max_genus=8, max_k=4), SEEDS, st.sampled_from((1, -1)))
def test_pinned_handle_words_are_exactly_zero(chart, seeds, sign):
    # sample_on_locus does not re-test a pinned handle's word, which
    # holds only if its constraint is +0.0 bit for bit, not just small
    n = len(seeds)
    try:
        p = ch.random_point(chart, np.array(seeds, dtype=np.uint64))
    except ch.SamplingFailed as err:
        p, n = err.point, int(np.count_nonzero(~err.lanes))
    assume(n)
    p = ch._pin(p, set(range(chart.k - 1)), set(range(2 * chart.genus)))
    for j in range(1, chart.genus + 1):
        for kind in "ab":
            f = np.broadcast_to(ch.constraint_map(p, [Word(0, ((kind, j, sign),))]), (n, 3))
            assert f.tobytes() == bytes(8 * 3 * n), (kind, j)


def _newton_words(chart, which):
    """A word that sample_on_locus refines by Gauss-Newton: A_1 B_g = 1,
    or d of the basepoint circle (its theta_1 = 0)."""
    if which == "ab":
        return [Word(0, (("a", 1, 1), ("b", chart.genus, 1)))]
    return [Word(0, (("d", chart.boundaries[0], 1),))]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_chart(max_genus=3, max_k=3).filter(lambda c: c.genus >= 1),
       st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8),
       st.sampled_from(("ab", "d")), st.sampled_from(((ch.ADMISSIBLE_MARGIN, 60), (1.0, 60),
                                                      (ch.ADMISSIBLE_MARGIN, 5))))
def test_batched_gauss_newton_refines_each_lane_as_its_one_lane_batch(chart, seeds, which,
                                                                      setting):
    # margin 1.0 rejects about half the draws before refinement; five
    # iterations leave some lanes unconverged, so they fail and restart
    margin, iters = setting
    words = _newton_words(chart, which)
    with mock.patch.object(ch, "ADMISSIBLE_MARGIN", margin), \
            mock.patch.object(ch, "NEWTON_ITERS", iters), \
            mock.patch.object(ch, "LOCUS_RESTARTS", 2):
        kept, batch = _sample_lanes(chart, words, np.array(seeds, dtype=np.uint64))
        each = _sample_each(chart, words, seeds)
    # a lane fails, named in SamplingFailed.lanes, exactly when its
    # one-lane batch fails
    assert kept.tolist() == sorted(each)
    _assert_lanes(batch, [each[i] for i in kept.tolist()])
    residual = np.max(np.abs(ch.constraint_map(batch, words)), axis=-1, initial=0.0)
    assert su2.largest(residual) <= 1e-10


@pytest.mark.parametrize("margin, restarts", ((ch.ADMISSIBLE_MARGIN, ch.LOCUS_RESTARTS),
                                               (1.0, 2), (1.7, 3)))
def test_sample_on_locus_lanes_restart_and_fail_as_their_seeds_do(margin, restarts):
    # a large margin rejects many draws, so lanes restart at different
    # attempts and some run out of restarts; at 1.7 some random_point
    # draws fail outright
    chart = ch.ModuliChart(1, ("c1", "c2"), frozenset(("c1",)))
    seeds = [su2.mix_seed(3, t) for t in range(16)]
    with mock.patch.object(ch, "ADMISSIBLE_MARGIN", margin), \
            mock.patch.object(ch, "LOCUS_RESTARTS", restarts):
        for words, n in (([Word(0, (("a", 1, 1),))], 16),
                         ([Word(0, (("a", 1, 1), ("b", 1, 1)))], 8)):
            kept, _, _ = _assert_samples_equal_each_lane(chart, words, seeds[:n])
            assert 0 < len(kept) and (len(kept) < n) == (margin > 1e-3)
        if margin > 1.5:
            with pytest.raises(ch.SamplingFailed, match="admissible"):
                for s in seeds:
                    ch.random_point(chart, one_lane(su2.mix_seed(s, 101, 0)))
