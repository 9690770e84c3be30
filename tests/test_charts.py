import math
from unittest import mock

import numpy as np
import pytest

from chart_reference import (
    fd_constraint_jacobian,
    fd_relation_jacobian,
    glue_lanes,
    kernel_dim_and_rank,
    one_lane,
    point,
    ranks_and_sizes,
    stack,
    unflatten_point,
)
from cobord2 import charts as ch
from cobord2 import su2, suites
from cobord2.charts import (
    ConstraintViolated,
    ModuliChart,
    MomentMismatch,
    action,
    boundary_loop,
    chart_defect,
    eval_word,
    gauge_equivalent,
    glue,
    glue_self,
    locus_tangent,
    moment,
    random_point,
    relation_kernel_dim,
    relation_residual,
    rotate_first,
    sample_on_locus,
    split,
    swap_adjacent,
    theta1_of,
    theta_raw,
    word_residual,
)
from cobord2.su2 import AlgVector, ONE, UnitQuaternion, largest, mix_seed, sample_haar
from cobord2.words import Word, gen


def mk_chart(g, k, incoming=()):
    return ModuliChart(g, tuple("c%d" % i for i in range(1, k + 1)), frozenset(incoming))


def trials(n):
    """The trial axis 0 .. n-1, to fold into seeds with mix_seed."""
    return np.arange(n, dtype=np.uint64)


def haar_stack(tag, g, k, n):
    """k Haar-random group elements on each of n lanes, as a stack."""
    return stack([sample_haar(mix_seed(tag, g, k, trials(n), i)) for i in range(k)], n,
                 UnitQuaternion)




GRID = [(g, k) for g in (0, 1, 2) for k in (1, 2, 3)]
HIGH_GENUS = [(g, k) for g in (4, 6, 8) for k in (2, 3)]


def test_dimension_formula():
    for g, k in GRID:
        assert mk_chart(g, k).dim == 6 * g + 6 * k - 6


def test_trivial_point_has_zero_theta1():
    chart = mk_chart(1, 2)
    p = point(chart, (AlgVector(0, 0, 0),), (ONE,), ((ONE, ONE),), 1)
    assert theta1_of(p) == AlgVector(0, 0, 0)
    assert np.all(moment(p).norm() == 0)


def test_theta1_closed_form_annulus():
    chart = mk_chart(0, 2)
    p = point(chart, (AlgVector(0.3, 0, 0),), (ONE,), (), 1)
    t1 = theta1_of(p)
    assert su2.vec_dist(t1, AlgVector(-0.3, 0, 0)) < 1e-15


def test_relation_residual_small_over_grid():
    for g, k in GRID:
        p = random_point(mk_chart(g, k), mix_seed(1000, g, k, trials(50)))
        assert largest(relation_residual(p)) < 1e-10


def test_moment_in_open_ball():
    for g, k in GRID:
        chart = mk_chart(g, k, incoming=("c1",))
        p = random_point(chart, mix_seed(2000, g, k, trials(20)))
        assert np.all(moment(p).norm() < math.pi)


def test_action_identity_and_composition():
    for g, k in GRID:
        chart = mk_chart(g, k)
        p = random_point(chart, mix_seed(3000, g, k, trials(25)))
        ones = stack([ONE] * k, 25, UnitQuaternion)
        assert np.all(ch.point_distance(action(ones, p), p) == 0.0)
        gs = haar_stack(3100, g, k, 25)
        hs = haar_stack(3200, g, k, 25)
        gh = su2.mul(gs, hs)
        lhs = action(gh, p)
        rhs = action(gs, action(hs, p))
        assert largest(ch.point_distance(lhs, rhs)) < 1e-10


def test_moment_equivariance():
    for g, k in GRID:
        chart = mk_chart(g, k)
        p = random_point(chart, mix_seed(4000, g, k, trials(25)))
        gs = haar_stack(4100, g, k, 25)
        lhs = moment(action(gs, p))
        rhs = su2.adjoint(gs, moment(p))
        assert lhs.a.shape == (k, 25)
        assert largest(su2.vec_dist(lhs, rhs)) < 1e-9


def test_rotate_first_preserves_relation_and_thetas():
    chart = mk_chart(2, 3)
    p = random_point(chart, mix_seed(5000, trials(20)))
    for pos in (1, 2):
        q = rotate_first(p, pos)
        assert largest(relation_residual(q)) < 1e-9
        # boundary values travel with their labels
        for label in chart.boundaries:
            assert largest(su2.vec_dist(theta_raw(q, label), theta_raw(p, label))) < 1e-9


def test_swap_adjacent_preserves_relation():
    chart = mk_chart(1, 3)
    p = random_point(chart, mix_seed(6000, trials(20)))
    q = swap_adjacent(p, 1)
    assert largest(relation_residual(q)) < 1e-9
    for label in chart.boundaries:
        assert largest(su2.vec_dist(theta_raw(q, label), theta_raw(p, label))) < 1e-10


def test_chart_move_inverses():
    chart = ModuliChart(2, ("c1", "c2", "c3", "c4"), frozenset(("c2",)))
    p = random_point(chart, mix_seed(31337, trials(20)))
    for pos in (1, 2, 3):
        q = ch.rotate_first_inv(rotate_first(p, pos), pos)
        assert largest(ch.point_distance(p, q)) < 1e-10
    for pos in (1, 2):
        q = ch.swap_adjacent_inv(swap_adjacent(p, pos), pos)
        assert largest(ch.point_distance(p, q)) < 1e-10


def test_gauge_solver_recovers_action():
    for g, k in GRID:
        chart = mk_chart(g, k)
        p = random_point(chart, mix_seed(7000, g, k, trials(10)))
        q = action(haar_stack(7100, g, k, 10), p)
        ok, residual = gauge_equivalent(p, q, tol=1e-8)
        assert np.all(ok), (g, k, residual)


def _matched_pair(seed, chart1, chart2, label_a, label_b):
    """Two batches whose signed moments match on the glued pair, one
    lane per seed of the seed array."""
    p1 = random_point(chart1, mix_seed(seed, 1))
    p2 = random_point(chart2, mix_seed(seed, 2))
    # overwrite p2's theta at label_b with the negated value from p1
    target = su2.vec_neg(theta_raw(p1, label_a))
    assert chart2.index_of(label_b) > 0
    return p1, ch.with_theta(p2, label_b, target)


def test_glue_split_round_trip_cross():
    chart1 = ModuliChart(1, ("x1", "x2"), frozenset(("x1",)))
    chart2 = ModuliChart(0, ("y1", "x2", "y2"), frozenset(("x2",)))
    p1, p2 = _matched_pair(mix_seed(8000, trials(200)), chart1, chart2, "x2", "x2")
    kept, glued, recipe = glue_lanes(p1, "x2", p2, "x2", 200)
    assert largest(relation_residual(glued)) < 1e-10
    s1, s2 = split(glued, recipe)
    ok1, r1 = gauge_equivalent(s1, ch.select_lanes(p1, kept), tol=1e-8)
    ok2, r2 = gauge_equivalent(s2, ch.select_lanes(p2, kept), tol=1e-8)
    assert np.all(ok1) and np.all(ok2), (largest(r1), largest(r2))
    assert 200 - len(kept) < 20


def test_glue_handle_disc_onto_annulus():
    # capping with a one-boundary piece exercises the swapped-role path
    disc = ModuliChart(1, ("m",), frozenset())
    ann = ModuliChart(0, ("out", "m"), frozenset(("m",)))
    p1 = random_point(disc, mix_seed(8600, trials(50), 1))
    p2 = random_point(ann, mix_seed(8600, trials(50), 2))
    target = su2.vec_neg(theta1_of(p1))
    p2 = ch.with_theta(p2, "m", target)
    glued, recipe = glue(p1, "m", p2, "m")
    assert glued.chart.k == 1
    assert glued.chart.genus == 1
    assert largest(relation_residual(glued)) < 1e-10


def test_glue_moment_mismatch_raises():
    chart1 = ModuliChart(0, ("a1", "m"), frozenset())
    chart2 = ModuliChart(0, ("b1", "m"), frozenset(("m",)))
    p1 = random_point(chart1, one_lane(1))
    p2 = random_point(chart2, one_lane(2))
    with pytest.raises(MomentMismatch):
        glue(p1, "m", p2, "m")


def test_glue_self_round_trip():
    chart = ModuliChart(0, ("keep", "sa", "sb"), frozenset(("sa",)))
    p = random_point(chart, mix_seed(8800, trials(200)))
    target = su2.vec_neg(theta_raw(p, "sa"))
    p = ch.with_theta(p, "sb", target)
    while True:
        try:
            glued, recipe = glue_self(p, "sa", "sb")
            break
        except su2.BranchError as err:
            p = ch.select_lanes(p, ~err.lanes)
    assert glued.chart.genus == 1 and glued.chart.k == 1
    assert largest(relation_residual(glued)) < 1e-10
    back = split(glued, recipe)
    ok, r = gauge_equivalent(back, p, tol=1e-8)
    assert np.all(ok), largest(r)
    assert len(ok) > 150


def test_glued_points_avoid_excluded_locus():
    chart1 = ModuliChart(0, ("a1", "m"), frozenset())
    chart2 = ModuliChart(0, ("b1", "m"), frozenset(("m",)))
    p1, p2 = _matched_pair(mix_seed(9000, trials(100)), chart1, chart2, "m", "m")
    glued, _ = glue(p1, "m", p2, "m")
    assert np.all(ch.is_admissible(glued))


def test_relation_kernel_dimension():
    for g, k in GRID:
        chart = mk_chart(g, k)
        p = random_point(chart, mix_seed(9500, g, k, trials(5)))
        kdim, rank = relation_kernel_dim(p)
        assert np.all(rank == 3)
        assert np.all(kdim == chart.dim)


def test_single_word_cuts_rank_three():
    chart = mk_chart(1, 1)
    w = Word(0, (gen("a", 1),))
    p = sample_on_locus(chart, [w], mix_seed(9600, trials(20)))
    frame = locus_tangent(p, [w])
    assert ranks_and_sizes(frame, 20) == [(3, chart.dim - 3)] * 20


def test_two_transverse_words_cut_rank_six():
    chart = mk_chart(1, 1)
    words = [Word(0, (gen("a", 1),)), Word(0, (gen("b", 1),))]
    p = sample_on_locus(chart, words, mix_seed(9700, trials(20)))
    frame = locus_tangent(p, words)
    assert ranks_and_sizes(frame, 20) == [(6, chart.dim - 6)] * 20


def test_no_constraints_full_frame():
    chart = mk_chart(1, 2)
    p = random_point(chart, one_lane(5))
    frame = locus_tangent(p, [])
    assert frame.rank == 0
    assert len(frame.vectors) == chart.dim


def test_generic_word_newton_sampling():
    chart = mk_chart(2, 1)
    w = Word(0, (gen("a", 1), gen("b", 2)))
    p = sample_on_locus(chart, [w], mix_seed(9800, trials(5)))
    assert largest(word_residual(p, w)) < 1e-9


def test_sampler_tests_no_pinned_handle_word():
    # a pinned handle is exactly ONE, so its word is never evaluated; a
    # Gauss-Newton word and a pinned non-basepoint d word still are
    handles = [Word(0, (gen("a", 1),)), Word(0, (gen("b", 2, -1),))]
    with mock.patch.object(ch, "constraint_map", wraps=ch.constraint_map) as cmap:
        sample_on_locus(mk_chart(2, 2), handles, mix_seed(9810, trials(5)))
    assert cmap.call_count == 0
    for g, k, other in ((2, 1, Word(0, (gen("a", 1), gen("b", 2)))),
                        (1, 2, Word(0, (gen("d", "c2"),)))):
        words = [Word(0, (gen("b", 1),)), other]
        with mock.patch.object(ch, "_residual_below", wraps=ch._residual_below) as below:
            p = sample_on_locus(mk_chart(g, k), words, mix_seed(9820, g, k, trials(5)))
        assert below.call_count >= 1
        assert all(call.args[2] == [other] for call in below.call_args_list)
        assert largest(word_residual(p, other)) <= 1e-10


def test_constraint_violated_raises():
    chart = mk_chart(1, 1)
    w = Word(0, (gen("a", 1),))
    p = random_point(chart, mix_seed(9900, trials(50)))
    generic = np.flatnonzero(word_residual(p, w) > 1e-3)
    assert len(generic), "no generic point found"
    with pytest.raises(ConstraintViolated):
        locus_tangent(ch.select_lanes(p, generic[:1]), [w])


def test_zero_section_sampling():
    chart = mk_chart(0, 3)
    p = random_point(chart, one_lane(7), zero_thetas=True)
    assert p.thetas.a.shape == (2, 1) and np.all(p.thetas.norm() == 0)
    assert largest(theta1_of(p).norm()) < 1e-12


def test_flatten_round_trip_bit_exact():
    chart = mk_chart(2, 3, incoming=("c1",))
    p = random_point(chart, mix_seed(9980, trials(10)))
    flat = ch.flatten_point(p)
    assert len(flat) == 3 * 2 + 4 * 2 + 8 * 2
    q = unflatten_point(chart, flat)
    # exact, not approximate
    assert q.chart == p.chart and all(
        np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, b in zip(ch.flatten_point(q), flat))


def test_zero_section_locus_half_dimension():
    # on a k-punctured sphere the all-theta-zero locus has dimension
    # 3(k-1), half of 6k-6
    for k in (2, 3, 4):
        chart = mk_chart(0, k)
        words = [Word(0, (gen("d", "c%d" % i),)) for i in range(2, k + 1)]
        p = sample_on_locus(chart, words, mix_seed(9950, k, trials(10)))
        frame = locus_tangent(p, words)
        assert chart.dim - 3 * (k - 1) == 3 * (k - 1)
        assert ranks_and_sizes(frame, 10) == [(3 * (k - 1), 3 * (k - 1))] * 10


# --- analytic Jacobians against central differences -----------------------------


def test_relation_jacobian_matches_finite_differences():
    for g, k in GRID + HIGH_GENUS:
        chart = mk_chart(g, k)
        p = random_point(chart, mix_seed(9990, g, k, trials(3)))
        # a chart without coordinates has a Jacobian the same on every lane
        shape = (3, 3, chart.dim + 3)
        jac = np.broadcast_to(ch.relation_jacobian(p), shape)
        ref = np.broadcast_to(fd_relation_jacobian(p), shape)
        assert np.max(np.abs(jac - ref)) < 1e-6, (g, k)
        kdim, rank = (np.broadcast_to(x, 3) for x in relation_kernel_dim(p))
        assert list(zip(kdim.tolist(), rank.tolist())) == [
            kernel_dim_and_rank(r) for r in ref] == [(chart.dim, 3)] * 3


def _every_generator_word(g, k):
    """a, b, g and d at a non-basepoint boundary, d and g at the basepoint
    boundary, each with both signs."""
    last = "c%d" % k
    gens = [gen("a", 1), gen("g", last), gen("d", last), gen("b", g), gen("d", "c1"),
            gen("g", "c1"), gen("a", 1, -1), gen("g", last, -1), gen("d", "c1", -1),
            gen("b", g, -1), gen("d", last, -1), gen("g", "c1", -1)]
    return Word(0, tuple(gens))


def test_constraint_jacobian_matches_finite_differences_off_locus():
    for g, k in GRID + HIGH_GENUS:
        if g < 1 or k < 2:
            continue
        chart = mk_chart(g, k)
        word = _every_generator_word(g, k)
        kinds = {(kind, ref == "c1", sign) for kind, ref, sign in word.gens if kind in "gd"}
        assert len(kinds) == 8 and len(word.gens) == 12
        words = [word, Word(0, (gen("a", g), gen("b", 1, -1)))]
        p = random_point(chart, mix_seed(9991, g, k, trials(3)))
        assert np.all(word_residual(p, word) > 1e-3)
        jac = ch.constraint_jacobian(p, words)
        ref = fd_constraint_jacobian(p, words)
        assert jac.shape == ref.shape == (3, 6, chart.dim)
        assert np.max(np.abs(jac - ref)) < 1e-6, (g, k)
        assert [kernel_dim_and_rank(j) for j in jac] == [kernel_dim_and_rank(r) for r in ref]


def test_locus_rank_matches_finite_differences():
    w = Word(0, (gen("a", 1),))
    for g, k in GRID + HIGH_GENUS:
        if g < 1:
            continue
        chart = mk_chart(g, k)
        p = sample_on_locus(chart, [w], mix_seed(9992, g, k, trials(3)))
        # A_1 is pinned to 1, so the Jacobian of a1 is the same on every
        # lane, and the frame is one basis
        ref = fd_constraint_jacobian(p, [w])
        assert np.max(np.abs(ch.constraint_jacobian(p, [w]) - ref)) < 1e-6
        frame = locus_tangent(p, [w])
        assert [kernel_dim_and_rank(r) for r in ref] == [(chart.dim - 3, 3)] * 3
        assert np.ndim(frame.rank) == 0
        assert ranks_and_sizes(frame, 3) == [(3, chart.dim - 3)] * 3
        # one lane keeps its per-lane frame
        one = locus_tangent(ch.select_lanes(p, np.arange(1)), [w])
        assert np.shape(one.rank) == (1,)
        assert ranks_and_sizes(one, 1) == [(3, chart.dim - 3)]


# --- the cached chart defect ----------------------------------------------------------


def _counting_defect():
    """A stand-in for the uncached defect body that keeps every point it
    is called on (kept alive, so no two share an id)."""
    seen = []
    real = ch._defect

    def counted(p):
        seen.append(p)
        return real(p)

    return seen, mock.patch.object(ch, "_defect", counted)


def test_round_trip_computes_each_points_defect_once():
    chart1 = mk_chart(1, 2, ("c2",))
    chart2 = ModuliChart(0, ("p1", "c2", "p2"), frozenset())
    seen, patch = _counting_defect()
    with patch:
        suites.round_trip(chart1, chart2, "c2", [mix_seed(29, t) for t in range(40)])
    assert seen and len({id(p) for p in seen}) == len(seen)


def _same(q1, q2):
    return all(np.array_equal(a, b) for a, b in zip(q1, q2))


def test_a_rebuilt_point_computes_its_own_defect():
    chart = mk_chart(1, 3)
    p = random_point(chart, np.array([mix_seed(31, t) for t in range(6)], dtype=np.uint64))
    d = chart_defect(p)
    picked = ch.select_lanes(p, [1, 4])
    mapped = ch._map_point(lambda c: -c, p)
    # a new theta on the same holonomies, as round_trip matches its pieces
    retheta = ch.with_theta(p, "c2", su2.vec_neg(theta_raw(p, "c2")))
    uncached = ch._defect
    seen, patch = _counting_defect()
    with patch:
        # the readers of p's defect share the one computed above
        assert _same(chart_defect(p), d)
        ch.is_admissible(p), theta1_of(p), relation_residual(p)
        assert seen == []
        for q in (picked, mapped, retheta):
            assert _same(chart_defect(q), uncached(q))
            ch.is_admissible(q), theta1_of(q), relation_residual(q)
    assert [id(q) for q in seen] == [id(picked), id(mapped), id(retheta)]
    assert _same(chart_defect(picked), tuple(c[[1, 4]] for c in d))
    assert not _same(chart_defect(mapped), d) and not _same(chart_defect(retheta), d)


def test_perturb_on_a_batch_leaves_its_input_alone():
    chart = mk_chart(1, 2)
    p = random_point(chart, np.array([mix_seed(37, t) for t in range(4)], dtype=np.uint64))
    d = chart_defect(p)
    before = [np.copy(c) for c in ch.flatten_point(p)]
    for coord in (0, 3, chart.dim - 1):
        q = ch.perturb(p, coord, 0.25)
        assert not _same(chart_defect(q), d)
    assert all(np.array_equal(a, b) for a, b in zip(ch.flatten_point(p), before))
    assert _same(ch._defect(p), d)
