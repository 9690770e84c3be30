"""Property tests of the chart moves, of gauge fixing and of the
analytic constraint Jacobian over seeded random chart points of genus
<= 3 with <= 4 boundaries; they need the hypothesis package."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chart_reference import fd_constraint_jacobian, kernel_dim_and_rank
from cobord2 import charts as ch
from cobord2 import su2
from cobord2.words import Word


@st.composite
def _point(draw, min_k=1, max_genus=2):
    """A random admissible point, drawn by its seed, of a chart with a
    random genus, boundary count and set of incoming circles."""
    genus = draw(st.integers(0, max_genus))
    labels = tuple("c%d" % i for i in range(1, draw(st.integers(min_k, 4)) + 1))
    incoming = frozenset(draw(st.sets(st.sampled_from(labels))))
    chart = ch.ModuliChart(genus, labels, incoming)
    return ch.random_point(chart, draw(st.integers(0, 2 ** 64 - 1)))


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
    gs = tuple(su2.sample_haar(su2.mix_seed(seed, i)) for i in range(p.chart.k))
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
