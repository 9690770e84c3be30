"""Property tests of the chart moves and of gauge fixing over seeded
random chart points of genus <= 2 with <= 4 boundaries; they need the
hypothesis package."""
from hypothesis import given, settings
from hypothesis import strategies as st

from cobord2 import charts as ch
from cobord2 import su2


@st.composite
def _point(draw, min_k=1):
    """A random admissible point, drawn by its seed, of a chart with a
    random genus, boundary count and set of incoming circles."""
    genus = draw(st.integers(0, 2))
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
