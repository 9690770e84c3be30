"""Property tests of the coded finite-group transport against the tuple
reference in tuple_oracle.py; they need the hypothesis package."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cobord2.bisets import (
    Correspondence,
    LieRInstance,
    biregular_biset,
    copants_biset,
    cyclic,
    identity_biset,
    pants_biset,
    product_group,
)

import tuple_oracle as ref


@st.composite
def _transport_case(draw):
    """A composable pair of cyclic-group bisets, at most one chaining item
    on either side of it, and pair codes on that sequence with the pair
    composed: a probe of it, or an arbitrary small set."""
    g = cyclic(draw(st.integers(2, 5)))
    shapes = [identity_biset(g), biregular_biset(g), pants_biset(g), copants_biset(g),
              identity_biset(product_group(g, g))]
    a, b = draw(st.sampled_from(
        [(a, b) for a in shapes for b in shapes if a.right_group == b.left_group]))
    pre = draw(st.sampled_from([()] + [(m,) for m in shapes if m.right_group == a.left_group]))
    post = draw(st.sampled_from([()] + [(m,) for m in shapes if m.left_group == b.right_group]))
    inst = LieRInstance()
    coarse = inst.seq(pre + (inst.try_compose1(a, b),) + post)
    n = math.prod(m.size for m in coarse.items)
    choices = [st.sets(st.integers(0, n * n - 1), max_size=30).map(
        lambda c: np.array(sorted(c), dtype=np.int64))]
    if n <= 150:
        choices.append(st.sampled_from([probe.pairs for _, probe in inst.probes(coarse)]))
    probe = Correspondence(coarse.items, coarse.items, draw(st.one_of(choices)))
    return inst, inst.seq(pre + (a, b) + post), coarse, len(pre), probe


@settings(max_examples=60, deadline=None)
@given(_transport_case(), st.sampled_from(["target", "source"]))
def test_push_of_pull_is_identity_and_invariance_matches_tuples(case, side):
    inst, fine, coarse, pos, probe = case
    orbit_of, members = ref.compose_orbits(fine.items[pos], fine.items[pos + 1])
    pulled = inst.transport_probe(probe, coarse, fine, pos, False, side)
    assert ref.tuples(pulled) == ref.transport(
        ref.tuples(probe), fine.items, pos, orbit_of, members, False, side)
    pushed = inst.transport_probe(pulled, fine, coarse, pos, True, side)
    assert inst.simple2_equal(pushed, probe)
    # the pull is the preimage under an equivariant surjection, so it is
    # invariant exactly when the probe is
    assert ref.is_invariant(pulled.src, pulled.tgt, ref.tuples(pulled)) == ref.is_invariant(
        probe.src, probe.tgt, ref.tuples(probe))
