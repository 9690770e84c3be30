import itertools
import math
import tracemalloc

import pytest

from cobord2 import bisets as bs
from cobord2 import catalog, suites
from cobord2.bisets import (
    Correspondence,
    LieRInstance,
    NotComposable,
    TableError,
    biregular_biset,
    copants_biset,
    cyclic,
    diagonal_corr,
    identification_corr,
    identity_biset,
    orbit_relation_corr,
    pants_biset,
    product_group,
    quaternion8,
    symmetric3,
    try_compose_bisets,
    try_compose_corrs,
    unit_biset,
)
from cobord2.diagram import (
    Face,
    SeqMorphism,
    StackDiagram,
    composition_step,
    normalize_diagram,
    wire_row,
)

import tuple_oracle as ref
from diagram_builders import identity_diagram, patch_diagram
from tuple_oracle import diagram_collapse, product_tuples


Z2 = cyclic(2)
Z3 = cyclic(3)
S3 = symmetric3()
Q8 = quaternion8()


def test_group_laws_checked_on_construction():
    with pytest.raises(TableError):
        bs.FiniteGroup("bad", ((0, 1), (0, 1)))  # no inverse for 1
    with pytest.raises(TableError):
        bs.FiniteGroup("bad", ((0, 1, 2), (1, 2, 0), (2, 1, 0)))  # not associative


def _tamper_last_row(table):
    """table with the entries 1 and 2 of its last row swapped."""
    *rows, last = table
    return (*rows, (last[0], last[2], last[1]) + last[3:])


# Order 128: the law checks cover these tables in several row blocks.
C128 = cyclic(128)


@pytest.mark.parametrize("mult, message", [
    (((0, 1), (1,)), "malformed multiplication table"),
    (((0, 1), (1, 2)), "malformed multiplication table"),
    (((1, 1), (1, 1)), "no identity element"),
    (((0, 1), (1, 1)), "element 1 has no inverse"),
    (((0, 1, 2), (1, 2, 0), (2, 1, 0)), "not associative"),
    (_tamper_last_row(C128.mult), "not associative"),
])
def test_each_group_law_is_checked_with_its_message(mult, message):
    with pytest.raises(TableError, match="^bad: %s$" % message):
        bs.FiniteGroup("bad", mult)


# Three points: Z3 rotating them, a Z3 table whose generator squares to
# itself, and Z2 tables swapping 0,1 and 1,2, which do not commute.
_ROT3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_BAD3 = ((0, 1, 2), (1, 2, 0), (1, 2, 0))
_TRIV_LEFT3 = ((0, 1, 2),)
_TRIV_RIGHT3 = ((0,), (1,), (2,))


@pytest.mark.parametrize("left_group, right_group, left, right, message", [
    (Z3, bs.TRIVIAL, _ROT3[:2], _TRIV_RIGHT3, "malformed left action"),
    (Z3, bs.TRIVIAL, ((0, 1), (1, 0), (0, 1)), _TRIV_RIGHT3, "malformed left action"),
    (bs.TRIVIAL, Z3, _TRIV_LEFT3, ((0, 1, 2), (1, 2), (2, 0, 1)), "malformed right action"),
    (bs.TRIVIAL, Z3, _TRIV_LEFT3, ((0, 1), (1, 2), (2, 0)), "malformed right action"),
    (Z3, bs.TRIVIAL, ((1, 2, 0), (2, 0, 1), (0, 1, 2)), _TRIV_RIGHT3,
     "identities act nontrivially"),
    (bs.TRIVIAL, Z3, _TRIV_LEFT3, ((1, 2, 0), (2, 0, 1), (0, 1, 2)),
     "identities act nontrivially"),
    (Z3, bs.TRIVIAL, _BAD3, _TRIV_RIGHT3, "left action not associative"),
    (bs.TRIVIAL, Z3, _TRIV_LEFT3, tuple(zip(*_BAD3)), "right action not associative"),
    (Z2, Z2, ((0, 1, 2), (1, 0, 2)), ((0, 0), (1, 2), (2, 1)), "actions do not commute"),
    (C128, C128, _tamper_last_row(identity_biset(C128).left), identity_biset(C128).right,
     "left action not associative"),
])
def test_each_biset_law_is_checked_with_its_message(left_group, right_group, left, right,
                                                    message):
    with pytest.raises(TableError, match="^bad: %s$" % message):
        bs.FiniteBiset("bad", left_group, right_group, left, right)
    # the same carrier with lawful tables is accepted
    bs.FiniteBiset("good", Z3, bs.TRIVIAL, _ROT3, _TRIV_RIGHT3)
    bs.FiniteBiset("good", bs.TRIVIAL, Z3, _TRIV_LEFT3, _ROT3)


def test_group_constructions():
    assert Z2.order == 2 and Z3.order == 3
    assert S3.order == 6
    assert Q8.order == 8
    assert product_group(Z2, Z3).order == 6
    for g in (Z2, Z3, S3, Q8):
        e = g.identity
        for a in range(g.order):
            assert g.mult[a][g.inverse(a)] == e


def test_biset_constructors_validate():
    for g in (Z2, Z3, S3, Q8):
        identity_biset(g)
        biregular_biset(g)
        pants_biset(g)
        copants_biset(g)
        unit_biset(g)


def test_compose_regular_z2_is_identity():
    m = identity_biset(Z2)
    made = try_compose_bisets(m, m)
    assert made is not None
    comp, _, _ = made
    assert comp.size == 2
    assert comp.left == identity_biset(Z2).left
    assert comp.right == identity_biset(Z2).right


def test_identity_biset_is_neutral():
    inst = LieRInstance()
    for g in (Z2, Z3, S3):
        ident = identity_biset(g)
        for m in (biregular_biset(g), pants_biset(g)):
            # ident composes on the side matching its group
            got = inst.try_compose1(m, ident)
            assert got is not None
            assert got.size == m.size
            # composite is isomorphic to m via orbit representatives; the
            # action tables must agree after the canonical relabeling
            assert _biset_iso(got, m)


def _biset_iso(a, b):
    """Equivariant bijection search by orbit of a seed point (works for
    the transitive-enough carriers used here)."""
    if a.size != b.size or a.left_group != b.left_group or a.right_group != b.right_group:
        return False
    G, H = a.left_group, b.right_group
    # try mapping a's point 0 to every point of b and propagate
    for y0 in range(b.size):
        mapping = {0: y0}
        frontier = [0]
        ok = True
        while frontier and ok:
            new = []
            for x in frontier:
                for g in range(G.order):
                    xx, yy = a.left[g][x], b.left[g][mapping[x]]
                    if xx in mapping:
                        if mapping[xx] != yy:
                            ok = False
                            break
                    else:
                        mapping[xx] = yy
                        new.append(xx)
                for h in range(H.order):
                    xx, yy = a.right[x][h], b.right[mapping[x]][h]
                    if xx in mapping:
                        if mapping[xx] != yy:
                            ok = False
                            break
                    else:
                        mapping[xx] = yy
                        new.append(xx)
                if not ok:
                    break
            frontier = new
        if ok and len(mapping) == a.size and len(set(mapping.values())) == a.size:
            return True
    return False


def test_composite_size_is_product_over_middle_order():
    for g in (Z2, Z3, S3, Q8):
        m = biregular_biset(g)
        made = try_compose_bisets(m, m)
        assert made is not None
        comp, _, _ = made
        assert comp.size == m.size * m.size // g.order


def test_pants_composes_associatively_over_q8():
    inst = LieRInstance()
    pants = pants_biset(Q8)
    cop = copants_biset(Q8)
    # (copants o pants): Q8 -> Q8^2 -> Q8, carrier 64*64/64
    once = inst.try_compose1(cop, pants)
    assert once is not None
    assert once.size == 64 * 64 // 64
    # associativity through a three-term collapse: pairwise compositions
    # agree with the full quotient
    seq = (cop, pants)
    collapsed = inst.collapse(seq)
    assert collapsed.count == once.size


def test_collapse_of_single_item_is_itself():
    m = pants_biset(Z3)
    c = LieRInstance().collapse((m,))
    assert c.count == m.size


def test_collapse_absorbs_identity_factor():
    inst = LieRInstance()
    for g in (Z2, Z3, S3):
        m = biregular_biset(g)
        assert inst.collapse((m, identity_biset(g))).count == m.size
        assert inst.collapse((identity_biset(g), m)).count == m.size


def test_collapse_matches_iterated_composition():
    inst = LieRInstance()
    for g in (Z2, Z3):
        m = biregular_biset(g)
        seq = (m, m, m)
        two = inst.try_compose1(m, m)
        three = inst.try_compose1(two, m)
        assert inst.collapse(seq).count == three.size


def test_identification_graph_z2():
    m = identity_biset(Z2)
    corr = identification_corr(m, m)
    assert len(corr.pairs) == 4
    # (x, y) lands on the orbit of its smallest code: {00, 11} is 0, {01, 10} is 1
    assert ref.tuples(corr) == {(((x, y), ((x + y) % 2,))) for x in range(2) for y in range(2)}
    assert ref.is_invariant(corr.src, corr.tgt, ref.tuples(corr))


def test_identification_compose_with_adjoint_is_identity():
    inst = LieRInstance()
    for g in (Z2, Z3, S3):
        m = identity_biset(g)
        corr = identification_corr(m, m)
        both = try_compose_corrs(corr, corr.transpose())
        assert both is not None
        assert inst.is_identity2(both)


def test_two_to_one_projection_is_refused():
    # a correspondence from (id_Z2, id_Z2) to itself whose projection
    # collides: the full orbit relation composed with itself stays
    # defined, but the relation composed against a fattened copy of the
    # graph collapses two middle points onto one outer pair
    m = identity_biset(Z2)
    rel = orbit_relation_corr((m, m), LieRInstance().collapse((m, m)))
    assert try_compose_corrs(rel, rel) is None


def test_diagonal_composes_as_identity():
    m = biregular_biset(Z2)
    diag = diagonal_corr((m,))
    corr = identification_corr(m, m)
    # diagonal on (m, m) followed by the graph = the graph
    diag2 = diagonal_corr((m, m))
    got = try_compose_corrs(diag2, corr)
    assert LieRInstance().simple2_equal(got, corr)


def test_orbit_relation_is_identity2():
    inst = LieRInstance()
    m = biregular_biset(Z3)
    rel = orbit_relation_corr((m, m), inst.collapse((m, m)))
    assert inst.is_identity2(rel)
    diag = diagonal_corr((m, m))
    assert inst.is_identity2(diag)
    # a proper sub-diagonal is not
    half = Correspondence(diag.src, diag.tgt, diag.pairs[:1])
    assert not inst.is_identity2(half)


def test_probe_invariance():
    inst = LieRInstance()
    seq = inst.seq((identity_biset(Z3), identity_biset(Z3)))
    for name, probe in inst.probes(seq):
        assert ref.is_invariant(probe.src, probe.tgt, ref.tuples(probe)), name


def test_normalize_merges_stacked_identifications():
    inst = LieRInstance()
    m = identity_biset(Z2)
    corr = identification_corr(m, m)
    comp = corr.tgt[0]
    seq = inst.seq((m, m))
    d = StackDiagram(
        seq,
        (
            (Face(corr, (m, m), (comp,)),),
            (Face(corr.transpose(), (comp,), (m, m)),),
        ),
    )
    n = normalize_diagram(d, inst)
    assert n.rows == ()


def test_normalize_collapse_oracle():
    # normalizing first and collapsing equals collapsing directly
    inst = LieRInstance()
    for g in (Z2, Z3):
        m = identity_biset(g)
        corr = identification_corr(m, m)
        comp = corr.tgt[0]
        seq = inst.seq((m, m))
        d = StackDiagram(
            seq,
            (
                (Face(corr, (m, m), (comp,)),),
                (Face(corr.transpose(), (comp,), (m, m)),),
            ),
        )
        n = normalize_diagram(d, inst)
        assert diagram_collapse(d, inst) == diagram_collapse(n, inst)


def test_collapse_oracle_on_mixed_patch_diagram():
    # a four-move loop patches to a diagram whose set-level collapse
    # equals the collapse of the identity diagram, and normalization
    # preserves it
    cat = [identity_biset(Z2), biregular_biset(Z2)]
    inst = LieRInstance(cat)
    m = biregular_biset(Z2)
    comp = inst.try_compose1(m, m)
    seq2 = inst.seq((m, m))
    seq1 = inst.seq((comp,))
    loop = [seq2, seq1, seq2, seq1, seq2]
    patch = patch_diagram(inst, loop)
    assert patch.face_count() == 4
    collapsed = diagram_collapse(patch, inst)
    assert collapsed == diagram_collapse(identity_diagram(seq2), inst)
    normalized = normalize_diagram(patch, inst)
    assert diagram_collapse(normalized, inst) == collapsed


def test_adjoint_involutive():
    for m in (identity_biset(S3), biregular_biset(Q8), pants_biset(Z3)):
        twice = m.adjoint().adjoint()
        assert twice.left == m.left and twice.right == m.right


def test_adjunction_compatible_with_composition():
    # (phi, psi) composable forces (psi^T, phi^T) composable with the
    # adjoint composite
    inst = LieRInstance()
    for m, n in ((identity_biset(Z3), biregular_biset(Z3)),
                 (biregular_biset(Z2), biregular_biset(Z2))):
        made = inst.try_compose1(m, n)
        assert made is not None
        flipped = inst.try_compose1(n.adjoint(), m.adjoint())
        assert flipped is not None
        assert flipped.size == made.size
        assert flipped.left_group == made.adjoint().left_group
    assert _biset_iso(
        inst.try_compose1(biregular_biset(Z3).adjoint(), identity_biset(Z3).adjoint()),
        inst.try_compose1(identity_biset(Z3), biregular_biset(Z3)).adjoint(),
    )


def test_decomposition_enumeration():
    cat = [identity_biset(Z2), biregular_biset(Z2)]
    inst = LieRInstance(cat)
    m = biregular_biset(Z2)
    comp = inst.try_compose1(m, m)
    decs = inst.enumerate_decompositions(comp)
    assert (m, m) in decs


def _act(items, tup, left, mids, right):
    """tup moved by left in the first item's left group, right in the
    last item's right group and mids[j] in the group between items j and
    j+1, applied as whole elements: item i sends x to l.x.r^-1."""
    out = []
    for i, (item, x) in enumerate(zip(items, tup)):
        l = left if i == 0 else mids[i - 1]
        r = right if i == len(items) - 1 else mids[i]
        out.append(item.right[item.left[l][x]][item.right_group.inverse(r)])
    return tuple(out)


def _brute_orbit_probe(items, start):
    g0, gn = items[0].left_group, items[-1].right_group
    mids = list(itertools.product(*[range(m.right_group.order) for m in items[:-1]]))
    return {
        (_act(items, start, l, a, r), _act(items, start, l, b, r))
        for l in range(g0.order) for r in range(gn.order) for a in mids for b in mids
    }


def _brute_collapse(items):
    mids = list(itertools.product(*[range(m.right_group.order) for m in items[:-1]]))
    l, r = items[0].left_group.identity, items[-1].right_group.identity
    return {
        frozenset(_act(items, tup, l, a, r) for a in mids) for tup in product_tuples(items)
    }


def _decoded_collapse(items):
    """The orbits of LieRInstance.collapse as sets of product tuples."""
    collapsed = LieRInstance().collapse(items)
    orbits = [set() for _ in range(collapsed.count)]
    for tup, oid in zip(product_tuples(items), collapsed.orbit_of.tolist()):
        orbits[oid].add(tup)
    return {frozenset(orbit) for orbit in orbits}


def test_orbit_probe_and_collapse_match_whole_group_action():
    # the oracle closes under generators only; this reference applies
    # every group element, on every catalog start sequence small enough
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    checked = 0
    for items in catalog.loop_start_sequences(inst.catalog):
        orders = [items[0].left_group.order] + [m.right_group.order for m in items]
        if orders[0] * orders[-1] * math.prod(orders[1:-1]) ** 2 > 5000:
            continue
        # product codes run in sorted tuple order
        tuples = sorted(product_tuples(items))
        for code in (0, len(tuples) // 2):
            got = ref.tuples(inst._orbit_probe(items, code))
            assert got == _brute_orbit_probe(items, tuples[code])
        assert _decoded_collapse(items) == _brute_collapse(items)
        checked += 1
    assert checked == 65


def test_probes_of_the_largest_start_stay_small():
    # reg_Q8 + reg_Q8 has 4096 product codes.  The orbit probes search
    # its 512 middle orbits, so nothing the size of its 4096**2 pair codes
    # (16.7 MB as a byte map) is allocated: the probes peak near 1 MB
    q8 = biregular_biset(Q8)
    inst = LieRInstance()
    seq = inst.seq((q8, q8))
    inst.collapse(seq.items)
    tracemalloc.start()
    try:
        probes = inst.probes(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(probe.pairs) for _, probe in probes] == [32768, 4096, 4096]
    assert peak < 4 << 20


def test_transport_matches_tuple_reference_around_every_loop():
    # every probe, carried on both sides around every depth-4 loop from
    # the Z2 and Z3 start sequences, step by step against the tuples
    inst = LieRInstance(catalog.default_biset_catalog({"z2": Z2, "z3": Z3}))
    carried = 0
    for items in catalog.loop_start_sequences(inst.catalog):
        start = inst.seq(items)
        probes = inst.probes(start)
        tuples = sorted(product_tuples(items))
        assert [(name, ref.tuples(probe)) for name, probe in probes] == [
            ("relation", ref.orbit_relation(items)),
            ("orbit-first", ref.orbit_probe(items, tuples[0])),
            ("orbit-mid", ref.orbit_probe(items, tuples[len(tuples) // 2])),
        ]
        for loop in catalog.enumerate_loops(inst, items, 4):
            seqs = [SeqMorphism(start.source, start.target, s) for s in loop]
            for side in ("target", "source"):
                for _, probe in probes:
                    coded, tuples = probe, ref.tuples(probe)
                    for cur, nxt in zip(seqs, seqs[1:]):
                        pos, compose = composition_step(inst, cur, nxt)
                        fine = cur.items if compose else nxt.items
                        orbit_of, members = ref.compose_orbits(fine[pos], fine[pos + 1])
                        coded = inst.transport_probe(coded, cur, nxt, pos, compose, side)
                        tuples = ref.transport(tuples, fine, pos, orbit_of, members, compose, side)
                        assert ref.tuples(coded) == tuples
                        carried += 1
                    assert tuples == ref.tuples(probe)
    assert carried == 1152


def _criterion_1_loop_ends(inst):
    """(probe, carried probe) at the end of each of criterion 1's 648
    probe walks: 108 loops, three probes, two sides."""
    ends = []
    for items in catalog.loop_start_sequences(inst.catalog):
        start = inst.seq(items)
        for loop in catalog.enumerate_loops(inst, items, 4):
            seqs = [SeqMorphism(start.source, start.target, s) for s in loop]
            steps = [composition_step(inst, a, b) for a, b in zip(seqs, seqs[1:])]
            for side in ("target", "source"):
                for _, probe in inst.probes(start):
                    carried = probe
                    for (pos, compose), cur, nxt in zip(steps, seqs, seqs[1:]):
                        carried = inst.transport_probe(carried, cur, nxt, pos, compose, side)
                    ends.append((probe, carried))
    return ends


def test_transport_memo_carries_each_distinct_probe_once(monkeypatch):
    # criterion 1 calls transport_probe 1944 times, but its 225 start
    # probes hold 84 distinct correspondences and its loops share steps,
    # so only 252 (probe content, step, side) transports are distinct
    body = LieRInstance._transport
    computed = []

    def counted(self, *args):
        computed.append(args)
        return body(self, *args)

    monkeypatch.setattr(LieRInstance, "_transport", counted)
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    for expected in (252, 0):
        computed.clear()
        ends = _criterion_1_loop_ends(inst)
        assert len(computed) == expected
        assert len(ends) == 648
        # every probe comes back, as the very object probes() handed out
        assert all(carried is probe for probe, carried in ends)


def test_criterion_1_pass_traced_memory_stays_bounded():
    # one full criterion-1 pass on a fresh instance, memos included, peaks
    # at 6.7-6.9 MiB of traced memory; it peaked at 9.6-9.7 MiB when every
    # transport was computed, so the memo saves more than it holds
    tracemalloc.start()
    try:
        inst = LieRInstance(tuple(catalog.default_biset_catalog()))
        loops = list(suites.axiom_loops(inst, catalog.loop_start_sequences(inst.catalog), 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loops) == 108 and not any(bad for _, _, bad in loops)
    assert peak < 8 << 20
