import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cobord2 import bisets as bs
from cobord2 import catalog
from cobord2.bisets import (
    Correspondence,
    FiniteBiset,
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
    BoundaryMismatch,
    Face,
    SeqMorphism,
    StackDiagram,
    check_diagram_axiom,
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
    """The rows of the array table as lists, with the entries 1 and 2 of
    the last row swapped."""
    *rows, last = table.tolist()
    return (*rows, [last[0], last[2], last[1]] + last[3:])


# Order 128: the law checks cover these tables in several row blocks.
C128 = cyclic(128)

# A non-associative loop of order 5: a Latin square with identity 0.
_LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def _loop_times_cyclic(k):
    """The table of _LOOP5 x Zk, (a, b) coded a * k + b.  Its first
    generator, 1 = (0, 1), associates with every pair, so Light's test
    finds the failure only at a later generator."""
    return tuple(tuple(_LOOP5[x // k][y // k] * k + (x + y) % k for y in range(5 * k))
                 for x in range(5 * k))


@pytest.mark.parametrize("mult, message", [
    (((0, 1), (1,)), "malformed multiplication table"),
    (((0, 1), (1, 2)), "malformed multiplication table"),
    (((1, 1), (1, 1)), "no identity element"),
    (((0, 1), (1, 1)), "element 1 has no inverse"),
    (((0, 1, 2), (1, 2, 0), (2, 1, 0)), "not associative"),
    (_tamper_last_row(C128.mult), "not associative"),
    # entries that are not integers are refused, not truncated to Z2's
    (((0, 1.5), (1.5, 0)), "malformed multiplication table"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), "malformed multiplication table"),
    (((False, True), (True, False)), "malformed multiplication table"),
    (((0, 1), (True, 0)), "malformed multiplication table"),
    (np.array([[False, True], [True, False]]), "malformed multiplication table"),
    ((("0", "1"), ("1", "0")), "malformed multiplication table"),
    (_loop_times_cyclic(2), "not associative"),
    (_loop_times_cyclic(3), "not associative"),
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

# FiniteBiset checks the action laws on generators only.  S3 (generated
# by 1 and 2) and Z2xZ2 (generated by 1 and 2) have elements outside
# those sets; tampering one of them must still fail the law it breaks.
Z2Z2 = product_group(Z2, Z2)
_S3_ID, _Z2Z2_ID = identity_biset(S3), identity_biset(Z2Z2)
assert S3.generators() == Z2Z2.generators() == (1, 2)


def _swap_row(table, row):
    """The rows of the array table as lists, with the first two entries
    of one row swapped."""
    rows = table.tolist()
    r = rows[row]
    r[0], r[1] = r[1], r[0]
    return rows


def _swap_column(table, col):
    """The rows of the array table as lists, with the first two entries
    of one column swapped."""
    return [list(c) for c in zip(*_swap_row(table.T, col))]


def _tamper_cases(group, ident, element):
    """A left action tampered at element, a right action tampered at
    element and a left action tampered at the identity, with the message
    each must raise."""
    return [
        (group, group, _swap_row(ident.left, element), ident.right,
         "left action not associative"),
        (group, group, ident.left, _swap_column(ident.right, element),
         "right action not associative"),
        (group, group, _swap_row(ident.left, group.identity), ident.right,
         "identities act nontrivially"),
    ]


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
    *_tamper_cases(S3, _S3_ID, 5),
    *_tamper_cases(Z2Z2, _Z2Z2_ID, 3),
    # lawful actions through the first and the second factor, swapping 0,1
    # and 1,2: they fail to commute at the non-generator 3 too, and the
    # check finds it on the generator pair (2, 1)
    (Z2Z2, Z2Z2, ((0, 1, 2), (0, 1, 2), (1, 0, 2), (1, 0, 2)),
     ((0, 0, 0, 0), (1, 2, 1, 2), (2, 1, 2, 1)), "actions do not commute"),
    # entries that are not integers are refused, not truncated to Z2's swap
    (Z2, bs.TRIVIAL, ((0, 1), (1.9, 0.2)), ((0,), (1,)), "malformed left action"),
    (Z2, bs.TRIVIAL, np.array([[0.0, 1.0], [1.0, 0.0]]), ((0,), (1,)), "malformed left action"),
    (Z2, bs.TRIVIAL, ((0, 1), (True, False)), ((0,), (1,)), "malformed left action"),
    (bs.TRIVIAL, Z2, ((0, 1),), ((0, 1.9), (1, 0.2)), "malformed right action"),
    (bs.TRIVIAL, Z2, ((0, 1),), ((0, True), (1, False)), "malformed right action"),
    (bs.TRIVIAL, Z2, ((0, 1),), np.array([[0, 1], [1, 0]], dtype=bool), "malformed right action"),
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
    assert comp.left.tolist() == identity_biset(Z2).left.tolist()
    assert comp.right.tolist() == identity_biset(Z2).right.tolist()


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
            assert ref.biset_iso(got, m)


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
        assert twice.left.tolist() == m.left.tolist()
        assert twice.right.tolist() == m.right.tolist()


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
    assert ref.biset_iso(
        inst.try_compose1(biregular_biset(Z3).adjoint(), identity_biset(Z3).adjoint()),
        inst.try_compose1(identity_biset(Z3), biregular_biset(Z3)).adjoint(),
    )


def test_criterion_1_pass_checks_only_the_catalog_bisets(monkeypatch):
    # the 54 composites of a pass are lawful by construction and skip the
    # law checks; only the 21 catalog bisets, built from tables, run them
    checked = []
    body = FiniteBiset.__post_init__
    monkeypatch.setattr(FiniteBiset, "__post_init__",
                        lambda self: checked.append(self.name) or body(self))
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    loops = list(catalog.axiom_loops(inst, catalog.loop_start_sequences(inst.catalog), 4))
    assert len(loops) == 108 and not any(bad for _, _, bad in loops)
    assert len(inst._compose_memo) == 54
    assert len(checked) == 21 and checked == [m.name for m in inst.catalog]


def test_decomposition_enumeration():
    cat = [identity_biset(Z2), biregular_biset(Z2)]
    inst = LieRInstance(cat)
    m = biregular_biset(Z2)
    comp = inst.try_compose1(m, m)
    decs = inst.enumerate_decompositions(comp)
    assert (m, m) in decs


def _tables(items):
    """(left, right, right group inverses) of each item, as lists."""
    return [(item.left.tolist(), item.right.tolist(), item.right_group.inverses.tolist())
            for item in items]


def _act(tables, tup, left, mids, right):
    """tup moved by left in the first item's left group, right in the
    last item's right group and mids[j] in the group between items j and
    j+1, applied as whole elements: item i, with the _tables entry
    tables[i], sends x to l.x.r^-1."""
    out = []
    for i, ((lt, rt, inv), x) in enumerate(zip(tables, tup)):
        l = left if i == 0 else mids[i - 1]
        r = right if i == len(tables) - 1 else mids[i]
        out.append(rt[lt[l][x]][inv[r]])
    return tuple(out)


def _brute_orbit_probe(items, start):
    g0, gn = items[0].left_group, items[-1].right_group
    mids = list(itertools.product(*[range(m.right_group.order) for m in items[:-1]]))
    tables = _tables(items)
    return {
        (_act(tables, start, l, a, r), _act(tables, start, l, b, r))
        for l in range(g0.order) for r in range(gn.order) for a in mids for b in mids
    }


def _brute_collapse(items):
    mids = list(itertools.product(*[range(m.right_group.order) for m in items[:-1]]))
    l, r = items[0].left_group.identity, items[-1].right_group.identity
    tables = _tables(items)
    return {
        frozenset(_act(tables, tup, l, a, r) for a in mids) for tup in product_tuples(items)
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
            got = ref.tuples(ref.coded_orbit_probe(inst, items, code))
            assert got == _brute_orbit_probe(items, tuples[code])
        assert _decoded_collapse(items) == _brute_collapse(items)
        checked += 1
    assert checked == 65


def test_orbits_of_unequal_size_match_tuple_reference():
    # a (1, Z2)-biset on {0, 1, 2, 3} whose generator swaps 0 and 1, then
    # the one-point (Z2, 1)-biset: the middle orbits {0, 1}, {2} and {3}
    # have unequal sizes, so the relation probe is laid out by ranges, not
    # as one block, and orbit-first ({0, 1} squared) is not orbit-mid
    swap = FiniteBiset("swap01", bs.TRIVIAL, Z2, [[0, 1, 2, 3]], [[0, 1], [1, 0], [2, 2], [3, 3]])
    items = (swap, unit_biset(Z2).adjoint())
    inst = LieRInstance()
    assert np.bincount(inst.collapse(items).orbit_of).tolist() == [2, 1, 1]
    probes = inst.probes(inst.seq(items))
    tuples = sorted(product_tuples(items))
    assert [(name, ref.tuples(probe)) for name, probe in probes] == [
        ("relation", ref.orbit_relation(items)),
        ("orbit-first", ref.orbit_probe(items, tuples[0])),
        ("orbit-mid", ref.orbit_probe(items, tuples[2])),
    ]
    assert [len(probe.pairs) for _, probe in probes] == [6, 4, 1]
    for code, tup in enumerate(tuples):
        assert ref.tuples(ref.coded_orbit_probe(inst, items, code)) == ref.orbit_probe(items, tup)


def test_probes_of_the_largest_start_stay_small():
    # reg_Q8 + reg_Q8 has 4096 product codes.  The orbit probes class
    # its 512 middle orbits, so nothing the size of its 4096**2 pair codes
    # (16.7 MB as a byte map) is allocated, and they are held as orbit
    # rows, 4096 codes a side for the relation's 32768 pairs: the probes
    # peak near 0.26 MiB (0.84 MiB when they were built as pairs)
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
    assert [len(probe.rows["target"].codes) for _, probe in probes] == [4096, 512, 512]
    assert peak < 1 << 20


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


def test_transport_probe_refuses_a_probe_that_does_not_leave_seq_from():
    # the relation probe of (reg_Z2, reg_Z2) has 16 codes a side, as
    # (id_Z2xZ2, id_Z2xZ2) has, so carrying it from there indexes without
    # error into a wrong answer; (id_Z2, id_Z2) has 4, and the push map
    # is indexed out of bounds.  Both are refused before the memo.
    inst = LieRInstance()
    reg = biregular_biset(Z2)
    start = inst.seq((reg, reg))
    probe = dict(inst.probes(start))["relation"]
    for ident in (identity_biset(product_group(Z2, Z2)), identity_biset(Z2)):
        fine = inst.seq((ident, ident))
        coarse = inst.seq((inst.try_compose1(ident, ident),))
        for side in ("target", "source"):
            for here, there, compose in ((fine, coarse, True), (coarse, fine, False)):
                with pytest.raises(BoundaryMismatch, match="the probe's %s" % side):
                    inst.transport_probe(probe, here, there, 0, compose, side)
    assert inst._transport_memo == {}
    # from its own sequence the probe is carried as before
    coarse = inst.seq((inst.try_compose1(reg, reg),))
    for side in ("target", "source"):
        out = inst.transport_probe(probe, start, coarse, 0, True, side)
        orbit_of, members = ref.compose_orbits(reg, reg)
        want = ref.transport(ref.tuples(probe), (reg, reg), 0, orbit_of, members, True, side)
        assert ref.tuples(out) == want
    assert len(inst._transport_memo) == 2


def _dedup_branch(probe, out, compose, fine, pos, side) -> tuple:
    """(direction, branch) of a transport from probe to out along side,
    by the rule in LieRInstance._transport: a mask over the rows' code
    space (the fixed side's orbit labels by the moving side's codes)
    when it is no bigger than the codes, else a sort.  A pull hands each
    row code its |G| preimages before the dedup."""
    rows = probe.rows[side]
    n_codes = len(rows.codes) * (1 if compose else fine[pos].right_group.order)
    space = rows.collapsed.count * bs._carrier_size(out.tgt if side == "target" else out.src)
    return ("push" if compose else "pull", "mark" if space <= 8 * n_codes else "sort")


def test_transport_dedup_branches_match_tuple_reference():
    # every probe of each three-item Z2/Z3 start up to 81 product tuples,
    # carried one step to every neighbor and back, on both sides: both
    # directions take both branches, and half the steps compose or split
    # at position 1, with an item before the pair, the other half at
    # position 0, with one after it
    inst = LieRInstance(catalog.default_biset_catalog({"z2": Z2, "z3": Z3}))
    cat = inst.catalog
    starts = [(a, b, c) for a in cat for b in cat for c in cat
              if a.right_group == b.left_group and b.right_group == c.left_group
              and a.size * b.size * c.size <= 81]
    seen, coinciding, steps = set(), set(), []
    for items in starts:
        start = inst.seq(items)
        for nxt_items in catalog._neighbors(inst, items):
            nxt = inst.seq(nxt_items)
            pos, compose = composition_step(inst, start, nxt)
            fine = items if compose else nxt_items
            orbit_of, members = ref.compose_orbits(fine[pos], fine[pos + 1])
            steps.append(pos)
            for side in ("target", "source"):
                for _, probe in inst.probes(start):
                    want = ref.tuples(probe)
                    # there and back: a push is followed by a pull, and
                    # the other way round
                    for here, there, push in ((start, nxt, compose), (nxt, start, not compose)):
                        out = inst._transport(probe, here, there, pos, push, side)
                        want = ref.transport(want, fine, pos, orbit_of, members, push, side)
                        assert ref.tuples(out) == want
                        assert out.pairs.dtype == np.int64
                        assert (np.diff(out.pairs) > 0).all()
                        branch = _dedup_branch(probe, out, push, fine, pos, side)
                        seen.add(branch)
                        if len(out.rows[side].codes) < len(probe.rows[side].codes):
                            coinciding.add(branch)
                        probe = out
    assert len(starts) == 56 and len(steps) == 112 and steps.count(1) == 56
    assert seen == {(d, b) for d in ("push", "pull") for b in ("mark", "sort")}
    # pushed images coincide in both branches
    assert coinciding == {("push", "mark"), ("push", "sort")}


def test_rows_expand_to_the_pairs_they_stand_for():
    # rows need not be a probe's: any rows on either side stand for the
    # pairs whose fixed code's orbit row holds the moving code, and expand
    # to them sorted, also where one row holds two orbits that interleave
    inst = LieRInstance()
    items = (biregular_biset(Z3), biregular_biset(Z3))
    collapsed = inst.collapse(items)
    orbit_of, count = collapsed.orbit_of.tolist(), collapsed.count
    n = len(orbit_of)
    rng = np.random.default_rng(7)
    for side, width in (("target", n), ("source", count)):
        codes = np.flatnonzero(rng.random(count * n) < 0.05)
        rows = bs._Rows(collapsed, width, codes)
        held = set(codes.tolist())
        want = [s * n + t for s in range(n) for t in range(n)
                if (orbit_of[s] * n + t if side == "target" else s * count + orbit_of[t]) in held]
        assert bs._pair_count(Correspondence(items, items, rows={side: rows})) == len(want)
        assert Correspondence(items, items, rows={side: rows}).pairs.tolist() == want


def test_intern_keeps_fingerprint_collisions_apart():
    # {0, 3} and {1, 2} on the same sequence have the same pair count,
    # so they share an intern bucket and stay two objects
    inst = LieRInstance()
    seq = (identity_biset(Z2),)
    first = inst._intern(Correspondence(seq, seq, np.array([0, 3], dtype=np.int64)))
    other = inst._intern(Correspondence(seq, seq, np.array([1, 2], dtype=np.int64)))
    assert other is not first
    assert not inst.simple2_equal(first, other)
    assert [len(bucket) for bucket in inst._interned.values()] == [2]
    # equal content held in another array is the first object, read-only
    twin = Correspondence(seq, seq, np.array([1, 2], dtype=np.int64))
    assert inst._intern(twin) is other
    assert twin.pairs.flags.writeable
    assert not first.pairs.flags.writeable and not other.pairs.flags.writeable
    with pytest.raises(ValueError):
        other.pairs[0] = 0
    # another target is another bucket, even with the same pair codes
    wide = (identity_biset(Z3),)
    assert inst._intern(Correspondence(seq, wide, np.array([1, 2], dtype=np.int64))) is not other


def test_divmod_matches_numpy_on_int64_edges():
    # pair codes stay under (4096 product codes)**2, the start cap squared
    top = 4096 ** 2
    for n in (1, 2, 3, 7, 8, 64, 4095, 4096, 4097, top - 1, top, top + 1):
        codes = np.array([0, 1, n - 1, n, n + 1, 2 * n - 1, 2 * n, 5 * n, top // n * n,
                          top - 2, top - 1], dtype=np.int64)
        got, want = bs._divmod(codes, n), np.divmod(codes, n)
        for a, b in zip(got, want):
            assert a.dtype == np.int64
            assert np.array_equal(a, b), n
    # the builders' 2-D arguments and an empty code array
    grid = np.arange(4096, dtype=np.int64).reshape(64, 64)
    assert all(np.array_equal(a, b) for a, b in zip(bs._divmod(grid, 48), np.divmod(grid, 48)))
    assert [len(a) for a in bs._divmod(np.zeros(0, dtype=np.int64), 5)] == [0, 0]


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


def test_memo_hits_hash_no_biset(monkeypatch):
    # the memos key sequences by per-instance codes, found by identity,
    # so a loop checked again is all memo hits and hashes no biset
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    checked = []
    for items in catalog.loop_start_sequences(inst.catalog):
        start = inst.seq(items)
        for loop in catalog.enumerate_loops(inst, items, 4):
            seqs = [SeqMorphism(start.source, start.target, s) for s in loop]
            checked.append((seqs, check_diagram_axiom(seqs, inst)))
    hashed = []
    body = FiniteBiset.__hash__
    monkeypatch.setattr(FiniteBiset, "__hash__", lambda self: hashed.append(self) or body(self))
    monkeypatch.setattr(LieRInstance, "_transport", lambda *args: pytest.fail("memo miss"))
    for seqs, results in checked:
        assert check_diagram_axiom(seqs, inst) == results
    assert len(checked) == 108 and hashed == []
    # equal sequences held in new tuples share the memo: each new
    # tuple hashes its bisets once, when it is first coded
    seqs, results = checked[-1]
    copies = [SeqMorphism(s.source, s.target, tuple(list(s.items))) for s in seqs]
    assert check_diagram_axiom(copies, inst) == results
    assert 0 < len(hashed) <= sum(len(s.items) for s in copies)


def test_a_second_criterion_1_pass_pins_nothing_new():
    # the walk holds the instance's canonical sequences, and an equal
    # tuple made again (the fresh start tuples of the second pass) is
    # found by content without being pinned, so the code entries grow
    # with the distinct contents only
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    entries = []
    for _ in range(2):
        loops = list(catalog.axiom_loops(inst, catalog.loop_start_sequences(inst.catalog), 4))
        assert len(loops) == 108 and not any(bad for _, _, bad in loops)
        entries.append((len(inst._codes), len(inst._codes_by_id)))
    assert entries[0] == entries[1]
    assert len(inst._codes) == len(inst._codes_by_id)
    start = catalog.loop_start_sequences(inst.catalog)[-1]
    aliases = len(inst._aliases)
    assert inst.canonical(tuple(list(start))) is inst.canonical(start)
    assert len(inst._aliases) == aliases
    # the aliases that codes are found for by identity are bounded too
    for _ in range(2 * bs._ALIASES):
        inst._code(tuple(list(start)))
    assert 0 < len(inst._aliases) <= bs._ALIASES


def test_criterion_1_collapses_each_start_pair_once(monkeypatch):
    # composing a start pair and probing it share the instance's collapse
    # memo, so each of the 54 composed pairs is acted on and collapsed once
    calls = {"_actions": 0, "_collapse": 0}
    for name in calls:
        def counted(*args, _body=getattr(bs, name), _name=name):
            calls[_name] += 1
            return _body(*args)

        monkeypatch.setattr(bs, name, counted)
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    loops = list(catalog.axiom_loops(inst, catalog.loop_start_sequences(inst.catalog), 4))
    assert len(loops) == 108 and not any(bad for _, _, bad in loops)
    assert len(inst._compose_memo) == 54
    assert calls == {"_actions": 54, "_collapse": 54}


def test_criterion_1_sorts_and_labels_each_sequence_once(monkeypatch):
    # composition and the relation probe share the collapse's one stable
    # orbit sort, and a probed start's outer classes are labelled once for
    # both orbit probes, over its orbit labels
    sorts, sizes = [], []
    argsort, orbits = np.argsort, bs._orbits
    monkeypatch.setattr(np, "argsort", lambda a, **kw: sorts.append((a, kw)) or argsort(a, **kw))
    monkeypatch.setattr(bs, "_orbits", lambda size, perms: sizes.append(size) or orbits(size, perms))
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    loops = list(catalog.axiom_loops(inst, catalog.loop_start_sequences(inst.catalog), 4))
    assert len(loops) == 108 and not any(bad for _, _, bad in loops)
    collapsed = list(inst._collapse_memo.values())
    probed = [inst.collapse(probes[0][1].src) for probes in inst._probe_memo.values()]
    assert len(collapsed) == 54 and len(probed) == 54
    assert len(sorts) == 54 and all(kw == {"kind": "stable"} for _, kw in sorts)
    assert {id(a) for a, _ in sorts} == {id(c.orbit_of) for c in collapsed}
    # one labelling of the codes per collapse, one of the orbit labels per probed start
    assert sorted(sizes) == sorted([len(c.orbit_of) for c in collapsed] + [c.count for c in probed])


def test_identification2_reuses_the_instances_collapse(monkeypatch):
    # a gluing face takes the composite the instance already made, so the
    # pair is collapsed once however often it is identified
    calls = []
    body = bs._collapse
    monkeypatch.setattr(bs, "_collapse", lambda acts: calls.append(acts) or body(acts))
    m = biregular_biset(Z3)
    inst = LieRInstance()
    inst.try_compose1(m, m)
    corrs = [inst.identification2(m, m) for _ in range(2)]
    assert len(calls) == 1
    want = identification_corr(m, m)
    for corr in corrs:
        assert corr.src == want.src and corr.tgt == want.tgt
        assert np.array_equal(corr.pairs, want.pairs)
    # a pair whose middle action is trivial does not compose; the memo's
    # None is raised on, not composed again
    ident = identity_biset(Z3)
    fixed = tuple(tuple(x for _ in range(Z3.order)) for x in range(ident.size))
    still = tuple(tuple(range(ident.size)) for _ in range(Z3.order))
    a = FiniteBiset("id_Z3<right.1", Z3, Z3, ident.left, fixed)
    b = FiniteBiset("id_Z3<left.1", Z3, Z3, still, ident.right)
    calls.clear()
    assert inst.try_compose1(a, b) is None
    for _ in range(2):
        with pytest.raises(NotComposable):
            inst.identification2(a, b)
    assert len(calls) == 1


def test_criterion_1_pass_computes_each_sequence_size_once(monkeypatch):
    # a sequence's size (with its suffixes' sizes, the strides of its
    # product codes) is carried by the instance once computed
    computed = collections.Counter()
    for name in ("_carrier_size", "_suffix_sizes"):
        def counting(seq, original=getattr(bs, name)):
            computed[tuple(seq)] += 1
            return original(seq)
        monkeypatch.setattr(bs, name, counting)
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    loops = list(catalog.axiom_loops(inst, catalog.loop_start_sequences(inst.catalog), 4))
    assert len(loops) == 108
    assert computed and max(computed.values()) == 1


def test_criterion_1_pass_traced_memory_stays_bounded():
    # one full criterion-1 pass on a fresh instance, memos included, peaks
    # at 3.6-3.7 MiB of traced memory with probes carried as orbit rows;
    # it peaked at 6.5-6.9 MiB when they were carried as pairs, and at
    # 9.6-9.7 MiB when every transport was computed
    tracemalloc.start()
    try:
        inst = LieRInstance(tuple(catalog.default_biset_catalog()))
        loops = list(catalog.axiom_loops(inst, catalog.loop_start_sequences(inst.catalog), 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loops) == 108 and not any(bad for _, _, bad in loops)
    assert peak < 5 << 20
