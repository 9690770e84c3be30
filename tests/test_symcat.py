import pytest

from cobord2.diagram import Face, StackDiagram, seq_from_items
from cobord2.symcat import (
    Component,
    CorrSymbol,
    ExcisionRecord,
    HamInstance,
    NotComposableSym,
    POINT,
    TransversalityUnknown,
    diagonal_sym,
    equal_2morphisms,
    identification_sym,
    moduli_symbol,
    normalize_mod_equiv,
    try_compose1_sym,
)
from cobord2.words import Word, gen


def comp(genus, left, right):
    return Component(genus, tuple((l, 1) for l in left), tuple((r, 1) for r in right))


def N(genus, left, right):
    return moduli_symbol(comp(genus, left, right))


def test_pair_of_pants_glue_once():
    a = N(0, ["c1", "c2"], ["m"])
    b = N(0, ["m"], ["c3", "c4"])
    out = try_compose1_sym(a, b)
    assert out is not None
    assert len(out.components) == 1
    c = out.components[0]
    assert c.genus == 0 and c.k == 4
    assert ExcisionRecord("m") in out.excised


def test_closed_result_is_refused():
    a = N(1, [], ["m"])
    b = N(0, ["m"], [])
    assert try_compose1_sym(a, b) is None


def test_middle_mismatch_raises():
    a = N(0, [], ["m"])
    b = N(0, ["other"], [])
    with pytest.raises(NotComposableSym):
        try_compose1_sym(a, b)


def test_euler_additivity_and_dimension_drop():
    a = N(1, ["c1"], ["m1", "m2"])
    b = N(0, ["m1", "m2"], ["c2"])
    out = try_compose1_sym(a, b)
    assert out.euler == a.euler + b.euler
    # self-gluing of the connected pair over two circles: genus 1+0+2-1
    c = out.components[0]
    assert c.genus == 2 and c.k == 2
    assert a.dim + b.dim - out.dim == 6 * 2


def test_multi_component_disjoint_union_over_empty():
    a = N(0, ["c1"], [])
    b = N(0, [], ["c2"])
    out = try_compose1_sym(a, b)
    assert len(out.components) == 2


def test_point_is_neutral_for_disjoint_union():
    x = N(1, ["c1"], [])
    assert try_compose1_sym(x, POINT).components == x.components


def test_self_gluing_adds_genus():
    a = N(0, ["c1"], ["m", "m2"])
    b = N(0, ["m", "m2"], ["c2"])
    out = try_compose1_sym(a, b)
    assert out.components[0].genus == 1


def test_unknown_kind_lacks_certificate():
    x = N(1, ["c1"], ["c2"])
    with pytest.raises(TransversalityUnknown):
        CorrSymbol("mystery", (x,), (x,))


def _seq(inst, items):
    return seq_from_items(inst, items)


def test_identification_cancels_with_adjoint():
    inst = HamInstance()
    a = N(0, ["c1"], ["m"])
    b = N(0, ["m"], ["c2"])
    ident = identification_sym(a, b)
    glued = ident.tgt[0]
    d = StackDiagram(
        _seq(inst, (a, b)),
        (
            (0, Face(ident, (a, b), (glued,))),
            (0, Face(ident.transpose(), (glued,), (a, b))),
        ),
    )
    n = normalize_mod_equiv(d, inst)
    assert n.faces == ()


def test_hol_trivial_imbrication_merges_words():
    inst = HamInstance()
    big = N(2, ["c1"], [])
    mid = N(1, ["c1"], [])
    small = N(0, ["c1"], [])
    w1 = Word(0, (gen("a", 2),))
    w2 = Word(0, (gen("a", 1),))
    # compressing handle 2 first leaves handle 1 in place
    f1 = CorrSymbol("hol_trivial", (big,), (mid,), words=(w1,), transfer=((("a", 1), ("a", 1)), (("b", 1), ("b", 1))))
    f2 = CorrSymbol("hol_trivial", (mid,), (small,), words=(w2,), transfer=())
    merged = inst.try_compose2_vertical(f1, f2)
    assert merged is not None
    assert merged.kind == "hol_trivial"
    assert set(merged.words) == {w1, w2}


def test_cancelling_pair_gives_diagonal():
    inst = HamInstance()
    small = N(0, ["c1"], ["c2"])
    big = N(1, ["c1"], ["c2"])
    up = CorrSymbol("hol_trivial", (small,), (big,), transposed=True, words=(Word(0, (gen("a", 1),)),))
    down = CorrSymbol("hol_trivial", (big,), (small,), words=(Word(0, (gen("b", 1),)),))
    got = inst.try_compose2_vertical(up, down)
    assert got is not None and got.kind == "diagonal"
    # the un-cancelling word pair does not merge
    down_bad = CorrSymbol("hol_trivial", (big,), (small,), words=(Word(0, (gen("a", 1),)),))
    assert inst.try_compose2_vertical(up, down_bad) is None


def test_normalize_erases_excision_flags():
    inst = HamInstance()
    small = N(0, ["c1"], ["c2"])
    flagged = small.with_excisions([ExcisionRecord("zz")])
    word = Word(0, (gen("d", "c1"),))
    plain_face = CorrSymbol("hol_trivial", (small,), (small,), words=(word,))
    flag_face = CorrSymbol("hol_trivial", (flagged,), (flagged,), words=(word,))
    d1 = StackDiagram(_seq(inst, (small,)), ((0, Face(plain_face, (small,), (small,))),))
    d2 = StackDiagram(_seq(inst, (flagged,)), ((0, Face(flag_face, (flagged,), (flagged,))),))
    assert equal_2morphisms(d1, d2, inst)


def test_diagonal_vs_hol_trivial_differ():
    inst = HamInstance()
    x = N(1, ["c1"], [])
    seq = _seq(inst, (x,))
    locus = CorrSymbol("hol_trivial", (x,), (x,), words=(Word(0, (gen("a", 1),)),))
    d1 = StackDiagram(seq, ((0, Face(diagonal_sym((x,)), (x,), (x,))),))
    d2 = StackDiagram(seq, ((0, Face(locus, (x,), (x,))),))
    assert not equal_2morphisms(d1, d2, inst)


def test_normalize_mod_equiv_idempotent():
    inst = HamInstance()
    a = N(0, ["c1"], ["m"])
    b = N(0, ["m"], ["c2"])
    ident = identification_sym(a, b)
    glued = ident.tgt[0]
    d = StackDiagram(_seq(inst, (a, b)), ((0, Face(ident, (a, b), (glued,))),))
    n = normalize_mod_equiv(d, inst)
    assert normalize_mod_equiv(n, inst).faces == n.faces


def test_equal_2morphisms_boundary_mismatch():
    from cobord2.diagram import BoundaryMismatch

    inst = HamInstance()
    x = N(1, ["c1"], [])
    y = N(2, ["c1"], [])
    d1 = StackDiagram(_seq(inst, (x,)), ((0, Face(diagonal_sym((x,)), (x,), (x,))),))
    d2 = StackDiagram(_seq(inst, (y,)), ((0, Face(diagonal_sym((y,)), (y,), (y,))),))
    with pytest.raises(BoundaryMismatch):
        equal_2morphisms(d1, d2, inst)


def test_word_canonicalization():
    w = Word(0, (gen("a", 1), gen("b", 1), gen("b", 1, -1), gen("a", 1, -1), gen("a", 2)))
    assert w.gens == (("a", 2, 1),)
    # cyclic rotation invariance
    u = Word(0, (gen("a", 1), gen("b", 1)))
    v = Word(0, (gen("b", 1), gen("a", 1)))
    assert u == v
    # free-and-cyclic reduction across the ends
    z = Word(0, (gen("a", 1, -1), gen("b", 1), gen("a", 1)))
    assert z == Word(0, (gen("b", 1),))
