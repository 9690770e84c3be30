import pytest

from cobord2 import diagram as dg
from cobord2.bisets import (
    LieRInstance,
    biregular_biset,
    cyclic,
    identification_corr,
    identity_biset,
)
from cobord2.diagram import (
    BoundaryMismatch,
    Face,
    NotAdjacentStep,
    NotALoop,
    SeqMorphism,
    StackDiagram,
    check_diagram_axiom,
    normal_forms_equal,
    normalize_diagram,
)

from diagram_builders import concat_h1, concat_h2, concat_v2, identity_diagram, patch_diagram

Z2 = cyclic(2)
Z3 = cyclic(3)
ID2 = identity_biset(Z2)
REG2 = biregular_biset(Z2)


@pytest.fixture
def inst():
    return LieRInstance([ID2, REG2])


def test_concat_h1_neutral_and_assoc(inst):
    empty = SeqMorphism(Z2, Z2, ())
    phi = inst.seq((REG2,))
    assert concat_h1(empty, phi).items == phi.items
    psi = inst.seq((REG2, ID2))
    chi = inst.seq((ID2,))
    lhs = concat_h1(concat_h1(phi, psi), chi)
    rhs = concat_h1(phi, concat_h1(psi, chi))
    assert lhs == rhs
    assert concat_h1(phi, psi).items == (REG2, REG2, ID2)


def test_concat_h1_rejects_mismatch(inst):
    phi = inst.seq((REG2,))
    bad = SeqMorphism(Z3, Z3, ())
    with pytest.raises(BoundaryMismatch):
        concat_h1(phi, bad)


def test_zero_row_diagram_is_identity(inst):
    seq = inst.seq((REG2, ID2))
    d = identity_diagram(seq)
    assert d.target.items == seq.items
    assert normalize_diagram(d, inst).faces == ()


def _bad_entries():
    """(id, entries) pairs the boundary check must refuse over (REG2, REG2)."""
    corr = identification_corr(REG2, REG2)
    merge = Face(corr, (REG2, REG2), (corr.tgt[0],))
    sourceless = Face(corr, (), (REG2,))
    return [
        # a bare slice compare reads seq[-1:-1] == () and would accept it
        ("negative-offset", ((-1, sourceless),)),
        ("source-past-end", ((1, merge),)),
        ("sourceless-past-end", ((3, sourceless),)),
        ("other-source", ((0, Face(corr, (REG2, ID2), (corr.tgt[0],))),)),
        ("second-face-misplaced", ((0, merge), (0, merge))),
        ("leftover-row", ((merge,),)),
        ("bare-face", (merge,)),
        ("offset-not-int", (("0", merge),)),
    ]


@pytest.mark.parametrize("entries", [pytest.param(e, id=name) for name, e in _bad_entries()])
def test_boundary_check_refuses_misplaced_faces(inst, entries):
    with pytest.raises(BoundaryMismatch):
        StackDiagram(inst.seq((REG2, REG2)), entries)


def test_faceless_diagram_target_is_source(inst):
    seq = inst.seq((REG2, ID2))
    assert StackDiagram(seq, ()).target == seq


def test_v2_neutrality_and_h2_padding(inst):
    corr = identification_corr(REG2, REG2)
    comp = corr.tgt[0]
    seq = inst.seq((REG2, REG2))
    d = StackDiagram(seq, ((0, Face(corr, (REG2, REG2), (comp,))),))
    both = concat_v2(identity_diagram(seq), d)
    assert both.faces == d.faces
    # horizontal: the other side's items pass through
    other = identity_diagram(inst.seq((ID2,)))
    wide = concat_h2(d, other)
    assert wide.source.items == (REG2, REG2, ID2)
    assert wide.target.items == (comp, ID2)


def test_interchange_normal_form(inst):
    corrA = identification_corr(REG2, REG2)
    compA = corrA.tgt[0]
    fA = Face(corrA, (REG2, REG2), (compA,))
    fB = Face(corrA, (REG2, REG2), (compA,))
    left = inst.seq((REG2, REG2))
    right = inst.seq((REG2, REG2))
    dA = StackDiagram(left, ((0, fA),))
    dB = StackDiagram(right, ((0, fB),))
    # A first then B, versus B first then A, after horizontal gluing
    ab = concat_v2(
        concat_h2(dA, identity_diagram(right)),
        concat_h2(identity_diagram(SeqMorphism(Z2, Z2, (compA,))), dB),
    )
    ba = concat_v2(
        concat_h2(identity_diagram(left), dB),
        concat_h2(dA, identity_diagram(SeqMorphism(Z2, Z2, (compA,)))),
    )
    assert ab.faces != ba.faces
    assert normal_forms_equal(normalize_diagram(ab, inst), normalize_diagram(ba, inst), inst)


def test_v2_h2_associative_structurally(inst):
    corr = identification_corr(REG2, REG2)
    comp = corr.tgt[0]
    seq = inst.seq((REG2, REG2))
    face = StackDiagram(seq, ((0, Face(corr, (REG2, REG2), (comp,))),))
    unface = StackDiagram(
        SeqMorphism(Z2, Z2, (comp,)), ((0, Face(corr.transpose(), (comp,), (REG2, REG2))),)
    )
    a, b, c = face, unface, face
    assert concat_v2(concat_v2(a, b), c).faces == concat_v2(a, concat_v2(b, c)).faces
    # horizontal: different face counts on the two sides
    tall = concat_v2(face, unface)
    lhs = concat_h2(concat_h2(tall, face), identity_diagram(seq))
    rhs = concat_h2(tall, concat_h2(face, identity_diagram(seq)))
    assert lhs.faces == rhs.faces


def test_single_face_stack_shape(inst):
    corr = identification_corr(REG2, ID2)
    comp = corr.tgt[0]
    seq = inst.seq((REG2, ID2))
    d = StackDiagram(seq, ((0, Face(corr, (REG2, ID2), (comp,))),))
    assert d.face_count() == 1
    assert d.target.items == (comp,)


def test_normalize_idempotent_and_face_monotone(inst):
    corr = identification_corr(REG2, REG2)
    comp = corr.tgt[0]
    seq = inst.seq((REG2, REG2))
    d = StackDiagram(
        seq,
        (
            (0, Face(corr, (REG2, REG2), (comp,))),
            (0, Face(corr.transpose(), (comp,), (REG2, REG2))),
        ),
    )
    n = normalize_diagram(d, inst)
    assert n.face_count() <= d.face_count()
    again = normalize_diagram(n, inst)
    assert again.faces == n.faces


def test_axiom_trivial_loop(inst):
    seq = inst.seq((REG2,))
    results = check_diagram_axiom([seq, seq][:1] + [seq][:0] or [seq], inst)
    # length-1 loop: no moves, every probe trivially returns
    assert results and all(ok for _, ok, _ in results)


def test_axiom_compose_decompose_loop(inst):
    comp = inst.try_compose1(REG2, REG2)
    seq2 = inst.seq((REG2, REG2))
    seq1 = inst.seq((comp,))
    results = check_diagram_axiom([seq2, seq1, seq2], inst)
    assert results and all(ok for _, ok, _ in results)


def test_axiom_rejects_nonloops(inst):
    comp = inst.try_compose1(REG2, REG2)
    seq2 = inst.seq((REG2, REG2))
    seq1 = inst.seq((comp,))
    with pytest.raises(NotALoop):
        check_diagram_axiom([seq2, seq1], inst)
    with pytest.raises(NotAdjacentStep):
        check_diagram_axiom([seq2, inst.seq((ID2, ID2)), seq2], inst)


def test_patch_diagram_shape(inst):
    comp = inst.try_compose1(REG2, REG2)
    seq2 = inst.seq((REG2, REG2))
    seq1 = inst.seq((comp,))
    patch = patch_diagram(inst, [seq2, seq1, seq2])
    assert patch.face_count() == 2
    assert patch.target.items == seq2.items
