
from unittest import mock

import numpy as np
import pytest

from cobord2 import catalog as cat
from cobord2 import cdf
from cobord2 import cobordism as cb
from cobord2 import crosscheck as xc
from cobord2 import functor as fn
from cobord2.cobordism import Circle, Move, SurfComponent, Surface, cylinder_seq
from cobord2.diagram import Face
from cobord2.symcat import (
    HamInstance,
    normalize_mod_equiv,
    strip_diagram_excisions,
    try_compose1_sym,
)
from cobord2.words import Word

from test_golden_normal_forms import corpus


def test_eval0_orientations():
    circles = (Circle("a"), Circle("b", -1))
    g = fn.eval0(circles)
    assert ("a", 1) in g.circles and ("b", -1) in g.circles
    assert fn.eval0(()) .circles == ()


def test_eval1_reads_genus_and_boundaries():
    pants = Surface(
        (SurfComponent(0, (Circle("c0"),), (Circle("c1"), Circle("c2"))),),
        (Circle("c0"),),
        (Circle("c1"), Circle("c2")),
    )
    seq = fn.eval1((pants,))
    sym = seq.items[0]
    assert sym.components[0].genus == 0
    assert sym.components[0].k == 3
    disc = Surface((SurfComponent(0, (), (Circle("c"),)),), (), (Circle("c"),))
    sym2 = fn.eval1((disc,)).items[0]
    assert sym2.components[0].k == 1


def test_eval1_ignores_parametrization_ids():
    # reparametrizing an intermediate circle changes the decorated
    # chain but not its evaluation
    def chain(param):
        mid = Circle("mid", 1, param)
        a = Surface((SurfComponent(0, (Circle("c0"),), (mid,)),), (Circle("c0"),), (mid,))
        b = Surface((SurfComponent(1, (mid,), (Circle("c1"),)),), (mid,), (Circle("c1"),))
        return (a, b)

    one, two = chain("p"), chain("q")
    assert one != two
    assert fn.eval1(one) == fn.eval1(two)


def test_closed_surface_stays_length_two():
    chain = cb.closed_surface_chain(2)
    seq = fn.eval1(chain)
    assert len(seq.items) == 2
    assert try_compose1_sym(seq.items[0], seq.items[1]) is None


def test_eval2_cylinder_normalizes_empty():
    inst = HamInstance()
    d = fn.eval2(cylinder_seq(cat._annulus_chain()), inst)
    assert normalize_mod_equiv(d, inst).faces == ()


def test_eval2_functorial_under_concatenation():
    inst = HamInstance()
    seq = cat._compression_tower()
    d_all = fn.eval2(seq, inst)
    d1 = fn.eval2(seq[:1], inst)
    d2 = fn.eval2(seq[1:], inst)
    assert d_all.faces == d1.faces + d2.faces


def test_cancelling_pair_normalizes_to_identity():
    inst = HamInstance()
    pair = cb.apply_move(cylinder_seq(cat._annulus_chain(0)), Move("create12", 0, (0, 0)))
    d = fn.eval2(pair, inst)
    # the two faces merge to the diagonal, which is the identity
    (_, f1), (_, f2) = d.faces
    merged = inst.try_compose2_vertical(f1.morph, f2.morph)
    assert merged is not None and merged.kind == "diagonal"
    assert normalize_mod_equiv(d, inst).faces == ()


def test_zero_one_pattern_normalizes_empty():
    inst = HamInstance()
    trio = cb.apply_move(cylinder_seq(cat._capped_chain()), Move("create01", 0, (0, "ball")))
    d = fn.eval2(trio, inst)
    assert d.face_count() == 3
    assert normalize_mod_equiv(d, inst).faces == ()


def test_two_three_pattern_normalizes_empty():
    inst = HamInstance()
    trio = cb.apply_move(cylinder_seq(cat._capped_chain()), Move("create23", 0, (0, "ball")))
    d = fn.eval2(trio, inst)
    assert normalize_mod_equiv(d, inst).faces == ()


def test_imbrication_merges_words_symbolically():
    inst = HamInstance()
    tower = cat._compression_tower()
    d = fn.eval2(tower, inst)
    n = normalize_mod_equiv(d, inst)
    assert n.face_count() == 1
    ((_, face),) = n.faces
    assert face.morph.kind == "hol_trivial"
    assert len(face.morph.words) == 2


def test_eval1_circle_refinement_gives_equivalent_sequences():
    # one composition move, modulo the excision flag of the glued circle
    chain = cat._annulus_chain()
    double = cylinder_seq(chain) + cylinder_seq(chain)
    fine = cb.apply_move(double, Move("circle_insert", 1, (0, 1, "mid")))
    coarse_seq = fn.eval1(chain)
    fine_seq = fn.eval1(fine[0].target)
    assert len(fine_seq.items) == 2
    assert (fine_seq.source, fine_seq.target) == (coarse_seq.source, coarse_seq.target)
    glued = try_compose1_sym(*fine_seq.items)
    assert glued.excised and (glued.without_excisions(),) == coarse_seq.items


def test_normalization_idempotent_over_corpus():
    inst = HamInstance()
    for name, y1, moves in cat.cerf_move_catalog():
        for seq in (y1, cb.apply_moves(y1, moves)):
            n = normalize_mod_equiv(fn.eval2(seq, inst), inst)
            again = normalize_mod_equiv(n, inst)
            assert again.faces == n.faces, name


def test_invariance_over_move_catalog():
    for name, y1, moves in cat.cerf_move_catalog():
        y2 = cb.apply_moves(y1, moves)
        records = fn.invariance_check(y1, y2, moves)
        failed = [r for r in records if not r[1]]
        assert not failed, (name, failed)


def test_invariance_negative_control():
    y1, y2 = cat.negative_control()
    records = fn.invariance_check(y1, y2, [])
    statuses = {name: ok for name, ok, _ in records}
    assert statuses["normal-forms-equal"] is False


def test_relabel_renames_the_words_that_name_a_circle():
    # a 0-/1-handle pattern and a 2-/3-handle pattern, each on its own
    # internal circle: the joining 1-handle's belt and the 2-handle's word
    # are the separating loops d_ball and d_orb.  Swapping the two labels
    # renames both words, and the renamed patterns still cancel
    capped = cylinder_seq(cat._capped_chain())
    seq = cb.apply_moves(capped + capped, [Move("create01", 0, (0, "ball")),
                                           Move("create23", 3, (0, "orb"))])
    moves = [Move("relabel", 0, (("ball", "orb"), ("orb", "ball")))]
    renamed = cb.apply_moves(seq, moves)

    def words(steps):
        return [(s.circle, [(a.word, a.belt) for a in s.attachments]) for s in steps]

    assert words(seq)[:2] == [("ball", []), (None, [(None, Word(0, (("d", "ball", 1),)))])]
    assert words(seq)[4] == (None, [(Word(0, (("d", "orb", 1),)), None)])
    assert words(renamed) == [
        ("orb", []), (None, [(None, Word(0, (("d", "orb", 1),)))]), ("orb", []),
        ("ball", []), (None, [(Word(0, (("d", "ball", 1),)), None)]), ("ball", []),
    ]
    assert cb.validate(renamed) == []
    assert cb.apply_moves(renamed, [Move("cancel01", 0), Move("cancel23", 1)]) == capped + capped
    records = {name: ok for name, ok, _ in fn.invariance_check(seq, renamed, moves)}
    assert records["move-chain"] and records["normal-forms-equal"]


def test_move_chain_invalid_detected():
    y1 = cylinder_seq(cat._annulus_chain(0))
    y2 = cb.apply_move(y1, Move("cyl_create", 0))
    with pytest.raises(cb.MoveChainInvalid):
        fn.invariance_check(y1, y2, [Move("create12", 0, (0, 0))])


def test_membership_diagonal_and_zero_section():
    from cobord2.symcat import CorrSymbol

    inst = HamInstance()
    disc = fn.eval_surface(
        Surface((SurfComponent(0, (), (Circle("c"),)),), (), (Circle("c"),))
    )
    face = CorrSymbol("zero_section", (), (disc, disc), circles=("c",))
    pts = [fn.component_points(disc, np.array([5], dtype=np.uint64), zero_thetas=True)] * 2
    ok, r = fn.membership(face, [], pts)
    assert ok and r <= 1e-9

    ann = fn.eval_surface(cat._annulus_chain()[0])
    diag = CorrSymbol("diagonal", (ann,), (ann,))
    p = fn.component_points(ann, np.array([11], dtype=np.uint64))
    ok, r = fn.membership(diag, [p], [p])
    assert ok


def test_membership_hol_trivial_projection():
    inst = HamInstance()
    pair = cb.apply_move(cylinder_seq(cat._annulus_chain(0)), Move("create12", 0, (0, 0)))
    d = fn.eval2(pair, inst)
    down = d.faces[1][1].morph   # the index-2 face, big side on top
    src_pts, tgt_pts = fn.sample_face_points(down, 17, 5)
    ok, r = fn.membership(down, src_pts, tgt_pts)
    assert ok, r


def _genus_two_to_one(transfer):
    """The hol_trivial face compressing a1 of a genus-2 cylinder, with
    the given transfer of the genus-1 generators."""
    from cobord2.symcat import CorrSymbol

    def cyl(g):
        return fn.eval_surface(Surface((SurfComponent(g, (Circle("c0"),), (Circle("c1"),)),),
                                       (Circle("c0"),), (Circle("c1"),)))

    return CorrSymbol("hol_trivial", (cyl(2),), (cyl(1),), words=(Word(0, (("a", 1, 1),)),),
                      transfer=transfer)


def test_cross_check_compares_the_transfer_of_equal_faces():
    # the genus-1 handle is the genus-2 chart's second one; a face that
    # carries it to the first, the compressed and pinned handle, compares
    # equal under == (transfer is compare=False) yet is another face
    good = _genus_two_to_one(((("a", 1), ("a", 2)), (("b", 1), ("b", 2))))
    bad = _genus_two_to_one(((("a", 1), ("a", 1)), (("b", 1), ("b", 1))))
    assert good == bad
    with mock.patch.object(xc, "membership", wraps=xc.membership) as membership:
        assert xc.face_samples_agree(good, good, 100, 7, 0) == 0.0
        assert membership.call_count == 1
        assert xc.face_samples_agree(good, bad, 100, 7, 0) > xc.MEMBERSHIP_TOL
        assert membership.call_count == 3


def test_membership_identification_via_glue():
    inst = HamInstance()
    chain = cat._annulus_chain()
    double = cylinder_seq(chain) + cylinder_seq(chain)
    fine = cb.apply_move(double, Move("circle_insert", 1, (0, 1, "mid")))
    d = fn.eval2(fine, inst)
    # the second face is the identification
    ident = d.faces[1][1].morph
    assert ident.kind == "identification"
    import cobord2.charts as ch
    from cobord2 import su2

    sym_a, sym_b = ident.src
    trials = np.arange(20, dtype=np.uint64)
    pa = fn.component_points(sym_a, su2.mix_seed(23, trials))
    pb = fn.component_points(sym_b, su2.mix_seed(29, trials))
    # the glued circle is b's determined boundary; match from side a
    target = su2.vec_neg(ch.theta1_of(pb[0]))
    a_pt = pa[0]
    assert a_pt.chart.index_of("mid") > 0
    pa[0] = ch.with_theta(a_pt, "mid", target)
    while True:
        try:
            pieces = xc._glue_symbol_points(pa, pb, ident.glued)
            break
        except su2.BranchError as err:
            # a trial whose gluing lands on the excluded locus is dropped
            pa = {i: ch.select_lanes(p, ~err.lanes) for i, p in pa.items()}
            pb = {i: ch.select_lanes(p, ~err.lanes) for i, p in pb.items()}
    tgt_sym = ident.tgt[0]
    aligned = xc._permute_to_chart(pieces[0], fn.chart_for(tgt_sym.components[0]))
    assert aligned is not None
    ok, r = fn.membership(ident, [pa, pb], [{0: aligned}])
    assert ok, r
    assert len(ch.flatten_point(aligned)[0]) >= 10


def _stripped_faces(step):
    return strip_diagram_excisions(fn.eval2((step,))).faces


def _transpose_level(faces):
    """The transposed faces of one step: each face's offset moves from
    where its target starts in the step's target to where its source
    starts in the step's source."""
    out, shift = [], 0
    for offset, f in faces:
        out.append((offset - shift, Face(f.morph.transpose(), f.tgt_items, f.src_items)))
        shift += len(f.tgt_items) - len(f.src_items)
    return tuple(out)


def test_reversed_step_evaluates_to_transposed_row():
    steps = {step for _, seq in corpus() for step in seq}
    assert {cb.THREE_HANDLE, cb.CIRCLE_INSERT} <= {s.kind for s in steps}
    assert any(s.kind == cb.COMPRESSION and s.index == 1 for s in steps)
    for step in steps:
        reversed_faces = _stripped_faces(cb.reverse_step(step))
        assert reversed_faces == _transpose_level(_stripped_faces(step)), step.kind


TWO_FACE_CDF = """@circles
c0 +
m +
c1 +

@surfaces
g2 comp g=2 in=c0 out=m
t1 comp g=1 in=m out=c1

@chain g2 t1
@steps
compression2 0 0 d:c0
compression2 2 0 a1
"""


def test_one_step_with_two_faces_places_each():
    # a disc split off item 0 and a handle of item 1 compressed in one
    # step: the second face starts past both pieces of the first, and
    # in the reversed step past the one surface they rejoin to
    split, handle = cdf.parse_cdf(TWO_FACE_CDF).sequence()
    att = cb.Attachment(1, handle.attachments[0].comp, word=handle.attachments[0].word)
    both = cb.CobStep(cb.COMPRESSION, split.source, handle.target, index=2,
                      attachments=(split.attachments[0], att))
    faces = fn.eval2((both,)).faces
    assert [offset for offset, _ in faces] == [0, 2]
    assert faces == fn.eval2((split, handle)).faces
    reversed_faces = _stripped_faces(cb.reverse_step(both))
    assert [offset for offset, _ in reversed_faces] == [0, 1]
    assert reversed_faces == _transpose_level(_stripped_faces(both))


def test_surface_gluing_matches_symbol_composition():
    chains = {chain for _, seq in corpus() for step in seq for chain in (step.source, step.target)}
    met = closed = 0
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            if not a.target:
                continue
            met += 1
            made = try_compose1_sym(fn.eval_surface(a), fn.eval_surface(b))
            glued = cb.glue_surfaces(a, b)
            if glued is None:
                closed += 1
                assert made is None
            else:
                assert fn.eval_surface(glued) == made.without_excisions()
    assert met and closed
