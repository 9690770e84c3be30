import pytest

from cobord2 import cobordism as cb
from cobord2.cobordism import (
    Attachment,
    Circle,
    CobStep,
    Move,
    PatternMismatch,
    SurfComponent,
    Surface,
    apply_move,
    apply_moves,
    closed_surface_chain,
    cylinder_seq,
    glue_surfaces,
    reverse_step,
    solid_torus_seq,
    validate,
    validate_chain,
)
from cobord2.words import Word


def annulus_chain():
    c0, c1 = Circle("c0"), Circle("c1")
    item = Surface((SurfComponent(1, (c0,), (c1,)),), (c0,), (c1,))
    return (item,)


def two_item_chain():
    c0, c1, mid = Circle("c0"), Circle("c1"), Circle("mid")
    a = Surface((SurfComponent(0, (c0,), (mid,)),), (c0,), (mid,))
    b = Surface((SurfComponent(0, (mid,), (c1,)),), (mid,), (c1,))
    return (a, b)


def test_surface_validation():
    c = Circle("c")
    with pytest.raises(ValueError):
        SurfComponent(0, (), ())  # closed component
    with pytest.raises(cb.ChainMismatch):
        Surface((SurfComponent(0, (c,), ()),), (), ())  # source not covered


def test_chain_validation():
    chain = two_item_chain()
    assert validate_chain(chain) == []
    broken = (chain[0], chain[0])
    assert validate_chain(broken)


def test_glue_surfaces_arithmetic():
    a, b = two_item_chain()
    merged = glue_surfaces(a, b)
    assert merged is not None
    assert len(merged.components) == 1
    comp = merged.components[0]
    assert comp.genus == 0 and comp.k == 2
    assert merged.euler == a.euler + b.euler


def test_glue_refuses_closed():
    c = Circle("m")
    a = Surface((SurfComponent(1, (), (c,)),), (), (c,))
    b = Surface((SurfComponent(0, (c,), ()),), (c,), ())
    assert glue_surfaces(a, b) is None


def test_cylinder_and_empty_sequences():
    chain = annulus_chain()
    seq = cylinder_seq(chain)
    assert validate(seq) == []
    assert validate(()) == []


def test_zero_handle_wrong_target_rejected():
    chain = annulus_chain()
    with pytest.raises(PatternMismatch):
        CobStep(cb.ZERO_HANDLE, chain, chain, position=0, circle="z")


def test_compression2_closing_component_rejected():
    # 2-handle making a closed component: separating split with an
    # empty side must be refused
    c0 = Circle("c0")
    item = Surface((SurfComponent(1, (c0,), ()),), (c0,), ())
    disc = Surface((SurfComponent(0, (c0,), ()),), (c0,), ())
    word = Word(0, (("d", "c0", 1),))
    with pytest.raises(PatternMismatch):
        CobStep(
            cb.COMPRESSION, (item,), (disc,), index=2,
            attachments=(Attachment(0, 0, word=word),),
        )


def test_solid_torus_and_closed_surface_catalog():
    seq = solid_torus_seq()
    assert validate(seq) == []
    chain = closed_surface_chain(2)
    assert validate_chain(chain) == []
    assert sum(item.euler for item in chain) == 2 - 2 * 2


def test_nonseparating_compression():
    chain = annulus_chain()
    tgt_comp = SurfComponent(0, (Circle("c0"),), (Circle("c1"),))
    tgt = (Surface((tgt_comp,), (Circle("c0"),), (Circle("c1"),)),)
    step = CobStep(
        cb.COMPRESSION, chain, tgt, index=2,
        attachments=(Attachment(0, 0, word=Word(0, (("a", 1, 1),))),),
    )
    assert validate((step,)) == []
    rev = reverse_step(step)
    assert rev.index == 1
    assert validate((rev,)) == []


def test_euler_characteristic_under_moves():
    # one 2-dimensional surgery moves the surface Euler characteristic
    # by exactly two
    seq = cylinder_seq(annulus_chain())
    out = apply_move(seq, Move("create12", 0, (0, 0)))
    for step in out:
        assert sum(i.euler for i in step.source) - sum(i.euler for i in step.target) in (-2, 2)
    fine = apply_move(
        cylinder_seq(annulus_chain()) + cylinder_seq(annulus_chain()),
        Move("circle_insert", 1, (0, 1, "e")),
    )
    for step in fine:
        assert sum(i.euler for i in step.source) == sum(i.euler for i in step.target)


def test_cylinder_create_cancel_invertible():
    seq = cylinder_seq(annulus_chain())
    bigger = apply_move(seq, Move("cyl_create", 1))
    assert len(bigger) == 2
    assert validate(bigger) == []
    back = apply_move(bigger, Move("cyl_cancel", 1))
    assert back == seq


def test_cylinder_cancel_of_the_only_step_is_refused():
    # an empty sequence has no boundary left to evaluate
    with pytest.raises(PatternMismatch, match="^cyl_cancel of the only step leaves no steps$"):
        apply_move(cylinder_seq(annulus_chain()), Move("cyl_cancel", 0))


def test_circle_insert_remove_invertible():
    chain = annulus_chain()
    seq = cylinder_seq(chain) + cylinder_seq(chain)
    fine = apply_move(seq, Move("circle_insert", 1, (0, 1, "new")))
    assert validate(fine) == []
    assert fine[0].kind == cb.CIRCLE_INSERT
    assert fine[1].kind == cb.CIRCLE_REMOVE
    back = apply_move(fine, Move("circle_remove", 1))
    assert back == seq


def test_create12_cancel12_invertible():
    seq = cylinder_seq(annulus_chain())
    pair = apply_move(seq, Move("create12", 0, (0, 0)))
    assert len(pair) == 2
    assert validate(pair) == []
    assert pair[0].index == 1 and pair[1].index == 2
    back = apply_move(pair, Move("cancel12", 0))
    assert back == seq


def test_cancel12_rejects_wrong_word():
    seq = cylinder_seq(annulus_chain())
    pair = apply_move(seq, Move("create12", 0, (0, 0)))
    # corrupt the 2-handle word: same curve as the belt does not cancel
    s2 = pair[1]
    bad_att = Attachment(0, s2.attachments[0].comp, word=Word(s2.attachments[0].comp, (("a", 2, 1),)))
    bad = CobStep(s2.kind, s2.source, s2.target, index=2, attachments=(bad_att,))
    with pytest.raises(PatternMismatch):
        apply_move(pair[:1] + (bad,), Move("cancel12", 0))


def test_create01_cancel01_invertible():
    c1 = Circle("c1")
    item = Surface((SurfComponent(0, (), (c1,)),), (), (c1,))
    seq = cylinder_seq((item,))
    trio = apply_move(seq, Move("create01", 0, (0, "ball")))
    assert len(trio) == 3
    assert validate(trio) == []
    assert trio[0].kind == cb.ZERO_HANDLE
    assert trio[1].kind == cb.COMPRESSION and trio[1].index == 1
    assert trio[2].kind == cb.CIRCLE_REMOVE
    back = apply_move(trio, Move("cancel01", 0))
    assert back == seq


def test_create23_cancel23_invertible():
    c1 = Circle("c1")
    item = Surface((SurfComponent(0, (), (c1,)),), (), (c1,))
    seq = cylinder_seq((item,))
    trio = apply_move(seq, Move("create23", 0, (0, "ball")))
    assert len(trio) == 3
    assert validate(trio) == []
    assert trio[0].kind == cb.CIRCLE_INSERT
    assert trio[2].kind == cb.THREE_HANDLE
    back = apply_move(trio, Move("cancel23", 0))
    assert back == seq


def test_imbricate_and_split():
    c0 = Circle("c0")
    big = Surface((SurfComponent(2, (c0,), ()),), (c0,), ())
    mid = Surface((SurfComponent(1, (c0,), ()),), (c0,), ())
    low = Surface((SurfComponent(0, (c0,), ()),), (c0,), ())
    s1 = CobStep(
        cb.COMPRESSION, (big,), (mid,), index=2,
        attachments=(Attachment(0, 0, word=Word(0, (("a", 2, 1),))),),
    )
    s2 = CobStep(
        cb.COMPRESSION, (mid,), (low,), index=2,
        attachments=(Attachment(0, 0, word=Word(0, (("a", 1, 1),))),),
    )
    merged = apply_move((s1, s2), Move("imbricate", 0))
    assert len(merged) == 1
    assert validate(merged) == []
    words = sorted(a.word.gens for a in merged[0].attachments)
    assert words == [(("a", 1, 1),), (("a", 2, 1),)]
    back = apply_move(merged, Move("split_compression", 0, (1,)))
    assert back == (s1, s2)


def test_imbricate_nonseparating_then_separating_on_one_component():
    # both words of the merged step number the handles of the genus-2
    # source, so the separating word names handle 2 once handle 1 is cut
    c0, c1 = Circle("c0"), Circle("c1")
    big = Surface((SurfComponent(2, (c0,), (c1,)),), (c0,), (c1,))
    mid = Surface((SurfComponent(1, (c0,), (c1,)),), (c0,), (c1,))
    cap = Surface((SurfComponent(1, (c0,), ()),), (c0,), ())
    cup = Surface((SurfComponent(0, (), (c1,)),), (), (c1,))

    def separating(h):
        return Word(0, (("d", "c0", 1), ("a", h, 1), ("b", h, 1), ("a", h, -1), ("b", h, -1)))

    s1 = CobStep(
        cb.COMPRESSION, (big,), (mid,), index=2,
        attachments=(Attachment(0, 0, word=Word(0, (("a", 1, 1),))),),
    )
    s2 = CobStep(
        cb.COMPRESSION, (mid,), (cap, cup), index=2,
        attachments=(Attachment(0, 0, word=separating(1)),),
    )
    merged = apply_move((s1, s2), Move("imbricate", 0))
    assert validate(merged) == []
    assert [a.word for a in merged[0].attachments] == [Word(0, (("a", 1, 1),)), separating(2)]
    assert apply_move(merged, Move("split_compression", 0, (1,))) == (s1, s2)
    with pytest.raises(PatternMismatch):
        CobStep(
            cb.COMPRESSION, (big,), (cap, cup), index=2,
            attachments=(Attachment(0, 0, word=Word(0, (("a", 1, 1),))),
                         Attachment(0, 0, word=separating(1))),
        )


def test_switch_disjoint_components():
    c0, c1 = Circle("u0"), Circle("u1")
    left = Surface((SurfComponent(1, (), (c0,)),), (), (c0,))
    right = Surface((SurfComponent(1, (c0,), (c1,)),), (c0,), (c1,))
    left_low = Surface((SurfComponent(0, (), (c0,)),), (), (c0,))
    right_low = Surface((SurfComponent(0, (c0,), (c1,)),), (c0,), (c1,))
    s1 = CobStep(
        cb.COMPRESSION, (left, right), (left_low, right), index=2,
        attachments=(Attachment(0, 0, word=Word(0, (("a", 1, 1),))),),
    )
    s2 = CobStep(
        cb.COMPRESSION, (left_low, right), (left_low, right_low), index=2,
        attachments=(Attachment(1, 0, word=Word(0, (("a", 1, 1),))),),
    )
    swapped = apply_move((s1, s2), Move("switch", 0))
    assert validate(swapped) == []
    assert swapped[0].attachments[0].item == 1
    assert swapped[1].attachments[0].item == 0
    again = apply_move(swapped, Move("switch", 0))
    assert again == (s1, s2)


def test_relabel_internal_only():
    chain = annulus_chain()
    seq = cylinder_seq(chain) + cylinder_seq(chain)
    fine = apply_move(seq, Move("circle_insert", 1, (0, 0, "tmp")))
    renamed = apply_moves(fine, [Move("relabel", 0, (("tmp", "fresh"),))])
    assert validate(renamed) == []
    assert renamed[0].circle == "fresh"
    with pytest.raises(PatternMismatch):
        apply_move(fine, Move("relabel", 0, (("c0", "x"),)))


def _cap_chain():
    c1 = Circle("c1")
    return (Surface((SurfComponent(0, (), (c1,)),), (), (c1,)),)


def _discs(label):
    c = Circle(label)
    return (Surface((SurfComponent(0, (), (c,)),), (), (c,)),
            Surface((SurfComponent(0, (c,), ()),), (c,), ()))


def _malformed_forward_steps():
    """(name, fields of a forward step that its own rule refuses)."""
    ann, cap = annulus_chain(), _cap_chain()
    two = two_item_chain()
    genus0 = annulus_chain()[0].components[0]
    flat = (Surface((SurfComponent(0, genus0.into, genus0.out),), genus0.into, genus0.out),)
    a = lambda word: (Attachment(0, 0, word=Word(0, word)),)
    return [
        ("ball-without-discs", dict(kind=cb.ZERO_HANDLE, source=ann, target=ann, position=0,
                                    circle="z")),
        ("ball-without-label", dict(kind=cb.ZERO_HANDLE, source=cap, target=_discs("z") + cap,
                                    position=0, circle=None)),
        ("ball-at-a-full-point", dict(kind=cb.ZERO_HANDLE, source=ann,
                                      target=_discs("z") + ann, position=0, circle="z")),
        ("ball-past-the-chain", dict(kind=cb.ZERO_HANDLE, source=cap, target=cap + _discs("z"),
                                     position=3, circle="z")),
        ("merge-of-the-wrong-circle", dict(kind=cb.CIRCLE_REMOVE, source=two,
                                           target=(glue_surfaces(*two),), position=0,
                                           circle="c0")),
        ("merge-to-the-wrong-genus", dict(kind=cb.CIRCLE_REMOVE, source=two, target=ann,
                                          position=0, circle="mid")),
        ("merge-of-a-broken-chain", dict(kind=cb.CIRCLE_REMOVE, source=(two[0], two[0]),
                                         target=ann, position=0, circle="mid")),
        ("handle-past-the-genus", dict(kind=cb.COMPRESSION, source=ann, target=flat, index=2,
                                       attachments=a((("a", 2, 1),)))),
        ("handle-on-a-missing-item", dict(kind=cb.COMPRESSION, source=ann, target=flat, index=2,
                                          attachments=(Attachment(1, 0, word=Word(0, (("a", 1, 1),))),))),
        ("handle-changing-nothing", dict(kind=cb.COMPRESSION, source=ann, target=ann, index=2,
                                         attachments=a((("a", 1, 1),)))),
    ]


def _mirror(kind, source, target, position=0, circle=None, index=0, attachments=()):
    """The fields of the reversed step mirroring a forward step."""
    if kind == cb.COMPRESSION:
        index = 3 - index
        attachments = tuple(Attachment(x.item, x.comp, word=x.belt, feet=x.feet, belt=x.word)
                            for x in attachments)
    return dict(kind=cb.REVERSED_KIND[kind], source=target, target=source, position=position,
                circle=circle, index=index, attachments=attachments)


@pytest.mark.parametrize("name, fields", _malformed_forward_steps(),
                         ids=[name for name, _ in _malformed_forward_steps()])
def test_a_reversed_step_is_refused_as_its_mirrored_forward_step(name, fields):
    with pytest.raises(PatternMismatch) as forward:
        CobStep(**fields)
    mirrored = _mirror(**fields)
    assert mirrored["kind"] in (cb.THREE_HANDLE, cb.CIRCLE_INSERT, cb.COMPRESSION)
    with pytest.raises(PatternMismatch) as reversed_:
        CobStep(**mirrored)
    assert str(reversed_.value) == str(forward.value)


def test_each_mirrored_step_builds_when_its_forward_step_does():
    chain = cylinder_seq(annulus_chain()) + cylinder_seq(annulus_chain())
    seqs = [apply_move(chain, Move("circle_insert", 1, (0, 1, "e"))),
            apply_move(cylinder_seq(_cap_chain()), Move("create01", 0, (0, "ball"))),
            apply_move(cylinder_seq(_cap_chain()), Move("create23", 0, (0, "ball"))),
            apply_move(cylinder_seq(annulus_chain()), Move("create12", 0, (0, 0)))]
    steps = [step for seq in seqs for step in seq if not cb.is_forward(step)]
    assert {step.kind for step in steps} == {cb.THREE_HANDLE, cb.CIRCLE_INSERT, cb.COMPRESSION}
    for step in steps:
        fields = _mirror(**{f: getattr(step, f) for f in (
            "kind", "source", "target", "position", "circle", "index", "attachments")})
        assert CobStep(**fields) == reverse_step(step)


def test_unknown_kinds_and_compression_indices_keep_their_messages():
    chain = annulus_chain()
    with pytest.raises(PatternMismatch, match=r"^unknown step kind 'twist'$"):
        CobStep("twist", chain, chain)
    for index in (0, 3):
        with pytest.raises(PatternMismatch, match=r"^compression index must be 1 or 2$"):
            CobStep(cb.COMPRESSION, chain, chain, index=index)


def test_is_forward_names_the_kinds_with_rules_of_their_own():
    forward = cylinder_seq(annulus_chain())[0]
    assert cb.is_forward(forward)
    for seq in (solid_torus_seq(), apply_move(cylinder_seq(_cap_chain()),
                                              Move("create23", 0, (0, "ball")))):
        for step in seq:
            assert cb.is_forward(step) != cb.is_forward(reverse_step(step))
            assert cb.is_forward(step) == (step.kind in (cb.ZERO_HANDLE, cb.CIRCLE_REMOVE) or (
                step.kind == cb.COMPRESSION and step.index == 2))


@pytest.mark.parametrize("kind", ["relabel", "cyl_create", "cyl_cancel", "circle_insert",
                                  "circle_remove", "imbricate", "split_compression", "switch",
                                  "cancel01", "create01", "cancel23", "create23", "cancel12",
                                  "create12"])
def test_every_move_refuses_a_negative_position(kind):
    seq = cylinder_seq(annulus_chain()) + cylinder_seq(annulus_chain())
    with pytest.raises(PatternMismatch, match=r"^move position -1 is negative$"):
        apply_move(seq, Move(kind, -1))


def test_relabel_refuses_a_name_it_leaves_in_place():
    chain = annulus_chain()
    fine = apply_move(cylinder_seq(chain) + cylinder_seq(chain),
                      Move("circle_insert", 1, (0, 0, "tmp")))
    for new in ("c0", "c1"):
        with pytest.raises(PatternMismatch, match="reuse the label %r" % new):
            apply_move(fine, Move("relabel", 0, (("tmp", new),)))
    # the renamed label itself may be named again
    assert apply_move(fine, Move("relabel", 0, (("tmp", "tmp"),))) == fine


@pytest.mark.parametrize("move", [Move("create01", 0, (0, "c1")), Move("create23", 0, (0, "c1"))])
def test_a_new_ball_circle_must_be_new_to_its_chain(move):
    with pytest.raises(PatternMismatch, match=r"^circle label 'c1' is already in the chain$"):
        apply_move(cylinder_seq(_cap_chain()), move)


def test_a_new_cut_circle_must_be_new_to_its_chain():
    chain = annulus_chain()
    with pytest.raises(PatternMismatch, match=r"^circle label 'c0' is already in the chain$"):
        apply_move(cylinder_seq(chain) + cylinder_seq(chain),
                   Move("circle_insert", 1, (0, 0, "c0")))
