"""Built-in corpora: the finite-group biset catalog driving the
exhaustive composition-loop checks, and the curated cobordism pairs
exercising every implemented move kind in both directions.

The composition-loop check itself, axiom_loops, lives here beside the
loop enumeration it walks, so the chart suites in suites import no
part of the biset oracle."""

from __future__ import annotations

from cobord2 import bisets as bs
from cobord2 import cobordism as cb
from cobord2.cobordism import (
    Attachment,
    Circle,
    CobStep,
    Move,
    SurfComponent,
    Surface,
    cylinder_seq,
)
from cobord2.diagram import SeqMorphism, check_diagram_axiom
from cobord2.words import Word


# --- finite side ------------------------------------------------------------------


def default_groups() -> dict:
    return {
        "z2": bs.cyclic(2),
        "z3": bs.cyclic(3),
        "s3": bs.symmetric3(),
        "q8": bs.quaternion8(),
    }


def default_biset_catalog(groups=None) -> list:
    """Identity, bi-regular, pants and copants bisets over each group;
    heavy groups only contribute the cheap shapes to keep the
    exhaustive loop suite fast."""
    groups = groups or default_groups()
    out = []
    for name, g in groups.items():
        out.append(bs.identity_biset(g))
        out.append(bs.biregular_biset(g))
        if g.order <= 6:
            square = bs.product_group(g, g)
            out.append(bs.pants_biset(g, square))
            out.append(bs.copants_biset(g, square))
            out.append(bs.identity_biset(square))
        out.append(bs.unit_biset(g))
    return out


def loop_start_sequences(catalog) -> list:
    """Composable sequences of length 1 and 2 over the catalog used as
    loop basepoints."""
    out = [(m,) for m in catalog]
    for m in catalog:
        for n in catalog:
            # The cap bounds a start's carrier, and with it the sizes
            # the oracle works at: the relation probe holds one pair per
            # code and orbit mate, and a pull across a decomposition
            # multiplies a carried probe by the middle group's order.
            # No probe is sized by the square of the carrier.  The cap
            # also fixes criterion 1 and the oracle-loops benchmark at
            # the 108 loops of the default catalog.
            if m.right_group == n.left_group and m.size * n.size <= 4096:
                out.append((m, n))
    return out


def _neighbors(inst: bs.LieRInstance, items) -> list:
    """Every sequence one composition or decomposition move from items,
    each the instance's canonical tuple of its content, which the
    instance codes by identity."""
    out = []
    for p in range(len(items) - 1):
        made = inst.try_compose1(items[p], items[p + 1])
        if made is not None:
            out.append(items[:p] + (made,) + items[p + 2:])
    for p, item in enumerate(items):
        for a, b in inst.enumerate_decompositions(item):
            out.append(items[:p] + (a, b) + items[p + 1:])
    return [inst.canonical(nxt) for nxt in out]


def enumerate_loops(inst: bs.LieRInstance, start_items, depth: int):
    """Closed chains of at most depth composition/decomposition moves
    from a starting sequence, enumerated exhaustively, depth first.

    The walk keeps its own stack rather than recursing through a nested
    function: a closure that calls itself is a reference cycle, and one
    that also holds inst keeps the instance and all its memos alive
    until the cyclic collector happens to run.  Every sequence the walk
    holds is the instance's canonical one, which the instance keeps, so
    each sequence's neighbors are found once per walk, keyed by its id."""
    start = inst.canonical(tuple(start_items))
    loops = []
    stack = [(start,)]
    neighbors: dict = {}
    while stack:
        path = stack.pop()
        cur = path[-1]
        if len(path) > 1 and cur is start:
            loops.append(path)
        if len(path) <= depth:
            after = neighbors.get(id(cur))
            if after is None:
                # reversed, so the first neighbor is walked first
                after = neighbors[id(cur)] = _neighbors(inst, cur)[::-1]
            stack.extend(path + (nxt,) for nxt in after)
    return loops


def axiom_loops(inst: bs.LieRInstance, sequences, depth: int):
    """Yield (items, loop index, names of failed probes) for every
    composition loop of length <= depth from each start sequence."""
    for items in sequences:
        start = inst.seq(items)
        for loop_idx, loop in enumerate(enumerate_loops(inst, items, depth)):
            seqs = [SeqMorphism(start.source, start.target, s) for s in loop]
            results = check_diagram_axiom(seqs, inst)
            yield items, loop_idx, [name for name, ok, _ in results if not ok]


# --- cobordism side ---------------------------------------------------------------


def _annulus_chain(g: int = 1):
    c0, c1 = Circle("c0"), Circle("c1")
    return (Surface((SurfComponent(g, (c0,), (c1,)),), (c0,), (c1,)),)


def _capped_chain():
    c1 = Circle("c1")
    return (Surface((SurfComponent(0, (), (c1,)),), (), (c1,)),)


def _compression_tower():
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
    return (s1, s2)


def _switch_pair():
    u0, u1 = Circle("u0"), Circle("u1")
    left = Surface((SurfComponent(1, (), (u0,)),), (), (u0,))
    right = Surface((SurfComponent(1, (u0,), (u1,)),), (u0,), (u1,))
    left_low = Surface((SurfComponent(0, (), (u0,)),), (), (u0,))
    right_low = Surface((SurfComponent(0, (u0,), (u1,)),), (u0,), (u1,))
    s1 = CobStep(
        cb.COMPRESSION, (left, right), (left_low, right), index=2,
        attachments=(Attachment(0, 0, word=Word(0, (("a", 1, 1),))),),
    )
    s2 = CobStep(
        cb.COMPRESSION, (left_low, right), (left_low, right_low), index=2,
        attachments=(Attachment(1, 0, word=Word(0, (("a", 1, 1),))),),
    )
    return (s1, s2)


def cerf_move_catalog() -> list:
    """(name, starting sequence, move chain) triples covering every
    implemented move kind in both directions, plus two longer chains."""
    entries = []
    double_cyl = cylinder_seq(_annulus_chain()) + cylinder_seq(_annulus_chain())
    fine = cb.apply_move(double_cyl, Move("circle_insert", 1, (0, 1, "mid")))

    entries.append(("cylinder-create", cylinder_seq(_annulus_chain()), [Move("cyl_create", 1)]))
    entries.append(
        ("cylinder-cancel", cylinder_seq(_annulus_chain()) + cylinder_seq(_annulus_chain()),
         [Move("cyl_cancel", 1)])
    )
    entries.append(("circle-insert", double_cyl, [Move("circle_insert", 1, (0, 1, "mid"))]))
    entries.append(("circle-remove", fine, [Move("circle_remove", 1)]))
    entries.append(
        ("relabel", fine, [Move("relabel", 0, (("mid", "renamed"),))])
    )
    entries.append(("imbricate", _compression_tower(), [Move("imbricate", 0)]))
    entries.append(
        ("split-compression",
         cb.apply_move(_compression_tower(), Move("imbricate", 0)),
         [Move("split_compression", 0, (1,))])
    )
    entries.append(("switch", _switch_pair(), [Move("switch", 0)]))
    entries.append(
        ("switch-back", cb.apply_move(_switch_pair(), Move("switch", 0)), [Move("switch", 0)])
    )
    entries.append(("create12", cylinder_seq(_annulus_chain(0)), [Move("create12", 0, (0, 0))]))
    entries.append(
        ("cancel12",
         cb.apply_move(cylinder_seq(_annulus_chain(0)), Move("create12", 0, (0, 0))),
         [Move("cancel12", 0)])
    )
    entries.append(("create01", cylinder_seq(_capped_chain()), [Move("create01", 0, (0, "ball"))]))
    entries.append(
        ("cancel01",
         cb.apply_move(cylinder_seq(_capped_chain()), Move("create01", 0, (0, "ball"))),
         [Move("cancel01", 0)])
    )
    entries.append(("create23", cylinder_seq(_capped_chain()), [Move("create23", 0, (0, "ball"))]))
    entries.append(
        ("cancel23",
         cb.apply_move(cylinder_seq(_capped_chain()), Move("create23", 0, (0, "ball"))),
         [Move("cancel23", 0)])
    )
    entries.append(
        ("chain-refine-then-cancel", double_cyl,
         [Move("circle_insert", 1, (0, 0, "tmp")), Move("circle_remove", 1),
          Move("cyl_create", 2), Move("cyl_cancel", 2)])
    )
    entries.append(
        ("chain-imbricate-split-switch", _switch_pair(),
         [Move("switch", 0), Move("switch", 0), Move("imbricate", 0),
          Move("split_compression", 0, (1,))])
    )
    return entries


def negative_control():
    """Two decompositions of different cobordisms with equal
    boundaries: the non-cancelling handle pair versus the cylinder."""
    good = cylinder_seq(_annulus_chain(0))
    pair = cb.apply_move(good, Move("create12", 0, (0, 0)))
    s1, s2 = pair
    bad_att = Attachment(0, s2.attachments[0].comp,
                         word=Word(s2.attachments[0].comp, (("a", 1, 1),)))
    bad = CobStep(s2.kind, s2.source, s2.target, index=2, attachments=(bad_att,))
    return good, (s1, bad)
