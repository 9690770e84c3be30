"""Evaluation of decomposed cobordisms into the symbolic category, and
the invariance check that compares two of them.

Objects go to one SU(2) factor per circle, surfaces to moduli symbols
read off componentwise, and each elementary step to its placed faces,
left to right, over the symbols the steps before it leave.  Only the
forward steps have rules of their own: cylinders go to no face,
0-handles to zero-sections, circle removals to identification faces and
index-2 compressions to trivial-holonomy faces.  A reversed step
(3-handle, circle insertion, index-1 compression) evaluates as the
transposed faces of its reversal, since reversing a cobordism
transposes its correspondence (Wehrheim and Woodward, "Functoriality
for Lagrangian correspondences in Floer theory", 2010); an index-1
compression thus becomes the transposed index-2 faces along its belts.
Evaluation derives nothing a step already carries: an index-2
compression's faces come from the surgery runs its validation found
(CobStep.runs), a reversed step's from its one cached reversal, and
each surface object is evaluated once per HamInstance.

The invariance checker evaluates two step sequences related by a move
chain, compares normal forms, and cross-checks sampled points of the
faces of both normal forms.  That cross-check lives in crosscheck, the
one part of the functor that needs the holonomy charts, so evaluation
loads no chart, su2 or kernel module: invariance_check imports
crosscheck when it is called, and the cross-check's public names
(membership, sample_face_points, component_points, chart_for,
MEMBERSHIP_TOL) are answered here by importing it on first use."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from cobord2 import cobordism as cb
from cobord2.cobordism import CobSeq, CobStep, MoveChainInvalid
from cobord2.diagram import (
    Face,
    SeqMorphism,
    StackDiagram,
    apply_face,
    normal_forms_equal,
    seq_from_items,
)
from cobord2.symcat import (
    Component,
    CorrSymbol,
    GroupSymbol,
    HamInstance,
    SpaceSymbol,
    moduli_symbol,
    normalize_mod_equiv,
)


_CROSSCHECK_NAMES = frozenset(
    ("membership", "sample_face_points", "component_points", "chart_for", "MEMBERSHIP_TOL"))


def __getattr__(name):
    """The cross-check's public names, from crosscheck on first use."""
    if name in _CROSSCHECK_NAMES:
        from cobord2 import crosscheck

        return getattr(crosscheck, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def eval0(circles) -> GroupSymbol:
    """One SU(2) factor per circle, orientation recorded."""
    return GroupSymbol(tuple((c.label, c.orient) for c in circles))


def eval_component(comp: cb.SurfComponent) -> Component:
    return Component(
        comp.genus,
        tuple((c.label, c.orient) for c in comp.into),
        tuple((c.label, c.orient) for c in comp.out),
    )


def eval_surface(item: cb.Surface) -> SpaceSymbol:
    return moduli_symbol(*[eval_component(c) for c in item.components])


def _surface_symbol(item: cb.Surface, inst: HamInstance) -> SpaceSymbol:
    """eval_surface(item), evaluated once per surface object and
    instance: the memo is keyed by identity and holds the surface, so an
    id stays its own while its entry stands."""
    entry = inst.surface_symbols.get(id(item))
    if entry is None:
        entry = inst.surface_symbols[id(item)] = (item, eval_surface(item))
    return entry[1]


def eval1(chain, inst: Optional[HamInstance] = None) -> SeqMorphism:
    """Componentwise moduli symbols; keyed on circle labels, never on
    parametrizations, so reparametrized middles evaluate equal."""
    inst = inst or HamInstance()
    items = tuple(_surface_symbol(item, inst) for item in chain)
    return seq_from_items(inst, items, source=eval0(cb.chain_source(chain)))


# --- step evaluation -------------------------------------------------------------


def _handle_transfer(src_comp: Component, atts) -> tuple:
    """(small gen -> big gen) pairs per surgered piece: labels are
    stable, handle indices shift past compressed handles, and a
    separating split distributes the survivors in sorted order."""
    killed = set()
    first_handles = None
    for att in atts:
        single = att.word.single_generator()
        if single and single[0] in ("a", "b"):
            killed.add(single[1])
        else:
            _, first_handles = cb.parse_separating(att.word)
    survivors = cb.surviving_handles(src_comp.genus, killed)
    if first_handles is None:
        # single piece: survivors relabel downward in order
        pieces = [survivors]
    else:
        pieces = [[j for j in survivors if j in first_handles],
                  [j for j in survivors if j not in first_handles]]
    out = []
    for piece in pieces:
        for small, big in enumerate(piece, start=1):
            out.append((("a", small), ("a", big)))
            out.append((("b", small), ("b", big)))
    return tuple(out)


def eval2(seq: CobSeq, inst: Optional[HamInstance] = None) -> StackDiagram:
    """The placed faces of each step in turn, each step's left to right,
    threading excision flags created by circle removals through later
    levels."""
    inst = inst or HamInstance()
    problems = cb.validate(seq)
    if problems:
        raise cb.PatternMismatch("; ".join(problems))
    if not seq:
        raise cb.PatternMismatch("empty step sequence has no boundary data")
    source = eval1(cb.seq_source(seq), inst)
    symbols = source.items
    faces = []
    for step in seq:
        for offset, face in _eval_step(step, symbols, inst):
            faces.append((offset, face))
            symbols = apply_face(symbols, offset, face)
    return StackDiagram(source, tuple(faces))


def _flags(syms) -> frozenset:
    out = frozenset()
    for s in syms:
        out |= s.excised
    return out


def _is_forward(step: CobStep) -> bool:
    return step.kind in (cb.CYLINDER, cb.ZERO_HANDLE, cb.CIRCLE_REMOVE) or (
        step.kind == cb.COMPRESSION and step.index == 2
    )


def _eval_step(step: CobStep, symbols, inst) -> tuple:
    """The placed faces of one step over the current symbols, left to
    right.  A reversed step (3-handle, circle insertion, index-1
    compression) evaluates to the transpose of its forward reversal's
    faces, taken on the unflagged symbols of its target; each new
    symbol takes the flags of the symbols it replaces."""
    if _is_forward(step):
        return _eval_forward(step, symbols, inst)
    rev = cb.reverse_step(step)
    faces = []
    shift = 0
    rev_symbols = tuple(_surface_symbol(item, inst) for item in rev.source)
    for offset, face in _eval_forward(rev, rev_symbols, inst):
        # offset places the forward face's target in the current
        # symbols; the transposed faces left of it have shrunk those
        # items back by shift
        src = symbols[offset:offset + len(face.tgt_items)]
        flags = _flags(src)
        tgt = tuple(s.with_excisions(flags) for s in face.src_items)
        morph = replace(face.morph, src=src, tgt=tgt, transposed=not face.morph.transposed)
        faces.append((offset - shift, Face(morph, src, tgt)))
        shift += len(face.tgt_items) - len(face.src_items)
    return tuple(faces)


def _eval_forward(step: CobStep, symbols, inst) -> tuple:
    p = step.position
    if step.kind == cb.CYLINDER:
        return ()
    if step.kind == cb.ZERO_HANDLE:
        discs = (_surface_symbol(step.target[p], inst), _surface_symbol(step.target[p + 1], inst))
        face = CorrSymbol("zero_section", (), discs, circles=(step.circle,))
        return ((p, Face(face, (), discs)),)
    if step.kind == cb.CIRCLE_REMOVE:
        pair = tuple(symbols[p:p + 2])
        ident = inst.identification2(*pair)
        return ((p, Face(ident, pair, ident.tgt)),)
    faces = []
    # the faces left of a surgered item have left its target's items,
    # so each face starts where its target slice does
    for i, atts, (lo, hi) in step.runs:
        sym = symbols[i]
        targets = tuple(
            _surface_symbol(step.target[j], inst).with_excisions(sym.excised)
            for j in range(lo, hi)
        )
        words = tuple(att.word for att in atts)
        touched = {att.comp for att in atts}
        if len(touched) == 1:
            transfer = _handle_transfer(sym.components[atts[0].comp], atts)
        else:
            # generator bases do not carry their component, so lifting
            # through a multi-component face is not representable
            transfer = ()
        face = CorrSymbol("hol_trivial", (sym,), targets, words=words, transfer=transfer)
        faces.append((lo, Face(face, (sym,), targets)))
    return tuple(faces)


# --- invariance -----------------------------------------------------------------------


def invariance_check(y1: CobSeq, y2: CobSeq, moves, samples: int = 100, seed: int = 0):
    """Evaluate two decompositions, compare normal forms, and cross
    check sampled loci of the faces of the two normal forms, face by
    face, samples // 20 point pairs each (at least one); moves, when
    given, must carry y1 to y2.  Only the normal forms' faces are
    sampled, so where the faces cancel, as in a handle cancellation,
    the normal forms are empty and no face is sampled.  Points are drawn
    on the first form's face and tested in both faces; where the two
    faces are equal, transfer included, the membership is computed once
    (crosscheck.face_samples_agree), and the residual is the same.

    Returns a list of (name, passed, detail) records."""
    from cobord2 import crosscheck

    inst = HamInstance()
    records = []
    if moves:
        derived = cb.apply_moves(y1, list(moves))
        if derived != y2:
            raise MoveChainInvalid("the move chain does not produce the second sequence")
        records.append(("move-chain", True, "%d moves verified" % len(moves)))
    n1 = normalize_mod_equiv(eval2(y1, inst), inst)
    n2 = normalize_mod_equiv(eval2(y2, inst), inst)
    same = normal_forms_equal(n1, n2, inst)
    records.append(("normal-forms-equal", same, ""))
    if same:
        checked = 0
        worst = 0.0
        for (_, f1), (_, f2) in zip(n1.faces, n2.faces):
            got = crosscheck.face_samples_agree(f1.morph, f2.morph, samples, seed, checked)
            if got is not None:
                worst = max(worst, got)
                checked += 1
        records.append(
            ("numeric-cross-check", worst <= crosscheck.MEMBERSHIP_TOL,
             "%d faces sampled, worst residual %.3g" % (checked, worst))
        )
    return records
