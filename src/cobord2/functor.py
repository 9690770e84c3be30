"""Evaluation of decomposed cobordisms into the symbolic category, and
the invariance check that compares two of them.

Objects go to one SU(2) factor per circle, surfaces to moduli symbols
read off componentwise, and each elementary step to its placed faces,
left to right, over the symbols the steps before it leave.  Symbols
hold the move calculus's own Circles and SurfComponents; evaluation
forgets the circles' parametrizations, in one place (_unparametrized),
and keeps their labels and orientations.  Only the
forward steps (cobordism.is_forward) have rules of their own: cylinders
go to no face, 0-handles to zero-sections, circle removals to
identification faces and index-2 compressions to trivial-holonomy
faces.  A reversed step (3-handle, circle insertion, index-1
compression) evaluates as the transposed faces of its reversal, since
reversing a cobordism transposes its correspondence (Wehrheim and
Woodward, "Functoriality for Lagrangian correspondences in Floer
theory", 2010); an index-1 compression thus becomes the transposed
index-2 faces along its belts.  Evaluation derives nothing a step
already carries: an index-2 compression's faces come from the surgery
runs its validation found (CobStep.runs), a reversed step's from the
reversal it has held since it was built, and each surface object is
evaluated once per HamInstance.

The invariance checker evaluates two step sequences related by a move
chain, compares normal forms, and cross-checks sampled points of the
faces of both normal forms.  It derives the move chain only when the
second sequence does not record it: a sequence that
cobordism.apply_moves returns carries the source sequence and the moves
it came from (cobordism.DerivedSeq), and one derived from the first
sequence itself by the same moves is the chain's result already.  The
cross-check lives in crosscheck, the one part of the functor that
needs the holonomy charts, so evaluation loads no chart, su2 or kernel
module: invariance_check imports crosscheck when it is called, and the
cross-check's public names (membership, sample_face_points,
component_points, chart_for, MEMBERSHIP_TOL) are answered here by
importing it on first use."""

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
    CorrSymbol,
    HamInstance,
    SpaceSymbol,
    group_symbol,
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


def _unparametrized(circles) -> tuple:
    """The circles with their parametrizations forgotten."""
    return tuple(replace(c, param="") if c.param else c for c in circles)


def eval0(circles) -> tuple:
    """One SU(2) factor per circle, orientation recorded."""
    return group_symbol(_unparametrized(circles))


def eval_surface(item: cb.Surface) -> SpaceSymbol:
    return moduli_symbol(*[
        cb.SurfComponent(c.genus, _unparametrized(c.into), _unparametrized(c.out))
        for c in item.components
    ])


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


def _handle_transfer(src_comp: cb.SurfComponent, atts) -> tuple:
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


def _eval_step(step: CobStep, symbols, inst) -> tuple:
    """The placed faces of one step over the current symbols, left to
    right.  A reversed step (3-handle, circle insertion, index-1
    compression) evaluates to the transpose of its forward reversal's
    faces, taken on the unflagged symbols of its target; each new
    symbol takes the flags of the symbols it replaces."""
    if cb.is_forward(step):
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


CHAIN_MISSES = "the move chain does not produce the second sequence"


def invariance_check(y1: CobSeq, y2: CobSeq, moves, samples: int = 100, seed: int = 0):
    """Evaluate two decompositions, compare normal forms, and cross
    check sampled loci of the faces of the two normal forms, face by
    face, samples // 20 point pairs each (at least one); moves, when
    given, must carry y1 to y2, or MoveChainInvalid is raised.  A y2
    that cb.apply_moves derived from y1 itself (the same object) by
    moves equal to these is taken as verified; any other y2 (built by
    hand, equal in value but derived from another object, or derived by
    other moves) is compared with the chain derived here.  Only the
    normal forms' faces are sampled, so where the faces cancel, as in a
    handle cancellation, the normal forms are empty and no face is
    sampled.  Points are drawn on the first form's face and tested in
    both faces; where the two faces are equal, transfer included, the
    membership is computed once (crosscheck.face_samples_agree), and
    the residual is the same.

    Returns a list of (name, passed, detail) records."""
    from cobord2 import crosscheck

    inst = HamInstance()
    records = []
    if moves:
        moves = tuple(moves)
        recorded = isinstance(y2, cb.DerivedSeq) and y2.derived_from[0] is y1 and (
            y2.derived_from[1] == moves)
        if not recorded and cb.apply_moves(y1, moves) != y2:
            raise MoveChainInvalid(CHAIN_MISSES)
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
