"""Sequences and stacked diagrams over a partially-composable 2-level
structure.

Compositions of simple morphisms are only partially defined, so general
1-morphisms are represented by sequences of simple ones and general
2-morphisms by planar diagrams.  Diagrams here are restricted to stack
form: an ordered list of rows, each row a horizontal line of cells, a
cell being either a Wire (a simple 1-morphism passing through) or a
Face (a simple 2-morphism with declared source/target subsequences).
Every diagram produced by the cobordism evaluation and by the
identification patches is a stack, and stack form keeps normalization
and equality decidable by deterministic scans.

Normalization is a rewriting system on staggered stacks, whose rows
hold one face each.  rewrites(rows, inst) yields every one-step rewrite
of such a stack: the instance's own (Instance.rewrites), the vertical
merge of two adjacent faces whose full boundaries meet, and the
interchange that moves a lower face above an upper one whose target
lies to its right.  interchange(rows, k) is that swap in either
direction.
normalize_diagram staggers once, then drops identity faces and wire
rows and takes the first rewrite until none applies; normal_forms_equal
compares two results structurally.  That decides equality only where
every order of the rewrites ends in one normal form, which
tests/rewrite_reference.py checks by exploring all of them.

The concrete content (what the simple morphisms are, when they compose,
what the identification 2-morphisms are) is supplied by an Instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


class BoundaryMismatch(ValueError):
    pass


class NotALoop(ValueError):
    pass


class NotAdjacentStep(ValueError):
    pass


# --- instance interface -----------------------------------------------------


class Instance:
    """Callback bundle describing one partially-composable structure.

    Only the hooks the engine calls: ends1 and try_compose1 (chaining
    and composition moves), identification2 (the functor's gluing
    faces), try_compose2_vertical, simple2_equal and is_identity2
    (normalization), probes and transport_probe (the diagram axiom),
    and rewrites (instance-specific multi-row rewrites).  The optional
    ones default to "no extra structure".
    """

    def ends1(self, item) -> tuple:
        """(source object, target object) of a simple 1-morphism."""
        raise NotImplementedError

    def try_compose1(self, a, b) -> Optional[Any]:
        raise NotImplementedError

    def identification2(self, a, b):
        """Simple 2-morphism (a, b) => a o b for a composable pair."""
        raise NotImplementedError

    def try_compose2_vertical(self, a, b) -> Optional[Any]:
        return None

    def simple2_equal(self, a, b) -> bool:
        return a == b

    def is_identity2(self, morph) -> bool:
        return False

    def probes(self, seq) -> list:
        """(name, probe) pairs: probe 2-morphisms from seq to seq."""
        return []

    def transport_probe(self, probe, seq_from, seq_to, pos, compose, side):
        """Carry a probe across one composition/decomposition move."""
        raise NotImplementedError

    def rewrites(self, rows):
        """Every instance-specific one-step rewrite of a clean stack of
        single-face rows, each a stack of single-face rows that holds
        fewer faces."""
        return ()


# --- sequences ---------------------------------------------------------------


@dataclass(frozen=True)
class SeqMorphism:
    source: Any
    target: Any
    items: tuple

    def __post_init__(self):
        if not self.items and self.source != self.target:
            raise BoundaryMismatch("empty sequence needs source == target")

    def __len__(self):
        return len(self.items)


def seq_from_items(inst: Instance, items, source=None) -> SeqMorphism:
    items = tuple(items)
    if not items:
        if source is None:
            raise BoundaryMismatch("empty sequence needs an explicit object")
        return SeqMorphism(source, source, ())
    ends = [inst.ends1(i) for i in items]
    for (_, t), (s, _) in zip(ends, ends[1:]):
        if t != s:
            raise BoundaryMismatch("consecutive items do not chain: %r vs %r" % (t, s))
    return SeqMorphism(ends[0][0], ends[-1][1], items)


# --- diagrams ----------------------------------------------------------------


@dataclass(frozen=True)
class Wire:
    item: Any

    @property
    def src_items(self):
        return (self.item,)

    @property
    def tgt_items(self):
        return (self.item,)


@dataclass(frozen=True)
class Face:
    morph: Any
    src_items: tuple
    tgt_items: tuple


Cell = Any  # Wire | Face


def _row_source(row) -> tuple:
    out = []
    for cell in row:
        out.extend(cell.src_items)
    return tuple(out)


def _row_target(row) -> tuple:
    out = []
    for cell in row:
        out.extend(cell.tgt_items)
    return tuple(out)


@dataclass(frozen=True)
class StackDiagram:
    source: SeqMorphism
    rows: tuple

    def __post_init__(self):
        cur = self.source.items
        for k, row in enumerate(self.rows):
            if _row_source(row) != cur:
                raise BoundaryMismatch("row %d source does not match" % k)
            cur = _row_target(row)

    @property
    def target(self) -> SeqMorphism:
        cur = self.source.items
        for row in self.rows:
            cur = _row_target(row)
        return SeqMorphism(self.source.source, self.source.target, cur)

    def face_count(self) -> int:
        return sum(1 for row in self.rows for c in row if isinstance(c, Face))


def wire_row(items) -> tuple:
    return tuple(Wire(i) for i in items)


def face_row(items, pos: int, face: Face) -> tuple:
    """One face over items[pos:pos + len(face.src_items)], wires elsewhere."""
    return wire_row(items[:pos]) + (face,) + wire_row(items[pos + len(face.src_items):])


# --- normalization -----------------------------------------------------------


def _face_positions(row):
    """(cell index, source offset, target offset) of each Face in a row."""
    out = []
    so = to = 0
    for k, cell in enumerate(row):
        if isinstance(cell, Face):
            out.append((k, so, to))
        so += len(cell.src_items)
        to += len(cell.tgt_items)
    return out


def _stagger(rows):
    """Split multi-face rows so every row holds at most one face,
    emitting the leftmost face first."""
    out = []
    for row in rows:
        faces = _face_positions(row)
        while len(faces) > 1:
            k = faces[0][0]
            top = []
            bottom = []
            for j, cell in enumerate(row):
                if j < k:
                    top.append(cell)
                    bottom.append(Wire(cell.tgt_items[0]) if isinstance(cell, Wire) else cell)
                elif j == k:
                    top.append(cell)
                    bottom.extend(Wire(i) for i in cell.tgt_items)
                else:
                    top.extend(Wire(i) for i in cell.src_items)
                    bottom.append(cell)
            out.append(tuple(top))
            row = tuple(bottom)
            faces = _face_positions(row)
        out.append(row)
    return tuple(out)


def _clean(rows, inst):
    """Drop identity faces and all-wire rows."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, Face) and inst.is_identity2(cell.morph):
                if cell.src_items != cell.tgt_items:
                    raise BoundaryMismatch("identity face with unequal boundaries")
                cells.extend(Wire(i) for i in cell.src_items)
            else:
                cells.append(cell)
        if all(isinstance(c, Wire) for c in cells):
            continue
        out.append(tuple(cells))
    return tuple(out)


def _pair(rows, k):
    """(upper face, its source offset, lower face, its source offset)
    of the single-face rows k and k + 1."""
    (k1, s1, _), = _face_positions(rows[k])
    (k2, s2, _), = _face_positions(rows[k + 1])
    return rows[k][k1], s1, rows[k + 1][k2], s2


def _try_merge(rows, k, inst):
    """The faces of rows k and k + 1 merged into one row, when the upper
    face's full target is exactly the lower face's full source, at the
    same columns; None otherwise."""
    a, s1, b, s2 = _pair(rows, k)
    if s1 != s2 or a.tgt_items != b.src_items:
        return None
    merged = inst.try_compose2_vertical(a.morph, b.morph)
    if merged is None:
        return None
    return face_row(_row_source(rows[k]), s1, Face(merged, a.src_items, b.tgt_items))


def _raise_left_face(rows, k):
    """The lower face of rows k and k + 1 moved above the upper one,
    when it lies left of the upper face's target; None otherwise."""
    a, s1, b, s2 = _pair(rows, k)
    if s2 + len(b.src_items) > s1:
        return None
    top = face_row(_row_source(rows[k]), s2, b)
    bottom = face_row(_row_target(top), s1 + len(b.tgt_items) - len(b.src_items), a)
    return rows[:k] + (top, bottom) + rows[k + 2:]


def interchange(rows, k):
    """Swap the faces of the single-face rows k and k + 1 when they
    touch disjoint columns of the items between them, in whichever
    direction that is; None when they overlap.  A face with no target
    over a face with no source at the same column lies both ways: this
    places the lower face right of the upper face's source, and the
    rewrite that rewrites yields places it left."""
    a, s1, b, s2 = _pair(rows, k)
    if s2 < s1 + len(a.tgt_items):
        return _raise_left_face(rows, k)
    top = face_row(_row_source(rows[k]), s2 - len(a.tgt_items) + len(a.src_items), b)
    bottom = face_row(_row_target(top), s1, a)
    return rows[:k] + (top, bottom) + rows[k + 2:]


def rewrites(rows, inst: Instance):
    """Every one-step rewrite of a clean stack of single-face rows, in
    the normalizer's order: the instance's rewrites, a vertical merge
    at row k, then moving a lower face above at row k when it lies left
    of the upper face's target."""
    yield from inst.rewrites(rows)
    for k in range(len(rows) - 1):
        merged = _try_merge(rows, k, inst)
        if merged is not None:
            yield rows[:k] + (merged,) + rows[k + 2:]
    for k in range(len(rows) - 1):
        raised = _raise_left_face(rows, k)
        if raised is not None:
            yield raised


def normalize_diagram(d: StackDiagram, inst: Instance) -> StackDiagram:
    """Deterministic normal form: stagger, then drop identities and
    wire rows and take the first of rewrites until none is left.  Each
    instance rewrite and each merge strictly reduces the face count, and
    each interchange decreases the face-offset sequence
    lexicographically, so the loop terminates."""
    rows = _stagger(d.rows)
    while True:
        rows = _clean(rows, inst)
        step = next(rewrites(rows, inst), None)
        if step is None:
            return StackDiagram(d.source, rows)
        rows = step


def normal_forms_equal(n1: StackDiagram, n2: StackDiagram, inst: Instance) -> bool:
    """Structural equality of two diagrams already in normal form;
    BoundaryMismatch when their boundaries differ."""
    if n1.source.items != n2.source.items or n1.target.items != n2.target.items:
        raise BoundaryMismatch("2-morphisms have different boundary sequences")
    if len(n1.rows) != len(n2.rows):
        return False
    for r1, r2 in zip(n1.rows, n2.rows):
        if len(r1) != len(r2):
            return False
        for c1, c2 in zip(r1, r2):
            if isinstance(c1, Wire) != isinstance(c2, Wire):
                return False
            if isinstance(c1, Wire):
                if c1.item != c2.item:
                    return False
            else:
                if c1.src_items != c2.src_items or c1.tgt_items != c2.tgt_items:
                    return False
                if not inst.simple2_equal(c1.morph, c2.morph):
                    return False
    return True


# --- composition moves on sequences ------------------------------------------


def composition_step(inst, seq_a: SeqMorphism, seq_b: SeqMorphism):
    """Classify one move between sequences.

    Returns (pos, True) when seq_b is the composition of seq_a at pos,
    (pos, False) when seq_b is a decomposition of seq_a at pos; raises
    NotAdjacentStep otherwise."""
    na, nb = len(seq_a.items), len(seq_b.items)
    if nb == na - 1:
        big, small, compose = seq_a, seq_b, True
    elif nb == na + 1:
        big, small, compose = seq_b, seq_a, False
    else:
        raise NotAdjacentStep("lengths %d -> %d" % (na, nb))
    for p in range(len(big.items) - 1):
        if big.items[:p] != small.items[:p]:
            break
        if big.items[p + 2:] != small.items[p + 1:]:
            continue
        made = inst.try_compose1(big.items[p], big.items[p + 1])
        if made is not None and made == small.items[p]:
            return (p, compose)
    raise NotAdjacentStep("no composition position relates the sequences")


def check_diagram_axiom(loop, inst: Instance) -> list:
    """Transport every instance probe around a closed chain of
    composition/decomposition moves; each must return to itself.

    The loop must start and end at the same sequence.  Probes are
    carried across each move set-theoretically (the instance decides
    how), once with the probe attached below the chain and once above.
    Returns [(check name, passed, detail), ...]."""
    if len(loop) < 1:
        raise NotALoop("empty loop")
    if loop[0].items != loop[-1].items:
        raise NotALoop("loop does not close")
    steps = [composition_step(inst, a, b) for a, b in zip(loop, loop[1:])]
    results = []
    for side in ("target", "source"):
        for name, probe in inst.probes(loop[0]):
            carried = probe
            cur = loop[0]
            for (pos, compose), nxt in zip(steps, loop[1:]):
                carried = inst.transport_probe(carried, cur, nxt, pos, compose, side)
                cur = nxt
            ok = inst.simple2_equal(carried, probe)
            results.append(("%s/%s" % (name, side), ok, "" if ok else "probe changed"))
    return results
