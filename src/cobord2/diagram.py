"""Sequences and stacked diagrams over a partially-composable 2-level
structure.

Compositions of simple morphisms are only partially defined, so general
1-morphisms are represented by sequences of simple ones and general
2-morphisms by planar diagrams.  Diagrams here are restricted to stack
form: a source sequence and a word of placed faces, top to bottom.  A
placed face is an (offset, Face) pair, a Face being a simple 2-morphism
with declared source and target subsequences, and the offset is where
its source starts in the items the faces above it leave; the items
around it pass through unchanged.  Every diagram produced by the
cobordism evaluation and by the identification patches is a stack, and
stack form keeps normalization and equality decidable by deterministic
scans.

Normalization is a rewriting system on that word, and interchange is a
partial commutation of it.  rewrites(faces, inst) yields every one-step
rewrite: the instance's own (Instance.rewrites), the interchange that
moves a lower face above an upper one whose target lies to its left,
and the vertical merge of two adjacent faces whose full boundaries
meet, in that order.  interchange(faces, k) is the other direction,
raising a lower face that lies left.  normalize_diagram drops identity
faces and takes the first rewrite until none applies;
normal_forms_equal compares two results face by face.  That decides
equality only where every order of the rewrites ends in one normal
form, which tests/rewrite_reference.py checks by exploring all of them.

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
    and rewrites (instance-specific rewrites of several adjacent
    faces).  The optional ones default to "no extra structure".
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

    def rewrites(self, faces):
        """Every instance-specific one-step rewrite of a clean tuple of
        placed (offset, Face) pairs, each a tuple of placed faces that
        holds fewer faces.  rewrites yields these before any
        interchange or merge."""
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
class Face:
    morph: Any
    src_items: tuple
    tgt_items: tuple


def apply_face(items: tuple, offset: int, face: Face) -> tuple:
    """The items left when face, its source at offset, replaces it by
    its target."""
    return items[:offset] + face.tgt_items + items[offset + len(face.src_items):]


@dataclass(frozen=True)
class StackDiagram:
    """A stack-form 2-morphism: its source and its placed faces, top to
    bottom.  A placed face is an (offset, Face) pair; the offset is
    where the face's source starts in the items the faces above it
    leave."""

    source: SeqMorphism
    faces: tuple

    def __post_init__(self):
        cur = self.source.items
        for k, placed in enumerate(self.faces):
            if not (isinstance(placed, tuple) and len(placed) == 2
                    and type(placed[0]) is int and isinstance(placed[1], Face)):
                raise BoundaryMismatch("entry %d is not an (offset, Face) pair" % k)
            offset, face = placed
            end = offset + len(face.src_items)
            if offset < 0 or end > len(cur) or cur[offset:end] != face.src_items:
                raise BoundaryMismatch("face %d source does not match" % k)
            cur = apply_face(cur, offset, face)

    @property
    def target(self) -> SeqMorphism:
        cur = self.source.items
        for offset, face in self.faces:
            cur = apply_face(cur, offset, face)
        return SeqMorphism(self.source.source, self.source.target, cur)

    def face_count(self) -> int:
        return len(self.faces)


# --- normalization -----------------------------------------------------------


def _clean(faces, inst):
    """Drop identity faces."""
    out = []
    for offset, face in faces:
        if not inst.is_identity2(face.morph):
            out.append((offset, face))
        elif face.src_items != face.tgt_items:
            raise BoundaryMismatch("identity face with unequal boundaries")
    return tuple(out)


def _try_merge(faces, k, inst):
    """Faces k and k + 1 merged into one, when the upper face's full
    target is exactly the lower face's full source, at the same offset;
    None otherwise."""
    (s1, a), (s2, b) = faces[k:k + 2]
    if s1 != s2 or a.tgt_items != b.src_items:
        return None
    merged = inst.try_compose2_vertical(a.morph, b.morph)
    if merged is None:
        return None
    return faces[:k] + ((s1, Face(merged, a.src_items, b.tgt_items)),) + faces[k + 2:]


def _raise_right_face(faces, k):
    """Face k + 1 moved above face k, when it lies right of face k's
    target; None otherwise."""
    (s1, a), (s2, b) = faces[k:k + 2]
    if s2 < s1 + len(a.tgt_items):
        return None
    moved = ((s2 - len(a.tgt_items) + len(a.src_items), b), (s1, a))
    return faces[:k] + moved + faces[k + 2:]


def interchange(faces, k):
    """Face k + 1 moved above face k, when it lies left of face k's
    target; None otherwise.  This is the direction rewrites does not
    take.  A face with no target over a face with no source at the same
    offset lies both ways: here the lower face rises left of the upper
    face's source, and rewrites raises it right."""
    (s1, a), (s2, b) = faces[k:k + 2]
    if s2 + len(b.src_items) > s1:
        return None
    moved = ((s2, b), (s1 + len(b.tgt_items) - len(b.src_items), a))
    return faces[:k] + moved + faces[k + 2:]


def rewrites(faces, inst: Instance):
    """Every one-step rewrite of a clean tuple of placed faces, in the
    normalizer's order: the instance's rewrites, moving face k + 1 above
    face k when it lies right of face k's target, then a vertical merge
    of faces k and k + 1."""
    yield from inst.rewrites(faces)
    for k in range(len(faces) - 1):
        raised = _raise_right_face(faces, k)
        if raised is not None:
            yield raised
    for k in range(len(faces) - 1):
        merged = _try_merge(faces, k, inst)
        if merged is not None:
            yield merged


def normalize_diagram(d: StackDiagram, inst: Instance) -> StackDiagram:
    """Deterministic normal form: drop identity faces and take the first
    of rewrites until none is left.  Each instance rewrite and each
    merge strictly reduces the face count, and each interchange lifts a
    face above one that lies left of it, so swaps each pair of faces at
    most once; the loop terminates."""
    faces = d.faces
    while True:
        faces = _clean(faces, inst)
        step = next(rewrites(faces, inst), None)
        if step is None:
            return StackDiagram(d.source, faces)
        faces = step


def normal_forms_equal(n1: StackDiagram, n2: StackDiagram, inst: Instance) -> bool:
    """Structural equality of two diagrams already in normal form;
    BoundaryMismatch when their boundaries differ."""
    if n1.source.items != n2.source.items or n1.target.items != n2.target.items:
        raise BoundaryMismatch("2-morphisms have different boundary sequences")
    f1, f2 = n1.faces, n2.faces
    return len(f1) == len(f2) and all(
        s1 == s2
        and a.src_items == b.src_items
        and a.tgt_items == b.tgt_items
        and inst.simple2_equal(a.morph, b.morph)
        for (s1, a), (s2, b) in zip(f1, f2)
    )


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
