"""Diagram builders the tests use to assemble stack diagrams by hand:
horizontal concatenation of sequences, the identity diagram, vertical
and horizontal gluing of diagrams, and the patch of identification
faces along a chain of composition moves.  The engine itself builds
diagrams as words of placed faces, one step at a time, and never needs
these."""

from __future__ import annotations

from cobord2.diagram import (
    BoundaryMismatch,
    Face,
    SeqMorphism,
    StackDiagram,
    composition_step,
)


def concat_h1(a: SeqMorphism, b: SeqMorphism) -> SeqMorphism:
    if a.target != b.source:
        raise BoundaryMismatch("cannot concatenate %r -> %r" % (a.target, b.source))
    return SeqMorphism(a.source, b.target, a.items + b.items)


def identity_diagram(seq: SeqMorphism) -> StackDiagram:
    return StackDiagram(seq, ())


def concat_v2(c: StackDiagram, d: StackDiagram) -> StackDiagram:
    if c.target.items != d.source.items:
        raise BoundaryMismatch("vertical gluing boundary mismatch")
    return StackDiagram(c.source, c.faces + d.faces)


def concat_h2(c: StackDiagram, d: StackDiagram) -> StackDiagram:
    """c beside d: the faces of c, then those of d, shifted past the
    items c leaves."""
    if c.source.target != d.source.source:
        raise BoundaryMismatch("horizontal gluing needs matching endpoint objects")
    shift = len(c.target.items)
    faces = c.faces + tuple((offset + shift, face) for offset, face in d.faces)
    return StackDiagram(concat_h1(c.source, d.source), faces)


def patch_diagram(inst, loop) -> StackDiagram:
    """Stack of identification faces (or their transposes) realizing a
    chain of composition/decomposition moves."""
    faces = []
    for seq_a, seq_b in zip(loop, loop[1:]):
        pos, compose = composition_step(inst, seq_a, seq_b)
        if compose:
            a, b = seq_a.items[pos], seq_a.items[pos + 1]
            face = Face(inst.identification2(a, b), (a, b), (seq_b.items[pos],))
        else:
            a, b = seq_b.items[pos], seq_b.items[pos + 1]
            face = Face(inst.identification2(a, b).transpose(), (seq_a.items[pos],), (a, b))
        faces.append((pos, face))
    return StackDiagram(loop[0], tuple(faces))
