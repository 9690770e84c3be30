"""Symbolic category of moduli correspondences.

Spaces are symbols, not manifolds, written in the move calculus's own
types: a Moduli symbol holds its connected components as
cobordism.SurfComponents, each the genus and the boundary Circles on
either side, with no parametrization (the functor forgets it); the
Point is the empty surface.  A group symbol, one SU(2) factor per
circle, is the label-sorted tuple of its Circles.  Composition glues
the components with the move calculus's own cobordism.glue_components,
refusing any composition that would close a component, and records an
excision flag per glued circle for the holonomy -1 locus removed by
gluing.

Correspondence symbols come in four kinds (diagonal, identification,
zero-section, trivial-holonomy locus).  The functor out of decomposed
cobordisms only ever produces these, so a closed symbol algebra with a
small vertical-composition rule table keeps 2-morphism equality
decidable.  There are no cotangent symbols: cylinders evaluate to no
face, so no identity space symbol is ever needed.  The codimension-3
equivalence is flag erasure, guarded by a per-kind certificate that the
erased locus meets every adjacent correspondence weakly transversely."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional

from cobord2.cobordism import component_key, glue_components
from cobord2.diagram import (
    Face,
    Instance,
    SeqMorphism,
    StackDiagram,
    normal_forms_equal,
    normalize_diagram,
)


class NotComposableSym(ValueError):
    pass


class TransversalityUnknown(ValueError):
    """A correspondence kind without a weak-transversality certificate
    sits next to an excised space symbol."""


@dataclass(frozen=True)
class ExcisionRecord:
    circle: str


def group_symbol(circles) -> tuple:
    """The group symbol of some circles, one SU(2) factor each: the
    circles sorted by label."""
    return tuple(sorted(circles, key=attrgetter("label")))


@dataclass(frozen=True)
class SpaceSymbol:
    kind: str  # "moduli" | "point"
    components: tuple = ()  # cobordism.SurfComponents, circles unparametrized
    excised: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in ("moduli", "point"):
            raise ValueError("unknown space symbol kind %r" % self.kind)
        object.__setattr__(
            self, "components", tuple(sorted(self.components, key=component_key))
        )

    @property
    def source_group(self) -> tuple:
        return group_symbol(c for comp in self.components for c in comp.into)

    @property
    def target_group(self) -> tuple:
        return group_symbol(c for comp in self.components for c in comp.out)

    @property
    def dim(self) -> Optional[int]:
        if self.kind != "moduli":
            return None
        return sum(6 * c.genus + 6 * c.k - 6 for c in self.components)

    @property
    def euler(self) -> int:
        return sum(c.euler for c in self.components)

    def without_excisions(self) -> "SpaceSymbol":
        if not self.excised:
            return self
        return SpaceSymbol(self.kind, self.components, frozenset())

    def with_excisions(self, records) -> "SpaceSymbol":
        return SpaceSymbol(self.kind, self.components, self.excised | frozenset(records))


POINT = SpaceSymbol("point")


def moduli_symbol(*components) -> SpaceSymbol:
    if not components:
        return POINT
    return SpaceSymbol("moduli", tuple(components))


def try_compose1_sym(a: SpaceSymbol, b: SpaceSymbol) -> Optional[SpaceSymbol]:
    """Glue along every middle circle; None when a component closes up."""
    if a.target_group != b.source_group:
        raise NotComposableSym(
            "middle group symbols differ: %r vs %r" % (a.target_group, b.source_group)
        )
    glued = glue_components(a.components, b.components)
    if glued is None:
        return None
    records = {ExcisionRecord(c.label) for c in a.target_group}
    return SpaceSymbol(
        "moduli" if glued else "point",
        tuple(glued),
        a.excised | b.excised | frozenset(records),
    )


# --- correspondence symbols ---------------------------------------------------


CERTIFIED_KINDS = ("diagonal", "identification", "zero_section", "hol_trivial")


@dataclass(frozen=True)
class CorrSymbol:
    kind: str
    src: tuple  # SpaceSymbols
    tgt: tuple
    transposed: bool = False
    glued: tuple = ()        # identification: circle labels
    circles: tuple = ()      # zero_section: disc boundary labels
    words: tuple = ()        # hol_trivial: Words on the uncompressed side
    transfer: tuple = field(default=(), compare=False)
    # transfer: ((small (kind, ref), big (kind, ref)), ...) pairs carrying
    # compressed-chart generators back to the uncompressed chart

    def __post_init__(self):
        if self.kind not in CERTIFIED_KINDS:
            raise TransversalityUnknown(
                "no weak-transversality certificate for kind %r" % self.kind
            )
        object.__setattr__(self, "glued", tuple(sorted(self.glued)))
        object.__setattr__(self, "circles", tuple(sorted(self.circles)))
        object.__setattr__(self, "words", tuple(sorted(self.words, key=repr)))

    def transpose(self) -> "CorrSymbol":
        return replace(self, src=self.tgt, tgt=self.src, transposed=not self.transposed)

    def strip_excisions(self) -> "CorrSymbol":
        return replace(
            self,
            src=tuple(s.without_excisions() for s in self.src),
            tgt=tuple(s.without_excisions() for s in self.tgt),
        )

    @property
    def big_side(self) -> tuple:
        """The uncompressed boundary a hol_trivial's words live on."""
        return self.tgt if self.transposed else self.src


def diagonal_sym(items) -> CorrSymbol:
    items = tuple(items)
    return CorrSymbol("diagonal", items, items)


def identification_sym(a: SpaceSymbol, b: SpaceSymbol) -> CorrSymbol:
    made = try_compose1_sym(a, b)
    if made is None:
        raise NotComposableSym("gluing closes a component")
    glued = tuple(c.label for c in a.target_group)
    return CorrSymbol("identification", (a, b), (made,), glued=glued)


def _cancelling_pair(wa, wb) -> bool:
    """Single standard generators dual to each other: (a_j, b_j) on the
    same component, in either order."""
    if len(wa) != 1 or len(wb) != 1:
        return False
    ga, gb = wa[0].single_generator(), wb[0].single_generator()
    if ga is None or gb is None or wa[0].comp != wb[0].comp:
        return False
    return {ga[0], gb[0]} == {"a", "b"} and ga[1] == gb[1]


class HamInstance(Instance):
    """Callback bundle for the symbolic moduli category.

    surface_symbols is the functor's memo of the space symbol of each
    surface object it evaluated with this instance, as id -> (surface,
    symbol)."""

    def __init__(self):
        self.surface_symbols: dict = {}

    def ends1(self, item: SpaceSymbol):
        return (item.source_group, item.target_group)

    def try_compose1(self, a, b):
        return try_compose1_sym(a, b)

    def identification2(self, a, b):
        return identification_sym(a, b)

    def is_identity2(self, morph):
        return morph.kind == "diagonal" and morph.src == morph.tgt

    def try_compose2_vertical(self, a: CorrSymbol, b: CorrSymbol):
        if a.tgt != b.src:
            return None
        if a.kind == "diagonal":
            return b
        if b.kind == "diagonal":
            return a
        if a.kind == "identification" and b.kind == "identification":
            if a.glued == b.glued and a.transposed != b.transposed and b.tgt == a.src:
                return diagonal_sym(a.src)
            return None
        if a.kind == "hol_trivial" and b.kind == "hol_trivial":
            if not a.transposed and not b.transposed:
                # imbrication: both compress downward; pull the second
                # step's words back to the first uncompressed chart
                mapping = {small: big for small, big in a.transfer}
                lifted = tuple(w.substitute(mapping) for w in b.words)
                composed = tuple((s, mapping.get(m, m)) for s, m in b.transfer)
                return CorrSymbol(
                    "hol_trivial",
                    a.src,
                    b.tgt,
                    False,
                    words=a.words + lifted,
                    transfer=composed,
                )
            if a.transposed and not b.transposed:
                # handle creation then cancelling compression
                if _cancelling_pair(a.words, b.words) and a.src == b.tgt:
                    return diagonal_sym(a.src)
            return None
        return None

    def rewrites(self, faces):
        """Each 3-ball cancellation, at every face."""
        for i in range(len(faces) - 2):
            if _match_ball_pattern(*faces[i:i + 3]):
                yield faces[:i] + faces[i + 3:]


def _is_disc(sym: SpaceSymbol) -> bool:
    return (
        sym.kind == "moduli"
        and len(sym.components) == 1
        and sym.components[0].genus == 0
        and sym.components[0].k == 1
    )


def _match_ball_pattern(p1, p2, p3):
    """The 3-ball cancellation: a zero-section creating two discs, a
    transposed compression joining the second disc onto a neighbor, and
    the identification gluing the first disc back in compose to an
    identity (and its mirror, matched by the transposed faces)."""
    hit = _match_ball_pattern_down(p1, p2, p3)
    if hit is not None:
        return hit
    return _match_ball_pattern_down(*[
        (offset, Face(f.morph.transpose(), f.tgt_items, f.src_items))
        for offset, f in (p3, p2, p1)
    ])


def _match_ball_pattern_down(p1, p2, p3):
    (k1, z), (k2, h), (k3, ident) = p1, p2, p3
    if z.morph.kind != "zero_section" or z.morph.transposed or z.src_items:
        return None
    if len(z.tgt_items) != 2 or not all(_is_disc(s) for s in z.tgt_items):
        return None
    if h.morph.kind != "hol_trivial" or not h.morph.transposed:
        return None
    if ident.morph.kind != "identification" or ident.morph.transposed:
        return None
    d0, d1 = z.tgt_items
    # the compression must start one item right of the zero-section and
    # the identification directly under it, with d0 passing through
    if k2 != k1 + 1 or k3 != k1:
        return None
    # the compression's uncompressed side must start with d1 and produce
    # the joined surface the identification then glues to d0
    if len(h.src_items) < 1 or h.src_items[0] != d1:
        return None
    if len(ident.src_items) < 2 or ident.src_items[0] != d0:
        return None
    if ident.src_items[1:] != h.tgt_items:
        return None
    if ident.morph.glued != d0.components[0].boundary_labels:
        return None
    # the three-step block must return to the surface it started from
    if ident.tgt_items != h.src_items[1:]:
        return None
    return True


# --- the codimension-3 equivalence --------------------------------------------


def strip_diagram_excisions(d: StackDiagram) -> StackDiagram:
    """Erase every excision flag in a diagram; constructing CorrSymbols
    already certified their kinds as weakly transverse, so the erasure
    is licensed everywhere."""

    src = SeqMorphism(
        d.source.source,
        d.source.target,
        tuple(i.without_excisions() for i in d.source.items),
    )
    return StackDiagram(src, tuple(
        (offset, Face(
            face.morph.strip_excisions(),
            tuple(s.without_excisions() for s in face.src_items),
            tuple(s.without_excisions() for s in face.tgt_items),
        ))
        for offset, face in d.faces
    ))


def normalize_mod_equiv(d: StackDiagram, inst: Optional[HamInstance] = None) -> StackDiagram:
    """Flag erasure followed by the deterministic diagram normal form."""
    inst = inst or HamInstance()
    return normalize_diagram(strip_diagram_excisions(d), inst)


def equal_2morphisms(d1: StackDiagram, d2: StackDiagram, inst: Optional[HamInstance] = None) -> bool:
    inst = inst or HamInstance()
    return normal_forms_equal(normalize_mod_equiv(d1, inst), normalize_mod_equiv(d2, inst), inst)
