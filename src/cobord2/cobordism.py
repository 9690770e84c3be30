"""Decomposed 1+1+1 cobordisms: parametrized circles, elementary
surfaces, elementary 3-dimensional steps, and the move calculus
relating different decompositions of the same cobordism.

A decomposed 1-morphism is a chain of elementary surfaces (no closed
components); consecutive items share a complete 1-manifold interface,
possibly empty, in which case the total surface is a disjoint union.
Elementary steps are: cylinders; 0-/3-handles (a 3-ball entering or
leaving as a pair of discs at an empty chain point); single circle
insertion/removal at a one-circle interface; and compression bodies of
index 1 or 2 with their attaching data.  Attaching circles are stored
as words in the source chart's generators; index-1 steps also carry the
derived belt words on their target, since reversed they are index-2
attachments along those belts.

Only the forward steps (is_forward) have rules of their own; a reversed
step (3-handle, circle insertion, index-1 compression) is valid when
its reversal is, so building one builds its forward reversal.

Surfaces and steps are frozen and validated when they are built, and
they keep what their validation derived, so later checks and the
functor read it instead of deriving it again: a Surface its sorted
source and target labels, a CobStep the surgery runs of an index-2
compression and its reversal.  None of these is a dataclass field, so
equality, hashing and repr see the fields alone.

The move set relating any two decompositions of a diffeomorphic
cobordism is implemented as executable rewrites; the diffeomorphism
move itself is restricted to combinatorial relabelings and the
free/cyclic word normal moves, which is the decidable subset the
invariance checks need."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from cobord2.words import Word


class ChainMismatch(ValueError):
    pass


class PatternMismatch(ValueError):
    pass


class MoveChainInvalid(ValueError):
    pass


@dataclass(frozen=True)
class Circle:
    label: str
    orient: int = 1
    param: str = ""  # parametrization id; evaluation never keys on it

    def __post_init__(self):
        if self.orient not in (1, -1):
            raise ValueError("orientation must be +-1")


@dataclass(frozen=True)
class SurfComponent:
    genus: int
    into: tuple   # Circles on the incoming side
    out: tuple

    def __post_init__(self):
        object.__setattr__(self, "into", tuple(sorted(self.into, key=lambda c: c.label)))
        object.__setattr__(self, "out", tuple(sorted(self.out, key=lambda c: c.label)))
        if self.genus < 0:
            raise ValueError("negative genus")
        if not self.into and not self.out:
            raise ValueError("closed component is not elementary")

    @property
    def k(self) -> int:
        return len(self.into) + len(self.out)

    @property
    def euler(self) -> int:
        return 2 - 2 * self.genus - self.k

    @property
    def boundary_labels(self) -> tuple:
        return tuple(c.label for c in self.into) + tuple(c.label for c in self.out)


@dataclass(frozen=True)
class Surface:
    """One elementary surface in a chain: components plus its declared
    source/target 1-manifolds.

    source_labels and target_labels are the sorted circle labels of
    source and target, kept from the check that the components cover
    them; they are attributes, not fields."""
    components: tuple
    source: tuple  # Circles
    target: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple(sorted(self.components, key=_comp_sort))
        )
        object.__setattr__(self, "source", tuple(sorted(self.source, key=lambda c: c.label)))
        object.__setattr__(self, "target", tuple(sorted(self.target, key=lambda c: c.label)))
        object.__setattr__(self, "source_labels", tuple(c.label for c in self.source))
        object.__setattr__(self, "target_labels", tuple(c.label for c in self.target))
        src = tuple(sorted(c.label for comp in self.components for c in comp.into))
        tgt = tuple(sorted(c.label for comp in self.components for c in comp.out))
        if src != self.source_labels:
            raise ChainMismatch("component in-circles do not cover the source")
        if tgt != self.target_labels:
            raise ChainMismatch("component out-circles do not cover the target")
        all_labels = [c.label for comp in self.components for c in comp.into + comp.out]
        if len(set(all_labels)) != len(all_labels):
            raise ChainMismatch("a circle label appears twice in one surface")

    @property
    def euler(self) -> int:
        return sum(c.euler for c in self.components)


def _comp_sort(c: SurfComponent):
    return (c.genus, tuple(x.label for x in c.into), tuple(x.label for x in c.out))


Chain = tuple  # of Surface


def validate_chain(chain) -> list:
    """Violations of the chain condition: consecutive interfaces must
    agree as labeled 1-manifolds."""
    out = []
    for i, (a, b) in enumerate(zip(chain, chain[1:])):
        if a.target_labels != b.source_labels:
            out.append("interface %d: %r vs %r" % (i, a.target_labels, b.source_labels))
    return out


def chain_source(chain) -> tuple:
    return chain[0].source if chain else ()


# --- steps ----------------------------------------------------------------------


CYLINDER = "cylinder"
ZERO_HANDLE = "zero_handle"
THREE_HANDLE = "three_handle"
CIRCLE_INSERT = "circle_insert"
CIRCLE_REMOVE = "circle_remove"
COMPRESSION = "compression"


@dataclass(frozen=True)
class Attachment:
    """One handle of a compression step.

    Index 2: word = the attaching circle on the source surface.  Index
    1: feet = the component pair receiving the handle (as (item, comp)
    pairs into the source chain) and belt = the derived attaching word
    on the target surface whose reversed 2-handle undoes this one."""
    item: int
    comp: int
    word: Optional[Word] = None
    feet: Optional[tuple] = None
    belt: Optional[Word] = None


# the kind of each kind's reversal; a compression of index i reverses to
# one of index 3 - i
REVERSED_KIND = {
    CYLINDER: CYLINDER,
    ZERO_HANDLE: THREE_HANDLE,
    THREE_HANDLE: ZERO_HANDLE,
    CIRCLE_INSERT: CIRCLE_REMOVE,
    CIRCLE_REMOVE: CIRCLE_INSERT,
    COMPRESSION: COMPRESSION,
}


def is_forward(step) -> bool:
    """Whether the step has a rule of its own: cylinders, 0-handles,
    circle removals and index-2 compressions.  The others reverse these."""
    return step.kind in (CYLINDER, ZERO_HANDLE, CIRCLE_REMOVE) or (
        step.kind == COMPRESSION and step.index == 2
    )


@dataclass(frozen=True)
class CobStep:
    """One elementary step from the source chain to the target chain,
    validated when it is built: a forward step by its own rule, a
    reversed one by building its forward reversal.

    runs holds the surgery runs (surgery_runs) that validating an
    index-2 compression found, and is () for every other step; reversal
    is the reversed step, which a reversed step holds from construction
    and a forward one builds on first use.  Neither is a field."""
    kind: str
    source: Chain
    target: Chain
    position: int = 0
    circle: Optional[str] = None
    index: int = 0
    attachments: tuple = ()

    def __post_init__(self):
        runs = ()
        known = self.kind in REVERSED_KIND and (self.kind != COMPRESSION or self.index in (1, 2))
        if known and not is_forward(self):
            _pair_reversal(self)  # valid when its forward reversal is
        else:
            problems, runs = _check_step(self)
            if problems:
                raise PatternMismatch("; ".join(problems))
        object.__setattr__(self, "runs", runs)

    @cached_property
    def reversal(self) -> "CobStep":
        """reverse_step(self) of a forward step, built once: the step is
        frozen, so it cannot go stale."""
        return _pair_reversal(self)


CobSeq = tuple  # of CobStep


def _pair_reversal(step: CobStep) -> CobStep:
    """Build the reversed step, and so validate it, and make each of the
    two the other's reversal (reversal is an involution).  Source and
    target swap, and a compression's words and belts swap with its
    index."""
    index = 0
    atts = step.attachments
    if step.kind == COMPRESSION:
        index = 3 - step.index
        atts = tuple(
            Attachment(a.item, a.comp, word=a.belt, feet=a.feet, belt=a.word)
            for a in step.attachments
        )
    rev = CobStep(REVERSED_KIND[step.kind], step.target, step.source, step.position,
                  step.circle, index, atts)
    rev.__dict__["reversal"] = step
    step.__dict__["reversal"] = rev
    return rev


def _check_step(step: CobStep) -> tuple:
    """(violations, surgery runs) of a forward step, or of a step whose
    kind or compression index the calculus does not know; the runs are
    those of an index-2 compression, and () for every other step."""
    out = validate_chain(step.source) + validate_chain(step.target)
    runs = ()
    if step.kind == CYLINDER:
        if step.source != step.target:
            out.append("cylinder must repeat its decomposition")
    elif step.kind == ZERO_HANDLE:
        out.extend(_check_ball(step.source, step.target, step.position, step.circle))
    elif step.kind == CIRCLE_REMOVE:
        out.extend(_check_circle_merge(step.source, step.target, step.position, step.circle))
    elif is_forward(step):  # an index-2 compression
        try:
            runs = surgery_runs(step.source, step.target, step.attachments)
        except PatternMismatch as err:
            out.append(str(err))
    elif step.kind == COMPRESSION:
        out.append("compression index must be 1 or 2")
    else:
        out.append("unknown step kind %r" % step.kind)
    return out, runs


def _check_ball(before: Chain, after: Chain, pos: int, circle: Optional[str]) -> list:
    """after = before with a (disc, disc) pair inserted at an empty
    chain point; the two discs share the new circle and union to the
    boundary sphere of a 3-ball."""
    if circle is None:
        return ["ball step needs its circle label"]
    if len(after) != len(before) + 2:
        return ["ball step must insert exactly two disc items"]
    if pos < 0 or pos > len(before):
        return ["ball position out of range"]
    if before[:pos] != after[:pos] or before[pos:] != after[pos + 2:]:
        return ["ball step may not touch other items"]
    d0, d1 = after[pos], after[pos + 1]
    if before:
        here = before[pos - 1].target_labels if pos >= 1 else before[0].source_labels
        if here != ():
            return ["ball insertion needs an empty chain point"]
    ok = (
        len(d0.components) == 1
        and d0.components[0].genus == 0
        and d0.components[0].k == 1
        and not d0.source
        and d0.target_labels == (circle,)
        and len(d1.components) == 1
        and d1.components[0].genus == 0
        and d1.components[0].k == 1
        and d1.source_labels == (circle,)
        and not d1.target
    )
    return [] if ok else ["ball step must insert the two discs bounding its sphere"]


def _check_circle_merge(before: Chain, after: Chain, pos: int, circle: Optional[str]) -> list:
    """after = before with items pos, pos+1 glued along their single
    shared circle."""
    if circle is None:
        return ["circle step needs its label"]
    if len(after) != len(before) - 1:
        return ["circle step must merge exactly two items"]
    if not 0 <= pos < len(before) - 1:
        return ["circle position out of range"]
    if before[:pos] != after[:pos] or before[pos + 2:] != after[pos + 1:]:
        return ["circle step may not touch other items"]
    a, b = before[pos], before[pos + 1]
    if a.target_labels != (circle,) or b.source_labels != (circle,):
        return ["removed circle must be the whole interface"]
    merged = glue_surfaces(a, b)
    if merged is None:
        return ["gluing would close a component"]
    if merged != after[pos]:
        return ["merged item does not match the gluing of its pieces"]
    return []


def glue_components(first, second, label) -> Optional[list]:
    """Glue two sides' components along every outgoing circle of the
    first side, which must each be an incoming circle of the second.

    Components are (genus, into, out) triples of circles, label(circle)
    names a circle.  Union-find joins the components meeting at a glued
    circle; each joined piece keeps the unglued circles and takes its
    genus from the summed Euler characteristic.  Returns the glued
    triples, or None when a closed component would appear."""
    comps = list(first) + list(second)
    n_first = len(first)
    mid = {label(c) for _, _, out in first for c in out}
    parent = list(range(len(comps)))

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    owner_in = {label(c): n_first + i for i, (_, into, _) in enumerate(second) for c in into}
    for i, (_, _, out) in enumerate(first):
        for c in out:
            parent[find(i)] = find(owner_in[label(c)])
    groups: dict = {}
    for n in range(len(comps)):
        groups.setdefault(find(n), []).append(n)
    glued = []
    for members in groups.values():
        # the first side keeps its incoming circles, the second side its
        # outgoing ones and any incoming circle left unglued
        into = [c for n in members for c in comps[n][1] if n < n_first or label(c) not in mid]
        out = [c for n in members if n >= n_first for c in comps[n][2]]
        k = len(into) + len(out)
        if k == 0:
            return None
        euler = sum(2 - 2 * comps[n][0] - len(comps[n][1]) - len(comps[n][2]) for n in members)
        glued.append(((2 - euler - k) // 2, tuple(into), tuple(out)))
    return glued


def glue_surfaces(a: Surface, b: Surface) -> Optional[Surface]:
    """Glue consecutive surfaces along their full interface; None when
    a closed component would appear."""
    if a.target_labels != b.source_labels:
        raise ChainMismatch("glued surfaces must share their whole interface")
    glued = glue_components(
        [(c.genus, c.into, c.out) for c in a.components],
        [(c.genus, c.into, c.out) for c in b.components],
        lambda c: c.label,
    )
    if glued is None:
        return None
    return Surface(tuple(SurfComponent(*t) for t in glued), a.source, b.target)


def surgery_runs(src: Chain, tgt: Chain, attachments) -> tuple:
    """((source item index, its attachments, target slice), ...) of an
    index-2 compression from src to tgt; PatternMismatch when the
    surgery arithmetic does not hold.

    A separating word splits a component (genus and boundary sums
    preserved), a nonseparating one lowers the genus.  A surgered item
    may reappear in the target as a run of consecutive items chained
    over empty interfaces (pieces falling apart), so matching walks both
    chains in step."""
    by_item: dict = {}
    for att in attachments:
        if att.word is None:
            raise PatternMismatch("index-2 attachment needs a word")
        if not 0 <= att.item < len(src):
            raise PatternMismatch("attachment references a missing item")
        by_item.setdefault(att.item, []).append(att)
    runs = []
    j = 0
    for i, a in enumerate(src):
        atts = by_item.get(i, [])
        if not atts:
            if j >= len(tgt) or tgt[j] != a:
                raise PatternMismatch("untouched item %d changed" % i)
            j += 1
            continue
        expected = _surger_components(a, atts)
        if expected is None:
            raise PatternMismatch("surgery on item %d is inconsistent" % i)
        remaining = list(expected)
        start = j
        while remaining:
            if j >= len(tgt):
                raise PatternMismatch("target is missing surgered pieces of item %d" % i)
            piece = tgt[j]
            if j == start:
                if piece.source_labels != a.source_labels:
                    raise PatternMismatch(
                        "surgered run of item %d starts on the wrong interface" % i)
            elif piece.source != ():
                raise PatternMismatch("surgered pieces must fall apart over empty interfaces")
            for c in piece.components:
                if c not in remaining:
                    raise PatternMismatch("unexpected component after surgery on item %d" % i)
                remaining.remove(c)
            j += 1
        if tgt[j - 1].target_labels != a.target_labels:
            raise PatternMismatch("surgered run of item %d ends on the wrong interface" % i)
        runs.append((i, tuple(atts), (start, j)))
    if j != len(tgt):
        raise PatternMismatch("target has extra items")
    return tuple(runs)


def _surger_components(a: Surface, atts) -> Optional[list]:
    comps = list(a.components)
    # handles compressed so far on each component; every word names the
    # handles of its component as they were before this surgery
    cut = [set() for _ in comps]
    for att in atts:
        if not 0 <= att.comp < len(comps):
            return None
        c = comps[att.comp]
        uncut = set(range(1, c.genus + len(cut[att.comp]) + 1)) - cut[att.comp]
        word = att.word
        if _is_nonseparating(word):
            handle = word.single_generator()[1]
            if handle not in uncut:
                return None
            cut[att.comp].add(handle)
            comps[att.comp] = SurfComponent(c.genus - 1, c.into, c.out)
        else:
            split = _separating_split(c, word, uncut)
            if split is None:
                return None
            comps[att.comp:att.comp + 1] = list(split)
            cut[att.comp:att.comp + 1] = [set(), set()]
    return comps


def _is_nonseparating(word: Word) -> bool:
    single = word.single_generator()
    return single is not None and single[0] in ("a", "b")


def parse_separating(word: Word) -> Optional[tuple]:
    """(boundary labels, handle indices) of one side of a separating
    word: some rotation of it lists that side's d-loops and full handle
    commutators a_j b_j a_j^-1 b_j^-1.  None when no rotation does."""
    gens = list(word.gens)
    for r in range(max(1, len(gens))):
        parsed = _read_side(gens[r:] + gens[:r])
        if parsed is not None:
            return parsed
    return None


def _read_side(gens) -> Optional[tuple]:
    labels = set()
    handles = set()
    i = 0
    while i < len(gens):
        kind, ref, sign = gens[i]
        if kind == "d" and sign == 1:
            labels.add(ref)
            i += 1
        elif kind == "a" and sign == 1:
            if (
                i + 3 < len(gens)
                and gens[i + 1] == ("b", ref, 1)
                and gens[i + 2] == ("a", ref, -1)
                and gens[i + 3] == ("b", ref, -1)
            ):
                handles.add(ref)
                i += 4
            else:
                return None
        else:
            return None
    return labels, handles


def _separating_split(c: SurfComponent, word: Word, uncut: set) -> Optional[tuple]:
    """Split a component along a separating standard word: the word
    lists one side's boundary loops (d-generators) and handle
    commutators, which become the first piece.  Cutting and capping
    leaves two components whose genera and boundaries sum back.  uncut
    holds the indices of c's handles, numbered as before the surgery
    this split belongs to; the word may name only those."""
    parsed = parse_separating(word)
    if parsed is None:
        return None
    labels, handles = parsed
    side_in = tuple(x for x in c.into if x.label in labels)
    side_out = tuple(x for x in c.out if x.label in labels)
    if len(side_in) + len(side_out) != len(labels):
        return None
    if not handles <= uncut:
        return None
    g1 = len(handles)
    rest_in = tuple(x for x in c.into if x.label not in labels)
    rest_out = tuple(x for x in c.out if x.label not in labels)
    if not side_in and not side_out:
        return None
    if not rest_in and not rest_out:
        return None
    return (
        SurfComponent(g1, side_in, side_out),
        SurfComponent(c.genus - g1, rest_in, rest_out),
    )


def validate(seq: CobSeq) -> list:
    """Violations of the chain condition between consecutive steps; each
    step's own arithmetic was checked when it was constructed."""
    out = []
    for i, (a, b) in enumerate(zip(seq, seq[1:])):
        if a.target != b.source:
            out.append("steps %d-%d: decompositions do not match" % (i, i + 1))
    return out


def seq_source(seq: CobSeq) -> Chain:
    return seq[0].source if seq else ()


def seq_target(seq: CobSeq) -> Chain:
    return seq[-1].target if seq else ()


def reverse_step(step: CobStep) -> CobStep:
    """The reversed cobordism of one step, the same object on every call
    (CobStep.reversal)."""
    return step.reversal


def zero_handle_step(chain: Chain, pos: int, label: str) -> CobStep:
    """A 3-ball entering at chain point pos as the two discs bounding
    its sphere, glued along the new circle label."""
    _check_new_label(chain, label)
    c = Circle(label)
    d0 = Surface((SurfComponent(0, (), (c,)),), (), (c,))
    d1 = Surface((SurfComponent(0, (c,), ()),), (c,), ())
    target = chain[:pos] + (d0, d1) + chain[pos:]
    return CobStep(ZERO_HANDLE, chain, target, position=pos, circle=label)


def circle_insert_step(chain: Chain, item_idx: int, g1: int, label: str) -> CobStep:
    """Cut the connected item item_idx along the new circle label into a
    genus-g1 piece on its source side and the rest on its target side."""
    if not 0 <= item_idx < len(chain):
        raise PatternMismatch("no item %d at this level" % item_idx)
    _check_new_label(chain, label)
    item = chain[item_idx]
    if len(item.components) != 1:
        raise PatternMismatch("refined item must be connected")
    comp = item.components[0]
    if not 0 <= g1 <= comp.genus:
        raise PatternMismatch("genus split out of range")
    c = Circle(label)
    p1 = Surface((SurfComponent(g1, comp.into, (c,)),), item.source, (c,))
    p2 = Surface((SurfComponent(comp.genus - g1, (c,), comp.out),), (c,), item.target)
    target = chain[:item_idx] + (p1, p2) + chain[item_idx + 1:]
    return CobStep(CIRCLE_INSERT, chain, target, position=item_idx, circle=label)


def _check_new_label(chain: Chain, label: str) -> None:
    if any(label in item.source_labels + item.target_labels for item in chain):
        raise PatternMismatch("circle label %r is already in the chain" % label)


def compression1_step(chain: Chain, feet) -> CobStep:
    """A single 1-handle with feet ((item, comp), (item, comp)).  Both
    feet on one component raise its genus, with belt the new a-loop;
    feet on two items adjacent over an empty interface join their
    components, with belt the separating word (boundary loops, then
    handle commutators) of the earlier item's component."""
    (i1, c1), (i2, c2) = feet
    if i1 == i2 and c1 == c2:
        item = chain[i1]
        comp = item.components[c1]
        bumped = SurfComponent(comp.genus + 1, comp.into, comp.out)
        comps = item.components[:c1] + (bumped,) + item.components[c1 + 1:]
        new_item = Surface(comps, item.source, item.target)
        idx = new_item.components.index(bumped)
        belt = Word(idx, (("a", comp.genus + 1, 1),))
        target = chain[:i1] + (new_item,) + chain[i1 + 1:]
        att = Attachment(i1, idx, feet=feet, belt=belt)
        return CobStep(COMPRESSION, chain, target, index=1, attachments=(att,))
    if i1 != i2:
        lo, hi = sorted((i1, i2))
        if hi != lo + 1 or chain[lo].target != ():
            raise PatternMismatch("joined items must be adjacent over an empty interface")
        a_item, b_item = chain[lo], chain[hi]
        ca = a_item.components[c1 if lo == i1 else c2]
        zb = b_item.components[c2 if hi == i2 else c1]
        joined_comp = SurfComponent(ca.genus + zb.genus, ca.into + zb.into, ca.out + zb.out)
        rest = tuple(c for c in a_item.components if c != ca) + tuple(
            c for c in b_item.components if c != zb
        )
        new_item = Surface((joined_comp,) + rest, a_item.source + b_item.source,
                           a_item.target + b_item.target)
        idx = new_item.components.index(joined_comp)
        belt_gens = tuple(("d", x.label, 1) for x in ca.into + ca.out) + tuple(
            g for j in range(1, ca.genus + 1)
            for g in (("a", j, 1), ("b", j, 1), ("a", j, -1), ("b", j, -1))
        )
        belt = Word(idx, belt_gens)
        target = chain[:lo] + (new_item,) + chain[hi + 1:]
        att = Attachment(i1, idx, feet=feet, belt=belt)
        return CobStep(COMPRESSION, chain, target, index=1, attachments=(att,))
    raise PatternMismatch("1-handle feet on one item must name one component twice")


# --- moves -------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    kind: str
    pos: int = 0
    data: tuple = ()


def apply_move(seq: CobSeq, move: Move) -> CobSeq:
    handlers = {
        "relabel": _move_relabel,
        "cyl_create": _move_cyl_create,
        "cyl_cancel": _move_cyl_cancel,
        "circle_insert": _move_circle_insert,
        "circle_remove": _move_circle_remove,
        "imbricate": _move_imbricate,
        "split_compression": _move_split_compression,
        "switch": _move_switch,
        "cancel01": _move_cancel01,
        "create01": _move_create01,
        "cancel23": _move_cancel23,
        "create23": _move_create23,
        "cancel12": _move_cancel12,
        "create12": _move_create12,
    }
    if move.kind not in handlers:
        raise PatternMismatch("unknown move kind %r" % move.kind)
    if move.pos < 0:
        # no move reads a position from the end of the sequence
        raise PatternMismatch("move position %d is negative" % move.pos)
    return handlers[move.kind](seq, move)


def apply_moves(seq: CobSeq, moves) -> CobSeq:
    for m in moves:
        seq = apply_move(seq, m)
    return seq


def _relabel_circle(c: Circle, table: dict) -> Circle:
    return Circle(table.get(c.label, c.label), c.orient)


def _relabel_word(w: Word, table: dict) -> Word:
    return Word(
        w.comp,
        tuple((k, table.get(r, r) if k in ("g", "d") else r, s) for k, r, s in w.gens),
    )


def _relabel_surface(s: Surface, table: dict) -> Surface:
    comps = tuple(
        SurfComponent(
            c.genus,
            tuple(_relabel_circle(x, table) for x in c.into),
            tuple(_relabel_circle(x, table) for x in c.out),
        )
        for c in s.components
    )
    return Surface(
        comps,
        tuple(_relabel_circle(x, table) for x in s.source),
        tuple(_relabel_circle(x, table) for x in s.target),
    )


def _move_relabel(seq: CobSeq, move: Move) -> CobSeq:
    """Diffeomorphism equivalence, combinatorial subset: a bijective
    renaming of internal circle labels.  The outer boundary
    decompositions stay fixed, and no new name may be a label that the
    renaming leaves in place."""
    table = dict(move.data)
    if len(set(table.values())) != len(table):
        raise PatternMismatch("relabeling is not injective")

    def labels(items):
        return {x for item in items for x in item.source_labels + item.target_labels}

    if labels(seq_source(seq) + seq_target(seq)) & set(table):
        raise PatternMismatch("relabeling may not touch the outer boundary")
    kept = labels(item for step in seq for item in step.source + step.target) - set(table)
    reused = kept.intersection(table.values())
    if reused:
        raise PatternMismatch("relabeling may not reuse the label %r" % min(reused))
    out = []
    for step in seq:
        out.append(
            CobStep(
                step.kind,
                tuple(_relabel_surface(s, table) for s in step.source),
                tuple(_relabel_surface(s, table) for s in step.target),
                step.position,
                table.get(step.circle, step.circle),
                step.index,
                tuple(
                    Attachment(
                        a.item,
                        a.comp,
                        word=_relabel_word(a.word, table) if a.word else None,
                        feet=a.feet,
                        belt=_relabel_word(a.belt, table) if a.belt else None,
                    )
                    for a in step.attachments
                ),
            )
        )
    return tuple(out)


def _move_cyl_create(seq: CobSeq, move: Move) -> CobSeq:
    pos = move.pos
    if not 0 <= pos <= len(seq):
        raise PatternMismatch("cylinder position out of range")
    if pos < len(seq):
        chain = seq[pos].source
    elif seq:
        chain = seq[-1].target
    else:
        raise PatternMismatch("empty sequence needs an explicit chain")
    cyl = CobStep(CYLINDER, chain, chain)
    return seq[:pos] + (cyl,) + seq[pos:]


def _move_cyl_cancel(seq: CobSeq, move: Move) -> CobSeq:
    pos = move.pos
    if not 0 <= pos < len(seq) or seq[pos].kind != CYLINDER:
        raise PatternMismatch("no cylinder at position %d" % pos)
    if len(seq) == 1:
        # an empty sequence carries no boundary to evaluate
        raise PatternMismatch("cyl_cancel of the only step leaves no steps")
    return seq[:pos] + seq[pos + 1:]


def _move_imbricate(seq: CobSeq, move: Move) -> CobSeq:
    """Merge adjacent same-index compression bodies, lifting the second
    step's attaching words to the first chart."""
    pos = move.pos
    if not 0 <= pos < len(seq) - 1:
        raise PatternMismatch("imbrication position out of range")
    s1, s2 = seq[pos], seq[pos + 1]
    if s1.kind != COMPRESSION or s2.kind != COMPRESSION or s1.index != s2.index:
        raise PatternMismatch("imbrication needs two compressions of one index")
    if is_forward(s1):
        merged = _imbricate2(s1, s2)
    else:
        merged = reverse_step(_imbricate2(reverse_step(s2), reverse_step(s1)))
    return seq[:pos] + (merged,) + seq[pos + 2:]


def _imbricate2(s1: CobStep, s2: CobStep) -> CobStep:
    lifted = []
    for att in s2.attachments:
        lift = _carry_attachment(att, s1, down=False)
        if lift is None:
            raise PatternMismatch("cannot lift an attaching word through the first step")
        lifted.append(lift)
    return CobStep(
        COMPRESSION, s1.source, s2.target, index=2,
        attachments=s1.attachments + tuple(lifted),
    )


def _carry_attachment(att: Attachment, step: CobStep, down: bool) -> Optional[Attachment]:
    """Carry an attachment across the index-2 compression step: down
    from step.source to step.target, or up from step.target to
    step.source.  Supported for the label-stable compressions used here:
    the item/component tracking is by boundary labels, and handle indices
    shift past the handles the step compresses on the source side."""
    here, there = (step.source, step.target) if down else (step.target, step.source)
    comp = here[att.item].components[att.comp]
    home = _find_component(there, comp.boundary_labels)
    if home is None:
        return None
    item_idx, comp_idx, _ = home
    src_item, src_comp, src = (att.item, att.comp, comp) if down else home
    cuts = {a.word.single_generator()[1] for a in step.attachments
            if a.item == src_item and a.comp == src_comp and _is_nonseparating(a.word)}
    survivors = list(enumerate(surviving_handles(src.genus, cuts), start=1))
    table = {old: new for new, old in survivors} if down else dict(survivors)
    word = _renumber_handles(att.word, comp_idx, table)
    return None if word is None else Attachment(item_idx, comp_idx, word=word)


def surviving_handles(genus: int, cuts) -> list:
    """The handle indices 1..genus left by compressing the handles in
    cuts, in order: the j-th entry is the old index of new handle j."""
    return [j for j in range(1, genus + 1) if j not in cuts]


def _renumber_handles(word: Word, comp: int, table: dict) -> Optional[Word]:
    """word on component comp with its handle indices mapped through
    table; None when one of them has no image."""
    gens = []
    for k, r, s in word.gens:
        if k in ("a", "b"):
            if r not in table:
                return None
            r = table[r]
        gens.append((k, r, s))
    return Word(comp, tuple(gens))


def _find_component(chain: Chain, labels) -> Optional[tuple]:
    want = set(labels)
    for i, item in enumerate(chain):
        for j, comp in enumerate(item.components):
            if want <= set(comp.boundary_labels):
                return (i, j, comp)
    return None


def _move_split_compression(seq: CobSeq, move: Move) -> CobSeq:
    """Inverse imbrication: data = the number of attachments kept in
    the first of the two steps."""
    pos = move.pos
    (head_count,) = move.data
    if not 0 <= pos < len(seq) or seq[pos].kind != COMPRESSION:
        raise PatternMismatch("no compression at position %d" % pos)
    step = seq[pos]
    if not 0 < head_count < len(step.attachments):
        raise PatternMismatch("split must leave attachments on both sides")
    if not is_forward(step):
        rev = _move_split_compression(
            (reverse_step(step),), Move("split_compression", 0, (len(step.attachments) - head_count,))
        )
        return seq[:pos] + tuple(reverse_step(s) for s in reversed(rev)) + seq[pos + 1:]
    head = step.attachments[:head_count]
    tail = step.attachments[head_count:]
    mid_chain = _compress_chain(step.source, head)
    first = CobStep(COMPRESSION, step.source, mid_chain, index=2, attachments=head)
    dropped = []
    for att in tail:
        low = _carry_attachment(att, first, down=True)
        if low is None:
            raise PatternMismatch("a tail word does not survive the first compression")
        dropped.append(low)
    second = CobStep(COMPRESSION, mid_chain, step.target, index=2, attachments=tuple(dropped))
    return seq[:pos] + (first, second) + seq[pos + 1:]


def _compress_chain(chain: Chain, attachments) -> Chain:
    by_item: dict = {}
    for a in attachments:
        by_item.setdefault(a.item, []).append(a)
    items = []
    for i, item in enumerate(chain):
        atts = by_item.get(i, [])
        if not atts:
            items.append(item)
            continue
        comps = _surger_components(item, atts)
        if comps is None:
            raise PatternMismatch("surgery arithmetic failed")
        items.append(Surface(tuple(comps), item.source, item.target))
    return tuple(items)


def _step_window(step: CobStep):
    """(lo, hi, delta): the item slice the step touches in its source
    and the item-count change."""
    src, tgt = step.source, step.target
    lo = 0
    while lo < len(src) and lo < len(tgt) and src[lo] == tgt[lo]:
        lo += 1
    hi_s, hi_t = len(src), len(tgt)
    while hi_s > lo and hi_t > lo and src[hi_s - 1] == tgt[hi_t - 1]:
        hi_s -= 1
        hi_t -= 1
    window = (lo, hi_s, len(tgt) - len(src))
    for att in step.attachments:
        ref = att.item if is_forward(step) else min(f[0] for f in att.feet or ((att.item, 0),))
        window = (min(window[0], ref), max(window[1], ref + 1), window[2])
    if step.kind in (ZERO_HANDLE, CIRCLE_INSERT):
        window = (min(window[0], step.position), window[1], window[2])
    return window


def _shift_step(step: CobStep, new_source: Chain, shift: int) -> CobStep:
    """Rebuild a step over a new ambient source with its local window
    moved by shift item positions."""
    lo, hi, delta = _step_window(step)
    replaced = step.target[lo: hi + delta]
    new_target = (
        new_source[: lo + shift] + replaced + new_source[hi + shift:]
    )
    atts = tuple(
        Attachment(
            a.item + shift,
            a.comp,
            word=a.word,
            feet=tuple((i + shift, c) for i, c in a.feet) if a.feet else None,
            belt=a.belt,
        )
        for a in step.attachments
    )
    return CobStep(
        step.kind,
        new_source,
        new_target,
        step.position + shift if step.kind in (ZERO_HANDLE, THREE_HANDLE, CIRCLE_INSERT, CIRCLE_REMOVE) else step.position,
        step.circle,
        step.index,
        atts,
    )


def _move_switch(seq: CobSeq, move: Move) -> CobSeq:
    """Exchange adjacent steps supported on disjoint item windows."""
    pos = move.pos
    if not 0 <= pos < len(seq) - 1:
        raise PatternMismatch("switch position out of range")
    s1, s2 = seq[pos], seq[pos + 1]
    lo1, hi1, d1 = _step_window(s1)
    lo2, hi2, d2 = _step_window(s2)
    if lo2 >= hi1 + d1:
        # s2 acts strictly right of s1's output window
        s2_first = _shift_step(s2, s1.source, -d1)
        s1_after = _shift_step(s1, s2_first.target, 0)
    elif hi2 + 0 <= lo1:
        s2_first = _shift_step(s2, s1.source, 0)
        s1_after = _shift_step(s1, s2_first.target, d2)
    else:
        raise PatternMismatch("steps overlap; cannot switch")
    if s1_after.target != s2.target:
        raise PatternMismatch("switched steps do not recompose")
    return seq[:pos] + (s2_first, s1_after) + seq[pos + 2:]


def _move_circle_insert(seq: CobSeq, move: Move) -> CobSeq:
    """Refine the decomposition at an internal level flanked by
    cylinders: the upstream cylinder becomes a circle insertion and the
    downstream one the matching removal.  Together with cylinder
    creation this realizes the level-refinement move wherever the
    neighbors are trivial."""
    level = move.pos
    item_idx, g1, label = move.data
    if not 1 <= level < len(seq):
        raise PatternMismatch("circle moves apply at internal levels")
    if seq[level - 1].kind != CYLINDER or seq[level].kind != CYLINDER:
        raise PatternMismatch("circle move needs cylinders on both sides")
    ins = circle_insert_step(seq[level].source, item_idx, g1, label)
    return seq[:level - 1] + (ins, reverse_step(ins)) + seq[level + 1:]


def _move_circle_remove(seq: CobSeq, move: Move) -> CobSeq:
    """Coarsen the level created by the insertion move: an adjacent
    insert/remove pair of the same circle turns back into cylinders."""
    level = move.pos
    if not 1 <= level < len(seq):
        raise PatternMismatch("circle moves apply at internal levels")
    s1, s2 = seq[level - 1], seq[level]
    if s1.kind != CIRCLE_INSERT or s2.kind != CIRCLE_REMOVE:
        raise PatternMismatch("no insert/remove pair at this level")
    if s1.circle != s2.circle or s1.position != s2.position or s1.source != s2.target:
        raise PatternMismatch("insert/remove pair does not cancel")
    cyl = CobStep(CYLINDER, s1.source, s1.source)
    return seq[:level - 1] + (cyl, cyl) + seq[level + 1:]


def _move_cancel01(seq: CobSeq, move: Move) -> CobSeq:
    """(0-handle, joining 1-handle, circle removal) collapses to a
    cylinder."""
    pos = move.pos
    if pos + 3 > len(seq):
        raise PatternMismatch("cancellation needs three steps")
    s1, s2, s3 = seq[pos:pos + 3]
    if s1.kind != ZERO_HANDLE:
        raise PatternMismatch("first step must be a 0-handle")
    if s2.kind != COMPRESSION or is_forward(s2) or len(s2.attachments) != 1:
        raise PatternMismatch("second step must be a single 1-handle")
    if s3.kind != CIRCLE_REMOVE or s3.circle != s1.circle:
        raise PatternMismatch("third step must remove the 0-handle circle")
    att = s2.attachments[0]
    p = s1.position
    if att.feet is None or set(att.feet) != {(p + 1, 0), (p + 2, 0)}:
        raise PatternMismatch("1-handle must join the second disc to its neighbor")
    single = att.belt.single_generator() if att.belt else None
    if single != ("d", s1.circle):
        raise PatternMismatch("belt must be the 0-handle circle loop")
    if s3.position != p or s3.target != s1.source:
        raise PatternMismatch("pattern does not return to its source")
    return seq[:pos] + (CobStep(CYLINDER, s1.source, s1.source),) + seq[pos + 3:]


def _move_create01(seq: CobSeq, move: Move) -> CobSeq:
    """Inverse cancellation: expand a cylinder into the three-step
    pattern; data = (item index joined, circle label)."""
    pos = move.pos
    item_idx, label = move.data
    if not 0 <= pos < len(seq) or seq[pos].kind != CYLINDER:
        raise PatternMismatch("no cylinder at position %d" % pos)
    chain = seq[pos].source
    if not 0 <= item_idx < len(chain):
        raise PatternMismatch("no item %d in the chain" % item_idx)
    item = chain[item_idx]
    if item.source != ():
        raise PatternMismatch("0-handle insertion needs an empty chain point")
    s1 = zero_handle_step(chain, item_idx, label)
    s2 = compression1_step(s1.target, ((item_idx + 1, 0), (item_idx + 2, 0)))
    s3 = CobStep(CIRCLE_REMOVE, s2.target, chain, position=item_idx, circle=label)
    return seq[:pos] + (s1, s2, s3) + seq[pos + 1:]


def _move_cancel23(seq: CobSeq, move: Move) -> CobSeq:
    pos = move.pos
    if pos + 3 > len(seq):
        raise PatternMismatch("cancellation needs three steps")
    rev = tuple(reverse_step(s) for s in reversed(seq[pos:pos + 3]))
    out = _move_cancel01(rev, Move("cancel01", 0))
    cyl = out[0]
    return seq[:pos] + (reverse_step(cyl),) + seq[pos + 3:]


def _move_create23(seq: CobSeq, move: Move) -> CobSeq:
    pos = move.pos
    if not 0 <= pos < len(seq) or seq[pos].kind != CYLINDER:
        raise PatternMismatch("no cylinder at position %d" % pos)
    expanded = _move_create01((seq[pos],), Move("create01", 0, move.data))
    flipped = tuple(reverse_step(s) for s in reversed(expanded))
    return seq[:pos] + flipped + seq[pos + 1:]


def _move_cancel12(seq: CobSeq, move: Move) -> CobSeq:
    """A 1-handle and a 2-handle along dual curves cancel to a
    cylinder."""
    pos = move.pos
    if pos + 2 > len(seq):
        raise PatternMismatch("cancellation needs two steps")
    s1, s2 = seq[pos], seq[pos + 1]
    if s1.kind != COMPRESSION or is_forward(s1) or len(s1.attachments) != 1:
        raise PatternMismatch("first step must be a single 1-handle")
    if s2.kind != COMPRESSION or not is_forward(s2) or len(s2.attachments) != 1:
        raise PatternMismatch("second step must be a single 2-handle")
    a1, a2 = s1.attachments[0], s2.attachments[0]
    if (a1.item, a1.comp) != (a2.item, a2.comp):
        raise PatternMismatch("handles act on different components")
    b = a1.belt.single_generator() if a1.belt else None
    w = a2.word.single_generator()
    if b is None or w is None or b[1] != w[1] or {b[0], w[0]} != {"a", "b"}:
        raise PatternMismatch("attaching curves are not a cancelling dual pair")
    if s2.target != s1.source:
        raise PatternMismatch("pair does not return to its source")
    return seq[:pos] + (CobStep(CYLINDER, s1.source, s1.source),) + seq[pos + 2:]


def _move_create12(seq: CobSeq, move: Move) -> CobSeq:
    """Expand a cylinder into a cancelling 1-/2-handle pair on the
    component given in data = (item, comp)."""
    pos = move.pos
    item_idx, comp_idx = move.data
    if not 0 <= pos < len(seq) or seq[pos].kind != CYLINDER:
        raise PatternMismatch("no cylinder at position %d" % pos)
    chain = seq[pos].source
    if not 0 <= item_idx < len(chain):
        raise PatternMismatch("no item %d in the chain" % item_idx)
    item = chain[item_idx]
    if not 0 <= comp_idx < len(item.components):
        raise PatternMismatch("no component %d in item %d" % (comp_idx, item_idx))
    s1 = compression1_step(chain, ((item_idx, comp_idx), (item_idx, comp_idx)))
    att = s1.attachments[0]
    dual = Word(att.comp, (("b", item.components[comp_idx].genus + 1, 1),))
    s2 = CobStep(COMPRESSION, s1.target, chain, index=2,
                 attachments=(Attachment(att.item, att.comp, word=dual),))
    return seq[:pos] + (s1, s2) + seq[pos + 1:]


# --- standard decompositions ----------------------------------------------------


def cylinder_seq(chain: Chain) -> CobSeq:
    return (CobStep(CYLINDER, chain, chain),)


def closed_surface_chain(genus: int, label: str = "eq") -> Chain:
    """A closed surface as two one-boundary pieces glued along one
    separating circle."""
    g1 = (genus + 1) // 2
    g2 = genus - g1
    c = Circle(label)
    return (
        Surface((SurfComponent(g1, (), (c,)),), (), (c,)),
        Surface((SurfComponent(g2, (c,), ()),), (c,), ()),
    )


def solid_torus_seq(label: str = "tc") -> CobSeq:
    """The solid torus from nothing to a decomposed torus: a 0-handle
    and a genus-raising 1-handle on the first disc."""
    s1 = zero_handle_step((), 0, label)
    return (s1, compression1_step(s1.target, ((0, 0), (0, 0))))
