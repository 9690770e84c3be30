"""The cobordism description format.

CDF (cobordism description files) describe a decomposed cobordism and
optionally a move chain:

    @circles
    c0 +
    mid +
    @surfaces
    ann  comp g=1 in=c0 out=c1
    @chain ann
    @steps
    cylinder
    compression2 0 0  a1
    compression1 0.0 0.0
    @moves
    create12 0 0 0
    @manifold solid_torus

Each ``@steps`` (and ``@steps2``) line is one elementary step applied
to the chain the previous line ended on; items and components count
from 0:

    cylinder                      the chain unchanged
    zero_handle POS LABEL         a 3-ball: two discs sharing the new
                                  circle LABEL enter at chain point POS
    three_handle POS LABEL        the disc pair at items POS, POS+1 leaves
    circle_remove POS LABEL       items POS, POS+1 glue along LABEL, their
                                  whole interface
    circle_insert POS LABEL ITEM G1
                                  the connected item ITEM is cut along the
                                  new circle LABEL into a genus-G1 piece on
                                  its source side and the rest; POS = ITEM
    compression2 ITEM COMP WORD...
                                  a 2-handle along WORD on component COMP
                                  of item ITEM
    compression1 I.C I.C          a 1-handle with one foot on component C
                                  of item I each: twice the same component
                                  raises its genus, components of two items
                                  adjacent over an empty interface join

Words are whitespace-separated signed generators: ``a1 b2`` for handle
holonomies (trailing ``-`` inverts), ``d:c0`` / ``g:c0`` for boundary
loops and arcs.  Blank lines and ``#`` comments are ignored.

The catalog format (.cat) is parsed by catfile, which shares this
module's ParseError and line reader; this module loads neither the
biset oracle nor numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from cobord2 import cobordism as cb
from cobord2.cobordism import Attachment, Circle, CobStep, Move, SurfComponent, Surface
from cobord2.words import Word


class ParseError(ValueError):
    pass


def read_text(path) -> str:
    """The text of the input file at path; a file that is not UTF-8 is
    a ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ParseError("%s is not UTF-8 text" % path) from None


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_word(tokens, comp: int = 0) -> Word:
    gens = []
    for tok in tokens:
        sign = 1
        if tok.endswith("-"):
            sign = -1
            tok = tok[:-1]
        if tok[0] in ("a", "b") and tok[1:].isdigit():
            gens.append((tok[0], int(tok[1:]), sign))
        elif tok[0] in ("d", "g") and tok[1:2] == ":":
            gens.append((tok[0], tok[2:], sign))
        else:
            raise ParseError("bad word token %r" % tok)
    return Word(comp, tuple(gens))


@dataclass
class CdfDocument:
    circles: dict = field(default_factory=dict)
    chain: tuple = ()
    steps: tuple = ()
    steps2: tuple = ()
    moves: tuple = ()
    manifold: Optional[tuple] = None

    def sequence(self):
        """The step sequence: explicit @steps, or the standard
        decomposition of the named manifold."""
        if self.steps:
            return self.steps
        if self.manifold is None:
            raise ParseError("document has neither steps nor a manifold")
        kind, args = self.manifold[0], self.manifold[1:]
        if kind == "cylinder":
            if not self.chain:
                raise ParseError("cylinder needs a @chain")
            return cb.cylinder_seq(self.chain)
        if kind == "solid_torus":
            if len(args) > 1:
                raise ParseError("solid_torus takes at most one circle label, got %r" % (args,))
            return cb.solid_torus_seq(*args)
        if kind == "closed_surface":
            if len(args) != 1 or not args[0].isdigit():
                raise ParseError("closed_surface needs one genus >= 0, got %r" % (args,))
            return cb.cylinder_seq(cb.closed_surface_chain(int(args[0])))
        raise ParseError("unknown manifold %r" % kind)


def parse_cdf(text: str) -> CdfDocument:
    doc = CdfDocument()
    surfaces: dict = {}
    section = None
    chain_names: list = []
    step_lines: list = []
    step2_lines: list = []
    move_lines: list = []
    for lineno, line in _lines(text):
        if line.startswith("@"):
            parts = line.split()
            section = parts[0][1:]
            if section == "chain":
                chain_names = parts[1:]
            elif section == "manifold":
                if len(parts) < 2:
                    raise ParseError("line %d: @manifold needs a manifold name" % lineno)
                doc.manifold = tuple(parts[1:])
            elif section not in ("circles", "surfaces", "steps", "steps2", "moves"):
                raise ParseError("line %d: unknown section %r" % (lineno, section))
            continue
        if section == "circles":
            parts = line.split()
            label = parts[0]
            orient = -1 if len(parts) > 1 and parts[1] == "-" else 1
            doc.circles[label] = Circle(label, orient)
        elif section == "surfaces":
            parts = line.split(None, 1)
            if len(parts) < 2:
                raise ParseError("line %d: surface %r has no components" % (lineno, line))
            name, rest = parts
            surfaces[name] = _parse_surface(rest, doc.circles, lineno)
        elif section == "steps":
            step_lines.append((lineno, line))
        elif section == "steps2":
            step2_lines.append((lineno, line))
        elif section == "moves":
            move_lines.append((lineno, line))
        else:
            raise ParseError("line %d: content outside any section" % lineno)
    try:
        doc.chain = tuple(surfaces[n] for n in chain_names)
    except KeyError as err:
        raise ParseError("unknown surface name %s" % err)
    doc.steps = _build_steps(doc.chain, step_lines)
    doc.steps2 = _build_steps(doc.chain, step2_lines)
    doc.moves = tuple(_parse_move(lineno, line) for lineno, line in move_lines)
    return doc


def _parse_surface(text: str, circles: dict, lineno: int) -> Surface:
    try:
        comps = [_parse_component(block.split(), circles) for block in text.split(";")]
        source = tuple(c for comp in comps for c in comp.into)
        target = tuple(c for comp in comps for c in comp.out)
        return Surface(tuple(comps), source, target)
    except (cb.ChainMismatch, ValueError) as err:
        raise ParseError("line %d: %s" % (lineno, err))


def _parse_component(parts: list, circles: dict) -> SurfComponent:
    if not parts or parts[0] != "comp":
        raise ValueError("surface component must start with 'comp'")
    genus = 0
    into: list = []
    out: list = []
    for p in parts[1:]:
        if p.startswith("g="):
            genus = int(p[2:])
        elif p.startswith("in="):
            into = [circles.get(l, Circle(l)) for l in p[3:].split(",") if l]
        elif p.startswith("out="):
            out = [circles.get(l, Circle(l)) for l in p[4:].split(",") if l]
        else:
            raise ValueError("bad component field %r" % p)
    return SurfComponent(genus, tuple(into), tuple(out))


def _build_steps(chain, step_lines) -> tuple:
    steps = []
    cur = chain
    for lineno, line in step_lines:
        parts = line.split()
        kind = parts[0]
        try:
            step = _build_step(kind, parts[1:], cur)
        except (cb.PatternMismatch, cb.ChainMismatch, ValueError, IndexError) as err:
            raise ParseError("line %d: %s" % (lineno, err))
        steps.append(step)
        cur = step.target
    return tuple(steps)


def _build_step(kind, args, cur) -> CobStep:
    if kind == "cylinder":
        return CobStep(cb.CYLINDER, cur, cur)
    if kind == "zero_handle":
        return cb.zero_handle_step(cur, int(args[0]), args[1])
    if kind == "three_handle":
        pos, label = int(args[0]), args[1]
        target = cur[:pos] + cur[pos + 2:]
        return CobStep(cb.THREE_HANDLE, cur, target, position=pos, circle=label)
    if kind == "circle_remove":
        pos, label = int(args[0]), args[1]
        merged = cb.glue_surfaces(cur[pos], cur[pos + 1])
        if merged is None:
            raise cb.PatternMismatch("gluing closes a component")
        target = cur[:pos] + (merged,) + cur[pos + 2:]
        return CobStep(cb.CIRCLE_REMOVE, cur, target, position=pos, circle=label)
    if kind == "circle_insert":
        pos, label, item_idx, g1 = int(args[0]), args[1], int(args[2]), int(args[3])
        if pos != item_idx:
            raise cb.PatternMismatch("circle_insert position must equal its item index")
        return cb.circle_insert_step(cur, item_idx, g1, label)
    if kind == "compression2":
        item, comp = int(args[0]), int(args[1])
        word = parse_word(args[2:], comp)
        att = Attachment(item, comp, word=word)
        target = cb._compress_chain(cur, (att,))
        target = _maybe_split_items(target)
        return CobStep(cb.COMPRESSION, cur, target, index=2, attachments=(att,))
    if kind == "compression1":
        feet = []
        for tok in args:
            a, b = tok.split(".")
            feet.append((int(a), int(b)))
        if len(feet) != 2:
            raise cb.PatternMismatch("compression1 takes exactly two feet")
        return cb.compression1_step(cur, tuple(feet))
    raise cb.PatternMismatch("unknown step kind %r" % kind)


def _maybe_split_items(chain):
    """Let multi-component items whose components partition the chain
    interface fall apart into separate items; used after separating
    surgeries so the standard patterns stay in sequence form."""
    out = []
    for item in chain:
        if len(item.components) <= 1:
            out.append(item)
            continue
        pieces = []
        used_src = set()
        splittable = True
        for comp in item.components:
            src = tuple(c for c in item.source if c.label in {x.label for x in comp.into})
            tgt = tuple(c for c in item.target if c.label in {x.label for x in comp.out})
            if len(src) != len(comp.into) or len(tgt) != len(comp.out):
                splittable = False
                break
            pieces.append(Surface((comp,), src, tgt))
        if splittable and len(pieces) > 1 and all(
            not p.source for p in pieces[1:]
        ):
            out.extend(pieces)
        else:
            out.append(item)
    return tuple(out)


def _parse_move(lineno, line) -> Move:
    parts = line.split()
    kind = parts[0]
    args = parts[1:]
    try:
        if kind in ("cyl_create", "cyl_cancel", "circle_remove", "imbricate", "switch",
                    "cancel01", "cancel23", "cancel12"):
            return Move(kind, int(args[0]))
        if kind == "circle_insert":
            return Move(kind, int(args[0]), (int(args[1]), int(args[2]), args[3]))
        if kind == "split_compression":
            return Move(kind, int(args[0]), (int(args[1]),))
        if kind in ("create01", "create23"):
            return Move(kind, int(args[0]), (int(args[1]), args[2]))
        if kind == "create12":
            return Move(kind, int(args[0]), (int(args[1]), int(args[2])))
        if kind == "relabel":
            pairs = tuple(tuple(tok.split("=", 1)) for tok in args[1:])
            if not all(len(pair) == 2 and all(pair) for pair in pairs):
                raise ValueError("relabel takes OLD=NEW pairs")
            return Move(kind, int(args[0]), pairs)
    except (IndexError, ValueError) as err:
        raise ParseError("line %d: bad move arguments (%s)" % (lineno, err))
    raise ParseError("line %d: unknown move %r" % (lineno, kind))
