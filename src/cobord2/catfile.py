"""The finite catalog format (.cat): finite groups and bisets for the
biset oracle.

    @groups
    z2 cyclic 2
    gt table 2  0 1 1 0
    @bisets
    idz2 identity z2
    @sequences
    idz2 idz2
    @depth 4

Each ``@sequences`` line names bisets that chain: the right group of
each is the left group of the next.  ``@depth`` is at least 2, since a
loop needs two moves to close.  Blank lines and ``#`` comments are
ignored, as in the .cdf format, and a malformed line is a
cdf.ParseError.  This module builds the groups and bisets as it parses,
so it loads the biset oracle; cdf does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cobord2 import bisets as bs
from cobord2.cdf import ParseError, content_lines


@dataclass
class CatalogDocument:
    groups: dict = field(default_factory=dict)
    bisets: dict = field(default_factory=dict)
    sequences: list = field(default_factory=list)
    depth: int = 4


def parse_catalog(text: str) -> CatalogDocument:
    doc = CatalogDocument()
    section = None
    for lineno, line in content_lines(text):
        if line.startswith("@"):
            parts = line.split()
            section = parts[0][1:]
            if section == "depth":
                try:
                    doc.depth = int(parts[1])
                except (IndexError, ValueError):
                    raise ParseError("line %d: @depth needs an integer" % lineno)
                if doc.depth < 2:
                    # a loop needs two moves to close
                    raise ParseError("line %d: @depth must be at least 2" % lineno)
            elif section not in ("groups", "bisets", "sequences"):
                raise ParseError("line %d: unknown section %r" % (lineno, section))
            continue
        try:
            if section == "groups":
                _parse_group(doc, line)
            elif section == "bisets":
                _parse_biset(doc, line)
            elif section == "sequences":
                names = line.split()
                items = tuple(doc.bisets[n] for n in names)
                for k in range(len(items) - 1):
                    if items[k].right_group != items[k + 1].left_group:
                        raise ValueError("bisets %s and %s do not chain" % tuple(names[k:k + 2]))
                doc.sequences.append(items)
            else:
                raise ParseError("line %d: content outside any section" % lineno)
        except (bs.TableError, bs.NotComposable, KeyError, ValueError) as err:
            raise ParseError("line %d: %s" % (lineno, err))
        except IndexError:
            raise ParseError("line %d: too few fields in %r" % (lineno, line))
    return doc


# The most entries (8 MiB of int64) that a table of a parsed group or
# biset may hold: a line asking for more is refused before it is built.
TABLE_CAP = 1 << 20


def _capped(name: str, entries: int):
    if entries > TABLE_CAP:
        raise ValueError("%s: %d table entries exceed the cap of %d" % (name, entries, TABLE_CAP))


def _parse_group(doc, line):
    parts = line.split()
    name, kind = parts[0], parts[1]
    if kind == "cyclic":
        _capped(name, int(parts[2]) ** 2)
        doc.groups[name] = bs.cyclic(int(parts[2]), name)
    elif kind == "symmetric":
        if int(parts[2]) != 3:
            raise ValueError("only the symmetric group on 3 letters ships")
        doc.groups[name] = bs.symmetric3(name)
    elif kind == "quaternion":
        doc.groups[name] = bs.quaternion8(name)
    elif kind == "product":
        _capped(name, (doc.groups[parts[2]].order * doc.groups[parts[3]].order) ** 2)
        doc.groups[name] = bs.product_group(doc.groups[parts[2]], doc.groups[parts[3]])
    elif kind == "table":
        n = int(parts[2])
        vals = [int(v) for v in parts[3:]]
        if len(vals) != n * n:
            raise ValueError("table needs %d entries" % (n * n))
        mult = tuple(tuple(vals[i * n:(i + 1) * n]) for i in range(n))
        doc.groups[name] = bs.FiniteGroup(name, mult)
    else:
        raise ValueError("unknown group kind %r" % kind)


def _parse_biset(doc, line):
    parts = line.split()
    name, kind = parts[0], parts[1]
    g = doc.groups[parts[2]]
    # biregular acts on |G|**2 points, pants and copants by |G|**2 elements
    _capped(name, g.order ** {"biregular": 3, "pants": 4, "copants": 4}.get(kind, 2))
    if kind == "identity":
        doc.bisets[name] = bs.identity_biset(g)
    elif kind == "biregular":
        doc.bisets[name] = bs.biregular_biset(g)
    elif kind == "pants":
        doc.bisets[name] = bs.pants_biset(g)
    elif kind == "copants":
        doc.bisets[name] = bs.copants_biset(g)
    elif kind == "unit":
        doc.bisets[name] = bs.unit_biset(g)
    elif kind == "counit":
        doc.bisets[name] = bs.unit_biset(g).adjoint()
    else:
        raise ValueError("unknown biset kind %r" % kind)
