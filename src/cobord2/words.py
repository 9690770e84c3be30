"""Attaching words in the holonomy-chart generators of a surface
component.

Generators: ('a', j) / ('b', j) are the handle holonomies A_j, B_j
(j >= 1), ('g', label) the connecting-arc holonomy to the boundary
circle with that label, ('d', label) the full loop around that
boundary.  A word is a signed sequence of generators; equality is
syntactic modulo free reduction and cyclic rotation, which is exactly
the invariance a trivial-holonomy condition Hol_w = 1 enjoys."""

from __future__ import annotations

from dataclasses import dataclass


Gen = tuple  # (kind, ref, sign) with sign in {+1, -1}


def gen(kind: str, ref, sign: int = 1) -> Gen:
    if kind not in ("a", "b", "g", "d"):
        raise ValueError("unknown generator kind %r" % kind)
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    return (kind, ref, sign)


def _free_reduce(gens):
    out = []
    for g in gens:
        if out and out[-1][0] == g[0] and out[-1][1] == g[1] and out[-1][2] == -g[2]:
            out.pop()
        else:
            out.append(g)
    return out


def _cyclic_reduce(gens):
    gens = _free_reduce(gens)
    while len(gens) >= 2 and gens[0][0] == gens[-1][0] and gens[0][1] == gens[-1][1] \
            and gens[0][2] == -gens[-1][2]:
        gens = _free_reduce(gens[1:-1])
    return gens


def _sort_key(g: Gen):
    return (g[0], repr(g[1]), g[2])


def _min_rotation(gens):
    if not gens:
        return ()
    rots = [tuple(gens[k:] + gens[:k]) for k in range(len(gens))]
    return min(rots, key=lambda r: [_sort_key(g) for g in r])


@dataclass(frozen=True)
class Word:
    """Cyclic word, stored freely and cyclically reduced with the
    lexicographically minimal rotation."""
    comp: int  # component index within the carrying space symbol
    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", _min_rotation(_cyclic_reduce(list(self.gens))))

    def single_generator(self):
        """(kind, ref) when the word is one unsigned generator, else None."""
        if len(self.gens) == 1:
            return (self.gens[0][0], self.gens[0][1])
        return None

    def substitute(self, mapping: dict) -> "Word":
        """Rename generator bases through a (kind, ref) -> (kind, ref) map;
        bases absent from the map pass through unchanged."""
        out = []
        for k, r, s in self.gens:
            nk, nr = mapping.get((k, r), (k, r))
            out.append((nk, nr, s))
        return Word(self.comp, tuple(out))
