"""Finite groups acting on finite sets: an exactly computable instance
of the partially-composable structure.

Simple 1-morphisms are bisets (a set with commuting left G- and right
G'-actions), composed by quotienting the anti-diagonal middle action
when it is free.  Simple 2-morphisms are invariant subsets of the
product of all carriers of two sequences.  Because every quotient here
is a literal finite orbit set, each construction doubles as a
brute-force oracle for the diagram machinery: a probe correspondence
can always be pushed through an identification (image) or pulled back
(preimage), and invariant subsets are determined by their fully
collapsed forms.

Everything is integer coded.  A group's multiplication table and a
biset's action tables are read-only int64 arrays from construction on,
built by index arithmetic, and a group or biset compares and hashes by
its name, its groups and its table bytes.  A product tuple (one carrier
index per item of a sequence) is its row-major mixed-radix code, so
codes run in itertools.product order.  Each generator of the middle and
outer actions is a permutation array over those codes, and the pairs of
a correspondence are a sorted, duplicate-free int64 array of pair codes
s * |P_tgt| + t, though a probe is held and carried as orbit rows
(below).  Orbits are found by label propagation over the permutations,
probes are carried by indexing through push and pull maps.

The laws are checked once, where tables enter.  The public FiniteGroup
and FiniteBiset constructors check every table they are given (by the
builders below, .cat parsing or tests): the shape and integer entries,
then the group laws, with associativity by Light's test on generators,
or the biset laws on generators.  Each law costs about one table's
worth of work per generator (n**2 for a group of order n), so a group
at the .cat cap of 2**20 table entries checks in well under a second.
What this module derives from checked bisets is not checked again: a
composite of two lawful bisets over a free middle action, and the
adjoint of one, are lawful by the proofs in try_compose_bisets and
FiniteBiset.adjoint, so both are built by FiniteBiset._derived, which
only makes their tables read-only.  The tests compare every composite
they build with a reference that checks each law on every element.

The orbit probes never leave that collapse.  An outer generator (left
on the first item, right on the last) commutes with every middle one,
as the biset law checked by FiniteBiset demands, so it permutes the
middle orbits, and the orbit of a pair (x, x) under all actions is the
union of c x c over the middle orbits c in the class of x's orbit under
the outer generators.  The same label propagation, run once over orbit
labels, classes the orbits.  So every probe is a union of blocks c x c,
and it is held as orbit rows (_Rows) on both sides: the target side's
rows are codes o * |P| + t, orbit label by target code, the source
side's s * count + o, and an orbit probe leaves out the orbits outside
its class.  A start's rows hold one code per product code and side, and
nothing is sized by the |P|**2 pair codes.  A collapse holds one stable
sort of its codes by orbit, the orbit members of a composite and the
target rows of the relation probe.

A transport moves one side only, so every code of an orbit of the other,
fixed side keeps one row along a whole chain of transports: the rows are
carried under the same labels, with the orbit count in place of the
fixed side's size, and the result keeps the fixed side's collapse.  A
plain correspondence, given by its pairs, is its own quotient under the
identity labelling (its pairs are its rows), so every transport takes
one code path.  Pairs are expanded from rows on first read, which the
tests, the golden digests and the benchmark's tracer do and a
criterion-1 pass never does: the 252 transports it computes carry 41,710
row codes, against 605,832 pair codes.

A LieRInstance carries each distinct probe across each step once.
Every probe it hands out and every transport result is interned by
content (source, target and pairs), so equal correspondences are one
object, and transport_probe memoizes on (probe, target sequence,
position, direction, side), keying the probe by identity; it refuses a
probe whose moving side is not the sequence it leaves.  Identity
keys are sound because a correspondence is a frozen value whose
interned codes are read-only, and the memo holds every key probe alive,
so no id is reused while its entry stands.  Only a miss interns: a
criterion-1 pass computes 252 of its 1944 transports.  A probe keeps its
rows on both sides, so a probe carried around a loop on either side
comes back, compared row for row, as the very object probes() handed
out.  The instance's one collapse memo serves composition and probes
alike, so a pass acts on and collapses each of its 54 composed pairs
once.  Sequences are coded by content: the first object of a content is
its canonical one, pinned and found by identity, and the loop walk in
catalog holds only canonical sequences, so it can key each sequence's
neighbors by identity, and a second pass pins nothing.

The bookkeeping around the codes makes no copy it can avoid.
Interning files a correspondence under its sequences' codes and its
pair count, which rows give without expanding; within the bucket, two
correspondences whose rows collapse one side by one collapse compare
their rows, any others their pairs.  Codes split by one floor division
(_divmod), which numpy runs several times faster than np.divmod on
int64.  A transport whose row space (the fixed side's labels by the
moving side's codes) has at most 8 slots per code it produces dedupes
and sorts the codes by marking a bool mask over that space, which is
then no bigger than the codes; only sparse codes are sorted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from cobord2.diagram import BoundaryMismatch, Instance, SeqMorphism, seq_from_items


class NotComposable(ValueError):
    pass


class TableError(ValueError):
    """Group or action tables violating the defining laws."""


# --- groups -------------------------------------------------------------------


def _row_blocks(rows: int, per_row: int):
    """Slices of range(rows) whose law checks, per_row elements a row,
    hold about a million elements, so a large table is checked in
    bounded memory."""
    step = max(1, (1 << 20) // max(1, per_row))
    return [slice(i, i + step) for i in range(0, rows, step)]


def _int_table(rows, shape: tuple, bound: int) -> Optional[np.ndarray]:
    """rows (nested ints or an integer array) as a fresh read-only
    C-contiguous int64 array of the given shape with every entry in
    range(bound), or None when they do not form one.  Every entry must
    be an integer: a float (even 1.0), a bool or a string forms no table
    rather than being truncated.  No rows at all form every shape with
    no rows."""
    if len(rows) == 0 == shape[0]:
        table = np.zeros(shape, dtype=np.int64)
    else:
        try:
            given = np.asarray(rows)
        except (ValueError, OverflowError, TypeError):
            return None
        if given.shape != shape or (given.size and given.dtype.kind not in "iu"):
            return None
        # asarray reads a bool among ints as an int
        if not isinstance(rows, np.ndarray) and any(
                isinstance(v, (bool, np.bool_)) for row in rows for v in row):
            return None
        table = given.astype(np.int64, order="C")
        if table.size and not 0 <= table.min() <= table.max() < bound:
            return None
    table.flags.writeable = False
    return table


class _ByKey:
    """Equality and hash by the content tuple _key, hashed once."""

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)


@dataclass(frozen=True, eq=False)
class FiniteGroup(_ByKey):
    """A finite group on range(order).  mult, given as nested ints or an
    array, is held as a read-only int64 array indexed [g, h]; equality
    and hash are those of the name and the table.

    Every group is checked on construction, in this order: the table is
    n x n with integer entries in range(n), some element is a two-sided
    identity, every element has an inverse, and the table is
    associative.  Associativity is checked by Light's test on the
    generators of generators(): (x s) y = x (s y) for every generator s
    and all x, y, which takes n**2 work per generator rather than n**3
    for every triple.  It proves (x a) y = x (a y) for every a: the set A
    of elements a with that law holds the identity and the generators,
    and if a and b are in A then so is ab, since (x(ab))y = ((xa)b)y =
    (xa)(by) = x(a(by)) = x((ab)y), using a at (x, b), then b at (xa, y),
    then a at (x, by), then b at (a, y).  The greedy closure of
    generators() reaches every element as a left-bracketed product h s
    of a reached h and a generator s, starting from the identity (which
    is why the identity is checked first), so A holds every element."""
    name: str
    mult: np.ndarray

    def __post_init__(self):
        n = len(self.mult)
        table = _int_table(self.mult, (n, n), n)
        if table is None:
            raise TableError("%s: malformed multiplication table" % self.name)
        object.__setattr__(self, "mult", table)
        ident = np.flatnonzero(
            (table == np.arange(n)).all(axis=1) & (table == np.arange(n)[:, None]).all(axis=0)
        )
        if not ident.size:
            raise TableError("%s: no identity element" % self.name)
        no_inverse = np.flatnonzero(~(table == ident[0]).any(axis=1))
        if no_inverse.size:
            raise TableError("%s: element %d has no inverse" % (self.name, no_inverse[0]))
        for s in self.generators():
            # (xs)y against x(sy), indexed [x, y]
            by_s, s_by = table[:, s], table[s]
            if any((table[by_s[x]] != table[x][:, s_by]).any() for x in _row_blocks(n, n)):
                raise TableError("%s: not associative" % self.name)

    @cached_property
    def _key(self) -> tuple:
        return (self.name, self.mult.tobytes())

    @property
    def order(self) -> int:
        return len(self.mult)

    @cached_property
    def identity(self) -> int:
        return int(np.flatnonzero((self.mult == np.arange(self.order)).all(axis=1))[0])

    @cached_property
    def inverses(self) -> np.ndarray:
        """inverses[g] is g^-1, as a read-only int64 array."""
        # each row holds the identity exactly once
        out = np.argmax(self.mult == self.identity, axis=1)
        out.flags.writeable = False
        return out

    def inverse(self, g: int) -> int:
        return int(self.inverses[g])

    @cached_property
    def _generators(self) -> tuple:
        # the closure reads only products x h with h a generator, so it
        # holds the generators' columns, not a copy of the whole table
        columns: list = []
        gens: list = []
        reached = {self.identity}
        for g in range(self.order):
            if g not in reached:
                gens.append(g)
                columns.append(self.mult[:, g].tolist())
                # the subgroup gens generate, breadth first from the identity
                frontier = [self.identity]
                while frontier:
                    frontier = list({col[x] for x in frontier for col in columns} - reached)
                    reached.update(frontier)
                if len(reached) == self.order:
                    break
        return tuple(gens)

    def generators(self) -> tuple:
        """Small generating set, greedy closure; cached."""
        return self._generators


def cyclic(n: int, name: Optional[str] = None) -> FiniteGroup:
    # no elements for n <= 0, a table that then has no identity
    i = np.arange(n)
    return FiniteGroup(name or "Z%d" % n, (i[:, None] + i) % n)


TRIVIAL = cyclic(1, "1")


def symmetric3(name: str = "S3") -> FiniteGroup:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mult = tuple(
        tuple(index[tuple(p[q[x]] for x in range(3))] for q in perms) for p in perms
    )
    return FiniteGroup(name, mult)


def quaternion8(name: str = "Q8") -> FiniteGroup:
    # 0..7 = 1, -1, i, -i, j, -j, k, -k encoded as integer quaternions
    reps = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    index = {r: i for i, r in enumerate(reps)}

    def mul(p, q):
        pw, px, py, pz = p
        qw, qx, qy, qz = q
        return (
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        )

    mult = tuple(tuple(index[mul(p, q)] for q in reps) for p in reps)
    return FiniteGroup(name, mult)


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with (a, b) coded a * |H| + b."""
    nh = h.order
    n = g.order * nh
    # indexed [a, b, a', b'] for the product of (a, b) and (a', b')
    mult = g.mult[:, None, :, None] * nh + h.mult[None, :, None, :]
    return FiniteGroup("%sx%s" % (g.name, h.name), mult.reshape(n, n))


# --- bisets -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteBiset(_ByKey):
    """A set range(size) with commuting actions.  left, indexed [g, x],
    and right, indexed [x, g'], are given as nested ints or arrays and
    held as read-only int64 arrays; equality and hash are those of the
    name, both groups and both tables.

    The constructor is the law boundary: it checks every table that
    comes from outside (the catalog builders, .cat parsing, tests),
    shape and integer entries first, then the laws on generators (see
    __post_init__).  The bisets this module derives from checked ones,
    composites (try_compose_bisets) and adjoints (adjoint), are lawful
    by construction, each with its proof in its docstring, and are built
    by _derived, which runs no check."""
    name: str
    left_group: FiniteGroup
    right_group: FiniteGroup
    left: np.ndarray   # left[g, x]
    right: np.ndarray  # right[x, g']

    def __post_init__(self):
        """Check the biset laws, each on generators only: with S and T
        generating G and H, (s h).x = s.(h.x) for s in S and all h,
        x.(h t) = (x.h).t for t in T and all h, and (s.x).t = s.(x.t)
        for s in S and t in T.  G and H are already-checked groups, so
        this proves each law for all elements.  By induction on the
        length of a word g = s_1 .. s_r in S (a finite group needs no
        inverses): the identity acts trivially, and if (g'h).x =
        g'.(h.x) for all h, then (s g' h).x = s.((g'h).x) = s.(g'.(h.x))
        = (s g').(h.x), the last step the generator law at h = g'.  The
        right action follows the same way from the right, and then every
        g acts as a composite of generators s, every h as one of
        generators t, and these commute pairwise."""
        G, H = self.left_group, self.right_group
        m = len(self.right)
        left = _int_table(self.left, (G.order, m), m)
        if left is None:
            raise TableError("%s: malformed left action" % self.name)
        right = _int_table(self.right, (m, H.order), m)
        if right is None:
            raise TableError("%s: malformed right action" % self.name)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        gm, hm = G.mult, H.mult
        S, T = list(G.generators()), list(H.generators())
        if (left[G.identity] != np.arange(m)).any() or (right[:, H.identity] != np.arange(m)).any():
            raise TableError("%s: identities act nontrivially" % self.name)
        # (sh).x against s.(h.x), indexed [s, h, x]
        if any((left[gm[S[b]]] != left[S[b]][:, left]).any()
               for b in _row_blocks(len(S), G.order * m)):
            raise TableError("%s: left action not associative" % self.name)
        # x.(ht) against (x.h).t, indexed [x, h, t]
        if any((right[x][:, hm[:, T]] != right[:, T][right[x]]).any()
               for x in _row_blocks(m, H.order * len(T))):
            raise TableError("%s: right action not associative" % self.name)
        # (s.x).t against s.(x.t), indexed [s, x, t]
        if any((right[:, T][left[S[b]]] != left[S[b]][:, right[:, T]]).any()
               for b in _row_blocks(len(S), m * len(T))):
            raise TableError("%s: actions do not commute" % self.name)

    @classmethod
    def _derived(cls, name: str, left_group: FiniteGroup, right_group: FiniteGroup,
                 left: np.ndarray, right: np.ndarray) -> "FiniteBiset":
        """The biset with these fields, built without the law checks, for
        int64 tables this module derived from lawful bisets and holds no
        other reference to.  The tables end as _int_table leaves checked
        ones, so the result equals, and hashes as, the biset the public
        constructor builds from the same tables."""
        out = object.__new__(cls)
        object.__setattr__(out, "name", name)
        object.__setattr__(out, "left_group", left_group)
        object.__setattr__(out, "right_group", right_group)
        for field, table in (("left", left), ("right", right)):
            # taken over, not copied, when already C-contiguous int64
            table = np.ascontiguousarray(table, dtype=np.int64)
            table.flags.writeable = False
            object.__setattr__(out, field, table)
        return out

    @cached_property
    def _key(self) -> tuple:
        return (self.name, self.left_group, self.right_group,
                self.left.tobytes(), self.right.tobytes())

    @property
    def size(self) -> int:
        return len(self.right)

    def adjoint(self) -> "FiniteBiset":
        """The (H, G)-biset on the same set: h.x = x.h^-1, x.g = g^-1.x.

        It is lawful because this biset is: e^-1 = e acts trivially,
        (hk).x = x.(k^-1 h^-1) = (x.k^-1).h^-1 = h.(k.x), the right
        action likewise, and h.(x.g) = (g^-1.x).h^-1 = g^-1.(x.h^-1) =
        (h.x).g.  So it is built without re-checking."""
        G, H = self.left_group, self.right_group
        left = self.right[:, H.inverses].T
        right = self.left[G.inverses].T
        return FiniteBiset._derived("%s^T" % self.name, H, G, left, right)


def identity_biset(g: FiniteGroup) -> FiniteBiset:
    return FiniteBiset("id_%s" % g.name, g, g, g.mult, g.mult)


def biregular_biset(g: FiniteGroup) -> FiniteBiset:
    """G x G with left multiplication on the first factor and right on
    the second; composing two of these is a free quotient of size |G|^3."""
    n = g.order
    a, b = _divmod(np.arange(n * n), n)  # the carrier point x = (a, b)
    left = g.mult[:, a] * n + b
    right = (a * n)[:, None] + g.mult[b]
    return FiniteBiset("reg_%s" % g.name, g, g, left, right)


def pants_biset(g: FiniteGroup, square: Optional[FiniteGroup] = None) -> FiniteBiset:
    """The product 1-morphism (G x G) -> G: carrier G x G, actions
    (g0,g1).(a,b) = (g0 a, g1 b) and (a,b).g2 = (a g2, b g2)."""
    gg = square or product_group(g, g)
    n = g.order
    a, b = _divmod(np.arange(n * n), n)  # the carrier point (a, b), and (g0, g1)
    left = g.mult[a][:, a] * n + g.mult[b][:, b]
    right = g.mult[a] * n + g.mult[b]
    return FiniteBiset("pants_%s" % g.name, gg, g, left, right)


def copants_biset(g: FiniteGroup, square: Optional[FiniteGroup] = None) -> FiniteBiset:
    """The coproduct 1-morphism G -> (G x G): carrier G x G, actions
    g0.(a,b) = (g0 a, b) and (a,b).(g1,g2) = (a g2, g1^-1 b g2)."""
    gg = square or product_group(g, g)
    n = g.order
    a, b = _divmod(np.arange(n * n), n)  # the carrier point (a, b), and (g1, g2)
    left = g.mult[:, a] * n + b
    # indexed [(a, b), (g1, g2)]
    right = g.mult[a[:, None], b] * n + g.mult[g.mult[g.inverses[a], b[:, None]], b]
    return FiniteBiset("copants_%s" % g.name, g, gg, left, right)


def unit_biset(g: FiniteGroup) -> FiniteBiset:
    """The point as a (1, G)-biset."""
    return FiniteBiset("unit_%s" % g.name, TRIVIAL, g, np.zeros((1, 1), dtype=np.int64),
                       np.zeros((1, g.order), dtype=np.int64))


# --- integer codes ---------------------------------------------------------------


def _carrier_size(seq) -> int:
    """Number of product tuples of a sequence (1 for the empty one)."""
    return math.prod(item.size for item in seq)


def _suffix_sizes(seq) -> tuple:
    """The carrier sizes of seq[j:] for j = 0..len(seq): the whole
    sequence's first, 1 last.  sizes[j + 1] is the stride of item j's
    digit in a product code."""
    sizes = [1]
    for item in reversed(seq):
        sizes.append(sizes[-1] * item.size)
    return tuple(reversed(sizes))


def _divmod(codes: np.ndarray, n: int) -> tuple:
    """(codes // n, codes % n) by one floor division and one multiply,
    equal to np.divmod on int64 and several times faster than it."""
    q = codes // n
    return q, codes - q * n


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _contains(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Which of codes occur in the sorted array sorted_codes."""
    if not len(sorted_codes):
        return np.zeros(len(codes), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_codes, codes), len(sorted_codes) - 1)
    return sorted_codes[at] == codes


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges [start, start + count) laid end to end."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) - np.repeat(ends - counts - starts, counts)


# --- generator actions -----------------------------------------------------------


class _Actions(NamedTuple):
    """Generator permutations of one sequence over its product codes.

    size: the number of product tuples; mid: (x, y) -> (x.g^-1, g.y) on
    items j, j+1 for each generator g of the group between them (the
    anti-diagonal middle action); left: y -> g.y on the first item for
    each generator of its left group; right: x -> x.g^-1 on the last
    item for each generator of its right group."""
    size: int
    mid: tuple
    left: tuple
    right: tuple


def _actions(seq, sizes) -> _Actions:
    """The generator permutations of seq, given its _suffix_sizes."""
    size, strides = sizes[0], sizes[1:]
    if not seq:
        return _Actions(size, (), (), ())
    codes = np.arange(size, dtype=np.int64)
    digits = [codes // stride % item.size for stride, item in zip(strides, seq)]

    def shift(j, table):
        # code change from mapping digit j through table
        return (table[digits[j]] - digits[j]) * strides[j]

    def right_tables(item):
        grp = item.right_group
        return [item.right[:, grp.inverse(g)] for g in grp.generators()]

    mid = tuple(
        codes + shift(j, rtab) + shift(j + 1, seq[j + 1].left[g])
        for j in range(len(seq) - 1)
        for g, rtab in zip(seq[j].right_group.generators(), right_tables(seq[j]))
    )
    left = tuple(codes + shift(0, seq[0].left[g]) for g in seq[0].left_group.generators())
    right = tuple(codes + shift(len(seq) - 1, rtab) for rtab in right_tables(seq[-1]))
    return _Actions(size, mid, left, right)


# --- composition and collapse --------------------------------------------------


def try_compose_bisets(m: FiniteBiset, n: FiniteBiset, collapse=None):
    """Quotient of the anti-diagonal middle action when free.

    Returns (composite, orbit_of, orbit_members) or None: orbit_of maps
    each code x * n.size + y of M x N to its orbit, and row o of the
    (orbits, |G|) array orbit_members lists orbit o in increasing order.
    Orbits are labeled in increasing order of their minimal code, so the
    composite is canonical.  collapse, if given, maps the sequence
    (m, n) to its CollapsedSet, so a caller's memo of collapses serves
    here too; by default the collapse is computed.

    The composite is a lawful biset whenever m and n are, so it is built
    by FiniteBiset._derived, without the law checks.  Write g for an
    element of m's left group, k for one of n's right group, and [x, y]
    for the orbit of (x, y) under (x, y) -> (x.h^-1, h.y), h in the
    middle group:
    - g.[x, y] = [g.x, y] and [x, y].k = [x, y.k] are well defined,
      since g.(x.h^-1) = (g.x).h^-1 in m and (h.y).k = h.(y.k) in n,
      so each outer action maps a middle orbit into one middle orbit;
    - they inherit the identity and associativity laws from m's left
      action and n's right action, which they apply to one factor;
    - they commute, because they act on different factors:
      (g.[x, y]).k = [g.x, y.k] = g.([x, y].k).
    The tables below are these actions read off one member (x, y) of
    each orbit."""
    if m.right_group != n.left_group:
        raise NotComposable("middle groups differ")
    order = m.right_group.order
    collapsed = collapse((m, n)) if collapse else _collapse(_actions((m, n), _suffix_sizes((m, n))))
    # no orbit exceeds |G| points, and all have |G| exactly when the action is free
    if collapsed.count * order != m.size * n.size:
        return None
    orbit_of = collapsed.orbit_of
    members = collapsed.by_orbit.reshape(collapsed.count, order)
    x, y = _divmod(members[:, 0], n.size)
    left = orbit_of[m.left[:, x] * n.size + y]
    right = orbit_of[(x * n.size)[:, None] + n.right[y]]
    comp = FiniteBiset._derived("(%s*%s)" % (m.name, n.name), m.left_group, n.right_group,
                                left, right)
    return comp, orbit_of, members


@dataclass(frozen=True, eq=False)
class CollapsedSet:
    """Orbit set of a full product under all intermediate anti-diagonal
    actions; no freeness required.  The set-theoretic forcing of all
    compositions in a sequence."""
    orbit_of: np.ndarray  # product code -> orbit id
    count: int

    @cached_property
    def by_orbit(self) -> np.ndarray:
        """The codes orbit by orbit, each orbit in increasing order: the
        one stable sort that composition and the relation probe share,
        read-only."""
        out = np.argsort(self.orbit_of, kind="stable")
        out.flags.writeable = False
        return out

    @cached_property
    def sizes(self) -> np.ndarray:
        """The number of codes in each orbit."""
        return np.bincount(self.orbit_of, minlength=self.count)

    @cached_property
    def relation_rows(self) -> tuple:
        """(labels, target, source) for orbit_relation_corr: the orbit
        label of each code in by_orbit order, then the relation's codes
        with the target moving and with the source moving."""
        orbit_of, by_orbit = self.orbit_of, self.by_orbit
        labels = orbit_of[by_orbit]
        target = labels * len(orbit_of) + by_orbit
        source = np.arange(len(orbit_of), dtype=np.int64) * self.count + orbit_of
        return labels, target, source

    @cached_property
    def orbit_size(self) -> int:
        """The size of every orbit when all have one size, else 0."""
        sizes = self.sizes
        return int(sizes[0]) if self.count and sizes.min() == sizes.max() else 0


def _collapse(acts: _Actions) -> CollapsedSet:
    """Orbits of the middle actions."""
    return CollapsedSet(*_orbits(acts.size, acts.mid))


def _orbits(size: int, perms) -> tuple:
    """(orbit_of, count): the orbits of range(size) under the
    permutations perms, numbered in increasing order of their smallest
    element.  Each element carries the smallest element known in its
    orbit; taking the minimum over every permutation's image and then
    the label's own label repeats until nothing moves, which leaves the
    orbit minimum, since the permutations act on each orbit transitively."""
    low = np.arange(size, dtype=np.int64)
    while True:
        new = low
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, low):
            break
        low = new
    roots = low == np.arange(size)
    return (np.cumsum(roots) - 1)[low], int(roots.sum())


# --- correspondences ------------------------------------------------------------


class _Rows(NamedTuple):
    """A correspondence with one side, the fixed one, collapsed to orbit
    labels, for transport along the other, the moving one.  codes is a
    sorted, duplicate-free int64 array laid out as pair codes are, with
    the fixed side's code replaced by its orbit label under collapsed:
    label * width + t when the target moves, s * width + label when the
    source does, so width is the moving target's size or the label
    count.  A pair (s, t) lies in the correspondence exactly when its
    fixed code's label row holds its moving code.  collapsed is None for
    the identity labelling, under which codes are the pairs."""
    collapsed: Optional[CollapsedSet]
    width: int
    codes: np.ndarray


class Correspondence:
    """Invariant subset of (product of src carriers) x (product of tgt
    carriers); the simple 2-morphisms of this instance, treated as
    frozen values.  Compare two with LieRInstance.simple2_equal.

    pairs is the sorted, duplicate-free int64 array of codes
    s * |P_tgt| + t.  A correspondence is given either by its pairs or
    by rows, a dict from the moving side ("target" or "source") to the
    _Rows that side's transport carries; pairs is then expanded from
    them on first read."""

    def __init__(self, src: tuple, tgt: tuple, pairs: Optional[np.ndarray] = None,
                 rows: Optional[dict] = None):
        self.src = src
        self.tgt = tgt
        self.rows = rows or {}
        for held in self.rows.values():
            held.codes.flags.writeable = False
        if pairs is not None:
            self.__dict__["pairs"] = pairs

    @cached_property
    def pairs(self) -> np.ndarray:
        # the target side's rows expand in sorted order, the source side's
        # need a sort
        side = "target" if "target" in self.rows else "source"
        collapsed, width, codes = self.rows[side]
        orbit_of = collapsed.orbit_of
        high, low = _divmod(codes, width)
        if side == "target":
            counts = np.bincount(high, minlength=collapsed.count)
            per = counts[orbit_of]
            moving = low[_ranges((np.cumsum(counts) - counts)[orbit_of], per)]
            out = np.repeat(np.arange(len(orbit_of)) * width, per) + moving
        else:
            sizes = collapsed.sizes
            firsts = np.cumsum(sizes) - sizes
            members = collapsed.by_orbit[_ranges(firsts[low], sizes[low])]
            out = np.sort(np.repeat(high * len(orbit_of), sizes[low]) + members)
        out.flags.writeable = False
        return out

    def transpose(self) -> "Correspondence":
        s, t = _divmod(self.pairs, _carrier_size(self.tgt))
        return Correspondence(self.tgt, self.src, np.sort(t * _carrier_size(self.src) + s))


def _same_pairs(a: Correspondence, b: Correspondence) -> bool:
    """Whether a and b, on the same sequences, hold the same pairs: by
    their rows when both collapse one side by one collapse, since the
    expansion is one to one there, else by their pairs."""
    for side, rows in a.rows.items():
        other = b.rows.get(side)
        if other is not None and other.collapsed is rows.collapsed:
            return np.array_equal(rows.codes, other.codes)
    return np.array_equal(a.pairs, b.pairs)


def _pair_count(corr: Correspondence) -> int:
    """len(corr.pairs), from its rows if it has any."""
    if not corr.rows:
        return len(corr.pairs)
    side, (collapsed, width, codes) = next(iter(corr.rows.items()))
    if collapsed.orbit_size:
        # each code stands for one pair per code of its fixed-side orbit
        return collapsed.orbit_size * len(codes)
    labels = _divmod(codes, width)[0 if side == "target" else 1]
    return int(collapsed.sizes[labels].sum())


def diagonal_corr(seq) -> Correspondence:
    seq = tuple(seq)
    n = _carrier_size(seq)
    return Correspondence(seq, seq, np.arange(n, dtype=np.int64) * (n + 1))


def orbit_relation_corr(seq, collapsed: CollapsedSet, keep=None) -> Correspondence:
    """Pairs lying in the same orbit of the intermediate actions, given
    their collapse: the largest 2-morphism acting as a vertical
    identity.  keep, a bool per orbit label, leaves out the orbits it
    does not mark.  The result is held as rows on both sides, each orbit
    labelled by its orbit id o: the target side's codes are o * |P| + t
    for t in o, in by_orbit order, and the source side's s * count + o
    for s in o, in code order."""
    labels, target, source = collapsed.relation_rows
    if keep is not None:
        target, source = target[keep[labels]], source[keep[collapsed.orbit_of]]
    seq = tuple(seq)
    return Correspondence(seq, seq, rows={
        "target": _Rows(collapsed, len(labels), target),
        "source": _Rows(collapsed, collapsed.count, source),
    })


def identification_corr(m: FiniteBiset, n: FiniteBiset) -> Correspondence:
    """Graph of the projection (M x N) -> M o N."""
    return _identification(m, n, try_compose_bisets(m, n))


def _identification(m: FiniteBiset, n: FiniteBiset, made) -> Correspondence:
    """identification_corr from made = try_compose_bisets(m, n)."""
    if made is None:
        raise NotComposable("%s, %s: middle action not free" % (m.name, n.name))
    comp, orbit_of, _ = made
    fine = np.arange(m.size * n.size, dtype=np.int64)
    return Correspondence((m, n), (comp,), fine * comp.size + orbit_of)


def try_compose_corrs(a: Correspondence, b: Correspondence):
    """Fiber product over the shared middle sequence, projected to the
    outer factors; defined only when that projection is injective."""
    if a.tgt != b.src:
        raise NotComposable("middle sequences differ")
    n_tgt = _carrier_size(b.tgt)
    a_src, a_mid = _divmod(a.pairs, _carrier_size(a.tgt))
    b_mid, b_tgt = _divmod(b.pairs, n_tgt)
    lo = np.searchsorted(b_mid, a_mid, side="left")
    counts = np.searchsorted(b_mid, a_mid, side="right") - lo
    outer = np.sort(np.repeat(a_src, counts) * n_tgt + b_tgt[_ranges(lo, counts)])
    # each (s, mid, t) occurs once, so a repeated (s, t) has two middles
    if (outer[1:] == outer[:-1]).any():
        return None
    return Correspondence(a.src, b.tgt, outer)


# --- the instance ----------------------------------------------------------------


# the most aliases LieRInstance._entry keeps to find by identity
_ALIASES = 256


class LieRInstance(Instance):
    """Callback bundle for finite bisets; optionally holds a catalog of
    bisets used to enumerate decompositions exhaustively."""

    def __init__(self, catalog=()):
        self.catalog = tuple(catalog)
        self._compose_memo: dict = {}
        self._actions_memo: dict = {}
        self._collapse_memo: dict = {}
        self._probe_memo: dict = {}
        self._maps_memo: dict = {}
        self._transport_memo: dict = {}
        self._interned: dict = {}
        self._codes: dict = {}
        self._codes_by_id: dict = {}
        self._aliases: dict = {}
        self._sizes: dict = {}

    # -- 1-morphisms

    def ends1(self, item):
        return (item.left_group, item.right_group)

    def _entry(self, obj) -> tuple:
        """(canonical, code) for the content of obj (a biset, or a tuple
        of them): canonical is the first object of that content this
        instance was asked about, and code a small int, the same for
        equal objects.  Only the canonical object is pinned and found by
        identity from then on, so the entries grow with the distinct
        contents, not with the objects asked about, and a memo keyed by
        codes hashes no biset on a hit.  An equal object that is not the
        canonical one, an alias, is hashed to find its entry, and found
        by identity after that while it stays in a cache of at most
        _ALIASES aliases, emptied when full.  Every entry holds its
        object, so an id stays its own while its entry stands."""
        entry = self._codes_by_id.get(id(obj))
        if entry is None:
            alias = self._aliases.get(id(obj))
            if alias is not None:
                return alias[1]
            entry = self._codes.get(obj)
            if entry is None:
                entry = self._codes[obj] = (obj, len(self._codes))
                self._codes_by_id[id(obj)] = entry
            else:
                if len(self._aliases) >= _ALIASES:
                    self._aliases.clear()
                self._aliases[id(obj)] = (obj, entry)
        return entry

    def _code(self, obj) -> int:
        return (self._codes_by_id.get(id(obj)) or self._entry(obj))[1]

    def canonical(self, obj):
        """The one object of this instance with obj's content (see
        _entry); a walk that holds canonical sequences codes them by
        identity.  obj itself is not kept as an alias."""
        return (self._codes_by_id.get(id(obj)) or self._codes.get(obj) or self._entry(obj))[0]

    def _compose_full(self, a, b):
        key = (self._code(a), self._code(b))
        if key not in self._compose_memo:
            self._compose_memo[key] = try_compose_bisets(a, b, self.collapse)
        return self._compose_memo[key]

    def try_compose1(self, a, b):
        made = self._compose_full(a, b)
        return None if made is None else made[0]

    @cached_property
    def _decompositions(self) -> dict:
        """Composite (by its code) -> the catalog pairs (a, b) composing
        to it, in catalog order; built on first use."""
        out: dict = {}
        for a in self.catalog:
            for b in self.catalog:
                if a.right_group == b.left_group:
                    made = self.try_compose1(a, b)
                    if made is not None:
                        out.setdefault(self._code(made), []).append((a, b))
        return out

    def enumerate_decompositions(self, item):
        return self._decompositions.get(self._code(item), [])

    # -- 2-morphisms

    def identification2(self, a, b):
        return _identification(a, b, self._compose_full(a, b))

    def try_compose2_vertical(self, a, b):
        return try_compose_corrs(a, b)

    def simple2_equal(self, a, b) -> bool:
        if a is b:
            return True
        return a.src == b.src and a.tgt == b.tgt and _same_pairs(a, b)

    def is_identity2(self, morph):
        if morph.src != morph.tgt:
            return False
        if not _contains(morph.pairs, diagonal_corr(morph.src).pairs).all():
            return False
        orbit_of = self.collapse(morph.src).orbit_of
        s, t = _divmod(morph.pairs, len(orbit_of))
        return bool((orbit_of[s] == orbit_of[t]).all())

    # -- oracle machinery

    def _sizes_of(self, items) -> tuple:
        """_suffix_sizes(items), computed once per distinct sequence."""
        key = self._code(items)
        sizes = self._sizes.get(key)
        if sizes is None:
            sizes = self._sizes[key] = _suffix_sizes(items)
        return sizes

    def _size(self, items) -> int:
        return self._sizes_of(items)[0]

    def _actions_of(self, items) -> _Actions:
        key = self._code(items)
        if key not in self._actions_memo:
            self._actions_memo[key] = _actions(items, self._sizes_of(items))
        return self._actions_memo[key]

    def collapse(self, seq) -> CollapsedSet:
        seq = tuple(seq)
        key = self._code(seq)
        if key not in self._collapse_memo:
            self._collapse_memo[key] = _collapse(self._actions_of(seq))
        return self._collapse_memo[key]

    def probes(self, seq: SeqMorphism):
        items = seq.items
        key = self._code(items)
        if key not in self._probe_memo:
            n = self._size(items)
            # the first and the middle product tuple in sorted order
            made = self._probe_set(items, (0, n // 2) if n else ())
            self._probe_memo[key] = [(name, self._intern(probe)) for name, probe
                                     in zip(("relation", "orbit-first", "orbit-mid"), made)]
        return self._probe_memo[key]

    def _probe_set(self, items, starts) -> list:
        """The relation probe of items, then the orbit probe of each
        start, the orbit of the pair (start, start) of product codes
        under every declared action: a middle action on either code, or
        an outer one on both at once.  That is the relation's rows of
        the orbits in the class of start's orbit under the outer
        generators, which commute with the middle ones and so permute
        their orbits.  Each acts on an orbit label through one code of
        the orbit, so the orbits are classed once, over their labels."""
        acts = self._actions_of(items)
        collapsed = self.collapse(items)
        orbit_of = collapsed.orbit_of
        rep = np.empty(collapsed.count, dtype=np.int64)
        rep[orbit_of] = np.arange(acts.size)
        outer = [orbit_of[perm[rep]] for perm in acts.left + acts.right]
        cls = _orbits(collapsed.count, outer)[0]
        return [orbit_relation_corr(items, collapsed)] + [
            orbit_relation_corr(items, collapsed, cls == cls[orbit_of[start]]) for start in starts]

    def _transport_maps(self, fine, pos) -> tuple:
        """(push, pull) across the composition of fine[pos], fine[pos + 1]:
        push[f] is the coarse code of fine code f, and row c of pull
        lists in increasing order the |G| fine codes pushed to c (the
        middle action is free, so every orbit has that size)."""
        key = (self._code(fine), pos)
        if key not in self._maps_memo:
            made = self._compose_full(fine[pos], fine[pos + 1])
            assert made is not None
            _, orbit_of, members = made
            pair = fine[pos].size * fine[pos + 1].size
            sizes = self._sizes_of(fine)
            low = sizes[pos + 2]
            high, rest = _divmod(np.arange(sizes[0], dtype=np.int64), pair * low)
            mid, rest = _divmod(rest, low)
            push = (high * len(members) + orbit_of[mid]) * low + rest
            coarse = np.arange(len(push) // members.shape[1], dtype=np.int64)
            high, rest = _divmod(coarse, len(members) * low)
            orbit, rest = _divmod(rest, low)
            pull = ((high * pair)[:, None] + members[orbit]) * low + rest[:, None]
            self._maps_memo[key] = (push, pull)
        return self._maps_memo[key]

    def _intern(self, corr: Correspondence) -> Correspondence:
        """The one correspondence of this instance with corr's content:
        the first one interned, or corr itself.  Its pairs turn
        read-only, since every holder now shares them (rows are read-only
        from the start), and the one kept takes on the rows of any side
        it lacked, so content that arrives as pairs and as rows is
        carried by rows.

        A bucket is keyed by the codes of both sequences and the pair
        count, which rows give without expanding, and _same_pairs
        decides equality within it: by rows when both collapse one side
        by one collapse, else by pairs.  So two contents with one key
        cost a comparison and never merge."""
        key = (self._code(corr.src), self._code(corr.tgt), _pair_count(corr))
        bucket = self._interned.setdefault(key, [])
        for known in bucket:
            if _same_pairs(known, corr):
                for side, rows in corr.rows.items():
                    known.rows.setdefault(side, rows)
                return known
        if not corr.rows:
            corr.pairs.flags.writeable = False
        bucket.append(corr)
        return corr

    def transport_probe(self, probe, seq_from, seq_to, pos, compose, side):
        """Set-level push across a composition (image under the orbit
        projection) or pull across a decomposition (preimage); always
        defined, unlike the geometric try_compose_corrs.

        Each (probe, step, side) is carried once per instance: the memo
        keys the probe by identity and holds it, and the result is
        interned, so equal probes reached along different loops are one
        object and hit the memo.  The probe's moving side must be
        seq_from, which the probe and side then fix, so the key holds
        only seq_to, as its code."""
        if (probe.tgt if side == "target" else probe.src) != seq_from.items:
            raise BoundaryMismatch("the probe's %s is not the sequence it leaves" % side)
        key = (probe, self._code(seq_to.items), pos, compose, side)
        if key not in self._transport_memo:
            self._transport_memo[key] = self._intern(
                self._transport(probe, seq_from, seq_to, pos, compose, side))
        return self._transport_memo[key]

    def _rows(self, corr: Correspondence, side: str) -> _Rows:
        """The rows corr is carried by along side: its own, or its pairs
        under the identity labelling."""
        rows = corr.rows.get(side)
        if rows is None:
            rows = _Rows(None, self._size(corr.tgt), corr.pairs)
        return rows

    def _transport(self, probe, seq_from, seq_to, pos, compose, side):
        """The uncached body of transport_probe: the probe's rows along
        side, each moving code pushed or pulled, under the same labels of
        the fixed side."""
        push, pull = self._transport_maps(seq_from.items if compose else seq_to.items, pos)
        collapsed, width, codes = self._rows(probe, side)
        s, t = _divmod(codes, width)
        n_to = self._size(seq_to.items)
        if side == "target":
            if compose:
                codes = s * n_to + push[t]
            else:
                codes = (s * n_to)[:, None] + pull[t]
            labels = self._size(probe.src) if collapsed is None else collapsed.count
            space, width = labels * n_to, n_to
            src, tgt = probe.src, seq_to.items
        else:
            if compose:
                codes = push[s] * width + t
            else:
                codes = pull[s] * width + t[:, None]
            space = n_to * width
            src, tgt = seq_to.items, probe.tgt
        if space <= 8 * codes.size:
            # a mask over every pair code is no bigger than the codes
            mask = np.zeros(space, dtype=bool)
            mask[codes.ravel()] = True
            codes = np.flatnonzero(mask)
        elif compose:
            # pushed images can coincide
            codes = _sorted_unique(codes)
        else:
            # pulled images are distinct
            codes = np.sort(codes, axis=None)
        if collapsed is None:
            return Correspondence(src, tgt, codes)
        return Correspondence(src, tgt, rows={side: _Rows(collapsed, width, codes)})

    def seq(self, items, source=None) -> SeqMorphism:
        return seq_from_items(self, items, source=source)

