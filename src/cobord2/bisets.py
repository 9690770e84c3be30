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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from cobord2.diagram import Instance, SeqMorphism, seq_from_items


class NotComposable(ValueError):
    pass


class TableError(ValueError):
    """Group or action tables violating the defining laws."""


# --- groups -------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    mult: tuple  # mult[g][h], row-major indices

    def __post_init__(self):
        n = len(self.mult)
        for row in self.mult:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise TableError("%s: malformed multiplication table" % self.name)
        ident = None
        for e in range(n):
            if all(self.mult[e][g] == g and self.mult[g][e] == g for g in range(n)):
                ident = e
                break
        if ident is None:
            raise TableError("%s: no identity element" % self.name)
        for g in range(n):
            if not any(self.mult[g][h] == ident for h in range(n)):
                raise TableError("%s: element %d has no inverse" % (self.name, g))
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    if self.mult[self.mult[g][h]][k] != self.mult[g][self.mult[h][k]]:
                        raise TableError("%s: not associative" % self.name)

    @property
    def order(self) -> int:
        return len(self.mult)

    @cached_property
    def identity(self) -> int:
        for e in range(self.order):
            if all(self.mult[e][g] == g for g in range(self.order)):
                return e
        raise AssertionError

    @cached_property
    def inverses(self) -> tuple:
        e = self.identity
        out = []
        for g in range(self.order):
            out.append(next(h for h in range(self.order) if self.mult[g][h] == e))
        return tuple(out)

    def inverse(self, g: int) -> int:
        return self.inverses[g]

    @cached_property
    def _generators(self) -> tuple:
        gens: list = []
        reached = {self.identity}
        for g in range(self.order):
            if g not in reached:
                gens.append(g)
                reached = _closure(self.identity, lambda x: (self.mult[x][h] for h in gens))
                if len(reached) == self.order:
                    break
        return tuple(gens)

    def generators(self) -> tuple:
        """Small generating set, greedy closure; cached."""
        return self._generators


def cyclic(n: int, name: Optional[str] = None) -> FiniteGroup:
    mult = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(name or "Z%d" % n, mult)


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


def opposite_group(g: FiniteGroup) -> FiniteGroup:
    mult = tuple(tuple(g.mult[b][a] for b in range(g.order)) for a in range(g.order))
    name = g.name[:-3] if g.name.endswith("^op") else g.name + "^op"
    return FiniteGroup(name, mult)


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    ng, nh = g.order, h.order
    mult = tuple(
        tuple(
            g.mult[a // nh][b // nh] * nh + h.mult[a % nh][b % nh]
            for b in range(ng * nh)
        )
        for a in range(ng * nh)
    )
    return FiniteGroup("%sx%s" % (g.name, h.name), mult)


# --- bisets -------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteBiset:
    name: str
    left_group: FiniteGroup
    right_group: FiniteGroup
    left: tuple   # left[g][x]
    right: tuple  # right[x][g']

    def __post_init__(self):
        G, H = self.left_group, self.right_group
        m = self.size
        if len(self.left) != G.order or any(len(r) != m for r in self.left):
            raise TableError("%s: malformed left action" % self.name)
        if len(self.right) != m or any(len(r) != H.order for r in self.right):
            raise TableError("%s: malformed right action" % self.name)
        for x in range(m):
            if self.left[G.identity][x] != x or self.right[x][H.identity] != x:
                raise TableError("%s: identities act nontrivially" % self.name)
        for g in range(G.order):
            for h in range(G.order):
                for x in range(m):
                    if self.left[G.mult[g][h]][x] != self.left[g][self.left[h][x]]:
                        raise TableError("%s: left action not associative" % self.name)
        for g in range(H.order):
            for h in range(H.order):
                for x in range(m):
                    if self.right[x][H.mult[g][h]] != self.right[self.right[x][g]][h]:
                        raise TableError("%s: right action not associative" % self.name)
        for g in range(G.order):
            for h in range(H.order):
                for x in range(m):
                    if self.right[self.left[g][x]][h] != self.left[g][self.right[x][h]]:
                        raise TableError("%s: actions do not commute" % self.name)

    @property
    def size(self) -> int:
        return len(self.right)

    def adjoint(self) -> "FiniteBiset":
        G, H = self.left_group, self.right_group
        m = self.size
        left = tuple(tuple(self.right[x][H.inverse(h)] for x in range(m)) for h in range(H.order))
        right = tuple(tuple(self.left[G.inverse(g)][x] for g in range(G.order)) for x in range(m))
        return FiniteBiset("%s^T" % self.name, H, G, left, right)

    def opposite(self) -> "FiniteBiset":
        g_op = opposite_group(self.left_group)
        h_op = opposite_group(self.right_group)
        m = self.size
        left = tuple(
            tuple(self.left[self.left_group.inverse(g)][x] for x in range(m))
            for g in range(g_op.order)
        )
        right = tuple(
            tuple(self.right[x][self.right_group.inverse(h)] for h in range(h_op.order))
            for x in range(m)
        )
        return FiniteBiset("%s^op" % self.name, g_op, h_op, left, right)


def identity_biset(g: FiniteGroup) -> FiniteBiset:
    left = tuple(tuple(g.mult[a][x] for x in range(g.order)) for a in range(g.order))
    right = tuple(tuple(g.mult[x][a] for a in range(g.order)) for x in range(g.order))
    return FiniteBiset("id_%s" % g.name, g, g, left, right)


def biregular_biset(g: FiniteGroup) -> FiniteBiset:
    """G x G with left multiplication on the first factor and right on
    the second; composing two of these is a free quotient of size |G|^3."""
    n = g.order
    m = n * n
    left = tuple(
        tuple(g.mult[a][x // n] * n + x % n for x in range(m)) for a in range(n)
    )
    right = tuple(tuple(x // n * n + g.mult[x % n][a] for a in range(n)) for x in range(m))
    return FiniteBiset("reg_%s" % g.name, g, g, left, right)


def pants_biset(g: FiniteGroup, square: Optional[FiniteGroup] = None) -> FiniteBiset:
    """The product 1-morphism (G x G) -> G: carrier G x G, actions
    (g0,g1).(a,b) = (g0 a, g1 b) and (a,b).g2 = (a g2, b g2)."""
    gg = square or product_group(g, g)
    n = g.order
    m = n * n
    left = tuple(
        tuple(g.mult[p // n][x // n] * n + g.mult[p % n][x % n] for x in range(m))
        for p in range(n * n)
    )
    right = tuple(
        tuple(g.mult[x // n][a] * n + g.mult[x % n][a] for a in range(n)) for x in range(m)
    )
    return FiniteBiset("pants_%s" % g.name, gg, g, left, right)


def copants_biset(g: FiniteGroup, square: Optional[FiniteGroup] = None) -> FiniteBiset:
    """The coproduct 1-morphism G -> (G x G): carrier G x G, actions
    g0.(a,b) = (g0 a, b) and (a,b).(g1,g2) = (a g2, g1^-1 b g2)."""
    gg = square or product_group(g, g)
    n = g.order
    m = n * n
    left = tuple(tuple(g.mult[a][x // n] * n + x % n for x in range(m)) for a in range(n))
    right = tuple(
        tuple(
            g.mult[x // n][p % n] * n + g.mult[g.mult[g.inverse(p // n)][x % n]][p % n]
            for p in range(n * n)
        )
        for x in range(m)
    )
    return FiniteBiset("copants_%s" % g.name, g, gg, left, right)


def unit_biset(g: FiniteGroup) -> FiniteBiset:
    """The point as a (1, G)-biset."""
    left = ((0,),)
    right = ((0,) * g.order,)
    return FiniteBiset("unit_%s" % g.name, TRIVIAL, g, left, right)


# --- generator actions -----------------------------------------------------------


class _Actions(NamedTuple):
    """Generator tables of one sequence, each a map on carrier indices.

    mid: (j, x -> x.g^-1 on item j, y -> g.y on item j+1) for each
    generator g of the group between items j and j+1 (the anti-diagonal
    middle action); left: y -> g.y on the first item for each generator
    of its left group; right: x -> x.g^-1 on the last item for each
    generator of its right group."""
    mid: tuple
    left: tuple
    right: tuple


_NO_ACTIONS = _Actions((), (), ())


def _actions(seq) -> _Actions:
    if not seq:
        return _NO_ACTIONS

    def right_maps(item):
        grp = item.right_group
        return tuple(tuple(row[grp.inverse(g)] for row in item.right) for g in grp.generators())

    mid = tuple(
        (j, rmap, seq[j + 1].left[g])
        for j in range(len(seq) - 1)
        for g, rmap in zip(seq[j].right_group.generators(), right_maps(seq[j]))
    )
    left = tuple(seq[0].left[g] for g in seq[0].left_group.generators())
    return _Actions(mid, left, right_maps(seq[-1]))


def _moves(pair, src: _Actions, tgt: _Actions):
    """The images of a pair (s, t) of product tuples under one generator
    each: a middle action on one side, or an outer action on both sides
    at once (outer actions apply only when both sides are nonempty)."""
    s, t = pair
    for j, rmap, lmap in src.mid:
        yield s[:j] + (rmap[s[j]], lmap[s[j + 1]]) + s[j + 2:], t
    for j, rmap, lmap in tgt.mid:
        yield s, t[:j] + (rmap[t[j]], lmap[t[j + 1]]) + t[j + 2:]
    if s and t:
        for smap, tmap in zip(src.left, tgt.left):
            yield (smap[s[0]],) + s[1:], (tmap[t[0]],) + t[1:]
        for smap, tmap in zip(src.right, tgt.right):
            yield s[:-1] + (smap[s[-1]],), t[:-1] + (tmap[t[-1]],)


def _closure(start, moves) -> set:
    """Everything reachable from start by repeated moves, breadth first."""
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for point in frontier:
            for moved in moves(point):
                if moved not in seen:
                    seen.add(moved)
                    new.append(moved)
        frontier = new
    return seen


# --- composition and collapse --------------------------------------------------


def try_compose_bisets(m: FiniteBiset, n: FiniteBiset):
    """Quotient of the anti-diagonal middle action when free.

    Returns (composite, orbit_of, orbit_members) or None; orbits are
    labeled in increasing order of their minimal linear index, so the
    composite is canonical."""
    if m.right_group != n.left_group:
        raise NotComposable("middle groups differ")
    G1 = m.right_group
    sz_n = n.size
    total = m.size * sz_n
    nontrivial = [g for g in range(G1.order) if g != G1.identity]
    for x in range(m.size):
        for y in range(sz_n):
            for g in nontrivial:
                if m.right[x][G1.inverse(g)] == x and n.left[g][y] == y:
                    return None
    orbit_of = [-1] * total
    members: list = []
    for idx in range(total):
        if orbit_of[idx] != -1:
            continue
        oid = len(members)
        x, y = divmod(idx, sz_n)
        orb = sorted(
            m.right[x][G1.inverse(g)] * sz_n + n.left[g][y] for g in range(G1.order)
        )
        for j in orb:
            orbit_of[j] = oid
        members.append(tuple(orb))
    r = len(members)
    G0, G2 = m.left_group, n.right_group
    left = tuple(
        tuple(
            orbit_of[m.left[g][members[o][0] // sz_n] * sz_n + members[o][0] % sz_n]
            for o in range(r)
        )
        for g in range(G0.order)
    )
    right = tuple(
        tuple(
            orbit_of[(members[o][0] // sz_n) * sz_n + n.right[members[o][0] % sz_n][g]]
            for g in range(G2.order)
        )
        for o in range(r)
    )
    comp = FiniteBiset("(%s*%s)" % (m.name, n.name), G0, G2, left, right)
    return comp, orbit_of, members


@dataclass(frozen=True)
class CollapsedSet:
    """Orbit set of a full product under all intermediate anti-diagonal
    actions; no freeness required.  The set-theoretic forcing of all
    compositions in a sequence."""
    orbit_of: dict  # product tuple -> orbit id
    count: int

    def orbit(self, tup) -> int:
        return self.orbit_of[tup]


def quotient_collapse(seq) -> CollapsedSet:
    seq = tuple(seq)
    acts = _actions(seq)
    orbit_of = {}
    count = 0
    for start in product_tuples(seq):
        if start not in orbit_of:
            # paired with an empty side, a tuple moves by the middle actions alone
            for tup, _ in _closure((start, ()), lambda pair: _moves(pair, acts, _NO_ACTIONS)):
                orbit_of[tup] = count
            count += 1
    return CollapsedSet(orbit_of, count)


# --- correspondences ------------------------------------------------------------


@dataclass(frozen=True)
class Correspondence:
    """Invariant subset of (product of src carriers) x (product of tgt
    carriers); the simple 2-morphisms of this instance."""
    src: tuple  # bisets
    tgt: tuple
    pairs: frozenset  # of (src index tuple, tgt index tuple)

    def transpose(self) -> "Correspondence":
        return Correspondence(self.tgt, self.src, frozenset((t, s) for s, t in self.pairs))


def check_invariance(corr: Correspondence) -> bool:
    src, tgt = _actions(corr.src), _actions(corr.tgt)
    pairs = corr.pairs
    return all(moved in pairs for pair in pairs for moved in _moves(pair, src, tgt))


def product_tuples(seq):
    return itertools.product(*[range(b.size) for b in seq])


def diagonal_corr(seq) -> Correspondence:
    seq = tuple(seq)
    return Correspondence(seq, seq, frozenset((t, t) for t in product_tuples(seq)))


def orbit_relation_corr(seq) -> Correspondence:
    """Pairs lying in the same orbit of the intermediate actions: the
    largest 2-morphism acting as a vertical identity."""
    seq = tuple(seq)
    collapsed = quotient_collapse(seq)
    buckets: dict = {}
    for tup, oid in collapsed.orbit_of.items():
        buckets.setdefault(oid, []).append(tup)
    pairs = set()
    for tups in buckets.values():
        for s in tups:
            for t in tups:
                pairs.add((s, t))
    return Correspondence(seq, seq, frozenset(pairs))


def identification_corr(m: FiniteBiset, n: FiniteBiset) -> Correspondence:
    """Graph of the projection (M x N) -> M o N."""
    made = try_compose_bisets(m, n)
    if made is None:
        raise NotComposable("%s, %s: middle action not free" % (m.name, n.name))
    comp, orbit_of, _ = made
    pairs = frozenset(
        ((x, y), (orbit_of[x * n.size + y],))
        for x in range(m.size)
        for y in range(n.size)
    )
    return Correspondence((m, n), (comp,), pairs)


def try_compose_corrs(a: Correspondence, b: Correspondence):
    """Fiber product over the shared middle sequence, projected to the
    outer factors; defined only when that projection is injective."""
    if a.tgt != b.src:
        raise NotComposable("middle sequences differ")
    by_mid: dict = {}
    for mid, t in b.pairs:
        by_mid.setdefault(mid, []).append(t)
    seen: dict = {}
    for s, mid in a.pairs:
        for t in by_mid.get(mid, ()):
            key = (s, t)
            if key in seen and seen[key] != mid:
                return None
            seen[key] = mid
    return Correspondence(a.src, b.tgt, frozenset(seen))


# --- the instance ----------------------------------------------------------------


class LieRInstance(Instance):
    """Callback bundle for finite bisets; optionally holds a catalog of
    bisets used to enumerate decompositions exhaustively."""

    def __init__(self, catalog=()):
        self.catalog = tuple(catalog)
        self._compose_memo: dict = {}
        self._collapse_memo: dict = {}
        self._probe_memo: dict = {}

    # -- 1-morphisms

    def ends1(self, item):
        return (item.left_group, item.right_group)

    def adjoint1(self, item):
        return item.adjoint()

    def opposite_object(self, obj):
        return opposite_group(obj)

    def opposite1(self, item):
        return item.opposite()

    def _compose_full(self, a, b):
        key = (a, b)
        if key not in self._compose_memo:
            self._compose_memo[key] = try_compose_bisets(a, b)
        return self._compose_memo[key]

    def try_compose1(self, a, b):
        made = self._compose_full(a, b)
        return None if made is None else made[0]

    def is_identity1(self, item):
        if item.left_group != item.right_group:
            return False
        return item == identity_biset(item.left_group)

    def enumerate_decompositions(self, item):
        out = []
        for a in self.catalog:
            for b in self.catalog:
                if a.right_group != b.left_group:
                    continue
                if self.try_compose1(a, b) == item:
                    out.append((a, b))
        return out

    # -- 2-morphisms

    def identification2(self, a, b):
        return identification_corr(a, b)

    def adjoint2(self, morph):
        return morph.transpose()

    def try_compose2_vertical(self, a, b):
        return try_compose_corrs(a, b)

    def is_identity2(self, morph):
        if morph.src != morph.tgt:
            return False
        diag = diagonal_corr(morph.src).pairs
        if not diag <= morph.pairs:
            return False
        return morph.pairs <= orbit_relation_corr(morph.src).pairs

    # -- oracle machinery

    def collapse(self, seq) -> CollapsedSet:
        key = tuple(seq)
        if key not in self._collapse_memo:
            self._collapse_memo[key] = quotient_collapse(key)
        return self._collapse_memo[key]

    def probes(self, seq: SeqMorphism):
        items = seq.items
        if items in self._probe_memo:
            return self._probe_memo[items]
        out = [("relation", orbit_relation_corr(items))]
        tuples = sorted(product_tuples(items))
        for name, pick in (("orbit-first", 0), ("orbit-mid", len(tuples) // 2)):
            if tuples:
                start = tuples[pick]
                out.append((name, self._orbit_probe(items, start)))
        self._probe_memo[items] = out
        return out

    def _orbit_probe(self, items, start) -> Correspondence:
        """Orbit of (start, start) under every declared action."""
        items = tuple(items)
        acts = _actions(items)
        pairs = _closure((start, start), lambda pair: _moves(pair, acts, acts))
        return Correspondence(items, items, frozenset(pairs))

    def transport_probe(self, probe, seq_from, seq_to, pos, compose, side):
        """Set-level push across a composition (image under the orbit
        projection) or pull across a decomposition (preimage); always
        defined, unlike the geometric try_compose_corrs."""
        fine = seq_from.items if compose else seq_to.items
        made = self._compose_full(fine[pos], fine[pos + 1])
        assert made is not None
        _, orbit_of, members = made
        sz = fine[pos + 1].size

        if compose:
            def images(tup):
                return (tup[:pos] + (orbit_of[tup[pos] * sz + tup[pos + 1]],) + tup[pos + 2:],)
        else:
            def images(tup):
                return [tup[:pos] + divmod(idx, sz) + tup[pos + 1:] for idx in members[tup[pos]]]

        if side == "target":
            pairs = frozenset((s, t2) for s, t in probe.pairs for t2 in images(t))
            return Correspondence(probe.src, seq_to.items, pairs)
        pairs = frozenset((s2, t) for s, t in probe.pairs for s2 in images(s))
        return Correspondence(seq_to.items, probe.tgt, pairs)

    def seq(self, items, source=None) -> SeqMorphism:
        return seq_from_items(self, items, source=source)


def diagram_collapse(diagram, inst: LieRInstance) -> frozenset:
    """Set-level collapse of a whole diagram: compose all rows as plain
    relations (no injectivity demanded), then identify the target side
    with its full quotient.  Two diagrams with equal boundaries and
    equal collapses represent the same 2-morphism; this is the
    brute-force soundness oracle."""
    from cobord2.diagram import Face, _row_target

    src_items = diagram.source.items
    rel = {(t, t) for t in product_tuples(src_items)}
    cur_items = src_items
    for row in diagram.rows:
        cells = []
        for cell in row:
            if isinstance(cell, Face):
                by_src: dict = {}
                for ps, pt in cell.morph.pairs:
                    by_src.setdefault(ps, []).append(pt)
                cells.append((by_src, len(cell.src_items)))
            else:
                item = cell.item
                cells.append(({(x,): [(x,)] for x in range(item.size)}, 1))
        new_rel = set()
        for s, t in rel:
            outs = [((), t)]
            for by_src, ns in cells:
                grown = []
                for acc, rest in outs:
                    head, tail = rest[:ns], rest[ns:]
                    for pt in by_src.get(head, ()):
                        grown.append((acc + pt, tail))
                outs = grown
            for acc, rest in outs:
                assert rest == ()
                new_rel.add((s, acc))
        rel = new_rel
        cur_items = _row_target(row)
    collapsed = inst.collapse(cur_items)
    return frozenset((s, collapsed.orbit(t)) for s, t in rel)
