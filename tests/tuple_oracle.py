"""The biset oracle on sets of product tuples: a slow reference for the
integer-coded one in cobord2.bisets.

A product tuple lists one carrier index per item of a sequence; a
correspondence here is a frozenset of (source tuple, target tuple)
pairs, the form tuples() decodes a coded Correspondence to.  Every
action is applied generator by generator and closed breadth first, with
no integer encoding, so agreement with cobord2.bisets checks the
encoding.  diagram_collapse extends the reference from simple
2-morphisms to whole diagrams, and group_law_error and biset_law_error
check every law on every element, the reference for the checks on
generators in cobord2.bisets, and group_generators is the reference for
the greedy generating set they run on; biset_iso decides isomorphism of two
bisets by propagating a bijection along every element's action.

The constructors at the end build the groups, the bisets and the
adjoint of cobord2.bisets entry by entry from nested tuples, as the
reference for the array arithmetic there.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from cobord2.bisets import TRIVIAL, FiniteBiset, FiniteGroup
from cobord2.diagram import Face, _row_target


def product_tuples(seq):
    """Every product tuple of a sequence, in code order."""
    return itertools.product(*[range(b.size) for b in seq])


def decode(seq, codes) -> list:
    """Product tuples of the given mixed-radix codes."""
    digits = []
    for item in reversed(seq):
        codes, digit = np.divmod(codes, item.size)
        digits.append(digit.tolist())
    if not digits:
        return [()] * len(codes)
    return list(zip(*reversed(digits)))


def tuples(corr) -> frozenset:
    """The pair codes of a cobord2.bisets.Correspondence as (source
    product tuple, target product tuple) pairs."""
    s, t = np.divmod(corr.pairs, math.prod(item.size for item in corr.tgt))
    return frozenset(zip(decode(corr.src, s), decode(corr.tgt, t)))


class Actions(NamedTuple):
    """Generator tables of one sequence, each a map on carrier indices.

    mid: (j, x -> x.g^-1 on item j, y -> g.y on item j+1) for each
    generator g of the group between items j and j+1 (the anti-diagonal
    middle action); left: y -> g.y on the first item for each generator
    of its left group; right: x -> x.g^-1 on the last item for each
    generator of its right group."""
    mid: tuple
    left: tuple
    right: tuple


NO_ACTIONS = Actions((), (), ())


def actions(seq) -> Actions:
    if not seq:
        return NO_ACTIONS

    def right_maps(item):
        grp = item.right_group
        return tuple(tuple(row[grp.inverse(g)] for row in item.right.tolist())
                     for g in grp.generators())

    mid = tuple(
        (j, rmap, tuple(seq[j + 1].left[g].tolist()))
        for j in range(len(seq) - 1)
        for g, rmap in zip(seq[j].right_group.generators(), right_maps(seq[j]))
    )
    left = tuple(tuple(seq[0].left[g].tolist()) for g in seq[0].left_group.generators())
    return Actions(mid, left, right_maps(seq[-1]))


def moves(pair, src: Actions, tgt: Actions):
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


def closure(start, step) -> set:
    """Everything reachable from start by repeated steps, breadth first."""
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for point in frontier:
            for moved in step(point):
                if moved not in seen:
                    seen.add(moved)
                    new.append(moved)
        frontier = new
    return seen


def collapse(seq) -> dict:
    """Product tuple -> orbit id under the middle actions, orbits
    numbered in order of their first tuple."""
    seq = tuple(seq)
    acts = actions(seq)
    orbit_of = {}
    count = 0
    for start in product_tuples(seq):
        if start not in orbit_of:
            # paired with an empty side, a tuple moves by the middle actions alone
            for tup, _ in closure((start, ()), lambda pair: moves(pair, acts, NO_ACTIONS)):
                orbit_of[tup] = count
            count += 1
    return orbit_of


def orbit_relation(seq) -> frozenset:
    buckets: dict = {}
    for tup, oid in collapse(seq).items():
        buckets.setdefault(oid, []).append(tup)
    return frozenset((s, t) for tups in buckets.values() for s in tups for t in tups)


def orbit_probe(items, start) -> frozenset:
    """Orbit of (start, start) under every declared action."""
    acts = actions(tuple(items))
    return frozenset(closure((start, start), lambda pair: moves(pair, acts, acts)))


def coded_orbit_probe(inst, items, start: int):
    """The coded orbit probe of the product code start on items, as
    inst (a cobord2.bisets.LieRInstance) builds the probes it hands out:
    the orbit of (start, start) under every declared action, the coded
    counterpart of orbit_probe."""
    return inst._probe_set(tuple(items), (start,))[1]


def is_invariant(src, tgt, pairs) -> bool:
    a, b = actions(tuple(src)), actions(tuple(tgt))
    return all(moved in pairs for pair in pairs for moved in moves(pair, a, b))


def transport(pairs, fine, pos, orbit_of, members, compose, side) -> frozenset:
    """Push pairs across the composition of fine[pos], fine[pos + 1]
    (image under the orbit projection), or pull them back across the
    decomposition (preimage); the moving side is side.  orbit_of and
    members are those of compose_orbits."""
    sz = fine[pos + 1].size
    if compose:
        def images(tup):
            return (tup[:pos] + (orbit_of[tup[pos] * sz + tup[pos + 1]],) + tup[pos + 2:],)
    else:
        def images(tup):
            return [tup[:pos] + divmod(idx, sz) + tup[pos + 1:] for idx in members[tup[pos]]]
    if side == "target":
        return frozenset((s, t2) for s, t in pairs for t2 in images(t))
    return frozenset((s2, t) for s, t in pairs for s2 in images(s))


def compose_orbits(m, n) -> tuple:
    """(orbit_of, members) of the free anti-diagonal quotient of M x N,
    orbits labeled in increasing order of their smallest index x * |N| + y."""
    G1 = m.right_group
    m_right, n_left = m.right.tolist(), n.left.tolist()
    orbit_of = [-1] * (m.size * n.size)
    members = []
    for idx in range(len(orbit_of)):
        if orbit_of[idx] == -1:
            x, y = divmod(idx, n.size)
            orb = sorted({m_right[x][G1.inverse(g)] * n.size + n_left[g][y]
                          for g in range(G1.order)})
            for j in orb:
                orbit_of[j] = len(members)
            members.append(tuple(orb))
    return orbit_of, members


def diagram_collapse(diagram, inst) -> frozenset:
    """Set-level collapse of a whole diagram: compose all rows as plain
    relations (no injectivity demanded), then identify the target side
    with its full quotient (the orbits of inst.collapse).  Two diagrams
    with equal boundaries and equal collapses represent the same
    2-morphism; this is the brute-force soundness oracle."""
    src_items = diagram.source.items
    rel = {(t, t) for t in product_tuples(src_items)}
    cur_items = src_items
    for row in diagram.rows:
        cells = []
        for cell in row:
            if isinstance(cell, Face):
                by_src: dict = {}
                for ps, pt in tuples(cell.morph):
                    by_src.setdefault(ps, []).append(pt)
                cells.append((by_src, len(cell.src_items)))
            else:
                cells.append(({(x,): [(x,)] for x in range(cell.item.size)}, 1))
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
    orbit_of = inst.collapse(cur_items).orbit_of
    code = {t: c for c, t in enumerate(product_tuples(cur_items))}
    return frozenset((s, int(orbit_of[code[t]])) for s, t in rel)


def group_law_error(mult):
    """The first group law that the multiplication table mult[g][h] (rows
    of ints) breaks, worded as cobord2.bisets.FiniteGroup words it, or
    None.  Associativity is checked on every triple, with no integer
    arrays, in FiniteGroup's order."""
    n = len(mult)
    if any(len(row) != n or any(type(v) is not int or not 0 <= v < n for v in row)
           for row in mult):
        return "malformed multiplication table"
    xs = range(n)
    identities = [e for e in xs if all(mult[e][x] == x == mult[x][e] for x in xs)]
    if not identities:
        return "no identity element"
    for x in xs:
        if identities[0] not in mult[x]:
            return "element %d has no inverse" % x
    if any(mult[mult[a][b]][c] != mult[a][mult[b][c]] for a in xs for b in xs for c in xs):
        return "not associative"
    return None


def group_generators(g) -> tuple:
    """generators() of a cobord2.bisets.FiniteGroup by its greedy closure
    over the whole table as nested lists, the reference for the closure
    there, which reads only the chosen generators' columns."""
    mult = g.mult.tolist()
    gens: list = []
    reached = {g.identity}
    for x in range(g.order):
        if x not in reached:
            gens.append(x)
            # the subgroup gens generate, breadth first from the identity
            frontier = [g.identity]
            while frontier:
                frontier = list({mult[y][h] for y in frontier for h in gens} - reached)
                reached.update(frontier)
            if len(reached) == g.order:
                break
    return tuple(gens)


def biset_law_error(left_group, right_group, left, right):
    """The first biset law that the action tables left[g][x] and
    right[x][h] break, worded as cobord2.bisets.FiniteBiset words it, or
    None.  Every law is checked on every element, with no integer
    arrays, in FiniteBiset's order."""
    G, H = left_group, right_group
    m = len(right)
    if len(left) != G.order or any(len(row) != m for row in left):
        return "malformed left action"
    if len(right) != m or any(len(row) != H.order for row in right):
        return "malformed right action"
    xs, gs, hs = range(m), range(G.order), range(H.order)
    gm, hm = G.mult.tolist(), H.mult.tolist()
    if any(left[G.identity][x] != x or right[x][H.identity] != x for x in xs):
        return "identities act nontrivially"
    if any(left[gm[g][k]][x] != left[g][left[k][x]] for g in gs for k in gs for x in xs):
        return "left action not associative"
    if any(right[x][hm[h][k]] != right[right[x][h]][k] for x in xs for h in hs for k in hs):
        return "right action not associative"
    if any(right[left[g][x]][h] != left[g][right[x][h]] for g in gs for x in xs for h in hs):
        return "actions do not commute"
    return None


def biset_iso(a, b):
    """Whether a and b are isomorphic bisets, by an equivariant bijection
    built orbit by orbit (orbits under both actions at once).  The
    smallest point of each orbit of a not yet mapped is sent to each
    unused point of b in turn and the map propagated along both actions;
    the first image that extends to a consistent injective map carries
    the orbit onto a whole orbit of b.  Isomorphic orbits are
    interchangeable, so taking the first fit fails only when a and b are
    not isomorphic."""
    if a.size != b.size or a.left_group != b.left_group or a.right_group != b.right_group:
        return False
    # every element's action on either side, as a pair of point maps: a's and b's
    moves = list(zip(a.left.tolist(), b.left.tolist()))
    moves += list(zip(a.right.T.tolist(), b.right.T.tolist()))

    def propagate(x0, y0):
        mapping = {x0: y0}
        frontier = [x0]
        while frontier:
            new = []
            for x in frontier:
                for a_move, b_move in moves:
                    xx, yy = a_move[x], b_move[mapping[x]]
                    if xx not in mapping:
                        mapping[xx] = yy
                        new.append(xx)
                    elif mapping[xx] != yy:
                        return None
            frontier = new
        return mapping if len(set(mapping.values())) == len(mapping) else None

    mapped, used = {}, set()
    for x0 in range(a.size):
        if x0 not in mapped:
            orbit = next((found for found in (propagate(x0, y0) for y0 in range(b.size)
                                              if y0 not in used) if found), None)
            if orbit is None:
                return False
            mapped.update(orbit)
            used.update(orbit.values())
    return True


# --- constructors, entry by entry ------------------------------------------------


def cyclic(n, name=None):
    mult = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(name or "Z%d" % n, mult)


def product_group(g, h):
    ng, nh = g.order, h.order
    gm, hm = g.mult.tolist(), h.mult.tolist()
    mult = tuple(
        tuple(gm[a // nh][b // nh] * nh + hm[a % nh][b % nh] for b in range(ng * nh))
        for a in range(ng * nh)
    )
    return FiniteGroup("%sx%s" % (g.name, h.name), mult)


def adjoint(b):
    G, H = b.left_group, b.right_group
    m = b.size
    bl, br = b.left.tolist(), b.right.tolist()
    left = tuple(tuple(br[x][H.inverse(h)] for x in range(m)) for h in range(H.order))
    right = tuple(tuple(bl[G.inverse(g)][x] for g in range(G.order)) for x in range(m))
    return FiniteBiset("%s^T" % b.name, H, G, left, right)


def identity_biset(g):
    gm = g.mult.tolist()
    left = tuple(tuple(gm[a][x] for x in range(g.order)) for a in range(g.order))
    right = tuple(tuple(gm[x][a] for a in range(g.order)) for x in range(g.order))
    return FiniteBiset("id_%s" % g.name, g, g, left, right)


def biregular_biset(g):
    n = g.order
    m = n * n
    gm = g.mult.tolist()
    left = tuple(tuple(gm[a][x // n] * n + x % n for x in range(m)) for a in range(n))
    right = tuple(tuple(x // n * n + gm[x % n][a] for a in range(n)) for x in range(m))
    return FiniteBiset("reg_%s" % g.name, g, g, left, right)


def pants_biset(g, square=None):
    gg = square or product_group(g, g)
    n = g.order
    m = n * n
    gm = g.mult.tolist()
    left = tuple(
        tuple(gm[p // n][x // n] * n + gm[p % n][x % n] for x in range(m)) for p in range(n * n)
    )
    right = tuple(tuple(gm[x // n][a] * n + gm[x % n][a] for a in range(n)) for x in range(m))
    return FiniteBiset("pants_%s" % g.name, gg, g, left, right)


def copants_biset(g, square=None):
    gg = square or product_group(g, g)
    n = g.order
    m = n * n
    gm = g.mult.tolist()
    left = tuple(tuple(gm[a][x // n] * n + x % n for x in range(m)) for a in range(n))
    right = tuple(
        tuple(
            gm[x // n][p % n] * n + gm[gm[g.inverse(p // n)][x % n]][p % n]
            for p in range(n * n)
        )
        for x in range(m)
    )
    return FiniteBiset("copants_%s" % g.name, g, gg, left, right)


def unit_biset(g):
    return FiniteBiset("unit_%s" % g.name, TRIVIAL, g, ((0,),), ((0,) * g.order,))
