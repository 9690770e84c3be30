"""Property tests of the coded finite-group probes and transport, of the
group and biset law checks, and of the composites and adjoints built
without them, against the tuple reference in tuple_oracle.py; they need
the hypothesis package."""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cobord2 import catalog
from cobord2.bisets import (
    Correspondence,
    FiniteBiset,
    FiniteGroup,
    LieRInstance,
    TableError,
    biregular_biset,
    copants_biset,
    cyclic,
    identification_corr,
    identity_biset,
    pants_biset,
    product_group,
    quaternion8,
    symmetric3,
    try_compose_bisets,
    try_compose_corrs,
    unit_biset,
)

import tuple_oracle as ref


@st.composite
def _transport_case(draw):
    """A composable pair of cyclic-group bisets, at most one chaining item
    on either side of it, and pair codes on that sequence with the pair
    composed: a probe of it, or an arbitrary small set."""
    g = cyclic(draw(st.integers(2, 5)))
    shapes = [identity_biset(g), biregular_biset(g), pants_biset(g), copants_biset(g),
              identity_biset(product_group(g, g))]
    a, b = draw(st.sampled_from(
        [(a, b) for a in shapes for b in shapes if a.right_group == b.left_group]))
    pre = draw(st.sampled_from([()] + [(m,) for m in shapes if m.right_group == a.left_group]))
    post = draw(st.sampled_from([()] + [(m,) for m in shapes if m.left_group == b.right_group]))
    inst = LieRInstance()
    coarse = inst.seq(pre + (inst.try_compose1(a, b),) + post)
    n = math.prod(m.size for m in coarse.items)
    choices = [st.sets(st.integers(0, n * n - 1), max_size=30).map(
        lambda c: np.array(sorted(c), dtype=np.int64))]
    if n <= 150:
        choices.append(st.sampled_from([probe.pairs for _, probe in inst.probes(coarse)]))
    probe = Correspondence(coarse.items, coarse.items, draw(st.one_of(choices)))
    return inst, inst.seq(pre + (a, b) + post), coarse, len(pre), probe


@settings(max_examples=60, deadline=None)
@given(_transport_case(), st.sampled_from(["target", "source"]))
def test_push_of_pull_is_identity_and_invariance_matches_tuples(case, side):
    inst, fine, coarse, pos, probe = case
    orbit_of, members = ref.compose_orbits(fine.items[pos], fine.items[pos + 1])
    pulled = inst.transport_probe(probe, coarse, fine, pos, False, side)
    assert ref.tuples(pulled) == ref.transport(
        ref.tuples(probe), fine.items, pos, orbit_of, members, False, side)
    pushed = inst.transport_probe(pulled, fine, coarse, pos, True, side)
    assert inst.simple2_equal(pushed, probe)
    # the memo keys probes by identity and interns results by content: an
    # equal probe that is another object is carried to the same object,
    # and a fresh instance, with empty memos, to equal pairs
    twin = Correspondence(probe.src, probe.tgt, probe.pairs.copy())
    assert inst.transport_probe(twin, coarse, fine, pos, False, side) is pulled
    fresh = LieRInstance().transport_probe(probe, coarse, fine, pos, False, side)
    assert fresh is not pulled and np.array_equal(fresh.pairs, pulled.pairs)
    # the pull is the preimage under an equivariant surjection, so it is
    # invariant exactly when the probe is
    assert ref.is_invariant(pulled.src, pulled.tgt, ref.tuples(pulled)) == ref.is_invariant(
        probe.src, probe.tgt, ref.tuples(probe))


def _through(m, side, group, hom_name, hom):
    """m with its action on one side taken through the homomorphism hom
    (a table) from group to that side's group.  A hom with a kernel gives
    an action that is not free."""
    name = "%s<%s.%s" % (m.name, side, hom_name)
    if side == "left":
        rows = m.left.tolist()
        left = tuple(rows[hom[k]] for k in range(group.order))
        return FiniteBiset(name, group, m.right_group, left, m.right)
    right = tuple(tuple(row[hom[k]] for k in range(group.order)) for row in m.right.tolist())
    return FiniteBiset(name, m.left_group, group, m.left, right)


# carriers of a drawn sequence hold at most this many product tuples, so
# the tuple reference closes each orbit in a few milliseconds
MAX_CARRIER = 256


@st.composite
def _probe_case(draw):
    """A composable sequence of one to three bisets over a cyclic group G
    or a product of two, and a product code on it.  The items are the
    identity, bi-regular, pants and copants bisets of G, the identity of
    G x G, and the identity and bi-regular bisets of G with one side
    acting through a homomorphism G x G -> G: a projection or the
    trivial one.  Two of those whose kernels meet have a middle action
    that is not free."""
    g = draw(st.sampled_from([cyclic(2), cyclic(3), cyclic(4),
                              product_group(cyclic(2), cyclic(2)),
                              product_group(cyclic(2), cyclic(3))]))
    gg = product_group(g, g)
    n = g.order
    homs = {"p1": [a // n for a in range(gg.order)], "p2": [a % n for a in range(gg.order)],
            "1": [g.identity] * gg.order}
    shapes = [identity_biset(g), biregular_biset(g), pants_biset(g, gg), copants_biset(g, gg),
              identity_biset(gg)]
    shapes += [_through(m, side, gg, name, hom) for m in shapes[:2]
               for name, hom in homs.items() for side in ("left", "right")]
    items = (draw(st.sampled_from([m for m in shapes if m.size <= MAX_CARRIER])),)
    for _ in range(draw(st.integers(1, 3)) - 1):
        size = math.prod(m.size for m in items)
        nxt = [m for m in shapes
               if m.left_group == items[-1].right_group and size * m.size <= MAX_CARRIER]
        if not nxt:
            break
        items += (draw(st.sampled_from(nxt)),)
    start = draw(st.integers(0, math.prod(m.size for m in items) - 1))
    return items, start


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_probe_case())
def test_orbit_probe_matches_tuples_and_lies_in_the_relation(case):
    items, start = case
    inst = LieRInstance()
    probe = inst._orbit_probe(items, start)
    assert (np.diff(probe.pairs) > 0).all()
    assert ref.tuples(probe) == ref.orbit_probe(items, ref.decode(items, np.array([start]))[0])
    probes = dict(inst.probes(inst.seq(items)))
    for other in [probe] + list(probes.values()):
        assert np.isin(other.pairs, probes["relation"].pairs).all()


@st.composite
def _biset_tables(draw):
    """(G, H, left, right): the tables of a biset built from a group of
    order at most 6 (a product of two built-in groups, or S3), or of its
    adjoint, one side possibly acting through a homomorphism from G x G,
    and often tampered: two entries of one row of one table swapped, one
    entry set to another point, or the left action conjugated by a
    permutation of the carrier, which keeps it lawful but seldom
    commuting with the right one."""
    g = draw(st.sampled_from([cyclic(2), cyclic(3), symmetric3(),
                              product_group(cyclic(2), cyclic(2)),
                              product_group(cyclic(2), cyclic(3)),
                              product_group(cyclic(3), cyclic(2))]))
    gg = product_group(g, g)
    n = g.order
    shape = draw(st.sampled_from(["identity", "biregular", "pants", "copants", "unit",
                                  "through"]))
    if shape == "through":
        hom = draw(st.sampled_from([[a // n for a in range(gg.order)],
                                    [g.identity] * gg.order]))
        m = _through(identity_biset(g), draw(st.sampled_from(["left", "right"])), gg, "h", hom)
    else:
        m = {"identity": identity_biset, "biregular": biregular_biset, "pants": pants_biset,
             "copants": copants_biset, "unit": unit_biset}[shape](g)
    if draw(st.booleans()):
        m = m.adjoint()
    tables = [m.left.tolist(), m.right.tolist()]
    tamper = draw(st.sampled_from(["none", "swap", "set", "conjugate"]))
    if tamper == "conjugate":
        perm = draw(st.permutations(range(m.size)))
        for row in tables[0]:
            row[:] = [perm[row[x]] for x in np.argsort(perm)]
    table = tables[draw(st.integers(0, 1))]
    row = table[draw(st.integers(0, len(table) - 1))]
    if tamper in ("swap", "set") and len(row) > 1:
        i, j = draw(st.lists(st.integers(0, len(row) - 1), min_size=2, max_size=2, unique=True))
        if tamper == "swap":
            row[i], row[j] = row[j], row[i]
        else:
            row[i] = draw(st.integers(0, m.size - 1))
    left, right = (tuple(map(tuple, t)) for t in tables)
    return m.left_group, m.right_group, left, right


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_biset_tables())
def test_biset_law_checks_on_generators_match_every_element(case):
    # FiniteBiset checks each action law on generators only; the
    # reference checks every element, so verdict and message must agree
    want = ref.biset_law_error(*case)
    try:
        FiniteBiset("b", *case)
        got = None
    except TableError as err:
        got = str(err)
    assert got == (None if want is None else "b: " + want)


# groups of order at most 12 with one to three generators
_Z2 = cyclic(2)
_LAW_GROUPS = [cyclic(n) for n in range(1, 7)] + [
    symmetric3(), quaternion8(), product_group(_Z2, _Z2), product_group(_Z2, cyclic(4)),
    product_group(product_group(_Z2, _Z2), _Z2), product_group(symmetric3(), _Z2)]


@st.composite
def _group_tables(draw):
    """The multiplication table of a group of order at most 12 as rows of
    ints, often tampered: two entries of one row or one column swapped,
    or one entry set to a value in range(-1, n + 1), out of range
    included.  Half the tampering hits the row or column of an element
    that is not among the group's generators, which the check on
    generators reaches only through products."""
    g = draw(st.sampled_from(_LAW_GROUPS))
    n = g.order
    mult = g.mult.tolist()
    tamper = draw(st.sampled_from(["none", "swap", "set"]))
    if tamper == "none" or n == 1:
        return mult
    others = [x for x in range(n) if x not in g.generators()]
    at = draw(st.sampled_from(others if draw(st.booleans()) else list(range(n))))
    cells = [(at, y) for y in range(n)]
    if draw(st.booleans()):
        cells = [(y, x) for x, y in cells]
    if tamper == "swap":
        (a, b), (c, d) = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2,
                                       unique=True))
        mult[a][b], mult[c][d] = mult[c][d], mult[a][b]
    else:
        a, b = draw(st.sampled_from(cells))
        mult[a][b] = draw(st.integers(-1, n))
    return mult


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_group_tables())
def test_group_law_checks_on_generators_match_every_triple(mult):
    # FiniteGroup checks associativity by Light's test on generators; the
    # reference checks every triple, so verdict and message must agree
    want = ref.group_law_error(mult)
    try:
        FiniteGroup("g", mult)
        got = None
    except TableError as err:
        got = str(err)
    assert got == (None if want is None else "g: " + want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(
    st.sampled_from(_LAW_GROUPS + list(catalog.default_groups().values())),
    st.builds(product_group, st.sampled_from(_LAW_GROUPS), st.sampled_from(_LAW_GROUPS)),
    st.just(1024).map(cyclic)))
def test_generators_match_the_nested_list_closure(g):
    # the closure reads only the chosen generators' columns; the
    # reference copies the whole table and must choose the same ones
    assert g.generators() == ref.group_generators(g)


# Z1-Z6, S3 and Q8, each with its entry-by-entry twin from the reference
_BASE_GROUPS = [(cyclic(n), ref.cyclic(n)) for n in range(1, 7)] + [
    (symmetric3(), symmetric3()), (quaternion8(), quaternion8())]


def _same(new, old):
    """new, built by array arithmetic, equals old, built entry by entry:
    the same tables, read-only, and the same equality and hash."""
    assert new == old and hash(new) == hash(old)
    tables = ("mult",) if hasattr(new, "mult") else ("left", "right")
    for name in tables:
        table = getattr(new, name)
        assert table.dtype == np.int64 and table.flags.c_contiguous
        assert not table.flags.writeable
        assert table.tolist() == getattr(old, name).tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_BASE_GROUPS), st.one_of(st.none(), st.sampled_from(_BASE_GROUPS)))
def test_array_constructors_match_entry_by_entry_reference(first, second):
    # a base group or a product of two; the constructors that build a
    # square G x G, and biregular_biset with its |G|**2 points, run on
    # the smaller groups only, so the reference stays quick
    g, g_ref = first
    if second is not None:
        g, g_ref = product_group(g, second[0]), ref.product_group(g_ref, second[1])
    _same(g, g_ref)
    made = [(identity_biset(g), ref.identity_biset(g_ref)), (unit_biset(g), ref.unit_biset(g_ref))]
    if g.order <= 24:
        made.append((biregular_biset(g), ref.biregular_biset(g_ref)))
    if g.order <= 12:
        square, square_ref = product_group(g, g), ref.product_group(g_ref, g_ref)
        _same(square, square_ref)
        made += [(pants_biset(g, square), ref.pants_biset(g_ref, square_ref)),
                 (copants_biset(g, square), ref.copants_biset(g_ref, square_ref))]
    for new, old in made:
        _same(new, old)
        _same(new.adjoint(), ref.adjoint(old))
        # the adjoint is an involution on the tables
        twice = new.adjoint().adjoint()
        assert twice.left.tolist() == new.left.tolist()
        assert twice.right.tolist() == new.right.tolist()


def _with_adjoints(groups):
    """The identity, bi-regular, pants, copants and unit bisets of each
    group, each followed by its adjoint."""
    return [m for g in groups
            for base in (identity_biset(g), biregular_biset(g), pants_biset(g), copants_biset(g),
                         unit_biset(g))
            for m in (base, base.adjoint())]


def test_adjunction_holds_for_every_composable_pair():
    # adjoints and composites are built without the law checks; for every
    # composable pair (m, n) over S3, Q8 and Z2xZ2, (n^T, m^T) composes
    # exactly when (m, n) does, to the adjoint composite up to
    # isomorphism, and the identification of (m, n) followed by its
    # transpose is a vertical identity
    inst = LieRInstance()
    shapes = _with_adjoints((symmetric3(), quaternion8(), product_group(_Z2, _Z2)))
    composed = 0
    for m in shapes:
        for n in shapes:
            if m.right_group != n.left_group:
                continue
            made = inst.try_compose1(m, n)
            flipped = inst.try_compose1(n.adjoint(), m.adjoint())
            assert (flipped is None) == (made is None)
            if made is None:
                continue
            composed += 1
            assert ref.biset_iso(flipped, made.adjoint())
            corr = identification_corr(m, n)
            assert inst.is_identity2(try_compose_corrs(corr, corr.transpose()))
    assert composed == 165


def _lawful_as_checked(comp):
    """comp, built without the law checks, passes the reference that
    checks every law on every element, and is the biset the checked
    constructor builds from its tables, down to its key and the
    read-only C-contiguous int64 layout of its tables."""
    assert ref.biset_law_error(comp.left_group, comp.right_group, comp.left.tolist(),
                               comp.right.tolist()) is None
    checked = FiniteBiset(comp.name, comp.left_group, comp.right_group, comp.left, comp.right)
    assert comp._key == checked._key
    _same(comp, checked)


def test_every_criterion_1_composite_is_lawful_as_checked():
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    # the decomposition index composes every composable catalog pair
    inst.enumerate_decompositions(inst.catalog[0])
    made = list(inst._compose_memo.values())
    assert len(made) == 54 and None not in made
    for comp, _, _ in made:
        _lawful_as_checked(comp)


_SHAPES = _with_adjoints([cyclic(n) for n in range(2, 7)] + [
    symmetric3(), quaternion8(), product_group(_Z2, _Z2)])

# The reference checks a composite of c points between groups of orders
# g and k in about c * (g + k)**2 steps; pairs whose composite would take
# more than about 2**19 (a fraction of a second) are left out.
_PAIRS = [(m, n) for m in _SHAPES for n in _SHAPES if m.right_group == n.left_group
          and m.size * n.size // m.right_group.order
          * (m.left_group.order + n.right_group.order) ** 2 <= 1 << 19]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_PAIRS))
def test_generated_composites_are_lawful_as_checked(pair):
    made = try_compose_bisets(*pair)
    assume(made is not None)
    _lawful_as_checked(made[0])
