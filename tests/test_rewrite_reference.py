"""normalize_diagram against every order of its own rewrites.

normal-forms-equal decides invariance by comparing the normalizer's
outputs, which is sound only where every order of the rewrites ends in
one normal form.  rewrite_reference explores all of them; its terminal
states are the normal forms some order reaches.  Two ends whose
terminal sets meet are equal under some order of the rules.

Walks of one to three Cerf moves check that the two ends' terminal sets
meet exactly when normal-forms-equal says so.  The fixed chains below
pin what the walks found:
- the switch chains reach a shared normal form only when interchanges
  come before merges and raise right-lying faces, so they pin the
  normalizer's order (ROADMAP item 2);
- missing rule (ROADMAP item 1): a creation cannot cancel one word of a
  face that imbrication fused, so the terminal sets do not meet;
- order dependence (ROADMAP item 3): after a create23 and a switch the
  terminal sets meet, but the normalizer's order reaches two normal
  forms that compare unequal;
- imbrication after a separating compression: the fused face or the
  move chain itself is wrong.
The known wrong verdicts are strict xfails, so a fix shows up as an
XPASS that fails the run and the mark must then go.
"""

from contextlib import redirect_stderr, redirect_stdout
import io
from pathlib import Path

from hypothesis import given, note, settings
from hypothesis import strategies as st
import pytest

from cobord2 import catalog as cat
from cobord2 import cli
from cobord2 import cobordism as cb
from cobord2 import diagram as dg
from cobord2 import functor as fn
from cobord2.cdf import parse_cdf
from cobord2.cobordism import Move
from cobord2.diagram import normal_forms_equal
from cobord2.symcat import HamInstance, normalize_mod_equiv, strip_diagram_excisions

from rewrite_reference import terminal_states

DATA = Path(__file__).resolve().parents[1] / "src" / "cobord2" / "data"
CATALOG = {name: (y1, moves) for name, y1, moves in cat.cerf_move_catalog()}
MISSING_RULE = "ROADMAP item 1: no rule cancels one word of a fused face"
ORDER_DEPENDENT = "ROADMAP item 3: the terminal sets meet, but the normal forms compare unequal"
CANCEL12_CHAIN = "cyl_create 1\ncreate12 1 0 0\nimbricate 2\n"
BALL_CANCEL_CHAIN = "cyl_create 2\ncreate23 2 0 w1\nswitch 4\n"


def _cdf_ends(doc):
    y1 = doc.sequence()
    return y1, doc.steps2 or cb.apply_moves(y1, doc.moves)


def _catalog_ends(name):
    y1, moves = CATALOG[name]
    return y1, cb.apply_moves(y1, moves)


def _chain_text(name, move, chain):
    """The shipped .cdf name with its one move replaced by chain."""
    text = (DATA / name).read_text()
    if "\n%s\n" % move not in text:
        # not an AssertionError, so no strict xfail can pass on it
        raise ValueError("%s has no move %r" % (name, move))
    return text.replace("\n%s\n" % move, "\n" + chain)


def _cancel12_chain_text():
    return _chain_text("cancel12.cdf", "cancel12 0", CANCEL12_CHAIN)


def _ends(case):
    kind, arg = case
    if kind == "catalog":
        return _catalog_ends(arg)
    if kind == "cdf":
        return _cdf_ends(parse_cdf((DATA / arg).read_text()))
    return cat.negative_control()


def _explore(y1, y2):
    """(normal forms, terminal sets) of the two ends."""
    inst = HamInstance()
    out = []
    for y in (y1, y2):
        d = strip_diagram_excisions(fn.eval2(y, inst))
        out.append((normalize_mod_equiv(d, inst), terminal_states(d, inst)))
    (n1, t1), (n2, t2) = out
    return n1, n2, t1, t2


CASES = (
    [("catalog", name) for name in CATALOG]
    + [("cdf", path.name) for path in sorted(DATA.glob("*.cdf"))]
    + [("negative-control", None)]
)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[1] or c[0])
def test_normal_forms_are_reference_terminals_that_meet_as_they_compare(case):
    n1, n2, t1, t2 = _explore(*_ends(case))
    assert n1 in t1 and n2 in t2
    assert bool(t1 & t2) == normal_forms_equal(n1, n2, HamInstance())
    if case in (("cdf", "negative_control.cdf"), ("negative-control", None)):
        assert not t1 & t2


def test_a_3_handle_over_a_0_handle_swaps_to_both_placements():
    """Both faces touch no items between them, so the 0-handle's discs
    can rise left or right of the 3-handle's; the reference follows
    rewrites and interchange, which must give one each."""
    inst = HamInstance()
    three = cb.reverse_step(cb.zero_handle_step((), 0, "a"))
    zero = cb.zero_handle_step((), 0, "b")
    faces = dg._clean(fn.eval2((three, zero), inst).faces, inst)
    assert len(faces) == 2
    steps = {dg.interchange(faces, 0), *dg.rewrites(faces, inst)}
    assert {offset for (offset, _), _ in steps} == {0, 2}


WALK_STARTS = {name: y1 for name, (y1, _) in CATALOG.items()}
WALK_STARTS.update(
    (path.name, parse_cdf(path.read_text()).sequence()) for path in sorted(DATA.glob("*.cdf")))
SIMPLE_MOVES = ("cyl_create", "cyl_cancel", "circle_remove", "imbricate", "switch",
                "cancel01", "cancel23", "cancel12")


def _walk_moves(seq, fresh):
    """Every move kind at every position of seq with small data values,
    relabel on every circle; fresh names the circle a move adds or
    renames.  Moves that do not apply raise PatternMismatch."""
    chains = [seq[0].source] + [step.target for step in seq]
    items = [item for chain in chains for item in chain]
    labels = sorted({x.label for item in items for c in item.components for x in c.into + c.out})
    comps = max((len(item.components) for item in items), default=0)
    moves = [Move("relabel", 0, ((label, fresh),)) for label in labels]
    for pos in range(len(seq) + 1):
        moves += [Move(kind, pos) for kind in SIMPLE_MOVES]
        moves += [Move("split_compression", pos, (head,)) for head in (1, 2)]
        for item in range(max(map(len, chains))):
            moves += [Move("create01", pos, (item, fresh)), Move("create23", pos, (item, fresh))]
            moves += [Move("circle_insert", pos, (item, g1, fresh)) for g1 in (0, 1)]
            moves += [Move("create12", pos, (item, comp)) for comp in range(comps)]
    return moves


def _walk(start, length, rng):
    """(end, moves) of a walk from start: each move the first of the
    shuffled _walk_moves that applies."""
    seq, moves = start, []
    for step in range(length):
        candidates = _walk_moves(seq, "w%d" % step)
        rng.shuffle(candidates)
        for move in candidates:
            try:
                seq = cb.apply_move(seq, move)
            except cb.PatternMismatch:
                continue
            moves.append(move)
            break
    return seq, moves


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(WALK_STARTS)), st.integers(1, 3), st.randoms(use_true_random=False))
def test_walk_ends_meet_in_the_reference_as_they_compare(name, length, rng):
    y1 = WALK_STARTS[name]
    y2, moves = _walk(y1, length, rng)
    note(_chain_id((name, moves)))
    n1, n2, t1, t2 = _explore(y1, y2)
    assert n1 in t1 and n2 in t2
    assert bool(t1 & t2) == normal_forms_equal(n1, n2, HamInstance())


MISSING_RULE_CHAINS = [
    ("imbricate", [Move("cyl_create", 0), Move("create12", 0, (0, 0)), Move("imbricate", 1)]),
    ("imbricate", [Move("cyl_create", 1), Move("create12", 1, (0, 0)), Move("imbricate", 2)]),
    ("cancel23", [Move("cyl_create", 1), Move("create12", 1, (1, 0)), Move("imbricate", 2)]),
    ("switch", [Move("cyl_create", 0), Move("create12", 0, (0, 0)), Move("imbricate", 1)]),
    "cancel12.cdf",
]
SWITCH_CHAINS = [
    ("switch", [Move("cyl_create", 0), Move("create12", 0, (1, 0)), Move("imbricate", 1)]),
    ("switch", [Move("cyl_create", 0), Move("create12", 0, (1, 0)), Move("switch", 1)]),
    ("switch", [Move("cyl_create", 1), Move("create01", 1, (0, "ball")), Move("switch", 0)]),
    ("solid_torus.cdf",
     [Move("cyl_create", 2), Move("create01", 2, (0, "w1")), Move("switch", 1)]),
]
ORDER_DEPENDENT_CHAINS = [
    ("cancel01", [Move("cyl_create", 2), Move("create23", 2, (0, "w1")), Move("switch", 4)]),
]


def _chain_ends(chain):
    if chain == "cancel12.cdf":
        return _cdf_ends(parse_cdf(_cancel12_chain_text()))
    name, moves = chain
    return WALK_STARTS[name], cb.apply_moves(WALK_STARTS[name], moves)


def _chain_id(chain):
    if chain == "cancel12.cdf":
        return chain
    name, moves = chain
    return name + ":" + ",".join(" ".join(map(str, (m.kind, m.pos) + m.data)) for m in moves)


def _param(chain):
    return pytest.param(chain, id=_chain_id(chain))


def _xfail(chain, reason):
    mark = pytest.mark.xfail(strict=True, reason=reason, raises=AssertionError)
    return pytest.param(chain, id=_chain_id(chain), marks=mark)


@pytest.mark.parametrize("chain", [_param(c) for c in SWITCH_CHAINS + ORDER_DEPENDENT_CHAINS])
def test_switch_chains_meet_in_the_reference(chain):
    _, _, t1, t2 = _explore(*_chain_ends(chain))
    assert t1 & t2


@pytest.mark.parametrize(
    "chain",
    [_xfail(c, MISSING_RULE) for c in MISSING_RULE_CHAINS]
    + [_xfail(c, ORDER_DEPENDENT) for c in ORDER_DEPENDENT_CHAINS]
    + [_param(c) for c in SWITCH_CHAINS],
)
def test_known_chain_passes_normal_forms_equal(chain):
    y1, y2 = _chain_ends(chain)
    records = {name: ok for name, ok, _ in fn.invariance_check(y1, y2, [])}
    assert records["normal-forms-equal"]


@pytest.mark.parametrize("chain", [_xfail(c, ORDER_DEPENDENT) for c in ORDER_DEPENDENT_CHAINS])
def test_order_dependent_chain_meets_as_it_compares(chain):
    n1, n2, t1, t2 = _explore(*_chain_ends(chain))
    assert bool(t1 & t2) == normal_forms_equal(n1, n2, HamInstance())


@pytest.mark.parametrize("chain", [_xfail(c, MISSING_RULE) for c in MISSING_RULE_CHAINS])
def test_missing_rule_chain_terminal_sets_meet(chain):
    _, _, t1, t2 = _explore(*_chain_ends(chain))
    assert t1 & t2


def _invariance_exit_code(path, text):
    path.write_text(text)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(["functor", "invariance", str(path)])


@pytest.mark.xfail(strict=True, reason=MISSING_RULE, raises=AssertionError)
def test_cancel12_cdf_chain_cli_exits_0(tmp_path):
    assert _invariance_exit_code(tmp_path / "cancel12_chain.cdf", _cancel12_chain_text()) == 0


@pytest.mark.xfail(strict=True, reason=ORDER_DEPENDENT, raises=AssertionError)
def test_ball_cancel_cdf_create23_switch_chain_cli_exits_0(tmp_path):
    text = _chain_text("ball_cancel.cdf", "cancel01 0", BALL_CANCEL_CHAIN)
    assert _invariance_exit_code(tmp_path / "ball_cancel_chain.cdf", text) == 0


SEPARATED_GENUS2_CDF = """@circles
c0 +
c1 +

@surfaces
g2 comp g=2 in=c0 out=c1

@chain g2
@steps
compression2 0 0 d:c0 a1 b1 a1- b1-
compression2 %s a1

@moves
imbricate 0
"""
FUSED_COMP_INDEX = (
    "the fused face carries (comp 1, a2) on a one-component symbol: "
    "try_compose2_vertical keeps the small side's comp index, and "
    "functor._handle_transfer maps both pieces' a1 through one dict"
)
SEPARATING_LIFT = (
    "move chain does not apply: cobordism._lift_attachment ignores "
    "separating splits, so it maps a1 to a1, not a2"
)


@pytest.mark.parametrize("second", [
    pytest.param("0 1", marks=pytest.mark.xfail(
        strict=True, reason=FUSED_COMP_INDEX, raises=AssertionError)),
    pytest.param("0 0", marks=pytest.mark.xfail(
        strict=True, reason=SEPARATING_LIFT, raises=AssertionError)),
])
def test_imbrication_after_a_separating_compression_cli_exits_0(tmp_path, second):
    text = SEPARATED_GENUS2_CDF % second
    assert _invariance_exit_code(tmp_path / "separated.cdf", text) == 0
