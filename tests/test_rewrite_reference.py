"""normalize_diagram against every order of its own rewrites.

normal-forms-equal decides invariance by comparing the normalizer's
outputs, which is sound only where every order of the rewrites ends in
one normal form.  rewrite_reference explores all of them; its terminal
states are the normal forms some order reaches.  Two ends whose
terminal sets meet are equal under some order of the rules.

The chains below are the known wrong verdicts, as fixed cases.  Their
correct verdicts are strict xfails, so a fix shows up as an XPASS that
fails the run and the mark must then go:
- missing rule (ROADMAP item 1): a creation cannot cancel one word of a
  face that imbrication fused, so the terminal sets do not meet;
- order dependence (ROADMAP item 2): the terminal sets meet, but the
  normalizer's fixed order ends elsewhere on one side.
"""

from contextlib import redirect_stderr, redirect_stdout
import io
from pathlib import Path

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
ORDER_DEPENDENT = "ROADMAP item 2: the normal form depends on the rewrite order"
CANCEL12_CHAIN = "cyl_create 1\ncreate12 1 0 0\nimbricate 2\n"


def _cdf_ends(doc):
    y1 = doc.sequence()
    return y1, doc.steps2 or cb.apply_moves(y1, doc.moves)


def _catalog_ends(name, moves=None):
    y1, catalog_moves = CATALOG[name]
    return y1, cb.apply_moves(y1, catalog_moves if moves is None else moves)


def _cancel12_chain_text():
    text = (DATA / "cancel12.cdf").read_text()
    assert "\ncancel12 0\n" in text
    return text.replace("\ncancel12 0\n", "\n" + CANCEL12_CHAIN)


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
    rows = dg._clean(dg._stagger(fn.eval2((three, zero), inst).rows), inst)
    assert [len(dg._face_positions(row)) for row in rows] == [1, 1]
    steps = {dg.interchange(rows, 0), *dg.rewrites(rows, inst)}
    assert {dg._face_positions(top)[0][1] for top, _ in steps} == {0, 2}


IMBRICATE_CHAIN = ("imbricate", [Move("cyl_create", 0), Move("create12", 0, (0, 0)),
                                 Move("imbricate", 1)])
ORDER_DEPENDENT_CHAINS = [
    ("switch", [Move("cyl_create", 0), Move("create12", 0, (1, 0)), Move("imbricate", 1)]),
    ("switch", [Move("cyl_create", 0), Move("create12", 0, (1, 0)), Move("switch", 1)]),
    ("switch", [Move("cyl_create", 1), Move("create01", 1, (0, "ball")), Move("switch", 0)]),
]


def _chain_ends(chain):
    if chain == "cancel12.cdf":
        return _cdf_ends(parse_cdf(_cancel12_chain_text()))
    return _catalog_ends(*chain)


def _chain_id(chain):
    if chain == "cancel12.cdf":
        return chain
    name, moves = chain
    return name + ":" + ",".join(m.kind for m in moves)


def _xfail(chain, reason):
    mark = pytest.mark.xfail(strict=True, reason=reason, raises=AssertionError)
    return pytest.param(chain, id=_chain_id(chain), marks=mark)


@pytest.mark.parametrize(
    "chain", [pytest.param(c, id=_chain_id(c)) for c in ORDER_DEPENDENT_CHAINS])
def test_order_dependent_chains_meet_in_the_reference(chain):
    _, _, t1, t2 = _explore(*_chain_ends(chain))
    assert t1 & t2


@pytest.mark.parametrize(
    "chain",
    [_xfail(IMBRICATE_CHAIN, MISSING_RULE), _xfail("cancel12.cdf", MISSING_RULE)]
    + [_xfail(c, ORDER_DEPENDENT) for c in ORDER_DEPENDENT_CHAINS],
)
def test_known_chain_passes_normal_forms_equal(chain):
    y1, y2 = _chain_ends(chain)
    records = {name: ok for name, ok, _ in fn.invariance_check(y1, y2, [])}
    assert records["normal-forms-equal"]


@pytest.mark.parametrize(
    "chain", [_xfail(IMBRICATE_CHAIN, MISSING_RULE), _xfail("cancel12.cdf", MISSING_RULE)])
def test_missing_rule_chain_terminal_sets_meet(chain):
    _, _, t1, t2 = _explore(*_chain_ends(chain))
    assert t1 & t2


@pytest.mark.xfail(strict=True, reason=MISSING_RULE, raises=AssertionError)
def test_cancel12_cdf_chain_cli_exits_0(tmp_path):
    path = tmp_path / "cancel12_chain.cdf"
    path.write_text(_cancel12_chain_text())
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["functor", "invariance", str(path)])
    assert code == 0
