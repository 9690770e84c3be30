"""Acceptance suite: one check per shipped guarantee, each printing a
pass/fail line.  Runs at desk scale (a few minutes)."""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from cobord2 import bisets as bs
from cobord2 import catalog as cat
from cobord2 import charts as ch
from cobord2 import cli
from cobord2 import cobordism as cb
from cobord2 import crosscheck as xc
from cobord2 import functor as fn
from cobord2 import su2
from cobord2 import suites
from cobord2.cobordism import Move, cylinder_seq
from cobord2.symcat import HamInstance, normalize_mod_equiv
from cobord2.words import Word

DATA = Path(__file__).resolve().parents[1] / "src" / "cobord2" / "data"

GRID = [(g, k) for g in (0, 1, 2) for k in (1, 2, 3)]


def _line(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %d %-28s %s %s" % (num, name, status, extra))
    return ok


def test_criterion_1_diagram_axiom_loops():
    started = time.monotonic()
    inst = bs.LieRInstance(tuple(cat.default_biset_catalog()))
    loops = list(cat.axiom_loops(inst, cat.loop_start_sequences(inst.catalog), 4))
    failures = [name for _, _, bad in loops for name in bad]
    elapsed = time.monotonic() - started
    ok = not failures and len(loops) > 0 and elapsed < 30.0
    assert _line(1, "diagram-axiom-loops", ok,
                 "(%d loops, %.1fs)" % (len(loops), elapsed)), failures[:5]


def test_criterion_2_dimension_formula():
    bad = []
    for g, k in GRID:
        chart = ch.ModuliChart(g, tuple("c%d" % i for i in range(1, k + 1)))
        defects = suites.dimension_defects(
            chart, (su2.mix_seed(2, g, k, t) for t in range(100)), ch.SVD_RTOL)
        bad.extend((g, k) + d for d in defects)
    assert _line(2, "dimension-formula", not bad), bad[:5]


def test_criterion_3_moment_equivariance():
    worst = 0.0
    for g, k in GRID:
        chart = ch.ModuliChart(g, tuple("c%d" % i for i in range(1, k + 1)),
                               frozenset(("c1",)))
        worst = max(worst, suites.equivariance_worst(
            chart, (su2.mix_seed(3, g, k, t) for t in range(1000))))
    assert _line(3, "moment-equivariance", worst < 1e-9, "(worst %.2e)" % worst)


def test_criterion_4_gluing_round_trip():
    chart1 = ch.ModuliChart(1, ("x1", "glue"), frozenset(("x1",)))
    chart2 = ch.ModuliChart(0, ("y1", "glue", "y2"), frozenset(("glue",)))
    worst, relation_worst, excluded = suites.round_trip(
        chart1, chart2, "glue", (su2.mix_seed(4, t) for t in range(1000)))
    ok = worst < 1e-9 and relation_worst < 1e-10
    assert _line(4, "gluing-round-trip", ok,
                 "(worst %.2e, relation %.2e, %d near-locus rejects)"
                 % (worst, relation_worst, excluded))


def test_criterion_5_coisotropic_codimension():
    cases = [
        (ch.ModuliChart(1, ("c1",)), Word(0, (("a", 1, 1),))),
        (ch.ModuliChart(1, ("c1",)), Word(0, (("b", 1, 1),))),
        (ch.ModuliChart(1, ("c1", "c2")), Word(0, (("a", 1, 1),))),
        (ch.ModuliChart(2, ("c1",)), Word(0, (("a", 2, 1),))),
        (ch.ModuliChart(0, ("c1", "c2", "c3")), Word(0, (("d", "c2", 1),))),
    ]
    all_ok = True
    for idx, (chart, word) in enumerate(cases):
        clean, rejects = suites.locus_ranks(
            chart, [word], (su2.mix_seed(5, idx, t) for t in range(100)), ch.SVD_RTOL)
        all_ok = all_ok and clean >= 95
        print("    case %d: %d/100 rank-3 points, %d rejects" % (idx, clean, rejects))
    assert _line(5, "coisotropic-codimension", all_ok)


def test_criterion_6_handle_cancellations():
    inst = HamInstance()
    # 1-2 pair merges to the diagonal and normalizes away
    pair = cb.apply_move(cylinder_seq(cat._annulus_chain(0)), Move("create12", 0, (0, 0)))
    d = fn.eval2(pair, inst)
    up, down = (face.morph for _, face in d.faces)
    merged = inst.try_compose2_vertical(up, down)
    sym_ok = merged is not None and merged.kind == "diagonal"
    sym_ok = sym_ok and normalize_mod_equiv(d, inst).faces == ()
    # 0-1 three-step pattern normalizes to the empty diagram
    trio = cb.apply_move(cylinder_seq(cat._capped_chain()), Move("create01", 0, (0, "ball")))
    d01 = fn.eval2(trio, inst)
    sym_ok = sym_ok and normalize_mod_equiv(d01, inst).faces == ()
    # numeric: points on {A1 = B1 = 1} project to equal points both ways
    mid_sym = up.tgt[0]
    mid_chart = fn.chart_for(mid_sym.components[0])
    words = [Word(0, (("a", 1, 1),)), Word(0, (("b", 1, 1),))]
    q = ch.sample_on_locus(mid_chart, words, su2.mix_seed(6, np.arange(100, dtype=np.uint64)))
    mapping = {small: big for small, big in down.transfer}
    small_chart = fn.chart_for(down.tgt[0].components[0])
    via_down = xc._project_through_compression(q, small_chart, mapping)
    up_map = {small: big for small, big in up.transfer}
    via_up = xc._project_through_compression(q, fn.chart_for(up.src[0].components[0]), up_map)
    _, r = ch.gauge_equivalent(via_down, via_up)
    _, rm = fn.membership(down, [{0: q}], [{0: via_down}])
    worst = max(su2.largest(r), rm)
    num_ok = worst < 1e-9
    assert _line(6, "handle-cancellations", sym_ok and num_ok, "(worst %.2e)" % worst)


def test_criterion_7_cerf_invariance():
    all_ok = True
    for name, y1, moves in cat.cerf_move_catalog():
        y2 = cb.apply_moves(y1, moves)
        records = fn.invariance_check(y1, y2, moves)
        ok = all(r[1] for r in records)
        if not ok:
            print("    move %s failed: %r" % (name, records))
        all_ok = all_ok and ok
    y1, y2 = cat.negative_control()
    records = fn.invariance_check(y1, y2, [])
    negative_ok = any(name == "normal-forms-equal" and not ok for name, ok, _ in records)
    assert _line(7, "cerf-invariance", all_ok and negative_ok,
                 "(%d moves, negative control fails as expected)"
                 % len(cat.cerf_move_catalog()))


def test_criterion_8_deterministic_reports(tmp_path):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    pairs = []
    for argv in (
        ["moduli", "--grid", "1,2", "--trials", "25", "--samples", "10", "--seed", "11"],
        ["functor", "invariance", str(DATA / "cancel12.cdf"), "--seed", "11"],
    ):
        _, first = run(argv)
        _, second = run(argv)
        pairs.append(first == second and len(first) > 0)
    assert _line(8, "deterministic-reports", all(pairs))
