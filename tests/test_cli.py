import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chart_reference import unflatten_point
from report_reference import escape_by_character
from cobord2 import catfile, cli, report
from cobord2 import cobordism as cb
from cobord2.catfile import parse_catalog
from cobord2.cdf import ParseError, parse_cdf, parse_word
from cobord2.cobordism import Move, apply_move, cylinder_seq
from cobord2.report import RunConfig

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "cobord2" / "data"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments by exiting
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parse_word_round_trip():
    w = parse_word(["a1", "b2-", "d:c0", "g:mid-"])
    assert ("a", 1, 1) in w.gens
    assert ("b", 2, -1) in w.gens
    with pytest.raises(ParseError):
        parse_word(["zz"])


def test_parse_catalog_default():
    doc = parse_catalog((DATA / "axioms_default.cat").read_text())
    assert "q8" in doc.groups
    assert doc.depth == 4
    assert doc.sequences


def test_parse_catalog_rejects_bad_table():
    text = "@groups\nbad table 2 0 1 1 1\n"
    with pytest.raises(ParseError):
        parse_catalog(text)


def test_parse_cdf_cylinder():
    doc = parse_cdf((DATA / "cylinder.cdf").read_text())
    seq = doc.sequence()
    assert len(seq) == 1
    assert seq[0].kind == "cylinder"


def test_parse_cdf_solid_torus():
    doc = parse_cdf((DATA / "solid_torus.cdf").read_text())
    seq = doc.sequence()
    assert len(seq) == 2


def test_cdf_steps_equal_move_calculus_steps():
    ball = parse_cdf((DATA / "ball_cancel.cdf").read_text())
    assert ball.steps == apply_move(cylinder_seq(ball.chain), Move("create01", 0, (0, "ball")))
    pair = parse_cdf((DATA / "cancel12.cdf").read_text())
    assert pair.steps == apply_move(cylinder_seq(pair.chain), Move("create12", 0, (0, 0)))
    annulus = "@circles\nc0 +\nc1 +\n@surfaces\nann comp g=1 in=c0 out=c1\n@chain ann\n@steps\n"
    fine = parse_cdf(annulus + "circle_insert 0 mid 0 1\ncircle_remove 0 mid\n")
    assert fine.steps == apply_move(
        cylinder_seq(fine.chain) * 2, Move("circle_insert", 1, (0, 1, "mid")))
    with pytest.raises(ParseError):
        parse_cdf(annulus + "circle_insert 1 mid 0 1\n")


def test_cli_functor_eval_cylinder(tmp_path):
    code, out, err = run_cli(["functor", "eval", str(DATA / "cylinder.cdf")])
    assert code == 0
    assert '"suite":"functor-eval"' in out


def test_cli_functor_invariance_pass_and_fail():
    code, out, _ = run_cli(["functor", "invariance", str(DATA / "cancel12.cdf")])
    assert code == 0
    code2, out2, _ = run_cli(["functor", "invariance", str(DATA / "negative_control.cdf")])
    assert code2 == 1
    assert '"status":"fail"' in out2


def test_cli_ball_cancellation_document():
    code, out, _ = run_cli(["functor", "invariance", str(DATA / "ball_cancel.cdf")])
    assert code == 0
    code2, out2, _ = run_cli(["functor", "eval", str(DATA / "ball_cancel.cdf")])
    assert code2 == 0
    assert "normal faces 0" in out2


def test_parse_cdf_three_handle_round():
    text = "\n".join(
        [
            "@circles",
            "c1 +",
            "@surfaces",
            "cap comp g=0 in= out=c1",
            "@chain cap",
            "@steps",
            "zero_handle 0 ball",
            "three_handle 0 ball",
        ]
    )
    doc = parse_cdf(text)
    seq = doc.sequence()
    assert seq[0].kind == "zero_handle"
    assert seq[1].kind == "three_handle"
    assert seq[1].target == seq[0].source


def test_cli_moduli_small_grid_deterministic(tmp_path):
    argv = ["moduli", "--grid", "0,2", "--trials", "5", "--seed", "7"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run_cli(argv + ["--out", str(f1)])
    code2, _, _ = run_cli(argv + ["--out", str(f2)])
    assert code1 == 0 and code2 == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_cli_moduli_point_dump_round_trips():
    import cobord2.charts as ch
    import json

    code, out, _ = run_cli(
        ["moduli", "--grid", "1,2", "--trials", "2", "--seed", "5", "--dump-points"]
    )
    assert code == 0
    record = next(
        c for c in json.loads(out)["checks"] if c["name"].startswith("point-dump")
    )
    values = [float(v) for v in record["detail"].split(",")]
    chart = ch.ModuliChart(1, ("c1", "c2"), frozenset(("c1",)))
    p = unflatten_point(chart, values)
    assert ch.relation_residual(p) < 1e-10


def test_cli_moduli_absurd_tolerance_fails():
    code, out, _ = run_cli(
        ["moduli", "--grid", "1,1", "--trials", "3", "--tol-residual", "1e-30"]
    )
    assert code == 1


def test_cli_axioms_small_catalog(tmp_path):
    text = "\n".join(
        [
            "@groups",
            "z2 cyclic 2",
            "@bisets",
            "id identity z2",
            "reg biregular z2",
            "@sequences",
            "id id",
            "reg reg",
            "@depth 3",
        ]
    )
    path = tmp_path / "small.cat"
    path.write_text(text)
    code, out, _ = run_cli(["axioms", str(path)])
    assert code == 0
    assert '"counts"' in out


def test_cli_axioms_corrupt_catalog(tmp_path):
    path = tmp_path / "bad.cat"
    path.write_text("@groups\nbad table 2 0 1 1 1\n")
    code, _, err = run_cli(["axioms", str(path)])
    assert code == 2


@pytest.mark.parametrize("group, message", [
    ("z cyclic 0", "no identity element"),
    ("z cyclic -3", "no identity element"),
    ("z table 0", "no identity element"),
    ("z table -1 0", "no identity element"),
    ("z table 2 0 1 1 " + "9" * 23, "malformed multiplication table"),
    ("z table 2 0 1 1 -1", "malformed multiplication table"),
    ("z table 2 0 1 1 1", "element 1 has no inverse"),
    ("z table 3 0 1 2 1 2 0 2 1 0", "not associative"),
], ids=["cyclic-0", "cyclic-negative", "table-0", "table-negative", "table-23-digit-entry",
        "table-negative-entry", "table-without-inverse", "table-not-associative"])
def test_cli_axioms_names_each_group_table_error(tmp_path, group, message):
    path = tmp_path / "doc.cat"
    path.write_text("@groups\n%s\n" % group)
    assert run_cli(["axioms", str(path)]) == (2, "", "error: line 2: z: %s\n" % message)


@pytest.mark.parametrize("lines, builder, entries", [
    (["z cyclic 100000"], "cyclic", 10 ** 10),
    (["a cyclic 300", "b cyclic 300", "z product a b"], "product_group", 300 ** 4),
    (["a cyclic 128", "@bisets", "z biregular a"], "biregular_biset", 128 ** 3),
    (["a cyclic 33", "@bisets", "z pants a"], "pants_biset", 33 ** 4),
    (["a cyclic 33", "@bisets", "z copants a"], "copants_biset", 33 ** 4),
], ids=["cyclic", "product", "biregular", "pants", "copants"])
def test_cli_axioms_refuses_oversized_tables_before_building(tmp_path, monkeypatch, lines,
                                                             builder, entries):
    # the builder of the refused line fails the test if called, so
    # nothing of its size is ever allocated
    monkeypatch.setattr(catfile.bs, builder, lambda *args: pytest.fail("%s called" % builder))
    path = tmp_path / "doc.cat"
    path.write_text("\n".join(["@groups"] + lines) + "\n")
    assert run_cli(["axioms", str(path)]) == (2, "", "error: line %d: z: %d table entries exceed "
                                                     "the cap of %d\n" % (len(lines) + 1, entries,
                                                                          catfile.TABLE_CAP))
    # the cap itself is allowed
    catfile._capped("z", catfile.TABLE_CAP)


@pytest.mark.parametrize("lines", [
    ["z cyclic 1024"],
    ["a cyclic 32", "b cyclic 32", "z product a b"],
], ids=["cyclic", "product"])
def test_parse_catalog_checks_a_group_at_the_cap_quickly(lines):
    # associativity is checked by Light's test on generators, n**2 work
    # each; checking every triple took about 10 s for either group
    start = time.perf_counter()
    doc = parse_catalog("\n".join(["@groups"] + lines) + "\n")
    assert time.perf_counter() - start < 1.0
    assert doc.groups["z"].order ** 2 == catfile.TABLE_CAP


def test_cli_axioms_empty_catalog_trivially_passes(tmp_path):
    path = tmp_path / "empty.cat"
    path.write_text("@groups\n")
    code, out, _ = run_cli(["axioms", str(path)])
    assert code == 0


def test_cli_main_calls_share_one_parser_and_keep_nothing(monkeypatch):
    # main builds its parser once per process; each call must still give
    # the report and exit code of a run whose parser is built fresh
    import json

    runs = [
        ["moduli", "--grid", "1,2", "--trials", "3", "--seed", "4", "--samples", "2"],
        # no --seed: COBORD2_SEED, not the 4 above, seeds this one, and it fails
        ["moduli", "--grid", "1,1", "--trials", "3", "--tol-residual", "1e-30"],
        ["functor", "eval", str(DATA / "cylinder.cdf")],
        ["moduli", "--grid", "0,2", "--trials", "2"],
    ]
    monkeypatch.setenv("COBORD2_SEED", "11")
    shared = [run_cli(argv)[:2] for argv in runs]
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run_cli(argv)[:2])
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 1, 0, 0]
    assert [json.loads(out)["config"]["seed"] for _, out in shared] == [4, 11, 11, 11]
    assert json.loads(shared[3][1])["config"]["trials"] == 2


def test_cli_env_seed_override(tmp_path, monkeypatch):
    f1, f2, f3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    monkeypatch.setenv("COBORD2_SEED", "99")
    run_cli(["moduli", "--grid", "0,2", "--trials", "2", "--out", str(f1)])
    monkeypatch.delenv("COBORD2_SEED")
    run_cli(["moduli", "--grid", "0,2", "--trials", "2", "--seed", "99", "--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()
    # explicit flag beats the environment
    monkeypatch.setenv("COBORD2_SEED", "1")
    run_cli(["moduli", "--grid", "0,2", "--trials", "2", "--seed", "99", "--out", str(f3)])
    assert f3.read_bytes() == f2.read_bytes()


NEGATIVE_WITHOUT_LAST_LINE = "".join(
    (DATA / "negative_control.cdf").read_text().splitlines(keepends=True)[:-1]
)


GENUS_ONE_ANNULUS = (
    "@circles\nc0 +\nc1 +\n@surfaces\nann comp g=1 in=c0 out=c1\n@chain ann\n@steps\n"
)

BALL_CANCEL_STEPS = (
    "@circles\nc1 +\n@surfaces\ncap comp g=0 in= out=c1\n@chain cap\n@steps\n"
    "zero_handle 0 mid\ncompression1 1.0 2.0\ncircle_remove 0 mid\n@moves\n"
)

# c0 ends item 0, and m2 joins items 1 and 2 before it is removed again
M2_ACROSS_ITEMS = (
    "@circles\nc0 +\nc1 +\n@surfaces\np comp g=0 in=c0\nq comp g=0 out=c1\n@chain p q\n"
    "@steps\nzero_handle 1 m2\ncompression1 2.0 3.0\ncircle_remove 1 m2\n@moves\n"
)

# a UTF-16 file (its byte-order mark is ff fe), which is not UTF-8
NOT_UTF8_CDF = "@manifold solid_torus\n".encode("utf-16")
NOT_UTF8_CAT = "@depth 2\n".encode("utf-16")

FUNCTOR_INVARIANCE = ("functor", "invariance", "doc.cdf")
FUNCTOR_EVAL = ("functor", "eval", "doc.cdf")
AXIOMS = ("axioms", "doc.cat")


def write_input(path, text) -> str:
    """Write an input file's text (str) or raw bytes to path; its name."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


def moduli(*options):
    """A moduli command line with no input file (its text is None)."""
    return ("moduli",) + options


@pytest.mark.parametrize(
    "command, text, code",
    [
        (FUNCTOR_INVARIANCE, "@circles\nc0 +\n@manifold\n", 2),
        (FUNCTOR_INVARIANCE, "@circles\nc0 +\n@surfaces\nann\n", 2),
        (FUNCTOR_EVAL, "@circles\nc0 +\n@surfaces\ncap comp g=0\n@chain cap\n", 2),
        (FUNCTOR_EVAL, "@circles\nc0 +\n@surfaces\ncap comp g=x out=c0\n@chain cap\n", 2),
        (FUNCTOR_EVAL, "@circles\nc0 +\n@surfaces\ncap comp g=-1 out=c0\n@chain cap\n", 2),
        # @steps2 ends on a different boundary than @steps: a failed check
        (FUNCTOR_INVARIANCE, NEGATIVE_WITHOUT_LAST_LINE, 1),
        (AXIOMS, "@groups\nz2\n", 2),
        (AXIOMS, "@groups\nz2 cyclic\n", 2),
        (AXIOMS, "@groups\nz2 cyclic 2\n@bisets\nm identity\n", 2),
        (AXIOMS, "@depth\n", 2),
        (AXIOMS, "@depth x\n", 2),
        (AXIOMS, "@groups\nz2 cyclic 2\nz3 cyclic 3\n@bisets\na identity z2\n"
                 "b identity z3\n@sequences\na b\n", 2),
        (FUNCTOR_EVAL, "@circles\nc0 +\nc1 +\n@surfaces\nx comp g=0 in=c0 out=c1\n"
                       "y comp g=0 in=c0 out=c1\n@chain x y\n@steps\ncircle_remove 0 c1\n", 2),
        (FUNCTOR_EVAL, GENUS_ONE_ANNULUS + "compression2 0 0 a3\n", 2),
        (FUNCTOR_INVARIANCE, GENUS_ONE_ANNULUS + "compression2 0 0 a3\n", 2),
        (FUNCTOR_INVARIANCE, GENUS_ONE_ANNULUS + "compression2 0 0 d:c0 a3 b3 a3- b3-\n", 2),
        (moduli("--trials", "0"), None, 2),
        (moduli("--grid", "1"), None, 2),
        (moduli("--grid", "0,0"), None, 2),
        (moduli("--grid=-1,2"), None, 2),
        (moduli("--tol-residual", "0"), None, 2),
        (moduli("--tol-svd", "nan"), None, 2),
        (moduli("--samples", "0"), None, 2),
        (moduli("--samples", "-3"), None, 2),
        (("functor", "eval", "--samples", "0", "doc.cdf"), GENUS_ONE_ANNULUS, 2),
        # found by test_cli_survives_mutated_shipped_inputs
        (FUNCTOR_EVAL, "@manifold solid_torus solid_torus solid_torus\n", 2),
        (FUNCTOR_EVAL, "@manifold closed_surface\n", 2),
        (FUNCTOR_EVAL, "@manifold closed_surface -1\n", 2),
        (AXIOMS, "@depth 0\n", 2),
        (AXIOMS, "@depth -3\n", 2),
        (FUNCTOR_EVAL, NOT_UTF8_CDF, 2),
        (AXIOMS, NOT_UTF8_CAT, 2),
        (FUNCTOR_INVARIANCE, BALL_CANCEL_STEPS + "cancel01 -1\n", 2),
        (FUNCTOR_INVARIANCE, GENUS_ONE_ANNULUS + "compression2 0 0 b1\ncompression1 0.0 0.0\n"
                                                 "@moves\ncancel12 -1\n", 2),
        (FUNCTOR_INVARIANCE, BALL_CANCEL_STEPS + "relabel 0 mid\n", 2),
        (FUNCTOR_INVARIANCE, BALL_CANCEL_STEPS + "relabel 0 mid=c1\n", 2),
        (FUNCTOR_INVARIANCE, M2_ACROSS_ITEMS + "relabel 0 m2=c0\n", 2),
        # found by test_cli_survives_appended_moves
        (FUNCTOR_INVARIANCE, BALL_CANCEL_STEPS + "cancel01 0\ncreate01 0 0 c1\n", 2),
        (FUNCTOR_INVARIANCE, BALL_CANCEL_STEPS + "cancel01 0\ncreate23 0 0 c1\n", 2),
    ],
    ids=["manifold-without-name", "surface-without-components", "component-without-circles",
         "component-genus-not-integer", "component-negative-genus", "steps2-boundary-mismatch",
         "group-without-kind", "group-without-order", "biset-without-group",
         "depth-without-value", "depth-not-integer", "sequence-not-chaining",
         "circle-remove-across-different-interfaces", "eval-handle-past-genus",
         "invariance-handle-past-genus", "invariance-separating-handle-past-genus",
         "moduli-zero-trials", "moduli-grid-without-k", "moduli-grid-without-boundary",
         "moduli-grid-negative-genus", "moduli-zero-residual-tolerance",
         "moduli-nan-svd-tolerance", "moduli-zero-samples", "moduli-negative-samples",
         "functor-zero-samples", "solid-torus-extra-label", "closed-surface-without-genus",
         "closed-surface-negative-genus", "depth-zero", "depth-negative", "eval-not-utf8",
         "axioms-not-utf8", "cancel01-negative-position", "cancel12-negative-position",
         "relabel-without-equals", "relabel-onto-a-kept-label",
         "relabel-onto-the-outer-boundary", "create01-label-in-use", "create23-label-in-use"],
)
def test_cli_malformed_cdf_exits_without_traceback(tmp_path, command, text, code):
    argv = list(command)
    if text is not None:
        argv[-1] = write_input(tmp_path / argv[-1], text)
    # in-process: an exception escaping cli.main fails the test by itself
    got, _, err = run_cli(argv)
    assert got == code
    assert "Traceback" not in err
    if code == 2:
        assert "error: " in err


def test_parse_catalog_refuses_a_depth_that_closes_no_loop():
    # a loop needs two moves to close
    for depth in ("1", "0", "-3"):
        with pytest.raises(ParseError, match=r"^line 2: @depth must be at least 2$"):
            parse_catalog("# a comment\n@depth %s\n" % depth)
    assert parse_catalog("@depth 2\n").depth == 2


@pytest.mark.parametrize("depth", ["1", "0", "-1"])
def test_cli_axioms_refuses_a_depth_that_closes_no_loop(depth):
    code, out, err = run_cli(["axioms", str(DATA / "axioms_default.cat"), "--depth=" + depth])
    assert code == 2 and out == ""
    assert "argument --depth: must be >= 2, got %s" % depth in err
    assert "Traceback" not in err


def test_cli_axioms_at_depth_two_closes_loops():
    code, out, _ = run_cli(["axioms", str(DATA / "axioms_default.cat"), "--depth", "2"])
    assert code == 0
    assert '"13 loops"' in out


def test_cli_non_integer_env_seed_exits_2(monkeypatch):
    monkeypatch.setenv("COBORD2_SEED", "abc")
    assert run_cli(["moduli", "--grid", "1,1", "--trials", "1", "--samples", "1"]) == (
        2, "", "error: COBORD2_SEED must be an integer, got 'abc'\n")


@pytest.mark.parametrize("command, text", [
    (FUNCTOR_EVAL, "@circles\nc0 +\n@surfaces\ncap comp g=0\n@chain cap\n"),
    (moduli("--trials", "0"), None),
    (FUNCTOR_EVAL, NOT_UTF8_CDF),
    (AXIOMS, NOT_UTF8_CAT),
], ids=["component-without-circles", "moduli-zero-trials", "eval-not-utf8", "axioms-not-utf8"])
def test_cli_module_exits_2_without_traceback(tmp_path, command, text):
    # `python -m cobord2.cli` passes main's exit code, and argparse's, to the shell
    argv = list(command)
    if text is not None:
        argv[-1] = write_input(tmp_path / argv[-1], text)
    proc = subprocess.run(
        [sys.executable, "-m", "cobord2.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr


@pytest.mark.parametrize("command, text", [(FUNCTOR_EVAL, NOT_UTF8_CDF), (AXIOMS, NOT_UTF8_CAT)],
                         ids=["eval", "axioms"])
def test_cli_names_an_input_that_is_not_utf8(tmp_path, command, text):
    argv = list(command)
    argv[-1] = write_input(tmp_path / argv[-1], text)
    assert run_cli(argv) == (2, "", "error: %s is not UTF-8 text\n" % argv[-1])


SMALL_MODULI = ["moduli", "--grid", "1,1", "--trials", "2", "--samples", "2"]


def test_cli_out_in_a_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "x.json"
    assert run_cli(SMALL_MODULI + ["--out", str(out)]) == (
        2, "", "error: cannot write %s: No such file or directory\n" % out)
    assert not out.parent.exists()


def test_cli_out_naming_a_directory_exits_2(tmp_path):
    assert run_cli(SMALL_MODULI + ["--out", str(tmp_path)]) == (
        2, "", "error: cannot write %s: Is a directory\n" % tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cli_closed_stdout_exits_2_without_traceback():
    # a reader that is gone before the report is written, as in `cmd |
    # true`: the write and the flush at exit must not end in a traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cobord2.cli", "functor", "eval", str(DATA / "cylinder.cdf")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: cannot write the report: stdout is closed\n"


def test_cli_out_leaves_no_partial_report(tmp_path, monkeypatch):
    # a disk that fills after the first bytes: the file is removed
    def filling_open(path, mode, **kwargs):
        fh = open(path, mode, **kwargs)

        def write(text):
            fh.buffer.write(text[:10].encode("utf-8"))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", filling_open, raising=False)
    out = tmp_path / "x.json"
    assert run_cli(SMALL_MODULI + ["--out", str(out)]) == (
        2, "", "error: cannot write %s: No space left on device\n" % out)
    assert list(tmp_path.iterdir()) == []


def test_cli_move_chain_emptying_the_sequence_is_refused(tmp_path):
    # cyl_cancel of cylinder.cdf's only step: the move chain is at fault,
    # not the steps, which parsed
    path = tmp_path / "doc.cdf"
    path.write_text((DATA / "cylinder.cdf").read_text() + "@moves\ncyl_cancel 0\n")
    assert run_cli(["functor", "invariance", str(path)]) == (
        2, "", "error: move chain does not apply: cyl_cancel of the only step leaves no steps\n")


ANNULUS = "@circles\nc0 +\nc1 +\n@surfaces\nann comp g=0 in=c0 out=c1\n@chain ann\n"


@pytest.mark.parametrize("steps2, moves, code, verdict", [
    # create12 expands the cylinder into exactly the cancelling pair
    ("compression1 0.0 0.0\ncompression2 0 0 b1\n", "create12 0 0 0\n", 0, "pass"),
    # the negative control's pair runs along the belt, not its dual
    ("compression1 0.0 0.0\ncompression2 0 0 a1\n", "create12 0 0 0\n", 1, "fail"),
], ids=["chain-reaches-steps2", "chain-misses-steps2"])
def test_cli_checks_moves_beside_steps2(tmp_path, steps2, moves, code, verdict):
    path = tmp_path / "doc.cdf"
    path.write_text(ANNULUS + "@steps\ncylinder\n@steps2\n" + steps2 + "@moves\n" + moves)
    got, out, err = run_cli(["functor", "invariance", str(path)])
    assert got == code and "Traceback" not in err
    record = json.loads(out)["checks"][0]
    assert (record["name"], record["status"]) == ("invariance/move-chain", verdict)


@pytest.mark.parametrize("steps2, code", [
    ("compression1 0.0 0.0\ncompression2 0 0 b1\n", 0),
    ("compression1 0.0 0.0\ncompression2 0 0 a1\n", 1),
], ids=["chain-reaches-steps2", "chain-misses-steps2"])
def test_cli_derives_the_move_chain_beside_steps2_once(monkeypatch, tmp_path, steps2, code):
    calls = []

    def counting(seq, move):
        calls.append(move)
        return apply_move(seq, move)

    monkeypatch.setattr(cb, "apply_move", counting)
    path = tmp_path / "doc.cdf"
    path.write_text(ANNULUS + "@steps\ncylinder\n@steps2\n" + steps2 + "@moves\ncreate12 0 0 0\n")
    got, out, _ = run_cli(["functor", "invariance", str(path)])
    assert got == code
    assert calls == [Move("create12", 0, (0, 0))]
    if code:
        record = json.loads(out)["checks"][0]
        assert record["detail"] == "the move chain does not produce the second sequence"


def test_cli_moves_that_do_not_apply_beside_steps2_exit_2(tmp_path):
    # the step at position 0 is a 1-handle, not the cylinder create12 needs
    path = tmp_path / "doc.cdf"
    path.write_text(ANNULUS + "@steps\ncompression1 0.0 0.0\ncompression2 0 0 b1\n"
                    "@steps2\ncylinder\n@moves\ncreate12 0 0 0\n")
    assert run_cli(["functor", "invariance", str(path)]) == (
        2, "", "error: move chain does not apply: no cylinder at position 0\n")


@pytest.mark.parametrize("mode, calls", [("eval", 1), ("invariance", 2)])
def test_functor_validates_each_sequence_once(monkeypatch, mode, calls):
    seen = []

    def counting(seq):
        seen.append(seq)
        return []

    monkeypatch.setattr(cb, "validate", counting)
    code, _, _ = run_cli(["functor", mode, str(DATA / "cancel12.cdf")])
    assert code == 0
    assert len(seen) == calls


@pytest.mark.parametrize("mode", ["eval", "invariance"])
def test_functor_invalid_sequence_exits_2(monkeypatch, mode):
    monkeypatch.setattr(cb, "validate", lambda seq: ["steps 0-1: decompositions do not match"])
    code, out, err = run_cli(["functor", mode, str(DATA / "cancel12.cdf")])
    assert code == 2
    assert out == ""
    assert "decompositions do not match" in err


@pytest.mark.parametrize("field", ["trials", "samples"])
def test_run_config_rejects_counts_below_one(field):
    for bad in (0, -3):
        with pytest.raises(ValueError):
            RunConfig(**{field: bad})


def test_report_escape_matches_the_character_loop():
    specials = [chr(c) for c in range(0x20)] + ['"', "\\"]
    plain = ["", "plain", "x\x7f", "caf\u00e9", " ~"]
    for text in plain + specials + ["a%sb" % ch for ch in specials] + ["".join(specials)]:
        assert report._escape(text) == escape_by_character(text)
    # a string with nothing to escape comes back as it is
    assert all(report._escape(text) is text for text in plain)


# --- hostile inputs: mutated shipped files through cli.main ----------------------------

FUZZ_FILES = sorted(DATA.glob("*.cdf")) + [DATA / "axioms_default.cat"]


@st.composite
def _mutated(draw):
    """(shipped file, its text with lines and tokens deleted, repeated
    and swapped)."""
    path = draw(st.sampled_from(FUZZ_FILES))
    lines = [line.split() for line in path.read_text().splitlines() if line.strip()]
    for _ in range(draw(st.integers(1, 4))):
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        op = draw(st.sampled_from(("delete", "repeat", "swap")))
        if draw(st.booleans()) or not lines[i]:
            if op == "delete" and len(lines) > 1:
                del lines[i]
            elif op == "repeat":
                lines.insert(i, list(lines[i]))
            else:
                lines[i], lines[j] = lines[j], lines[i]
            continue
        tokens = lines[i]
        a, b = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
        if op == "delete":
            del tokens[a]
        elif op == "repeat":
            tokens.insert(a, tokens[a])
        else:
            tokens[a], tokens[b] = tokens[b], tokens[a]
    return path, "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mutated(), st.sampled_from(("eval", "invariance")))
def test_cli_survives_mutated_shipped_inputs(case, mode):
    path, text = case
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / path.name
        target.write_text(text)
        if path.suffix == ".cat":
            argv = ["axioms", str(target), "--depth", "2"]
        else:
            argv = ["functor", mode, str(target), "--samples", "20"]
        # in-process: an exception escaping cli.main fails the test by itself
        code, _, err = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert "error: " in err


CDF_FILES = sorted(DATA.glob("*.cdf"))
# each move's arguments after its position: i an integer, l a label
MOVE_ARGS = {"relabel": "", "cyl_create": "", "cyl_cancel": "", "circle_insert": "iil",
             "circle_remove": "", "imbricate": "", "split_compression": "i", "switch": "",
             "cancel01": "", "create01": "il", "cancel23": "", "create23": "il",
             "cancel12": "", "create12": "ii"}
MOVE_LABELS = ("c0", "c1", "ball", "mid", "w1", "fresh")


@st.composite
def _move_line(draw):
    """One @moves line: a move with small positions, some negative,
    and labels in use or new; a relabel pair sometimes lacks its '=',
    and some lines have the wrong number of arguments."""
    kind = draw(st.sampled_from(sorted(MOVE_ARGS)))
    number = st.sampled_from(("-1", "0", "0", "1", "2", "3"))
    label = st.sampled_from(MOVE_LABELS)
    if draw(st.integers(0, 9)) == 0:
        args = draw(st.lists(st.one_of(number, label), max_size=4))
    elif kind == "relabel":
        pair = st.tuples(label, st.sampled_from(("=", "")), label).map("".join)
        args = [draw(number)] + draw(st.lists(pair, max_size=2))
    else:
        args = [draw(number if c == "i" else label) for c in "i" + MOVE_ARGS[kind]]
    return " ".join([kind] + args)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.sampled_from(CDF_FILES), st.lists(_move_line(), min_size=1, max_size=3))
def test_cli_survives_appended_moves(path, lines):
    text = path.read_text()
    if "@moves" not in text:
        text += "\n@moves\n"
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / path.name
        target.write_text(text + "\n".join(lines) + "\n")
        # in-process: an exception escaping cli.main fails the test by itself
        code, _, err = run_cli(["functor", "invariance", str(target), "--samples", "1"])
    assert code in (0, 1, 2)
    if code == 2:
        assert "error: " in err
