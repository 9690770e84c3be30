"""The benchmark's workloads: cold inputs for one pass, and the verdict
every item of the pass must reach.

A builder takes (seed, tiny) and returns the pass's items.  It does the
cold set-up a command-line run pays: parsing, a fresh catalog and a
fresh LieRInstance, so no memo survives from one pass to the next.
Items reach the program only through its public entry points.  Import
this module after program.load().
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

from cobord2 import bisets, catalog, cli, cobordism, diagram, functor

DEPTH = 4
ORACLE_LOOPS = 108  # acceptance criterion 1 at depth 4
DEFAULT_GRID = ("0,1", "0,2", "0,3", "1,1", "1,2", "1,3", "2,1", "2,2", "2,3")
HIGH_GENUS_GRID = ("4,2", "4,3", "6,2", "6,3", "8,2", "8,3")
NEGATIVE_VERDICT = "fail:normal-forms-equal"
NEGATIVE_CLI_VERDICT = "exit 1:invariance/normal-forms-equal"


class Item(NamedTuple):
    """One timed unit of a pass.  run() returns (verdict, report bytes);
    the item is right when the verdict equals expect.  A gate is checked
    like an item but does no work of its own, so it is left out of the
    latency figures."""

    name: str
    run: Callable[[], tuple]
    expect: str
    gate: bool = False


def _records_verdict(records) -> str:
    bad = [name for name, ok, _ in records if not ok]
    return "pass" if not bad else "fail:" + ",".join(bad)


def _run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    payload = out.getvalue()
    failing = [c["name"] for c in json.loads(payload)["checks"] if c["status"] != "pass"]
    if (code == 0) != (not failing):
        return "exit %d but failing checks %r" % (code, failing), payload.encode()
    verdict = "exit %d" % code + (":" + ",".join(failing) if failing else "")
    return verdict, payload.encode()


# --- oracle-loops ---------------------------------------------------------------------


def build_oracle(seed: int, tiny: bool) -> list:
    inst = bisets.LieRInstance(tuple(catalog.default_biset_catalog()))
    starts = catalog.loop_start_sequences(inst.catalog)
    if tiny:
        starts = [s for s in starts if len(s) == 2][:1]
    random.Random(seed).shuffle(starts)
    seen = {"loops": 0}

    def start_item(items):
        def run():
            start = inst.seq(items)
            bad = []
            lines = []
            for idx, loop in enumerate(catalog.enumerate_loops(inst, items, DEPTH)):
                seqs = [diagram.SeqMorphism(start.source, start.target, s) for s in loop]
                results = diagram.check_diagram_axiom(seqs, inst)
                seen["loops"] += 1
                bad.extend(name for name, ok, _ in results if not ok)
                lines.append("%d %s" % (idx, " ".join(
                    "%s=%d" % (name, ok) for name, ok, _ in results)))
            verdict = "pass" if not bad else "fail:" + ",".join(sorted(set(bad)))
            return verdict, "\n".join(lines).encode()
        return run

    out = [Item("+".join(m.name for m in s), start_item(s), "pass") for s in starts]
    expected = 2 if tiny else ORACLE_LOOPS
    out.append(Item("loops-enumerated", lambda: ("%d loops" % seen["loops"], b""),
                    "%d loops" % expected, gate=True))
    return out


# --- moduli-grid and moduli-highgenus ---------------------------------------------------


def _moduli_items(seed, grid, trials, samples) -> list:
    items = []
    for point in grid:
        argv = ["moduli", "--grid", point, "--trials", str(trials),
                "--samples", str(samples), "--seed", str(seed)]
        items.append(Item("g%s.k%s" % tuple(point.split(",")),
                          lambda argv=argv: _run_cli(argv), "exit 0"))
    return items


def build_moduli_grid(seed: int, tiny: bool) -> list:
    if tiny:
        return _moduli_items(seed, ("1,1",), 5, 5)
    return _moduli_items(seed, DEFAULT_GRID, 1000, 100)


def build_moduli_highgenus(seed: int, tiny: bool) -> list:
    if tiny:
        return _moduli_items(seed, ("1,1",), 5, 5)
    return _moduli_items(seed, HIGH_GENUS_GRID, 100, 100)


# --- functor-moves -----------------------------------------------------------------------


def _data_dir() -> Path:
    return Path(cli.__file__).resolve().parent / "data"


def build_functor(seed: int, tiny: bool) -> list:
    entries = catalog.cerf_move_catalog()
    good, bad = catalog.negative_control()
    cdfs = sorted(_data_dir().glob("*.cdf"))
    if tiny:
        entries = entries[:1]
        cdfs = [p for p in cdfs if p.name == "negative_control.cdf"]
    items = []
    for name, y1, moves in entries:
        def run(y1=y1, moves=moves):
            y2 = cobordism.apply_moves(y1, moves)
            records = functor.invariance_check(y1, y2, moves, seed=seed)
            return _records_verdict(records), repr(records).encode()
        items.append(Item("move/" + name, run, "pass"))

    def negative():
        records = functor.invariance_check(good, bad, [], seed=seed)
        return _records_verdict(records), repr(records).encode()
    items.append(Item("negative-control", negative, NEGATIVE_VERDICT))

    for path in cdfs:
        for mode in ("eval", "invariance"):
            argv = ["functor", mode, str(path), "--seed", str(seed)]
            expect = "exit 0"
            if path.name == "negative_control.cdf" and mode == "invariance":
                expect = NEGATIVE_CLI_VERDICT
            items.append(Item("%s/%s" % (mode, path.stem),
                              lambda argv=argv: _run_cli(argv), expect))
    return items


BUILDERS = {
    "oracle-loops": build_oracle,
    "moduli-grid": build_moduli_grid,
    "moduli-highgenus": build_moduli_highgenus,
    "functor-moves": build_functor,
}
