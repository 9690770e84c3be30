"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

Runs every workload with --size tiny (one start sequence; grid 1,1,
trials 5; one Cerf move, the negative control and negative_control.cdf),
untraced and traced, and checks that every metric BENCHMARK.json names
is printed with its unit.  Then checks that the correctness gate trips
when the negative control is wrongly expected to pass.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402

SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_printed_with_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in WORKLOADS:
            result = _run(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for key, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, key)


def test_gate_trips_on_wrong_expectation():
    program.load()
    import run
    import workloads

    def negative_expected_to_pass(seed, tiny):
        return [item._replace(expect="pass") if item.name == "negative-control" else item
                for item in workloads.build_functor(seed, tiny)]

    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "functor-moves", "--seed", "1", "--seconds", "0.5",
                         "--size", "tiny"], build=negative_expected_to_pass)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert "WRONG negative-control" in out.getvalue()


if __name__ == "__main__":
    test_every_metric_printed_with_unit()
    test_gate_trips_on_wrong_expectation()
    print("smoke ok")
