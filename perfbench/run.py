"""cobord2 benchmark: host-corrected time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

cobord2 is a verification engine, and what its users wait for is the
verdict.  The benchmark is a closed loop with one client in one Python
thread: it runs passes of one workload back to back, each pass starting
when the previous one ends, and starts no pass after --seconds have
passed (the pass in progress then finishes).  Every pass rebuilds its
inputs cold, with a freshly built catalog and a fresh LieRInstance,
because every command-line run pays the memo fill.  The program is driven only through public entry
points (cli.main, catalog.*, bisets.LieRInstance,
diagram.check_diagram_axiom, functor.invariance_check,
cobordism.apply_moves), never through the private cli._suite_*.

Workloads.  The seed feeds the program's --seed and
invariance_check(seed=); on the oracle it only permutes the order of the
start sequences.

* oracle-loops: acceptance criterion 1, that is
  catalog.default_biset_catalog(), every composable start sequence from
  loop_start_sequences, depth 4, 108 loops.  An item is one start
  sequence: enumerate_loops plus check_diagram_axiom on each of its
  loops.  It exists because bisets and diagram do almost all of the work
  here and none elsewhere.  Carrier products run from 1 to 4096 tuples
  and the three S3xS3 starts take most of the time, so a working-set-size
  effect is visible.
* moduli-grid: `cobord2 moduli` on the default 9-point grid, trials 1000,
  samples 100.  An item is one grid point, run as
  cli.main(["moduli", "--grid", "g,k", ...]).  The time goes to chart
  point operations (random_point, action/moment, glue/split, gauge
  fixing) and a small Jacobian/SVD share.  This is where batching per
  trial shows.
* moduli-highgenus: `cobord2 moduli` on the grid 4,2 4,3 6,2 6,3 8,2 8,3,
  trials 100, samples 100.  An item is one grid point.  It uses the same
  charts layer the other way round: the finite-difference
  relation_kernel_dim and locus_tangent plus SVD take most of the time.
  This is where analytic Jacobians show, and batching shows little.
* functor-moves: every entry of catalog.cerf_move_catalog() through
  invariance_check, catalog.negative_control() (expected to fail at
  normal-forms-equal), and every shipped .cdf through
  cli.main(["functor", "eval"|"invariance", ...]).  An item is one check
  or one command.  It exists only because cobordism, symcat and functor
  would otherwise go unmeasured.

Correctness gate.  Every item's verdict is compared with the expected
one: every check passes, with exit code 0, on oracle-loops and both
moduli workloads; the loop count is exactly 108; every Cerf move passes
and both the negative control and negative_control.cdf fail at
normal-forms-equal, with exit code 1 from the command line.  An item
whose verdict differs, or that raises, is wrong; wrong_verdict_ratio is
wrong items over items attempted, and any wrong item makes the run exit
1.  A SHA-256 over each pass's reports is kept as a diagnostic of
ulp-level drift; it is not a gate.

Host correction.  A fixed pure-Python reference reading (host.py) runs
right before and after every pass and between items at least every
0.25 s.  Every end-to-end time is raw time x (nominal reading time / the
readings next to it).  Raw numbers are kept as diagnostics (host.ref_ms,
host.raw_pass_s).

End-to-end metrics (--trace 0): pass_s, the median corrected seconds of
one pass (time to verdict); item_p50_ms and item_p90_ms over all items
of all passes (p50 follows per-call overhead on small inputs, p90
per-element work on large ones); setup_s, the median over fresh
interpreters of importing cobord2.cli and building one pass's inputs;
peak_rss_mb of the process running the workload, less the footprint of
the host reference's lookup table.

Per-layer metrics (--trace 1) come from a separate run that alternates
untraced and traced passes (layers.py).  Calls and counters are those of
the first traced pass, so they repeat exactly at the same seed; self
times are medians over traced passes.  The run writes every span and a
per-layer table to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics ({name: {value, unit}}).  --workload all runs the four
workloads one after another, each in its own process, and prefixes the
metric names with the workload's.  Exit codes: 0 every verdict right,
1 a verdict wrong, 2 no cobord2 sources in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import host
import program

HERE = Path(__file__).resolve().parent
OUT_DIR = program.ROOT / ".perfbench_out"
WORKLOADS = ("oracle-loops", "moduli-grid", "moduli-highgenus", "functor-moves")
SETUP_RUNS = 5

END_TO_END = {
    "pass_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PassResult:
    def __init__(self, items, outcomes, segments):
        # segments: [(raw_s, corrected_s, tag)], the build first, then one per item
        self.raw_s = sum(raw for raw, _, _ in segments)
        self.corrected_s = sum(corr for _, corr, _ in segments)
        self.latencies_ms = [corr * 1e3 for (_, corr, _), item in zip(segments[1:], items)
                             if not item.gate]
        self.raw_item_ms = {item.name: raw * 1e3 for (raw, _, _), item in zip(segments[1:], items)}
        self.item_ms = {item.name: corr * 1e3 for (_, corr, _), item in zip(segments[1:], items)}
        self.wrong = [(item.name, verdict, item.expect)
                      for item, (verdict, _) in zip(items, outcomes) if verdict != item.expect]
        self.attempted = len(items)
        self.digest = None


def report_digest(items, reports) -> str:
    """SHA-256 over the item reports in item-name order, so that a seed
    which only reorders items leaves it unchanged."""
    h = hashlib.sha256()
    for name, data in sorted(zip((i.name for i in items), reports)):
        h.update(name.encode())
        h.update(b"\0")
        h.update(data)
        h.update(b"\0")
    return h.hexdigest()


def run_pass(build, seed, tiny, clock) -> PassResult:
    first = len(clock.segments)
    clock.read()
    items = clock.timed("build", build, seed, tiny)
    outcomes = []
    for item in items:
        clock.maybe_read()
        try:
            outcomes.append(clock.timed(item.name, item.run))
        except Exception as exc:  # a crash is a wrong verdict, not the end of the run
            traceback.print_exc(file=sys.stderr)
            outcomes.append(("raised %s: %s" % (type(exc).__name__, exc), b""))
    clock.read()
    result = PassResult(items, outcomes, clock.corrected(clock.segments[first:]))
    result.digest = report_digest(items, [data for _, data in outcomes])
    return result


def measure_setup(name, seed, tiny, clock) -> list:
    """Corrected set-up seconds from SETUP_RUNS fresh interpreters."""
    out = []
    for _ in range(SETUP_RUNS):
        clock.read()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), "1" if tiny else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        t1 = time.perf_counter()
        clock.read()
        out.append(float(proc.stdout.strip().splitlines()[-1]) * clock.factor(t0, t1))
    return out


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_workload(name, seed, seconds, trace, tiny, build=None):
    """Measure one workload; returns (result object for the last line, diagnostics)."""
    import workloads

    build = build or workloads.BUILDERS[name]
    before = _max_rss_kb()
    clock = host.HostClock()
    reference_kb = _max_rss_kb() - before  # the reference table, not the program
    setup = [] if trace else measure_setup(name, seed, tiny, clock)
    plain, traced = [], []
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
    started = time.perf_counter()
    while True:
        plain.append(run_pass(build, seed, tiny, clock))
        if tracer is not None:
            tracer.begin_pass(len(traced) + 1)
            tracer.install()
            try:
                traced.append(run_pass(build, seed, tiny, clock))
            finally:
                tracer.uninstall()
        if time.perf_counter() - started >= seconds:
            break

    runs = plain + traced
    attempted = sum(p.attempted for p in runs)
    wrong = [w for p in runs for w in p.wrong]
    diag = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "size": "tiny" if tiny else "full",
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_s_samples": [p.corrected_s for p in plain],
        "raw_pass_s_samples": [p.raw_s for p in plain],
        "traced_raw_pass_s_samples": [p.raw_s for p in traced],
        "setup_s_samples": setup,
        "ref_ms_samples": clock.ref_ms,
        "item_samples": sum(len(p.latencies_ms) for p in plain),
        "item_ms": {k: [p.item_ms[k] for p in plain] for k in plain[0].item_ms},
        "raw_item_ms": {k: [p.raw_item_ms[k] for p in plain] for k in plain[0].raw_item_ms},
        "report_sha256": sorted({p.digest for p in runs}),
        "wrong_verdicts": wrong,
        "wrong_verdict_ratio": len(wrong) / attempted,
    }
    if trace:
        metrics = tracer.metrics(plain, traced, clock.ref_ms)
        diag["layers"] = tracer.table()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / ("spans-%s-seed%d.tsv" % (name, seed)))
        (OUT_DIR / ("layers-%s-seed%d.txt" % (name, seed))).write_text(
            "\n".join(layer_lines(diag)) + "\n")
    else:
        latencies = [ms for p in plain for ms in p.latencies_ms]
        values = {
            "pass_s": statistics.median(diag["pass_s_samples"]),
            "item_p50_ms": statistics.median(latencies),
            "item_p90_ms": _quantile(latencies, 90),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": (_max_rss_kb() - reference_kb) / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    result = {"correct": not wrong, "attempted": attempted, "failed": len(wrong),
              "metrics": metrics}
    return result, diag


def layer_lines(diag) -> list:
    """The per-layer self-time table of a traced run, one line per span."""
    # spans are raw times, so shares are of the raw traced pass
    pass_s = statistics.median(diag["traced_raw_pass_s_samples"])
    lines = ["  %-36s %10s %10s %10s %7s" % ("layer span", "calls", "self_s", "total_s", "self%")]
    for span, calls, self_s, total_s in diag["layers"]:
        if calls:
            lines.append("  %-36s %10d %10.4f %10.4f %6.1f%%"
                         % (span, calls, self_s, total_s, 100.0 * self_s / pass_s))
    return lines


def print_report(result, diag):
    print("workload %s seed %d size %s: %d passes%s, %d items timed, %d verdicts"
          % (diag["workload"], diag["seed"], diag["size"], diag["passes"],
             " + %d traced" % diag["traced_passes"] if diag["trace"] else "",
             diag["item_samples"], result["attempted"]))
    if diag["trace"]:
        print("\n".join(layer_lines(diag)))
    samples = {"pass_s": diag["passes"], "setup_s": len(diag["setup_s_samples"]),
               "item_p50_ms": diag["item_samples"], "item_p90_ms": diag["item_samples"]}
    for key, metric in result["metrics"].items():
        n = samples.get(key)
        print("  %-36s %14.6g %-6s%s" % (key, metric["value"], metric["unit"],
                                         "  (n=%d)" % n if n else ""))
    print("  %-36s %14.6g        (%d wrong of %d)" % (
        "wrong_verdict_ratio", diag["wrong_verdict_ratio"], result["failed"], result["attempted"]))
    print("  raw pass_s %s, reference median %.3f ms" % (
        ", ".join("%.3f" % s for s in diag["raw_pass_s_samples"]),
        statistics.median(diag["ref_ms_samples"])))
    print("  report sha256 %s" % ", ".join(diag["report_sha256"]))
    for item, got, want in diag["wrong_verdicts"][:10]:
        print("  WRONG %s: got %r, expected %r" % (item, got, want))


def run_all(args) -> int:
    """Every workload, one after another, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print("workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None, build=None) -> int:
    """Entry point; build replaces the workload's item builder (for tests)."""
    parser = argparse.ArgumentParser(description="cobord2 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one start sequence, grid 1,1, trials 5 (smoke test)")
    args = parser.parse_args(argv)
    try:
        program.load()
    except program.ProgramMissing as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, diag = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                args.size == "tiny", build)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps({"result": result, "diagnostics": diag}, indent=1) + "\n")
    print_report(result, diag)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
