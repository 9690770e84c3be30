"""Per-layer tracing from outside the program.

The tracer wraps public functions of each layer, patching every name
under which a caller looks the function up: module-level functions are
replaced in every cobord2 module that holds them (charts, for example,
imports the su2 helpers by name), methods on their class, and the
quaternion kernel at cobord2._kernel.q* only, so that calls the kernel
makes to itself are not counted.  Coarse calls record a span (name,
start, end, parent span, pass id); hot tiny functions only count calls.
Spans stay in memory until the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np

from cobord2 import (
    _kernel,
    bisets,
    catalog,
    cdf,
    charts,
    cobordism,
    diagram,
    functor,
    report,
    su2,
    symcat,
)

KERNEL_OPS = ("qmul", "qexp", "qlog", "qrot", "qcomm", "qprod")

# (owner, attribute, metric prefix) for every span.
SPANS = (
    [(charts, n, "charts." + n) for n in (
        "random_point", "action", "moment", "glue", "split", "gauge_equivalent",
        "relation_kernel_dim", "locus_tangent", "sample_on_locus", "constraint_jacobian")]
    + [(bisets.LieRInstance, n, "bisets." + n) for n in (
        "probes", "transport_probe", "try_compose1", "enumerate_decompositions",
        "simple2_equal")]
    + [(bisets, "try_compose_bisets", "bisets.try_compose_bisets")]
    + [(diagram, n, "diagram." + n) for n in (
        "check_diagram_axiom", "composition_step", "normalize_diagram")]
    + [(catalog, "enumerate_loops", "catalog.enumerate_loops")]
    + [(symcat, n, "symcat." + n) for n in ("normalize_mod_equiv", "equal_2morphisms")]
    + [(functor, n, "functor." + n) for n in (
        "eval2", "invariance_check", "membership", "sample_face_points")]
    + [(cobordism, n, "cobordism." + n) for n in ("apply_moves", "validate")]
    + [(cdf, "parse_cdf", "cdf.parse_cdf"), (report, "report_json", "report.report_json")]
)

SPAN_NAMES = [name for _, _, name in SPANS]

# (owner, attribute, metric, propagate to by-name importers) for counts only.
COUNTS = (
    [(_kernel, n, "su2.%s.calls" % n, False) for n in KERNEL_OPS]
    + [(charts, "eval_word", "charts.eval_word.calls", True),
       (charts, "perturb", "charts.perturb.calls", True),
       (np.linalg, "svd", "charts.svd.calls", False),
       (np.linalg, "lstsq", "charts.lstsq.calls", False)]
)


# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = dict(
    [("su2.%s.calls" % op, "count") for op in KERNEL_OPS]
    + [("su2.%s.ns_per_op" % op, "ns") for op in KERNEL_OPS]
    + [(n + ".calls", "count") for n in SPAN_NAMES]
    + [(n + ".self_s", "s") for n in SPAN_NAMES]
    + [("charts.branch_rejects", "count"), ("charts.eval_word.calls", "count"),
       ("charts.perturb.calls", "count"), ("charts.svd.calls", "count"),
       ("charts.lstsq.calls", "count"), ("charts.locus_accept_ratio", "ratio"),
       ("bisets.probe_pairs", "count"), ("bisets.transported_pairs", "count"),
       ("bisets.compose_memo_hit_ratio", "ratio"), ("bisets.probe_memo_hit_ratio", "ratio"),
       ("catalog.loops", "count"), ("report.bytes", "bytes"),
       ("host.ref_ms", "ms"), ("host.raw_pass_s", "s"), ("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """Spans and counters of the traced passes of one run.  install()
    before a traced pass and uninstall() after it; begin_pass() first."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        # one entry per span, in start order
        self.s_name = array("H")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("l")
        self.s_pass = array("H")
        self._stack = []  # [span index, child ns]
        self.pass_id = 0
        self.counts = {}  # pass id -> Counter of calls and counters
        self.self_ns = {}  # pass id -> Counter of self time by span name
        self._patches = []
        self._seen_probe_lists = {}
        self._last_exc = None

    # -- spans and counts

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id
        self.counts[pass_id] = Counter()
        self.self_ns[pass_id] = Counter()
        self._seen_probe_lists = {}

    def _span(self, name, fn):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        calls_key = name + ".calls"
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer.pass_id]
            counts[calls_key] += 1
            idx = len(tracer.s_name)
            tracer.s_name.append(nid)
            tracer.s_parent.append(stack[-1][0] if stack else -1)
            tracer.s_pass.append(tracer.pass_id)
            tracer.s_start.append(0)
            tracer.s_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            before = tracer._before(name, counts)
            t0 = time.perf_counter_ns()
            tracer.s_start[idx] = t0
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._raised(name, exc, counts)
                raise
            else:
                tracer._returned(name, result, before, counts)
                return result
            finally:
                t1 = time.perf_counter_ns()
                tracer.s_end[idx] = t1
                stack.pop()
                dur = t1 - t0
                tracer.self_ns[tracer.pass_id][name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _counter(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[tracer.pass_id][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer counters measured at the span boundaries

    def _before(self, name, counts):
        if name == "charts.random_point" and counts["charts.sample_on_locus.active"]:
            counts["charts.locus_attempts"] += 1
        elif name == "charts.sample_on_locus":
            counts["charts.sample_on_locus.active"] += 1
        elif name == "bisets.try_compose1":
            return counts["bisets.try_compose_bisets.calls"]
        return None

    def _raised(self, name, exc, counts):
        if name == "charts.sample_on_locus":
            counts["charts.sample_on_locus.active"] -= 1
        if isinstance(exc, su2.BranchError) and exc is not self._last_exc:
            # counted once, at the innermost span it leaves
            self._last_exc = exc
            counts["charts.branch_rejects"] += 1

    def _returned(self, name, result, before, counts):
        if name == "charts.sample_on_locus":
            counts["charts.sample_on_locus.active"] -= 1
            counts["charts.locus_returned"] += 1
        elif name == "bisets.try_compose1":
            if counts["bisets.try_compose_bisets.calls"] == before:
                counts["bisets.compose_hits"] += 1
        elif name == "bisets.probes":
            # the memo hands back the very list it built before
            if id(result) in self._seen_probe_lists:
                counts["bisets.probe_hits"] += 1
            else:
                self._seen_probe_lists[id(result)] = result
                counts["bisets.probe_pairs"] += sum(len(c.pairs) for _, c in result)
        elif name == "bisets.transport_probe":
            counts["bisets.transported_pairs"] += len(result.pairs)
        elif name == "catalog.enumerate_loops":
            counts["catalog.loops"] += len(result)
        elif name == "report.report_json":
            counts["report.bytes"] += len(result)

    # -- patching

    def _patch(self, owner, attr, wrapper, propagate):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
            return
        targets = [owner]
        if propagate:
            targets += [m for n, m in list(sys.modules.items())
                        if n.startswith("cobord2") and not n.startswith("cobord2._kernel")
                        and m is not owner and m is not None]
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)), True)
        for owner, attr, key, propagate in COUNTS:
            self._patch(owner, attr, self._counter(key, getattr(owner, attr)), propagate)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- output

    def _median_self_s(self, name) -> float:
        return statistics.median(c[name] / 1e9 for c in self.self_ns.values())

    def metrics(self, plain, traced, ref_ms) -> dict:
        """Every PER_LAYER metric: counts from the first traced pass, self
        times as medians over traced passes, host figures from the
        untraced passes (plain) of the same run."""
        first = self.counts[1]

        def ratio(num, den):
            return first[num] / first[den] if first[den] else 0.0

        values = {key: first[key] for key, unit in PER_LAYER.items() if unit in ("count", "bytes")}
        values.update((n + ".self_s", self._median_self_s(n)) for n in SPAN_NAMES)
        values.update(("su2.%s.ns_per_op" % op, ns) for op, ns in kernel_ns_per_op().items())
        values["charts.locus_accept_ratio"] = ratio("charts.locus_returned", "charts.locus_attempts")
        values["bisets.compose_memo_hit_ratio"] = ratio("bisets.compose_hits",
                                                        "bisets.try_compose1.calls")
        values["bisets.probe_memo_hit_ratio"] = ratio("bisets.probe_hits", "bisets.probes.calls")
        values["host.ref_ms"] = statistics.median(ref_ms)
        values["host.raw_pass_s"] = statistics.median(p.raw_s for p in plain)
        values["trace.overhead_ratio"] = (statistics.median(p.corrected_s for p in traced)
                                          / statistics.median(p.corrected_s for p in plain))
        return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}

    def table(self) -> list:
        """Rows (span, calls in the first traced pass, median self s,
        median total s per traced pass), by self time."""
        totals = {p: Counter() for p in self.self_ns}
        for i in range(len(self.s_name)):
            totals[self.s_pass[i]][self.names[self.s_name[i]]] += self.s_end[i] - self.s_start[i]
        rows = [(name, self.counts[1][name + ".calls"], self._median_self_s(name),
                 statistics.median(t[name] / 1e9 for t in totals.values()))
                for name in self.names]
        rows.sort(key=lambda r: -r[2])
        return rows

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tpass\n")
            for i in range(len(self.s_name)):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n" % (
                    i, self.names[self.s_name[i]], self.s_start[i], self.s_end[i],
                    self.s_parent[i], self.s_pass[i]))


def kernel_ns_per_op(number: int = 20_000) -> dict:
    """Nanoseconds per call of each kernel primitive of the active
    backend on fixed inputs (the inputs of benchmarks/bench_kernel.py)."""
    qs = [su2.sample_haar(su2.mix_seed(77, k)) for k in range(64)]
    vs = [su2.sample_ball(math.pi - 1e-3, su2.mix_seed(78, k)) for k in range(64)]
    args = {
        "qmul": [(qs[i % 64], qs[(i * 7 + 1) % 64]) for i in range(256)],
        "qcomm": [(qs[i % 64], qs[(i * 7 + 1) % 64]) for i in range(256)],
        "qrot": [(qs[i % 64], vs[i % 64]) for i in range(256)],
        "qexp": [(vs[i % 64],) for i in range(256)],
        "qlog": [(q,) for q in qs if q[0] > -0.99][:256],
        "qprod": [(qs[: (i % 32) + 2],) for i in range(256)],
    }
    out = {}
    for name in KERNEL_OPS:
        f = getattr(_kernel, name)
        a = args[name]
        t0 = time.perf_counter_ns()
        for i in range(number):
            f(*a[i % len(a)])
        out[name] = (time.perf_counter_ns() - t0) / number
    return out
