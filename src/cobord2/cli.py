"""Command-line driver.

    cobord2 axioms <file.cat> [--depth N] [--seed S]
    cobord2 moduli [--grid g,k ...] [--trials N] [--seed S]
    cobord2 functor (eval|invariance) <file.cdf>

Every command writes a deterministic JSON report to stdout (or --out)
and a human summary with wall time to stderr.  Exit codes: 0 all
checks pass, 1 at least one failed, 2 unreadable input (a file that is
not UTF-8 among it), an --out or a stdout that cannot be written (a
reader that closed the pipe early), or an invalid option (a count below
1, a depth below 2, which closes no loop, a tolerance that is not a
finite positive number, a grid point that is not g,k with g >= 0 and
k >= 1, a COBORD2_SEED that is not an integer).
COBORD2_SEED overrides the configured seed; an explicit --seed flag
wins over the environment.

Each command imports its own layers when it runs, and this module
imports only the standard library and report, so a process loads what
its command uses and no more: moduli the holonomy charts (charts, su2,
suites), axioms the biset oracle (bisets, catalog, catfile), functor the
move calculus and the evaluator (cdf, cobordism, symcat, functor), and
functor invariance the numeric cross-check too (crosscheck, with the
charts).  moduli thus never loads the oracle, the move calculus or the
functor, axioms never loads the charts, and functor eval loads no numpy.

Importing this module makes BLAS single-threaded (OPENBLAS_NUM_THREADS=1)
unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set:
every BLAS/LAPACK call here is a small stacked SVD, pinv or matmul that
OpenBLAS would not split, and the pool's idle worker, spinning while the
process starts, can double the time import numpy takes on a busy host."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

# OpenBLAS reads these once, in this order, when numpy first loads it, so
# this runs before any module imports numpy; an empty value counts as unset
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(os.environ.get(name) for name in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from cobord2.report import RunConfig, VerificationReport, report_json  # noqa: E402

# The errors main reports as unreadable input (exit 2), besides OSError,
# as (module, class name)
_INPUT_ERRORS = (("cobord2.cdf", "ParseError"), ("cobord2.cobordism", "PatternMismatch"))


def _count(text) -> int:
    """A trial or sample count: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _depth(text) -> int:
    """A loop depth: an integer >= 2, since a loop needs two moves to close."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if value < 2:
        raise argparse.ArgumentTypeError("must be >= 2, got %d" % value)
    return value


def _tolerance(text) -> float:
    """A tolerance: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0, got %r" % text)
    return value


def _grid_point(text) -> tuple:
    """A grid point g,k: genus g >= 0 and k >= 1 boundary circles."""
    try:
        g, k = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected g,k (two integers), got %r" % text)
    if g < 0 or k < 1:
        raise argparse.ArgumentTypeError("need genus >= 0 and k >= 1, got %r" % text)
    return (g, k)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves a
    parser as it found it, and building one takes about 0.4 ms, which
    every in-process call of main would pay again."""
    parser = argparse.ArgumentParser(prog="cobord2")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", type=str, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ax = sub.add_parser("axioms", parents=[common],
                          help="composition-loop identities over a finite catalog")
    p_ax.add_argument("catalog", type=str)
    p_ax.add_argument("--depth", type=_depth, default=None)

    p_mod = sub.add_parser("moduli", parents=[common], help="numerical chart suites")
    p_mod.add_argument("--grid", type=_grid_point, nargs="*", default=None, metavar="g,k")
    p_mod.add_argument("--trials", type=_count, default=1000)
    p_mod.add_argument("--samples", type=_count, default=100)
    p_mod.add_argument("--tol-residual", type=_tolerance, default=1e-9)
    p_mod.add_argument("--tol-svd", type=_tolerance, default=1e-8)
    p_mod.add_argument("--dump-points", action="store_true",
                       help="embed one seeded chart point per grid entry as a flat array")

    p_fun = sub.add_parser("functor", parents=[common],
                           help="evaluate or compare decomposed cobordisms")
    p_fun.add_argument("mode", choices=("eval", "invariance"))
    p_fun.add_argument("cdf", type=str)
    p_fun.add_argument("--samples", type=_count, default=100)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    seed = args.seed
    if seed is None:
        env = os.environ.get("COBORD2_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            print("error: COBORD2_SEED must be an integer, got %r" % env, file=sys.stderr)
            return 2

    started = time.monotonic()
    try:
        if args.command == "axioms":
            report = cmd_axioms(args, seed)
        elif args.command == "moduli":
            report = cmd_moduli(args, seed)
        else:
            report = cmd_functor(args, seed)
    except _input_errors() as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    report.wall_time = time.monotonic() - started

    payload = report_json(report)
    if args.out:
        try:
            _write_report(args.out, payload)
        except OSError as err:
            print("error: cannot write %s: %s" % (args.out, err.strerror or err), file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.write(payload)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; stdout then points at devnull, so the
            # flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print("error: cannot write the report: stdout is closed", file=sys.stderr)
            return 2
    counts = report.counts()
    print(
        "%s: %d pass, %d fail, %d unknown in %.2fs"
        % (report.suite, counts["pass"], counts["fail"], counts["unknown"], report.wall_time),
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _write_report(path, payload) -> None:
    """Write payload to path.  A write that fails once the file is open
    removes it, if it is a regular file, so no partial report is left."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(payload)
    except OSError:
        if os.path.isfile(path):
            os.remove(path)
        raise


def _input_errors() -> tuple:
    """OSError and the _INPUT_ERRORS of the layers loaded so far.  An
    except clause evaluates this only once something is raised, and a
    layer its command never imported cannot have raised its error."""
    return (OSError,) + tuple(getattr(sys.modules[mod], name)
                              for mod, name in _INPUT_ERRORS if mod in sys.modules)


def cmd_axioms(args, seed) -> VerificationReport:
    from cobord2 import bisets as bs
    from cobord2 import catalog as cat
    from cobord2 import catfile, cdf

    doc = catfile.parse_catalog(cdf.read_text(args.catalog))
    depth = args.depth if args.depth is not None else doc.depth
    config = RunConfig(seed=seed, trials=1, depth=depth)
    report = VerificationReport("axioms", config)
    inst = bs.LieRInstance(tuple(doc.bisets.values()))
    sequences = doc.sequences or cat.loop_start_sequences(inst.catalog)
    total_loops = 0
    for items, loop_idx, bad in cat.axiom_loops(inst, sequences, depth):
        total_loops += 1
        name = "loop/%s/%d" % ("+".join(m.name for m in items), loop_idx)
        report.add(name, not bad, seed=seed,
                   detail="" if not bad else "failed probes: %s" % ",".join(bad))
    # an empty catalog passes trivially: there is nothing to refute
    report.add("loops-enumerated", True, detail="%d loops" % total_loops)
    return report


def cmd_moduli(args, seed) -> VerificationReport:
    import numpy as np

    from cobord2 import charts as ch
    from cobord2 import su2, suites
    from cobord2.words import Word

    grid = tuple(args.grid) if args.grid else RunConfig().grid
    config = RunConfig(
        seed=seed,
        trials=args.trials,
        residual_tol=args.tol_residual,
        svd_rtol=args.tol_svd,
        grid=grid,
        samples=args.samples,
    )
    report = VerificationReport("moduli", config)
    trial_axis = np.arange(config.trials, dtype=np.uint64)
    sample_axis = np.arange(config.samples, dtype=np.uint64)
    for g, k in grid:
        labels = tuple("c%d" % i for i in range(1, k + 1))
        chart = ch.ModuliChart(g, labels, frozenset(labels[: (k + 1) // 2]))
        name = "g%d.k%d" % (g, k)

        defects = suites.dimension_defects(
            chart, su2.mix_seed(seed, 10, g, k, sample_axis), config.svd_rtol)
        report.add(
            "dimension/" + name, not defects, residual=float(len(defects)), seed=seed,
            detail="%d points, kernel dim %d expected" % (config.samples, chart.dim),
        )

        worst = suites.equivariance_worst(
            chart, su2.mix_seed(seed, 20, g, k, trial_axis))
        report.add(
            "equivariance/" + name, worst < config.residual_tol,
            residual=worst, seed=seed, detail="%d trials" % config.trials,
        )

        glue_label = chart.boundaries[-1]
        partner = ch.ModuliChart(
            0, ("pp1", glue_label),
            frozenset() if glue_label in chart.incoming else frozenset((glue_label,)),
        )
        worst, relation_worst, rejects = suites.round_trip(
            chart, partner, glue_label,
            su2.mix_seed(seed, 30, g, k, trial_axis))
        report.add(
            "round-trip/" + name,
            worst < config.residual_tol and relation_worst < 1e-10,
            residual=worst, seed=seed,
            detail="%d trials, %d excluded-locus rejections, relation %.3g"
            % (config.trials, rejects, relation_worst),
        )

        if g >= 1:
            clean, rejects = suites.locus_ranks(
                chart, [Word(0, (("a", 1, 1),))],
                su2.mix_seed(seed, 40, g, k, sample_axis), config.svd_rtol)
            report.add(
                "coisotropic-rank/" + name, clean >= int(0.95 * config.samples),
                residual=float(rejects), seed=seed,
                detail="%d of %d clean rank-3 points, %d rejects reported"
                % (clean, config.samples, rejects),
            )

        if args.dump_points:
            p = ch.random_point(chart, np.array([su2.mix_seed(seed, 99, g, k)], dtype=np.uint64))
            flat = ",".join(format(v[0], ".17g") for v in ch.flatten_point(p))
            report.add("point-dump/" + name, True, seed=seed, detail=flat)
    return report


def cmd_functor(args, seed) -> VerificationReport:
    from cobord2 import cdf
    from cobord2 import cobordism as cb
    from cobord2 import functor as fn
    from cobord2.diagram import BoundaryMismatch
    from cobord2.symcat import HamInstance, normalize_mod_equiv

    doc = cdf.parse_cdf(cdf.read_text(args.cdf))
    config = RunConfig(seed=seed, trials=1, samples=args.samples)
    report = VerificationReport("functor-%s" % args.mode, config)
    seq = doc.sequence()
    if args.mode == "eval":
        inst = HamInstance()
        diagram = fn.eval2(seq, inst)
        normal = normalize_mod_equiv(diagram, inst)
        report.add("evaluation", True, seed=seed,
                   detail="faces %d, normal faces %d" % (diagram.face_count(), normal.face_count()))
        for i, row in enumerate(normal.rows):
            for cell in row:
                if hasattr(cell, "morph"):
                    report.add("normal-form/row%d" % i, True, detail=cell.morph.kind)
        return report
    moves = list(doc.moves)
    if doc.steps2:
        y2 = doc.steps2
    else:
        try:
            y2 = cb.apply_moves(seq, moves)
        except cb.PatternMismatch as err:
            raise cdf.ParseError("move chain does not apply: %s" % err)
    try:
        records = fn.invariance_check(seq, y2, moves if not doc.steps2 else [],
                                      samples=config.samples, seed=seed)
    except cb.MoveChainInvalid as err:
        report.add("invariance/move-chain", False, seed=seed, detail=str(err))
        return report
    except BoundaryMismatch as err:
        report.add("invariance/boundary", False, seed=seed, detail=str(err))
        return report
    for name, ok, detail in records:
        report.add("invariance/%s" % name, ok, seed=seed, detail=detail)
    return report


if __name__ == "__main__":
    sys.exit(main())
