"""The reference serializer for reports: the payload of a report as
nested dicts and lists, written by one recursive call per value, its
strings escaped one character at a time.

report.report_json fills one format string per block instead, with
report._escape's single regular-expression pass; its bytes must equal
this walk's for every report (test_report.py)."""

from __future__ import annotations

import math

from cobord2.report import VerificationReport

_NAMED = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def escape_by_character(s: str) -> str:
    """s escaped for a JSON string: the named escapes, and \\u00XX for
    every other control character."""
    return "".join(_NAMED.get(ch) or ("\\u%04x" % ord(ch) if ord(ch) < 0x20 else ch)
                   for ch in s)


def _emit(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, float):
        if not math.isfinite(value):
            out.append("null")
        else:
            out.append(format(value, ".17g"))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append('"' + escape_by_character(value) + '"')
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append('"' + escape_by_character(str(k)) + '":')
            _emit(v, out)
        out.append("}")
    else:
        raise TypeError("cannot serialize %r" % type(value))


def payload(report: VerificationReport) -> dict:
    cfg = report.config
    return {
        "suite": report.suite,
        "config": {
            "seed": cfg.seed,
            "trials": cfg.trials,
            "branch_eps": cfg.branch_eps,
            "residual_tol": cfg.residual_tol,
            "svd_rtol": cfg.svd_rtol,
            "grid": [list(gk) for gk in cfg.grid],
            "depth": cfg.depth,
            "samples": cfg.samples,
        },
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "residual": c.residual,
                "seed": c.seed,
                "detail": c.detail,
            }
            for c in sorted(report.checks, key=lambda c: c.name)
        ],
        "counts": report.counts(),
    }


def report_json(report: VerificationReport) -> str:
    out: list = []
    _emit(payload(report), out)
    return "".join(out) + "\n"
