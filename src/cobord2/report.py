"""Run configuration and machine-readable verification reports.

Reports serialize to byte-stable JSON: keys are emitted in a fixed
order, floats with 17 significant digits, and checks sorted by name.
Wall time is kept on the object for operator display but never enters
the serialized payload, which must be identical across runs with the
same configuration and inputs."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 1000
    branch_eps: float = 1e-9
    residual_tol: float = 1e-9
    svd_rtol: float = 1e-8
    grid: tuple = ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
    depth: int = 4
    samples: int = 100

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for tol in (self.branch_eps, self.residual_tol, self.svd_rtol):
            if tol <= 0:
                raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # "pass" | "fail" | "unknown"
    residual: Optional[float] = None
    seed: Optional[int] = None
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "unknown"):
            raise ValueError("bad status %r" % self.status)


@dataclass
class VerificationReport:
    suite: str
    config: RunConfig
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name, ok, residual=None, seed=None, detail=""):
        status = "pass" if ok else "fail" if ok is False else "unknown"
        self.checks.append(CheckRecord(name, status, residual, seed, detail))

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def counts(self):
        out = {"pass": 0, "fail": 0, "unknown": 0}
        for c in self.checks:
            out[c.status] += 1
        return out


# --- deterministic JSON ----------------------------------------------------------


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
        out.append('"' + _escape(value) + '"')
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
            out.append('"' + _escape(str(k)) + '":')
            _emit(v, out)
        out.append("}")
    else:
        raise TypeError("cannot serialize %r" % type(value))


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(s: str) -> str:
    return _NEEDS_ESCAPE.sub(lambda m: _ESCAPES.get(m[0]) or "\\u%04x" % ord(m[0]), s)


def config_payload(cfg: RunConfig) -> dict:
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "branch_eps": cfg.branch_eps,
        "residual_tol": cfg.residual_tol,
        "svd_rtol": cfg.svd_rtol,
        "grid": [list(gk) for gk in cfg.grid],
        "depth": cfg.depth,
        "samples": cfg.samples,
    }


def report_json(report: VerificationReport) -> str:
    checks = sorted(report.checks, key=lambda c: c.name)
    payload = {
        "suite": report.suite,
        "config": config_payload(report.config),
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "residual": c.residual,
                "seed": c.seed,
                "detail": c.detail,
            }
            for c in checks
        ],
        "counts": report.counts(),
    }
    out: list = []
    _emit(payload, out)
    return "".join(out) + "\n"
