"""Run configuration and machine-readable verification reports.

Reports serialize to byte-stable JSON: keys are emitted in a fixed
order, floats with 17 significant digits, and checks sorted by name.
The report's layout is fixed, so report_json fills one format string
per block (the config, each check record, the counts) with its
escaped values instead of walking a payload value by value; the tests
hold the payload walk (tests/report_reference.py) and compare bytes
with it over generated reports.  Wall time is kept on the object for
operator display but never enters the serialized payload, which must
be identical across runs with the same configuration and inputs."""

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


def _scalar(value) -> str:
    """One JSON value: a string escaped, None and a non-finite float as
    null, a finite float with 17 significant digits, an int as such."""
    if isinstance(value, str):
        return '"' + _escape(value) + '"'
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, int):
        return str(value)
    raise TypeError("cannot serialize %r" % type(value))


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(s: str) -> str:
    return _NEEDS_ESCAPE.sub(lambda m: _ESCAPES.get(m[0]) or "\\u%04x" % ord(m[0]), s)


_REPORT = '{"suite":%s,"config":%s,"checks":[%s],"counts":{"pass":%s,"fail":%s,"unknown":%s}}\n'
_CONFIG = ('{"seed":%s,"trials":%s,"branch_eps":%s,"residual_tol":%s,"svd_rtol":%s,'
           '"grid":[%s],"depth":%s,"samples":%s}')
_CHECK = '{"name":%s,"status":%s,"residual":%s,"seed":%s,"detail":%s}'


def _config_json(cfg: RunConfig) -> str:
    grid = ",".join("[%s]" % ",".join(_scalar(v) for v in point) for point in cfg.grid)
    return _CONFIG % (_scalar(cfg.seed), _scalar(cfg.trials), _scalar(cfg.branch_eps),
                      _scalar(cfg.residual_tol), _scalar(cfg.svd_rtol), grid,
                      _scalar(cfg.depth), _scalar(cfg.samples))


def report_json(report: VerificationReport) -> str:
    """The report's JSON: suite, config, the checks sorted by name and
    the status counts, in that order, on one line."""
    checks = ",".join(
        _CHECK % (_scalar(c.name), _scalar(c.status), _scalar(c.residual), _scalar(c.seed),
                  _scalar(c.detail))
        for c in sorted(report.checks, key=lambda c: c.name)
    )
    counts = report.counts()
    return _REPORT % (_scalar(report.suite), _config_json(report.config), checks,
                      counts["pass"], counts["fail"], counts["unknown"])
