"""report_json writes the bytes of the reference payload walk
(report_reference.py) for every report: generated suites, configs and
check records, with control characters, non-ASCII text, NaN, infinities,
-0.0, None and ints among their values.  The reports the command line
writes are pinned by the digests of test_golden.py."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobord2 import report
from cobord2.report import RunConfig, VerificationReport

import report_reference

# every control character, the two JSON escapes, and text beyond ASCII
_TEXT = st.text(st.sampled_from(
    [chr(c) for c in range(0x20)] + ['"', "\\", "/", "a", "Z", " ", "\x7f", "\u00e9",
                                     "\u2028", "\U0001d11e"]), max_size=12)
_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
                            1e-9, 0.1])
_FLOAT = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
_INT = st.integers(min_value=-2**70, max_value=2**70)
_NUMBER = st.one_of(st.none(), st.booleans(), _FLOAT, _INT)
_TOLERANCE = st.one_of(st.sampled_from([float("nan"), float("inf"), 5e-324, 1e-9]),
                       st.floats(min_value=1e-300, allow_infinity=False), st.integers(1, 9))


@st.composite
def reports(draw):
    config = RunConfig(
        seed=draw(_INT),
        trials=draw(st.integers(1, 10**6)),
        branch_eps=draw(_TOLERANCE),
        residual_tol=draw(_TOLERANCE),
        svd_rtol=draw(_TOLERANCE),
        grid=draw(st.one_of(
            st.just(RunConfig().grid),
            st.lists(st.tuples(_INT, _INT), max_size=4).map(tuple))),
        depth=draw(_INT),
        samples=draw(st.integers(1, 10**6)),
    )
    out = VerificationReport(draw(_TEXT), config)
    for _ in range(draw(st.integers(0, 6))):
        out.add(draw(_TEXT), draw(st.sampled_from([True, False, None])),
                residual=draw(_NUMBER), seed=draw(st.one_of(st.none(), _INT)),
                detail=draw(_TEXT))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(reports())
def test_report_json_writes_the_reference_bytes(rep):
    assert report.report_json(rep) == report_reference.report_json(rep)


def test_report_json_refuses_what_the_reference_refuses():
    rep = VerificationReport("s", RunConfig())
    rep.add("x", True, residual=1j)
    with pytest.raises(TypeError):
        report_reference.report_json(rep)
    with pytest.raises(TypeError):
        report.report_json(rep)
