"""Each fact a frozen surface or step derives is derived once, read
afterwards, and leaks into none of its dataclass behaviour: the sorted
labels of a Surface, the surgery runs and the reversal of a CobStep, and
the functor's space symbol of each surface object.  Checked over the
ends of every Cerf-catalog entry and every shipped .cdf sequence."""

from collections import Counter
from dataclasses import fields, replace
import sys

import pytest

from cobord2 import cobordism as cb
from cobord2 import functor as fn
from cobord2.cobordism import CobStep, Surface, reverse_step
from cobord2.symcat import HamInstance

from test_golden_normal_forms import corpus


def _steps(seqs):
    return [step for seq in seqs for step in seq]


def _surfaces(seqs):
    return [item for step in _steps(seqs) for chain in (step.source, step.target)
            for item in chain]


def _in_step_construction(frame) -> bool:
    while frame is not None:
        if frame.f_code is CobStep.__post_init__.__code__:
            return True
        frame = frame.f_back
    return False


def test_eval2_reads_the_runs_each_step_found_when_built(monkeypatch):
    """The first eval2 of a sequence reaches surgery_runs only while
    building the reversals it evaluates; a second one, with a fresh
    instance, not at all."""
    seqs = [seq for _, seq in corpus()]
    calls = []
    real = cb.surgery_runs

    def spy(*args):
        calls.append(_in_step_construction(sys._getframe(1)))
        return real(*args)

    monkeypatch.setattr(cb, "surgery_runs", spy)
    first = [fn.eval2(seq, HamInstance()) for seq in seqs]
    assert calls and all(calls)
    calls.clear()
    assert [fn.eval2(seq, HamInstance()) for seq in seqs] == first
    assert calls == []


def test_a_compression_keeps_the_runs_of_its_validation():
    steps = _steps(seq for _, seq in corpus())
    steps += [reverse_step(step) for step in steps]
    for step in steps:
        if step.kind == cb.COMPRESSION and step.index == 2:
            assert step.runs == cb.surgery_runs(step.source, step.target, step.attachments)
        else:
            assert step.runs == ()
    assert any(step.runs for step in steps)


def test_each_step_has_one_reversal_whose_reversal_is_the_step():
    for step in _steps(seq for _, seq in corpus()):
        rev = reverse_step(step)
        assert rev is reverse_step(step)
        assert reverse_step(rev) == step
        # the cached reversal is what the validating constructor builds
        assert replace(rev) == rev


def test_surface_labels_are_the_sorted_circle_labels():
    for item in _surfaces(seq for _, seq in corpus()):
        assert item.source_labels == tuple(sorted(c.label for c in item.source))
        assert item.target_labels == tuple(sorted(c.label for c in item.target))


@pytest.mark.parametrize("cls, field_names", [
    (Surface, ["components", "source", "target"]),
    (CobStep, ["kind", "source", "target", "position", "circle", "index", "attachments"]),
])
def test_derived_values_are_not_fields(cls, field_names):
    assert [f.name for f in fields(cls)] == field_names


def test_derived_values_leak_into_no_comparison():
    seqs = [seq for _, seq in corpus()]
    for seq in seqs:
        fn.eval2(seq, HamInstance())  # fills every reversal it needs
    for x in _steps(seqs) + _surfaces(seqs):
        fresh = replace(x)
        assert fields(fresh) == fields(x)
        assert fresh == x and hash(fresh) == hash(x) and repr(fresh) == repr(x)


def test_eval2_evaluates_each_surface_object_once_per_instance(monkeypatch):
    seqs = [seq for _, seq in corpus()]
    expected = [fn.eval2(seq, HamInstance()) for seq in seqs]
    calls = Counter()
    real = fn.eval_surface

    def spy(item):
        calls[id(item)] += 1
        return real(item)

    monkeypatch.setattr(fn, "eval_surface", spy)
    inst = HamInstance()
    assert [fn.eval2(seq, inst) for seq in seqs] == expected
    assert calls and set(calls.values()) == {1}
    for item, symbol in inst.surface_symbols.values():
        assert symbol == real(item)
