"""Each fact a frozen surface or step derives is derived once, read
afterwards, and leaks into none of its dataclass behaviour: the sorted
labels of a Surface, the surgery runs and the reversal of a CobStep, and
the functor's space symbol of each surface object.  Checked over the
ends of every Cerf-catalog entry and every shipped .cdf sequence.  A
move chain is derived once too: the invariance check reads the chain a
derived sequence records, and derives it again for any other."""

from collections import Counter
from dataclasses import fields, replace
import sys

import pytest

from cobord2 import catalog as cat
from cobord2 import cobordism as cb
from cobord2 import functor as fn
from cobord2.cobordism import CobStep, Move, MoveChainInvalid, Surface, reverse_step
from cobord2.symcat import HamInstance

from test_golden_normal_forms import DIGEST, corpus, digest


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
    """No eval2 reaches surgery_runs: an index-2 compression carries the
    runs its validation found, and a reversed step the reversal it built.
    Building an index-1 step reaches surgery_runs once, through its
    reversal's validation."""
    seqs = [seq for _, seq in corpus()]
    calls = []
    real = cb.surgery_runs

    def spy(*args):
        calls.append(_in_step_construction(sys._getframe(1)))
        return real(*args)

    monkeypatch.setattr(cb, "surgery_runs", spy)
    first = [fn.eval2(seq, HamInstance()) for seq in seqs]
    assert calls == []
    assert [fn.eval2(seq, HamInstance()) for seq in seqs] == first
    assert calls == []
    index1 = [step for step in _steps(seqs) if step.kind == cb.COMPRESSION and step.index == 1]
    assert index1
    for step in index1:
        calls.clear()
        assert replace(step) == step
        assert calls == [True]


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


def _spy(monkeypatch, name) -> list:
    """The argument tuples of every call of cb.<name> from now on."""
    calls = []
    real = getattr(cb, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cb, name, spy)
    return calls


def test_a_derived_sequence_is_its_plain_tuple_and_records_its_chain():
    for _, y1, moves in cat.cerf_move_catalog():
        y2 = cb.apply_moves(y1, moves)
        plain = tuple(list(y2))
        assert isinstance(y2, cb.DerivedSeq) and type(plain) is tuple
        assert y2.derived_from[0] is y1 and y2.derived_from[1] == tuple(moves)
        assert y2 == plain and hash(y2) == hash(plain) and repr(y2) == repr(plain)
        assert type(y2[:1]) is tuple and type(y2 + ()) is tuple


def test_invariance_check_derives_no_chain_a_sequence_records(monkeypatch):
    entries = cat.cerf_move_catalog()
    ends = [cb.apply_moves(y1, moves) for _, y1, moves in entries]
    calls = _spy(monkeypatch, "apply_move")
    for (name, y1, moves), y2 in zip(entries, ends):
        records = fn.invariance_check(y1, y2, moves, samples=20)
        assert records[0] == ("move-chain", True, "%d moves verified" % len(moves)), name
        assert all(ok for _, ok, _ in records), name
    assert calls == []


def test_invariance_check_derives_the_chain_for_any_other_sequence(monkeypatch):
    """A value-equal y2 built by hand, one derived from another source
    object, and one derived by other moves are each checked against the
    chain derived from y1, move by move."""
    for name, y1, moves in cat.cerf_move_catalog():
        other_source = tuple(list(y1))
        assert other_source is not y1
        detour = list(moves) + [Move("cyl_create", 0), Move("cyl_cancel", 0)]
        for y2 in (tuple(list(cb.apply_moves(y1, moves))), cb.apply_moves(other_source, moves),
                   cb.apply_moves(y1, detour)):
            calls = _spy(monkeypatch, "apply_move")
            records = fn.invariance_check(y1, y2, moves, samples=20)
            monkeypatch.undo()
            assert [args[1] for args in calls] == list(moves), name
            assert records[0] == ("move-chain", True, "%d moves verified" % len(moves)), name


def test_a_wrong_chain_still_raises():
    wrong = 0
    for name, y1, moves in cat.cerf_move_catalog():
        y2 = cb.apply_moves(y1, moves)
        shorter = cb.apply_moves(y1, moves[:-1])
        if len(moves) < 2 or shorter == y2:
            continue
        wrong += 1
        # y2 checked against fewer moves than derived it, and a sequence
        # derived by fewer moves checked against them all
        for second, chain in ((y2, moves[:-1]), (shorter, moves)):
            with pytest.raises(MoveChainInvalid):
                fn.invariance_check(y1, second, chain)
    assert wrong


def test_a_forward_steps_reversal_is_paired_without_a_check(monkeypatch):
    """A forward step's reversal is valid because the step is, so asking
    for it reaches no _check_step; a reversed step built from outside is
    still validated, once, through its forward reversal."""
    steps = _steps(seq for _, seq in corpus())
    forward = [replace(step) for step in steps if cb.is_forward(step)]
    reversed_ = [rev for step in steps for rev in (step, reverse_step(step))
                 if not cb.is_forward(rev)]
    assert forward and reversed_
    calls = _spy(monkeypatch, "_check_step")
    for step in forward:
        rev = step.reversal
        assert reverse_step(reverse_step(step)) is step and reverse_step(rev) is step
        # a cylinder is its own reversal in value
        assert cb.is_forward(rev) == (step.kind == cb.CYLINDER) and rev.runs == ()
    assert calls == []
    for rev in reversed_:
        calls.clear()
        rebuilt = replace(rev)
        assert rebuilt == rev and reverse_step(rebuilt) == reverse_step(rev)
        assert len(calls) == 1 and calls[0][0] is reverse_step(rebuilt)


def test_normal_forms_digest_holds_over_derived_sequences():
    ends = [seq for name, seq in corpus() if name.endswith("/end")]
    assert ends and all(isinstance(seq, cb.DerivedSeq) for seq in ends)
    assert digest() == DIGEST
