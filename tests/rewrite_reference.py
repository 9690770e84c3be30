"""The slow reference for diagram normalization: every order of the
normalizer's own rewrites, explored breadth first.

normalize_diagram takes the first rewrite that diagram.rewrites yields
until none is left.  This reference follows every rewrite it yields,
which raises faces that lie right, and diagram.interchange at every
face, which raises faces that lie left, so it reaches each tuple of
placed faces that some order of the same rules reaches, interchanges
both ways included.  Where a face with no target lies over a face with
no source at the same offset, the swap has two placements: rewrites
yields one and interchange the other.  It re-codes no rule: each step
is one of the engine's own.  Its terminal states are the reached stacks
that rewrites cannot rewrite any further, and normalize_diagram's
result is always one of them.
"""

from __future__ import annotations

from collections import deque

from cobord2 import diagram as dg

STATE_CAP = 256


class StateCapExceeded(RuntimeError):
    pass


def terminal_states(d: dg.StackDiagram, inst) -> set:
    """The normal forms that some order of rewrites reaches from d, as
    StackDiagrams; StateCapExceeded once more than STATE_CAP stacks are
    reached, so the set is never silently cut short."""
    start = dg._clean(d.faces, inst)
    seen = {start}
    queue = deque([start])
    terminals = set()
    while queue:
        faces = queue.popleft()
        steps = list(dg.rewrites(faces, inst))
        if not steps:
            terminals.add(dg.StackDiagram(d.source, faces))
        steps += [dg.interchange(faces, k) for k in range(len(faces) - 1)]
        for step in steps:
            if step is None:
                continue
            step = dg._clean(step, inst)
            if step in seen:
                continue
            seen.add(step)
            if len(seen) > STATE_CAP:
                raise StateCapExceeded("more than %d stacks reached" % STATE_CAP)
            queue.append(step)
    return terminals
