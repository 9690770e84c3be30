"""Golden oracle probes: SHA-256 digests of the coded pairs of every
probe at the criterion-1 start sequences, and of every transport_probe
result around their depth-4 loops, on both sides.

These pin the finite-group oracle below the reports, which print only
whether each probe came back: a change in how a probe is computed or
carried must leave every digest as it is.  A digest covers, for each
correspondence in walk order, the names of its source and target items,
its pair count and its pair codes as little-endian int64.

Regenerate with ``PYTHONPATH=src python tests/test_golden_probes.py``,
which prints the digests and counts of the current code.  Only a change
that means to move the probes themselves may paste them here (another
default catalog, another probe or another code order, say), and it says
so in CHANGES.md; a change that only makes the oracle faster or smaller
never does."""

import hashlib

from cobord2 import catalog
from cobord2.bisets import LieRInstance
from cobord2.diagram import SeqMorphism, composition_step

DEPTH = 4
SIDES = ("target", "source")

PROBES = {
    "relation": "82a6648f95c7afe42c88c4c0fda81875f523fcea5c9a4af3db4cd5ccc51ad952",
    "orbit-first": "727775671982b37fd1c273f2850d9e57971f069fe9d118549a0060e32876cbd4",
    "orbit-mid": "dbc36f40816079503c99b4dc2bb32955c2984e0de703fcf6c6782e8d8e63da2e",
}
TRANSPORTS = {
    "target": "c95bb44b5a557c7c9b978d9ef40fffbe7f5ec6a5cfad4d97498ba3df214eba71",
    "source": "79dfda2b0d87b900ed7df4a83576d7373f22ff54bd94044f78a2fd77548760ca",
}
COUNTS = {"starts": 75, "loops": 108, "transports": 1944}


def _feed(hasher, corr):
    names = " ".join(m.name for m in corr.src) + " | " + " ".join(m.name for m in corr.tgt)
    hasher.update(b"%s\n%d\n" % (names.encode(), len(corr.pairs)))
    hasher.update(corr.pairs.astype("<i8").tobytes())


def _digests():
    """(probe digests, transport digests, counts) over the default
    catalog's start sequences, as criterion 1 walks them."""
    inst = LieRInstance(tuple(catalog.default_biset_catalog()))
    probes = {name: hashlib.sha256() for name in PROBES}
    carried = {side: hashlib.sha256() for side in SIDES}
    counts = dict.fromkeys(COUNTS, 0)
    for items in catalog.loop_start_sequences(inst.catalog):
        counts["starts"] += 1
        start = inst.seq(items)
        for name, probe in inst.probes(start):
            _feed(probes[name], probe)
        for loop in catalog.enumerate_loops(inst, items, DEPTH):
            counts["loops"] += 1
            seqs = [SeqMorphism(start.source, start.target, s) for s in loop]
            steps = [composition_step(inst, a, b) for a, b in zip(seqs, seqs[1:])]
            for side in SIDES:
                for _, corr in inst.probes(start):
                    for (pos, compose), cur, nxt in zip(steps, seqs, seqs[1:]):
                        corr = inst.transport_probe(corr, cur, nxt, pos, compose, side)
                        _feed(carried[side], corr)
                        counts["transports"] += 1
    return ({k: h.hexdigest() for k, h in probes.items()},
            {k: h.hexdigest() for k, h in carried.items()}, counts)


def test_probes_and_transports_match_golden_digests():
    probes, transports, counts = _digests()
    assert counts == COUNTS
    assert probes == PROBES
    assert transports == TRANSPORTS


if __name__ == "__main__":
    for table in _digests():
        print(table)
