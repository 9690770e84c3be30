"""Golden normal forms: one SHA-256 digest of the placed faces that
eval2 gives, and of those normalize_mod_equiv leaves, for each
sequence the functor is run on: the start and end of every Cerf-catalog
entry, both sides of the negative control, and each shipped .cdf
sequence, its @steps2 included.

A placed face renders as its offset and its repr, with every frozenset
(the excision flags of a space symbol) printed sorted, so the digest
does not depend on the str-hash order.  A change that only moves code
leaves the digest as it is; one that means to change an evaluation or
a normal form says so in CHANGES.md and pastes the digest that
``PYTHONPATH=src python tests/test_golden_normal_forms.py`` prints."""

import hashlib
import re
from pathlib import Path

import cobord2
from cobord2 import catalog as cat
from cobord2 import cdf
from cobord2 import cobordism as cb
from cobord2 import functor as fn
from cobord2.symcat import HamInstance, normalize_mod_equiv

DATA = Path(cobord2.__file__).parent / "data"

DIGEST = "40b57b1182977a7bca1ebde44bf0506258a12f42e6985b1035a394e9f63c4b25"

_FROZENSET = re.compile(r"frozenset\(\{([^{}]*)\}\)")


def corpus():
    """(name, step sequence) pairs in a fixed order."""
    out = []
    for name, y1, moves in cat.cerf_move_catalog():
        out += [("%s/start" % name, y1), ("%s/end" % name, cb.apply_moves(y1, moves))]
    y1, y2 = cat.negative_control()
    out += [("negative-control/good", y1), ("negative-control/bad", y2)]
    for path in sorted(DATA.glob("*.cdf")):
        doc = cdf.parse_cdf(path.read_text())
        out.append((path.name, doc.sequence()))
        if doc.steps2:
            out.append((path.name + "/steps2", doc.steps2))
    return out


def render_faces(faces) -> str:
    return "".join(
        "  %d %s\n" % (offset, _FROZENSET.sub(_sorted_set, repr(face))) for offset, face in faces)


def _sorted_set(match):
    return "frozenset({%s})" % ", ".join(sorted(match.group(1).split(", ")))


def rendering() -> str:
    inst = HamInstance()
    text = []
    for name, seq in corpus():
        raw = fn.eval2(seq, inst)
        text.append("%s raw\n%s" % (name, render_faces(raw.faces)))
        text.append("%s normal\n%s" % (name, render_faces(normalize_mod_equiv(raw, inst).faces)))
    return "".join(text)


def digest() -> str:
    return hashlib.sha256(rendering().encode()).hexdigest()


def test_corpus_covers_every_catalog_entry_and_cdf():
    names = [name for name, _ in corpus()]
    assert len(names) == 2 * 17 + 2 + len(list(DATA.glob("*.cdf"))) + sum(
        1 for p in DATA.glob("*.cdf") if cdf.parse_cdf(p.read_text()).steps2)


def test_rendering_sorts_excision_flags():
    assert render_faces([(2, frozenset({"b", "a"}))]) == "  2 frozenset({'a', 'b'})\n"


def test_normal_forms_digest():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
