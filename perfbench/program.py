"""Locate the program under test: the cobord2 package in this checkout's src/."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable cobord2 source tree."""


def load():
    """Import cobord2 from ROOT/src, never from an installed copy."""
    if not (SRC / "cobord2" / "__init__.py").is_file():
        raise ProgramMissing("no cobord2 sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cobord2

    if Path(cobord2.__file__).resolve().parent != (SRC / "cobord2").resolve():
        raise ProgramMissing("cobord2 was imported from %s, not %s" % (cobord2.__file__, SRC))
    return cobord2
