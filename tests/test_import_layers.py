"""Each command loads only its own layers: the modules a fresh
interpreter holds after an import or a whole command, read from
sys.modules in a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cobord2 import crosscheck, functor

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "cobord2" / "data"

CHART_LAYERS = {"cobord2.charts", "cobord2.su2", "cobord2._kernel", "cobord2.suites",
                "cobord2.crosscheck"}
ORACLE_AND_FUNCTOR_LAYERS = {"cobord2.bisets", "cobord2.catalog", "cobord2.cdf",
                             "cobord2.cobordism", "cobord2.diagram", "cobord2.functor",
                             "cobord2.symcat", "cobord2.crosscheck"}


def loaded_after(body, tmp_path):
    """(exit code of main or None, cobord2 modules loaded) after running
    body in a fresh interpreter; body may set code."""
    script = (
        "import json, sys\n"
        "code = None\n"
        + body
        + "\nprint(json.dumps([code, sorted(m for m in sys.modules if m.startswith('cobord2'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def main_body(*argv):
    return "from cobord2 import cli\ncode = cli.main(%r)" % (list(argv) + ["--out", "report.json"])


def test_cli_import_loads_only_report(tmp_path):
    _, modules = loaded_after("import cobord2.cli", tmp_path)
    assert modules == {"cobord2", "cobord2.cli", "cobord2.report"}


def test_move_calculus_import_loads_only_words(tmp_path):
    """The move calculus keeps no evaluation cache: it imports neither
    symcat nor functor, nor numpy."""
    numpy_loaded, modules = loaded_after(
        "import cobord2.cobordism\ncode = 'numpy' in sys.modules", tmp_path)
    assert modules == {"cobord2", "cobord2.cobordism", "cobord2.words"}
    assert numpy_loaded is False


def test_functor_import_loads_no_chart_layer(tmp_path):
    _, modules = loaded_after("import cobord2.functor", tmp_path)
    assert "cobord2.functor" in modules
    assert not modules & CHART_LAYERS


def test_axioms_loads_no_chart_layer(tmp_path):
    code, modules = loaded_after(main_body("axioms", str(DATA / "axioms_default.cat")), tmp_path)
    assert code == 0
    assert {"cobord2.bisets", "cobord2.catalog", "cobord2.cdf"} <= modules
    assert not modules & CHART_LAYERS


def test_moduli_loads_no_oracle_move_calculus_or_functor(tmp_path):
    code, modules = loaded_after(
        main_body("moduli", "--grid", "1,1", "--trials", "2", "--samples", "2"), tmp_path)
    assert code == 0
    assert {"cobord2.charts", "cobord2.suites"} <= modules
    assert not modules & ORACLE_AND_FUNCTOR_LAYERS


@pytest.mark.parametrize("name", ["membership", "sample_face_points", "component_points",
                                  "chart_for", "MEMBERSHIP_TOL"])
def test_functor_answers_the_cross_check_names(name):
    assert getattr(functor, name) is getattr(crosscheck, name)


def test_functor_has_no_other_lazy_names():
    with pytest.raises(AttributeError):
        functor._permute_to_chart


def test_functor_eval_loads_neither_numpy_nor_the_oracle(tmp_path):
    body = (main_body("functor", "eval", str(DATA / "cancel12.cdf"))
            + "\ncode = [code, 'numpy' in sys.modules]")
    (code, numpy_loaded), modules = loaded_after(body, tmp_path)
    assert code == 0
    assert not numpy_loaded
    assert "cobord2.bisets" not in modules
    assert {"cobord2.cdf", "cobord2.functor"} <= modules
