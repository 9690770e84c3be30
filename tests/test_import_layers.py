"""Each command loads only its own layers: the modules a fresh
interpreter holds after an import or a whole command, read from
sys.modules in a subprocess.  And no module of the package reads
another's underscore names, read from the source's syntax tree."""

import ast
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


def _is_private(name) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source, own) -> list:
    """(line, module, name) of each underscore name that the module own,
    given as source text, reads from another cobord2 module: a
    from-import of the name, or an attribute of a module it imported.
    A module itself may be imported by any name, so the package-private
    _kernel, whose names are public, may be."""
    tree = ast.parse(source)
    modules = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cobord2.") and alias.asname:
                    modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cobord2"):
            for alias in node.names:
                if node.module == "cobord2":
                    modules[alias.asname or alias.name] = "cobord2." + alias.name
                elif node.module != own and _is_private(alias.name):
                    found.append((node.lineno, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, own) != own and _is_private(node.attr)):
            found.append((node.lineno, modules[node.value.id], node.attr))
    return found


def test_private_reads_finds_both_forms():
    source = ("from cobord2 import cobordism as cb, _kernel\n"
              "from cobord2.cdf import ParseError, _lines\n"
              "cb._compress_chain(_kernel.qmul, cb.__name__)\n")
    assert private_reads(source, "cobord2.catfile") == [
        (2, "cobord2.cdf", "_lines"), (3, "cobord2.cobordism", "_compress_chain")]


def test_no_module_reads_another_modules_underscore_names():
    found = {path.name: private_reads(path.read_text(), "cobord2." + path.stem)
             for path in sorted((SRC / "cobord2").glob("*.py"))}
    assert {"catfile.py", "cdf.py", "functor.py"} <= found.keys()
    assert {name: reads for name, reads in found.items() if reads} == {}
