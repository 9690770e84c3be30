"""The command line runs BLAS single-threaded unless the user chose a
thread count, and the report bytes do not depend on the thread count.
Each case runs in a fresh interpreter, since OpenBLAS reads its thread
count once, when numpy first loads it."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, _argv

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def clean_env(**values):
    """This process's environment without the three thread-count
    variables, plus values."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(values, PYTHONPATH=str(SRC))
    return env


def environ_after(module, **values):
    """(os.environ before, os.environ after) importing module in a fresh
    interpreter started with clean_env(**values)."""
    script = (
        "import json, os\n"
        "before = dict(os.environ)\n"
        "import %s\n"
        "print(json.dumps([before, dict(os.environ)]))\n" % module
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=clean_env(**values))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_makes_blas_single_threaded():
    before, after = environ_after("cobord2.cli")
    assert after == dict(before, OPENBLAS_NUM_THREADS="1")


def test_cli_import_counts_an_empty_value_as_unset():
    _, after = environ_after("cobord2.cli", OPENBLAS_NUM_THREADS="")
    assert after["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("name", BLAS_THREAD_VARS)
def test_cli_import_keeps_a_users_thread_count(name):
    before, after = environ_after("cobord2.cli", **{name: "3"})
    assert after == before
    assert {k: after.get(k) for k in BLAS_THREAD_VARS} == {
        k: "3" if k == name else None for k in BLAS_THREAD_VARS}


def test_library_import_leaves_the_environment_alone():
    before, after = environ_after("cobord2.charts")
    assert after == before


def test_moduli_report_bytes_do_not_depend_on_the_thread_count():
    case = "moduli-highgenus-small"
    code, digest = GOLDEN[case]
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "cobord2.cli", *_argv(case)],
                              capture_output=True, env=clean_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == code, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
