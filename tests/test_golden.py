"""Golden reports: exit codes and SHA-256 digests of stdout for the
shipped inputs, run through ``cli.main`` in-process.

A change that moves report bytes on purpose (an ulp-level shift in a
printed residual, say) updates the digests here and says so in
CHANGES.md, with the largest change in any printed residual.

The moduli and invariance reports run their trials as lanes, whose log,
atan2, hypot and cube root are numpy's (cobord2._kernel), so their
digests also pin the SIMD dispatch numpy picks for those functions on
the host: x86-64 with AVX-512 and numpy 2.4 here.  Another host may
round them differently in the last place and move those digests only."""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cobord2 import cli

DATA = Path(__file__).resolve().parents[1] / "src" / "cobord2" / "data"

CDFS = ("ball_cancel", "cancel12", "cylinder", "negative_control", "solid_torus")

GOLDEN = {
    "axioms": (0, "963861329e83be3ddf1411631ff0cd33d75474f2cc2e5da8fa678d01753a67ce"),
    "ball_cancel/eval/0": (0, "7464b56c866c95fb83ef2f34d78b7456579fe0e43b029a4ed16e436602d7b211"),
    "ball_cancel/eval/7": (0, "b54f8fb25ae213fbe86e76e068acba1a5ebf92adb848ca432cfcf41a439c2016"),
    "ball_cancel/invariance/0": (0, "af838d89eb377563afd96173838b034b4aac091e09002c558dee14322bdede02"),
    "ball_cancel/invariance/7": (0, "9e36f5ad2ef65e3f24dad1d274cebfb24ae6bbe292a3d80ae60ed29e5fc978ff"),
    "cancel12/eval/0": (0, "ad11ca1afb818a1190f51bf54afc027d5d1fa61151bcd419cb123a56ee24ac3b"),
    "cancel12/eval/7": (0, "d7030b1c2af239b6e97c5de297f67e735d517d638821f5ce6a641d280ccfb06f"),
    "cancel12/invariance/0": (0, "af838d89eb377563afd96173838b034b4aac091e09002c558dee14322bdede02"),
    "cancel12/invariance/7": (0, "9e36f5ad2ef65e3f24dad1d274cebfb24ae6bbe292a3d80ae60ed29e5fc978ff"),
    "cylinder/eval/0": (0, "5aa086724637a073e490248a4560e38a4a6a70350c1b3f6ac9b66425539d539b"),
    "cylinder/eval/7": (0, "32fa5a5280f6784ac367349a57dd572cb1d1b0199b2490e1135a275164a0d734"),
    "cylinder/invariance/0": (0, "9985ffd2cbfa2458dac0f54e6fba086bab51ba7791a4740ebd6b713f36fb9c61"),
    "cylinder/invariance/7": (0, "0825dc42a14c10529d954456bf0a70c6dfb2481415757121f8eee8067e83dcfa"),
    "negative_control/eval/0": (0, "5aa086724637a073e490248a4560e38a4a6a70350c1b3f6ac9b66425539d539b"),
    "negative_control/eval/7": (0, "32fa5a5280f6784ac367349a57dd572cb1d1b0199b2490e1135a275164a0d734"),
    "negative_control/invariance/0": (1, "5f5ab7e72a26dd679e3751cdda326e92388b3cd3a28a0dc8491efeb0886dab49"),
    "negative_control/invariance/7": (1, "28d2ea828a3f2643d644a0623a29c4b7df5f9370702b6e7cbd758aa18713e7ac"),
    "solid_torus/eval/0": (0, "b200ad03db94e1699adae53d3712a3ef5b04003e41c3641f14a82ac524f61841"),
    "solid_torus/eval/7": (0, "b0ac86ca41db1e0c9807366222a3ab85935046c6360186fe6ef13720e5006f55"),
    "solid_torus/invariance/0": (0, "dfdc4534e559f3a8a635540fd029ee032af10b28efa4dd87c6ae91a3e1f525a4"),
    "solid_torus/invariance/7": (0, "daa46fb26155ab2042b03f71c9aa709f8d362e4f27d0e326fafc0ae26eca68aa"),
    "moduli-small": (0, "713666bb117512e77762c8d7fc63213a95c8e9cb0f026bb8d58a540022e6c5e1"),
    "moduli-highgenus-small": (0, "4b32c68482919cad9d9c358e70a4a7cabfb1dd99172419aee687b0e3c41a9de1"),
    "moduli-full": (0, "2bb0dce0403f6bbefc71226794d90f4a62e1299e85c1d328f896ae7431125875"),
    "moduli-highgenus": (0, "a015323a9b5cd1421744b3ba499a755be4aaae3b14985e067fef4a66f94e64ac"),
}


def _argv(case):
    if case == "axioms":
        return ["axioms", str(DATA / "axioms_default.cat")]
    if case == "moduli-small":
        return ["moduli", "--grid", "1,2", "2,3", "--trials", "50", "--samples", "20",
                "--seed", "7"]
    if case == "moduli-full":
        return ["moduli", "--seed", "7"]
    if case == "moduli-highgenus":
        return ["moduli", "--grid", "4,2", "4,3", "6,2", "6,3", "8,2", "8,3", "--trials", "100",
                "--seed", "7"]
    if case == "moduli-highgenus-small":
        return ["moduli", "--grid", "4,2", "8,3", "--trials", "20", "--samples", "20",
                "--seed", "7"]
    name, mode, seed = case.split("/")
    return ["functor", mode, str(DATA / (name + ".cdf")), "--seed", seed]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_matches_golden_digest(case):
    assert _run(_argv(case)) == GOLDEN[case]
