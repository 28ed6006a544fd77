"""Every internal check fires: forced failures, also under `python -O`.

Each case patches one step of the engine so that the check after it must
fail, the way `FORCED_MISMATCH` in `tests/test_cli.py` skews cofactors,
and runs the CLI command that reaches the check.  An internal check raises
`InternalError` (exit 4), and the saturation round cap raises
`PreconditionError` (exit 1).  The checks raise explicitly, not by
`assert`, so one test runs every case again in a `python -O` process.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expoly import EPoly, rabin, tower
from expoly.cli import main
from expoly.linalg import RationalEchelon

_exact_certificate = rabin.one_certificate


def _insert_nothing(self, vec):
    """An echelon that takes in no vector, so every vector lies outside
    its span."""
    return False, {}


def _split_onto_x1(self, a):
    """A split whose argument a + fhat_lower is X1 for every key a."""
    return a, EPoly.var(self.nvars, 0) - a


def _every_direction(dense):
    """A kernel that holds every direction, in the cut or not."""
    return [[int(i == j) for j in range(len(dense))]
            for i in range(len(dense))]


def _doubled_certificate(hs, g, budget=None):
    """A sound Y-graded certificate whose cofactors of h_1 are doubled."""
    cert = _exact_certificate(hs, g, budget)
    t1 = cert.t[0]
    return cert._replace(
        t=(t1._replace(coeffs={k: 2 * c for k, c in t1.coeffs.items()}),
           *cert.t[1:]))


# name -> (patches, ideal file lines, argv after the ideal, exit code,
#          stderr line)
CASES = {
    "presented component": (
        [(RationalEchelon, "insert", _insert_nothing)],
        ["E(X1) - 1"], ["member", "X1"], 4,
        "internal error: a presented exponent component lies outside the "
        "span of the components"),
    "power certificate": (
        [(rabin, "one_certificate", _doubled_certificate)],
        ["X1"], ["rabinowitsch", "--g", "X1"], 4,
        "internal error: power certificate fails to expand"),
    "repeated arguments": (
        [(tower.TrackedDecomposition, "split", _split_onto_x1)],
        ["X1"], ["aug", "E(X1) + E(2*X1)", "--layer", "1"], 4,
        "internal error: rewrite produced repeated exponential arguments"),
    "kernel direction": (
        [(tower, "integer_kernel", _every_direction)],
        ["X1", "E(X2) - 1"], ["saturate"], 4,
        "internal error: kernel direction X2 is not in the cut ideal"),
    "saturation rounds": (
        [(tower, "_MAX_SATURATION_ROUNDS", 1)],
        ["X1"], ["saturate"], 1,
        "saturation did not settle within 1 rounds"),
}


def _argv(name, directory):
    """The case's command line, with its ideal file written to directory."""
    _, lines, (command, *rest), _, _ = CASES[name]
    path = Path(directory) / "I.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [command, "--ideal", str(path), *rest]


def run_case(name, directory):
    """(exit code, stderr) of the case's command under its patches."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        for owner, attr, value in CASES[name][0]:
            mp.setattr(owner, attr, value)
        code = main(_argv(name, directory))
    return code, err.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_forced_failure_is_reported(name, tmp_path):
    *_, code, message = CASES[name]
    assert run_case(name, tmp_path) == (code, f"error: {message}\n")


@pytest.mark.parametrize("name", CASES)
def test_case_passes_without_its_patch(name, tmp_path):
    """The command itself is sound: without the patch it exits 0."""
    assert main(_argv(name, tmp_path)) == 0


OPTIMIZED = r"""
import sys

if __debug__:
    sys.exit("expected to run under python -O")

from test_internal_checks import CASES, run_case

for name in CASES:
    print(repr(run_case(name, sys.argv[1])))
"""


def test_forced_failures_under_optimize(tmp_path):
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(here.parent / "src"), str(here), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED,
                           str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        repr((code, f"error: {message}\n"))
        for *_, code, message in CASES.values()]
