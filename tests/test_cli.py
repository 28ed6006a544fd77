import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expoly.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ideal_file(tmp_path):
    def write(name, *lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)
    return write


def test_ord_fixture(capsys):
    code, out, _ = run(capsys, "ord", "X1 + 2*E(X1)")
    assert code == 0 and out == "w + 2\n"


def test_ord_json(capsys):
    code, out, _ = run(capsys, "ord", "--json", "E(X1) - E(2*X1)")
    doc = json.loads(out)
    assert code == 0 and doc["ord"] == "w*2" and doc["height"] == 1


def test_eval_series_fixture(capsys):
    code, out, _ = run(capsys, "eval", "--model", "series", "--order", "4",
                       "E(X1)-1", "--at", "0,1")
    assert code == 0 and out == "t + 1/2 t^2 + 1/6 t^3\n"


def test_eval_float(capsys):
    code, out, _ = run(capsys, "eval", "--model", "float", "E(X1)", "--at",
                       "0")
    assert code == 0 and out.strip() == "1"


def test_member_false_exit_zero(capsys, ideal_file):
    path = ideal_file("I.txt", "X1")
    code, out, _ = run(capsys, "member", "--ideal", path, "1")
    assert code == 0 and out == "false\n"


def test_member_true_with_cofactors(capsys, ideal_file):
    path = ideal_file("I.txt", "X1")
    code, out, _ = run(capsys, "member", "--ideal", path, "X1^2 + X1")
    assert code == 0
    assert out.splitlines()[0] == "true"
    assert "cofactor of X1: X1 + 1" in out


def test_derive_and_jacobian(capsys):
    code, out, _ = run(capsys, "derive", "E(X1^2)", "--var", "1")
    assert code == 0 and out == "2*X1*E(X1^2)\n"
    code, out, _ = run(capsys, "jacobian", "E(X1)-1")
    assert code == 0 and out == "E(X1)\n"


def test_khovanskii(capsys):
    code, out, _ = run(capsys, "khovanskii", "E(X1)-1", "--at", "0")
    assert code == 0 and out == "true\n"


def test_intersect(capsys, ideal_file):
    path = ideal_file("I.txt", "X1", "E(X1) - 2")
    code, out, _ = run(capsys, "intersect", "--ideal", path, "--layer", "0")
    assert code == 0 and out == "X1\n"


def test_aug(capsys, ideal_file):
    code, out, _ = run(capsys, "aug", "3*E(X1) - 2*E(X1^2)", "--layer", "1")
    assert code == 0 and out == "1\n"
    path = ideal_file("I.txt", "X1")
    code, out, _ = run(capsys, "aug", "E(X1) - 1", "--layer", "1",
                       "--ideal", path)
    assert code == 0 and "in kernel: true" in out


def test_dagger(capsys, ideal_file):
    path = ideal_file("I.txt", "X1", "E(X1) - 2")
    code, out, _ = run(capsys, "dagger", "--ideal", path, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["holds_on_generators"] is False and doc["witness"] == "X1"


def test_extend_and_tower_file(capsys, ideal_file, tmp_path):
    path = ideal_file("I.txt", "X1")
    out_path = str(tmp_path / "tower.json")
    code, out, _ = run(capsys, "extend", "--ideal", path, "--levels", "2",
                       "--query", "E(X1) - 1", "--level", "1",
                       "--out", out_path)
    assert code == 0
    assert "membership of E(X1) - 1 at level 1: true" in out
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["format"] == "tower/1" and doc["levels"] == 2


def test_saturate_failure_certificate(capsys, ideal_file):
    path = ideal_file("I.txt", "X1", "E(X1) - 2")
    code, out, _ = run(capsys, "saturate", "--ideal", path, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "unit"
    assert doc["certificate"]


def test_saturate_success(capsys, ideal_file):
    path = ideal_file("I.txt", "X1", "E(X1) - 1")
    code, out, _ = run(capsys, "saturate", "--ideal", path)
    assert code == 0 and "stabilized" in out


def test_rabinowitsch_json(capsys, ideal_file):
    path = ideal_file("I.txt", "X1")
    code, out, _ = run(capsys, "rabinowitsch", "--ideal", path, "--g", "X1",
                       "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["format"] == "nssreport/1"
    assert doc["d"] == 1 and doc["verified"] is True


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "eval", "E(X1)", "--at", "1")
    assert code == 1 and "exponential domain" in err


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "ord", "X1 + * X2")
    assert code == 3 and "column 6" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "member", "--ideal", "/nonexistent/I.txt", "1")
    assert code == 3


def test_exit_code_budget(capsys, ideal_file):
    path = ideal_file("I.txt", "X1^3*X2 - X1", "X1*X2^3 - X2")
    code, _, err = run(capsys, "member", "--ideal", path, "--budget", "2",
                       "X1")
    assert code == 2 and "budget" in err


def test_demo_deterministic(capsys):
    code1, out1, _ = run(capsys, "demo")
    code2, out2, _ = run(capsys, "demo")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "failure certificate" in out1 or "unit" in out1


FORCED_MISMATCH = r"""
import sys

if __debug__:
    sys.exit("expected to run under python -O")

from expoly import EPoly, IdealHandle, InternalError, one_certificate
from expoly.cli import main
from expoly.polyring import GroebnerBasis

exact = GroebnerBasis.cofactors


def skewed(self, p):
    cofactors = exact(self, p)
    if cofactors is not None:
        cofactors[0] = cofactors[0] + self.ring.const(1)
    return cofactors


GroebnerBasis.cofactors = skewed
x = EPoly.var(1, 0)
for check in (lambda: IdealHandle([x]).membership(x * x),
              lambda: one_certificate([x], x)):
    try:
        check()
    except InternalError:
        print("InternalError")
    else:
        print("accepted")
print(main(["member", "--ideal", sys.argv[1], "X1^2"]))
print(main(["rabinowitsch", "--ideal", sys.argv[1], "--g", "X1"]))
"""


def test_exit_code_internal_error_under_optimize(ideal_file):
    """A cofactor that fails to re-expand raises InternalError and exits 4,
    also with assertions compiled out."""
    path = ideal_file("I.txt", "X1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", FORCED_MISMATCH, path],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["InternalError", "InternalError", "4", "4"]
    assert proc.stderr.count("internal error") == 2
