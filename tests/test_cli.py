import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expoly import PartialityError, parse_epoly
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
    code, out, _ = run(capsys, "eval", "--order", "4", "E(X1)-1", "--at",
                       "0,1")
    assert code == 0 and out == "t + 1/2 t^2 + 1/6 t^3\n"


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


def test_rabinowitsch_zero_g(capsys, ideal_file):
    """0^0 = 1 is no combination of X1: g = 0 needs d = 1, 0^1 = 0 * X1."""
    path = ideal_file("I.txt", "X1")
    code, out, _ = run(capsys, "rabinowitsch", "--ideal", path, "--g", "0")
    assert code == 0
    assert out.splitlines()[-3:] == ["d = 1", "  cofactor of X1: 0",
                                     "verified: True"]
    code, out, _ = run(capsys, "rabinowitsch", "--ideal", path, "--g", "0",
                       "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["d"] == 1 and doc["cofactors"] == ["0"]
    assert doc["verified"] is True


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "eval", "E(X1)", "--at", "1")
    assert code == 1 and "exponential domain" in err


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "ord", "X1 + * X2")
    assert code == 3 and "column 6" in err


@pytest.mark.parametrize("text, message", [
    ("X1+(", "expected 'num', found end of input (line 1, column 5)"),
    ("X1+", "unexpected end of input (line 1, column 4)"),
])
def test_parse_error_names_end_of_input(capsys, text, message):
    code, out, err = run(capsys, "ord", text)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["eval", "khovanskii"])
@pytest.mark.parametrize("at", ["abc", "1/0"])
def test_exit_code_malformed_series_point(capsys, command, at):
    code, out, err = run(capsys, command, "E(X1)-1", "--at", at)
    assert code == 3 and out == ""
    assert err.startswith("error: malformed rational literal")


@pytest.mark.parametrize("command", ["eval", "khovanskii"])
@pytest.mark.parametrize("order", ["0", "-1"])
def test_exit_code_order_below_one(capsys, command, order):
    code, out, err = run(capsys, command, "--order", order, "E(X1)-1",
                         "--at", "0,1,2,3")
    assert code == 1 and out == ""
    assert err == "error: truncation order must be at least 1\n"


def _src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return env


def test_member_large_power_parses_in_one_step(ideal_file):
    """X1^k adds k to an exponent; it is not k products of X1."""
    path = ideal_file("I.txt", "X1")
    proc = subprocess.run([sys.executable, "-m", "expoly", "member",
                           "--ideal", path, "X1^100000000"],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "true"


def test_many_variables_stay_small(ideal_file):
    """Memory stays near linear in --vars: 100,000 variables run in well
    under 150 MB.  ru_maxrss keeps the spawning process's high-water mark
    across exec, so the measured interpreter is started by a fresh one,
    not by the test process."""
    pytest.importorskip("resource")
    path = ideal_file("I.txt", "X1")
    measured = ("import resource\n"
                "from expoly.cli import main\n"
                f"main(['member', '--ideal', {path!r}, 'X1', "
                "'--vars', '100000'])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    launcher = ("import subprocess, sys\n"
                "sys.exit(subprocess.call([sys.executable, '-c', "
                f"{measured!r}]))")
    proc = subprocess.run([sys.executable, "-c", launcher],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    *answer, maxrss = proc.stdout.splitlines()
    assert answer[0] == "true"
    # ru_maxrss is in bytes on macOS and in KiB elsewhere.
    mib = int(maxrss) / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)
    assert mib < 150, f"peak RSS {mib:.1f} MiB"


def test_budget_bounds_tower_levels(ideal_file):
    """extend spends one step per level built, so a huge --levels stops at
    the budget rather than building every level."""
    path = ideal_file("I.txt", "X1")
    proc = subprocess.run([sys.executable, "-m", "expoly", "extend",
                           "--ideal", path, "--levels", "200000",
                           "--budget", "1000", "--query", "X1"],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "step budget of 1000 exceeded" in proc.stderr


def test_eval_large_power_squares():
    """X1^k of a series takes O(log k) products, not k."""
    proc = subprocess.run([sys.executable, "-m", "expoly", "eval",
                           "X1^10000000", "--at", "0,1", "--order", "4"],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_exit_code_ideal_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "I.txt"
    path.write_bytes(b"X1 - \xff\n")
    code, out, err = run(capsys, "member", "--ideal", str(path), "X1")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "khovanskii"])
def test_exit_code_order_beyond_index_range(capsys, command):
    """An --order too large for an index is a domain error, raised before
    any series is allocated."""
    code, out, err = run(capsys, command, "X1", "--at", "0", "--order",
                         "100000000000000000000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ord", "E(" * 1500 + "X1" + ")" * 1500],
], ids=["nested terms"])
def test_exit_code_recursion_limit(capsys, ideal_file, argv):
    """Nesting deeper than Python's recursion limit is a domain error."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "recursion" in err


def test_deep_tower_answers(capsys, ideal_file):
    """A tower verdict descends the levels in a loop, so a tower higher
    than Python's recursion limit still answers."""
    path = ideal_file("I.txt", "X1")
    code, out, err = run(capsys, "extend", "--levels", "1500", "--query",
                         "X1", "--ideal", path)
    assert code == 0 and err == ""
    assert out.endswith("membership of X1 at level 1500: true\n")


def test_ideal_file_error_names_the_file_line(capsys, ideal_file):
    """Blank and comment lines count toward the line number."""
    path = ideal_file("I.txt", "# c", "X1", "", "X1+(")
    code, out, err = run(capsys, "member", "--ideal", path, "X1")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "(line 4, column 5)" in err
    path = ideal_file("J.txt", "X1", "# X9", "X1*X3", "E(X4)")
    code, out, err = run(capsys, "member", "--ideal", path, "--vars", "3",
                         "X1")
    assert code == 3 and out == ""
    assert err == ("error: variable X4 out of range for 3 variables "
                   "(line 4, column 3)\n")
    path = ideal_file("K.txt", "X1", "", "X\u00b2")
    code, out, err = run(capsys, "member", "--ideal", path, "X1")
    assert code == 3 and out == ""
    assert err == "error: expected digits after 'X' (line 3, column 1)\n"


def test_parse_term_products():
    assert parse_epoly("X1^0", 1) == 1
    assert parse_epoly("E(X1)*E(-X1)", 1) == 1
    with pytest.raises(PartialityError):
        parse_epoly("E(1 + X1)", 1)


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "member", "--ideal", "/nonexistent/I.txt", "1")
    assert code == 3


def test_exit_code_budget(capsys, ideal_file):
    path = ideal_file("I.txt", "X1^3*X2 - X1", "X1*X2^3 - X2")
    code, _, err = run(capsys, "member", "--ideal", path, "--budget", "2",
                       "X1")
    assert code == 2 and "budget" in err


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_exit_code_budget_not_a_number(capsys, ideal_file):
    path = ideal_file("I.txt", "X1")
    code, err = _usage_error(capsys, "member", "--ideal", path, "X1",
                             "--budget", "abc")
    assert code == 3 and err.startswith("usage:") and "--budget" in err


def test_exit_code_missing_positional(capsys):
    code, err = _usage_error(capsys, "member")
    assert code == 3 and err.startswith("usage:")


def test_exit_code_negative_budget(capsys, ideal_file):
    path = ideal_file("I.txt", "X1")
    code, err = _usage_error(capsys, "member", "--ideal", path, "X1",
                             "--budget", "-1")
    assert code == 3 and "error:" in err and "exceeded" not in err


@pytest.mark.parametrize("argv", [
    ["extend", "--levels", "-3", "--query", "E(X1)-1"],
    ["extend", "--levels", "two"],
    ["member", "--vars", "0", "X1"],
    ["member", "--vars", "-1", "X1"],
    ["member", "--vars", "100001", "X1"],
], ids=lambda argv: " ".join(argv[:3]))
def test_exit_code_count_out_of_range(capsys, ideal_file, argv):
    """--levels below 0 and --vars below 1 or above 100,000 are usage
    errors, like --budget."""
    path = ideal_file("I.txt", "X1")
    code, err = _usage_error(capsys, *argv, "--ideal", path)
    assert code == 3 and err.startswith("usage:")
    assert f"argument {argv[1]}:" in err and "out of range" not in err


def test_smallest_counts_are_accepted(capsys, ideal_file):
    path = ideal_file("I.txt", "X1")
    code, out, _ = run(capsys, "extend", "--ideal", path, "--levels", "0",
                       "--query", "X1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["top_level"] == 0 and doc["member"] is True
    code, out, _ = run(capsys, "member", "--ideal", path, "--vars", "1",
                       "X1")
    assert code == 0 and out.splitlines()[0] == "true"


@pytest.mark.parametrize("argv", [
    ["intersect", "--layer", "-1"],
    ["intersect", "--layer", "-5"],
    ["dagger", "--layer", "-2"],
    ["dagger", "--layer", "one"],
    ["aug", "X1", "--layer", "-1"],
    ["aug", "X1", "--layer", "0"],
], ids=lambda argv: " ".join(argv))
def test_exit_code_layer_below_zero(capsys, ideal_file, argv):
    """A layer below 0 does not exist: a usage error, not a vacuous
    answer."""
    path = ideal_file("I.txt", "X1")
    code, err = _usage_error(capsys, *argv, "--ideal", path)
    assert code == 3 and err.startswith("usage:")
    assert "argument --layer:" in err


@pytest.mark.parametrize("index", ["0", "-1"])
def test_exit_code_variable_index_below_one(capsys, index):
    code, err = _usage_error(capsys, "derive", "X1", "--var", index)
    assert code == 3 and err.startswith("usage:")
    assert "argument --var:" in err and "index -" not in err


def test_variable_index_out_of_range_is_reported_as_typed(capsys):
    code, out, err = run(capsys, "derive", "X1", "--var", "5")
    assert code == 1 and out == ""
    assert err == "error: variable X5 out of range for 1 variables\n"


def test_lowest_layer_is_accepted(capsys, ideal_file):
    path = ideal_file("I.txt", "X1", "E(X1) - 2")
    code, out, _ = run(capsys, "intersect", "--ideal", path, "--layer", "0")
    assert code == 0 and out == "X1\n"
    code, out, _ = run(capsys, "dagger", "--ideal", path, "--layer", "0")
    assert code == 0 and out.startswith("layer 0: ")
    code, out, _ = run(capsys, "aug", "E(X1)", "--layer", "1")
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize("query", ["X1^\u00b2", "\u00b2*X1", "X\u00b9"])
def test_superscript_digit_in_expression_is_a_syntax_error(capsys,
                                                           ideal_file, query):
    path = ideal_file("I.txt", "X1")
    code, out, err = run(capsys, "member", "--ideal", path, query)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("line", ["X\u00b2", "X1^\u00b3 - 1"])
def test_superscript_digit_in_ideal_file_is_a_syntax_error(capsys,
                                                           ideal_file, line):
    """The variable count is inferred from the file before parsing it."""
    path = ideal_file("I.txt", line)
    code, out, err = run(capsys, "member", "--ideal", path, "X1")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_decimal_digits_of_any_script_still_parse():
    """Digits are the characters int() accepts: Arabic-Indic two is 2."""
    assert parse_epoly("X1^\u0662 + \u0663", 1) == parse_epoly("X1^2 + 3", 1)


REFERENCE_IDEAL = ("E(X1)-X2-1", "E(X2)-X3-1", "X1*E(X3)-X2",
                   "X1*X2*X3-E(X1+X2)")


# Each command spends these steps in all, over several Groebner runs and
# normal forms (and one per tower level built); no single run or normal
# form spends more than 251 of them.  saturate's stabilized round reuses
# the elimination basis of its cut for the exp-compatibility check.  That
# elimination, in extend, saturate and rabinowitsch alike, spends 81
# steps: the directions above the cut share one inverse.
@pytest.mark.parametrize("steps, argv", [
    (225, ["member", "X1*X2*X3-E(X1+X2)"]),
    (309, ["extend", "--levels", "1", "--query", "E(X1*X2*X3-E(X1+X2))-1"]),
    (298, ["saturate"]),
    (332, ["rabinowitsch", "--g", "X1"]),
], ids=["member", "extend", "saturate", "rabinowitsch"])
def test_budget_bounds_the_whole_command(capsys, ideal_file, steps, argv):
    path = ideal_file("I.txt", *REFERENCE_IDEAL)
    code, _, err = run(capsys, *argv, "--ideal", path,
                       "--budget", str(steps - 1))
    assert code == 2 and f"step budget of {steps - 1} exceeded" in err
    code, _, _ = run(capsys, *argv, "--ideal", path, "--budget", str(steps))
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["ord", "--budget", "5", "X1"],
    ["eval", "--budget", "5", "E(X1)", "--at", "0"],
    ["jacobian", "--vars", "1", "E(X1)-1"],
    ["khovanskii", "--budget", "5", "E(X1)-1", "--at", "0"],
    ["demo", "--json"],
    ["demo", "--vars", "1"],
    ["demo", "--seed", "1"],
], ids=lambda argv: " ".join(argv[:2]))
def test_unread_option_is_a_usage_error(capsys, argv):
    code, err = _usage_error(capsys, *argv)
    assert code == 3 and err.startswith(f"usage: expoly {argv[0]} ")


@pytest.mark.parametrize("command", ["eval", "khovanskii"])
@pytest.mark.parametrize("option", [["--model", "float"],
                                    ["--model", "series"], ["--tol", "0"]],
                         ids=" ".join)
def test_model_and_tolerance_are_not_options(capsys, command, option):
    """Evaluation has one exact model, so there is no model to choose and
    no zero tolerance to set."""
    code, err = _usage_error(capsys, command, "E(X1)-1", "--at", "0",
                             *option)
    assert code == 3 and err.startswith(f"usage: expoly {command} ")
    assert f"unrecognized arguments: {' '.join(option)}" in err


# sha256 of `expoly demo` at seed 0 (57 lines): every value, derivation,
# certificate and verdict it prints, exactly.
DEMO_SHA256 = ("f4706c6ed988908bca60e9da31c72b85"
               "e255ec4ae16586561d1e64512556392e")


def test_demo_output_keeps_its_digest(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0 and len(out.splitlines()) == 57
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_SHA256


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

from expoly import (EPoly, IdealHandle, InternalError, extract_power,
                    one_certificate)
from expoly import rabin
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

# A sound Y-graded certificate whose cofactors of h_1 are then doubled:
# only the re-expansion of g^d = sum c_i * h_i can catch it.
GroebnerBasis.cofactors = exact


def tampered(hs, g, budget=None):
    cert = one_certificate(hs, g, budget)
    t1 = cert.t[0]
    return cert._replace(
        t=(t1._replace(coeffs={k: 2 * c for k, c in t1.coeffs.items()}),
           *cert.t[1:]))


rabin.one_certificate = tampered
try:
    extract_power(tampered([x], x), [x], x)
except InternalError:
    print("InternalError")
else:
    print("accepted")
print(main(["rabinowitsch", "--ideal", sys.argv[1], "--g", "X1"]))
"""


def test_exit_code_internal_error_under_optimize(ideal_file):
    """A cofactor or a power certificate that fails to re-expand raises
    InternalError and exits 4, also with assertions compiled out."""
    path = ideal_file("I.txt", "X1")
    proc = subprocess.run([sys.executable, "-O", "-c", FORCED_MISMATCH, path],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["InternalError", "InternalError", "4", "4",
                                   "InternalError", "4"]
    assert proc.stderr.count("internal error") == 3
