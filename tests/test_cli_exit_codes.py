"""Property: every CLI path ends with a documented exit code.

Each example picks a subcommand and fills its arguments from
`build_parser()`'s own option table, so an option added later is drawn
without editing this file.  Values include edge cases: negative, zero and
large integers, digits of other scripts, superscripts, malformed
expressions and points, and missing, empty, malformed, non-UTF-8 and
directory paths.  `cli.main` runs in
process.  It must return or exit with 0-4 and let no exception escape; an
error exit writes an `error:` or usage line, and `--json` output parses as
strict JSON (no NaN or Infinity token).
"""

import argparse
import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly.cli import build_parser, main  # noqa: E402

EXIT_CODES = {0, 1, 2, 3, 4}


def mostly(valid, edge):
    """Three draws in four from `valid`, the rest from `edge`, so that
    most command lines get past argument checking."""
    return st.integers(0, 3).flatmap(lambda i: edge if i == 3 else valid)


# Integer option texts: small, negative, zero, large, other scripts'
# decimal digits, a superscript, and non-numbers.
INT_TEXTS = mostly(st.integers(1, 4).map(str),
                   st.one_of(st.integers(-3, 12).map(str),
                             st.sampled_from(["1000", "-0", "+2", "٣", "２",
                                              "²", "1e3", "", "x"])))
# `--order` stays small: a series of order N costs N^2 per product, and the
# unbounded order is a known open defect, not an exit-code one.
ORDER_TEXTS = mostly(st.integers(1, 12).map(str),
                     st.sampled_from(["0", "-2", "٣", "²", "x"]))
EXPRESSIONS = mostly(
    st.sampled_from(["0", "1", "X1", "X2", "X1^2 + X1", "E(X1) - 1",
                     "E(X1) - 2", "E(1/2*X1) - 1", "E(i*X1) - 1",
                     "X1*X2 - 1", "E(E(X1) - 1) - 1", "(1/2)+(3)i*X1"]),
    st.sampled_from(["X1^2000", "E(X1^100)", "X1^100*X2^100", "X9",
                     "X1 + * X2", "E(", "X²", "X0", "E(1 + X1)", "1/0",
                     ""]))
POINTS = mostly(
    st.sampled_from(["0", "1", "0,1", "0,1;0,0,1", "1;2", "0;0", "1.5",
                     "(1)+(2)i", "1/2"]),
    st.sampled_from(["3", "1e400", "1e3;1e3", "", ";", "x", "1/0",
                     "0,1,2,3,4,5"]))
IDEALS = {
    "x1": "X1\n",
    "two": "X1\nE(X1) - 2\n",
    "half": "E(1/2*X1) - 1\n",
    "units": "X1*X2 - 1\nE(X2) - 1\n",
    "comment": "# nothing but a comment\n",
    "empty": "",
    "malformed": "X1 + *\n",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ideals = []
    for name, text in IDEALS.items():
        path = root / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        ideals.append(str(path))
    (root / "latin1.txt").write_bytes(b"X1 - \xff\n")
    broken = [str(root / "latin1.txt"), str(root / "missing.txt"), str(root)]
    return {"ideal": mostly(st.sampled_from(ideals), st.sampled_from(broken)),
            "out": mostly(st.just(str(root / "tower.json")),
                          st.just(str(root)))}


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


SUBCOMMANDS = _subcommands()


def _values(action, paths):
    """A strategy for the text of one value of `action`."""
    if action.dest in paths:
        return paths[action.dest]
    if action.dest == "at":
        return POINTS
    if action.dest == "order":
        return ORDER_TEXTS
    if action.type is not None:
        return INT_TEXTS
    return EXPRESSIONS


@st.composite
def command_lines(draw, paths):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for action in SUBCOMMANDS[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        values = _values(action, paths)
        if not action.option_strings:
            # jacobian and khovanskii take one expression per variable;
            # three keep the determinant small.
            count = 1 if action.nargs is None else draw(st.integers(1, 3))
            argv += draw(st.lists(values, min_size=count, max_size=count))
        elif action.dest == "budget":
            argv += ["--budget", str(draw(mostly(st.integers(50, 400),
                                                 st.integers(0, 49))))]
        elif action.required or draw(st.booleans()):
            flag = action.option_strings[-1]
            if action.nargs == 0:
                argv.append(flag)
            else:
                argv += [flag, draw(values)]
    if draw(st.integers(0, 19)) == 19:
        # An unknown option is a usage error.
        argv.append("--bogus")
    return argv


def _strict(token):
    raise ValueError(f"non-JSON token {token}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_command_line_exits_with_a_documented_code(paths, data):
    argv = data.draw(command_lines(paths), label="argv")
    code, out, err = _run(argv)
    assert code in EXIT_CODES
    if code:
        assert err.startswith(("error: ", "usage: ")), err
        assert "Traceback" not in err
    elif "--json" in argv:
        for line in out.splitlines():
            json.loads(line, parse_constant=_strict)
