"""Golden CLI outputs: every subcommand in text mode and under --json.

Each case runs `cli.main` in process on fixed inputs and compares the
sha256 of what it printed with the recorded value.  A case must exit 0
and print nothing to stderr.
"""

import hashlib

import pytest

from expoly.cli import main

REFERENCE_IDEAL = ("E(X1)-X2-1", "E(X2)-X3-1", "X1*E(X3)-X2",
                   "X1*X2*X3-E(X1+X2)")

# (case id, ideal file lines or None, arguments); "IDEAL" stands for the
# ideal file.
CASES = [
    ("ord", None, ["ord", "X1 + 2*E(X1) - E(E(X2))"]),
    ("eval-series", None, ["eval", "E(X1)-1", "--at", "0,1", "--order", "4"]),
    ("derive-var", None, ["derive", "X1*E(X1*X2)", "--var", "2"]),
    ("derive-action", None,
     ["derive", "X1*E(X2)", "--action", "X1", "--action", "1"]),
    ("jacobian", None, ["jacobian", "E(X1)-X2", "X1*X2"]),
    ("khovanskii-true", None, ["khovanskii", "E(X1)-1", "--at", "0"]),
    ("member-true", REFERENCE_IDEAL,
     ["member", "X1*X2*X3-E(X1+X2)", "--ideal", "IDEAL"]),
    ("member-false", REFERENCE_IDEAL, ["member", "X1", "--ideal", "IDEAL"]),
    ("intersect", REFERENCE_IDEAL,
     ["intersect", "--ideal", "IDEAL", "--layer", "0"]),
    ("intersect-zero", ("E(X1)-2",),
     ["intersect", "--ideal", "IDEAL", "--layer", "0"]),
    ("aug", None, ["aug", "3*E(X1) - 2*E(X1^2)"]),
    ("aug-ideal", ("X1",), ["aug", "E(X1)-1", "--ideal", "IDEAL"]),
    ("dagger", REFERENCE_IDEAL, ["dagger", "--ideal", "IDEAL"]),
    ("dagger-witness", ("X1", "E(X1) - 2"), ["dagger", "--ideal", "IDEAL"]),
    ("extend", ("X1", "X2*X1"),
     ["extend", "--ideal", "IDEAL", "--levels", "2", "--query",
      "E(X1) - 1", "--level", "1"]),
    ("extend-top", ("X1",),
     ["extend", "--ideal", "IDEAL", "--levels", "2", "--query",
      "E(X1) + X1"]),
    ("saturate-unit", ("X1", "E(X1) - 2"), ["saturate", "--ideal", "IDEAL"]),
    ("saturate-stable", ("X1", "E(X1) - 1"),
     ["saturate", "--ideal", "IDEAL"]),
    ("rabinowitsch", REFERENCE_IDEAL,
     ["rabinowitsch", "--ideal", "IDEAL", "--g", "X1"]),
    ("rabinowitsch-found", ("X1^2",),
     ["rabinowitsch", "--ideal", "IDEAL", "--g", "X1"]),
]

# First 20 hex digits of the sha256 of each case's output, text and JSON.
DIGESTS = {
    "ord-text": "eb56f94da3bbffa61be7",
    "ord-json": "ac04d4f70b7c9094df1e",
    "eval-series-text": "d6bfdea05a498ba2cfcf",
    "eval-series-json": "ddef5ac0acd498bdcbbd",
    "derive-var-text": "46b08085f20c37cd4f94",
    "derive-var-json": "babfcbf4539e1d133d73",
    "derive-action-text": "0a65c98468dcebab34c0",
    "derive-action-json": "3d59173c84f9fff8fd8a",
    "jacobian-text": "a509def93f8951ef9b75",
    "jacobian-json": "4a7396f11fabca031533",
    "khovanskii-true-text": "a17fcf0a2f50e2d495e4",
    "khovanskii-true-json": "edef64a79a52753b5510",
    "member-true-text": "47411a6e7262b811be08",
    "member-true-json": "f0bb5646a89d7e7dc8a9",
    "member-false-text": "2ed27c1421e6928dbe13",
    "member-false-json": "59d1d050bf49dc600148",
    "intersect-text": "7eb268cb67af13b9f6ce",
    "intersect-json": "27c259c9b6c49e5348fc",
    "intersect-zero-text": "9a271f2a916b0b6ee6ce",
    "intersect-zero-json": "6e6440da20a87b019dab",
    "aug-text": "4355a46b19d348dc2f57",
    "aug-json": "01c3b2c0c457a0339401",
    "aug-ideal-text": "0846e7e8597b5dcf806b",
    "aug-ideal-json": "1de9eb1a91ea3e493329",
    "dagger-text": "bc47bb381a881ab70958",
    "dagger-json": "28107bca08795b071819",
    "dagger-witness-text": "d5617e309c1fbd50c8cc",
    "dagger-witness-json": "3a80a222a0d07fb0f23a",
    "extend-text": "4a8431dccffaa36f2fdf",
    "extend-json": "1554a56927cba42086cc",
    "extend-top-text": "7c6d4628e9b810a42823",
    "extend-top-json": "35652bc27465f5f3a371",
    "saturate-unit-text": "a3d8b0313abd3fd015f7",
    "saturate-unit-json": "38bc95f886541f378aa1",
    "saturate-stable-text": "bb62b9354dc3222507ae",
    "saturate-stable-json": "1d4c5aba13b5a0f1b983",
    "rabinowitsch-text": "9f53a7431e4666711007",
    "rabinowitsch-json": "26323c93a558fade25cf",
    "rabinowitsch-found-text": "be9e4811bf57a24c9bd4",
    "rabinowitsch-found-json": "7ab4741a5dc3c4376030",
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case, lines, argv", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_output_keeps_its_digest(capsys, tmp_path, case, lines, argv,
                                     mode):
    ideal = tmp_path / "I.txt"
    if lines is not None:
        ideal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [str(ideal) if a == "IDEAL" else a for a in argv]
    code = main(argv + (["--json"] if mode == "json" else []))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()[:20]
    assert digest == DIGESTS[f"{case}-{mode}"], captured.out
