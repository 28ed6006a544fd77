"""The README's command-line examples print what their comments say.

An example is an `expoly ...` line of one of the README's `sh` blocks.
Its output is given by `# -> ` comments, one per output line: the comment
that ends the example's own line, if it has one, then each following line
that holds only such a comment.  The text after `# -> ` is the output line
exactly, leading blanks included.

The ideal files the examples read are the README's
`printf '%s\\n' LINE... > NAME` lines, which write one LINE per line of
NAME.  The test writes them into a temporary directory and runs each
example there through `cli.main`, in process; its output must be its
comments, and it must exit 0 with nothing on stderr.  An option or
subcommand the CLI no longer has fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from expoly import textio
from expoly.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
OUTPUT = re.compile(r"# -> (.*)")


def _sh_lines():
    text = README.read_text(encoding="utf-8")
    return [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines()]


def _examples():
    """(argv, expected output) for each example, in README order."""
    examples, current = [], None
    for line in _sh_lines():
        if line.startswith("expoly "):
            current = (shlex.split(line, comments=True)[1:], [])
            examples.append(current)
        elif not line.lstrip().startswith("# -> "):
            current = None
        output = OUTPUT.search(line)
        if current is not None and output is not None:
            current[1].append(output[1] + "\n")
    return [(argv, "".join(lines)) for argv, lines in examples]


def _ideal_files():
    """{name: text} of each file a README `printf` line writes."""
    files = {}
    for line in _sh_lines():
        if line.startswith("printf "):
            _, form, *lines, redirect, name = shlex.split(line, comments=True)
            assert (form, redirect) == ("%s\\n", ">"), line
            files[name] = "".join(ln + "\n" for ln in lines)
    return files


EXAMPLES = _examples()


def _example_id(index):
    """The subcommand, numbered from its second example on."""
    name = EXAMPLES[index][0][0]
    count = [argv[0] for argv, _ in EXAMPLES[:index + 1]].count(name)
    return name if count == 1 else f"{name}-{count}"


def test_every_file_free_subcommand_has_an_example():
    assert [argv[0] for argv, _ in EXAMPLES if "--ideal" not in argv] == [
        "ord", "ord", "ord", "ord", "eval", "eval", "derive", "derive",
        "jacobian", "khovanskii", "aug", "aug"]


def test_every_ideal_subcommand_has_an_example():
    assert [argv[0] for argv, _ in EXAMPLES if "--ideal" in argv] == [
        "member", "member", "member", "intersect", "aug", "dagger",
        "extend", "saturate", "saturate", "rabinowitsch", "rabinowitsch"]


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[_example_id(i) for i in range(len(EXAMPLES))])
def test_readme_example_prints_its_comment(capsys, tmp_path, monkeypatch,
                                           argv, expected):
    for name, text in _ideal_files().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == expected


def test_readme_grammar_is_the_parser_docstring_grammar():
    """The README's "Term language" block is the grammar in the `textio`
    docstring, line for line."""
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## Term language\n\n```\n(.*?)```", readme, re.S)
    grammar = re.search(r"Grammar .*?::\n\n(.*?)\n\n", textio.__doc__, re.S)
    assert block[1].splitlines() == [
        line[4:] for line in grammar[1].splitlines()]
