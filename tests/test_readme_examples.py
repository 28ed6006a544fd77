"""The README's command-line examples print what their comments say.

Each `expoly ...` line of the README's `sh` blocks whose `# -> ...` comment
(on the same line or the next) gives the output, and which reads no file,
runs through `cli.main` in process; its output must be that comment.  An
option or subcommand the CLI no longer has fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from expoly import textio
from expoly.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
EXPECTED = re.compile(r"#\s*->\s*(.*?)\s*$")


def _examples():
    """(argv, expected output) for each file-free example with an output
    comment, in README order."""
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines()]
    examples = []
    for line, following in zip(lines, lines[1:] + [""]):
        if not line.startswith("expoly "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        expected = EXPECTED.search(line)
        if expected is None and following.lstrip().startswith("#"):
            expected = EXPECTED.search(following)
        if expected is not None and "--ideal" not in argv:
            examples.append((argv, expected.group(1)))
    return examples


EXAMPLES = _examples()


def test_every_file_free_subcommand_has_an_example():
    assert [argv[0] for argv, _ in EXAMPLES] == [
        "ord", "eval", "derive", "jacobian", "khovanskii", "aug"]


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example_prints_its_comment(capsys, argv, expected):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == expected + "\n"


def test_readme_grammar_is_the_parser_docstring_grammar():
    """The README's "Term language" block is the grammar in the `textio`
    docstring, line for line."""
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## Term language\n\n```\n(.*?)```", readme, re.S)
    grammar = re.search(r"Grammar .*?::\n\n(.*?)\n\n", textio.__doc__, re.S)
    assert block[1].splitlines() == [
        line[4:] for line in grammar[1].splitlines()]
