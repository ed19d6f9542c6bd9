"""The README's examples print what their comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from wordpat import cli
from wordpat.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section, lang):
    return re.search(rf"## {section}\n\n```{lang}\n(.*?)```", README, re.S).group(1)


def test_library_tour_prints_its_comments():
    block = _block("Library tour", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    checked = 0
    for line, got in zip(prints, printed):
        code, sep, comment = line.partition("  # ")
        if sep:
            assert got == comment.strip(), code
            checked += 1
    assert checked == 3


# (argv, commented output) of the command lines whose comment is their
# whole output.
CLI_EXAMPLES = [
    (shlex.split(code)[1:], comment.strip())
    for code, sep, comment in (line.partition("  # ") for line in _block("Command line", "sh").splitlines())
    if sep and code.split()[1] in ("std", "repeats", "contains", "algebra", "construct", "oracle")
]


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_command_line_examples_print_their_comments(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_every_listed_command_line_example_is_checked():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == ["std", "repeats", "contains", "algebra", "construct", "oracle"]


def test_command_line_block_and_parser_list_the_same_commands():
    parser = cli.build_parser()
    handlers = {
        parser.parse_args(shlex.split(line, comments=True)[1:]).func
        for line in _block("Command line", "sh").splitlines()
    }
    commands = {value for name, value in vars(cli).items() if name.startswith("cmd_")}
    assert handlers == commands
