"""The README's command-line examples, run through ``cli.main``.

Each ``$ threshold-lab ...`` line in the README's command-line block is one
example; the lines under it, up to the next blank line, are its standard
output.  An example that shows no output (``verify``) must exit 0.
"""

import shlex
from pathlib import Path

import pytest

from threshold_lab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ threshold-lab "


def examples() -> list[tuple[str, list[str]]]:
    """(command, output lines) of every example in the command-line block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith(PROMPT):
            out.append((line[len(PROMPT):], []))
        elif line and out:
            out[-1][1].append(line)
    return out


def test_readme_block_has_every_example():
    commands = [shlex.split(command)[0] for command, _ in examples()]
    assert commands == [
        "fpt-diagonal", "fpt-search", "padic", "padic", "certify", "limit-profile", "verify",
    ]


def _name(command: str) -> str:
    """The subcommand words of an example, e.g. ``padic-expand``."""
    words = shlex.split(command)
    return "-".join(words[:2] if not words[1].startswith("-") else words[:1])


@pytest.mark.parametrize(
    "command, lines", examples(), ids=[_name(c) for c, _ in examples()]
)
def test_readme_example(capsys, command, lines):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    if lines:
        assert out.splitlines() == lines
