"""Every command line in README.md's CLI example block runs and exits 0."""

import itertools
import os
import re
import shlex

import pytest

from coxheaps.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_commands() -> list[list[str]]:
    """The lines of the bash block under "## CLI", one argv per "a|b|c"
    alternative, without the leading program name."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    out = []
    for line in block.splitlines():
        tokens = shlex.split(line, comments=True)
        if not tokens:
            continue
        assert tokens[0] == "coxheaps", line
        out.extend(list(argv) for argv in itertools.product(*(t.split("|") for t in tokens[1:])))
    return out


COMMANDS = readme_commands()


def test_readme_block_covers_every_group():
    assert {argv[0] for argv in COMMANDS} == {"graph", "word", "cyclic", "heap", "toric", "coxeter"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_example_runs(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out
