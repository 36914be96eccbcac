"""The README's library example and command-line examples run as written."""

import re
import shlex
from pathlib import Path

from su2rep import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_block() -> str:
    """The one python block of the README's `## Library` section."""
    (block,) = re.findall(r"```python\n(.*?)```", section("Library"), re.S)
    return block


def command_lines() -> list[list[str]]:
    """The arguments of each `su2rep` line in the `## Command line` section's sh block."""
    (block,) = re.findall(r"```sh\n(.*?)```", section("Command line"), re.S)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("su2rep ")]


def test_readme_library_block_runs():
    exec(compile(library_block(), str(README), "exec"), {})


def test_readme_command_lines_run_and_name_every_subcommand():
    lines = command_lines()
    assert {argv[0] for argv in lines} == set(cli.OPTIONS)
    for argv in lines:
        assert cli.main(argv) == 0, argv
