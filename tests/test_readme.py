"""Every command of the README's command-line block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from renewal_ldp import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines()
            if line.startswith("renewal-ldp ") and " validate" not in line]


def test_the_block_is_found():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_exits_zero(line, tmp_path, capsys):
    argv = shlex.split(line, comments=True)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert cli.main(argv) == 0, capsys.readouterr().err
