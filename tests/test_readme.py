"""The README's library example and CLI walk-through run against the current package."""

import os
import re
import shlex
import subprocess
import sys

from conftest import SRC

README = SRC.parent / "README.md"


def _first_block(heading: str, language: str) -> str:
    """The first ``language`` block of the README's ``## heading`` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _library_example() -> str:
    return _first_block("Library", "python")


def _cli_commands() -> list[list[str]]:
    """The command lines of the ``## CLI`` sh block, comments dropped, in order."""
    commands = [shlex.split(line, comments=True) for line in _first_block("CLI", "sh").splitlines()]
    return [argv for argv in commands if argv]


def test_library_example_runs_without_warnings():
    # a name the example uses that the package renamed or removed fails here,
    # and so does any warning, as in the rest of the suite
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, "-c", _library_example()], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()


def test_cli_walkthrough_runs_without_warnings(tmp_path):
    # each command runs in order in one directory, so later ones read the files
    # earlier ones write; exit 3 (the property does not hold) is an answer, but
    # an input error (2) or a numerical failure (4) means the README drifted
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="error")
    commands = _cli_commands()
    assert commands
    for argv in commands:
        assert argv[0] == "medli", shlex.join(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "medli", *argv[1:]], capture_output=True, env=env, cwd=tmp_path
        )
        assert proc.returncode in (0, 3), f"{shlex.join(argv)}: {proc.stderr.decode()}"
