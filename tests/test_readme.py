"""The README's library example runs against the current API."""

import os
import re
import subprocess
import sys

from conftest import SRC

README = SRC.parent / "README.md"


def _library_example() -> str:
    """The first python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_without_warnings():
    # a name the example uses that the package renamed or removed fails here,
    # and so does any warning, as in the rest of the suite
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, "-c", _library_example()], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
