"""Importing the package and its CLI loads no scipy.

A fresh interpreter imports the package and its CLI and reports every
loaded module, so a stray scipy import (most of the start-up time of every
CLI process) fails here instead of quietly slowing each command.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = "import sys, uwocnet, uwocnet.cli; print('\\n'.join(sorted(sys.modules)))"


def test_package_and_cli_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    modules = result.stdout.split()
    assert "uwocnet.cli" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
