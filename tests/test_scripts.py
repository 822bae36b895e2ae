"""The example scripts run to completion from a clean working directory."""

import os
import subprocess
import sys

import pytest

from conftest import child_env

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("argv", [
    ["weak_iso_gap.py"],
    ["simplex_family.py", "--max-n", "3"],
    ["heat_kernel_matching.py", "--n", "6", "--restarts", "5"],
], ids=lambda argv: argv[0])
def test_script_runs(argv, tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
                          capture_output=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
