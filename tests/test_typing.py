"""Strict-typing gate for the lint / verify / core / obs / stats packages.

Runs mypy (configured in pyproject.toml) over the strict packages.  The
check is skipped when mypy is not installed — the canonical run is the
CI ``typecheck`` job; locally it activates automatically once mypy is
present (``pip install -e .[typecheck]``).
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mypy")

REPO = Path(__file__).parent.parent


def test_strict_packages_pass_mypy():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(REPO / "pyproject.toml"),
            "-p",
            "repro.lint",
            "-p",
            "repro.verify",
            "-p",
            "repro.core",
            "-p",
            "repro.obs",
            "-p",
            "repro.stats",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
