"""Every script under ``examples/`` runs to completion.

Each example is a user-facing walkthrough of a public API (the
bring-your-own-kernel compiler in ``custom_kernels.py``, the engine in
``quickstart.py``, ...).  Running them keeps that API exercised exactly
as documented.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    completed = subprocess.run(
        [sys.executable, path], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
