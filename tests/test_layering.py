"""Import layering: the served entry points stay off the compiler.

``repro.compiler`` is the bring-your-own-kernel API; no experiment
driver, server or worker needs it.  Importing it from an entry point
would make every server and subprocess worker pay for it at start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

SCRIPT = """
import json, sys
import repro.cli
import repro.serving.runtime.worker
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def test_entry_points_import_no_compiler_module():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    loaded = json.loads(out)
    assert "repro.cli" in loaded
    assert [m for m in loaded if m.startswith("repro.compiler")] == []
