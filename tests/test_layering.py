"""Import layering: the served entry points stay off the compiler and
the stdlib web stack.

``repro.compiler`` is the bring-your-own-kernel API; no experiment
driver, server or worker needs it.  The server reads HTTP itself, so
``http.server``, ``socketserver`` and the ``email`` package (which
``urllib.request`` and ``http.client`` import) are needed only by
``repro top --url``, which imports them when it runs.  Importing either
from an entry point would make every server and subprocess worker pay
for it at start-up.
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
import repro.serving.frontend
import repro.serving.runtime.worker
print(json.dumps(sorted(sys.modules)))
"""

#: Stdlib modules the served entry points must not import.
WEB_STACK = ("http.server", "socketserver", "email")


def _loaded_modules() -> list[str]:
    """Every module a fresh interpreter holds after importing the entry
    points."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def test_entry_points_import_no_compiler_module():
    loaded = _loaded_modules()
    assert "repro.cli" in loaded
    assert [m for m in loaded if m.startswith("repro.compiler")] == []


def test_entry_points_import_no_stdlib_web_stack():
    loaded = _loaded_modules()
    assert "repro.serving.frontend" in loaded
    assert [
        m for m in loaded
        if m in WEB_STACK or m.startswith(tuple(f"{w}." for w in WEB_STACK))
    ] == []
