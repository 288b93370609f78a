"""The benchmark's tracer still reaches every reference to a traced function.

``perfbench/tracer.py`` wraps the functions it traces and refuses to run
when a module keeps a reference to an unwrapped original, say after a
traced name is imported into a new module.  Installing it in a fresh
interpreter on this source tree shows such a break before a traced
benchmark run does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_with_no_unwrapped_reference():
    code = "from tracer import Tracer; Tracer().install()"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "unwrapped references" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
