"""One benchmark pass of each workload still matches the recorded digests.

``perfbench/worker.py`` hashes the canonical records of a pass (the
coefficients of each conjugation family, the connecting coefficient nu of
each standard triangle, the oracle dimensions) and compares them with
``perfbench/reference.json``.  A change in how a record prints, such as
nu written as ``2.0`` where it was ``2``, shows here, not only in a
benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["functoriality", "dims-oracle", "conjugation", "certify"])
def test_one_pass_matches_the_reference_digests(workload):
    argv = ["--workload", workload, "--seed", "77", "--pass-index", "0", "--spawned", repr(time.monotonic())]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["mismatched_groups"] == []
