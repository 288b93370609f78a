"""Canonical reports pinned byte for byte, and the check counts of verify.

The files under ``golden/`` are the exact output of

    kbproj --algebra 2,1 verify --k 0:0 --l 1 --a 0:1 --b 0:1 --format json
    kbproj --algebra 2,1 rigidity-check --count 3 --seed 7 --format json
    kbproj --algebra 2,1 ar-export --a -1:1 --b -1:1 --format dot
    kbproj --algebra 2,1 ar-export --a -1:1 --b -1:1 --format json

A refactor of the suites, of the conjugation check or of the CLI output
must reproduce them, and must keep the number of checks each suite of a
default-window verify runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from kbproj.cli import main

GOLDEN = Path(__file__).parent / "golden"


def output(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, golden",
    [
        (
            ("--algebra", "2,1", "verify", "--k", "0:0", "--l", "1",
             "--a", "0:1", "--b", "0:1", "--format", "json"),
            "verify_L21_small_window.json",
        ),
        (
            ("--algebra", "2,1", "rigidity-check", "--count", "3", "--seed", "7",
             "--format", "json"),
            "rigidity_check_L21_seed7.json",
        ),
        (
            ("--algebra", "2,1", "ar-export", "--a", "-1:1", "--b", "-1:1", "--format", "dot"),
            "ar_export_L21_window.dot",
        ),
        (
            ("--algebra", "2,1", "ar-export", "--a", "-1:1", "--b", "-1:1", "--format", "json"),
            "ar_export_L21_window.json",
        ),
    ],
)
def test_report_bytes_are_pinned(capsys, argv, golden):
    code, out = output(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# dims, basis, functoriality, suspension, irreducibles, triangles, rigidity
DEFAULT_WINDOW_CHECKS = {
    "1,0": [400, 56, 1135, 15, 15, 15, 4],
    "2,1": [7225, 466, 4091, 34, 34, 34, 4],
    "3,2": [27225, 1187, 6900, 52, 52, 52, 4],
}


@pytest.mark.parametrize("algebra", sorted(DEFAULT_WINDOW_CHECKS))
def test_default_window_check_counts(capsys, algebra):
    code, out = output(capsys, "--algebra", algebra, "verify", "--format", "json")
    assert code == 0
    suites = json.loads(out)["suites"]
    assert [s["name"] for s in suites] == [
        "dims", "basis", "functoriality", "suspension", "irreducibles", "triangles", "rigidity",
    ]
    assert [s["checks"] for s in suites] == DEFAULT_WINDOW_CHECKS[algebra]
    assert all(s["failures"] == [] for s in suites)
