"""Canonical reports pinned byte for byte, and the check counts of verify.

The files under ``golden/`` are the exact output of

    kbproj --algebra 2,1 verify --k 0:0 --l 1 --a 0:1 --b 0:1 --format json
    kbproj --algebra 2,1 rigidity-check --count 3 --seed 7 --format json
    kbproj --algebra 2,1 ar-export --a -1:1 --b -1:1 --format dot
    kbproj --algebra 2,1 ar-export --a -1:1 --b -1:1 --format json
    kbproj --algebra 2,1 hom --from "(0,0,0,0)" --to "(0,0,1,1)" --oracle on --format json
    kbproj --algebra 1,0 hom --from "(0,0,0)" --to "(0,0,0)" --oracle on --format json

A refactor of the suites, of the conjugation check or of the CLI output
must reproduce them, and must keep the number of checks each suite of a
default-window verify runs.

``golden/schema1/`` holds the three JSON reports as report schema 1 wrote
them.  Schema 2 changed those bytes in one declared way only: the top-level
``schema`` became 2 and the top-level ``fault`` (always null) went.  AST
guards keep one report header, written by ``cli._emit``, and the data header
``complexes._schema_header`` written by the three data writers alone.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from conftest import sites
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
        (
            ("--algebra", "2,1", "hom", "--from", "(0,0,0,0)", "--to", "(0,0,1,1)",
             "--oracle", "on", "--format", "json"),
            "hom_L21_quadruples_oracle.json",
        ),
        (
            ("--algebra", "1,0", "hom", "--from", "(0,0,0)", "--to", "(0,0,0)",
             "--oracle", "on", "--format", "json"),
            "hom_L10_vertices_oracle.json",
        ),
    ],
)
def test_report_bytes_are_pinned(capsys, argv, golden):
    code, out = output(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden",
    ["ar_export_L21_window.json", "rigidity_check_L21_seed7.json", "verify_L21_small_window.json"],
)
def test_schema2_is_schema1_with_the_declared_change(golden):
    obj = json.loads((GOLDEN / "schema1" / golden).read_text(encoding="utf-8"))
    assert obj["schema"] == 1
    obj["schema"] = 2
    obj.pop("fault", None)
    expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert expected == (GOLDEN / golden).read_text(encoding="utf-8")


def calls_schema_header(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_schema_header"


def builds_a_header(node) -> bool:
    """A dict display with a "schema" key."""
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == "schema" for k in node.keys
    )


def names_fault(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "fault"


def test_the_data_header_is_written_only_by_the_data_writers():
    assert sorted(sites(calls_schema_header)) == [
        "complexes.complex_to_obj", "rigidity.family_to_obj", "rigidity.pseudo_identity_to_obj",
    ]


def test_cli_builds_the_report_header_only_in_emit():
    assert sorted(sites(builds_a_header)) == ["cli._emit", "complexes._schema_header"]


def test_no_module_reads_the_legacy_key_or_writes_fault():
    assert sites(names_fault) == []
    src = Path(__file__).resolve().parent.parent / "src" / "kbproj"
    assert [p.name for p in src.glob("*.py") if "schema_version" in p.read_text()] == []


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
