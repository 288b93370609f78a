"""Command-line contract: output shapes, exit codes, report determinism."""

from __future__ import annotations

import json
import re
import sys

import pytest

from conftest import fault
from kbproj import cli
from kbproj.algebra import AlgebraSpec
from kbproj.cli import main
from kbproj.gamma import GammaVertex
from kbproj.quadruples import Quadruple, enumerate_quadruples, format_quadruple
from kbproj.rigidity import InvalidPseudoIdentity, construct_conjugation, identity_data


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# int() refuses text with more digits than this (0: no limit, or an
# interpreter without one); the CLI and the loaders name it in their message
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="int() converts any number of digits")
PAST_LIMIT = "1" + "0" * DIGIT_LIMIT


def test_hom_text_examples(capsys):
    code, out, _ = run(
        capsys, "--algebra", "1,0", "hom", "--from", "(0,0,0)", "--to", "(0,0,0)"
    )
    assert code == 0
    assert out.strip() == "dim 2: f, g"
    code, out, _ = run(
        capsys, "--algebra", "2,1", "hom", "--from", "(0,0,-1)", "--to", "(0,0,0)"
    )
    assert code == 0
    assert out.strip() == "dim 1: f"


@pytest.mark.parametrize(
    "source, target",
    [("-1,0,0,0", "0,0,0,0"), ("0,0,0,0", "-1,0,0,0"), ("-1,0,1,1", "-1,0,0,0"), ("-1,0,0,0", "-2,-1,2,2")],
)
def test_hom_points_may_start_with_a_minus_sign(capsys, source, target):
    # argparse takes a bare "-1,0,0,0" for an option; the CLI joins it to its flag
    bare = run(capsys, "--algebra", "3,2", "hom", "--from", source, "--to", target)
    assert bare == run(capsys, "--algebra", "3,2", "hom", "--from", f"({source})", "--to", f"({target})")
    assert bare[0] == 0 and bare[1].startswith("dim ")


def test_hom_quadruple_mode_with_oracle(capsys):
    code, out, _ = run(
        capsys,
        "--algebra", "2,1",
        "hom", "--from", "(0,0,0,0)", "--to", "(0,0,1,1)",
        "--oracle", "on", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == report["oracle_dim"] == 0
    assert report["schema"] == 2
    assert report["ok"] is True


def test_hom_writes_ok_only_when_the_oracle_runs(capsys):
    args = ("--algebra", "2,1", "hom", "--from", "(0,0,-1)", "--to", "(0,0,0)", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "ok" not in json.loads(out) and "oracle_dim" not in json.loads(out)
    code, out, _ = run(capsys, *args, "--oracle", "on")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_hom_rejects_malformed_vertex(capsys):
    code, out, err = run(
        capsys, "--algebra", "1,0", "hom", "--from", "(0,0)", "--to", "(0,0,0)"
    )
    assert code == 2
    assert "error" in err


def test_hom_rejects_mixed_modes(capsys):
    code, _, err = run(
        capsys, "--algebra", "1,0", "hom", "--from", "(0,0,0)", "--to", "(0,0,0,0)"
    )
    assert code == 2
    assert "both" in err


@pytest.mark.parametrize(
    "source, target, message",
    [
        ("(0,0)", "(0,0,0)", "expected (i,a,b) or (k,u,l,v), got '(0,0)'"),
        ("(0,0,0)", "(1,2,3,4,5)", "expected (i,a,b) or (k,u,l,v), got '(1,2,3,4,5)'"),
        ("(0,x,0)", "(0,0,0)", "cannot parse '(0,x,0)' as a vertex or quadruple"),
        ("", "(0,0,0)", "cannot parse '' as a vertex or quadruple"),
        ("(0,0,0)", "(0,1,0)", "'(0,1,0)' is not a vertex of the grid"),
        ("(0,0,0,5)", "(0,0,0,0)", "'(0,0,0,5)' is not in the indexing family"),
        ("(0,0,0)", "(0,0,0,0)", "--from and --to must both be vertices or both be quadruples"),
        ("((0,0,0", "(0,0,0)", "cannot parse '((0,0,0' as a vertex or quadruple"),
        ("(0,0,0)", "0,0,0)))", "cannot parse '0,0,0)))' as a vertex or quadruple"),
        ("(0,0,10", "(0,0,0)", "cannot parse '(0,0,10' as a vertex or quadruple"),
        ("(+0,0_0,0)", "(0,0,0)", "cannot parse '(+0,0_0,0)' as a vertex or quadruple"),
        ("(0,0,0)", "(０,0,0)", "cannot parse '(０,0,0)' as a vertex or quadruple"),
        # \s matches the separator \x1c and int() refuses it: a traceback once
        ("(0,0,\x1c0)", "(0,0,0)", "cannot parse '(0,0,\\x1c0)' as a vertex or quadruple"),
        pytest.param(
            f"(0,0,{PAST_LIMIT})", "(0,0,0)",
            f"cannot parse '(0,0,{PAST_LIMIT})' as a vertex or quadruple",
            id="past-the-digit-limit", marks=needs_digit_limit,
        ),
    ],
)
def test_hom_point_errors_are_pinned(capsys, source, target, message):
    code, out, err = run(capsys, "--algebra", "1,0", "hom", "--from", source, "--to", target)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_point_parser_reads_printed_points():
    spec = AlgebraSpec(2, 1)
    for q in enumerate_quadruples(spec, -1, 1, 2)[:8]:
        assert cli._parse_point(spec, format_quadruple(q)) == q
    q = Quadruple(-1, 0, 1, 1)
    assert cli._parse_point(spec, " ( -1, 0 , 1, 1 ) ") == q
    assert cli._parse_point(spec, str(tuple(GammaVertex(1, 0, 0)))) == GammaVertex(1, 0, 0)


@pytest.mark.parametrize(
    "argv, message",
    [
        # int() read these as L(10,0), L(1,0), the window [0, 10] and [0, 0]
        (("--algebra", "1_0,0", "ar-export"), "--algebra expects integers, got '1_0,0'"),
        (("--algebra", "\u0661,0", "ar-export"), "--algebra expects integers, got '\u0661,0'"),
        (("--algebra", "1,0", "ar-export", "--a", "0:1_0"), "--a expects integers, got '0:1_0'"),
        (("--algebra", "1,0", "verify", "--k", "\uff10:0"), "--k expects integers, got '\uff10:0'"),
        (("--algebra", "1,\x1c0", "ar-export"), "--algebra expects integers, got '1,\\x1c0'"),
        (("--algebra", "1,0,0", "ar-export"), "--algebra expects N,M, got '1,0,0'"),
        (("--algebra", "1,0", "rigidity-check", "--b", "0"), "--b expects LO:HI, got '0'"),
        pytest.param(
            ("--algebra", "1,0", "ar-export", "--b", f"0:{PAST_LIMIT}"),
            f"--b expects integers, got '0:{PAST_LIMIT}'",
            id="past-the-digit-limit", marks=needs_digit_limit,
        ),
        # argparse took "-1,0" for an option; joined to its flag, it reaches the algebra check
        (("--algebra", "-1,0", "ar-export"), "--algebra needs N >= 1 and M >= 0, got '-1,0'"),
    ],
)
def test_pairs_read_integers_by_the_one_rule(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, flag", [("verify", "--l"), ("verify", "--seed"), ("rigidity-check", "--seed"),
                      ("rigidity-check", "--count")]
)
@pytest.mark.parametrize("value", ["0_1", "\u0661", "1.0", "\x1c1", "0x1", ""])
def test_integer_flags_read_integers_by_the_one_rule(capsys, command, flag, value):
    # int() read "0_1" and "\u0661" as 1
    with pytest.raises(SystemExit) as exc:
        main(["--algebra", "1,0", command, f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer, got {value!r}\n" in capsys.readouterr().err


@needs_digit_limit
def test_integer_flags_name_the_digit_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--algebra", "1,0", "verify", "--seed", PAST_LIMIT])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: integer 100000000000... has more than {DIGIT_LIMIT} digits\n" in err


def test_integers_keep_their_sign_and_whitespace_spellings(capsys):
    window = ("--k", "0:0", "--l", "1", "--a", "0:1", "--b", "0:1", "--seed", "3")
    plain = run(capsys, "--algebra", "2,1", "verify", *window, "--format", "json")
    spelled = ("--k", "+0: -0", "--l", " +1", "--a", "00:\t1", "--b", "0:1\u2003", "--seed", "+03")
    assert run(capsys, "--algebra", " 2 , +1 ", "verify", *spelled, "--format", "json") == plain
    assert plain[0] == 0
    plain = run(capsys, "--algebra", "1,0", "rigidity-check", "--count", "2", "--seed", "1")
    assert run(capsys, "--algebra", "1,0", "rigidity-check", "--count", "+2 ", "--seed", "\t01") == plain


def test_bad_algebra_parameter(capsys):
    code, _, err = run(
        capsys, "--algebra", "0,3", "hom", "--from", "(0,0,0)", "--to", "(0,0,0)"
    )
    assert code == 2
    assert "--algebra" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--algebra", "1,0", "frobnicate"])
    assert exc.value.code == 2


def test_verify_clean_window(capsys):
    code, out, _ = run(
        capsys,
        "--algebra", "2,1",
        "verify", "--k", "-1:1", "--l", "2", "--a", "-1:1", "--b", "-1:1",
    )
    assert code == 0
    assert out.strip().endswith("OK")
    assert "dims:" in out and "rigidity:" in out


def test_verify_reports_are_byte_identical(capsys):
    args = (
        "--algebra", "2,1",
        "verify", "--k", "0:0", "--l", "1", "--a", "0:1", "--b", "0:1",
        "--format", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["ok"] is True
    assert report["schema"] == 2
    assert "fault" not in report
    assert {s["name"] for s in report["suites"]} == {
        "dims", "basis", "functoriality", "suspension",
        "irreducibles", "triangles", "rigidity",
    }
    assert all(s["failures"] == [] for s in report["suites"])


def test_verify_psi_sign_fault_fails_with_counterexample(capsys):
    with fault("psi-sign"):
        code, out, _ = run(
            capsys,
            "--algebra", "2,1",
            "verify", "--k", "0:1", "--l", "1", "--a", "-2:0", "--b", "-2:0",
            "--oracle", "off", "--format", "json",
        )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert "fault" not in report
    functoriality = next(s for s in report["suites"] if s["name"] == "functoriality")
    assert functoriality["failures"]
    assert "->" in functoriality["failures"][0]
    # with the real psi_map back, the same window is clean again
    code, out, _ = run(
        capsys,
        "--algebra", "2,1",
        "verify", "--k", "0:1", "--l", "1", "--a", "-2:0", "--b", "-2:0",
        "--oracle", "off",
    )
    assert code == 0


def test_verify_membership_fault_breaks_dims(capsys):
    with fault("phi-membership"):
        code, out, _ = run(
            capsys,
            "--algebra", "2,1",
            "verify", "--k", "-1:1", "--l", "2", "--a", "0:0", "--b", "0:0",
            "--format", "json",
        )
    assert code == 1
    report = json.loads(out)
    dims = next(s for s in report["suites"] if s["name"] == "dims")
    assert dims["failures"]


def test_hom_oracle_reports_a_membership_fault(capsys):
    args = ("--algebra", "2,1", "hom", "--from", "(-1,0,0,-1)", "--to", "(-1,-1,0,-1)", "--oracle", "on")
    assert run(capsys, *args) == (0, "dim 0\noracle dim 0\n", "")
    with fault("phi-membership"):
        text = run(capsys, *args)
        code, out, _ = run(capsys, *args, "--format", "json")
    assert text == (1, "dim 1: phi\noracle dim 0\nMISMATCH\n", "")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_ar_export_dot_window(capsys):
    code, out, _ = run(capsys, "--algebra", "1,0", "ar-export")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("label=") == 6
    assert out.count("shape=box") == 3


def test_ar_export_json_window(capsys):
    code, out, _ = run(
        capsys, "--algebra", "1,0", "ar-export", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["vertices"]) == 6
    marked = [v for v in report["vertices"] if v["shifted_projective"] is not None]
    assert len(marked) == 3
    assert all(e["from"] != e["to"] for e in report["edges"])


def test_rigidity_check_seeded(capsys):
    code, out, _ = run(
        capsys,
        "--algebra", "2,1",
        "rigidity-check", "--a", "-1:1", "--b", "-1:1", "--count", "3",
    )
    assert code == 0
    assert out.strip().endswith("OK")


def test_rigidity_check_from_file(capsys, tmp_path):
    from kbproj.algebra import AlgebraSpec
    from kbproj.rigidity import pseudo_identity_to_obj, random_pseudo_identity

    spec = AlgebraSpec(2, 1)
    data = random_pseudo_identity(spec, (-1, 1, -1, 1), 9)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(pseudo_identity_to_obj(data)))
    code, out, _ = run(
        capsys,
        "--algebra", "2,1",
        "rigidity-check", "--a", "-1:1", "--b", "-1:1",
        "--input", str(path), "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert "family" in report
    assert report["instances"][0]["violations"] == []


def test_rigidity_check_report_is_not_pseudo_identity_data(capsys, tmp_path):
    # a report carries report schema 2; the loader reads data at schema 1 only
    code, out, _ = run(capsys, "--algebra", "2,1", "rigidity-check", "--count", "1", "--format", "json")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, err = run(capsys, "--algebra", "2,1", "rigidity-check", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: cannot load pseudo-identity data: unsupported schema 2\n"


def test_rigidity_check_reports_the_window_of_loaded_data(capsys, tmp_path):
    from kbproj.algebra import AlgebraSpec
    from kbproj.rigidity import pseudo_identity_to_obj, random_pseudo_identity

    data = random_pseudo_identity(AlgebraSpec(2, 1), (-1, 1, -1, 1), 9)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(pseudo_identity_to_obj(data)))
    code, out, _ = run(
        capsys, "--algebra", "2,1", "rigidity-check", "--input", str(path), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["window"] == {"a": [-1, 1], "b": [-1, 1]}


def test_rigidity_check_input_ignores_the_window_flags(capsys, tmp_path):
    from kbproj.algebra import AlgebraSpec
    from kbproj.rigidity import pseudo_identity_to_obj, random_pseudo_identity

    data = random_pseudo_identity(AlgebraSpec(2, 1), (-1, 1, -1, 1), 9)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(pseudo_identity_to_obj(data)))
    # --a 1:2 misses the column a = 0, which only a seeded run needs.
    code, out, err = run(
        capsys,
        "--algebra", "2,1",
        "rigidity-check", "--input", str(path), "--a", "1:2", "--format", "json",
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["ok"] is True
    assert report["window"] == {"a": [-1, 1], "b": [-1, 1]}


def test_rigidity_check_rejects_poisoned_file(capsys, tmp_path):
    from fractions import Fraction

    from kbproj.algebra import AlgebraSpec
    from kbproj.gamma import GammaHom
    from kbproj.rigidity import (
        PseudoIdentityData,
        pseudo_identity_to_obj,
        random_pseudo_identity,
    )

    spec = AlgebraSpec(2, 1)
    data = random_pseudo_identity(spec, (-1, 1, -1, 1), 9)
    images = list(data.images)
    for idx, (key, h) in enumerate(images):
        kind, s, t = key
        if s != t and h.f_coeff:
            images[idx] = (key, GammaHom(spec, s, t, h.f_coeff * 5, h.g_coeff))
            break
    bad = PseudoIdentityData(spec, (-1, 1, -1, 1), tuple(images))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(pseudo_identity_to_obj(bad)))
    code, out, _ = run(
        capsys,
        "--algebra", "2,1",
        "rigidity-check", "--a", "-1:1", "--b", "-1:1", "--input", str(path),
    )
    assert code == 1
    assert "FAIL" in out


def test_rigidity_check_algebra_mismatch(capsys, tmp_path):
    from kbproj.algebra import AlgebraSpec
    from kbproj.rigidity import pseudo_identity_to_obj, random_pseudo_identity

    data = random_pseudo_identity(AlgebraSpec(1, 0), (-1, 1, -1, 1), 0)
    path = tmp_path / "other.json"
    path.write_text(json.dumps(pseudo_identity_to_obj(data)))
    code, _, err = run(
        capsys, "--algebra", "2,1", "rigidity-check", "--input", str(path)
    )
    assert code == 2
    assert "match" in err


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[]", "expected a JSON object"),
        (None, "ZeroDivisionError"),
    ],
    ids=["top-level-array", "zero-denominator"],
)
def test_rigidity_check_rejects_malformed_input(capsys, tmp_path, text, problem):
    if text is None:
        obj = json.loads(json.dumps(HAND_MADE))
        obj["images"][0]["f"] = "1/0"
        text = json.dumps(obj)
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out, err = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot load pseudo-identity data: ")
    assert problem in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["rigidity-check", "verify"])
@pytest.mark.parametrize(
    "a, b, reason",
    [("1:2", "-2:2", "a = 0"), ("-2:-1", "-2:2", "a = 0"), ("-2:2", "-3:-1", "b = 0")],
)
def test_window_that_cannot_seed_is_a_usage_error(capsys, command, a, b, reason):
    code, out, err = run(capsys, "--algebra", "1,0", command, "--a", a, "--b", b)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --a/--b:")
    assert reason in err


# L(1,0) on the window a = 0, b in [0, 1]: the vertices (0,0,0) and (0,0,1),
# written out by hand.  Every image is its generator, except where a test
# replaces one.
HAND_MADE = {
    "schema": 1,
    "algebra": [1, 0],
    "window": [0, 0, 0, 1],
    "images": [
        {"kind": kind, "source": source, "target": target,
         "f": "1" if kind == "f" else "0", "g": "1" if kind == "g" else "0"}
        for kind, source, target in (
            ("f", [0, 0, 0], [0, 0, 0]),
            ("g", [0, 0, 0], [0, 0, 0]),
            ("f", [0, 0, 0], [0, 0, 1]),
            ("g", [0, 0, 1], [0, 0, 0]),
            ("f", [0, 0, 1], [0, 0, 1]),
            ("g", [0, 0, 1], [0, 0, 1]),
        )
    ],
}


def write_hand_made(tmp_path, **f_of_key) -> str:
    obj = json.loads(json.dumps(HAND_MADE))
    for item in obj["images"]:
        name = f"{item['kind']}_{''.join(map(str, item['source'] + item['target']))}"
        if name in f_of_key:
            item["f"] = f_of_key[name]
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda images: images.append(images[0]), "duplicate image key f (0, 0, 0) -> (0, 0, 0)"),
        (lambda images: images[0].update(kind="g", target=[0, 0, 1]),
         "unexpected image key g (0, 0, 0) -> (0, 0, 1)"),
    ],
    ids=["duplicate", "unexpected"],
)
def test_rigidity_check_input_names_a_bad_image_key(capsys, tmp_path, edit, problem):
    obj = json.loads(json.dumps(HAND_MADE))
    edit(obj["images"])
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot load pseudo-identity data: {problem}\n"


def doubled_at(vertex):
    """construct_conjugation, with the automorphism at ``vertex`` doubled afterwards."""
    from kbproj.gamma import GammaHom
    from kbproj.rigidity import AutomorphismFamily, construct_conjugation

    def construct(data):
        family = construct_conjugation(data)
        homs = [
            (v, GammaHom(h.spec, v, v, 2 * h.f_coeff, h.g_coeff) if v == vertex else h)
            for v, h in family.homs
        ]
        return AutomorphismFamily(family.spec, tuple(homs))

    return construct


def test_rigidity_check_hand_made_file(capsys, tmp_path):
    path = write_hand_made(tmp_path)
    code, out, _ = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", path)
    assert code == 0
    assert out.strip().endswith("OK")
    path = write_hand_made(tmp_path, f_000001="3")
    code, out, _ = run(
        capsys, "--algebra", "1,0", "rigidity-check", "--input", path, "--format", "json"
    )
    assert code == 1
    violations = json.loads(out)["instances"][0]["violations"]
    assert violations == [
        "composition broken: g after f from (0, 0, 0) via (0, 0, 1) to (0, 0, 0)",
        "composition broken: f after g from (0, 0, 1) via (0, 0, 0) to (0, 0, 1)",
    ]


@pytest.mark.parametrize(
    "field, value, problem",
    [
        # Fraction() read JSON floats: "f": 1.0 passed as "ok", and "f": 0.1
        # became 3602879701896397/36028797018963968
        ("f", 1.0, "coefficient 1.0 is neither a Fraction string nor an integer"),
        ("f", 0.1, "coefficient 0.1 is neither a Fraction string nor an integer"),
        ("g", True, "coefficient True is neither a Fraction string nor an integer"),
        ("source", [0, 0.0, 0], "vertex coordinate 0.0 is not an integer"),
        ("target", [0, 0, True], "vertex coordinate True is not an integer"),
        ("algebra", [1.0, 0], "algebra parameter 1.0 is not an integer"),
        ("window", [0, 0, 0, 1.0], "window bound 1.0 is not an integer"),
        ("window", [False, 0, 0, 1], "window bound False is not an integer"),
    ],
)
def test_rigidity_check_input_rejects_floats_and_bools(capsys, tmp_path, field, value, problem):
    obj = json.loads(json.dumps(HAND_MADE))
    if field in ("algebra", "window"):
        obj[field] = value
    else:
        obj["images"][0][field] = value
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.strip() == f"error: cannot load pseudo-identity data: TypeError: {problem}"


@pytest.mark.parametrize(
    "field, value, problem",
    [
        # the interpreter worded these: "AlgebraSpec.__init__() takes 3
        # positional arguments but 4 were given", "too many values to unpack"
        ("algebra", [1, 0, 99], "expected 2 algebra parameters, got 3"),
        ("algebra", [1, 0, "x"], "expected 2 algebra parameters, got 3"),
        ("algebra", [1], "expected 2 algebra parameters, got 1"),
        ("window", [0, 0, 0, 1, 5], "expected 4 window bounds, got 5"),
        ("window", [0, 0, 0], "expected 4 window bounds, got 3"),
    ],
)
def test_rigidity_check_input_demands_the_envelope_arity(capsys, tmp_path, field, value, problem):
    obj = json.loads(json.dumps(HAND_MADE))
    obj[field] = value
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.strip() == f"error: cannot load pseudo-identity data: TypeError: {problem}"


@needs_digit_limit
@pytest.mark.parametrize(
    "written, problem",
    [
        (json.dumps(PAST_LIMIT), "coefficient 100000000000..."),
        (json.dumps(f"1/{PAST_LIMIT}"), "coefficient 100000000000..."),
        # json converts a number before the loader sees which field holds it
        (PAST_LIMIT, "integer 100000000000..."),
    ],
    ids=["string", "denominator", "number"],
)
def test_rigidity_check_input_names_the_digit_limit(capsys, tmp_path, written, problem):
    # the interpreter's message named sys.set_int_max_str_digits() instead
    path = tmp_path / "long.json"
    path.write_text(json.dumps(HAND_MADE).replace('"f": "1"', f'"f": {written}', 1))
    code, out, err = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.strip() == (
        f"error: cannot load pseudo-identity data: {problem} has more than {DIGIT_LIMIT} digits"
    )


def test_rigidity_check_input_reads_integer_coefficients(capsys, tmp_path):
    obj = json.loads(json.dumps(HAND_MADE))
    for item in obj["images"]:
        item["f"], item["g"] = int(item["f"]), int(item["g"])
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", str(path), "--format", "json")
    expected = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", write_hand_made(tmp_path),
                   "--format", "json")
    assert (code, out.replace(str(path), "?")) == (expected[0], expected[1].replace(str(tmp_path / "hand.json"), "?"))
    assert code == 0


@pytest.mark.parametrize(
    "spelling", ["1e0", "1e5000", "1e-5000", "1_0", "\u0661", "1/\u0662", " 1", "1/2 ", "1.0", "+"]
)
def test_rigidity_check_input_reads_only_the_written_coefficient_spelling(capsys, tmp_path, spelling):
    # Fraction() read exponent forms: "1e0" loaded as 1, and "1e5000" loaded and
    # then failed writing the family, with a traceback and exit 1
    path = write_hand_made(tmp_path, f_000000=spelling)
    code, out, err = run(capsys, "--algebra", "1,0", "rigidity-check", "--input", path)
    assert (code, out) == (2, "")
    assert err.strip() == (
        "error: cannot load pseudo-identity data: "
        f"coefficient {spelling!r} is not a fraction written in ASCII digits"
    )


@pytest.mark.parametrize("spelling", ["+1", "2/2", "01", "+3/03"])
def test_rigidity_check_input_reads_a_signed_ascii_fraction(capsys, tmp_path, spelling):
    path = write_hand_made(tmp_path, f_000000=spelling)
    assert run(capsys, "--algebra", "1,0", "rigidity-check", "--input", path)[0] == 0


def test_rigidity_check_naturality_failure_names_both_sides(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "construct_conjugation", doubled_at((0, 0, 1)))
    path = write_hand_made(tmp_path)
    code, out, _ = run(
        capsys, "--algebra", "1,0", "rigidity-check", "--input", path, "--format", "json"
    )
    assert code == 1
    report = json.loads(out)
    assert "family" not in report
    assert report["instances"][0]["violations"] == [
        "naturality fails for f (0, 0, 0) -> (0, 0, 1): "
        "phi o F(h) = 2 f + 0 g, h o phi = 1 f + 0 g"
    ]


def test_verify_naturality_failure_names_both_sides(capsys, monkeypatch):
    monkeypatch.setattr(cli, "construct_conjugation", doubled_at((0, 1, 1)))
    code, out, _ = run(
        capsys,
        "--algebra", "2,1",
        "verify", "--k", "0:0", "--l", "0", "--a", "-1:1", "--b", "-1:1",
        "--oracle", "off", "--format", "json",
    )
    assert code == 1
    rigidity = next(s for s in json.loads(out)["suites"] if s["name"] == "rigidity")
    assert rigidity["checks"] == 4 and len(rigidity["failures"]) == 4
    line = re.compile(
        r"seed \d+: naturality fails for [fg] \(.*\) -> \(.*\): "
        r"phi o F\(h\) = -?\d+(/\d+)? f \+ -?\d+(/\d+)? g, "
        r"h o phi = -?\d+(/\d+)? f \+ -?\d+(/\d+)? g"
    )
    assert all(line.fullmatch(failure) for failure in rigidity["failures"][1:])


SEED_SOLVE_FAILURE = "seed solve failed at (0, 0, 1)"


def failing_seed_solve(data):
    """construct_conjugation when every seed solve fails."""
    raise InvalidPseudoIdentity(SEED_SOLVE_FAILURE)


def failing_seed_solve_unless_identity(data):
    """construct_conjugation, failing its seed solve on all but identity data."""
    if data == identity_data(data.spec, data.window):
        return construct_conjugation(data)
    return failing_seed_solve(data)


def test_verify_reports_a_failed_seed_solve(capsys, monkeypatch):
    monkeypatch.setattr(cli, "construct_conjugation", failing_seed_solve_unless_identity)
    code, out, _ = run(
        capsys,
        "--algebra", "2,1",
        "verify", "--k", "0:0", "--l", "0", "--a", "-1:1", "--b", "-1:1",
        "--oracle", "off", "--seed", "4", "--format", "json",
    )
    assert code == 1
    rigidity = next(s for s in json.loads(out)["suites"] if s["name"] == "rigidity")
    assert rigidity["checks"] == 4
    assert rigidity["failures"] == [f"seed {s}: {SEED_SOLVE_FAILURE}" for s in (4, 5, 6)]


def test_rigidity_check_reports_a_failed_seed_solve(capsys, monkeypatch):
    monkeypatch.setattr(cli, "construct_conjugation", failing_seed_solve)
    code, out, _ = run(
        capsys, "--algebra", "1,0", "rigidity-check", "--count", "2", "--seed", "5",
        "--format", "json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["instances"] == [
        {"seed": s, "ok": False, "violations": [SEED_SOLVE_FAILURE]} for s in (5, 6)
    ]
    code, out, _ = run(capsys, "--algebra", "1,0", "rigidity-check", "--count", "1")
    assert code == 1
    assert out.splitlines() == ["seed 0: FAIL", f"  {SEED_SOLVE_FAILURE}", "FAIL"]


def test_rigidity_check_input_reports_a_failed_seed_solve(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "construct_conjugation", failing_seed_solve)
    path = write_hand_made(tmp_path)
    code, out, _ = run(
        capsys, "--algebra", "1,0", "rigidity-check", "--input", path, "--format", "json"
    )
    assert code == 1
    report = json.loads(out)
    assert "family" not in report
    assert report["instances"] == [
        {"source": path, "ok": False, "violations": [SEED_SOLVE_FAILURE]}
    ]
