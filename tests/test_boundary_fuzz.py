"""Fuzzing the boundary: the two JSON loaders and the CLI.

``loads_complex`` and ``pseudo_identity_from_obj`` may answer only with a
result or a ``ValueError``, and the CLI (``rigidity-check --input``,
``hom --from/--to`` and every number it reads) only with exit code 0, 1 or
2, never a traceback.  The inputs are valid objects with parts replaced by
arbitrary JSON, degree keys and CLI numbers spelled every which way, and
raw text.

One known defect lies outside what these tests draw, and is logged in
CHANGES.md.  The algebra parameters and window bounds come from small
ranges: the loaders build the path table and the window grid before they
compare either with the size of the data, so a huge one makes a short
file take time and memory that grow with it, not raise.  Coefficient
strings include exponent, underscore and non-ASCII digit spellings, which
``Fraction()`` would read and the loader refuses.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from kbproj.algebra import AlgebraSpec
from kbproj.cli import main
from kbproj.complexes import ProjComplex, complex_to_obj, loads_complex
from kbproj.quadruples import build_complex, enumerate_quadruples
from kbproj.rigidity import (
    PseudoIdentityData,
    identity_data,
    pseudo_identity_from_obj,
    pseudo_identity_to_obj,
    random_pseudo_identity,
)

SMALL = st.integers(-3, 3)
LEAF = st.one_of(
    st.none(),
    st.booleans(),
    SMALL,
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
)
JSON = st.recursive(
    LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# an integer in text as the loaders read it, and spellings around it
DEGREE_KEY = st.one_of(
    st.integers().map(str),
    st.text(alphabet=" \t+-0123456789_.e٣ ", max_size=6),
    st.text(max_size=3),
)
ALGEBRA = st.one_of(st.lists(st.integers(-1, 3), max_size=3), LEAF)


def _complex_objs():
    """Complex objects: a built complex's, and ones assembled from parts."""
    spec = AlgebraSpec(2, 1)
    built = [complex_to_obj(build_complex(spec, q)) for q in enumerate_quadruples(spec, 0, 1, 2)[:4]]
    term = st.one_of(st.tuples(st.lists(SMALL, max_size=3), st.integers(), st.integers()).map(list), JSON)
    matrix = st.one_of(st.lists(st.lists(st.lists(term, max_size=2), max_size=2), max_size=2), JSON)
    assembled = st.fixed_dictionaries(
        {
            "schema": st.sampled_from([1, 1, 1, 2, "1", None]),
            "algebra": ALGEBRA,
            "degrees": st.one_of(
                st.dictionaries(DEGREE_KEY, st.one_of(st.lists(SMALL, max_size=3), JSON), max_size=3),
                JSON,
            ),
            "differentials": st.one_of(st.dictionaries(DEGREE_KEY, matrix, max_size=2), JSON),
        }
    )
    return st.one_of(st.sampled_from(built).flatmap(_mutated), assembled)


def _mutated(obj):
    """obj with one part, at any depth, replaced by arbitrary JSON or dropped."""

    def paths(node, at):
        yield at
        if isinstance(node, dict):
            for key, value in node.items():
                yield from paths(value, at + (key,))
        elif isinstance(node, list):
            for index, value in enumerate(node):
                yield from paths(value, at + (index,))

    def replace(node, at, value):
        if not at:
            return value
        copy = dict(node) if isinstance(node, dict) else list(node)
        if value is _DROP and len(at) == 1:
            del copy[at[0]]
        else:
            copy[at[0]] = replace(node[at[0]], at[1:], value)
        return copy

    choices = [at for at in paths(obj, ()) if at]
    return st.tuples(st.sampled_from(choices), st.one_of(JSON, st.just(_DROP))).map(
        lambda pick: replace(obj, *pick)
    )


_DROP = object()


@settings(max_examples=150, deadline=None)
@given(obj=_complex_objs())
def test_the_complex_loader_raises_only_value_errors(obj):
    try:
        loaded = loads_complex(json.dumps(obj))
    except ValueError:
        return
    assert isinstance(loaded, ProjComplex)


@settings(max_examples=60, deadline=None)
@given(text=st.text(max_size=40))
def test_the_complex_loader_reads_raw_text(text):
    try:
        loads_complex(text)
    except ValueError:
        pass


def _pseudo_identity_objs():
    """Objects written by pseudo_identity_to_obj, mutated, or with another algebra or window."""
    window = (-1, 1, -1, 1)
    written = [
        pseudo_identity_to_obj(data)
        for data in (
            identity_data(AlgebraSpec(1, 0), window),
            random_pseudo_identity(AlgebraSpec(2, 1), window, 4),
        )
    ]
    resized = st.tuples(
        st.sampled_from(written), ALGEBRA, st.one_of(st.lists(SMALL, max_size=5), LEAF)
    ).map(lambda t: {**t[0], "algebra": t[1], "window": t[2]})
    # spellings Fraction() reads but pseudo_identity_to_obj never writes
    odd = st.sampled_from(["1e0", "1e5000", "1e-5000", "-2E3", "1_0", "1/2_0", "\u0661", "\uff11"])
    coefficient = st.one_of(SMALL, st.fractions(max_denominator=4).map(str), odd)
    recoefficient = st.tuples(
        st.sampled_from(written), st.integers(0, 10**6), coefficient, coefficient
    ).map(_with_coefficients)
    return st.one_of(st.sampled_from(written).flatmap(_mutated), resized, recoefficient)


def _with_coefficients(pick):
    """The object with the f and g coefficients of one image replaced."""
    obj, index, f, g = pick
    images = list(obj["images"])
    index %= len(images)
    images[index] = {**images[index], "f": f, "g": g}
    return {**obj, "images": images}


@settings(max_examples=150, deadline=None)
@given(obj=_pseudo_identity_objs())
def test_the_pseudo_identity_loader_raises_only_value_errors(obj):
    try:
        loaded = pseudo_identity_from_obj(obj)
    except ValueError:
        return
    assert isinstance(loaded, PseudoIdentityData)


def _run(*argv) -> tuple[int, str]:
    """main(argv)'s exit code, with argparse's exits counted as codes, and its
    output; any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    content=st.one_of(_pseudo_identity_objs().map(json.dumps), st.text(max_size=40)),
    algebra=st.sampled_from(["1,0", "2,1"]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_rigidity_check_input_exits_0_1_or_2(content, algebra, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        code, _ = _run("--algebra", algebra, "rigidity-check", "--input", path, "--format", fmt)
    assert code in (0, 1, 2)


POINT = st.one_of(
    st.tuples(st.integers(), st.integers(), st.integers()).map(str),
    st.tuples(SMALL, SMALL, SMALL, SMALL).map(str),
    st.text(alphabet=" ()+-,0123456789_", max_size=12),
    st.text(max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(
    source=POINT,
    target=POINT,
    algebra=st.sampled_from(["1,0", "2,1", "3,2", "1", "x", "0,0"]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_hom_exits_0_1_or_2(source, target, algebra, fmt):
    code, _ = _run("--algebra", algebra, "hom", "--from", source, "--to", target, "--format", fmt)
    assert code in (0, 1, 2)


# A small integer spelled as the CLI reads it, with a sign, leading zeros and
# whitespace, or with an underscore, a non-ASCII digit or the separator \x1c,
# which int() reads or \s matches and the CLI refuses; ``refused`` says which.
DIGITS = st.sampled_from(
    [("{}", False), ("0{}", False), ("{}_0", True), ("1_{}", True), ("\u0661{}", True),
     ("{}\uff10", True)]
)
PAD = st.sampled_from([("", False), (" ", False), ("\t", False), ("\u2003", False), ("\x1c", True)])


def _spelled(values):
    """(text, refused, value) for an int drawn from ``values``."""

    def spell(value, digits, pad, plus):
        text = f"{pad[0]}{'-' if value < 0 else plus}{digits[0].format(abs(value))}{pad[0]}"
        return text, digits[1] or pad[1], value

    return st.builds(spell, values, DIGITS, PAD, st.sampled_from(["", "+"]))


def _joined(sep, *numbers):
    """The numbers' texts joined by ``sep``, whether any was refused, and their values."""
    return sep.join(n[0] for n in numbers), any(n[1] for n in numbers), [n[2] for n in numbers]


def _report(*argv) -> tuple[int, dict | None]:
    """main(argv)'s exit code and, on 0, its JSON report."""
    code, out = _run(*argv, "--format", "json")
    return code, json.loads(out) if code == 0 else None


@settings(max_examples=80, deadline=None)
@given(
    n=_spelled(st.integers(0, 3)),
    m=_spelled(st.integers(-1, 2)),
    a=st.tuples(_spelled(st.integers(-1, 2)), _spelled(st.integers(-1, 2))),
    b=st.tuples(_spelled(st.integers(-1, 2)), _spelled(st.integers(-1, 2))),
)
def test_algebra_and_window_numbers_are_read_by_one_rule(n, m, a, b):
    algebra, a, b = _joined(",", n, m), _joined(":", *a), _joined(":", *b)
    code, report = _report("--algebra", algebra[0], "ar-export", "--a", a[0], "--b", b[0])
    assert code in (0, 2)
    if algebra[1] or a[1] or b[1]:
        assert code == 2
    elif n[2] >= 1 and m[2] >= 0 and a[2][0] <= a[2][1] and b[2][0] <= b[2][1]:
        assert code == 0
        assert (report["algebra"], report["window"]) == (algebra[2], {"a": a[2], "b": b[2]})


@settings(max_examples=40, deadline=None)
@given(
    k=st.tuples(_spelled(st.integers(-1, 1)), _spelled(st.integers(-1, 1))),
    l_max=_spelled(st.integers(-1, 2)),
    seed=_spelled(st.integers(-2, 20)),
)
def test_verify_numbers_are_read_by_one_rule(k, l_max, seed):
    k = _joined(":", *k)
    window = ["--k", k[0], "--l", l_max[0], "--a", "-1:1", "--b", "0:1", "--seed", seed[0]]
    code, report = _report("--algebra", "2,1", "verify", *window)
    assert code in (0, 2)
    if k[1] or l_max[1] or seed[1]:
        assert code == 2
    elif k[2][0] <= k[2][1] and l_max[2] >= 0:
        assert code == 0
        window = report["window"]
        assert (window["k"], window["l"], report["seed"]) == (k[2], l_max[2], seed[2])


@settings(max_examples=40, deadline=None)
@given(count=_spelled(st.integers(-1, 3)), seed=_spelled(st.integers(-2, 20)))
def test_rigidity_check_numbers_are_read_by_one_rule(count, seed):
    argv = ["--algebra", "1,0", "rigidity-check", "--a", "-1:1", "--b", "-1:1"]
    code, report = _report(*argv, "--count", count[0], "--seed", seed[0])
    assert code in (0, 2)
    if count[1] or seed[1]:
        assert code == 2
    elif count[2] >= 1:
        assert code == 0
        assert (report["seed"], len(report["instances"])) == (seed[2], count[2])
