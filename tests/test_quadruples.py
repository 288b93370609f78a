"""The indexing family: membership, minimal complexes, string round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALGEBRA_PARAMS
from kbproj.algebra import AlgebraSpec, successor_power
from kbproj.complexes import (
    hom_space_dimension,
    is_isomorphic_K,
    minimal_model,
    shift,
    stalk_complex,
    validate_complex,
)
from kbproj.quadruples import (
    HomotopyString,
    Quadruple,
    build_complex,
    enumerate_quadruples,
    enumerate_strings,
    in_calC,
    string_to_quadruple,
    suspend_quadruple,
    tail_position,
    validate_string,
)


def test_membership_examples():
    spec = AlgebraSpec(2, 1)
    assert in_calC(spec, Quadruple(0, 0, 0, 0))
    assert in_calC(spec, Quadruple(0, 0, 0, -1))
    assert in_calC(spec, Quadruple(3, 1, 1, -1))
    assert not in_calC(spec, Quadruple(3, 1, 2, -1))  # orbit top is 1 > 0
    assert not in_calC(spec, Quadruple(0, 0, 0, 1))
    assert not in_calC(spec, Quadruple(0, 0, -1, 0))
    assert not in_calC(spec, Quadruple(0, 2, 0, 0))


def test_membership_requires_tail_below_top():
    spec = AlgebraSpec(1, 2)
    # top of the orbit is 0; tail vertices below it are fine
    assert in_calC(spec, Quadruple(0, 0, 1, 0))
    assert in_calC(spec, Quadruple(0, 0, 1, -1))
    assert in_calC(spec, Quadruple(0, 0, 1, -2))
    # the stalk form needs v at or below u in the same tail
    assert in_calC(spec, Quadruple(0, -1, 0, -2))
    assert not in_calC(spec, Quadruple(0, -2, 0, -1))
    spec = AlgebraSpec(2, 0)
    # top is 1 > 0, so only the exact top qualifies
    assert in_calC(spec, Quadruple(0, 0, 1, 1))
    assert not in_calC(spec, Quadruple(0, 0, 1, 0))


def test_enumerate_windows():
    spec = AlgebraSpec(2, 1)
    got = enumerate_quadruples(spec, 0, 0, 0)
    assert got == [
        Quadruple(0, -1, 0, -1),
        Quadruple(0, 0, 0, -1),
        Quadruple(0, 0, 0, 0),
        Quadruple(0, 1, 0, 1),
    ]
    spec = AlgebraSpec(1, 0)
    assert enumerate_quadruples(spec, 0, 0, 1) == [
        Quadruple(0, 0, 0, 0),
        Quadruple(0, 0, 1, 0),
    ]


def test_enumerate_agrees_with_membership(spec):
    got = enumerate_quadruples(spec, -1, 1, 2)
    assert len(set(got)) == len(got)
    for q in got:
        assert in_calC(spec, q)
    brute = [
        Quadruple(k, u, l, v)
        for k in range(-1, 2)
        for u in spec.vertices
        for l in range(0, 3)
        for v in spec.vertices
        if in_calC(spec, Quadruple(k, u, l, v))
    ]
    assert sorted(got) == sorted(brute)


def ref_enumerate_quadruples(spec: AlgebraSpec, k_min: int, k_max: int, l_max: int) -> list[Quadruple]:
    """``enumerate_quadruples`` as it was, with the family rule written out inline."""
    out = []
    for k in range(k_min, k_max + 1):
        for u in spec.vertices:
            for l in range(l_max + 1):
                top = successor_power(spec, u, l)
                for v in spec.vertices:
                    if v == top or (v < top <= 0):
                        out.append(Quadruple(k, u, l, v))
    return out


@pytest.mark.parametrize("window", [(0, 0, 0), (-1, 1, 2), (-3, 3, 5), (2, 4, 7), (1, 0, 3), (0, 2, -1)])
def test_enumerate_keeps_the_inline_rule(spec, window):
    assert enumerate_quadruples(spec, *window) == ref_enumerate_quadruples(spec, *window)


def test_build_complex_puts_the_chain_first_and_the_tail_at_tail_position():
    """The layout the basis maps read, over the gate's window on the six algebras."""
    tails = {}
    for params in ALGEBRA_PARAMS:
        spec = AlgebraSpec(*params)
        for q in enumerate_quadruples(spec, -3, 3, 5):
            k, u, l, v = q
            c = build_complex(spec, q)
            for i in range(k, k + l + 1):
                assert c.summand(i)[0] == successor_power(spec, u, i - k)
            has_tail = v != successor_power(spec, u, l)
            assert sum(map(len, c.summands.values())) == l + 1 + has_tail
            if has_tail:
                assert len(c.summand(k + l - 1)) == tail_position(q) + 1
                assert c.summand(k + l - 1)[-1] == v
                tails[min(l, 2)] = tails.get(min(l, 2), 0) + 1
    # l = 0 (the tail alone below the top), l = 1 and l >= 2 are all reached
    assert sorted(tails) == [0, 1, 2]
    assert sum(tails.values()) == 483


def test_build_complex_layouts():
    spec = AlgebraSpec(2, 1)
    c = build_complex(spec, Quadruple(0, 0, 1, 1))
    assert c.summands == {0: (0,), 1: (1,)}
    c = build_complex(spec, Quadruple(0, 0, 0, -1))
    assert c.summands == {-1: (-1,), 0: (0,)}
    c = build_complex(spec, Quadruple(0, 1, 0, 1))
    assert c.summands == {0: (1,)}
    c = build_complex(spec, Quadruple(0, -1, 2, -1))
    assert c.summands == {0: (-1,), 1: (1, -1), 2: (0,)}
    with pytest.raises(ValueError):
        build_complex(spec, Quadruple(0, 0, 0, 1))


def test_built_complexes_are_valid_and_minimal(spec):
    for q in enumerate_quadruples(spec, -2, 2, 3):
        c = build_complex(spec, q)
        assert validate_complex(c) is None
        assert minimal_model(c).key() == c.key()


def test_stalk_quadruples_are_stalks(spec):
    for u in spec.vertices:
        c = build_complex(spec, Quadruple(0, u, 0, u))
        assert c.key() == stalk_complex(spec, u).key()


def test_suspension_shifts_the_complex(spec):
    for q in enumerate_quadruples(spec, -1, 1, 2):
        left = build_complex(spec, suspend_quadruple(q))
        right = shift(build_complex(spec, q), 1)
        # same summands; differentials may differ by the shift sign
        assert left.summands == right.summands
        assert is_isomorphic_K(left, right)


def test_distinct_quadruples_give_distinct_complexes():
    spec = AlgebraSpec(2, 1)
    quads = enumerate_quadruples(spec, 0, 1, 2)
    for i, qa in enumerate(quads):
        for qb in quads[i + 1 :]:
            assert not is_isomorphic_K(
                build_complex(spec, qa), build_complex(spec, qb)
            )


def test_string_examples():
    spec = AlgebraSpec(2, 1)
    assert string_to_quadruple(spec, 0, HomotopyString("descending", -1)) == Quadruple(
        1, 0, 0, -1
    )
    assert string_to_quadruple(spec, 0, HomotopyString("descending", 0)) == Quadruple(
        0, 0, 1, 1
    )
    assert string_to_quadruple(spec, 0, HomotopyString("stationary", 1)) == Quadruple(
        0, 1, 0, 1
    )
    assert string_to_quadruple(
        spec, 0, HomotopyString("turning", 1, 0, -1)
    ) == Quadruple(0, 1, 1, -1)


def test_validate_string_rejects_bad_turns():
    spec = AlgebraSpec(2, 1)
    with pytest.raises(ValueError):
        validate_string(spec, HomotopyString("turning", 0, 0, -1))  # run ends at 0
    with pytest.raises(ValueError):
        validate_string(spec, HomotopyString("turning", 1, 0, 0))  # turn must dive
    with pytest.raises(ValueError):
        validate_string(spec, HomotopyString("sideways", 0))


def test_string_round_trip_is_bijective(spec):
    quads = enumerate_quadruples(spec, -2, 2, 3)
    images = [string_to_quadruple(spec, k, t) for k, t in enumerate_strings(spec, -2, 2, 3)]
    assert len(set(images)) == len(images)
    assert sorted(images) == sorted(quads)


@settings(max_examples=60)
@given(data=st.data())
def test_quadruple_hom_dims_are_shift_invariant(data):
    n, m = data.draw(st.sampled_from(ALGEBRA_PARAMS))
    spec = AlgebraSpec(n, m)
    quads = enumerate_quadruples(spec, -1, 1, 2)
    qs = data.draw(st.sampled_from(quads))
    qt = data.draw(st.sampled_from(quads))
    t = data.draw(st.integers(min_value=-2, max_value=2))
    base = hom_space_dimension(build_complex(spec, qs), build_complex(spec, qt))
    moved = hom_space_dimension(
        build_complex(spec, Quadruple(qs.k + t, qs.u, qs.l, qs.v)),
        build_complex(spec, Quadruple(qt.k + t, qt.u, qt.l, qt.v)),
    )
    assert base == moved


def test_top_vertex_arithmetic(spec):
    for q in enumerate_quadruples(spec, 0, 0, 3):
        top = successor_power(spec, q.u, q.l)
        c = build_complex(spec, q)
        assert c.summand(q.k + q.l) == (top,) or q.v != top
