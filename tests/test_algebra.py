"""Path arithmetic: quiver data, maximal paths, factor paths, products."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALGEBRA_PARAMS, brute_arrow_words
from kbproj.algebra import (
    AlgebraSpec,
    Path,
    PathCombination,
    algebra_product,
    compose_paths,
    factor_path,
    hom_basis_proj,
    make_path,
    max_path,
    path_is_valid,
    stationary_path,
    successor,
    successor_power,
)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError, match=r"^cycle length n must be >= 1, got 0$"):
        AlgebraSpec(0, 0)
    with pytest.raises(ValueError, match=r"^tail length m must be >= 0, got -1$"):
        AlgebraSpec(1, -1)


@pytest.mark.parametrize("n, m", ALGEBRA_PARAMS)
def test_spec_is_a_value_of_n_and_m(n, m):
    spec = AlgebraSpec(n, m)
    twin = AlgebraSpec(n, m)
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != AlgebraSpec(n + 1, m) and spec != AlgebraSpec(n, m + 1)
    # the hash is that of (n, m), computed once per spec; a spec is no tuple
    assert hash(spec) == hash((n, m)) and hash(replace(spec, m=m + 1)) == hash((n, m + 1))
    assert spec != (n, m) and len({spec, twin, AlgebraSpec(n + 1, m)}) == 2
    assert repr(spec) == f"AlgebraSpec(n={n}, m={m})"
    assert spec.vertices == spec.arrows == range(-m, n)
    assert replace(spec, n=n + 1).vertices == range(-m, n + 1)
    with pytest.raises(TypeError):
        AlgebraSpec(n, m, range(-m, n))
    with pytest.raises(TypeError):
        AlgebraSpec(n=n, m=m, vertices=range(-m, n))


def test_arrow_endpoints():
    spec = AlgebraSpec(3, 2)
    assert list(spec.arrows) == [-2, -1, 0, 1, 2]
    assert [spec.arrow_source(w) for w in spec.arrows] == [-1, 0, 1, 2, 0]
    assert [spec.arrow_target(w) for w in spec.arrows] == [-2, -1, 0, 1, 2]


def test_loop_algebra_arrow():
    spec = AlgebraSpec(1, 0)
    assert spec.arrow_source(0) == 0
    assert spec.arrow_target(0) == 0


def test_successor_values():
    spec = AlgebraSpec(2, 1)
    assert successor(spec, -1) == 1
    assert successor(spec, 0) == 1
    assert successor(spec, 1) == 0
    assert successor(AlgebraSpec(1, 2), -2) == 0
    assert successor(AlgebraSpec(1, 0), 0) == 0


def test_successor_power_matches_iteration():
    for n, m in ALGEBRA_PARAMS:
        spec = AlgebraSpec(n, m)
        for u in spec.vertices:
            at = u
            for j in range(0, 2 * n + 3):
                assert successor_power(spec, u, j) == at
                at = successor(spec, at)


def ref_successor(spec: AlgebraSpec, u: int) -> int:
    """``successor`` as it was, with its own copy of the rule."""
    if u not in spec.vertices:
        raise ValueError(f"vertex {u} not in {spec}")
    if spec.n == 1:
        return 0
    if u < 0:
        return 1
    return (u + 1) % spec.n


def test_successor_is_the_first_iterate_and_keeps_the_old_rule():
    calls = [
        successor,
        ref_successor,
        lambda spec, u: successor_power(spec, u, 1),
        lambda spec, u: successor_power(spec, u, 0),
    ]
    for n in range(1, 5):
        for m in range(4):
            spec = AlgebraSpec(n, m)
            for u in spec.vertices:
                assert successor(spec, u) == successor_power(spec, u, 1) == ref_successor(spec, u)
            for u in (-m - 1, n):
                for call in calls:
                    with pytest.raises(ValueError, match=f"^{re.escape(f'vertex {u} not in {spec}')}$"):
                        call(spec, u)


def test_successor_power_checks_its_vertex_for_every_iterate():
    spec = AlgebraSpec(1, 0)
    for j in (0, 1):
        with pytest.raises(ValueError, match=r"^vertex 5 not in AlgebraSpec\(n=1, m=0\)$"):
            successor_power(spec, 5, j)
    with pytest.raises(ValueError, match="^negative iterate -1$"):
        successor_power(spec, 0, -1)


def test_max_path_examples():
    assert max_path(AlgebraSpec(2, 1), -1) == Path(1, (-1, 0))
    assert max_path(AlgebraSpec(2, 1), 0) == Path(1, (0,))
    assert max_path(AlgebraSpec(1, 0), 0) == Path(0, (0,))
    assert max_path(AlgebraSpec(1, 2), -2) == Path(0, (-2, -1, 0))


def test_max_path_is_valid_and_maximal(spec):
    for u in spec.vertices:
        p = max_path(spec, u)
        assert path_is_valid(spec, p)
        assert p.end == u
        assert p.start == successor(spec, u)
        # no longer path ends at u: prepending any arrow at the start dies
        for w in spec.arrows:
            if spec.arrow_target(w) == p.start:
                assert not path_is_valid(spec, Path(spec.arrow_source(w), p.arrows + (w,)))


def test_consecutive_max_paths_compose_to_zero(spec):
    for u in spec.vertices:
        s = successor(spec, u)
        assert compose_paths(spec, max_path(spec, u), max_path(spec, s)).is_zero()


def test_factor_path_splits_max_path(spec):
    for u in spec.vertices:
        for v in spec.vertices:
            if u > v or successor(spec, u) != successor(spec, v):
                with pytest.raises(ValueError):
                    factor_path(spec, u, v)
                continue
            f = factor_path(spec, u, v)
            assert path_is_valid(spec, f)
            assert compose_paths(spec, f, max_path(spec, v)) == PathCombination.of(
                max_path(spec, u)
            )


def test_hom_basis_matches_brute_enumeration(spec):
    for u in spec.vertices:
        for v in spec.vertices:
            expected = brute_arrow_words(spec.n, spec.m, u, v)
            got = hom_basis_proj(spec, v, u)
            assert [p.arrows for p in got] == expected
            assert all(p.start == u and p.end == v for p in got)
            # the list is the caller's: changing it leaves the next answer alone
            got.reverse()
            got.append(Path(u, ()))
            assert [p.arrows for p in hom_basis_proj(spec, v, u)] == expected


def test_hom_basis_examples():
    assert hom_basis_proj(AlgebraSpec(1, 0), 0, 0) == [Path(0, ()), Path(0, (0,))]
    assert hom_basis_proj(AlgebraSpec(2, 1), -1, 0) == [Path(0, (-1,))]
    assert hom_basis_proj(AlgebraSpec(2, 0), 0, 0) == [Path(0, ())]


def test_make_path_normalizes_cycle_indices():
    spec = AlgebraSpec(2, 1)
    assert make_path(spec, [2]) == make_path(spec, [0])
    with pytest.raises(ValueError):
        make_path(spec, [0, 1])  # forbidden cycle pair
    with pytest.raises(ValueError):
        make_path(spec, [])


def test_stationary_path_requires_vertex():
    with pytest.raises(ValueError):
        stationary_path(AlgebraSpec(2, 1), 2)


def test_compose_paths_zero_junction():
    spec = AlgebraSpec(3, 2)
    # alpha_0 after alpha_1 is the forbidden pair (0, 1)
    assert compose_paths(spec, make_path(spec, [0]), make_path(spec, [1])).is_zero()
    got = compose_paths(spec, make_path(spec, [-1]), make_path(spec, [0]))
    assert got == PathCombination.of(make_path(spec, [-1, 0]))


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def combinations(draw, spec: AlgebraSpec, start: int, end: int):
    paths = hom_basis_proj(spec, end, start)
    if not paths:
        return PathCombination.zero()
    picks = draw(st.lists(st.sampled_from(paths), max_size=3))
    out = PathCombination.zero()
    for p in picks:
        out = out + PathCombination.of(p, draw(coeffs))
    return out


@settings(max_examples=60)
@given(data=st.data())
def test_algebra_product_is_associative(data):
    n, m = data.draw(st.sampled_from(ALGEBRA_PARAMS))
    spec = AlgebraSpec(n, m)
    verts = list(spec.vertices)
    a, b, c, d = (data.draw(st.sampled_from(verts)) for _ in range(4))
    x = data.draw(combinations(spec, b, a))
    y = data.draw(combinations(spec, c, b))
    z = data.draw(combinations(spec, d, c))
    assert algebra_product(spec, algebra_product(spec, x, y), z) == algebra_product(
        spec, x, algebra_product(spec, y, z)
    )


@settings(max_examples=60)
@given(data=st.data())
def test_path_combination_linearity(data):
    n, m = data.draw(st.sampled_from(ALGEBRA_PARAMS))
    spec = AlgebraSpec(n, m)
    verts = list(spec.vertices)
    u = data.draw(st.sampled_from(verts))
    v = data.draw(st.sampled_from(verts))
    x = data.draw(combinations(spec, u, v))
    y = data.draw(combinations(spec, u, v))
    t = data.draw(coeffs)
    assert (x + y) - y == x
    assert x.scale(t) + y.scale(t) == (x + y).scale(t)
    assert x.scale(Fraction(0)).is_zero()


# -- The product table against the brute-force route -------------------------


def _brute_paths(spec: AlgebraSpec) -> list[Path]:
    """Every nonzero path, rebuilt by the conftest enumerator."""
    out = []
    for u in spec.vertices:
        for v in spec.vertices:
            out.extend(Path(u, w) for w in brute_arrow_words(spec.n, spec.m, u, v))
    return out


def _reference_product(spec, x, y):
    """The bilinear loop algebra_product used before the path table."""
    out = PathCombination.zero()
    for px, cx in x.terms():
        for py, cy in y.terms():
            out = out + compose_paths(spec, px, py).scale(cx * cy)
    return out


def _assert_normal(x: PathCombination) -> None:
    """Every coefficient a nonzero int, or a Fraction that is not an integer; never a float."""
    for _, coeff in x.terms():
        assert (type(coeff) is int and coeff != 0) or (type(coeff) is Fraction and coeff.denominator > 1)


def test_table_products_follow_the_concatenation_rule(spec):
    paths = _brute_paths(spec)
    for p in paths:
        for q in paths:
            if q.end != p.start:
                with pytest.raises(ValueError):
                    algebra_product(spec, PathCombination.of(p), PathCombination.of(q))
                continue
            word = p.arrows + q.arrows
            nonzero = word in brute_arrow_words(spec.n, spec.m, q.start, p.end)
            got = algebra_product(spec, PathCombination.of(p), PathCombination.of(q))
            expected = PathCombination.of(Path(q.start, word)) if nonzero else PathCombination.zero()
            assert got == expected
            _assert_normal(got)


def _random_combination(rng, paths, start, end) -> PathCombination:
    parallel = [p for p in paths if p.start == start and p.end == end]
    out = PathCombination.zero()
    for _ in range(rng.randint(0, 4)):
        if parallel:
            coeff = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            out = out + PathCombination.of(rng.choice(parallel), coeff)
    return out


def test_algebra_product_matches_the_reference_loop(spec):
    rng = random.Random(spec.n * 10 + spec.m)
    paths = _brute_paths(spec)
    verts = list(spec.vertices)
    for _ in range(300):
        a, b, c = (rng.choice(verts) for _ in range(3))
        x = _random_combination(rng, paths, b, a)
        y = _random_combination(rng, paths, c, b)
        got = algebra_product(spec, x, y)
        assert got == _reference_product(spec, x, y)
        assert got.key() == _reference_product(spec, x, y).key()
        _assert_normal(got)


def test_cancelling_terms_leave_no_zero_coefficient():
    spec = AlgebraSpec(1, 0)
    e, a = Path(0, ()), Path(0, (0,))
    x = PathCombination.of(e) + PathCombination.of(a)
    y = PathCombination.of(e) - PathCombination.of(a)
    # (e + a)(e - a) = e - a + a - a*a, and a*a is zero
    got = algebra_product(spec, x, y)
    assert got == PathCombination.of(e)
    assert list(got.terms()) == [(e, Fraction(1))]
    assert (x - x).is_zero() and list((x - x).terms()) == []
    for combo in (x + y, x - y, -x, x.scale(3), x.scale(Fraction(1, 2)), PathCombination.of(a, 2)):
        _assert_normal(combo)


def test_coefficients_are_ints_unless_a_denominator_is_left():
    spec = AlgebraSpec(1, 0)
    e, a = Path(0, ()), Path(0, (0,))
    half = PathCombination.of(e, Fraction(1, 2))
    for whole in (half + half, half.scale(2), PathCombination.of(e, Fraction(4, 4))):
        assert list(whole.terms()) == [(e, 1)] and type(whole.coefficient(e)) is int
    quarter = half.scale(Fraction(1, 2))
    assert quarter.coefficient(e) == Fraction(1, 4) and type(quarter.coefficient(e)) is Fraction
    # (2 e + 1/3 a)(3/2 e) = 3 e + 1/2 a: int x Fraction products in both directions
    x = PathCombination.of(e, 2) + PathCombination.of(a, Fraction(1, 3))
    y = PathCombination.of(e, Fraction(3, 2))
    for got in (algebra_product(spec, x, y), algebra_product(spec, y, x)):
        assert list(got.terms()) == [(e, 3), (a, Fraction(1, 2))]
        assert [type(c) for _, c in got.terms()] == [int, Fraction]
        assert got.key() == ((0, (), 3, 1), (0, (0,), 1, 2)) and repr(got) == "3*e(0) + 1/2*a(0)"
    assert (x.scale(Fraction(3, 2)) - PathCombination.of(a, Fraction(1, 2))).coefficient(e) == 3
    for combo in (half, quarter, x, y, half + half, x.scale(3), x.scale(-1), -x):
        _assert_normal(combo)
    assert PathCombination.of(e, 3).key() == PathCombination.of(e, Fraction(3)).key() == ((0, (), 3, 1),)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None])
def test_a_coefficient_is_never_a_float(bad):
    e = Path(0, ())
    with pytest.raises(TypeError, match="is neither an int nor a Fraction"):
        PathCombination.of(e, bad)
    with pytest.raises(TypeError, match="is neither an int nor a Fraction"):
        PathCombination.of(e).scale(bad)


def test_identities_return_the_operand():
    x = PathCombination.of(Path(0, (0,)), Fraction(2, 3))
    zero = PathCombination.zero()
    assert x.scale(1) is x
    assert x + zero is x
    assert zero + x is x
    assert PathCombination.of(Path(0, ()), 0).is_zero()
    coerced = PathCombination({Path(0, ()): 0, Path(0, (0,)): 2})
    assert coerced == PathCombination.of(Path(0, (0,)), 2)
    _assert_normal(coerced)


def test_path_is_a_value_with_a_stable_hash():
    p, q = Path(1, (-1, 0)), Path(1, (-1, 0))
    assert p == q and hash(p) == hash(q)
    # the hash is that of the fields, the same in every process
    assert hash(p) == hash((1, (-1, 0)))
    assert p != Path(0, (-1, 0)) and p != Path(1, (0,))
    assert len({p, q, Path(1, (0,)), Path(1, ())}) == 3
    assert {p: "x"}[q] == "x"
    assert (p.start, p.arrows) == (1, (-1, 0))


def test_path_repr_end_and_sort_key_are_pinned():
    stationary, loop, descent = Path(0, ()), Path(0, (0,)), Path(1, (-1, 0))
    assert [repr(p) for p in (stationary, loop, descent)] == ["e(0)", "a(0)", "a(-1)*a(0)"]
    assert [p.end for p in (stationary, loop, descent)] == [0, 0, -1]
    assert [p.is_stationary for p in (stationary, loop, descent)] == [True, False, False]
    assert [p.sort_key() for p in (stationary, loop, descent)] == [(0, ()), (1, (0,)), (2, (-1, 0))]
    # terms are listed by sort_key: shorter words first
    assert repr(PathCombination.of(descent, 2) + PathCombination.of(Path(0, (-1,)))) == "a(-1) + 2*a(-1)*a(0)"
    assert sorted([descent, stationary, loop], key=Path.sort_key) == [stationary, loop, descent]


def test_hom_basis_order_is_pinned():
    # by (length, arrow word)
    assert hom_basis_proj(AlgebraSpec(1, 2), -2, 0) == [Path(0, (-2, -1)), Path(0, (-2, -1, 0))]
    assert hom_basis_proj(AlgebraSpec(1, 2), 0, 0) == [Path(0, ()), Path(0, (0,))]
    assert [repr(p) for p in hom_basis_proj(AlgebraSpec(3, 2), -2, 1)] == ["a(-2)*a(-1)*a(0)"]
    assert [repr(p) for p in hom_basis_proj(AlgebraSpec(2, 1), -1, 1)] == ["a(-1)*a(0)"]
    assert [repr(p) for p in hom_basis_proj(AlgebraSpec(3, 2), 0, 0)] == ["e(0)"]


def test_path_is_valid_matches_a_walk_of_the_quiver(spec):
    letters = list(spec.arrows) + [spec.n, -spec.m - 1]
    starts = list(spec.vertices) + [spec.n, -spec.m - 1]
    words = [()]
    for _ in range(spec.m + 2):
        words += [(w,) + word for word in words if len(word) == len(words[-1]) for w in letters]
    for start in starts:
        nonzero = set()
        if start in spec.vertices:
            for v in spec.vertices:
                nonzero.update(brute_arrow_words(spec.n, spec.m, start, v))
        for word in set(words):
            assert path_is_valid(spec, Path(start, word)) == (word in nonzero), (start, word)
