"""Exact rational rank, nullspace, and incremental span solving."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALGEBRA_PARAMS
from kbproj.algebra import AlgebraSpec
from kbproj.complexes import _chain_equations, _hom_variables
from kbproj.linalg import SpanSolver, nullspace, rank
from test_oracle_assembly import sample_complexes


def test_rank_examples():
    assert rank([]) == 0
    assert rank([{0: Fraction(1)}, {0: Fraction(2)}]) == 1
    assert rank([{0: Fraction(1)}, {1: Fraction(1)}]) == 2
    assert rank([{0: Fraction(1, 2), 1: Fraction(3)}, {0: Fraction(1), 1: Fraction(6)}]) == 1


def test_rank_with_mixed_large_denominators():
    big, prime = 10**12 + 39, 2**61 - 1
    r1 = {0: Fraction(1, 3), 1: Fraction(5, 7), 2: Fraction(11, 13)}
    r2 = {0: Fraction(2, 9), 1: Fraction(10, 21), 2: Fraction(22, 39)}  # 2/3 r1
    r3 = {0: Fraction(1, big), 2: Fraction(-7, prime)}
    r4 = {0: Fraction(1, 3) + Fraction(1, big), 1: Fraction(5, 7), 2: Fraction(11, 13) - Fraction(7, prime)}  # r1 + r3
    assert rank([r1, r2, r3, r4]) == 2
    # an int entry beside a Fraction in the same row
    assert rank([r1, r2, r3, r4, {1: 3, 2: Fraction(1, prime)}]) == 3


def test_nullspace_solves_equations():
    rows = [{0: Fraction(1), 1: Fraction(-1)}, {1: Fraction(1), 2: Fraction(-1)}]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] == vec[1] == vec[2] != 0


def test_nullspace_empty_matrix_is_full():
    basis = nullspace([], 3)
    assert len(basis) == 3


entries = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def vec_strategy(ncols: int):
    return st.lists(entries, min_size=ncols, max_size=ncols).map(
        lambda xs: {j: x for j, x in enumerate(xs) if x}
    )


@settings(max_examples=80)
@given(data=st.data())
def test_rank_bounds_and_nullity(data):
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    rows = data.draw(st.lists(vec_strategy(ncols), max_size=6))
    r = rank(rows)
    assert 0 <= r <= min(len(rows), ncols)
    assert r + len(nullspace(rows, ncols)) == ncols


@settings(max_examples=80)
@given(data=st.data())
def test_nullspace_vectors_annihilate_rows(data):
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    rows = data.draw(st.lists(vec_strategy(ncols), max_size=6))
    for vec in nullspace(rows, ncols):
        for row in rows:
            assert sum((row.get(j, Fraction(0)) * x for j, x in vec.items()), Fraction(0)) == 0


@settings(max_examples=80)
@given(data=st.data())
def test_span_solver_reconstructs_combinations(data):
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    gens = data.draw(st.lists(vec_strategy(ncols), min_size=1, max_size=5))
    solver = SpanSolver()
    for g in gens:
        solver.add_generator(g)
    assert solver.rank == rank(gens)
    weights = data.draw(
        st.lists(entries, min_size=len(gens), max_size=len(gens))
    )
    rhs: dict[int, Fraction] = {}
    for w, g in zip(weights, gens):
        for j, x in g.items():
            rhs[j] = rhs.get(j, Fraction(0)) + w * x
    rhs = {j: x for j, x in rhs.items() if x}
    combo = solver.solve(rhs)
    assert combo is not None
    rebuilt: dict[int, Fraction] = {}
    for idx, w in combo.items():
        for j, x in gens[idx].items():
            rebuilt[j] = rebuilt.get(j, Fraction(0)) + w * x
    assert {j: x for j, x in rebuilt.items() if x} == rhs


def test_span_solver_rejects_outside_vector():
    solver = SpanSolver()
    solver.add_generator({0: Fraction(1)})
    assert solver.solve({1: Fraction(1)}) is None
    assert not solver.contains({0: Fraction(1), 1: Fraction(1)})
    assert solver.contains({0: Fraction(7)})


def test_span_solver_zero_vector():
    solver = SpanSolver()
    assert solver.solve({}) == {}
    solver.add_generator({})
    assert solver.rank == 0


# -- Differential test against sympy over QQ ----------------------------------


def _random_rows(rng, nrows: int, ncols: int, rational: bool) -> list[dict]:
    """Sparse rows with about a third of the entries set; some rows empty."""
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.35:
                num = rng.randint(-4, 4)
                row[j] = Fraction(num, rng.randint(1, 5)) if rational else num
        rows.append(row)
    return rows


def _sympy_matrix(sympy, rows, ncols: int):
    def entry(i, j):
        c = Fraction(rows[i].get(j, 0))
        return sympy.Rational(c.numerator, c.denominator)

    return sympy.Matrix(len(rows), ncols, entry)


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_linalg_agrees_with_sympy(rational):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20 + rational)
    for trial in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_rows(rng, nrows, ncols, rational)
        m = _sympy_matrix(sympy, rows, ncols)
        expected_rank = m.rank()
        assert rank(rows) == expected_rank, trial
        kernel = nullspace(rows, ncols)
        assert len(kernel) == len(m.nullspace()) == ncols - expected_rank, trial
        for vec in kernel:
            assert m * _sympy_matrix(sympy, [vec], ncols).T == sympy.zeros(nrows, 1), trial

        solver = SpanSolver()
        for row in rows:
            solver.add_generator(row)
        assert solver.rank == expected_rank, trial
        for rhs in _random_rows(rng, 3, ncols, rational):
            inside = _sympy_matrix(sympy, rows + [rhs], ncols).rank() == expected_rank
            combo = solver.solve(rhs)
            assert (combo is not None) == inside, trial
            if combo is not None:
                rebuilt: dict[int, Fraction] = {}
                for idx, w in combo.items():
                    for j, x in rows[idx].items():
                        rebuilt[j] = rebuilt.get(j, Fraction(0)) + w * x
                assert {j: x for j, x in rebuilt.items() if x} == {
                    j: Fraction(x) for j, x in rhs.items() if x
                }, trial


# -- Differential test against an all-Fraction reference ---------------------
#
# Rows are reduced on ints and build a Fraction only where a pivot is not a
# unit.  The reference below eliminates on Fractions throughout, to the
# reduced echelon form, so every answer it gives is unique: the rank, the
# nullspace vector with 1 at each free column and 0 at the others, and the
# coefficients of rhs over the generators kept as independent, in order.

_ENTRIES = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(4, 2)]
)


def _matrix(ncols: int, max_rows: int):
    row = st.lists(_ENTRIES, min_size=ncols, max_size=ncols).map(
        lambda xs: {j: x for j, x in enumerate(xs) if x}
    )
    return st.lists(row, max_size=max_rows)


def _reference_rref(rows, ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Pivot columns and the nonzero rows of the reduced echelon form."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(m)) if m[i][col]]
        if not below:
            continue
        m[r], m[below[0]] = m[below[0]], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return pivots, m[: len(pivots)]


def _reference_nullspace(rows, ncols: int) -> list[dict[int, Fraction]]:
    pivots, rref = _reference_rref(rows, ncols)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        vec = {free: Fraction(1)}
        vec.update({p: -r[free] for p, r in zip(pivots, rref) if r[free]})
        basis.append(vec)
    return basis


def _reference_solve(relations, generators, rhs, ncols: int) -> dict[int, Fraction] | None:
    """rhs over the generators that raise the rank in turn, after the relations."""
    span: list[dict] = []
    kept: list[int] = []
    for idx, vec in enumerate(relations + generators):
        if len(_reference_rref(span + [vec], ncols)[0]) > len(span):
            span.append(vec)
            kept += [idx - len(relations)] if idx >= len(relations) else []
    # the columns are independent, so rhs has at most one expansion over them
    columns = span + [rhs]
    system = [{k: col[j] for k, col in enumerate(columns) if col.get(j)} for j in range(ncols)]
    pivots, rref = _reference_rref(system, len(columns))
    if len(span) in pivots:
        return None
    values = {p: r[-1] for p, r in zip(pivots, rref)}
    first = len(span) - len(kept)
    return {idx: values[first + k] for k, idx in enumerate(kept) if values.get(first + k)}


def _assert_normal_form(vec) -> None:
    for c in vec.values():
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1), vec


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_linalg_agrees_with_an_all_fraction_reference(data):
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    rows = data.draw(_matrix(ncols, 6))
    pivots, _ = _reference_rref(rows, ncols)
    assert rank(rows) == len(pivots)
    kernel = nullspace(rows, ncols)
    assert kernel == _reference_nullspace(rows, ncols)
    for vec in kernel:
        _assert_normal_form(vec)

    relations = data.draw(_matrix(ncols, 2))
    generators = data.draw(_matrix(ncols, 4))
    solver = SpanSolver(relations)
    for gen in generators:
        solver.add_generator(gen)
    for pivot, row, combo in solver._rows:
        assert row[pivot] == 1
        _assert_normal_form(row)
        _assert_normal_form(combo)
    for rhs in data.draw(_matrix(ncols, 3)):
        got = solver.solve(rhs)
        assert got == _reference_solve(relations, generators, rhs, ncols)
        assert got is None or all(type(c) is Fraction for c in got.values())


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=lambda p: f"L({p[0]},{p[1]})")
def test_nullspace_agrees_with_the_reference_on_the_oracle_systems(params):
    """The chain equations of every pair of sample complexes: wider systems
    than the five columns the Hypothesis tests draw."""
    spec = AlgebraSpec(*params)
    complexes = sample_complexes(spec)
    widest = 0
    for c in complexes:
        for d in complexes:
            fvars = _hom_variables(c, d, 0)
            eqs = _chain_equations(c, d, fvars)
            kernel = nullspace(eqs, len(fvars))
            assert kernel == _reference_nullspace(eqs, len(fvars))
            for vec in kernel:
                _assert_normal_form(vec)
            widest = max(widest, len(fvars))
    assert widest > 5
