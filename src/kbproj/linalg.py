"""Sparse exact linear algebra over the rationals.

Vectors are dicts column -> coefficient with zeros absent; a coefficient
is an int, or a Fraction only when its value is no integer (``exact``).
Rank, nullspaces and span solving share one elimination step,
``_insert``: a row is reduced against the echelon and kept, with pivot
coefficient 1, if anything is left.  ``nullspace`` tracks how each row
combines the matrix columns, ``SpanSolver`` how it combines generators.
Everything is deterministic: a row's pivot is its smallest column index.
"""

from __future__ import annotations

import copy
from fractions import Fraction


def exact(c) -> int | Fraction:
    """c in normal form: an int when its value is an integer, else a Fraction;
    TypeError on anything else, a float or a bool too.

    >>> exact(Fraction(4, 2)), exact(Fraction(2, 4))
    (2, Fraction(1, 2))
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is neither an int nor a Fraction")


def add_entry(vec: dict, j, coeff) -> None:
    """vec[j] += coeff for a nonzero coeff in normal form, keeping zeros absent, sums exact."""
    cur = vec.get(j)
    if cur is None:
        vec[j] = coeff
    else:
        cur += coeff
        if cur:
            vec[j] = cur if type(cur) is int else exact(cur)
        else:
            del vec[j]


def _row(vec) -> dict:
    """A copy of vec with zeros dropped and every entry in normal form."""
    return {j: e for j, c in vec.items() if (e := c if type(c) is int else exact(c))}


def _subtract_multiple(row: dict, factor, prow: dict) -> None:
    """row -= factor * prow in place, keeping zeros absent and entries in normal form."""
    # Factors are mostly +-1, where a negation or nothing replaces the product.
    neg = -factor
    sign = 1 if neg == 1 else -1 if neg == -1 else 0
    for j, c in prow.items():
        add_entry(row, j, c if sign > 0 else -c if sign else exact(neg * c))


def _reduce(echelon: list, row: dict, combo: dict | None) -> None:
    """Reduce row in place against echelon rows (pivot, row, combo).

    An echelon row with a nonempty combination passes it on to combo; a
    caller that tracks none passes combo None over an echelon holding none.
    """
    for pcol, prow, pcombo in echelon:
        if pcol in row:
            factor = row[pcol]
            _subtract_multiple(row, factor, prow)
            if pcombo:
                _subtract_multiple(combo, factor, pcombo)


def _insert(echelon: list, row: dict, combo: dict | None = None) -> bool:
    """Reduce row and append it with pivot coefficient 1; False if it vanished."""
    _reduce(echelon, row, combo)
    if not row:
        return False
    pivot = min(row)
    lead = row[pivot]
    if lead == -1:
        row = {j: -c for j, c in row.items()}
        if combo:
            combo = {i: -c for i, c in combo.items()}
    elif lead != 1:
        inv = Fraction(1) / lead  # 1 / lead would be a float for an int lead
        row = {j: exact(c * inv) for j, c in row.items()}
        if combo:
            combo = {i: exact(c * inv) for i, c in combo.items()}
    echelon.append((pivot, row, combo))
    return True


def rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of dict rows."""
    echelon: list = []
    for raw in rows:
        _insert(echelon, _row(raw))
    return len(echelon)


def nullspace(rows, ncols: int) -> list[dict]:
    """Basis of the right nullspace, one vector per free column.

    Columns are 0..ncols-1.  Column j is reduced against the earlier ones,
    tracking the combination {j: 1}; if it vanishes, j is free and that
    combination is its basis vector, with 1 at j and 0 at every other free
    column.  Basis vectors come in increasing order of their free column.
    """
    columns: list[dict] = [{} for _ in range(ncols)]
    for i, raw in enumerate(rows):
        for j, c in _row(raw).items():
            columns[j][i] = c
    echelon: list = []
    basis = []
    for j, column in enumerate(columns):
        combo = {j: 1}
        if not _insert(echelon, column, combo):
            basis.append(combo)
    return basis


class SpanSolver:
    """Incremental span membership and solving over the rationals.

    The span holds relations, which carry no index, and generators, which
    are numbered 0, 1, ... in the order they are added; solve(rhs)
    expresses rhs as a combination of generators plus an element of the
    span of the relations, or returns None when rhs is outside the span.
    """

    def __init__(self, relations=()) -> None:
        self._rows: list[tuple[int, dict, dict]] = []
        self._count = 0
        for vec in relations:
            self.add_relation(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def copy(self) -> SpanSolver:
        """A solver with the same span that can be extended on its own."""
        twin = copy.copy(self)
        twin._rows = list(self._rows)  # rows are never changed once stored
        return twin

    def add_relation(self, vec) -> bool:
        """Add vec to the span without an index; False if it was already there."""
        return _insert(self._rows, _row(vec), {})

    def add_generator(self, vec) -> None:
        index = self._count
        self._count += 1
        _insert(self._rows, _row(vec), {index: 1})

    def solve(self, rhs) -> dict[int, Fraction] | None:
        """Coefficients c_i, as Fractions, with rhs = sum_i c_i gen_i modulo relations."""
        row = _row(rhs)
        combo: dict = {}
        _reduce(self._rows, row, combo)
        if row:
            return None
        return {i: Fraction(-c) for i, c in combo.items() if c}

    def contains(self, rhs) -> bool:
        return self.solve(rhs) is not None
