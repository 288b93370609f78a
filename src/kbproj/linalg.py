"""Sparse exact linear algebra over the rationals.

Vectors are dicts column -> coefficient with zeros absent.  Rank uses
fraction-free integer elimination with gcd normalization so entries stay
small; solving and nullspaces use Fraction back-substitution.  Everything
is deterministic: pivots are chosen by smallest column index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ONE = Fraction(1)


def add_entry(vec: dict, j, coeff: Fraction) -> None:
    """vec[j] += coeff for a nonzero coeff, keeping zeros absent."""
    cur = vec.get(j)
    if cur is None:
        vec[j] = coeff
    else:
        cur += coeff
        if cur:
            vec[j] = cur
        else:
            del vec[j]


def _fraction_row(vec) -> dict:
    """A copy of vec with zeros dropped and every entry a Fraction."""
    return {j: c if isinstance(c, Fraction) else Fraction(c) for j, c in vec.items() if c}


def _subtract_multiple(row: dict, factor: Fraction, prow: dict) -> None:
    """row -= factor * prow in place, keeping zeros absent."""
    # Factors are mostly +-1, where a negation or nothing replaces the product.
    neg = -factor
    sign = 1 if neg == 1 else -1 if neg == -1 else 0
    for j, c in prow.items():
        cur = row.get(j)
        if cur is None:
            row[j] = c if sign > 0 else -c if sign else neg * c
        else:
            cur = cur + c if sign > 0 else cur - c if sign else cur + neg * c
            if cur:
                row[j] = cur
            else:
                del row[j]


def _int_rows(rows):
    """Clear denominators row by row; accepts int or Fraction entries."""
    out = []
    for row in rows:
        den = 1
        for c in row.values():
            if c.denominator != 1:
                den = lcm(den, c.denominator)
        cleared = {j: c.numerator * (den // c.denominator) for j, c in row.items() if c}
        if cleared:
            out.append(cleared)
    return out


def _normalize(row):
    g = 0
    for c in row.values():
        g = gcd(g, c)
        if g == 1:
            return row
    if g > 1:
        return {j: c // g for j, c in row.items()}
    return row


def rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of dict rows."""
    work = _int_rows(rows)
    eliminated = []  # (pivot_col, row)
    work.sort(key=lambda r: min(r))
    result = 0
    while work:
        row = work.pop(0)
        for pcol, prow in eliminated:
            if pcol in row:
                a, b = prow[pcol], row[pcol]
                row = {
                    j: prow.get(j, 0) * (-b) + row.get(j, 0) * a
                    for j in set(prow) | set(row)
                }
                row = {j: c for j, c in row.items() if c}
        if not row:
            continue
        row = _normalize(row)
        eliminated.append((min(row), row))
        result += 1
    return result


def nullspace(rows, ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right nullspace, one vector per free column.

    Columns are 0..ncols-1; basis vectors come in increasing order of
    their free column, each with coefficient 1 there.
    """
    echelon: list[tuple[int, dict[int, Fraction]]] = []  # (pivot, row), pivot coeff 1
    for raw in rows:
        row = _fraction_row(raw)
        for pcol, prow in echelon:
            if pcol in row:
                _subtract_multiple(row, row[pcol], prow)
        if not row:
            continue
        pivot = min(row)
        inv = 1 / row[pivot]
        if inv != 1:
            row = {j: c * inv for j, c in row.items()}
        echelon.append((pivot, row))
    echelon.sort(key=lambda it: it[0])
    # Back-substitute to reduced form so each basis vector reads off directly.
    for idx in range(len(echelon) - 1, -1, -1):
        pcol, prow = echelon[idx]
        for jdx in range(idx):
            qcol, qrow = echelon[jdx]
            if pcol in qrow:
                _subtract_multiple(qrow, qrow[pcol], prow)
    pivots = {pcol: prow for pcol, prow in echelon}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for pcol, prow in pivots.items():
            if free in prow:
                vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


class SpanSolver:
    """Incremental span membership and solving over the rationals.

    Generators are added once; solve(rhs) expresses rhs in terms of the
    generator indices, or returns None when rhs is outside the span.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, dict[int, Fraction], dict[int, Fraction]]] = []
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add_generator(self, vec) -> None:
        index = self._count
        self._count += 1
        row = _fraction_row(vec)
        combo = {index: _ONE}
        row, combo = self._reduce(row, combo)
        if row:
            pivot = min(row)
            inv = 1 / row[pivot]
            if inv != 1:
                row = {j: c * inv for j, c in row.items()}
                combo = {i: c * inv for i, c in combo.items()}
            self._rows.append((pivot, row, combo))

    def _reduce(self, row, combo):
        for pcol, prow, pcombo in self._rows:
            if pcol in row:
                factor = row[pcol]
                _subtract_multiple(row, factor, prow)
                _subtract_multiple(combo, factor, pcombo)
        return row, combo

    def solve(self, rhs) -> dict[int, Fraction] | None:
        """Coefficients over generator indices with sum_i c_i gen_i = rhs."""
        row = _fraction_row(rhs)
        combo: dict[int, Fraction] = {}
        row, combo = self._reduce(row, combo)
        if row:
            return None
        return {i: -c for i, c in combo.items() if c}

    def contains(self, rhs) -> bool:
        return self.solve(rhs) is not None
