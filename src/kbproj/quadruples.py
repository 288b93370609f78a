"""The four-parameter family of indecomposable complexes.

A quadruple (k, u, l, v) with l >= 0 and either v = successor^l(u) or
v < successor^l(u) <= 0 names an indecomposable complex: a chain of
maximal-path differentials through the successor orbit of u, starting in
degree k and of length l, with an optional extra tail summand P_v next to
the top.  This module builds those complexes, enumerates the family over
a window, and translates walk descriptions (homotopy strings) into
quadruples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple

from .algebra import AlgebraSpec, factor_path, max_path, memoized, successor_power
from .complexes import ProjComplex, _blocks


class Quadruple(NamedTuple):
    k: int
    u: int
    l: int
    v: int


def in_calC(spec: AlgebraSpec, q: Quadruple) -> bool:
    """Membership in the indexing family."""
    k, u, l, v = q
    if u not in spec.vertices or v not in spec.vertices or l < 0:
        return False
    top = successor_power(spec, u, l)
    return v == top or (v < top <= 0)


def _check_member(spec: AlgebraSpec, q: Quadruple) -> None:
    if not in_calC(spec, q):
        raise ValueError(f"{tuple(q)} is not in the family for {spec}")


def tail_position(q: Quadruple) -> int:
    """Index of the tail summand P_v in degree k + l - 1 of ``build_complex(spec, q)``.

    The chain summand is alone or first in each degree k..k+l, at index 0,
    so the tail comes after it when l = q[2] > 0 and stands alone when l = 0.
    """
    return 1 if q[2] > 0 else 0


@memoized("quadruples.build_complex", key=lambda spec, q: (spec, Quadruple(*q)))
def build_complex(spec: AlgebraSpec, q: Quadruple) -> ProjComplex:
    """The minimal complex named by the quadruple.

    Chain summands carry maximal-path differentials; the tail summand
    (present when v differs from the top of the successor orbit) maps in
    by the factor path of the top vertex.  Layout: the chain summand of
    degree i is successor^(i-k)(u) at index 0, and the tail is last in
    degree k + l - 1, at :func:`tail_position`; the basis maps read it there.

    Results are memoized per process on ``(spec, Quadruple(*q))``: every
    caller asking for the same quadruple values gets the same object, so
    callers must not mutate it.  ``complexes.clear_caches()`` empties the memo.
    """
    _check_member(spec, q)
    k, u, l, v = q
    top = successor_power(spec, u, l)
    summands = {i: (successor_power(spec, u, i - k),) for i in range(k, k + l + 1)}
    # one term per chain arrow, from the chain summand (column 0) to the next one (row 0)
    terms = [(1, (i, 0, 0, max_path(spec, s[0]))) for i, s in summands.items() if i < k + l]
    if v != top:
        # the tail summand P_v, last in degree k + l - 1, maps to the top by a factor path
        summands[k + l - 1] = summands.get(k + l - 1, ()) + (v,)
        terms.append((1, (k + l - 1, 0, tail_position(q), factor_path(spec, v, top))))
    return ProjComplex(spec, summands, _blocks(terms, summands, summands, 1))


def suspend_quadruple(q: Quadruple) -> Quadruple:
    """Index of the suspension: degrees drop by one."""
    return Quadruple(q.k - 1, q.u, q.l, q.v)


def enumerate_quadruples(
    spec: AlgebraSpec, k_min: int, k_max: int, l_max: int
) -> list[Quadruple]:
    """All family members with k in [k_min, k_max] and l <= l_max.

    Lexicographic in (k, u, l, v); an empty window gives [].
    """
    window = product(range(k_min, k_max + 1), spec.vertices, range(l_max + 1), spec.vertices)
    return [q for q in map(Quadruple._make, window) if in_calC(spec, q)]


# -- Homotopy strings ---------------------------------------------------------


@dataclass(frozen=True)
class HomotopyString:
    """A walk description: stationary, descending run, or run with a turn.

    kind is one of "stationary", "descending", "turning".  A descending
    run is the arrow word alpha_u ... alpha_{u+l} (indices ascending,
    cycle indices mod n); a turning string continues against the arrows
    from the tail top back down to v < 0, which requires the run to end
    at the closing cycle arrow (u + l = n-1 mod n, u + l >= 0).
    """

    kind: str
    u: int
    l: int = 0
    v: int | None = None

    def __str__(self) -> str:
        if self.kind == "stationary":
            return f"e{self.u}"
        run = f"a{self.u}" if self.l == 0 else f"a{self.u}..a{self.u + self.l}"
        if self.kind == "descending":
            return run
        turn = "a-1" if self.v == -1 else f"a-1..a{self.v}"
        return f"{run}~{turn}"


def validate_string(spec: AlgebraSpec, theta: HomotopyString) -> None:
    if theta.kind == "stationary":
        if theta.u not in spec.vertices:
            raise ValueError(f"stationary string at {theta.u}: not a vertex")
        return
    if theta.kind == "descending":
        if theta.u not in spec.vertices or theta.l < 0:
            raise ValueError(f"bad descending string {theta}")
        return
    if theta.kind == "turning":
        if (
            theta.u not in spec.vertices
            or theta.l < 0
            or theta.v is None
            or not -spec.m <= theta.v <= -1
            or theta.u + theta.l < 0
            or (theta.u + theta.l) % spec.n != spec.n - 1
        ):
            raise ValueError(f"bad turning string {theta}")
        return
    raise ValueError(f"unknown string kind {theta.kind!r}")


def string_to_quadruple(spec: AlgebraSpec, k: int, theta: HomotopyString) -> Quadruple:
    """Complex of a homotopy string placed with its left end in degree k."""
    validate_string(spec, theta)
    u, l, v = theta.u, theta.l, theta.v
    n = spec.n
    if theta.kind == "stationary":
        return Quadruple(k, u, 0, u)
    if theta.kind == "descending":
        if u < 0 and u + l < 0:
            return Quadruple(k + 1, u + l + 1, 0, u)
        if u < 0:
            return Quadruple(k, u, u + l + 1, (u + l + 1) % n)
        return Quadruple(k, u, l + 1, (u + l + 1) % n)
    if u < 0:
        return Quadruple(k, u, u + l + 1, v)
    return Quadruple(k, u, l + 1, v)


def enumerate_strings(
    spec: AlgebraSpec, k_min: int, k_max: int, l_max: int
) -> Iterator[tuple[int, HomotopyString]]:
    """All (k, string) pairs whose complex lands in the quadruple window.

    Parameter ranges are bounded from the window arithmetic, then
    filtered exactly; used by the round-trip tests against
    enumerate_quadruples.
    """
    n, m = spec.n, spec.m

    def in_window(q: Quadruple) -> bool:
        return k_min <= q.k <= k_max and q.l <= l_max

    for k in range(k_min - 1, k_max + 2):
        for u in spec.vertices:
            theta = HomotopyString("stationary", u)
            if in_window(string_to_quadruple(spec, k, theta)):
                yield k, theta
            for l in range(0, l_max + m + n + 1):
                theta = HomotopyString("descending", u, l)
                if in_window(string_to_quadruple(spec, k, theta)):
                    yield k, theta
                if u + l >= 0 and (u + l) % n == n - 1:
                    for v in range(-m, 0):
                        theta = HomotopyString("turning", u, l, v)
                        if in_window(string_to_quadruple(spec, k, theta)):
                            yield k, theta


# -- Text forms ---------------------------------------------------------------


def format_quadruple(q: Quadruple) -> str:
    return f"({q.k},{q.u},{q.l},{q.v})"
