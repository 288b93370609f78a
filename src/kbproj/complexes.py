"""Bounded complexes of indecomposable projectives, up to homotopy.

A complex stores, per degree, the tuple of vertices of its projective
summands, and for each pair of consecutive degrees with a nonzero
differential its matrix of path combinations.  The entry in row r,
column c of the degree-i matrix is a combination of paths starting at
the row vertex (degree i+1) and ending at the column vertex (degree i);
it acts on module elements by right multiplication, so composition of
matrices multiplies the left factor's entries by the right factor's
entries in algebra order.

Everything here is exact: dimensions, homotopies and isomorphism checks
reduce to rational linear algebra over the path basis.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .algebra import (
    AlgebraSpec,
    Path,
    PathCombination,
    algebra_product,
    clear_caches,
    memoized,
    path_table,
)
from .linalg import SpanSolver, add_entry, exact, nullspace, rank

Matrix = tuple[tuple[PathCombination, ...], ...]


def mat_zero(nrows: int, ncols: int) -> Matrix:
    z = PathCombination.zero()
    return tuple(tuple(z for _ in range(ncols)) for _ in range(nrows))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb, strict=True)) for ra, rb in zip(a, b, strict=True)
    )


def mat_scale(a: Matrix, coeff) -> Matrix:
    return tuple(tuple(x.scale(coeff) for x in row) for row in a)


def mat_mul(spec: AlgebraSpec, g: Matrix, f: Matrix) -> Matrix:
    """Matrix of the composite (g after f)."""
    if not g or not f:
        return ()
    inner = len(f)
    out = []
    for s in range(len(g)):
        row = []
        for c in range(len(f[0])):
            acc = PathCombination.zero()
            for r in range(inner):
                if f[r][c] and g[s][r]:
                    acc = acc + algebra_product(spec, f[r][c], g[s][r])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def _blocks_key(mats: dict[int, Matrix]) -> tuple:
    """The key of degree-indexed matrices: (degree, entry keys by row), sorted by degree."""
    return tuple(sorted((i, tuple(tuple(e.key() for e in row) for row in mat))
                        for i, mat in mats.items()))


@dataclass(frozen=True)
class ProjComplex:
    """Bounded complex of projectives over a fixed algebra.

    Every complex the package builds is in one normal form: no degree
    without summands and no all-zero differential, so two equal complexes
    have one ``key()``.  Differentials are assembled by ``_blocks``, and
    ``make_complex`` normalizes matrices that come from outside.
    """

    spec: AlgebraSpec
    summands: dict[int, tuple[int, ...]]
    diffs: dict[int, Matrix]
    _key: tuple = field(default=None, compare=False, repr=False)
    _nkey: tuple = field(default=None, compare=False, repr=False)

    def summand(self, i: int) -> tuple[int, ...]:
        return self.summands.get(i, ())

    def diff(self, i: int) -> Matrix:
        d = self.diffs.get(i)
        if d is not None:
            return d
        return mat_zero(len(self.summand(i + 1)), len(self.summand(i)))

    def degrees(self) -> list[int]:
        return sorted(self.summands)

    def is_zero(self) -> bool:
        return not self.summands

    def key(self) -> tuple:
        if self._key is None:
            k = (
                self.spec.n,
                self.spec.m,
                tuple(sorted((i, s) for i, s in self.summands.items())),
                _blocks_key(self.diffs),
            )
            object.__setattr__(self, "_key", k)
        return self._key

    def nkey(self) -> tuple:
        """key() of shift(self, t) for the lowest degree t: equal for every shift of self."""
        if self._nkey is None:
            k = _HashedKey(shift(self, _lowest(self)).key())
            k.hash = tuple.__hash__(k)
            object.__setattr__(self, "_nkey", k)
        return self._nkey

    def __repr__(self) -> str:
        if not self.summands:
            return "ProjComplex(0)"
        parts = [f"{i}:{list(self.summands[i])}" for i in self.degrees()]
        return f"ProjComplex({', '.join(parts)})"


class _HashedKey(tuple):
    """A tuple that walks its items for a hash once, as ``nkey()``: the
    ``quotient`` memo looks it up on every call.  Equality is the tuple's."""

    def __hash__(self) -> int:
        return self.hash


def _lowest(c: ProjComplex) -> int:
    """The lowest degree of c, 0 for the zero complex."""
    return min(c.summands) if c.summands else 0


def make_complex(spec: AlgebraSpec, summands, diffs) -> ProjComplex:
    """Normalize raw dicts into a ProjComplex (no validation): the one
    normalizer for matrices that come from outside ``_blocks``.

    Degrees without summands are dropped, and so is an all-zero
    differential whose shape fits its two degrees, so a zero differential
    written out or left out gives the same complex, in the normal form of
    ``ProjComplex``.  Any other matrix is kept, for validation to report
    its shape.
    """
    norm_s = {int(i): tuple(v) for i, v in summands.items() if len(tuple(v))}
    norm_d = {}
    for i, mat in diffs.items():
        i = int(i)
        mat = tuple(tuple(row) for row in mat)
        fits = _fits(mat, len(norm_s.get(i + 1, ())), len(norm_s.get(i, ())))
        if not fits or any(e for row in mat for e in row):
            norm_d[i] = mat
    return ProjComplex(spec, norm_s, norm_d)


def _fits(mat, rows: int, cols: int) -> bool:
    """Whether mat has rows rows of cols entries each."""
    return len(mat) == rows and all(len(row) == cols for row in mat)


def stalk_complex(spec: AlgebraSpec, vertex: int, degree: int = 0) -> ProjComplex:
    if vertex not in spec.vertices:
        raise ValueError(f"vertex {vertex} not in {spec}")
    return ProjComplex(spec, {degree: (vertex,)}, {})


def zero_complex(spec: AlgebraSpec) -> ProjComplex:
    return ProjComplex(spec, {}, {})


def _matrices_problem(spec, mats, rows_at, cols_at, what: str, cell: str) -> str | None:
    """The first failure of shape or of a path among degree-indexed matrices, else None.

    Degree i's rows and columns stand for the vertices rows_at(i) and
    cols_at(i); each entry's paths must be in spec's path table and run between them.
    """
    products = path_table(spec).products
    for i, mat in sorted(mats.items()):
        rows, cols = rows_at(i), cols_at(i)
        if not _fits(mat, len(rows), len(cols)):
            return f"degree {i}: {what} shape does not match summands"
        for r, row in enumerate(mat):
            for col, entry in enumerate(row):
                for path, _ in entry.terms():
                    if path not in products:
                        return f"degree {i}: {cell} ({r},{col}) holds an invalid path"
                    if path.start != rows[r] or path.end != cols[col]:
                        return (
                            f"degree {i}: {cell} ({r},{col}) path runs "
                            f"{path.start}->{path.end}, expected {rows[r]}->{cols[col]}"
                        )
    return None


def validate_complex(c: ProjComplex) -> str | None:
    """None when well formed, else a description of the first failure."""
    spec = c.spec
    for i in c.degrees():
        for v in c.summand(i):
            if v not in spec.vertices:
                return f"degree {i}: summand vertex {v} not in the algebra"
    if not c.diffs:  # nothing to check against the path table, so it is not built
        return None
    if problem := _matrices_problem(spec, c.diffs, lambda i: c.summand(i + 1), c.summand,
                                    "differential", "entry"):
        return problem
    # the Hom differential of degree 1 sends d to d d + d d = 2 d^2
    i = _lowest_residual(c, c, 1, c.diffs)
    return None if i is None else f"degree {i}: differential does not square to zero"


def shift(c: ProjComplex, t: int) -> ProjComplex:
    """Suspension by t: degree i of the result is degree i+t of c.

    Differentials pick up the sign (-1)^t.
    """
    sign = 1 if t % 2 == 0 else -1
    return ProjComplex(
        c.spec,
        {i - t: s for i, s in c.summands.items()},
        {i - t: mat_scale(mat, sign) if sign < 0 else mat for i, mat in c.diffs.items()},
    )


def direct_sum(a: ProjComplex, b: ProjComplex) -> ProjComplex:
    """a (+) b, a's summands first: the cone of the zero map shift(a, -1) -> b,
    block-diagonal since the odd shift negates d_a and the cone negates it back;
    ValueError, as for every cone, when a and b live over two algebras."""
    return mapping_cone(zero_chain_map(shift(a, -1), b))


# -- Chain maps -------------------------------------------------------------


@dataclass(frozen=True)
class ChainMap:
    """Degreewise map between complexes; absent degrees are zero."""

    source: ProjComplex
    target: ProjComplex
    components: dict[int, Matrix]

    def component(self, i: int) -> Matrix:
        comp = self.components.get(i)
        if comp is not None:
            return comp
        return mat_zero(len(self.target.summand(i)), len(self.source.summand(i)))

    def key(self) -> tuple:
        return _blocks_key(self.components)

    def is_zero(self) -> bool:
        return all(mat_is_zero(m) for m in self.components.values())


def make_chain_map(source: ProjComplex, target: ProjComplex, components) -> ChainMap:
    comps = {}
    for i, mat in components.items():
        mat = tuple(tuple(row) for row in mat)
        if any(e for row in mat for e in row):
            comps[int(i)] = mat
    return ChainMap(source, target, comps)


def _blocks(terms, rows: dict, cols: dict, step: int = 0, t: int = 0) -> dict[int, Matrix]:
    """The nonzero blocks by degree: entry (r, col) of block i + t sums coeff * path
    over the terms (coeff, (i, r, col, path)), each coeff nonzero and exact.

    Every matrix the package assembles from entries is built here: chain map
    components (step 0) and differentials (step 1).  Block i has
    len(rows[i + step]) rows and len(cols[i]) columns; a term outside that
    shape is dropped, and so is a degree with no nonzero entry.

    >>> loop, s = Path(0, (0,)), {0: (0,), 1: (0,)}
    >>> terms = [(2, (0, 0, 0, loop)), (1, (0, 0, 0, Path(0, ()))), (-2, (0, 0, 0, loop))]
    >>> _blocks(terms, s, s), _blocks(terms[::2], s, s), _blocks(terms, {}, s)
    ({0: ((e(0),),)}, {}, {})
    """
    cells: dict[int, dict[tuple[int, int], dict]] = {}
    for coeff, (i, r, col, path) in terms:
        add_entry(cells.setdefault(i + t, {}).setdefault((r, col), {}), path, coeff)
    z = PathCombination.zero()
    blocks = {}
    for i in sorted(cells):
        nrows, ncols = len(rows.get(i + step, ())), len(cols.get(i, ()))
        entries = {(r, col): PathCombination(e) for (r, col), e in cells[i].items()
                   if e and r < nrows and col < ncols}
        if entries:
            blocks[i] = tuple(tuple(entries.get((r, col), z) for col in range(ncols))
                              for r in range(nrows))
    return blocks


def _chain_map(source: ProjComplex, target: ProjComplex, terms, t: int = 0) -> ChainMap:
    """The map built by ``_blocks`` from the terms, with blocks shaped by the two complexes."""
    return ChainMap(source, target, _blocks(terms, target.summands, source.summands, 0, t))


def _unit_terms(summands: dict, coeff=lambda i: 1, row0=lambda i: 0):
    """The terms of coeff(i) times the identity on each degree i's summands, from row row0(i)."""
    for i, verts in summands.items():
        a, r0 = coeff(i), row0(i)
        for k, v in enumerate(verts):
            yield a, (i, r0 + k, k, Path(v, ()))


def identity_chain_map(c: ProjComplex) -> ChainMap:
    return _chain_map(c, c, _unit_terms(c.summands))


def zero_chain_map(source: ProjComplex, target: ProjComplex) -> ChainMap:
    return ChainMap(source, target, {})


def validate_chain_map(f: ChainMap) -> str | None:
    spec = f.source.spec
    if spec != f.target.spec:
        return "source and target live over different algebras"
    if problem := _matrices_problem(spec, f.components, f.target.summand, f.source.summand,
                                    "component", "component"):
        return problem
    i = _lowest_residual(f.source, f.target, 0, f.components)
    return None if i is None else f"degree {i}: does not commute with the differentials"


def _same(x: ProjComplex, y: ProjComplex) -> bool:
    """Whether x and y are one complex: the same object, or equal keys."""
    return x is y or x.key() == y.key()


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if not _same(f.target, g.source):
        raise ValueError("chain maps do not compose: middle complexes differ")
    spec = f.source.spec
    comps = {}
    # a degree missing from either map has a zero product
    for i in f.components.keys() & g.components.keys():
        mat = mat_mul(spec, g.components[i], f.components[i])
        if not mat_is_zero(mat):
            comps[i] = mat
    return ChainMap(f.source, g.target, comps)


def add_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """f + g; ValueError unless the two maps share their source and their target,
    and unless their components at each common degree have one shape."""
    c, d = f.source, f.target
    if not (_same(c, g.source) and _same(d, g.target)):
        raise ValueError("chain maps do not add: sources or targets differ")
    comps = {}
    for i in set(f.components) | set(g.components):
        if i not in g.components:
            mat = f.components[i]
        elif i not in f.components:
            mat = g.components[i]
        else:
            try:
                mat = mat_add(f.components[i], g.components[i])
            except ValueError:  # the strict zips of mat_add: the two shapes differ
                raise ValueError(f"degree {i}: component shape does not match summands") from None
        if not mat_is_zero(mat):
            comps[i] = mat
    return ChainMap(c, d, comps)


def scale_chain_map(f: ChainMap, coeff) -> ChainMap:
    coeff = exact(coeff)
    if coeff == 1:
        return f
    comps = {i: mat_scale(m, coeff) for i, m in f.components.items()} if coeff else {}
    return ChainMap(f.source, f.target, comps)


def combine_chain_maps(source: ProjComplex, target: ProjComplex, maps, coeffs) -> ChainMap:
    """sum_j coeffs[j] maps[j], a map source -> target; coeffs is a dict j -> scalar.
    ValueError unless every map runs source -> target."""
    if not all(_same(f.source, source) and _same(f.target, target) for f in maps):
        raise ValueError("chain maps do not combine: sources or targets differ")
    scaled = ((exact(a * coeff), key) for j, coeff in coeffs.items() if coeff
              for a, key in _map_terms(maps[j].components, 0))
    return _chain_map(source, target, scaled)


def shift_chain_map(f: ChainMap, t: int) -> ChainMap:
    return ChainMap(
        shift(f.source, t),
        shift(f.target, t),
        {i - t: m for i, m in f.components.items()},
    )


# -- Cones ------------------------------------------------------------------


def mapping_cone(f: ChainMap) -> ProjComplex:
    """Cone of f: C -> D; degree i is C^{i+1} (+) D^i.

    The differential is [[-d_C, 0], [f, d_D]] in that block layout, built by
    ``_blocks`` from the terms of each block at its offset.  ValueError across
    two algebras, or on a component of f whose shape does not match the summands.
    """
    c, d = f.source, f.target
    if c.spec != d.spec:
        raise ValueError("cone across different algebras")
    for i, mat in f.components.items():
        if not _fits(mat, len(d.summand(i)), len(c.summand(i))):
            raise ValueError(f"degree {i}: component shape does not match summands")
    summands = {}
    for i in set(x - 1 for x in c.summands) | set(d.summands):
        if s := c.summand(i + 1) + d.summand(i):
            summands[i] = s
    up = lambda i: len(c.summand(i + 1))  # where D's summands start in cone degree i
    terms = chain(
        ((-a, (i - 1, r, col, p)) for a, (i, r, col, p) in _map_terms(c.diffs, 0)),
        ((a, (i - 1, up(i) + r, col, p)) for a, (i, r, col, p) in _map_terms(f.components, 0)),
        ((a, (i, up(i + 1) + r, up(i) + col, p)) for a, (i, r, col, p) in _map_terms(d.diffs, 0)),
    )
    return ProjComplex(c.spec, summands, _blocks(terms, summands, summands, 1))


def cone_maps(f: ChainMap) -> tuple[ChainMap, ChainMap]:
    """The canonical chain maps D -> cone(f) and cone(f) -> shift(C, 1), on one cone."""
    cone, c, d = mapping_cone(f), f.source, f.target
    inclusion = _chain_map(d, cone, _unit_terms(d.summands, row0=lambda i: len(c.summand(i + 1))))
    # degree i of shift(c, 1) is C^{i+1}, the first block of the cone's degree i
    projection = _chain_map(cone, up := shift(c, 1), _unit_terms(up.summands))
    return inclusion, projection


# -- Hom spaces in the homotopy category -------------------------------------


def _hom_variables(c: ProjComplex, d: ProjComplex, offset: int) -> list:
    """Variables for degreewise maps C^i -> D^{i+offset}.

    A list of (i, r, c, path) in the fixed deterministic order, with the
    degree i counted from the lowest degree of C, so that a common shift of
    C and D leaves the list unchanged.  A variable's path runs from the
    target summand to the source summand, as in ``hom_basis_proj``.
    Raises ValueError on a summand vertex outside the algebra.
    """
    paths = path_table(c.spec).paths
    t = _lowest(c)
    out = []
    try:
        for i in sorted(c.summands):
            for r, tv in enumerate(d.summands.get(i + offset, ())):
                for col, sv in enumerate(c.summands[i]):
                    for p in paths[tv, sv]:
                        out.append((i - t, r, col, p))
    except KeyError:
        raise ValueError(f"vertices ({sv}, {tv}) not in {c.spec}") from None
    return out


# The Hom complex of C and D holds in degree n the degreewise maps
# x: C^i -> D^{i+n}, with the differential D(x) = d_D x - (-1)^n x d_C.
# ``_hom_differential`` is the one place where a map meets the
# differentials, and it has four readers: the chain equations are the
# kernel of D in degree 0, the homotopy images are the image of D from
# degree -1, ``validate_chain_map`` asks D(f) = 0, and ``validate_complex``
# asks D(d) = 2 d^2 = 0 in degree 1.  It multiplies one unit path with one
# differential entry by table lookups.  Such a product is injective on the
# entry's parallel paths and keeps their order, so it contributes each
# entry coefficient once, exactly as ``algebra_product`` would; a zero
# product yields no term.  Unit degrees count from the lowest degree t of
# C, so differentials are read at degree i + t.


def _hom_differential(c: ProjComplex, d: ProjComplex, n: int, units):
    """Each nonzero term of D(x) = d_D x - (-1)^n x d_C, x running over units.

    ``units`` yields (tag, (i, r, col, p)): the path p as the map from
    summand col of C^i to summand r of D^{i+n}.  Each term is
    (tag, (j, s, col, path), coeff), coeff times path in row s, column col
    of D(x) at degree j, a map C^j -> D^{j+n+1}.
    """
    products = path_table(c.spec).products
    t = _lowest(c)
    for tag, (i, r, col, p) in units:
        after_p = products[p]
        for s, drow in enumerate(d.diffs.get(i + n + t, ())):
            for path, coeff in drow[r].terms():
                pq = after_p[path]
                if pq is not None:
                    yield tag, (i, s, col, pq), coeff
        dc = c.diffs.get(i + t - 1)
        for col0, entry in enumerate(dc[col] if dc else ()):
            for path, coeff in entry.terms():
                pq = products[path][p]
                if pq is not None:
                    yield tag, (i - 1, r, col0, pq), coeff if n % 2 else -coeff


def _map_terms(mats, t: int):
    """(coeff, (i - t, r, col, path)) for every term of the degree-indexed matrices."""
    for i, mat in mats.items():
        for r, row in enumerate(mat):
            for col, entry in enumerate(row):
                for path, coeff in entry.terms():
                    yield coeff, (i - t, r, col, path)


def _lowest_residual(c: ProjComplex, d: ProjComplex, n: int, mats) -> int | None:
    """The lowest degree where D(x) is nonzero, x: C -> D[n] with components mats, else None."""
    t = _lowest(c)
    residual: dict[tuple, int | Fraction] = {}
    for a, key, b in _hom_differential(c, d, n, _map_terms(mats, t)):
        add_entry(residual, key, exact(a * b))
    return min(key[0] for key in residual) + t if residual else None


def _chain_equations(c: ProjComplex, d: ProjComplex, fvars):
    """Rows of the linear system expressing d_D f = f d_C on path coordinates."""
    rows: dict[tuple, dict[int, int | Fraction]] = {}
    for var, key, coeff in _hom_differential(c, d, 0, enumerate(fvars)):
        add_entry(rows.setdefault(key, {}), var, coeff)
    return [rows[k] for k in sorted(rows, key=lambda t: (t[0], t[1], t[2], t[3].sort_key()))]


def _homotopy_images(c: ProjComplex, d: ProjComplex, findex):
    """Image vectors (in f-variable coordinates) of the unit homotopies."""
    hvars = _hom_variables(c, d, -1)
    images: list[dict[int, int | Fraction]] = [{} for _ in hvars]
    for h, key, coeff in _hom_differential(c, d, -1, enumerate(hvars)):
        add_entry(images[h], findex[key], coeff)
    return images


def _lift_vector(c: ProjComplex, d: ProjComplex, fvars, vec) -> ChainMap:
    return _chain_map(c, d, ((a, fvars[j]) for j, a in vec.items()), _lowest(c))


def _map_vector(f: ChainMap, findex) -> dict[int, int | Fraction]:
    t = _lowest(f.source)
    vec: dict[int, int | Fraction] = {}
    for coeff, key in _map_terms(f.components, t):
        var = findex.get(key)
        if var is None:
            raise ValueError(f"component at degree {key[0] + t} falls outside the hom variable grid")
        add_entry(vec, var, coeff)
    return vec


class _QuotientCore:
    """What HomQuotient(C, D) shares with HomQuotient(C[k], D[k]): the variable
    grid and its index, the boundary echelon and, once asked for, the
    dimension and the basis vectors.  ``lifted`` holds the basis as chain
    maps, with the source and target objects it was lifted for."""

    __slots__ = ("vars", "index", "boundary", "dimension", "basis", "lifted")

    def __init__(self, c: ProjComplex, d: ProjComplex) -> None:
        self.vars = _hom_variables(c, d, 0)
        self.index = {v: j for j, v in enumerate(self.vars)}
        self.boundary = SpanSolver(_homotopy_images(c, d, self.index) if self.vars else ())
        self.dimension = None if self.vars else 0
        self.basis = None
        self.lifted = (None, None, [])


class HomQuotient:
    """Hom(C, D) in the homotopy category: chain maps C -> D modulo null-homotopy.

    Maps are vectors over the variables of ``_hom_variables(c, d, 0)``.
    The images of the unit homotopies are reduced once, into the boundary
    echelon; ``contains`` reduces against it, and ``rank``, ``solve`` and
    ``basis`` extend a copy of it, so no query eliminates them again.
    ``basis`` is the echelon choice over the variable order (degree, row,
    column, path), so repeated runs agree exactly.  All of this sits in a
    core, which ``quotient`` shares between pairs up to a common shift; its
    docstring gives the key, the callers, and why every answer stays exact.

    Over ``L(1, 0)``, the identity of the cone of ``id: P_0 -> P_0`` is
    null-homotopic, and the stalk complex ``P_0`` has the idempotent and
    the loop as its basis of endomorphisms:

    >>> from kbproj.algebra import AlgebraSpec
    >>> spec = AlgebraSpec(1, 0)
    >>> cone = mapping_cone(identity_chain_map(stalk_complex(spec, 0)))
    >>> HomQuotient(cone, cone).contains(identity_chain_map(cone))
    True
    >>> end = HomQuotient(stalk_complex(spec, 0), stalk_complex(spec, 0))
    >>> end.dimension, [f.components[0][0][0] for f in end.basis]
    (2, [e(0), a(0)])
    >>> end.rank(end.basis + [identity_chain_map(end.source)])
    2
    >>> end.solve(end.basis, scale_chain_map(end.basis[1], 3))
    {1: Fraction(3, 1)}
    """

    def __init__(self, c: ProjComplex, d: ProjComplex, core: _QuotientCore | None = None) -> None:
        if c.spec is not d.spec and c.spec != d.spec:
            raise ValueError("hom across different algebras")
        self.source, self.target = c, d
        self._core = core if core is not None else _QuotientCore(c, d)

    @property
    def dimension(self) -> int:
        core = self._core
        if core.dimension is None:
            eqs = _chain_equations(self.source, self.target, core.vars)
            core.dimension = len(core.vars) - rank(eqs) - core.boundary.rank
        return core.dimension

    @property
    def basis(self) -> list[ChainMap]:
        core = self._core
        if core.basis is None:
            eqs = _chain_equations(self.source, self.target, core.vars)
            span = core.boundary.copy()
            # the boundary and the kept cycles span every cycle: dimension-many are kept
            core.basis = [z for z in nullspace(eqs, len(core.vars)) if span.add_relation(z)]
            core.dimension = len(core.basis)
        source, target, maps = core.lifted
        if source is not self.source or target is not self.target:
            maps = [_lift_vector(self.source, self.target, core.vars, z) for z in core.basis]
            core.lifted = (self.source, self.target, maps)
        return list(maps)

    def _own(self, f: ChainMap) -> ChainMap:
        """f, checked to run C -> D: a map between other complexes may still fit the grid."""
        if not (_same(f.source, self.source) and _same(f.target, self.target)):
            raise ValueError("maps must share source and target")
        return f

    def contains(self, f: ChainMap) -> bool:
        """Whether the chain map f: C -> D is null-homotopic, False off the
        variable grid; ValueError when f runs between other complexes."""
        self._own(f)
        try:
            vec = _map_vector(f, self._core.index)
        except ValueError:
            return False
        return self._core.boundary.contains(vec)

    def rank(self, maps) -> int:
        """Dimension of the span of the maps C -> D modulo null-homotopy; ValueError on others."""
        span = self._core.boundary.copy()
        return sum(span.add_relation(_map_vector(self._own(f), self._core.index)) for f in maps)

    def solve(self, generators, rhs: ChainMap) -> dict[int, Fraction] | None:
        """Coefficients c_j with rhs ~ sum_j c_j generators[j], or None; ValueError as in rank."""
        span = self._core.boundary.copy()
        for gen in generators:
            span.add_generator(_map_vector(self._own(gen), self._core.index))
        return span.solve(_map_vector(self._own(rhs), self._core.index))


def quotient(c: ProjComplex, d: ProjComplex) -> HomQuotient:
    """HomQuotient(c, d) on a memoized core shared by every common shift of the pair.

    The key is ``(c.nkey(), d.nkey(), t_d - t_c)``, t_x the lowest degree of
    x.  A common shift multiplies both differentials by one sign, negating
    the chain equations and the homotopy images each as a set: their echelon
    (pivots 1) and nullspace, and so every basis, solve and witness in
    degrees counted from t_c, stay the same.  ``hom_space``,
    ``homotopy_rank``, ``is_null_homotopic``, ``is_contractible``,
    ``homotopy_factor`` and ``homotopy_inverse`` (through them
    ``is_isomorphic_K`` and ``standard_triangle``) and the connecting-map
    solve of ``standard_triangle`` share cores; ``hom_space_dimension``,
    whose sweeps ask each pair once, does not.  Over ``L(1, 0)``, with C the
    cone of the loop on ``P_0`` and D the stalk ``P_0``:

    >>> from kbproj.algebra import AlgebraSpec, Path, PathCombination
    >>> d = stalk_complex(AlgebraSpec(1, 0), 0)
    >>> c = mapping_cone(make_chain_map(d, d, {0: ((PathCombination.of(Path(0, (0,))),),)}))
    >>> hom, up = quotient(c, d), quotient(shift(c, 1), shift(d, 1))
    >>> up._core is hom._core, up.dimension, hom.dimension
    (True, 1, 1)
    >>> hom.basis[0].components, up.basis[0].components
    ({0: ((a(0),),)}, {-1: ((a(0),),)})
    >>> up.solve(up.basis, shift_chain_map(hom.basis[0], 1)), up.rank(up.basis)
    ({0: Fraction(1, 1)}, 1)
    """
    return HomQuotient(c, d, _shared_core(c, d))


@memoized("complexes.hom_quotient", key=lambda c, d: (c.nkey(), d.nkey(), _lowest(d) - _lowest(c)))
def _shared_core(c: ProjComplex, d: ProjComplex) -> _QuotientCore:
    """The core of a fresh HomQuotient(c, d), which checks the algebras first."""
    return HomQuotient(c, d)._core


def hom_space_dimension(c: ProjComplex, d: ProjComplex) -> int:
    """Dimension of the hom space in the homotopy category.

    Sweeps ask each pair up to shift once, so this stores no core.
    """
    return HomQuotient(c, d).dimension


def hom_space(c: ProjComplex, d: ProjComplex) -> HomQuotient:
    """Hom up to homotopy, with ``dimension`` and a ``basis`` of chain maps."""
    return quotient(c, d)


def homotopy_rank(maps: list[ChainMap]) -> int:
    """Rank of the span of the given chain maps in the homotopy category.

    All maps must share source and target: ``HomQuotient.rank`` raises ValueError otherwise.
    """
    return quotient(maps[0].source, maps[0].target).rank(maps) if maps else 0


def is_null_homotopic(f: ChainMap) -> bool:
    """Whether f = d h + h d for some degreewise h.

    Raises ValueError when f is not a chain map.  A "yes" reads f once:
    the shapes are checked (a short matrix could be contained once padded),
    ``contains`` finds each term among the grid's variables, nonzero paths
    between the right vertices, and every d h + h d is a chain map, as both
    differentials square to zero.  Only a "no" runs ``validate_chain_map``,
    to raise on a map that is not a chain map.  Over ``L(1, 0)``, e(0) into
    degree 0 of the loop ``P_0 -> P_0`` is not a chain map:

    >>> from kbproj.algebra import AlgebraSpec, Path, PathCombination
    >>> p = stalk_complex(AlgebraSpec(1, 0), 0)
    >>> c = make_complex(p.spec, {0: (0,), 1: (0,)}, {0: ((PathCombination.of(Path(0, (0,))),),)})
    >>> is_null_homotopic(make_chain_map(p, c, identity_chain_map(p).components))
    Traceback (most recent call last):
    ValueError: not a chain map: degree 0: does not commute with the differentials
    """
    c, d = f.source, f.target
    fits = all(_fits(m, len(d.summand(i)), len(c.summand(i))) for i, m in f.components.items())
    if fits and (c.spec is d.spec or c.spec == d.spec) and quotient(c, d).contains(f):
        return True
    if problem := validate_chain_map(f):
        raise ValueError(f"not a chain map: {problem}")
    return False


def is_contractible(c: ProjComplex) -> bool:
    """Whether the identity is nullhomotopic, i.e. c is zero up to homotopy."""
    return quotient(c, c).contains(identity_chain_map(c))


def homotopy_factor(f: ChainMap, rhs: ChainMap) -> ChainMap | None:
    """A map x: f.target -> rhs.target with x after f homotopic to rhs, or None.

    x combines the basis of ``hom_space(f.target, rhs.target)``, with the
    coefficients that ``quotient(f.source, rhs.target)`` solves for.
    """
    basis = hom_space(f.target, rhs.target).basis
    coeffs = quotient(f.source, rhs.target).solve([compose_chain_maps(b, f) for b in basis], rhs)
    if coeffs is None:
        return None
    return combine_chain_maps(f.target, rhs.target, basis, coeffs)


def homotopy_inverse(f: ChainMap) -> ChainMap | None:
    """A two-sided homotopy inverse of f, or None when f is not an isomorphism.

    g is ``homotopy_factor(f, id)``, and f after g minus the identity must be
    null-homotopic; that round trip is built in one pass from the terms of
    f after g and the identity's terms with coefficient -1.  Over
    ``L(1, 0)``, the identity of the stalk ``P_0`` has an inverse and the
    loop ``a(0)`` has none:

    >>> from kbproj.algebra import AlgebraSpec, Path, PathCombination
    >>> p = stalk_complex(AlgebraSpec(1, 0), 0)
    >>> homotopy_inverse(identity_chain_map(p)).components
    {0: ((e(0),),)}
    >>> loop = make_chain_map(p, p, {0: ((PathCombination.of(Path(0, (0,))),),)})
    >>> homotopy_inverse(loop) is None
    True
    """
    g = homotopy_factor(f, identity_chain_map(f.source))
    if g is None:
        return None
    fg, y = compose_chain_maps(f, g), f.target
    minus_id = _unit_terms(y.summands, lambda i: -1)
    round_trip = _chain_map(y, y, chain(_map_terms(fg.components, 0), minus_id))
    return g if quotient(f.target, f.target).contains(round_trip) else None


# -- Minimal models ----------------------------------------------------------


def _invert_local(entry: PathCombination) -> PathCombination:
    """Inverse of a local-ring element (stationary part + nilpotent loop part)."""
    lam = entry.stationary_coefficient()
    if not lam:
        raise ValueError("entry has no invertible part")
    e = PathCombination.of(Path(next(entry.terms())[0].start, ()))
    nil = entry - e.scale(lam)
    # nil squares to zero: the only cycles are powers of the length-1 loop
    return e.scale(Fraction(1, 1) / lam) - nil.scale(Fraction(1) / (lam * lam))


def minimal_model(c: ProjComplex) -> ProjComplex:
    """Gaussian reduction of invertible differential entries.

    Repeatedly splits off two-term contractible summands until every
    entry lies in the radical (no stationary coefficient); the result is
    homotopy equivalent to the input and unique up to isomorphism.  It
    leaves ``make_complex`` to drop the emptied degrees and every all-zero
    differential, so the model is in the one normal form of ``ProjComplex``.
    """
    spec = c.spec
    summands = {i: list(s) for i, s in c.summands.items()}
    diffs = {i: [list(row) for row in mat] for i, mat in c.diffs.items()}

    def find_pivot():
        for i in sorted(diffs):
            mat = diffs[i]
            for r, row in enumerate(mat):
                for col, entry in enumerate(row):
                    if entry.stationary_coefficient():
                        return i, r, col
        return None

    while (pivot := find_pivot()) is not None:
        i, r, col = pivot
        mat = diffs[i]
        inv = _invert_local(mat[r][col])
        for s, row in enumerate(mat):
            if s != r and row[col]:
                for e, entry in enumerate(mat[r]):
                    if e != col and entry:
                        corr = algebra_product(spec, algebra_product(spec, entry, inv), row[col])
                        row[e] = row[e] - corr
        # split off summand col of degree i and summand r of degree i + 1
        del summands[i][col], summands[i + 1][r], mat[r]
        for row in mat:
            del row[col]
        if i - 1 in diffs:
            del diffs[i - 1][col]
        for row in diffs.get(i + 1, ()):
            del row[r]
    return make_complex(spec, summands, diffs)


# -- Isomorphism in the homotopy category ------------------------------------


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    forward: ChainMap | None = None
    backward: ChainMap | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


def _signature(c: ProjComplex) -> tuple:
    return tuple(sorted((i, tuple(sorted(s))) for i, s in c.summands.items()))


def is_isomorphic_K(c: ProjComplex, d: ProjComplex) -> IsoResult:
    """Isomorphism test in the homotopy category, with explicit witnesses.

    Minimal models are compared degreewise first (an exact invariant); on a
    match, the candidates are the hom basis elements, their sum and six
    combinations drawn from ``random.Random(0)``, each built only when it is
    reached.  The first that ``homotopy_inverse`` certifies is returned with
    its inverse.  Complete whenever one side is indecomposable up to homotopy.
    """
    if c.spec != d.spec:
        raise ValueError("isomorphism across different algebras")
    model = minimal_model(c)
    if _signature(model) != _signature(minimal_model(d)):
        return IsoResult(False)
    if model.is_zero():  # a minimal model is zero exactly when the complex is contractible
        return IsoResult(True, zero_chain_map(c, d), zero_chain_map(d, c))
    forward = hom_space(c, d).basis
    coeffs = []
    if len(forward) > 1:
        rng = random.Random(0)
        coeffs = [dict.fromkeys(range(len(forward)), 1)]
        coeffs += [{j: rng.randint(1, 7) for j in range(len(forward))} for _ in range(6)]
    combos = (combine_chain_maps(c, d, forward, x) for x in coeffs)
    for f in chain(forward, combos):
        g = homotopy_inverse(f)
        if g is not None:
            return IsoResult(True, f, g)
    return IsoResult(False)


# -- Serialization ------------------------------------------------------------


SCHEMA_VERSION = 1


def _schema_header(spec: AlgebraSpec) -> dict:
    """The ``schema`` and ``algebra`` keys that open every data object: a complex,
    pseudo-identity data or a family, also inside a report.  ``cli._emit`` writes the report header."""
    return {"schema": SCHEMA_VERSION, "algebra": [spec.n, spec.m]}


def _check_schema(obj: dict) -> None:
    """ValueError unless obj's ``schema`` is ``SCHEMA_VERSION``; the loaders' one version check."""
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {obj.get('schema')!r}")


def _json_ints(values, what: str, count: int | None = None) -> tuple[int, ...]:
    """values as a tuple; TypeError unless each one is a JSON integer, which a
    bool is not, and unless there are ``count`` of them when it is given."""
    out = tuple(values)
    if count is not None and len(out) != count:
        raise TypeError(f"expected {count} {what}s, got {len(out)}")
    for x in out:
        if type(x) is not int:
            raise TypeError(f"{what} {x!r} is not an integer")
    return out


# An integer in text, as the loaders and the CLI read it: ASCII digits with an
# optional sign, and around them the whitespace int() strips: \s except \x1c-\x1f.
_INT_TEXT = re.compile(r"[^\S\x1c-\x1f]*[+-]?[0-9]+[^\S\x1c-\x1f]*")


def _int_literal(text: str, what: str = "integer") -> int:
    """int(text) for digits as ``_INT_TEXT`` or JSON write them; ValueError naming
    ``what`` and the digit limit, not the interpreter setting, on a longer text."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} {text[:12]}... has more than {limit} digits") from None


def _degree_keys(table: dict, what: str) -> dict:
    """``table`` keyed by degree; ValueError on a key that ``_INT_TEXT`` does
    not match or on two keys for one degree."""
    spelled, out = {}, {}
    for key, value in table.items():
        if not (isinstance(key, str) and _INT_TEXT.fullmatch(key)):
            raise ValueError(f"malformed complex: {what} key {key!r} is not an integer")
        i = _int_literal(key, f"malformed complex: {what} key")
        if i in out:
            raise ValueError(f"malformed complex: {what} keys {spelled[i]!r} and {key!r} name one degree")
        spelled[i], out[i] = key, value
    return out


def complex_to_obj(c: ProjComplex) -> dict:
    diffs = {}
    for i, mat in sorted(c.diffs.items()):
        rows = []
        for row in mat:
            cells = []
            for entry in row:
                cells.append(
                    [
                        [list(p.arrows), coeff.numerator, coeff.denominator]
                        for p, coeff in entry.terms()
                    ]
                )
            rows.append(cells)
        diffs[str(i)] = rows
    return {
        **_schema_header(c.spec),
        "degrees": {str(i): list(c.summands[i]) for i in c.degrees()},
        "differentials": diffs,
    }


def complex_from_obj(obj: dict) -> ProjComplex:
    """The complex stored in obj, normalized as by ``make_complex``: a degree
    that lists no summands is dropped.  ValueError on anything malformed.
    The version is read from ``schema`` alone: an object that names its
    version under any other key is ``unsupported schema None``."""
    if not isinstance(obj, dict):
        raise ValueError("malformed complex: expected a JSON object")
    _check_schema(obj)
    try:
        spec = AlgebraSpec(*_json_ints(obj["algebra"], "algebra parameter", 2))
        degrees = _degree_keys(obj["degrees"], "degrees")
        summands = {i: _json_ints(s, "vertex") for i, s in degrees.items()}
        diffs = {}
        for i, rows in _degree_keys(obj.get("differentials", {}), "differentials").items():
            row_verts = summands.get(i + 1, ())
            mat = []
            for r, row in enumerate(rows):
                cells = []
                for cell in row:
                    acc = PathCombination.zero()
                    for arrows, num, den in cell:
                        arrows = _json_ints(arrows, "arrow")
                        start = spec.arrow_source(arrows[-1]) if arrows else row_verts[r]
                        coeff = Fraction(*_json_ints((num, den), "numerator or denominator"))
                        acc = acc + PathCombination.of(Path(start, arrows), coeff)
                    cells.append(acc)
                mat.append(tuple(cells))
            diffs[i] = tuple(mat)
    except (AttributeError, IndexError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed complex: {type(exc).__name__}: {exc}") from None
    problem = validate_complex(ProjComplex(spec, summands, diffs))
    if problem is not None:
        raise ValueError(f"malformed complex: {problem}")
    return make_complex(spec, summands, diffs)


def dumps_complex(c: ProjComplex) -> str:
    return json.dumps(complex_to_obj(c), sort_keys=True, separators=(",", ":"))


def loads_complex(text: str) -> ProjComplex:
    return complex_from_obj(json.loads(text, parse_int=_int_literal))
