"""Path combinatorics for a family of one-cycle gentle algebras.

The algebra depends on two integers n >= 1 and m >= 0.  Its quiver has
vertices -m, ..., n-1: an oriented cycle through 0, ..., n-1 (a loop at 0
when n = 1) together with a descending tail 0 -> -1 -> ... -> -m.  Arrows
are indexed by their target: alpha_u ends at u, and its source is u+1 for
a tail or inner cycle arrow and 0 for the closing arrow alpha_{n-1}.  The
product of two consecutive cycle arrows is zero; these quadratic monomial
relations are the only ones, so a nonzero path is exactly an arrow word
that walks the quiver without containing a forbidden cycle pair.

Arrow words are stored in algebra order: ``arrows[-1]`` is applied first,
``arrows[0]`` last.  A path therefore starts at the source of its last
entry and ends at the target (= index) of its first entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from typing import Iterable, Iterator, NamedTuple

from .linalg import add_entry, exact

# Every per-process memo table of the package, by name.  Tables hold only
# results of pure functions of their keys, so emptying them changes no
# answer, only the time the next query takes.
_MEMO_TABLES: dict[str, dict] = {}


def memo_table(name: str) -> dict:
    """The memo table registered under ``name``, created empty on first use."""
    return _MEMO_TABLES.setdefault(name, {})


def clear_caches() -> None:
    """Empty every registered memo table."""
    for table in _MEMO_TABLES.values():
        table.clear()


def memoized(name: str, key=None):
    """The one memo mechanism: memoize fn in the table ``name``, keyed on
    ``key(*args)``, or on the arguments when no key is given."""
    table = memo_table(name)

    def decorate(fn):
        @wraps(fn)
        def cached(*args):
            k = args if key is None else key(*args)
            hit = table.get(k)
            if hit is None:
                hit = table[k] = fn(*args)
            return hit

        return cached

    return decorate


@dataclass(frozen=True)
class AlgebraSpec:
    """Parameters (n, m) of the algebra: cycle length and tail length."""

    n: int
    m: int
    # Built once per spec: vertices -m..n-1, arrow indices (alpha_u has target
    # u) and hash((n, m)), which every memo lookup asks for.  Out of eq and repr.
    vertices: range = field(init=False, repr=False, compare=False)
    arrows: range = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"cycle length n must be >= 1, got {self.n}")
        if self.m < 0:
            raise ValueError(f"tail length m must be >= 0, got {self.m}")
        object.__setattr__(self, "vertices", range(-self.m, self.n))
        object.__setattr__(self, "arrows", self.vertices)
        object.__setattr__(self, "_hash", hash((self.n, self.m)))

    def __hash__(self) -> int:
        return self._hash

    def arrow_source(self, u: int) -> int:
        if not -self.m <= u <= self.n - 1:
            raise ValueError(f"no arrow with index {u} in {self}")
        if u == self.n - 1:
            return 0
        return u + 1

    def arrow_target(self, u: int) -> int:
        if not -self.m <= u <= self.n - 1:
            raise ValueError(f"no arrow with index {u} in {self}")
        return u

    def normalize_arrow(self, w: int) -> int:
        """Reduce an arrow index: cycle indices are periodic mod n.

        Tail indices (w < 0) are returned unchanged.
        """
        return w % self.n if w >= 0 else w


def successor(spec: AlgebraSpec, u: int) -> int:
    """Source vertex of the maximal path ending at u.

    >>> successor(AlgebraSpec(2, 1), -1)
    1
    >>> successor(AlgebraSpec(2, 1), 1)
    0
    >>> successor(AlgebraSpec(1, 2), 0)
    0
    """
    return successor_power(spec, u, 1)


def successor_power(spec: AlgebraSpec, u: int, j: int) -> int:
    """j-fold iterate of :func:`successor` (j >= 0), the one successor rule.

    Raises ValueError for j < 0 and for a vertex outside the algebra, j = 0 included.
    """
    if j < 0:
        raise ValueError(f"negative iterate {j}")
    if u not in spec.vertices:
        raise ValueError(f"vertex {u} not in {spec}")
    if j == 0:
        return u
    if u >= 0:
        return (u + j) % spec.n
    return j % spec.n


class Path(NamedTuple):
    """A nonzero path: start vertex plus arrow word in algebra order (hash and eq in C)."""

    start: int
    arrows: tuple[int, ...]

    @property
    def end(self) -> int:
        # target of an arrow is its index
        return self.arrows[0] if self.arrows else self.start

    @property
    def is_stationary(self) -> bool:
        return not self.arrows

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.arrows), self.arrows)

    def __repr__(self) -> str:
        if not self.arrows:
            return f"e({self.start})"
        return "*".join(f"a({w})" for w in self.arrows)


def stationary_path(spec: AlgebraSpec, u: int) -> Path:
    if u not in spec.vertices:
        raise ValueError(f"vertex {u} not in {spec}")
    return Path(u, ())


def _is_forbidden_pair(spec: AlgebraSpec, a: int, b: int) -> bool:
    """True if the length-2 word (a, b), with b applied first, is a relation."""
    return a >= 0 and b >= 0 and b == (a + 1) % spec.n


def path_is_valid(spec: AlgebraSpec, p: Path) -> bool:
    """Whether p is a nonzero path of spec: an arrow word that chains from
    p.start and holds no forbidden cycle pair, as listed in the path table."""
    return p in path_table(spec).products


def make_path(spec: AlgebraSpec, arrows: Iterable[int]) -> Path:
    """Build a validated path from an arrow word in algebra order."""
    word = tuple(spec.normalize_arrow(w) for w in arrows)
    if not word:
        raise ValueError("stationary path needs a vertex; use stationary_path")
    p = Path(spec.arrow_source(word[-1]), word)
    if not path_is_valid(spec, p):
        raise ValueError(f"invalid or zero path word {word} in {spec}")
    return p


def max_path(spec: AlgebraSpec, u: int) -> Path:
    """The maximal nonzero path ending at u.

    For u < 0 this is the full descent from successor(u) through the tail;
    for a cycle vertex it is the single arrow alpha_u.

    >>> max_path(AlgebraSpec(2, 1), -1)
    a(-1)*a(0)
    """
    if u not in spec.vertices:
        raise ValueError(f"vertex {u} not in {spec}")
    if u < 0:
        return Path(successor(spec, u), tuple(range(u, 1)))
    return Path(successor(spec, u), (u,))


def factor_path(spec: AlgebraSpec, u: int, v: int) -> Path:
    """The path with max_path(u) = factor_path(u, v) * max_path(v).

    Defined when u <= v and both maximal paths start at the same vertex;
    stationary at u when u = v.
    """
    if u not in spec.vertices or v not in spec.vertices:
        raise ValueError(f"vertices ({u}, {v}) not in {spec}")
    if u > v:
        raise ValueError(f"no factor path: {u} > {v}")
    if successor(spec, u) != successor(spec, v):
        raise ValueError(f"no factor path: max paths at {u}, {v} start apart")
    if u == v:
        return Path(u, ())
    return Path(v, tuple(range(u, v)))


def compose_paths(spec: AlgebraSpec, p: Path, q: Path) -> "PathCombination":
    """Algebra product p*q, with q applied first (end of q = start of p).

    The result is a PathCombination because the product may be zero: the
    concatenated word vanishes exactly when the junction is a forbidden
    cycle pair.
    """
    if q.end != p.start:
        raise ValueError(f"paths do not compose: {q} ends at {q.end}, {p} starts at {p.start}")
    if not p.arrows:
        return PathCombination.of(q)
    if not q.arrows:
        return PathCombination.of(p)
    if _is_forbidden_pair(spec, p.arrows[-1], q.arrows[0]):
        return PathCombination.zero()
    return PathCombination.of(Path(q.start, p.arrows + q.arrows))


class PathCombination:
    """A rational linear combination of parallel paths.

    Internally a dict Path -> coefficient with zeros dropped, each an int or,
    only when its value is no integer, a Fraction (``linalg.exact``).
    Combinations occurring as matrix entries always consist of parallel
    paths (same start, same end), but that is the caller's concern.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Path, int | Fraction] | None = None):
        self._terms: dict[Path, int | Fraction] = {}
        if terms:
            for path, coeff in terms.items():
                if coeff := exact(coeff):
                    self._terms[path] = coeff

    @classmethod
    def _trusted(cls, terms: dict[Path, int | Fraction]) -> "PathCombination":
        """Wrap ``terms`` as is: every value nonzero and in normal form, the dict unshared."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "PathCombination":
        return cls()

    @classmethod
    def of(cls, path: Path, coeff: Fraction | int = 1) -> "PathCombination":
        return cls({path: coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[Path, int | Fraction]]:
        if len(self._terms) < 2:
            return iter(self._terms.items())
        return iter(sorted(self._terms.items(), key=lambda it: it[0].sort_key()))

    def coefficient(self, path: Path) -> int | Fraction:
        return self._terms.get(path, 0)

    def stationary_coefficient(self) -> int | Fraction:
        for path, coeff in self._terms.items():
            if path.is_stationary:
                return coeff
        return 0

    def __add__(self, other: "PathCombination") -> "PathCombination":
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for path, coeff in other._terms.items():
            add_entry(out, path, coeff)
        return PathCombination._trusted(out)

    def __sub__(self, other: "PathCombination") -> "PathCombination":
        return self + -other

    def __neg__(self) -> "PathCombination":
        return PathCombination._trusted({p: -c for p, c in self._terms.items()})

    def scale(self, coeff: Fraction | int) -> "PathCombination":
        coeff = exact(coeff)
        if not coeff:
            return PathCombination.zero()
        if coeff == 1:
            return self
        if coeff == -1:
            return -self
        return PathCombination._trusted({p: exact(c * coeff) for p, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathCombination):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self.key())

    def key(self) -> tuple:
        """Canonical hashable form: sorted ((start, arrows, num, den), ...)."""
        return tuple(
            (p.start, p.arrows, c.numerator, c.denominator)
            for p, c in self.terms()
        )

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for path, coeff in self.terms():
            bits.append(f"{coeff}*{path!r}" if coeff != 1 else repr(path))
        return " + ".join(bits)


# -- The path table -------------------------------------------------------------


class PathTable(NamedTuple):
    """The nonzero paths of one algebra and all their products.

    ``paths[start, end]`` lists the paths between two vertices, sorted by
    (length, arrow word), for every pair of vertices of the algebra.
    ``products[p][q]`` is p*q for every pair where q ends at p's start: the
    table's own path with the concatenated word, or None for zero.
    """

    paths: dict[tuple[int, int], tuple[Path, ...]]
    products: dict[Path, dict[Path, Path | None]]


@memoized("algebra.path_table")
def path_table(spec: AlgebraSpec) -> PathTable:
    """The path table of ``spec``, built once per process and shared: read only."""
    found: dict[tuple[int, int], list[Path]] = {(u, v): [] for u in spec.vertices for v in spec.vertices}
    for u in spec.vertices:
        # Walk forward from u; path length is bounded by m + 1, so plain DFS.
        stack: list[Path] = [Path(u, ())]
        while stack:
            p = stack.pop()
            found[u, p.end].append(p)
            for w in spec.arrows:
                if spec.arrow_source(w) != p.end:
                    continue
                if p.arrows and _is_forbidden_pair(spec, w, p.arrows[0]):
                    continue
                stack.append(Path(u, (w,) + p.arrows))
    paths = {key: tuple(sorted(ps, key=Path.sort_key)) for key, ps in found.items()}
    canonical = {p: p for ps in paths.values() for p in ps}
    products = {
        p: {q: canonical.get(Path(q.start, p.arrows + q.arrows))
            for v in spec.vertices for q in paths[v, p.start]}
        for p in canonical
    }
    return PathTable(paths, products)


_NO_PRODUCTS: dict[Path, Path | None] = {}


def algebra_product(
    spec: AlgebraSpec, x: PathCombination, y: PathCombination
) -> PathCombination:
    """Bilinear extension of compose_paths: x*y with y applied first."""
    products = path_table(spec).products
    out: dict[Path, int | Fraction] = {}
    for px, cx in x._terms.items():
        after = products.get(px, _NO_PRODUCTS)
        x_is_one = cx == 1
        for py, cy in y._terms.items():
            try:
                path = after[py]
            except KeyError:
                raise ValueError(f"{px!r} * {py!r}: not composable nonzero paths of {spec}") from None
            if path is not None:
                add_entry(out, path, cy if x_is_one else cx if cy == 1 else exact(cx * cy))
    return PathCombination._trusted(out)


def hom_basis_proj(spec: AlgebraSpec, v: int, u: int) -> list[Path]:
    """All nonzero paths from u to v, sorted by (length, arrow word).

    These paths index a basis of the module maps P_v -> P_u by right
    multiplication.  The list is the caller's own.

    >>> hom_basis_proj(AlgebraSpec(1, 0), 0, 0)
    [e(0), a(0)]
    >>> hom_basis_proj(AlgebraSpec(2, 1), -1, 0)
    [a(-1)]
    """
    if v not in spec.vertices or u not in spec.vertices:
        raise ValueError(f"vertices ({v}, {u}) not in {spec}")
    return list(path_table(spec).paths[u, v])
