"""Combinatorial model of the homotopy category of the indecomposables.

Vertices are integer triples (i, a, b) with i a cyclic sheet index in
[0, n-1] and a <= b + (m if i == 0 else 0).  Hom spaces are spanned by
at most one "forward" generator f (present when the target lies in the
forward cone of the source) and at most one "deep" generator g (present
when the target lies in the deep cone; g composes to zero with itself,
like a square-zero infinitesimal).  The translation ``theta_vertex`` /
``theta_hom`` matches this model with the complexes built from
quadruples, generator by generator: f-parts become the unsigned basis
maps and g-parts the signed ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraSpec, memoized
from .basismaps import phi_map, psi_map
from .complexes import ChainMap, add_chain_maps, scale_chain_map, zero_chain_map
from .linalg import exact
from .quadruples import Quadruple, build_complex, in_calC


class GammaVertex(NamedTuple):
    i: int
    a: int
    b: int


def _delta_top(spec: AlgebraSpec, i: int) -> int:
    """m if i is the distinguished sheet 0, else 0."""
    return spec.m if i == 0 else 0


def _delta_last(spec: AlgebraSpec, i: int) -> int:
    """m if i is the last sheet n-1, else 0."""
    return spec.m if i == spec.n - 1 else 0


def _as_vertex(v) -> GammaVertex:
    """``v`` as a GammaVertex; ValueError unless it is a triple of ints."""
    if not (isinstance(v, tuple) and len(v) == 3 and all(type(x) is int for x in v)):
        raise ValueError(f"{v!r} is not a vertex triple (i, a, b) of ints")
    return v if type(v) is GammaVertex else GammaVertex(*v)


def is_vertex(spec: AlgebraSpec, v: GammaVertex) -> bool:
    i, a, b = v
    return 0 <= i <= spec.n - 1 and a <= b + _delta_top(spec, i)


def check_vertex(spec: AlgebraSpec, v: GammaVertex) -> None:
    if not is_vertex(spec, v):
        raise ValueError(f"{tuple(v)} is not a vertex for (n,m)=({spec.n},{spec.m})")


def _in_F(spec: AlgebraSpec, base: GammaVertex, x: GammaVertex) -> bool:
    """``in_F`` for vertices already known to be valid."""
    i, a, b = base
    j, xa, xb = x
    return j == i and a <= xa <= b + _delta_top(spec, i) and xb >= b


def _in_G(spec: AlgebraSpec, base: GammaVertex, x: GammaVertex) -> bool:
    """``in_G`` for vertices already known to be valid."""
    i, a, b = base
    j, xa, xb = x
    return (
        j == (i + 1) % spec.n
        and xa <= a + _delta_last(spec, i)
        and a <= xb <= b + _delta_top(spec, i)
    )


def in_F(spec: AlgebraSpec, base: GammaVertex, x: GammaVertex) -> bool:
    """Whether ``x`` lies in the forward cone of ``base``."""
    check_vertex(spec, base)
    check_vertex(spec, x)
    return _in_F(spec, base, x)


def in_G(spec: AlgebraSpec, base: GammaVertex, x: GammaVertex) -> bool:
    """Whether ``x`` lies in the deep cone of ``base``."""
    check_vertex(spec, base)
    check_vertex(spec, x)
    return _in_G(spec, base, x)


def gamma_hom_dim(spec: AlgebraSpec, source: GammaVertex, target: GammaVertex) -> int:
    return int(in_F(spec, source, target)) + int(in_G(spec, source, target))


@dataclass(frozen=True)
class GammaHom:
    """A morphism in normal form: f_coeff * f + g_coeff * g.

    Invariant: source and target are GammaVertex triples of ints that
    are vertices for spec, both coefficients are Fractions, and a
    coefficient is nonzero only when its generator exists for the
    (source, target) pair (``in_F`` for f, ``in_G`` for g).  The
    constructor turns plain int triples into GammaVertex, and reads each
    coefficient as ``linalg.exact`` does: an int or a Fraction, never a
    float, a bool or a string.

    The public constructor enforces the invariant on every call, and so
    does everything built on it: ``hom_f``, ``hom_g``, ``zero_hom``,
    ``identity_hom``, the suspension maps and the loaders
    (``rigidity.pseudo_identity_from_obj``).  Morphisms enter the
    package only through these.

    The trusted constructor ``_trusted_hom`` checks nothing.  Its callers
    keep the invariant of their valid inputs:

    - ``gamma_compose`` keeps the outer endpoints, sets each coefficient
      only after testing its cone, and turns the kernel's int 0 into
      ``Fraction(0)``; ``hom_add`` (same algebra and endpoints) and
      ``hom_scale`` (scalar read by ``exact``) make a coefficient
      nonzero only where an input coefficient was;
    - ``_scaled_hom`` builds a morphism from a ``scaled`` triple for
      ``invert_hom`` (nonzero only where the input was),
      ``rigidity._generator_hom`` (a key of ``generator_keys``, listed
      after its cone was checked), ``PseudoIdentityData.image`` (a triple
      from a checked GammaHom, or from ``compose_coeffs``, which sets a
      coefficient only under its cone flag) and each entry of
      ``construct_conjugation`` (its seed solve checks the g cone).
    """

    spec: AlgebraSpec
    source: GammaVertex
    target: GammaVertex
    f_coeff: Fraction
    g_coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "source", _as_vertex(self.source))
        object.__setattr__(self, "target", _as_vertex(self.target))
        object.__setattr__(self, "f_coeff", Fraction(exact(self.f_coeff)))
        object.__setattr__(self, "g_coeff", Fraction(exact(self.g_coeff)))
        check_vertex(self.spec, self.source)
        check_vertex(self.spec, self.target)
        if self.f_coeff and not _in_F(self.spec, self.source, self.target):
            raise ValueError(f"no f generator {tuple(self.source)} -> {tuple(self.target)}")
        if self.g_coeff and not _in_G(self.spec, self.source, self.target):
            raise ValueError(f"no g generator {tuple(self.source)} -> {tuple(self.target)}")

    def is_zero(self) -> bool:
        return not self.f_coeff and not self.g_coeff


_ZERO = Fraction(0)


def _trusted_hom(
    spec: AlgebraSpec,
    source: GammaVertex,
    target: GammaVertex,
    f_coeff: Fraction,
    g_coeff: Fraction,
) -> GammaHom:
    """A GammaHom from fields that already satisfy its invariant; no coercion, no checks."""
    # Setting the fields one by one, as the dataclass __init__ does, keeps
    # the compact per-instance attribute storage that h.__dict__ would undo.
    h = object.__new__(GammaHom)
    object.__setattr__(h, "spec", spec)
    object.__setattr__(h, "source", source)
    object.__setattr__(h, "target", target)
    object.__setattr__(h, "f_coeff", f_coeff)
    object.__setattr__(h, "g_coeff", g_coeff)
    return h


def hom_f(spec: AlgebraSpec, source: GammaVertex, target: GammaVertex) -> GammaHom:
    return GammaHom(spec, source, target, Fraction(1), Fraction(0))


def hom_g(spec: AlgebraSpec, source: GammaVertex, target: GammaVertex) -> GammaHom:
    return GammaHom(spec, source, target, Fraction(0), Fraction(1))


def zero_hom(spec: AlgebraSpec, source: GammaVertex, target: GammaVertex) -> GammaHom:
    return GammaHom(spec, source, target, Fraction(0), Fraction(0))


def identity_hom(spec: AlgebraSpec, v: GammaVertex) -> GammaHom:
    return GammaHom(spec, v, v, Fraction(1), Fraction(0))


def hom_add(h1: GammaHom, h2: GammaHom) -> GammaHom:
    if h1.spec != h2.spec:
        raise ValueError("morphisms from different algebras")
    if h1.source != h2.source or h1.target != h2.target:
        raise ValueError("cannot add morphisms with different endpoints")
    return _trusted_hom(
        h1.spec, h1.source, h1.target, h1.f_coeff + h2.f_coeff, h1.g_coeff + h2.g_coeff
    )


def hom_scale(h: GammaHom, coeff) -> GammaHom:
    c = exact(coeff)
    return _trusted_hom(h.spec, h.source, h.target, c * h.f_coeff, c * h.g_coeff)


def compose_coeffs(f2, g2, f1, g1, in_f: bool, in_g: bool):
    """Coefficients (f, g) of ``(f2 f + g2 g) after (f1 f + g1 g)``.

    f.f lands on f when the outer endpoints' cone outcome ``in_f`` holds,
    the mixed products land on g when ``in_g`` holds, and g.g is zero.
    A factor equal to 1 is not multiplied; the other one is copied.

    The kernel uses only ``*``, ``+``, truthiness and ``== 1``, and a
    coefficient with nothing landing on it is the int 0, so it runs
    unchanged over any ring that has them: ``gamma_compose`` calls it on
    ``Fraction`` coefficients, and the conjugation sweeps of ``rigidity``
    on the int numerators of ``scaled``.  Composition is bilinear, so the
    result on numerators over D1 and D2 is the true result times D1 * D2.

    >>> two, three = Fraction(2), Fraction(3)
    >>> compose_coeffs(_ZERO, two, _ZERO, three, True, True)
    (0, 0)
    >>> compose_coeffs(two, _ZERO, _ZERO, three, True, False)
    (0, 0)
    >>> compose_coeffs(two, _ZERO, Fraction(1), three, True, True)
    (Fraction(2, 1), Fraction(6, 1))
    >>> compose_coeffs(Fraction(1, 2), _ZERO, Fraction(2, 3), Fraction(1, 3), True, True)
    (Fraction(1, 3), Fraction(1, 6))

    The same composite on ``scaled`` numerators, 1/2 f over D = 2 and
    2/3 f + 1/3 g over D = 3, is the one above times 2 * 3:

    >>> compose_coeffs(1, 0, 2, 1, True, True)
    (2, 1)
    """
    f = 0
    if in_f and f1 and f2:
        f = f2 if f1 == 1 else f1 if f2 == 1 else f1 * f2
    g = 0
    if in_g:
        if f1 and g2:
            g = g2 if f1 == 1 else f1 if g2 == 1 else f1 * g2
        if g1 and f2:
            term = g1 if f2 == 1 else f2 if g1 == 1 else g1 * f2
            g = g + term if g else term
    return f, g


def scaled(h: GammaHom) -> tuple[int, int, int]:
    """Ints (F, G, D) with F/D = f_coeff, G/D = g_coeff and D > 0, D the lcm of the denominators.

    Then gcd(F, G, D) = 1, so equal triples mean equal morphisms.  Reads
    the ``Fraction`` slots, not the Python-level ``numerator`` properties.

    >>> scaled(GammaHom(AlgebraSpec(1, 0), (0, 0, 0), (0, 0, 0), Fraction(-1, 2), Fraction(1, 3)))
    (-3, 2, 6)
    """
    f, g = h.f_coeff, h.g_coeff
    df, dg = f._denominator, g._denominator
    if df == dg:
        return f._numerator, g._numerator, df
    d = math.lcm(df, dg)
    return f._numerator * (d // df), g._numerator * (d // dg), d


def normal_triple(f: int, g: int, d: int) -> tuple[int, int, int]:
    """(f, g, d), d > 0, over gcd(f, g, d): the triple ``scaled`` gives for f/d, g/d.

    >>> normal_triple(4, -2, 6), normal_triple(0, 0, 5)
    ((2, -1, 3), (0, 0, 1))
    """
    c = math.gcd(f, g, d)
    return (f, g, d) if c == 1 else (f // c, g // c, d // c)


def scaled_inverse(f: int, g: int, d: int) -> tuple[int, int, int]:
    """The normal triple of ``invert_hom`` on (f, g, d), f != 0: (d*f, -g*d) over f*f.

    >>> scaled_inverse(2, 1, 3)  # (2/3 + 1/3 g)^(-1) = 3/2 - 3/4 g
    (6, -3, 4)
    """
    return normal_triple(d * f, -g * d, f * f)


def _scaled_hom(spec: AlgebraSpec, source: GammaVertex, target: GammaVertex, triple) -> GammaHom:
    """The morphism with ``scaled`` triple (F, G, D), trusted: the caller vouches for its cones."""
    f, g, d = triple
    return _trusted_hom(spec, source, target, Fraction(f, d), Fraction(g, d))


def gamma_compose(second: GammaHom, first: GammaHom) -> GammaHom:
    """Composite ``second after first``; a cone is tested only if a nonzero product lands on it."""
    spec = first.spec
    if spec is not second.spec and spec != second.spec:
        raise ValueError("morphisms from different algebras")
    if first.target != second.source:
        raise ValueError("morphisms are not composable")
    source, target = first.source, second.target
    f1, g1, f2, g2 = first.f_coeff, first.g_coeff, second.f_coeff, second.g_coeff
    in_f = bool(f1 and f2) and _in_F(spec, source, target)
    in_g = bool(f1 and g2 or g1 and f2) and _in_G(spec, source, target)
    f_coeff, g_coeff = compose_coeffs(f2, g2, f1, g1, in_f, in_g)
    return _trusted_hom(spec, source, target, f_coeff or _ZERO, g_coeff or _ZERO)


def is_isomorphism(h: GammaHom) -> bool:
    return h.source == h.target and h.f_coeff != 0


def invert_hom(h: GammaHom) -> GammaHom:
    """Inverse of an endomorphism with invertible f-part.

    (lam + mu g)^(-1) = lam^(-1) - lam^(-2) mu g since g squares to zero.
    """
    if not is_isomorphism(h):
        raise ValueError("morphism is not invertible")
    return _scaled_hom(h.spec, h.source, h.target, scaled_inverse(*scaled(h)))


def radical_degree(h: GammaHom):
    """Distance of the f-part target from the source corner, or infinity.

    Morphisms with zero f-part (including the zero morphism) factor
    through arbitrarily long chains of irreducibles.
    """
    if h.f_coeff == 0:
        return math.inf
    return (h.target.a - h.source.a) + (h.target.b - h.source.b)


def is_irreducible(h: GammaHom) -> bool:
    return radical_degree(h) == 1


def irreducible_targets(spec: AlgebraSpec, v: GammaVertex) -> list[GammaVertex]:
    """Targets of the irreducible morphisms out of ``v``, b-step first."""
    check_vertex(spec, v)
    i, a, b = v
    out = [GammaVertex(i, a, b + 1)]
    if a + 1 <= b + _delta_top(spec, i):
        out.append(GammaVertex(i, a + 1, b))
    return out


def suspend_vertex(spec: AlgebraSpec, v: GammaVertex) -> GammaVertex:
    check_vertex(spec, v)
    i, a, b = v
    return GammaVertex(
        (i + 1) % spec.n, a + 1 + _delta_last(spec, i), b + 1 + _delta_top(spec, i)
    )


def unsuspend_vertex(spec: AlgebraSpec, v: GammaVertex) -> GammaVertex:
    check_vertex(spec, v)
    i, a, b = v
    j = (i - 1) % spec.n
    return GammaVertex(j, a - 1 - _delta_last(spec, j), b - 1 - _delta_top(spec, j))


def _moved(h: GammaHom, move) -> GammaHom:
    """``h`` with both endpoints moved by ``move``; the constructor checks the cones again."""
    spec = h.spec
    return GammaHom(spec, move(spec, h.source), move(spec, h.target), h.f_coeff, h.g_coeff)


def suspend_hom(h: GammaHom) -> GammaHom:
    return _moved(h, suspend_vertex)


def unsuspend_hom(h: GammaHom) -> GammaHom:
    return _moved(h, unsuspend_vertex)


def projective_vertex(spec: AlgebraSpec, j: int) -> GammaVertex:
    """Vertex presenting the indecomposable projective at quiver vertex j.

    >>> [tuple(projective_vertex(AlgebraSpec(2, 1), j)) for j in (-1, 0, 1)]
    [(0, 0, -1), (0, 0, 0), (1, 0, 0)]
    """
    if j not in spec.vertices:
        raise ValueError(f"{j} is not a quiver vertex")
    return GammaVertex(0, 0, j) if j <= 0 else GammaVertex(j, 0, 0)


def is_shifted_projective(spec: AlgebraSpec, v: GammaVertex) -> tuple[int, int] | None:
    """Return (j, t) with v the t-fold suspension of the projective at j.

    Suspension moves a strictly monotonically, and n of them move a and b by
    one period n + m: so a far vertex jumps whole periods to 0 <= a < n + m,
    then walks toward a == 0, to a projective vertex or a proof of none.
    The last test, a = 0 and b <= 0, inverts ``projective_vertex``.

    >>> spec = AlgebraSpec(2, 1)
    >>> is_shifted_projective(spec, suspend_vertex(spec, GammaVertex(0, 0, -1)))
    (-1, 1)
    >>> is_shifted_projective(spec, GammaVertex(0, 0, 1)) is None
    True
    """
    check_vertex(spec, v)
    period = spec.n + spec.m
    whole = v.a // period if abs(v.a) >= period else 0
    cur, t = GammaVertex(v.i, v.a - whole * period, v.b - whole * period), whole * spec.n
    while cur.a > 0:
        cur = unsuspend_vertex(spec, cur)
        t += 1
    while cur.a < 0:
        cur = suspend_vertex(spec, cur)
        t -= 1
    if cur.a == 0 and cur.b <= 0:
        return (cur.b if cur.i == 0 else cur.i, t)
    return None


def theta_vertex(spec: AlgebraSpec, v: GammaVertex) -> Quadruple:
    """The quadruple whose complex realizes the vertex ``v``.

    The two corner coordinates are unrolled along the period m + n into
    quotient/remainder pairs; the five cases distinguish whether each
    remainder falls in the cyclic part or the tail part of the period.
    """
    check_vertex(spec, v)
    n, m = spec.n, spec.m
    period = m + n
    i, a, b = v
    ap = a - i
    bp = b - i + _delta_top(spec, i)
    r = ((ap + n - 1) % period) - (n - 1)
    p = (ap - r) // period
    t = ((bp + n - 1) % period) - (n - 1)
    q = (bp - t) // period
    if r <= 0:
        if t <= -1:
            quad = Quadruple(-q * n - t - i, -t, (q - p) * n + (t - r), -r)
        elif (q - p) * n - r > 0:
            quad = Quadruple(-q * n - i, -m + t, (q - p) * n - r, -r)
        else:
            quad = Quadruple(-q * n - i, -m + t, 0, -m + t)
    else:
        if t <= -1:
            quad = Quadruple(-q * n - t - i, -t, (q - p) * n + t, -m - 1 + r)
        else:
            quad = Quadruple(-q * n - i, -m + t, (q - p) * n, -m - 1 + r)
    if not in_calC(spec, quad):
        raise AssertionError(f"translation left the family: {tuple(v)} -> {tuple(quad)}")
    return quad


@memoized(
    "gamma.theta_hom",
    key=lambda h: (h.spec, h.source, h.target, *h.f_coeff.as_integer_ratio(), *h.g_coeff.as_integer_ratio()),
)
def theta_hom(h: GammaHom) -> ChainMap:
    """Chain-map realization of a morphism, generator by generator.

    Results are memoized per process on the morphism's fields: spec,
    source, target and each coefficient's int numerator and denominator,
    so no lookup hashes a Fraction.  Equal morphisms get the same
    chain map object, whose source and target are the shared complexes
    of ``build_complex``, so callers must not mutate it.
    ``complexes.clear_caches()`` empties the memo.  A coefficient with no
    basis map behind it raises the ValueError of ``phi_map`` or ``psi_map``.
    """
    spec = h.spec
    q_source = theta_vertex(spec, h.source)
    q_target = theta_vertex(spec, h.target)
    total = zero_chain_map(build_complex(spec, q_source), build_complex(spec, q_target))
    if h.f_coeff != 0:
        total = add_chain_maps(total, scale_chain_map(phi_map(spec, q_target, q_source), h.f_coeff))
    if h.g_coeff != 0:
        total = add_chain_maps(total, scale_chain_map(psi_map(spec, q_target, q_source), h.g_coeff))
    return total
