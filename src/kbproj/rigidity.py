"""Conjugating automorphisms and connecting-isomorphism normal forms.

A pseudo-identity is an endofunctor datum that fixes every object and
restricts to the identity on shifted projectives.  On a rectangular
coordinate window this module

- validates such data (endpoint preservation, projective fixing, and
  functoriality under composition),
- constructs, vertex by vertex, a family of automorphisms conjugating
  the data back to the identity, following the inductive sweep that
  starts at the projective column and moves right along the bottom
  diagonal and up each column (with a mirrored sweep to the left),
- verifies naturality of the constructed family against every
  generator morphism on the window,
- realizes the standard exact triangle on a vertex V, certifying with
  the chain-level oracle that the cone of the first map is isomorphic
  to the expected third vertex and extracting the nonzero coefficient
  of the connecting map, and
- normalizes connecting-isomorphism data: the coefficient mu_V is
  forced to zero whenever the relevant square-zero generator vanishes
  or the column induction pins it, and in the one remaining family
  (one loop, no relations) an explicit eta family trivializes the
  connecting isomorphism instead.

Claims made by this module:

- construct_conjugation applied to identity data returns the identity
  family exactly, coefficient for coefficient.
- The one seed solve implements both closed forms: a left seed with
  image lam*f + mu*g' yields (1/lam) * id - (mu/lam^2) * g', the inverse
  of lam * id + mu * g', and a right seed yields lam * id + mu * g'.
- standard_triangle only reports nu after the cone certificate holds
  both ways up to homotopy; any nonzero nu is accepted.
- build_eta verifies naturality on all window generators (isomorphisms
  and non-isomorphisms alike) and the telescoping identity that makes
  the corrected connecting isomorphism the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import NamedTuple

from .algebra import AlgebraSpec, memoized
from .complexes import (
    ChainMap,
    ProjComplex,
    _chain_map,
    _check_schema,
    _int_literal,
    _json_ints,
    _schema_header,
    _unit_terms,
    compose_chain_maps,
    cone_maps,
    homotopy_factor,
    homotopy_inverse,
    quotient,
    shift,
)
from .gamma import (
    GammaHom,
    GammaVertex,
    _delta_top,
    _in_F,
    _in_G,
    _scaled_hom,
    check_vertex,
    compose_coeffs,
    gamma_compose,
    hom_f,
    hom_g,
    identity_hom,
    in_F,
    in_G,
    invert_hom,
    is_isomorphism,
    is_shifted_projective,
    normal_triple,
    projective_vertex,
    scaled,
    scaled_inverse,
    suspend_hom,
    suspend_vertex,
    theta_hom,
    theta_vertex,
    unsuspend_hom,
    unsuspend_vertex,
)
from .linalg import exact
from .quadruples import build_complex

Window = tuple[int, int, int, int]


class InvalidPseudoIdentity(ValueError):
    """The data cannot come from a pseudo-identity (a seed solve failed)."""


class TriangleCertificationError(RuntimeError):
    """The chain-level oracle could not certify the standard triangle."""


# -- Windows and generator grids ----------------------------------------------


def check_window(window: Window) -> None:
    a_lo, a_hi, b_lo, b_hi = window
    if a_lo > a_hi or b_lo > b_hi:
        raise ValueError(f"empty window {window}")
    if not (a_lo <= 0 <= a_hi):
        raise ValueError("window must contain the column a = 0")
    if b_hi < 0:
        raise ValueError("window must reach b = 0 where the seeds live")


@memoized("rigidity.conjugation_domain")
def conjugation_domain(spec: AlgebraSpec, window: Window) -> tuple[GammaVertex, ...]:
    """All vertices the conjugation sweep on the window walks through.

    Column a of sheet i runs from its bottom vertex b = a - delta up to
    b_hi.  The bottom may lie below b_lo; those extra vertices are part
    of the domain because every column is seeded through its bottom.
    Columns to the right of b_hi + delta are empty and are skipped.
    """
    check_window(window)
    a_lo, a_hi, b_lo, b_hi = window
    out = []
    for i in range(spec.n):
        delta = _delta_top(spec, i)
        a_cap = min(a_hi, b_hi + delta)
        for a in range(a_lo, a_cap + 1):
            for b in range(a - delta, b_hi + 1):
                out.append(GammaVertex(i, a, b))
    return tuple(sorted(out))


@memoized("rigidity.generator_keys")
def generator_keys(
    spec: AlgebraSpec, vertices: tuple[GammaVertex, ...]
) -> dict[tuple[str, GammaVertex, GammaVertex], tuple[bool, bool]]:
    """Every basis morphism between window vertices, as (kind, source, target), in order.

    Each key maps to its endpoints' cone outcomes (in_F, in_G); the dict is
    shared by every caller, so do not mutate it.
    """
    vset = sorted(vertices)
    for v in vset:
        check_vertex(spec, v)
    out = {}
    for source in vset:
        for target in vset:
            cones = (_in_F(spec, source, target), _in_G(spec, source, target))
            if cones[0]:
                out["f", source, target] = cones
            if cones[1]:
                out["g", source, target] = cones
    return out


# The ``scaled`` triple (F, G, D) of the generator of each kind.
_GENERATORS = {"f": (1, 0, 1), "g": (0, 1, 1)}


def _compose(second: tuple, first: tuple, cones: tuple[bool, bool]) -> tuple[int, int, int]:
    """The triple of ``second after first`` from theirs, over the product of the denominators."""
    f, g = compose_coeffs(second[0], second[1], first[0], first[1], *cones)
    return f, g, second[2] * first[2]


def _generator_hom(spec: AlgebraSpec, key: tuple[str, GammaVertex, GammaVertex]) -> GammaHom:
    """The generator named by a key of generator_keys, which already checked its cone."""
    kind, source, target = key
    return _scaled_hom(spec, source, target, _GENERATORS[kind])


# -- Pseudo-identity data ------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False)
class PseudoIdentityData:
    """Images of all generator morphisms on a rectangular window.

    The morphism grid is the one over conjugation_domain(spec, window);
    the constructor insists on exactly that key set so that the
    inductive construction never runs out of data.  The sweeps read each
    image as its ``scaled`` triple, kept in the order given; ``image`` and
    ``images`` build GammaHoms.  Data are equal when spec, window and
    images, in order, are.
    """

    spec: AlgebraSpec
    window: Window

    def __init__(self, spec: AlgebraSpec, window: Window, images):
        keys = generator_keys(spec, conjugation_domain(spec, window))
        triples = {}
        for key, hom in images:
            kind, source, target = key
            if key not in keys:
                raise ValueError(f"unexpected image key {kind} {tuple(source)} -> {tuple(target)}")
            if key in triples:
                raise ValueError(f"duplicate image key {kind} {tuple(source)} -> {tuple(target)}")
            if hom.spec != spec or hom.source != source or hom.target != target:
                raise ValueError(f"image of {kind} {tuple(source)} -> {tuple(target)} moves endpoints")
            triples[key] = scaled(hom)
        if len(triples) < len(keys):
            raise ValueError(f"missing images for {len(keys) - len(triples)} generators")
        vars(self).update(spec=spec, window=window, _keys=keys, _triples=triples)

    def __eq__(self, other):
        if not isinstance(other, PseudoIdentityData):
            return NotImplemented
        return (self.spec, self.window, list(self._triples.items())) == (
            other.spec, other.window, list(other._triples.items()))

    def __hash__(self):
        return hash((self.spec, self.window))

    def vertices(self) -> tuple[GammaVertex, ...]:
        return conjugation_domain(self.spec, self.window)

    def image(self, kind: str, source: GammaVertex, target: GammaVertex) -> GammaHom:
        return _scaled_hom(self.spec, source, target, self._triples[kind, source, target])

    @cached_property
    def images(self) -> tuple[tuple[tuple[str, GammaVertex, GammaVertex], GammaHom], ...]:
        return tuple((key, self.image(*key)) for key in self._triples)


def _trusted_data(spec: AlgebraSpec, window: Window, keys: dict, triples: dict) -> PseudoIdentityData:
    """PseudoIdentityData from its generator_keys and a normal triple per key; no checks."""
    data = object.__new__(PseudoIdentityData)
    vars(data).update(spec=spec, window=window, _keys=keys, _triples=triples)
    return data


def identity_data(spec: AlgebraSpec, window: Window) -> PseudoIdentityData:
    keys = generator_keys(spec, conjugation_domain(spec, window))
    return _trusted_data(spec, window, keys, {key: _GENERATORS[key[0]] for key in keys})


def conjugation_data(
    spec: AlgebraSpec, window: Window, unit_family: dict[GammaVertex, GammaHom]
) -> PseudoIdentityData:
    """The functor h |-> psi_target o h o psi_source^(-1) for a unit family psi.

    Valid pseudo-identity data as soon as the family is the identity on
    every shifted-projective vertex.  Each image is composed on the
    ``scaled`` triples of the two family entries, over the product of
    their denominators, and brought to normal form.
    """
    domain = conjugation_domain(spec, window)
    units = {}
    for v in domain:
        h = unit_family[v]
        if h.spec != spec or h.source != v or not is_isomorphism(h):
            raise ValueError("the unit family has an entry that is not an automorphism of its vertex")
        units[v] = scaled(h)
    inverses = {v: scaled_inverse(*triple) for v, triple in units.items()}
    keys = generator_keys(spec, domain)
    triples = {}
    for key, (in_f, in_g) in keys.items():
        kind, source, target = key
        fi, gi, di = inverses[source]
        fu, gu, du = units[target]
        f, g, _ = _GENERATORS[kind]
        f, g = compose_coeffs(f, g, fi, gi, in_f, in_g)
        f, g = compose_coeffs(fu, gu, f, g, in_f, in_g)
        triples[key] = normal_triple(f, g, du * di)
    return _trusted_data(spec, window, keys, triples)


def _random_fraction(rng: Random, nonzero: bool) -> Fraction:
    den = rng.randint(1, 3)
    num = rng.randint(-3 * den, 3 * den)
    while nonzero and num == 0:
        num = rng.randint(-3 * den, 3 * den)
    return Fraction(num, den)


def random_unit_family(
    spec: AlgebraSpec, vertices: tuple[GammaVertex, ...], rng: Random
) -> dict[GammaVertex, GammaHom]:
    """A deterministic random automorphism at each vertex, id on shifted projectives."""
    family = {}
    for v in sorted(vertices):
        if is_shifted_projective(spec, v) is not None:
            family[v] = identity_hom(spec, v)
            continue
        lam = _random_fraction(rng, nonzero=True)
        mu = _random_fraction(rng, nonzero=False) if in_G(spec, v, v) else Fraction(0)
        family[v] = GammaHom(spec, v, v, lam, mu)
    return family


def random_pseudo_identity(spec: AlgebraSpec, window: Window, seed: int) -> PseudoIdentityData:
    """Seeded valid data: conjugation by a random unit family."""
    domain = conjugation_domain(spec, window)
    return conjugation_data(spec, window, random_unit_family(spec, domain, Random(seed)))


def validate_pseudo_identity(F: PseudoIdentityData) -> list[str]:
    """All invariant violations on the window; an empty list means valid.

    Checks that morphisms between shifted-projective vertices are fixed
    and that the images respect composition on every composable pair of
    window generators.  The composite of two generators is one generator
    or zero, so each pair compares F of it with the product of the images.
    Images are read as their stored triples, and two sides are compared
    by cross-multiplying their denominators.
    """
    spec = F.spec
    problems = []
    keys = F._keys
    image = F._triples
    projective = {v for v in F.vertices() if is_shifted_projective(spec, v) is not None}
    outgoing: dict[GammaVertex, list[tuple[str, GammaVertex, GammaVertex]]] = {}
    for key in keys:
        outgoing.setdefault(key[1], []).append(key)
        kind, source, target = key
        if source in projective and target in projective and image[key] != _GENERATORS[kind]:
            problems.append(
                f"{kind} {tuple(source)} -> {tuple(target)} between shifted projectives is moved"
            )
    # the cone outcomes of each pair of endpoints that some generator joins
    cones = {(source, target): flags for (_, source, target), flags in keys.items()}
    for first_key in keys:
        kind1, source, middle = first_key
        for second_key in outgoing.get(middle, ()):
            kind2, _, target = second_key
            cone = cones.get((source, target))
            if cone is None:
                continue  # no generator joins source to target: both sides are zero
            rf, rg, d = _compose(image[second_key], image[first_key], cone)
            kind = "f" if kind1 == kind2 == "f" else "g" if kind1 != kind2 else None
            lf, lg, dl = image.get((kind, source, target), (0, 0, 1))
            if rf * dl != lf * d or rg * dl != lg * d:
                problems.append(
                    f"composition broken: {kind2} after {kind1} from "
                    f"{tuple(source)} via {tuple(middle)} to {tuple(target)}"
                )
    return problems


# -- The conjugating family ----------------------------------------------------


@dataclass(frozen=True)
class AutomorphismFamily:
    """One automorphism per vertex, indexed for mapping-style access."""

    spec: AlgebraSpec
    homs: tuple[tuple[GammaVertex, GammaHom], ...]

    def __post_init__(self):
        index = {}
        for vertex, hom in self.homs:
            check_vertex(self.spec, vertex)
            if hom.spec != self.spec or hom.source != vertex or hom.target != vertex:
                raise ValueError(f"family entry at {tuple(vertex)} is not an endomorphism")
            if not is_isomorphism(hom):
                raise ValueError(f"family entry at {tuple(vertex)} is not invertible")
            if vertex in index:
                raise ValueError(f"duplicate family vertex {tuple(vertex)}")
            index[vertex] = hom
        object.__setattr__(self, "_index", index)

    def __getitem__(self, vertex: GammaVertex) -> GammaHom:
        return self._index[vertex]


def identity_family(spec: AlgebraSpec, vertices: tuple[GammaVertex, ...]) -> AutomorphismFamily:
    return AutomorphismFamily(spec, tuple((v, identity_hom(spec, v)) for v in sorted(vertices)))


def _seed(
    F: PseudoIdentityData, phi: dict, source: GammaVertex, target: GammaVertex, left: bool
) -> None:
    """Solve phi_target o F(f) o phi_source^(-1) = f for the f generator source -> target.

    The unknown automorphism sits at the target when ``left`` holds and
    at the source otherwise, and is stored in ``phi`` as a normal
    ``scaled`` triple.  The known side gives y = lam*f + mu*g' as a
    triple (F, G, D): F(f) o phi_source^(-1) (left) or phi_target o F(f)
    (right), composed under the cones of source -> target.  The solution
    is lam * id + mu * g', that is (F, G, D) in normal form, and in the
    left case its inverse (D*F, -G*D, F**2), from ``scaled_inverse``.
    """
    key = ("f", source, target)
    cones, image = F._keys[key], F._triples[key]
    at = target if left else source
    if left:
        y = _compose(image, scaled_inverse(*phi[source]), cones)
    else:
        y = _compose(phi[target], image, cones)
    if y[0] == 0:
        raise InvalidPseudoIdentity(
            f"image of f {tuple(source)} -> {tuple(target)} lost its leading part"
        )
    if y[1] and not _in_G(F.spec, at, at):
        raise InvalidPseudoIdentity(f"no g generator {tuple(at)} -> {tuple(at)}")
    candidate = normal_triple(*y)
    inverse = scaled_inverse(*candidate)
    f, g, d = _compose(inverse, y, cones) if left else _compose(y, inverse, cones)
    if f != d or g:
        raise InvalidPseudoIdentity(
            f"seed solve failed at {tuple(at)} (image of f {tuple(source)} -> {tuple(target)})"
        )
    phi[at] = inverse if left else candidate


def construct_conjugation(F: PseudoIdentityData) -> AutomorphismFamily:
    """The inductive family phi with phi_U o F(f_{U,V}) = f_{U,V} o phi_V.

    Starts from the identity at each ``projective_vertex``, walks up the
    column a = 0, seeds each column to the right through the bottom
    diagonal and walks it up, then mirrors the sweep to the left of the
    projectives (bottom and next-to-bottom seeds first, then up).  The
    sweep runs on triples; each entry becomes a GammaHom once, at the end.
    Identity data produces the identity family exactly.
    """
    spec = F.spec
    a_lo, a_hi, b_lo, b_hi = F.window
    phi = {projective_vertex(spec, j): _GENERATORS["f"] for j in spec.vertices}
    for i in range(spec.n):
        delta = _delta_top(spec, i)
        for b in range(0, b_hi):
            _seed(F, phi, GammaVertex(i, 0, b), GammaVertex(i, 0, b + 1), left=True)
        for a in range(0, min(a_hi, b_hi + delta)):
            bottom = GammaVertex(i, a + 1, a + 1 - delta)
            _seed(F, phi, GammaVertex(i, a, a + 1 - delta), bottom, left=True)
            for b in range(a + 1 - delta, b_hi):
                _seed(F, phi, GammaVertex(i, a + 1, b), GammaVertex(i, a + 1, b + 1), left=True)
        for a in range(-1, a_lo - 1, -1):
            below = GammaVertex(i, a, a + 1 - delta)
            _seed(F, phi, below, GammaVertex(i, a + 1, a + 1 - delta), left=False)
            _seed(F, phi, GammaVertex(i, a, a - delta), below, left=False)
            for b in range(a + 1 - delta, b_hi):
                _seed(F, phi, GammaVertex(i, a, b), GammaVertex(i, a, b + 1), left=True)
    family = sorted(phi.items())
    return AutomorphismFamily(spec, tuple((v, _scaled_hom(spec, v, v, t)) for v, t in family))


class NaturalityCounterexample(NamedTuple):
    kind: str
    source: GammaVertex
    target: GammaVertex
    lhs: GammaHom
    rhs: GammaHom


def _unnatural(keys: dict, entries: dict, images: dict):
    """Each key U -> V of ``keys``, in order, with entries[V] o images[key] != key o entries[U].

    ``keys`` is a ``generator_keys`` dict, and ``entries`` and ``images``
    hold ``scaled`` triples; both sides are composed with
    ``compose_coeffs`` and compared by cross-multiplying.
    """
    for key, (in_f, in_g) in keys.items():
        kind, source, target = key
        fi, gi, di = images[key]
        fa, ga, da = entries[target]
        fb, gb, db = entries[source]
        gen_f, gen_g, _ = _GENERATORS[kind]
        lf, lg = compose_coeffs(fa, ga, fi, gi, in_f, in_g)
        rf, rg = compose_coeffs(gen_f, gen_g, fb, gb, in_f, in_g)
        d = da * di
        if lf * db != rf * d or lg * db != rg * d:
            yield key


def verify_naturality(
    phi: AutomorphismFamily, F: PseudoIdentityData
) -> NaturalityCounterexample | None:
    """First generator with phi_U o F(h) != h o phi_V, or None when natural.

    The family entries are scaled once each and swept by ``_unnatural``
    against the stored image triples; the counterexample is composed with
    ``gamma_compose``.
    ValueError when phi is over another algebra or misses a data vertex.
    """
    spec = F.spec
    if phi.spec != spec:
        raise ValueError("morphisms from different algebras")
    family = phi._index
    for v in F.vertices():
        if v not in family:
            raise ValueError(f"family has no automorphism at {tuple(v)}")
    entries = {v: scaled(family[v]) for v in F.vertices()}
    key = next(_unnatural(F._keys, entries, F._triples), None)
    if key is None:
        return None
    kind, source, target = key
    lhs = gamma_compose(family[target], F.image(*key))
    rhs = gamma_compose(_generator_hom(spec, key), family[source])
    return NaturalityCounterexample(kind, source, target, lhs, rhs)


# -- The standard triangle -----------------------------------------------------


class TriangleCertificate(NamedTuple):
    cone: ProjComplex
    fill_in: ChainMap
    inverse: ChainMap
    connecting: ChainMap


class StandardTriangle(NamedTuple):
    middle: GammaVertex
    cone_vertex: GammaVertex
    nu: Fraction
    certificate: TriangleCertificate


def _suspension_comparison(spec: AlgebraSpec, v: GammaVertex) -> ChainMap:
    """The alternating-sign isomorphism Theta(suspension of v) -> shift(Theta(v), 1)."""
    shifted = shift(build_complex(spec, theta_vertex(spec, v)), 1)
    suspended = build_complex(spec, theta_vertex(spec, suspend_vertex(spec, v)))
    signs = _unit_terms(suspended.summands, lambda i: -1 if i % 2 else 1)
    return _chain_map(suspended, shifted, signs)


def standard_triangle(spec: AlgebraSpec, v: GammaVertex) -> StandardTriangle:
    """The exact triangle V -> U -> W -> suspension of V on the vertex grid.

    U raises b by one and W, the mouth of row b + 1, is the bottom of column b + 1 + delta.  The
    composite of the two f generators is zero, and the cone of the first
    chain map is certified isomorphic to the complex of W: the fill-in that
    ``homotopy_factor`` finds through the second is nonzero and has a
    ``homotopy_inverse``.  The connecting morphism is expressed through the
    basis morphisms into the suspension; its g coefficient nu is returned
    and is nonzero.
    """
    check_vertex(spec, v)
    i, a, b = v
    delta = _delta_top(spec, i)
    u = GammaVertex(i, a, b + 1)
    w = GammaVertex(i, b + 1 + delta, b + 1)
    sv = suspend_vertex(spec, v)
    if not gamma_compose(hom_f(spec, u, w), hom_f(spec, v, u)).is_zero():
        raise TriangleCertificationError(f"triangle composite at {tuple(v)} is not zero")
    if not in_G(spec, w, sv):
        raise TriangleCertificationError(f"no connecting generator at {tuple(v)}")

    first = theta_hom(hom_f(spec, v, u))
    second = theta_hom(hom_f(spec, u, w))
    inclusion, projection = cone_maps(first)
    fill_in = homotopy_factor(second, inclusion)
    if fill_in is None:
        raise TriangleCertificationError(f"no fill-in map onto the cone at {tuple(v)}")
    if fill_in.is_zero():
        raise TriangleCertificationError(f"fill-in map vanishes at {tuple(v)}")
    inverse = homotopy_inverse(fill_in)
    if inverse is None:
        raise TriangleCertificationError(f"fill-in map is not invertible at {tuple(v)}")

    connecting = compose_chain_maps(projection, fill_in)
    comparison = _suspension_comparison(spec, v)
    generators = []
    psi_index = 0
    if in_F(spec, w, sv):
        generators.append(compose_chain_maps(comparison, theta_hom(hom_f(spec, w, sv))))
        psi_index = 1
    generators.append(compose_chain_maps(comparison, theta_hom(hom_g(spec, w, sv))))
    expansion = quotient(connecting.source, connecting.target).solve(generators, connecting)
    if expansion is None:
        raise TriangleCertificationError(f"connecting map escapes the basis at {tuple(v)}")
    nu = expansion.get(psi_index, Fraction(0))
    if nu == 0:
        raise TriangleCertificationError(f"connecting coefficient vanishes at {tuple(v)}")
    certificate = TriangleCertificate(inclusion.target, fill_in, inverse, connecting)
    return StandardTriangle(u, w, nu, certificate)


# -- Connecting-isomorphism data ------------------------------------------------


@dataclass(frozen=True)
class ConnectingIsoData:
    """Coefficients mu_V of connecting isomorphisms id + mu_V g' at each suspension."""

    spec: AlgebraSpec
    entries: tuple[tuple[GammaVertex, Fraction], ...]

    def __post_init__(self):
        index = {}
        for vertex, mu in self.entries:
            check_vertex(self.spec, vertex)
            if vertex in index:
                raise ValueError(f"duplicate vertex {tuple(vertex)}")
            index[vertex] = Fraction(exact(mu))
        object.__setattr__(self, "_index", index)

    def vertices(self) -> tuple[GammaVertex, ...]:
        return tuple(v for v, _ in self.entries)

    def mu(self, vertex: GammaVertex) -> Fraction:
        return self._index[vertex]

    def omega_hom(self, vertex: GammaVertex) -> GammaHom:
        """The automorphism id + mu_V g' living at the suspension of the vertex."""
        sv = suspend_vertex(self.spec, vertex)
        return GammaHom(self.spec, sv, sv, Fraction(1), self._index[vertex])


def random_connecting_iso(
    spec: AlgebraSpec, vertices: tuple[GammaVertex, ...], seed: int
) -> ConnectingIsoData:
    rng = Random(seed)
    entries = tuple((v, _random_fraction(rng, nonzero=False)) for v in sorted(vertices))
    return ConnectingIsoData(spec, entries)


class ConisoReport(NamedTuple):
    forced: tuple[tuple[GammaVertex, Fraction], ...]
    free: tuple[GammaVertex, ...]
    conflicts: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.conflicts


def coniso_normal_form(spec: AlgebraSpec, omega: ConnectingIsoData) -> ConisoReport:
    """Which connecting coefficients the category structure pins down.

    With more than one loop the square-zero generator at a suspension
    never survives, so every mu_V is forced to zero and nonzero data is
    rejected.  With one loop and relations the column induction forces
    mu_V = 0: the bottom vertex has no surviving generator, and each
    step up the column transports the coefficient along the vertical
    generator, which is nonzero there.  With one loop and no relations
    nothing is forced and the data is deferred to build_eta.  ValueError
    when omega is over another algebra.
    """
    if omega.spec != spec:
        raise ValueError("connecting data from a different algebra")
    forced = []
    free = []
    conflicts = []
    for vertex in omega.vertices():
        sv = suspend_vertex(spec, vertex)
        if not in_G(spec, sv, sv):
            reason = "multiplies a vanishing generator and must be 0"
        elif spec.n == 1 and spec.m > 0:
            reason = "is forced to 0 by the column induction"
        else:
            free.append(vertex)
            continue
        forced.append((vertex, Fraction(0)))
        if omega.mu(vertex) != 0:
            conflicts.append(f"mu at {tuple(vertex)} {reason}")
    return ConisoReport(tuple(forced), tuple(free), tuple(conflicts))


def eta_domain(spec: AlgebraSpec, window: Window) -> tuple[GammaVertex, ...]:
    """The window vertices together with their suspension orbits down to a = 0."""
    if spec.n != 1 or spec.m != 0:
        raise ValueError("eta families only exist for one loop and no relations")
    a_lo, a_hi, b_lo, b_hi = window
    out = set()
    for a in range(a_lo, a_hi + 1):
        s = (a > 0) - (a < 0)  # each suspension step moves a and b by -s
        for b in range(max(a, b_lo), b_hi + 1):
            out.update(GammaVertex(0, a - s * j, b - s * j) for j in range(abs(a) + 1))
    return tuple(sorted(out))


def build_eta(spec: AlgebraSpec, omega: ConnectingIsoData) -> AutomorphismFamily:
    """The eta family trivializing a connecting isomorphism for one loop, no relations.

    eta is the identity on the column a = 0 and is built out along
    suspension orbits in order of |a|, each entry from the one a step nearer
    a = 0: suspending its eta and composing with omega above, the inverse
    recipe below.  Naturality against every generator between data vertices
    and the telescoping identity (suspended eta, then omega, then the
    inverse of eta at the suspension composing to the identity) are verified
    before the family is returned.  ValueError on omega over another algebra.
    """
    if spec.n != 1 or spec.m != 0:
        raise ValueError("eta families only exist for one loop and no relations")
    if omega.spec != spec:
        raise ValueError("connecting data from a different algebra")
    domain = omega.vertices()
    eta: dict[GammaVertex, GammaHom] = {}
    for vertex in sorted(domain, key=lambda v: abs(v.a)):
        near = unsuspend_vertex(spec, vertex) if vertex.a > 0 else suspend_vertex(spec, vertex)
        if vertex.a == 0:
            eta[vertex] = identity_hom(spec, vertex)
        elif near not in eta:
            raise ValueError(f"data window is not closed under suspension at {tuple(near)}")
        elif vertex.a > 0:
            eta[vertex] = gamma_compose(suspend_hom(eta[near]), omega.omega_hom(near))
        else:
            inverse = invert_hom(omega.omega_hom(vertex))
            eta[vertex] = unsuspend_hom(gamma_compose(eta[near], inverse))
    entries = {v: scaled(h) for v, h in eta.items()}
    keys = generator_keys(spec, domain)
    generators = {key: _GENERATORS[key[0]] for key in keys}
    for kind, source, target in _unnatural(keys, entries, generators):
        raise ValueError(f"eta is not natural at {kind} {tuple(source)} -> {tuple(target)}")
    for vertex in domain:
        sv = suspend_vertex(spec, vertex)
        if sv not in eta:
            continue
        corrected = gamma_compose(
            suspend_hom(eta[vertex]),
            gamma_compose(omega.omega_hom(vertex), invert_hom(eta[sv])),
        )
        if corrected != identity_hom(spec, sv):
            raise ValueError(f"corrected connecting map at {tuple(vertex)} is not the identity")
    return AutomorphismFamily(spec, tuple(sorted(eta.items())))


# -- Serialization ---------------------------------------------------------------


def _vertex_obj(v: GammaVertex) -> list[int]:
    return [v.i, v.a, v.b]


def pseudo_identity_to_obj(F: PseudoIdentityData) -> dict:
    return {
        **_schema_header(F.spec),
        "window": list(F.window),
        "images": [
            {"kind": kind, "source": _vertex_obj(source), "target": _vertex_obj(target),
             "f": str(hom.f_coeff), "g": str(hom.g_coeff)}
            for (kind, source, target), hom in F.images
        ],
    }


def _json_coeff(x) -> Fraction:
    """A JSON integer, or a Fraction string as ``pseudo_identity_to_obj`` writes
    it: ASCII digits with an optional sign, then optionally a slash and ASCII
    digits, each part read by ``_int_literal``."""
    if isinstance(x, str) and not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x):
        raise ValueError(f"coefficient {x!r} is not a fraction written in ASCII digits")
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(*(_int_literal(part, "coefficient") for part in x.split("/")))
    raise TypeError(f"coefficient {x!r} is neither a Fraction string nor an integer")


def pseudo_identity_from_obj(obj: dict) -> PseudoIdentityData:
    """The data stored in obj; ValueError on anything malformed."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    _check_schema(obj)
    try:
        spec = AlgebraSpec(*_json_ints(obj["algebra"], "algebra parameter", 2))
        window = _json_ints(obj["window"], "window bound", 4)
        images = []
        for item in obj["images"]:
            source = GammaVertex(*_json_ints(item["source"], "vertex coordinate"))
            target = GammaVertex(*_json_ints(item["target"], "vertex coordinate"))
            hom = GammaHom(spec, source, target, _json_coeff(item["f"]), _json_coeff(item["g"]))
            images.append(((item["kind"], source, target), hom))
        return PseudoIdentityData(spec, window, tuple(images))
    except (AttributeError, IndexError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from None


def family_to_obj(family: AutomorphismFamily) -> dict:
    return {
        **_schema_header(family.spec),
        "homs": [
            {"vertex": _vertex_obj(v), "f": str(h.f_coeff), "g": str(h.g_coeff)}
            for v, h in family.homs
        ],
    }
