"""Gamma morphisms are validated once, where they enter the package.

Composition, inversion, sums, scaling and the rigidity generators build
their results without re-validation.  These tests rebuild every such
result through the public constructor, compare the operations with
direct formulas over the public constructor, and check that the
boundary still rejects malformed morphisms.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbproj.algebra import AlgebraSpec
from kbproj.gamma import (
    GammaHom,
    GammaVertex,
    gamma_compose,
    gamma_hom_dim,
    hom_add,
    hom_f,
    hom_g,
    hom_scale,
    in_F,
    in_G,
    invert_hom,
    is_vertex,
    radical_degree,
)
from kbproj.rigidity import (
    _generator_hom,
    conjugation_domain,
    construct_conjugation,
    generator_keys,
    identity_data,
    pseudo_identity_from_obj,
    pseudo_identity_to_obj,
    random_pseudo_identity,
)

ALGEBRAS = [AlgebraSpec(1, 0), AlgebraSpec(1, 1), AlgebraSpec(2, 1), AlgebraSpec(3, 2)]
ALGEBRA_IDS = [f"L({s.n},{s.m})" for s in ALGEBRAS]

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_coeffs = coeffs.filter(bool)


def grid(spec: AlgebraSpec, lo: int, hi: int) -> list[GammaVertex]:
    return [
        GammaVertex(i, a, b)
        for i in range(spec.n)
        for a in range(lo, hi + 1)
        for b in range(lo, hi + 1)
        if is_vertex(spec, GammaVertex(i, a, b))
    ]


def assert_rebuilds(h: GammaHom) -> None:
    """h satisfies the invariant the public constructor enforces."""
    assert type(h) is GammaHom
    assert type(h.f_coeff) is Fraction and type(h.g_coeff) is Fraction
    rebuilt = GammaHom(h.spec, h.source, h.target, h.f_coeff, h.g_coeff)
    assert rebuilt == h
    assert hash(rebuilt) == hash(h)


def reference_compose(second: GammaHom, first: GammaHom) -> GammaHom:
    spec, source, target = first.spec, first.source, second.target
    f = first.f_coeff * second.f_coeff if in_F(spec, source, target) else 0
    g = 0
    if in_G(spec, source, target):
        g = first.f_coeff * second.g_coeff + first.g_coeff * second.f_coeff
    return GammaHom(spec, source, target, f, g)


@st.composite
def homs(draw, spec: AlgebraSpec, v: GammaVertex, u: GammaVertex, invertible=False):
    if invertible:
        lam = draw(nonzero_coeffs)
    else:
        lam = draw(coeffs) if in_F(spec, v, u) else Fraction(0)
    mu = draw(coeffs) if in_G(spec, v, u) else Fraction(0)
    return GammaHom(spec, v, u, lam, mu)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gamma_operations_stay_in_normal_form(data):
    spec = data.draw(st.sampled_from(ALGEBRAS))
    vertices = grid(spec, -2, 2)

    def reachable(v: GammaVertex) -> list[GammaVertex]:
        return [u for u in vertices if gamma_hom_dim(spec, v, u)]

    # walk along nonzero hom spaces so that composites exercise both cones
    a = data.draw(st.sampled_from(vertices))
    b = data.draw(st.sampled_from(reachable(a)))
    c = data.draw(st.sampled_from(reachable(b)))
    h1 = data.draw(homs(spec, a, b))
    h1b = data.draw(homs(spec, a, b))
    h2 = data.draw(homs(spec, b, c))
    t = data.draw(st.one_of(coeffs, st.integers(-3, 3)))

    composite = gamma_compose(h2, h1)
    assert_rebuilds(composite)
    assert composite == reference_compose(h2, h1)

    total = hom_add(h1, h1b)
    assert_rebuilds(total)
    assert total == GammaHom(spec, a, b, h1.f_coeff + h1b.f_coeff, h1.g_coeff + h1b.g_coeff)

    scaled = hom_scale(h1, t)
    assert_rebuilds(scaled)
    assert scaled == GammaHom(spec, a, b, t * h1.f_coeff, t * h1.g_coeff)

    unit = data.draw(homs(spec, a, a, invertible=True))
    inverse = invert_hom(unit)
    assert_rebuilds(inverse)
    lam, mu = unit.f_coeff, unit.g_coeff
    assert inverse == GammaHom(spec, a, a, 1 / lam, -mu / lam**2)


windows = st.tuples(
    st.integers(-2, 0), st.integers(0, 2), st.integers(-2, 0), st.integers(0, 2)
)


@settings(max_examples=16, deadline=None)
@given(
    spec=st.sampled_from(ALGEBRAS),
    window=windows,
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_rigidity_generators_and_images_stay_in_normal_form(spec, window, seed):
    for key in generator_keys(spec, conjugation_domain(spec, window)):
        kind, source, target = key
        h = _generator_hom(spec, key)
        assert_rebuilds(h)
        assert h == (hom_f if kind == "f" else hom_g)(spec, source, target)
    data = random_pseudo_identity(spec, window, seed)
    for _, image in data.images:
        assert_rebuilds(image)
    for _, phi in construct_conjugation(data).homs:
        assert_rebuilds(phi)


@pytest.mark.parametrize("spec", ALGEBRAS, ids=ALGEBRA_IDS)
def test_constructor_rejects_non_vertices(spec):
    v = GammaVertex(0, 0, 0)
    for bad in (GammaVertex(spec.n, 0, 0), GammaVertex(-1, 0, 0), GammaVertex(0, spec.m + 1, 0)):
        assert not is_vertex(spec, bad)
        with pytest.raises(ValueError, match="not a vertex"):
            GammaHom(spec, bad, v, Fraction(0), Fraction(0))
        with pytest.raises(ValueError, match="not a vertex"):
            GammaHom(spec, v, bad, Fraction(0), Fraction(0))


def test_constructor_coerces_plain_tuple_endpoints():
    spec = AlgebraSpec(1, 0)
    h = GammaHom(spec, (0, 0, 0), (0, 0, 1), 1, 0)
    assert type(h.source) is GammaVertex and type(h.target) is GammaVertex
    assert h == hom_f(spec, GammaVertex(0, 0, 0), GammaVertex(0, 0, 1))
    assert radical_degree(h) == 1


@pytest.mark.parametrize(
    "bad", [(0, 0), (0, 0, 0, 0), [0, 0, 0], (0, 0.0, 0), (0, "0", 0), (True, 0, 0), None]
)
def test_constructor_rejects_non_triples(bad):
    spec = AlgebraSpec(1, 0)
    v = GammaVertex(0, 0, 0)
    with pytest.raises(ValueError, match="not a vertex triple"):
        GammaHom(spec, bad, v, Fraction(0), Fraction(0))
    with pytest.raises(ValueError, match="not a vertex triple"):
        GammaHom(spec, v, bad, Fraction(0), Fraction(0))


@pytest.mark.parametrize("spec", ALGEBRAS, ids=ALGEBRA_IDS)
def test_constructor_rejects_missing_generators(spec):
    vertices = grid(spec, -2, 2)
    pairs = [(v, u) for v in vertices for u in vertices]
    no_f = [(v, u) for v, u in pairs if not in_F(spec, v, u)]
    no_g = [(v, u) for v, u in pairs if not in_G(spec, v, u)]
    assert no_f and no_g
    for v, u in no_f[::7]:
        with pytest.raises(ValueError, match="no f generator"):
            GammaHom(spec, v, u, Fraction(1, 2), Fraction(0))
        with pytest.raises(ValueError, match="no f generator"):
            hom_f(spec, v, u)
    for v, u in no_g[::7]:
        with pytest.raises(ValueError, match="no g generator"):
            GammaHom(spec, v, u, Fraction(0), Fraction(-3))
        with pytest.raises(ValueError, match="no g generator"):
            hom_g(spec, v, u)


@pytest.mark.parametrize("spec", ALGEBRAS, ids=ALGEBRA_IDS)
def test_loader_rejects_g_coefficient_on_missing_generator(spec):
    window = (-1, 1, -1, 1)
    obj = pseudo_identity_to_obj(identity_data(spec, window))
    item = next(
        item
        for item in obj["images"]
        if not in_G(spec, GammaVertex(*item["source"]), GammaVertex(*item["target"]))
    )
    item["g"] = "1"
    with pytest.raises(ValueError, match="no g generator"):
        pseudo_identity_from_obj(obj)
