"""Conjugation construction, standard triangles, connecting normalization."""

from __future__ import annotations

import fractions
import json
import re
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALGEBRA_PARAMS
from kbproj import gamma, rigidity
from kbproj.algebra import AlgebraSpec
from kbproj.complexes import (
    add_chain_maps,
    compose_chain_maps,
    identity_chain_map,
    is_null_homotopic,
    scale_chain_map,
    validate_chain_map,
    validate_complex,
)
from kbproj.gamma import (
    GammaHom,
    GammaVertex,
    gamma_compose,
    identity_hom,
    in_G,
    invert_hom,
    projective_vertex,
    scaled,
    suspend_vertex,
)
from kbproj.rigidity import (
    AutomorphismFamily,
    ConnectingIsoData,
    InvalidPseudoIdentity,
    PseudoIdentityData,
    build_eta,
    coniso_normal_form,
    conjugation_data,
    conjugation_domain,
    construct_conjugation,
    eta_domain,
    generator_keys,
    identity_data,
    identity_family,
    pseudo_identity_from_obj,
    pseudo_identity_to_obj,
    random_connecting_iso,
    random_pseudo_identity,
    random_unit_family,
    standard_triangle,
    validate_pseudo_identity,
    verify_naturality,
)

WINDOW = (-2, 2, -2, 2)


def test_domain_covers_window_with_seeding_pads(spec):
    vertices = conjugation_domain(spec, WINDOW)
    assert len(set(vertices)) == len(vertices)
    for i in range(spec.n):
        delta = spec.m if i == 0 else 0
        for a in range(-2, 3):
            for b in range(-2, 3):
                if a <= b + delta:
                    assert GammaVertex(i, a, b) in vertices


def test_trusted_data_holds_the_memoized_generator_keys(spec):
    keys = generator_keys(spec, conjugation_domain(spec, WINDOW))
    for data in (identity_data(spec, WINDOW), random_pseudo_identity(spec, WINDOW, 5)):
        assert vars(data)["_keys"] is keys
        assert data._keys is keys


def test_conjugation_is_the_identity_at_every_projective(spec):
    for seed in range(3):
        phi = construct_conjugation(random_pseudo_identity(spec, WINDOW, seed))
        for j in spec.vertices:
            v = projective_vertex(spec, j)
            assert phi[v] == identity_hom(spec, v)


def test_identity_data_passes_validation(spec):
    data = identity_data(spec, WINDOW)
    assert validate_pseudo_identity(data) == []


def test_identity_data_conjugates_to_identity(spec):
    data = identity_data(spec, WINDOW)
    family = construct_conjugation(data)
    assert family == identity_family(spec, data.vertices())
    assert verify_naturality(family, data) is None


def test_random_instances_construct_and_verify(spec):
    for seed in range(5):
        data = random_pseudo_identity(spec, WINDOW, seed)
        assert validate_pseudo_identity(data) == []
        family = construct_conjugation(data)
        assert verify_naturality(family, data) is None


def test_conjugation_round_trip(spec):
    unit = random_unit_family(spec, conjugation_domain(spec, WINDOW), Random(11))
    data = conjugation_data(spec, WINDOW, unit)
    assert validate_pseudo_identity(data) == []
    family = construct_conjugation(data)
    assert verify_naturality(family, data) is None
    # the witness inverts the conjugating family; for the bare loop the
    # square-zero directions are central, so only the unit parts are pinned
    for v in data.vertices():
        if spec.n == 1 and spec.m == 0:
            assert family[v].f_coeff == invert_hom(unit[v]).f_coeff
        else:
            assert family[v] == invert_hom(unit[v])


def test_built_data_equals_the_checked_constructor_image_by_image(spec):
    window = (-3, 3, -3, 3)
    unit = random_unit_family(spec, conjugation_domain(spec, window), Random(5))
    for built in (conjugation_data(spec, window, unit), identity_data(spec, window)):
        checked = PseudoIdentityData(spec, window, built.images)
        assert built == checked
        assert list(built._triples) == list(checked._triples) == list(generator_keys(spec, built.vertices()))
        for key, hom in checked.images:
            assert built.image(*key) == hom
            assert built._triples[key] == checked._triples[key] == scaled(hom)
            assert type(built.image(*key).f_coeff) is type(built.image(*key).g_coeff) is Fraction
        assert built.vertices() == checked.vertices() == conjugation_domain(spec, window)
        assert pseudo_identity_to_obj(built) == pseudo_identity_to_obj(checked)


def test_validation_catches_moved_endpoints():
    spec = AlgebraSpec(2, 1)
    data = identity_data(spec, WINDOW)
    images = []
    for (kind, s, t), h in zip(
        generator_keys(spec, data.vertices()),
        (data.image(kind, s, t) for kind, s, t in generator_keys(spec, data.vertices())),
    ):
        images.append(((kind, s, t), h))
    # poison one identity image at a shifted projective with a scalar
    poisoned = []
    changed = False
    for key, h in images:
        kind, s, t = key
        if not changed and s == t and kind == "f":
            poisoned.append((key, GammaHom(spec, s, t, Fraction(2), h.g_coeff)))
            changed = True
        else:
            poisoned.append((key, h))
    assert changed
    bad = PseudoIdentityData(spec, WINDOW, tuple(poisoned))
    assert validate_pseudo_identity(bad) != []


def test_validation_catches_broken_functoriality():
    spec = AlgebraSpec(2, 1)
    rng_data = random_pseudo_identity(spec, WINDOW, 3)
    images = list(rng_data.images)
    # scale one non-identity image so some composite no longer matches
    for idx, (key, h) in enumerate(images):
        kind, s, t = key
        if s != t and h.f_coeff:
            images[idx] = (key, GammaHom(spec, s, t, h.f_coeff * 7, h.g_coeff))
            break
    bad = PseudoIdentityData(spec, WINDOW, tuple(images))
    assert validate_pseudo_identity(bad) != []


def test_data_rejects_wrong_key_set():
    spec = AlgebraSpec(2, 1)
    data = identity_data(spec, WINDOW)
    with pytest.raises(ValueError):
        PseudoIdentityData(spec, WINDOW, data.images[:-1])


def test_data_rejects_an_image_that_moves_endpoints():
    spec = AlgebraSpec(1, 0)
    data = identity_data(spec, (0, 0, 0, 1))
    key = ("f", GammaVertex(0, 0, 0), GammaVertex(0, 0, 1))
    images = tuple((k, identity_hom(spec, k[1]) if k == key else h) for k, h in data.images)
    with pytest.raises(ValueError) as raised:
        PseudoIdentityData(spec, data.window, images)
    assert str(raised.value) == "image of f (0, 0, 0) -> (0, 0, 1) moves endpoints"


def test_zero_coefficient_data_is_rejected():
    spec = AlgebraSpec(2, 1)
    data = identity_data(spec, WINDOW)
    images = []
    for key, h in data.images:
        kind, s, t = key
        if s != t:
            images.append((key, GammaHom(spec, s, t, Fraction(0), h.g_coeff)))
        else:
            images.append((key, h))
    bad = PseudoIdentityData(spec, WINDOW, tuple(images))
    with pytest.raises(InvalidPseudoIdentity) as exc:
        construct_conjugation(bad)
    assert str(exc.value) == "image of f (0, 0, 0) -> (0, 0, 1) lost its leading part"


def _with_image(data: PseudoIdentityData, key, f_coeff, g_coeff) -> PseudoIdentityData:
    """The data with the image of one generator key replaced."""
    spec = data.spec
    images = tuple(
        (k, GammaHom(spec, k[1], k[2], f_coeff, g_coeff) if k == key else h)
        for k, h in data.images
    )
    return PseudoIdentityData(spec, data.window, images)


@pytest.mark.parametrize(
    "source, target, f_coeff, g_coeff, message",
    [
        # a left seed walks up the projective column; its unknown is at the target
        ((0, 0, 0), (0, 0, 1), 0, 0, "image of f (0, 0, 0) -> (0, 0, 1) lost its leading part"),
        ((0, 0, 0), (0, 1, 0), 1, 1, "no g generator (0, 1, 0) -> (0, 1, 0)"),
        # a right seed starts a column left of the projectives; its unknown is at the source
        ((0, -1, -1), (0, 0, -1), 0, 0, "image of f (0, -1, -1) -> (0, 0, -1) lost its leading part"),
        ((0, -1, -2), (0, -1, -1), 1, 1, "no g generator (0, -1, -2) -> (0, -1, -2)"),
    ],
    ids=["left-leading", "left-no-g", "right-leading", "right-no-g"],
)
def test_seed_failures_are_pinned(source, target, f_coeff, g_coeff, message):
    spec = AlgebraSpec(1, 1)
    key = ("f", GammaVertex(*source), GammaVertex(*target))
    bad = _with_image(identity_data(spec, WINDOW), key, f_coeff, g_coeff)
    with pytest.raises(InvalidPseudoIdentity) as exc:
        construct_conjugation(bad)
    assert str(exc.value) == message


def test_serialization_round_trip(spec):
    data = random_pseudo_identity(spec, WINDOW, 5)
    obj = pseudo_identity_to_obj(data)
    again = pseudo_identity_from_obj(obj)
    assert again == data
    assert pseudo_identity_to_obj(again) == obj


def test_standard_triangle_examples():
    loop = AlgebraSpec(1, 0)
    tri = standard_triangle(loop, GammaVertex(0, 0, 0))
    assert tri.middle == GammaVertex(0, 0, 1)
    assert tri.cone_vertex == GammaVertex(0, 1, 1)
    assert tri.nu == Fraction(-1)
    spec = AlgebraSpec(2, 1)
    tri = standard_triangle(spec, GammaVertex(0, 0, -1))
    assert tri.middle == GammaVertex(0, 0, 0)
    assert tri.cone_vertex == GammaVertex(0, 1, 0)
    assert tri.nu == Fraction(-1)


def test_standard_triangle_certificates(spec):
    vertices = [
        GammaVertex(i, a, b)
        for i in range(spec.n)
        for a in range(-1, 2)
        for b in range(-1, 2)
        if a <= b + (spec.m if i == 0 else 0)
    ]
    for v in vertices:
        tri = standard_triangle(spec, v)
        assert tri.nu != 0
        cert = tri.certificate
        assert validate_complex(cert.cone) is None
        assert validate_chain_map(cert.fill_in) is None
        assert validate_chain_map(cert.inverse) is None
        round_trip = compose_chain_maps(cert.fill_in, cert.inverse)
        ident = identity_chain_map(cert.cone)
        assert is_null_homotopic(
            add_chain_maps(round_trip, scale_chain_map(ident, -1))
        )


def test_triangle_composite_vanishes_in_gamma(spec):
    for a in range(-1, 2):
        v = GammaVertex(0, a, a)
        tri = standard_triangle(spec, v)
        first = GammaHom(spec, v, tri.middle, Fraction(1), Fraction(0))
        second = GammaHom(spec, tri.middle, tri.cone_vertex, Fraction(1), Fraction(0))
        assert gamma_compose(second, first).f_coeff == 0


def test_coniso_forced_to_zero_with_several_loops():
    spec = AlgebraSpec(2, 1)
    vertices = conjugation_domain(spec, WINDOW)
    zero = ConnectingIsoData(spec, tuple((v, Fraction(0)) for v in vertices))
    report = coniso_normal_form(spec, zero)
    assert report.ok
    assert not report.free
    poisoned = ConnectingIsoData(
        spec, ((vertices[0], Fraction(1)),) + tuple((v, Fraction(0)) for v in vertices[1:])
    )
    assert not coniso_normal_form(spec, poisoned).ok


def test_coniso_forced_by_column_induction():
    spec = AlgebraSpec(1, 2)
    vertices = conjugation_domain(spec, WINDOW)
    live = [v for v in vertices if in_G(spec, suspend_vertex(spec, v), suspend_vertex(spec, v))]
    assert live  # the band-like generators exist, yet every coefficient is pinned
    data = random_connecting_iso(spec, tuple(vertices), 2)
    report = coniso_normal_form(spec, data)
    assert not report.free
    if any(data.mu(v) != 0 for v in vertices):
        assert not report.ok


@pytest.mark.parametrize(
    "n, m, vertex, conflict",
    [
        (2, 1, (0, -2, -3), "mu at (0, -2, -3) multiplies a vanishing generator and must be 0"),
        (1, 2, (0, -2, -2), "mu at (0, -2, -2) is forced to 0 by the column induction"),
    ],
)
def test_coniso_conflict_lines_are_pinned(n, m, vertex, conflict):
    spec = AlgebraSpec(n, m)
    vertices = conjugation_domain(spec, WINDOW)
    omega = ConnectingIsoData(
        spec, tuple((v, Fraction(1) if v == vertex else Fraction(0)) for v in vertices)
    )
    report = coniso_normal_form(spec, omega)
    assert report.conflicts == (conflict,)
    assert report.forced == tuple((v, Fraction(0)) for v in vertices)
    assert not report.free


def test_coniso_free_for_the_loop():
    spec = AlgebraSpec(1, 0)
    vertices = conjugation_domain(spec, (-1, 1, -1, 1))
    data = random_connecting_iso(spec, tuple(vertices), 4)
    report = coniso_normal_form(spec, data)
    assert report.ok
    assert set(report.free) == set(vertices)


def reference_eta_domain(window):
    """eta_domain on L(1, 0), walking each orbit one suspension step at a time."""
    a_lo, a_hi, b_lo, b_hi = window
    out = set()
    for a in range(a_lo, a_hi + 1):
        for b in range(max(a, b_lo), b_hi + 1):
            j = a
            vertex = GammaVertex(0, a, b)
            while True:
                out.add(vertex)
                if j == 0:
                    break
                step = -1 if j > 0 else 1
                j += step
                vertex = GammaVertex(0, vertex.a + step, vertex.b + step)
    return tuple(sorted(out))


@pytest.mark.parametrize(
    "window", [(-2, 2, -2, 2), (0, 0, 0, 0), (1, 3, -1, 4), (-3, -1, -4, 2), (-1, 4, 2, 3), (2, 1, 0, 3)]
)
def test_eta_domain_matches_the_orbit_walk(window):
    assert eta_domain(AlgebraSpec(1, 0), window) == reference_eta_domain(window)


def test_build_eta_trivializes_any_connecting_data():
    spec = AlgebraSpec(1, 0)
    domain = eta_domain(spec, (-2, 2, -2, 2))
    for seed in range(10):
        omega = random_connecting_iso(spec, domain, seed)
        eta = build_eta(spec, omega)
        assert isinstance(eta, AutomorphismFamily)
        for v in domain:
            assert eta[v].source == v
    # identity data gives the identity family
    flat = ConnectingIsoData(spec, tuple((v, Fraction(0)) for v in domain))
    eta = build_eta(spec, flat)
    for v in domain:
        assert eta[v] == identity_hom(spec, v)


@pytest.mark.parametrize("gap", [GammaVertex(0, 1, 1), GammaVertex(0, -1, -1)])
def test_build_eta_names_the_vertex_missing_from_an_orbit(gap):
    # (0, 2, 2) is built from (0, 1, 1) above a = 0, (0, -2, -2) from (0, -1, -1) below
    spec = AlgebraSpec(1, 0)
    domain = tuple(v for v in eta_domain(spec, (-2, 2, -2, 2)) if v != gap)
    omega = ConnectingIsoData(spec, tuple((v, Fraction(1)) for v in domain))
    message = f"data window is not closed under suspension at {tuple(gap)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_eta(spec, omega)


def test_connecting_data_over_another_algebra_is_rejected():
    # data over L(1, 0) has no answer for L(1, 1), nor the other way round
    loop, other = AlgebraSpec(1, 0), AlgebraSpec(1, 1)
    domain = eta_domain(loop, (-1, 1, -1, 1))
    data = {s: ConnectingIsoData(s, tuple((v, Fraction(1)) for v in domain)) for s in (loop, other)}
    for call, spec, omega in (
        (coniso_normal_form, other, data[loop]),
        (coniso_normal_form, loop, data[other]),
        (build_eta, loop, data[other]),
    ):
        with pytest.raises(ValueError) as raised:
            call(spec, omega)
        assert str(raised.value) == "connecting data from a different algebra"


def test_build_eta_requires_closed_window():
    spec = AlgebraSpec(1, 0)
    domain = (GammaVertex(0, 2, 2),)  # orbit back to a = 0 is missing
    omega = ConnectingIsoData(spec, tuple((v, Fraction(0)) for v in domain))
    with pytest.raises(ValueError):
        build_eta(spec, omega)
    with pytest.raises(ValueError):
        eta_domain(AlgebraSpec(2, 0), (-1, 1, -1, 1))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_conjugation_property(seed):
    spec = AlgebraSpec(2, 1)
    data = random_pseudo_identity(spec, (-1, 1, -1, 1), seed)
    family = construct_conjugation(data)
    assert verify_naturality(family, data) is None


def _fraction_calls(fn, *args):
    """fn(*args) and the names of the functions of ``fractions`` it called, via sys.setprofile."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def test_naturality_and_validation_sweeps_make_no_fraction_calls():
    spec = AlgebraSpec(3, 2)
    data = random_pseudo_identity(spec, WINDOW, 7)
    family = construct_conjugation(data)
    assert any(h.f_coeff.denominator > 1 for _, h in family.homs)
    assert verify_naturality(family, data) is None
    assert _fraction_calls(verify_naturality, family, data) == (None, [])
    assert _fraction_calls(validate_pseudo_identity, data) == ([], [])
    # the hook does see Fraction arithmetic
    h = family.homs[-1][1]
    _, calls = _fraction_calls(gamma_compose, h, h)
    assert calls


def test_naturality_rejects_a_family_that_misses_data_vertices():
    spec = AlgebraSpec(3, 2)
    data = random_pseudo_identity(spec, WINDOW, 3)
    for family in (identity_family(spec, ()), identity_family(spec, data.vertices()[:1])):
        with pytest.raises(ValueError, match="no automorphism at"):
            verify_naturality(family, data)
    other = construct_conjugation(random_pseudo_identity(AlgebraSpec(2, 1), WINDOW, 3))
    with pytest.raises(ValueError, match="different algebras"):
        verify_naturality(other, data)


def test_families_and_unit_families_stay_over_their_algebra_and_vertex():
    spec, other = AlgebraSpec(2, 1), AlgebraSpec(3, 2)
    v, w = GammaVertex(0, 0, 0), GammaVertex(0, 0, 1)
    with pytest.raises(ValueError, match="not an endomorphism"):
        AutomorphismFamily(spec, ((v, identity_hom(other, v)),))
    unit = random_unit_family(spec, conjugation_domain(spec, WINDOW), Random(4))
    for bad in (identity_hom(other, v), identity_hom(spec, w)):
        with pytest.raises(ValueError, match="not an automorphism of its vertex"):
            conjugation_data(spec, WINDOW, {**unit, v: bad})


# -- The int seed against a morphism-level reference ------------------------------


def _reference_seed(F, phi, source, target, left):
    """The seed solve on GammaHoms: gamma_compose, invert_hom and the checked constructor."""
    at = target if left else source
    image = F.image("f", source, target)
    if left:
        y = gamma_compose(image, invert_hom(phi[source]))
    else:
        y = gamma_compose(phi[target], image)
    if y.f_coeff == 0:
        raise InvalidPseudoIdentity(
            f"image of f {tuple(source)} -> {tuple(target)} lost its leading part"
        )
    try:
        candidate = GammaHom(F.spec, at, at, y.f_coeff, y.g_coeff)
    except ValueError as exc:
        raise InvalidPseudoIdentity(str(exc)) from exc
    inverse = invert_hom(candidate)
    composite = gamma_compose(inverse, y) if left else gamma_compose(y, inverse)
    assert (composite.f_coeff, composite.g_coeff) == (1, 0)
    return inverse if left else candidate


def reference_conjugation(F) -> AutomorphismFamily:
    """construct_conjugation's sweep, in its order, with every seed solved on GammaHoms."""
    spec = F.spec
    a_lo, a_hi, _, b_hi = F.window
    phi = {}

    def seed(source, target, left):
        phi[target if left else source] = _reference_seed(F, phi, source, target, left)

    for i in range(spec.n):
        delta = spec.m if i == 0 else 0
        for b in range(-delta, 1):
            phi[GammaVertex(i, 0, b)] = identity_hom(spec, GammaVertex(i, 0, b))
        for b in range(0, b_hi):
            seed(GammaVertex(i, 0, b), GammaVertex(i, 0, b + 1), True)
        for a in range(0, min(a_hi, b_hi + delta)):
            seed(GammaVertex(i, a, a + 1 - delta), GammaVertex(i, a + 1, a + 1 - delta), True)
            for b in range(a + 1 - delta, b_hi):
                seed(GammaVertex(i, a + 1, b), GammaVertex(i, a + 1, b + 1), True)
        for a in range(-1, a_lo - 1, -1):
            below = GammaVertex(i, a, a + 1 - delta)
            seed(below, GammaVertex(i, a + 1, a + 1 - delta), False)
            seed(GammaVertex(i, a, a - delta), below, False)
            for b in range(a + 1 - delta, b_hi):
                seed(GammaVertex(i, a, b), GammaVertex(i, a, b + 1), True)
    return AutomorphismFamily(spec, tuple(sorted(phi.items())))


def _three_kinds(data: PseudoIdentityData):
    """The data as built, through the checked constructor, and through a JSON round trip."""
    checked = PseudoIdentityData(data.spec, data.window, data.images)
    loaded = pseudo_identity_from_obj(json.loads(json.dumps(pseudo_identity_to_obj(data))))
    return data, checked, loaded


def _corrupted(data: PseudoIdentityData, seed: int) -> PseudoIdentityData:
    """The data with one f image between distinct vertices scaled, plus a g part where allowed."""
    rng = Random(seed)
    keys = [key for key in data._triples if key[0] == "f" and key[1] != key[2]]
    key = keys[rng.randrange(len(keys))]
    hom = data.image(*key)
    g_coeff = hom.g_coeff + Fraction(1, 2) if in_G(data.spec, key[1], key[2]) else 0
    return _with_image(data, key, hom.f_coeff * Fraction(7, 3), g_coeff)


def _outcome(conjugate, data):
    """The family's entries, or the message of the InvalidPseudoIdentity raised."""
    try:
        homs = conjugate(data).homs
    except InvalidPseudoIdentity as exc:
        return str(exc)
    assert all(type(h.f_coeff) is type(h.g_coeff) is Fraction for _, h in homs)
    return homs


@pytest.mark.parametrize("seed", [0, 11])
def test_int_seed_equals_the_morphism_level_reference(spec, seed):
    window = (-2, 2, -2, 2)
    built = random_pseudo_identity(spec, window, seed)
    for data in (built, _corrupted(built, seed), identity_data(spec, window)):
        for same in _three_kinds(data):
            assert same == data
            for key, hom in same.images:
                assert same._triples[key] == scaled(same.image(*key)) == scaled(hom)
            assert _outcome(construct_conjugation, same) == _outcome(reference_conjugation, same)
    assert isinstance(_outcome(construct_conjugation, built), tuple)


@pytest.mark.parametrize("seed", [2, 5])
def test_int_seed_fails_where_the_reference_fails(seed):
    spec, window = AlgebraSpec(1, 1), (-2, 2, -2, 2)
    built = random_pseudo_identity(spec, window, seed)
    for key, f_coeff, g_coeff in [
        (("f", GammaVertex(0, 0, 0), GammaVertex(0, 0, 1)), 0, 0),
        (("f", GammaVertex(0, 0, 0), GammaVertex(0, 1, 0)), 3, 1),
        (("f", GammaVertex(0, -1, -2), GammaVertex(0, -1, -1)), 2, 5),
    ]:
        for data in _three_kinds(_with_image(built, key, f_coeff, g_coeff)):
            message = _outcome(reference_conjugation, data)
            assert isinstance(message, str)
            assert _outcome(construct_conjugation, data) == message


def test_gamma_homs_are_built_only_at_the_edges(monkeypatch):
    """One GammaHom per unit-family entry and one per family entry; none per generator key."""
    spec, window = AlgebraSpec(3, 2), (-2, 2, -2, 2)
    domain = conjugation_domain(spec, window)
    assert len(generator_keys(spec, domain)) > 10 * len(domain)
    built = []
    checked_init, trusted = GammaHom.__post_init__, gamma._trusted_hom

    def counting_init(self):
        built.append("checked")
        checked_init(self)

    def counting_trusted(*args):
        built.append("trusted")
        return trusted(*args)

    monkeypatch.setattr(GammaHom, "__post_init__", counting_init)
    monkeypatch.setattr(gamma, "_trusted_hom", counting_trusted)
    assert not hasattr(rigidity, "_trusted_hom")  # rigidity builds its trusted ones through gamma
    data = random_pseudo_identity(spec, window, 3)
    family = construct_conjugation(data)
    assert verify_naturality(family, data) is None
    assert "trusted" in built and "checked" in built
    assert len(built) <= 3 * len(domain)
