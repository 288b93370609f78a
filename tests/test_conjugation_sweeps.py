"""The coefficient sweeps of ``rigidity`` against the morphism-level ones.

``conjugation_data`` and ``validate_pseudo_identity`` work on the int
triples ``gamma.scaled(h) = (F, G, D)`` through ``gamma.compose_coeffs``
and the cone outcomes that the per-window ``generator_keys`` maps each
key to, and compare two sides by cross-multiplying their denominators.
``verify_naturality`` and ``build_eta`` share one such naturality sweep,
``_unnatural``; ``build_eta`` hands it the generators as their own images.
The reference versions below build every composite as a morphism,
with a composition written out here (not ``gamma_compose``, which now
calls the kernel) and the linear extension of the images.  Each test
asserts that both sides agree exactly: the same images, the same
problem list in the same order, and the same first counterexample,
both of its composites included.  The inputs are valid seeded data,
data corrupted at one key (a scaled f image, an added g part, a zeroed
g image) and families perturbed at one vertex.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from conftest import ALGEBRA_PARAMS
from kbproj import rigidity
from kbproj.algebra import AlgebraSpec
from kbproj.gamma import (
    GammaHom,
    _in_F,
    _in_G,
    hom_add,
    hom_scale,
    identity_hom,
    in_G,
    invert_hom,
    is_shifted_projective,
    zero_hom,
)
from kbproj.rigidity import (
    AutomorphismFamily,
    InvalidPseudoIdentity,
    NaturalityCounterexample,
    PseudoIdentityData,
    _generator_hom,
    build_eta,
    conjugation_data,
    conjugation_domain,
    construct_conjugation,
    eta_domain,
    generator_keys,
    random_connecting_iso,
    random_unit_family,
    validate_pseudo_identity,
    verify_naturality,
)

ALGEBRAS = [AlgebraSpec(n, m) for n, m in ALGEBRA_PARAMS]
ALGEBRA_IDS = [f"L({n},{m})" for n, m in ALGEBRA_PARAMS]
WINDOWS = ((-1, 1, -1, 1), (0, 2, -2, 1), (-2, 0, 0, 1), (-2, 2, -2, 2))
SEEDS = (0, 7, 23)


# -- The morphism-level reference ---------------------------------------------------


def reference_compose(second: GammaHom, first: GammaHom) -> GammaHom:
    """Composite ``second after first``, each product multiplied out."""
    assert first.spec == second.spec and first.target == second.source
    spec, source, target = first.spec, first.source, second.target
    f_coeff = Fraction(0)
    if _in_F(spec, source, target):
        f_coeff = first.f_coeff * second.f_coeff
    g_coeff = Fraction(0)
    if _in_G(spec, source, target):
        g_coeff = first.f_coeff * second.g_coeff + first.g_coeff * second.f_coeff
    return GammaHom(spec, source, target, f_coeff, g_coeff)


def reference_apply(F: PseudoIdentityData, h: GammaHom) -> GammaHom:
    """Linear extension of the generator images to an arbitrary morphism."""
    out = zero_hom(F.spec, h.source, h.target)
    if h.f_coeff:
        out = hom_add(out, hom_scale(F.image("f", h.source, h.target), h.f_coeff))
    if h.g_coeff:
        out = hom_add(out, hom_scale(F.image("g", h.source, h.target), h.g_coeff))
    return out


def reference_conjugation_data(spec, window, unit_family) -> PseudoIdentityData:
    domain = conjugation_domain(spec, window)
    inverses = {v: invert_hom(unit_family[v]) for v in domain}
    images = []
    for key in generator_keys(spec, domain):
        kind, source, target = key
        h = _generator_hom(spec, key)
        image = reference_compose(unit_family[target], reference_compose(h, inverses[source]))
        images.append((key, image))
    return PseudoIdentityData(spec, window, tuple(images))


def reference_validate(F: PseudoIdentityData) -> list[str]:
    spec = F.spec
    problems = []
    keys = generator_keys(spec, F.vertices())
    outgoing = {}
    for key in keys:
        outgoing.setdefault(key[1], []).append(key)
        kind, source, target = key
        if (
            is_shifted_projective(spec, source) is not None
            and is_shifted_projective(spec, target) is not None
        ):
            if F.image(*key) != _generator_hom(spec, key):
                problems.append(
                    f"{kind} {tuple(source)} -> {tuple(target)} between shifted projectives is moved"
                )
    for first_key in keys:
        kind1, source, middle = first_key
        h1 = _generator_hom(spec, first_key)
        fh1 = F.image(*first_key)
        for second_key in outgoing.get(middle, ()):
            kind2, _, target = second_key
            composite = reference_compose(_generator_hom(spec, second_key), h1)
            lhs = reference_apply(F, composite)
            rhs = reference_compose(F.image(*second_key), fh1)
            if lhs != rhs:
                problems.append(
                    f"composition broken: {kind2} after {kind1} from "
                    f"{tuple(source)} via {tuple(middle)} to {tuple(target)}"
                )
    return problems


def reference_naturality(phi: AutomorphismFamily, F: PseudoIdentityData):
    spec = F.spec
    for key in generator_keys(spec, F.vertices()):
        kind, source, target = key
        lhs = reference_compose(phi[target], F.image(*key))
        rhs = reference_compose(_generator_hom(spec, key), phi[source])
        if lhs != rhs:
            return NaturalityCounterexample(kind, source, target, lhs, rhs)
    return None


def reference_build_eta(spec, omega) -> AutomorphismFamily:
    """build_eta with its naturality loop on morphisms; suspend_hom is read from rigidity."""
    domain = omega.vertices()
    eta = {}

    def build(vertex):
        if vertex not in eta:
            if vertex.a == 0:
                eta[vertex] = identity_hom(spec, vertex)
            elif vertex.a > 0:
                previous = type(vertex)(0, vertex.a - 1, vertex.b - 1)
                eta[vertex] = reference_compose(
                    rigidity.suspend_hom(build(previous)), omega.omega_hom(previous)
                )
            else:
                above = rigidity.suspend_vertex(spec, vertex)
                inner = reference_compose(build(above), invert_hom(omega.omega_hom(vertex)))
                eta[vertex] = rigidity.unsuspend_hom(inner)
        return eta[vertex]

    for vertex in domain:
        build(vertex)
    for key in generator_keys(spec, domain):
        kind, source, target = key
        h = _generator_hom(spec, key)
        if reference_compose(eta[target], h) != reference_compose(h, eta[source]):
            raise ValueError(f"eta is not natural at {kind} {tuple(source)} -> {tuple(target)}")
    return AutomorphismFamily(spec, tuple(sorted(eta.items())))


# -- Inputs --------------------------------------------------------------------------


def seeded(spec, window, seed):
    unit = random_unit_family(spec, conjugation_domain(spec, window), Random(seed))
    return unit, conjugation_data(spec, window, unit)


def replaced(F: PseudoIdentityData, index: int, f_coeff, g_coeff) -> PseudoIdentityData:
    images = list(F.images)
    key, hom = images[index]
    images[index] = (key, GammaHom(F.spec, hom.source, hom.target, f_coeff, g_coeff))
    return PseudoIdentityData(F.spec, F.window, tuple(images))


def corruptions(F: PseudoIdentityData, seed: int):
    """Data changed at one key: a scaled f image, an added g part, a zeroed g image."""
    rng = Random(seed)
    f_keys = [i for i, ((kind, _, _), _) in enumerate(F.images) if kind == "f"]
    g_keys = [i for i, ((kind, _, _), _) in enumerate(F.images) if kind == "g"]
    g_able = [i for i in f_keys if in_G(F.spec, F.images[i][1].source, F.images[i][1].target)]
    projective = [
        i
        for i in f_keys
        if is_shifted_projective(F.spec, F.images[i][1].source) is not None
        and is_shifted_projective(F.spec, F.images[i][1].target) is not None
    ]
    for pool in (f_keys, projective):
        for i in rng.sample(pool, min(2, len(pool))):
            hom = F.images[i][1]
            yield replaced(F, i, 2 * hom.f_coeff, hom.g_coeff)
    for i in rng.sample(g_able, min(2, len(g_able))):
        hom = F.images[i][1]
        yield replaced(F, i, hom.f_coeff, hom.g_coeff + Fraction(1, 2))
    for i in rng.sample(g_keys, min(2, len(g_keys))):
        yield replaced(F, i, F.images[i][1].f_coeff, 0)


def perturbed_families(phi: AutomorphismFamily, seed: int):
    """The family scaled at one vertex, or given a g part there where one exists."""
    rng = Random(seed)
    homs = list(phi.homs)
    for i in rng.sample(range(len(homs)), min(3, len(homs))):
        vertex, hom = homs[i]
        changes = [(3 * hom.f_coeff, hom.g_coeff)]
        if in_G(phi.spec, vertex, vertex):
            changes.append((hom.f_coeff, hom.g_coeff - 1))
        for f_coeff, g_coeff in changes:
            moved = homs.copy()
            moved[i] = (vertex, GammaHom(phi.spec, vertex, vertex, f_coeff, g_coeff))
            yield AutomorphismFamily(phi.spec, tuple(moved))


def assert_same_naturality(phi, F):
    expected = reference_naturality(phi, F)
    assert verify_naturality(phi, F) == expected
    return expected


# -- Tests ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALGEBRAS, ids=ALGEBRA_IDS)
@pytest.mark.parametrize("window", WINDOWS, ids=str)
def test_images_match_reference(spec, window):
    for seed in SEEDS:
        unit, data = seeded(spec, window, seed)
        reference = reference_conjugation_data(spec, window, unit)
        assert data.images == reference.images
        assert all(type(h.f_coeff) is Fraction and type(h.g_coeff) is Fraction for _, h in data.images)


@pytest.mark.parametrize("spec", ALGEBRAS, ids=ALGEBRA_IDS)
@pytest.mark.parametrize("window", WINDOWS[:3], ids=str)
def test_validation_matches_reference_on_valid_and_corrupted_data(spec, window):
    broken = 0
    for seed in SEEDS[:2]:
        _, data = seeded(spec, window, seed)
        assert validate_pseudo_identity(data) == reference_validate(data) == []
        for bad in corruptions(data, seed):
            problems = validate_pseudo_identity(bad)
            assert problems == reference_validate(bad)
            broken += bool(problems)
    assert broken


@pytest.mark.parametrize("spec", ALGEBRAS, ids=ALGEBRA_IDS)
@pytest.mark.parametrize("window", WINDOWS, ids=str)
def test_naturality_matches_reference(spec, window):
    failing = 0
    for seed in SEEDS:
        _, data = seeded(spec, window, seed)
        family = construct_conjugation(data)
        assert assert_same_naturality(family, data) is None
        for moved in perturbed_families(family, seed):
            failing += assert_same_naturality(moved, data) is not None
        for bad in corruptions(data, seed):
            failing += assert_same_naturality(family, bad) is not None
            try:
                own = construct_conjugation(bad)
            except InvalidPseudoIdentity:
                continue
            assert_same_naturality(own, bad)
    assert failing


def test_counterexample_carries_both_composites():
    spec, window = AlgebraSpec(2, 1), (-1, 1, -1, 1)
    _, data = seeded(spec, window, 5)
    family = construct_conjugation(data)
    vertex, hom = family.homs[len(family.homs) // 2]
    homs = dict(family.homs)
    homs[vertex] = GammaHom(spec, vertex, vertex, 2 * hom.f_coeff, hom.g_coeff)
    moved = AutomorphismFamily(spec, tuple(sorted(homs.items())))
    found = verify_naturality(moved, data)
    assert found is not None and found == reference_naturality(moved, data)
    assert vertex in (found.source, found.target)
    assert found.lhs != found.rhs
    assert (found.lhs.source, found.lhs.target) == (found.source, found.target)
    assert (found.rhs.source, found.rhs.target) == (found.source, found.target)


@pytest.mark.parametrize("seed", range(6))
def test_eta_family_matches_reference(seed):
    spec = AlgebraSpec(1, 0)
    omega = random_connecting_iso(spec, eta_domain(spec, (-2, 2, -2, 2)), seed)
    assert build_eta(spec, omega) == reference_build_eta(spec, omega)


def test_eta_naturality_failure_matches_reference(monkeypatch):
    """A suspension that doubles the f-part makes eta unnatural; both loops name the same key."""
    spec = AlgebraSpec(1, 0)
    omega = random_connecting_iso(spec, eta_domain(spec, (-2, 2, -2, 2)), 3)
    suspend = rigidity.suspend_hom

    def doubling(h):
        out = suspend(h)
        return GammaHom(out.spec, out.source, out.target, 2 * out.f_coeff, out.g_coeff)

    monkeypatch.setattr(rigidity, "suspend_hom", doubling)
    with pytest.raises(ValueError, match="eta is not natural") as expected:
        reference_build_eta(spec, omega)
    with pytest.raises(ValueError) as got:
        build_eta(spec, omega)
    assert str(got.value) == str(expected.value)
