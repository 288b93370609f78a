"""Closed-form hom dimensions and explicit basis maps against the oracle.

The membership predicates and map constructions on the index quadruples
are pure combinatorics; every claim here is cross-checked against the
exact chain-level computation, which is the second, independent route.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALGEBRA_PARAMS, fault
from kbproj.algebra import AlgebraSpec
from kbproj.basismaps import (
    hom_dim,
    in_phi,
    in_psi,
    irr_targets_quadruple,
    phi_map,
    psi_map,
)
from kbproj.complexes import (
    compose_chain_maps,
    hom_space,
    hom_space_dimension,
    homotopy_rank,
    is_null_homotopic,
    validate_chain_map,
)
from kbproj.quadruples import Quadruple, build_complex, enumerate_quadruples


def test_dimension_matches_oracle_on_window(spec):
    quads = enumerate_quadruples(spec, -1, 1, 2)
    for qs in quads:
        for qt in quads:
            assert hom_dim(spec, qs, qt) == hom_space_dimension(
                build_complex(spec, qs), build_complex(spec, qt)
            ), (qs, qt)


def test_endomorphisms_of_band_free_objects():
    spec = AlgebraSpec(1, 0)
    q = Quadruple(0, 0, 0, 0)
    assert hom_dim(spec, q, q) == 2
    spec = AlgebraSpec(2, 1)
    for q in enumerate_quadruples(spec, 0, 0, 2):
        assert hom_dim(spec, q, q) in (1, 2)


def test_membership_regressions():
    spec = AlgebraSpec(1, 2)
    assert not in_psi(spec, Quadruple(0, -2, 0, -2), Quadruple(0, 0, 1, -1))
    spec = AlgebraSpec(1, 1)
    src = Quadruple(-1, -1, 0, -1)
    tgt = Quadruple(-1, 0, 0, -1)
    assert not in_phi(spec, tgt, src)
    assert in_psi(spec, tgt, src)
    assert hom_space_dimension(build_complex(spec, src), build_complex(spec, tgt)) == 1


def test_graph_maps_that_would_be_null_homotopic_are_excluded():
    # a graph overlap that the differential absorbs must not be counted
    spec = AlgebraSpec(2, 1)
    quads = enumerate_quadruples(spec, -1, 1, 2)
    for qs in quads:
        for qt in quads:
            if in_phi(spec, qt, qs):
                assert not is_null_homotopic(phi_map(spec, qt, qs)), (qs, qt)


def test_phi_map_is_a_chain_map(spec):
    quads = enumerate_quadruples(spec, -1, 1, 2)
    for qs in quads:
        for qt in quads:
            if not in_phi(spec, qt, qs):
                continue
            f = phi_map(spec, qt, qs)
            assert validate_chain_map(f) is None
            assert f.source.key() == build_complex(spec, qs).key()
            assert f.target.key() == build_complex(spec, qt).key()


def test_psi_map_is_a_chain_map_and_not_null(spec):
    quads = enumerate_quadruples(spec, -1, 1, 2)
    for qs in quads:
        for qt in quads:
            if not in_psi(spec, qt, qs):
                continue
            f = psi_map(spec, qt, qs)
            assert validate_chain_map(f) is None
            assert not is_null_homotopic(f)


def test_phi_psi_pairs_span_the_hom_space(spec):
    quads = enumerate_quadruples(spec, -1, 1, 2)
    for qs in quads:
        for qt in quads:
            maps = []
            if in_phi(spec, qt, qs):
                maps.append(phi_map(spec, qt, qs))
            if in_psi(spec, qt, qs):
                maps.append(psi_map(spec, qt, qs))
            if maps:
                assert homotopy_rank(maps) == len(maps), (qs, qt)


def test_maps_raise_outside_membership():
    spec = AlgebraSpec(2, 1)
    with pytest.raises(ValueError):
        phi_map(spec, Quadruple(0, 1, 0, 1), Quadruple(0, 0, 0, 0))
    with pytest.raises(ValueError):
        psi_map(spec, Quadruple(0, 0, 0, 0), Quadruple(0, 0, 0, 0))
    with pytest.raises(ValueError):
        in_phi(spec, Quadruple(0, 0, 0, 1), Quadruple(0, 0, 0, 0))


def test_hom_dim_counts_the_checked_predicates(spec):
    quads = enumerate_quadruples(spec, -2, 2, 3)
    for qs in quads:
        for qt in quads:
            assert hom_dim(spec, qs, qt) == int(in_phi(spec, qt, qs)) + int(in_psi(spec, qt, qs))


@pytest.mark.parametrize("outside", [Quadruple(0, 0, 0, 1), Quadruple(0, 5, 0, 5), Quadruple(0, 0, -1, 0)])
def test_hom_dim_rejects_quadruples_outside_the_family(outside):
    spec = AlgebraSpec(2, 1)
    inside = Quadruple(0, 0, 0, 0)
    for qs, qt in ((outside, inside), (inside, outside)):
        with pytest.raises(ValueError, match="outside the family"):
            hom_dim(spec, qs, qt)
        with pytest.raises(ValueError, match="outside the family"):
            in_phi(spec, qt, qs)
        with pytest.raises(ValueError, match="outside the family"):
            in_psi(spec, qt, qs)


def test_irreducible_target_examples():
    spec = AlgebraSpec(2, 1)
    assert irr_targets_quadruple(spec, Quadruple(0, 1, 0, 1)) == [
        Quadruple(-1, -1, 1, 1)
    ]
    spec = AlgebraSpec(1, 0)
    assert irr_targets_quadruple(spec, Quadruple(0, 0, 1, 0)) == [
        Quadruple(-1, 0, 2, 0),
        Quadruple(0, 0, 0, 0),
    ]


def test_negative_stalk_first_target_is_the_next_stalk():
    spec = AlgebraSpec(1, 2)
    assert irr_targets_quadruple(spec, Quadruple(0, -2, 0, -2))[0] == Quadruple(
        0, -1, 0, -1
    )
    assert irr_targets_quadruple(spec, Quadruple(0, -1, 0, -1))[0] == Quadruple(
        0, 0, 0, 0
    )


def test_irreducible_targets_stay_in_family(spec):
    for q in enumerate_quadruples(spec, -1, 1, 2):
        targets = irr_targets_quadruple(spec, q)
        assert 1 <= len(targets) <= 2
        for t in targets:
            assert t != q
            # an irreducible map exists in at least one direction
            assert hom_dim(spec, q, t) >= 1


def _functoriality_failures(spec: AlgebraSpec) -> int:
    """Composable generator pairs on a small grid window whose transported
    composite disagrees with the composite of the transports."""
    from kbproj.complexes import add_chain_maps, scale_chain_map
    from kbproj.gamma import GammaVertex, gamma_compose, hom_f, hom_g, in_F, in_G, is_vertex, theta_hom

    vertices = [
        GammaVertex(i, a, b)
        for i in range(spec.n)
        for a in range(-2, 1)
        for b in range(-2, 1)
        if is_vertex(spec, GammaVertex(i, a, b))
    ]
    gens = []
    for v in vertices:
        for u in vertices:
            if in_F(spec, v, u) and v != u:
                gens.append(hom_f(spec, v, u))
            if in_G(spec, v, u):
                gens.append(hom_g(spec, v, u))
    bad = 0
    for h1 in gens:
        for h2 in gens:
            if h2.source != h1.target:
                continue
            composite = gamma_compose(h2, h1)
            lhs = compose_chain_maps(theta_hom(h2), theta_hom(h1))
            if not composite.is_zero():
                lhs = add_chain_maps(lhs, scale_chain_map(theta_hom(composite), -1))
            if not is_null_homotopic(lhs):
                bad += 1
    return bad


def test_psi_sign_fault_breaks_functoriality():
    spec = AlgebraSpec(2, 1)
    assert _functoriality_failures(spec) == 0
    with fault("psi-sign"):
        assert _functoriality_failures(spec) > 0
    assert _functoriality_failures(spec) == 0


def test_phi_membership_fault_breaks_dimensions():
    spec = AlgebraSpec(2, 1)
    quads = enumerate_quadruples(spec, -1, 1, 2)

    def mismatches() -> int:
        return sum(
            hom_dim(spec, qs, qt)
            != hom_space_dimension(build_complex(spec, qs), build_complex(spec, qt))
            for qs in quads
            for qt in quads
        )

    assert mismatches() == 0
    with fault("phi-membership"):
        assert mismatches() > 0
    assert mismatches() == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_composites_land_in_the_span(data):
    n, m = data.draw(st.sampled_from(ALGEBRA_PARAMS))
    spec = AlgebraSpec(n, m)
    quads = enumerate_quadruples(spec, -1, 1, 2)
    qa, qb, qc = (data.draw(st.sampled_from(quads)) for _ in range(3))
    first = []
    if in_phi(spec, qb, qa):
        first.append(phi_map(spec, qb, qa))
    if in_psi(spec, qb, qa):
        first.append(psi_map(spec, qb, qa))
    second = []
    if in_phi(spec, qc, qb):
        second.append(phi_map(spec, qc, qb))
    if in_psi(spec, qc, qb):
        second.append(psi_map(spec, qc, qb))
    if not first or not second:
        return
    f = data.draw(st.sampled_from(first))
    g = data.draw(st.sampled_from(second))
    gf = compose_chain_maps(g, f)
    assert validate_chain_map(gf) is None
    basis = hom_space(gf.source, gf.target).basis
    assert homotopy_rank(list(basis) + [gf]) == len(basis)
