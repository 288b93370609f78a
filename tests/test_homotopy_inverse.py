"""``homotopy_factor`` and ``homotopy_inverse``, the one two-sided certificate
behind ``is_isomorphic_K`` and ``standard_triangle``, and ``direct_sum`` as
the cone of a zero map, pinned against the block construction it replaced.
"""

from __future__ import annotations

import pytest

from conftest import ALGEBRA_PARAMS
from kbproj.algebra import AlgebraSpec
from kbproj.basismaps import in_phi, in_psi, phi_map, psi_map
from kbproj.complexes import (
    ProjComplex,
    add_chain_maps,
    compose_chain_maps,
    cone_maps,
    direct_sum,
    homotopy_factor,
    homotopy_inverse,
    identity_chain_map,
    is_contractible,
    make_complex,
    mapping_cone,
    mat_zero,
    quotient,
    scale_chain_map,
    shift,
    stalk_complex,
    zero_chain_map,
    zero_complex,
)
from kbproj.quadruples import build_complex, enumerate_quadruples
from test_oracle_assembly import sample_complexes

ALGEBRA_IDS = [f"L({n},{m})" for n, m in ALGEBRA_PARAMS]


def homotopic(f, g) -> bool:
    return quotient(f.source, f.target).contains(add_chain_maps(f, scale_chain_map(g, -1)))


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_inverse_of_the_identity_is_homotopic_to_it(params):
    spec = AlgebraSpec(*params)
    contractible = mapping_cone(identity_chain_map(stalk_complex(spec, spec.vertices[0])))
    complexes = sample_complexes(spec)[::2] + [contractible, zero_complex(spec)]
    assert is_contractible(contractible)
    for c in complexes:
        identity = identity_chain_map(c)
        g = homotopy_inverse(identity)
        assert g is not None and (g.source, g.target) == (c, c)
        assert homotopic(g, identity)


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_basis_maps_between_distinct_indecomposables_have_no_inverse(params):
    spec = AlgebraSpec(*params)
    quads = enumerate_quadruples(spec, 0, 1, 2)
    checked = 0
    for qs in quads:
        for qt in quads:
            if qs == qt:
                continue
            for member, build in ((in_phi, phi_map), (in_psi, psi_map)):
                if member(spec, qt, qs):
                    f = build(spec, qt, qs)
                    assert not quotient(f.source, f.target).contains(f)
                    assert homotopy_inverse(f) is None, (qs, qt)
                    checked += 1
    assert checked >= 5


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_a_split_inclusion_has_a_left_inverse_and_no_inverse(params):
    spec = AlgebraSpec(*params)
    built = [build_complex(spec, q) for q in enumerate_quadruples(spec, 0, 0, 1)][:4]
    for c in built:
        for e in built:
            # e -> c (+) e, the inclusion of the second summand
            f = cone_maps(zero_chain_map(shift(c, -1), e))[0]
            assert f.target.key() == direct_sum(c, e).key()
            left = homotopy_factor(f, identity_chain_map(e))
            assert left is not None
            assert homotopic(compose_chain_maps(left, f), identity_chain_map(e))
            assert homotopy_inverse(f) is None


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_nothing_factors_the_identity_through_a_zero_map(params):
    spec = AlgebraSpec(*params)
    built = [build_complex(spec, q) for q in enumerate_quadruples(spec, 0, 0, 1)]
    for c in built:
        for d in built[:4] + [shift(c, 1), zero_complex(spec)]:
            assert homotopy_factor(zero_chain_map(c, d), identity_chain_map(c)) is None
    # a null-homotopic right-hand side does factor, through the zero map
    c = built[0]
    zero = zero_chain_map(c, c)
    assert homotopy_factor(zero, zero).is_zero()


def block_direct_sum(a: ProjComplex, b: ProjComplex) -> ProjComplex:
    """The block-diagonal construction that direct_sum had before the cone."""
    summands = {i: a.summand(i) + b.summand(i) for i in set(a.summands) | set(b.summands)}
    diffs = {}
    for i in summands:
        if i + 1 not in summands:
            continue
        da, db = a.diff(i), b.diff(i)
        nb_c, na_c = len(b.summand(i)), len(a.summand(i))
        rows = [tuple(r) + mat_zero(1, nb_c)[0] for r in da]
        rows += [mat_zero(1, na_c)[0] + tuple(r) for r in db]
        diffs[i] = tuple(rows)
    return ProjComplex(a.spec, summands, diffs)


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_direct_sum_matches_the_block_construction(params):
    spec = AlgebraSpec(*params)
    samples = sample_complexes(spec)[::3] + [zero_complex(spec)]
    samples += [shift(c, 3) for c in samples[:2]] + [shift(c, -2) for c in samples[2:4]]
    gaps = 0
    for a in samples:
        for b in samples:
            s, ref = direct_sum(a, b), block_direct_sum(a, b)
            assert s.key() == make_complex(spec, ref.summands, ref.diffs).key()
            degrees = sorted(s.summands)
            gaps += any(y - x > 1 for x, y in zip(degrees, degrees[1:]))
    assert gaps > 0


def test_direct_sum_rejects_mixed_algebras():
    a = zero_complex(AlgebraSpec(1, 0))
    with pytest.raises(ValueError, match="different algebras"):
        direct_sum(a, zero_complex(AlgebraSpec(2, 1)))
