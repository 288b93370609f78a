"""Every complex the package builds is in one normal form: no degree without
summands and no all-zero differential.

Built complexes, cones, direct sums and minimal models are checked over the
six algebras.  Each one equals its JSON round trip, ``key()`` included; its
identity composes with the loaded copy's, and the two share one quotient
core, whose memo key ``nkey()`` is the key of the shift to degree 0.  ``mapping_cone`` rejects a component of f of the wrong shape, since
the block builder would drop its out-of-shape entries without a word.
"""

from __future__ import annotations

import pytest

from conftest import ALGEBRA_PARAMS
from kbproj.algebra import AlgebraSpec, Path, PathCombination
from kbproj.complexes import (
    ChainMap,
    compose_chain_maps,
    direct_sum,
    dumps_complex,
    hom_space,
    identity_chain_map,
    loads_complex,
    mapping_cone,
    mat_is_zero,
    minimal_model,
    quotient,
    shift,
    stalk_complex,
    zero_chain_map,
)
from kbproj.quadruples import build_complex, enumerate_quadruples

ALGEBRA_IDS = [f"L({n},{m})" for n, m in ALGEBRA_PARAMS]


def normal_form_corpus(spec: AlgebraSpec) -> list:
    """Built complexes, direct sums, cones of basis, identity and zero maps, and
    the minimal models of all of them."""
    built = [build_complex(spec, q) for q in enumerate_quadruples(spec, -1, 1, 3)]
    stalks = [stalk_complex(spec, v) for v in spec.vertices]
    sums = [direct_sum(p, shift(p, -1)) for p in stalks]
    sums += [direct_sum(a, b) for a in built[::9] for b in built[4::9]]
    cones = [mapping_cone(identity_chain_map(c)) for c in built[::5]]
    for c in built[::11]:
        for d in built[2::11]:
            cones += [mapping_cone(f) for f in hom_space(c, d).basis[:2]]
            zeros = [zero_chain_map(c, d), zero_chain_map(shift(d, -1), c)]
            cones += [mapping_cone(f) for f in zeros]
    complexes = built + sums + cones
    return complexes + [minimal_model(c) for c in complexes]


@pytest.fixture(params=ALGEBRA_PARAMS, ids=ALGEBRA_IDS, scope="module")
def corpus(request) -> list:
    return normal_form_corpus(AlgebraSpec(*request.param))


def test_no_complex_has_an_empty_degree_or_an_all_zero_differential(corpus):
    for c in corpus:
        assert all(c.summands.values()), c
        assert not any(mat_is_zero(m) for m in c.diffs.values()), c


def test_the_direct_sum_of_a_stalk_and_its_shift_has_no_differential(spec):
    for v in spec.vertices:
        p = stalk_complex(spec, v)
        s = direct_sum(p, shift(p, -1))
        assert s.summands == {0: (v,), 1: (v,)} and s.diffs == {}


def test_nkey_is_the_key_of_the_shift_to_degree_zero(corpus):
    # an odd lowest degree negates the differentials on the way to degree 0
    assert any(c.diffs and min(c.summands) % 2 for c in corpus)
    for c in corpus:
        t = min(c.summands, default=0)
        assert c.nkey() == shift(c, t).key()
        assert shift(c, 1).nkey() == shift(c, -2).nkey() == c.nkey()


def test_complexes_equal_their_json_round_trip(corpus):
    for c in corpus:
        loaded = loads_complex(dumps_complex(c))
        assert loaded == c and loaded.key() == c.key()
        # raises "middle complexes differ" unless the two keys agree
        compose_chain_maps(identity_chain_map(loaded), identity_chain_map(c))
        assert quotient(loaded, loaded)._core is quotient(c, c)._core


E0 = PathCombination.of(Path(0, ()))


@pytest.mark.parametrize(
    "components",
    [{0: ((E0, E0),)}, {0: ((E0,), (E0,))}, {0: ((E0,),), 1: ((E0,),)}],
    ids=["too wide", "too tall", "outside the summands"],
)
def test_mapping_cone_rejects_a_component_of_the_wrong_shape(components):
    p = stalk_complex(AlgebraSpec(1, 0), 0)
    degree = max(components)
    with pytest.raises(ValueError, match=f"degree {degree}: component shape does not match"):
        mapping_cone(ChainMap(p, p, components))
