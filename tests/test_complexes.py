"""Chain-level oracle: validation, hom spaces, cones, isomorphism tests.

Everything here is exact rational linear algebra on honest chain maps; the
closed-form combinatorics is tested against this module, never the other
way around.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALGEBRA_PARAMS
from kbproj import complexes
from kbproj.algebra import AlgebraSpec, Path, PathCombination, hom_basis_proj, make_path, memo_table
from kbproj.complexes import (
    ChainMap,
    add_chain_maps,
    combine_chain_maps,
    complex_from_obj,
    complex_to_obj,
    compose_chain_maps,
    cone_maps,
    direct_sum,
    dumps_complex,
    hom_space,
    hom_space_dimension,
    homotopy_rank,
    identity_chain_map,
    is_contractible,
    is_isomorphic_K,
    is_null_homotopic,
    loads_complex,
    make_chain_map,
    make_complex,
    mapping_cone,
    minimal_model,
    quotient,
    scale_chain_map,
    shift,
    shift_chain_map,
    stalk_complex,
    validate_chain_map,
    validate_complex,
    zero_chain_map,
    zero_complex,
)
from kbproj.quadruples import Quadruple, build_complex, enumerate_quadruples


def two_term(spec: AlgebraSpec):
    """Tail top in degree 0, its cover P_0 in degree 1, tail arrow between."""
    entry = PathCombination.of(make_path(spec, [-1]))
    return make_complex(spec, {0: (-1,), 1: (0,)}, {0: ((entry,),)})


def test_validate_accepts_built_complexes():
    for n, m in ALGEBRA_PARAMS:
        spec = AlgebraSpec(n, m)
        for q in enumerate_quadruples(spec, -2, 2, 3):
            assert validate_complex(build_complex(spec, q)) is None


def test_validate_rejects_bad_shape():
    spec = AlgebraSpec(2, 1)
    entry = PathCombination.of(make_path(spec, [-1]))
    c = make_complex(spec, {0: (0, 0), 1: (-1,)}, {0: ((entry,),)})
    assert validate_complex(c) is not None


def test_validate_rejects_wrong_endpoints():
    spec = AlgebraSpec(2, 1)
    entry = PathCombination.of(make_path(spec, [0]))
    c = make_complex(spec, {0: (0,), 1: (-1,)}, {0: ((entry,),)})
    assert "path runs" in validate_complex(c)


def test_complex_and_chain_map_checks_name_their_matrices():
    spec = AlgebraSpec(2, 1)
    wrong = PathCombination.of(make_path(spec, [0]))
    invalid = PathCombination.of(Path(0, (7,)))
    complex_problems = [
        validate_complex(make_complex(spec, {0: (0,), 1: (-1,)}, {0: ((entry,),)}))
        for entry in (wrong, invalid)
    ]
    assert complex_problems == [
        "degree 0: entry (0,0) path runs 1->0, expected -1->0",
        "degree 0: entry (0,0) holds an invalid path",
    ]
    source, target = stalk_complex(spec, 0), stalk_complex(spec, -1)
    map_problems = [
        validate_chain_map(ChainMap(source, target, {0: mat}))
        for mat in (((wrong,),), ((invalid,),), ((wrong, wrong),))
    ]
    assert map_problems == [
        "degree 0: component (0,0) path runs 1->0, expected -1->0",
        "degree 0: component (0,0) holds an invalid path",
        "degree 0: component shape does not match summands",
    ]


@pytest.mark.parametrize(
    "path, problem",
    [
        (Path(5, ()), "holds an invalid path"),  # a start vertex outside the algebra
        (Path(0, (7,)), "holds an invalid path"),  # an arrow outside the algebra
        (Path(0, (0, 1)), "holds an invalid path"),  # the forbidden cycle pair (0, 1), 0 -> 0
        (Path(1, (0, -1)), "holds an invalid path"),  # arrows that do not chain
        (Path(0, (-1,)), "path runs 0->-1, expected 0->0"),  # a nonzero path, wrong end
    ],
)
def test_invalid_paths_in_matrices_are_named(path, problem):
    spec = AlgebraSpec(2, 1)
    entry = PathCombination.of(path)
    assert validate_complex(make_complex(spec, {0: (0,), 1: (0,)}, {0: ((entry,),)})) == (
        f"degree 0: entry (0,0) {problem}"
    )
    p = stalk_complex(spec, 0)
    f = ChainMap(p, p, {0: ((entry,),)})
    assert validate_chain_map(f) == f"degree 0: component (0,0) {problem}"
    with pytest.raises(ValueError) as raised:
        is_null_homotopic(f)
    assert str(raised.value) == f"not a chain map: degree 0: component (0,0) {problem}"


def test_validate_rejects_nonzero_square():
    spec = AlgebraSpec(2, 1)
    tail = PathCombination.of(make_path(spec, [-1]))
    cycle = PathCombination.of(make_path(spec, [0]))
    c = make_complex(
        spec,
        {0: (-1,), 1: (0,), 2: (1,)},
        {0: ((tail,),), 1: ((cycle,),)},
    )
    assert "square" in validate_complex(c)


def test_shift_signs_differentials():
    spec = AlgebraSpec(2, 1)
    c = two_term(spec)
    s = shift(c, 1)
    assert s.summand(-1) == (-1,)
    assert s.diff(-1)[0][0] == -c.diff(0)[0][0]
    assert shift(s, -1).key() == c.key()
    assert shift(c, 2).diffs[-2] == c.diffs[0]


def test_stalk_hom_dimensions():
    spec = AlgebraSpec(2, 1)
    assert hom_space_dimension(stalk_complex(spec, -1), stalk_complex(spec, 0)) == 1
    assert hom_space_dimension(stalk_complex(spec, 0), stalk_complex(spec, -1)) == 0
    assert hom_space_dimension(stalk_complex(spec, 0), stalk_complex(spec, 0, 1)) == 0


def test_hom_rejects_complexes_over_different_algebras():
    c = stalk_complex(AlgebraSpec(2, 1), -1)
    d = stalk_complex(AlgebraSpec(3, 2), -1)
    for hom in (hom_space, hom_space_dimension):
        with pytest.raises(ValueError, match="hom across different algebras"):
            hom(c, d)
        with pytest.raises(ValueError, match="hom across different algebras"):
            hom(d, c)


def test_hom_rejects_a_summand_outside_the_algebra():
    spec = AlgebraSpec(2, 1)
    bad = make_complex(spec, {0: (7,)}, {})
    for hom in (hom_space, hom_space_dimension):
        for c, d in ((bad, stalk_complex(spec, 0)), (stalk_complex(spec, 0), bad)):
            with pytest.raises(ValueError, match="not in AlgebraSpec"):
                hom(c, d)


def test_hom_space_basis_members_are_chain_maps(spec):
    quads = enumerate_quadruples(spec, -1, 1, 2)[:6]
    for qs in quads:
        for qt in quads:
            c, d = build_complex(spec, qs), build_complex(spec, qt)
            basis = hom_space(c, d).basis
            assert len(basis) == hom_space_dimension(c, d)
            for f in basis:
                assert validate_chain_map(f) is None
                assert not is_null_homotopic(f)
            if len(basis) > 1:
                assert homotopy_rank(list(basis)) == len(basis)


def test_identity_and_zero_maps():
    spec = AlgebraSpec(2, 1)
    c = two_term(spec)
    ident = identity_chain_map(c)
    assert validate_chain_map(ident) is None
    assert not is_null_homotopic(ident)
    assert is_null_homotopic(zero_chain_map(c, c))
    assert is_null_homotopic(add_chain_maps(ident, scale_chain_map(ident, -1)))


def test_chain_maps_add_only_with_one_source_and_one_target():
    spec = AlgebraSpec(1, 0)
    p = stalk_complex(spec, 0)
    ident = identity_chain_map(p)
    # the identity of P[1] sits at degree -1: the sum had a component P has no room for
    shifted = identity_chain_map(shift(p, 1))
    for f, g in ((ident, shifted), (shifted, ident), (ident, zero_chain_map(p, shift(p, 1)))):
        with pytest.raises(ValueError) as raised:
            add_chain_maps(f, g)
        assert str(raised.value) == "chain maps do not add: sources or targets differ"
    # a map P -> P with the 2x2 components of the identity of P (+) P: zip truncated the sum
    wide = ChainMap(p, p, identity_chain_map(direct_sum(p, p)).components)
    for f, g in ((ident, wide), (wide, ident)):
        with pytest.raises(ValueError) as raised:
            add_chain_maps(f, g)
        assert str(raised.value) == "degree 0: component shape does not match summands"
    # equal endpoints that are different objects still add
    twin = identity_chain_map(stalk_complex(spec, 0))
    assert twin.source is not p
    assert add_chain_maps(ident, twin).components == {0: ((PathCombination.of(Path(0, ()), 2),),)}


def test_chain_maps_compose_only_through_one_middle_complex():
    # the cone of the loop and P (+) P[1] have one set of summands, not one differential
    spec = AlgebraSpec(1, 0)
    p = stalk_complex(spec, 0)
    cone = mapping_cone(make_chain_map(p, p, {0: ((PathCombination.of(Path(0, (0,))),),)}))
    split = direct_sum(p, shift(p, 1))
    assert cone.summands == split.summands
    with pytest.raises(ValueError) as raised:
        compose_chain_maps(identity_chain_map(cone), identity_chain_map(split))
    assert str(raised.value) == "chain maps do not compose: middle complexes differ"


def _unit(v: int) -> PathCombination:
    return PathCombination.of(Path(v, ()))


def test_a_short_component_raises_though_its_padding_is_null_homotopic():
    # the inclusion of the first summand of cone (+) cone, cone contractible,
    # written with one row per degree where the target has two
    spec = AlgebraSpec(1, 0)
    cone = mapping_cone(identity_chain_map(stalk_complex(spec, 0)))
    both = direct_sum(cone, cone)
    zero = PathCombination.zero()
    padded = ChainMap(cone, both, {i: ((_unit(0),), (zero,)) for i in (-1, 0)})
    assert validate_chain_map(padded) is None and is_null_homotopic(padded)
    short = ChainMap(cone, both, {i: ((_unit(0),),) for i in (-1, 0)})
    assert quotient(cone, both).contains(short)
    with pytest.raises(ValueError) as raised:
        is_null_homotopic(short)
    assert str(raised.value) == "not a chain map: degree -1: component shape does not match summands"


def test_a_map_that_is_not_a_chain_map_raises_the_unchanged_message():
    spec = AlgebraSpec(1, 0)
    p = stalk_complex(spec, 0)
    loop = make_complex(spec, {0: (0,), 1: (0,)}, {0: ((PathCombination.of(Path(0, (0,))),),)})
    f = make_chain_map(p, loop, {0: ((_unit(0),),)})
    with pytest.raises(ValueError) as raised:
        is_null_homotopic(f)
    assert str(raised.value) == "not a chain map: degree 0: does not commute with the differentials"


def test_maps_over_two_algebras_raise_the_unchanged_message():
    f = zero_chain_map(stalk_complex(AlgebraSpec(1, 0), 0), stalk_complex(AlgebraSpec(2, 1), 0))
    with pytest.raises(ValueError) as raised:
        is_null_homotopic(f)
    assert str(raised.value) == "not a chain map: source and target live over different algebras"


def test_a_chain_map_that_is_not_null_homotopic_gives_false():
    spec = AlgebraSpec(2, 1)
    c = two_term(spec)
    assert is_null_homotopic(identity_chain_map(c)) is False
    p = stalk_complex(spec, 0)
    assert is_null_homotopic(make_chain_map(p, p, {0: ((_unit(0),),)})) is False


def test_a_yes_never_multiplies_out_the_chain_equation(monkeypatch):
    calls = []
    residual = complexes._lowest_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(complexes, "_lowest_residual", counted)
    spec = AlgebraSpec(2, 1)
    cone = mapping_cone(identity_chain_map(two_term(spec)))
    assert is_null_homotopic(identity_chain_map(cone))
    assert is_null_homotopic(zero_chain_map(cone, two_term(spec)))
    for c in (build_complex(spec, q) for q in enumerate_quadruples(spec, -1, 1, 2)[:6]):
        inc, proj = cone_maps(identity_chain_map(c))
        assert is_null_homotopic(compose_chain_maps(proj, inc))
    assert calls == []
    # a "no" multiplies it out once, to tell a non-map from a map
    assert not is_null_homotopic(identity_chain_map(two_term(spec)))
    assert len(calls) == 1


def test_cone_of_identity_is_contractible():
    spec = AlgebraSpec(2, 1)
    for q in [(0, 0, 1, 1), (0, 0, 0, -1), (0, 1, 0, 1)]:
        c = build_complex(spec, Quadruple(*q))
        cone = mapping_cone(identity_chain_map(c))
        assert validate_complex(cone) is None
        assert is_contractible(cone)
        assert minimal_model(cone).is_zero()


def test_cone_triangle_pieces_compose_to_zero(spec):
    quads = enumerate_quadruples(spec, -1, 1, 2)[:5]
    for qs in quads:
        for qt in quads:
            c, d = build_complex(spec, qs), build_complex(spec, qt)
            for f in hom_space(c, d).basis:
                inc, proj = cone_maps(f)
                assert inc.target is proj.source
                assert inc.target.key() == mapping_cone(f).key()
                assert validate_complex(inc.target) is None
                assert validate_chain_map(inc) is None
                assert validate_chain_map(proj) is None
                assert is_null_homotopic(compose_chain_maps(inc, f))
                assert is_null_homotopic(compose_chain_maps(proj, inc))


def test_cones_reject_a_map_across_two_algebras():
    # such a cone would hold the target's vertices over the source's algebra
    c = stalk_complex(AlgebraSpec(2, 1), -1)
    d = stalk_complex(AlgebraSpec(3, 2), 2)
    for f in (zero_chain_map(c, d), zero_chain_map(d, c)):
        for cone in (mapping_cone, cone_maps):
            with pytest.raises(ValueError) as raised:
                cone(f)
            assert str(raised.value) == "cone across different algebras"
    for a, b in ((c, d), (d, c)):
        with pytest.raises(ValueError) as raised:
            direct_sum(a, b)
        assert str(raised.value) == "cone across different algebras"


def test_combinations_only_of_maps_between_their_own_ends():
    spec = AlgebraSpec(2, 1)
    c = build_complex(spec, Quadruple(0, 0, 1, 1))
    d = build_complex(spec, Quadruple(0, 0, 2, 0))
    basis = hom_space(c, c).basis
    # the sum of C's endomorphisms read as a map D -> D does not commute with D's differential
    for source, target in ((d, d), (c, d), (d, c)):
        with pytest.raises(ValueError) as raised:
            combine_chain_maps(source, target, basis, {0: 1})
        assert str(raised.value) == "chain maps do not combine: sources or targets differ"
    # equal ends that are different objects still combine
    again = loads_complex(dumps_complex(c))
    assert again is not c
    assert combine_chain_maps(again, again, basis, {0: 1}).key() == basis[0].key()


def test_homotopy_rank_counts_modulo_null_maps():
    spec = AlgebraSpec(1, 0)
    c = build_complex(spec, Quadruple(0, 0, 0, 0))
    basis = hom_space(c, c).basis
    assert len(basis) == 2
    assert homotopy_rank(list(basis)) == 2
    assert homotopy_rank([basis[0], basis[0]]) == 1
    assert homotopy_rank([zero_chain_map(c, c)]) == 0
    assert homotopy_rank([]) == 0
    with pytest.raises(ValueError) as raised:
        homotopy_rank([basis[0], identity_chain_map(shift(c, 1))])
    assert str(raised.value) == "maps must share source and target"


def test_direct_sum_addition_of_dimensions():
    spec = AlgebraSpec(2, 1)
    a = build_complex(spec, Quadruple(0, 0, 1, 1))
    b = build_complex(spec, Quadruple(0, 1, 0, 1))
    s = direct_sum(a, b)
    assert validate_complex(s) is None
    for q in enumerate_quadruples(spec, 0, 0, 1)[:4]:
        t = build_complex(spec, q)
        assert hom_space_dimension(s, t) == hom_space_dimension(
            a, t
        ) + hom_space_dimension(b, t)


def test_is_isomorphic_examples():
    spec = AlgebraSpec(2, 1)
    c = build_complex(spec, Quadruple(0, 0, 1, 1))
    assert is_isomorphic_K(c, c)
    assert not is_isomorphic_K(c, shift(c, 1))
    assert not is_isomorphic_K(c, build_complex(spec, Quadruple(0, 1, 0, 1)))
    # adding a contractible summand does not change the isomorphism class
    padded = direct_sum(c, mapping_cone(identity_chain_map(stalk_complex(spec, 0))))
    result = is_isomorphic_K(padded, c)
    assert result
    assert validate_chain_map(result.forward) is None
    assert validate_chain_map(result.backward) is None
    round_trip = compose_chain_maps(result.backward, result.forward)
    ident = identity_chain_map(padded)
    assert is_null_homotopic(add_chain_maps(round_trip, scale_chain_map(ident, -1)))


def test_minimal_model_strips_contractibles(spec):
    for q in enumerate_quadruples(spec, -1, 1, 2)[:6]:
        c = build_complex(spec, q)
        padded = direct_sum(
            c, mapping_cone(identity_chain_map(stalk_complex(spec, 0, -1)))
        )
        model = minimal_model(padded)
        assert model.key() == c.key()


def test_shift_chain_map_stays_valid():
    spec = AlgebraSpec(2, 1)
    c = build_complex(spec, Quadruple(0, 0, 1, 1))
    d = build_complex(spec, Quadruple(0, 0, 0, -1))
    for f in hom_space(c, d).basis:
        g = shift_chain_map(f, 1)
        assert validate_chain_map(g) is None
        assert g.source.key() == shift(c, 1).key()


def test_serialization_round_trip(spec):
    for q in enumerate_quadruples(spec, -1, 1, 2)[:8]:
        c = build_complex(spec, q)
        again = loads_complex(dumps_complex(c))
        assert again.key() == c.key()
        assert dumps_complex(again) == dumps_complex(c)


def test_complexes_are_written_with_the_schema_key(spec):
    c = build_complex(spec, enumerate_quadruples(spec, -1, 1, 2)[0])
    obj = complex_to_obj(c)
    assert obj["schema"] == 1 and "schema_version" not in obj
    assert complex_from_obj(obj).key() == c.key()
    assert complex_from_obj(json.loads(dumps_complex(c))) == c
    # the legacy version key is not read: without "schema" the version is None
    legacy = {"schema_version": 1, **{k: v for k, v in obj.items() if k != "schema"}}
    with pytest.raises(ValueError, match=r"^unsupported schema None$"):
        complex_from_obj(legacy)


@pytest.mark.parametrize("version", [2, 0, "1", None])
def test_a_wrong_schema_value_is_rejected(version):
    obj = complex_to_obj(stalk_complex(AlgebraSpec(1, 0), 0))
    obj["schema"] = version
    with pytest.raises(ValueError, match="unsupported schema"):
        complex_from_obj(obj)


@pytest.mark.parametrize(
    "degrees, differentials, problem",
    [
        # L(1,0) has the single quiver vertex 0
        ('{"0":[5]}', "{}", "summand vertex 5 not in the algebra"),
        ('{"0":[0],"1":[-1]}', "{}", "summand vertex -1 not in the algebra"),
        # a differential out of degree 0 with no summand in degree 1
        ('{"0":[0]}', '{"0":[[[[[0],1,1]]]]}', "differential shape"),
        # a stationary entry in a second row, with one summand in degree 1
        ('{"0":[0],"1":[0]}', '{"0":[[[[[],1,1]]],[[[[],1,1]]]]}', "IndexError"),
        ('{"0":[0],"1":[0]}', '{"0":[[[[[0],1,0]]]]}', "ZeroDivisionError"),
        ("[1]", "{}", "AttributeError"),
        (None, "{}", "KeyError: 'degrees'"),
    ],
)
def test_loader_rejects_malformed_complexes(degrees, differentials, problem):
    degrees = "" if degrees is None else f'"degrees":{degrees},'
    text = (
        '{"schema":1,"algebra":[1,0],'
        f'{degrees}"differentials":{differentials}}}'
    )
    with pytest.raises(ValueError, match=problem):
        loads_complex(text)


@pytest.mark.parametrize(
    "algebra, degrees, differentials, problem",
    [
        # int() would have read each of these silently: 1.5 as 1, 1.9 as 1,
        # 0.7 as 0 and true as 1
        ("[1,0]", '{"0":[0],"1":[0]}', '{"0":[[[[[0],1.5,1]]]]}', "numerator or denominator 1.5"),
        ("[1,0]", '{"0":[0],"1":[0]}', '{"0":[[[[[0],1,2.0]]]]}', "numerator or denominator 2.0"),
        ("[1,0]", '{"0":[0],"1":[0]}', '{"0":[[[[[0],true,1]]]]}', "numerator or denominator True"),
        ("[1.9,0]", '{"0":[0]}', "{}", "algebra parameter 1.9"),
        ("[1,false]", '{"0":[0]}', "{}", "algebra parameter False"),
        ("[1,0]", '{"0":[0.7]}', "{}", "vertex 0.7"),
        ("[1,0]", '{"0":[true]}', "{}", "vertex True"),
        ("[1,0]", '{"0":[0],"1":[0]}', '{"0":[[[[[0.0],1,1]]]]}', "arrow 0.0"),
        ("[1,0]", '{"0":[0],"1":[0]}', '{"0":[[[[["0"],1,1]]]]}', "arrow '0'"),
    ],
)
def test_loader_reads_only_json_integers(algebra, degrees, differentials, problem):
    text = (
        f'{{"schema":1,"algebra":{algebra},'
        f'"degrees":{degrees},"differentials":{differentials}}}'
    )
    with pytest.raises(ValueError) as info:
        loads_complex(text)
    assert str(info.value) == f"malformed complex: TypeError: {problem} is not an integer"


@pytest.mark.parametrize(
    "degrees, differentials, message",
    [
        # int() read "1_0" as 10, and " +3 " and "3" as one degree, dropping a summand list
        ('{"1_0":[0]}', "{}", "degrees key '1_0' is not an integer"),
        ('{" +3 ":[0],"3":[0]}', "{}", "degrees keys ' +3 ' and '3' name one degree"),
        ('{"0":[0],"1.0":[0]}', "{}", "degrees key '1.0' is not an integer"),
        ('{"":[0]}', "{}", "degrees key '' is not an integer"),
        ('{"\\u0663":[0]}', "{}", "degrees key '\u0663' is not an integer"),
        ('{"0":[0],"1":[0]}', '{"0x0":[]}', "differentials key '0x0' is not an integer"),
        (
            '{"0":[0],"1":[0]}',
            '{"0":[[[[[0],1,1]]]],"-0":[]}',
            "differentials keys '0' and '-0' name one degree",
        ),
        # \s matches the separator \x1c and int() refuses it, in its own words
        ('{"\\u001c3":[0]}', "{}", "degrees key '\\x1c3' is not an integer"),
    ],
)
def test_degree_keys_are_signed_ascii_integers(degrees, differentials, message):
    text = f'{{"schema":1,"algebra":[1,0],"degrees":{degrees},"differentials":{differentials}}}'
    with pytest.raises(ValueError) as info:
        loads_complex(text)
    assert str(info.value) == f"malformed complex: {message}"


@pytest.mark.parametrize("algebra, count", [("[1,0,99]", 3), ('[1,0,"x"]', 3), ("[1]", 1)])
def test_loader_demands_two_algebra_parameters(algebra, count):
    # the loader read algebra[:2], so [1,0,99] and [1,0,"x"] loaded as L(1,0)
    text = f'{{"schema":1,"algebra":{algebra},"degrees":{{"0":[0]}},"differentials":{{}}}}'
    with pytest.raises(ValueError) as info:
        loads_complex(text)
    assert str(info.value) == f"malformed complex: TypeError: expected 2 algebra parameters, got {count}"


def test_a_complex_without_differentials_loads_without_a_path_table():
    # the path table of L(10^8, 0) has 10^8 vertices: building it did not end in 5 s
    text = '{"schema":1,"algebra":[100000000,0],"degrees":{"0":[5]},"differentials":{}}'
    start = time.perf_counter()
    c = loads_complex(text)
    assert time.perf_counter() - start < 1.0
    assert repr(c) == "ProjComplex(0:[5])"
    assert (AlgebraSpec(100000000, 0),) not in memo_table("algebra.path_table")


def test_loader_names_the_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts any number of digits")
    long = "1" + "0" * limit
    # the interpreter's message named sys.set_int_max_str_digits() instead
    head = '{"schema":1,"algebra":[1,0],"degrees":'
    with pytest.raises(ValueError) as info:
        loads_complex(head + f'{{"{long}":[0]}},"differentials":{{}}}}')
    assert str(info.value) == f"malformed complex: degrees key 100000000000... has more than {limit} digits"
    with pytest.raises(ValueError) as info:
        loads_complex(head + f'{{"0":[0],"1":[0]}},"differentials":{{"0":[[[[[0],{long},1]]]]}}}}')
    assert str(info.value) == f"integer 100000000000... has more than {limit} digits"


def test_degree_keys_may_carry_a_sign_and_whitespace():
    head = '{"schema":1,"algebra":[1,0],'
    plain = loads_complex(head + '"degrees":{"0":[0],"1":[0]},"differentials":{"0":[[[[[0],1,1]]]]}}')
    spelled = loads_complex(
        head + '"degrees":{" -0 ":[0],"+1":[0]},"differentials":{"\\t0":[[[[[0],1,1]]]]}}'
    )
    assert dumps_complex(spelled) == dumps_complex(plain)


def test_the_loader_keeps_a_fraction_that_is_not_an_integer():
    head = '{"schema":1,"algebra":[1,0],"degrees":{"0":[0],"1":[0]},"differentials":'
    loaded = loads_complex(head + '{"0":[[[[[0],3,2],[[0],-4,2]]]]}}')
    # 3/2 a(0) - 4/2 a(0) is -1/2 a(0), a Fraction; 6/3 a(0) is the int 2 times a(0)
    (entry,) = loaded.diffs[0][0]
    assert list(entry.terms()) == [(Path(0, (0,)), Fraction(-1, 2))]
    whole = loads_complex(head + '{"0":[[[[[0],6,3]]]]}}')
    assert [type(c) for _, c in whole.diffs[0][0][0].terms()] == [int]
    assert dumps_complex(whole) == dumps_complex(loads_complex(head + '{"0":[[[[[0],2,1]]]]}}'))


def test_loader_drops_degrees_without_summands():
    spec = AlgebraSpec(1, 0)
    head = '{"schema":1,"algebra":[1,0],'
    empty = loads_complex(head + '"degrees":{"0":[]},"differentials":{}}')
    assert empty.is_zero()
    assert empty.key() == zero_complex(spec).key()
    # a stalk written with an empty degree above it, and a differential of no rows
    stalk = loads_complex(head + '"degrees":{"0":[0],"1":[]},"differentials":{"0":[]}}')
    assert stalk.summands == {0: (0,)}
    assert stalk.key() == stalk_complex(spec, 0).key()
    assert dumps_complex(stalk) == dumps_complex(stalk_complex(spec, 0))


def test_a_zero_differential_written_out_is_dropped():
    spec = AlgebraSpec(1, 0)
    summands = {0: (0,), 1: (0,)}
    zero = PathCombination.zero()
    bare = make_complex(spec, summands, {})
    written = make_complex(spec, summands, {0: ((zero,),)})
    assert written.diffs == {}
    assert written.key() == bare.key()
    assert quotient(written, written)._core is quotient(bare, bare)._core
    head = '{"schema":1,"algebra":[1,0],"degrees":{"0":[0],"1":[0]},'
    loaded = loads_complex(head + '"differentials":{"0":[[[]]]}}')
    assert dumps_complex(loaded) == dumps_complex(loads_complex(head + '"differentials":{}}'))
    assert dumps_complex(loaded) == dumps_complex(bare)


def test_a_misshaped_zero_differential_is_kept():
    spec = AlgebraSpec(1, 0)
    zero = PathCombination.zero()
    for summands in ({0: (0,), 1: (0,)}, {0: (0,)}):
        c = make_complex(spec, summands, {0: ((zero, zero),)})
        assert c.diffs == {0: ((zero, zero),)}
        assert validate_complex(c) == "degree 0: differential shape does not match summands"


def test_loader_still_rejects_entries_into_an_empty_degree():
    text = (
        '{"schema":1,"algebra":[1,0],'
        '"degrees":{"0":[0],"1":[]},"differentials":{"0":[[[[[0],1,1]]]]}}'
    )
    with pytest.raises(ValueError, match="malformed complex: degree 0: differential shape"):
        loads_complex(text)


def test_zero_complex_edge_cases():
    spec = AlgebraSpec(2, 1)
    z = zero_complex(spec)
    assert z.is_zero()
    assert validate_complex(z) is None
    c = build_complex(spec, Quadruple(0, 0, 1, 1))
    assert hom_space_dimension(z, c) == 0
    assert hom_space_dimension(c, z) == 0
    assert is_isomorphic_K(z, zero_complex(spec))
    assert not is_isomorphic_K(z, c)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_composites_are_chain_maps(data):
    n, m = data.draw(st.sampled_from(ALGEBRA_PARAMS))
    spec = AlgebraSpec(n, m)
    quads = enumerate_quadruples(spec, -1, 1, 2)
    qa, qb, qc = (data.draw(st.sampled_from(quads)) for _ in range(3))
    a, b, c = (build_complex(spec, q) for q in (qa, qb, qc))
    fs = hom_space(a, b).basis
    gs = hom_space(b, c).basis
    if not fs or not gs:
        return
    f = data.draw(st.sampled_from(fs))
    g = data.draw(st.sampled_from(gs))
    composite = compose_chain_maps(g, f)
    assert validate_chain_map(composite) is None
    # bilinearity of composition
    two_f = add_chain_maps(f, f)
    assert compose_chain_maps(g, two_f).key() == scale_chain_map(composite, 2).key()


def _validate_first(f: ChainMap):
    """is_null_homotopic as it was: every check of validate_chain_map, then contains."""
    problem = validate_chain_map(f)
    if problem is not None:
        return f"not a chain map: {problem}"
    return quotient(f.source, f.target).contains(f)


def _outcome(f: ChainMap):
    try:
        return is_null_homotopic(f)
    except ValueError as exc:
        return str(exc)


def _corrupted(rng, f: ChainMap, paths) -> ChainMap:
    """f with one component changed: an entry replaced, a row dropped or added, or a stray degree."""
    comps = {i: [list(row) for row in m] for i, m in f.components.items()}
    kind = rng.randrange(4)
    if kind == 3 or not comps:
        i = rng.choice(sorted(set(f.source.summands) | set(f.target.summands) | {7}))
        rows = len(f.target.summand(i)) or 1
        cols = len(f.source.summand(i)) or 1
        comps[i] = [[PathCombination.of(rng.choice(paths)) for _ in range(cols)] for _ in range(rows)]
    else:
        i = rng.choice(sorted(comps))
        mat = comps[i]
        if kind == 0 and mat and mat[0]:
            r, col = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
            mat[r][col] = mat[r][col] + PathCombination.of(rng.choice(paths), rng.choice((1, -2)))
        elif kind == 1 and mat:
            del mat[rng.randrange(len(mat))]
        else:
            mat.append([PathCombination.zero() for _ in (mat[0] if mat else ())])
    return ChainMap(f.source, f.target, {i: tuple(tuple(r) for r in m) for i, m in comps.items()})


@pytest.mark.parametrize("n, m", ALGEBRA_PARAMS)
def test_is_null_homotopic_answers_as_validating_first(n, m):
    spec = AlgebraSpec(n, m)
    rng = random.Random(n * 10 + m)
    quads = enumerate_quadruples(spec, -1, 1, 2)
    # every nonzero path, a path of another algebra's arrow, and a zero word
    paths = [p for u in spec.vertices for v in spec.vertices for p in hom_basis_proj(spec, v, u)]
    paths += [Path(0, (spec.n,)), Path(-spec.m, (-spec.m, -spec.m))]
    seen = set()
    for _ in range(60):
        c, d = (build_complex(spec, rng.choice(quads)) for _ in range(2))
        maps = hom_space(c, d).basis or [zero_chain_map(c, d)]
        f = rng.choice(maps)
        for g in (f, add_chain_maps(f, scale_chain_map(f, -1)), _corrupted(rng, f, paths)):
            expected = _validate_first(g)
            assert _outcome(g) == expected
            seen.add(expected if isinstance(expected, bool) else expected.split(": ")[-1])
    assert {True, False} <= seen and len(seen) >= 4
