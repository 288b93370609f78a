"""The two-coefficient model category and its comparison with complexes."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALGEBRA_PARAMS
from kbproj import basismaps
from kbproj.algebra import AlgebraSpec
from kbproj.complexes import (
    add_chain_maps,
    clear_caches,
    compose_chain_maps,
    hom_space_dimension,
    is_isomorphic_K,
    is_null_homotopic,
    scale_chain_map,
    shift,
    stalk_complex,
    validate_chain_map,
)
from kbproj.gamma import (
    GammaHom,
    GammaVertex,
    compose_coeffs,
    gamma_compose,
    gamma_hom_dim,
    hom_add,
    hom_f,
    hom_g,
    hom_scale,
    identity_hom,
    in_F,
    in_G,
    invert_hom,
    irreducible_targets,
    is_irreducible,
    is_isomorphism,
    is_shifted_projective,
    is_vertex,
    projective_vertex,
    radical_degree,
    scaled,
    suspend_hom,
    suspend_vertex,
    theta_hom,
    theta_vertex,
    unsuspend_hom,
    unsuspend_vertex,
    zero_hom,
)
from kbproj.quadruples import Quadruple, build_complex, suspend_quadruple
from kbproj.rigidity import ConnectingIsoData


def grid(spec: AlgebraSpec, lo: int, hi: int) -> list[GammaVertex]:
    return [
        GammaVertex(i, a, b)
        for i in range(spec.n)
        for a in range(lo, hi + 1)
        for b in range(lo, hi + 1)
        if is_vertex(spec, GammaVertex(i, a, b))
    ]


def test_vertex_membership():
    spec = AlgebraSpec(2, 1)
    assert is_vertex(spec, GammaVertex(0, 0, 0))
    assert is_vertex(spec, GammaVertex(0, 1, 0))  # sheet 0 allows a <= b + m
    assert not is_vertex(spec, GammaVertex(1, 1, 0))
    assert not is_vertex(spec, GammaVertex(2, 0, 0))
    assert is_vertex(AlgebraSpec(1, 0), GammaVertex(0, 5, 5))
    assert not is_vertex(AlgebraSpec(1, 0), GammaVertex(0, 1, 0))


def test_hom_dim_is_membership_count(spec):
    vertices = grid(spec, -2, 2)
    for v in vertices:
        for u in vertices:
            assert gamma_hom_dim(spec, v, u) == int(in_F(spec, v, u)) + int(
                in_G(spec, v, u)
            )


def test_identity_is_f_plus_maybe_g():
    spec = AlgebraSpec(2, 1)
    v = GammaVertex(0, 0, 0)
    assert in_F(spec, v, v)
    assert not in_G(spec, v, v)
    # only the band case admits a loop of the second kind
    loop = AlgebraSpec(1, 0)
    w = GammaVertex(0, 0, 1)
    assert in_G(loop, w, w)
    assert in_G(loop, GammaVertex(0, 0, 0), GammaVertex(0, 0, 0))


def test_composition_examples():
    spec = AlgebraSpec(2, 1)
    v, u, w = GammaVertex(0, 0, 0), GammaVertex(0, 0, 1), GammaVertex(0, 1, 1)
    f1 = hom_f(spec, v, u)
    f2 = hom_f(spec, u, w)
    assert gamma_compose(f2, f1) == hom_f(spec, v, w)
    g1 = hom_g(spec, v, GammaVertex(1, 0, 0))
    composed = gamma_compose(hom_f(spec, GammaVertex(1, 0, 0), GammaVertex(1, 0, 1)), g1)
    assert composed.g_coeff == 1 and composed.f_coeff == 0


def test_second_kind_squares_to_zero(spec):
    vertices = grid(spec, -1, 1)
    for v in vertices:
        for u in vertices:
            if not in_G(spec, v, u):
                continue
            for w in vertices:
                if in_G(spec, u, w):
                    assert gamma_compose(hom_g(spec, u, w), hom_g(spec, v, u)).is_zero()


def test_normal_form_rejects_missing_generators():
    spec = AlgebraSpec(2, 1)
    v, u = GammaVertex(0, 0, 0), GammaVertex(1, 0, 0)
    assert not in_F(spec, v, u)
    with pytest.raises(ValueError):
        GammaHom(spec, v, u, Fraction(1), Fraction(0))
    GammaHom(spec, v, u, Fraction(0), Fraction(1))  # second kind exists


@pytest.mark.parametrize("coeff", [0.1, 0.5, 1.0, True, "1e3", " 2 ", "1", None])
def test_coefficients_are_read_as_ints_or_fractions(coeff):
    # Fraction() read these: 0.1 became 3602879701896397/36028797018963968,
    # and True, "1e3" and " 2 " loaded as 1, 1000 and 2
    spec, v = AlgebraSpec(1, 0), GammaVertex(0, 0, 0)
    refused = f"coefficient {coeff!r} is neither an int nor a Fraction"
    for build in (
        lambda: GammaHom(spec, v, v, coeff, 0),
        lambda: GammaHom(spec, v, v, 1, coeff),
        lambda: hom_scale(identity_hom(spec, v), coeff),
        lambda: ConnectingIsoData(spec, ((v, coeff),)),
    ):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == refused
    h = GammaHom(spec, v, v, 2, Fraction(4, 6))
    assert (h.f_coeff, h.g_coeff) == (Fraction(2), Fraction(2, 3))
    assert all(type(c) is Fraction for c in (h.f_coeff, h.g_coeff))
    assert hom_scale(h, 3) == hom_scale(h, Fraction(3)) == GammaHom(spec, v, v, 6, 2)
    assert ConnectingIsoData(spec, ((v, 1),)).mu(v) == Fraction(1)


def test_sums_and_composites_reject_mixed_algebras():
    loop, tailed = AlgebraSpec(1, 0), AlgebraSpec(1, 1)
    s, t = GammaVertex(0, 0, 0), GammaVertex(0, 0, 1)
    # the g generator exists over L(1,1) only, so a sum taken under
    # either algebra would carry a coefficient the other cannot hold
    assert in_G(tailed, s, t) and not in_G(loop, s, t)
    plain = GammaHom(loop, s, t, Fraction(0), Fraction(0))
    deep = GammaHom(tailed, s, t, Fraction(0), Fraction(1))
    for h1, h2 in ((plain, deep), (deep, plain)):
        with pytest.raises(ValueError, match="different algebras"):
            hom_add(h1, h2)
    with pytest.raises(ValueError, match="different algebras"):
        gamma_compose(deep, identity_hom(loop, s))


def test_isomorphisms_and_inverses():
    spec = AlgebraSpec(1, 0)
    v = GammaVertex(0, 0, 1)
    h = GammaHom(spec, v, v, Fraction(2), Fraction(3))
    assert is_isomorphism(h)
    inv = invert_hom(h)
    assert gamma_compose(inv, h) == identity_hom(spec, v)
    assert gamma_compose(h, inv) == identity_hom(spec, v)
    assert not is_isomorphism(zero_hom(spec, v, v))
    with pytest.raises(ValueError):
        invert_hom(GammaHom(spec, v, v, Fraction(0), Fraction(1)))


def test_radical_degree_and_irreducibility():
    spec = AlgebraSpec(2, 1)
    v = GammaVertex(0, 0, 0)
    assert radical_degree(identity_hom(spec, v)) == 0
    f = hom_f(spec, v, GammaVertex(0, 0, 1))
    assert radical_degree(f) == 1
    assert is_irreducible(f)
    far = hom_f(spec, v, GammaVertex(0, 0, 2))
    assert radical_degree(far) == 2
    assert not is_irreducible(far)


def test_irreducible_targets_shape(spec):
    for v in grid(spec, -1, 1):
        targets = irreducible_targets(spec, v)
        assert 1 <= len(targets) <= 2
        for t in targets:
            assert is_vertex(spec, t)
            assert gamma_hom_dim(spec, v, t) >= 1


def test_suspension_is_a_bijection(spec):
    for v in grid(spec, -2, 2):
        s = suspend_vertex(spec, v)
        assert is_vertex(spec, s)
        assert unsuspend_vertex(spec, s) == v


def test_suspension_transports_homs(spec):
    vertices = grid(spec, -1, 1)
    for v in vertices:
        for u in vertices:
            for h in (
                [hom_f(spec, v, u)] if in_F(spec, v, u) else []
            ) + ([hom_g(spec, v, u)] if in_G(spec, v, u) else []):
                moved = suspend_hom(h)
                assert moved.source == suspend_vertex(spec, v)
                assert moved.target == suspend_vertex(spec, u)
                assert unsuspend_hom(moved) == h


def test_projective_vertices_are_stalks(spec):
    for j in spec.vertices:
        v = projective_vertex(spec, j)
        assert is_shifted_projective(spec, v) == (j, 0)
        c = build_complex(spec, theta_vertex(spec, v))
        assert is_isomorphic_K(c, stalk_complex(spec, j))


def test_shifted_projective_detection():
    spec = AlgebraSpec(2, 1)
    assert is_shifted_projective(spec, GammaVertex(1, 1, 1)) == (-1, 1)
    assert is_shifted_projective(spec, GammaVertex(0, 0, 0)) == (0, 0)
    assert is_shifted_projective(spec, GammaVertex(0, 0, 1)) is None


@pytest.mark.parametrize("n, m", [*ALGEBRA_PARAMS, (4, 3)])
def test_shifted_projectives_are_the_suspensions_of_projectives(n, m):
    # every t-fold suspension of a projective, found by stepping one suspension
    # at a time; a suspension moves a by at least 1, so |t| <= R reaches |a| <= R
    spec, R = AlgebraSpec(n, m), 12
    table = {}
    for j in spec.vertices:
        for step, sign in ((suspend_vertex, 1), (unsuspend_vertex, -1)):
            v = projective_vertex(spec, j)
            for t in range(R + 1):
                table[v] = (j, sign * t)
                v = step(spec, v)
    for i in range(n):
        for a in range(-R, R + 1):
            for b in range(-R, R + 1):
                v = GammaVertex(i, a, b)
                if is_vertex(spec, v):
                    assert is_shifted_projective(spec, v) == table.get(v), v


def test_a_far_shifted_projective_is_found_by_whole_periods():
    # n = 3 suspensions move a and b by n + m = 5, so a = 5p is t = 3p
    spec = AlgebraSpec(3, 2)
    start = time.perf_counter()
    assert is_shifted_projective(spec, GammaVertex(0, 10**9, 10**9)) == (0, 6 * 10**8)
    assert is_shifted_projective(spec, GammaVertex(0, -(10**9), -(10**9))) == (0, -6 * 10**8)
    assert is_shifted_projective(spec, GammaVertex(1, 10**9, 10**9 + 1)) is None
    assert time.perf_counter() - start < 0.1


def test_theta_frozen_values():
    loop = AlgebraSpec(1, 0)
    assert theta_vertex(loop, GammaVertex(0, 0, 0)) == Quadruple(0, 0, 0, 0)
    assert theta_vertex(loop, GammaVertex(0, 0, 1)) == Quadruple(-1, 0, 1, 0)
    assert theta_vertex(loop, GammaVertex(0, 0, 2)) == Quadruple(-2, 0, 2, 0)
    assert theta_vertex(loop, GammaVertex(0, 1, 1)) == Quadruple(-1, 0, 0, 0)
    spec = AlgebraSpec(1, 1)
    assert theta_vertex(spec, GammaVertex(0, 1, 0)) == Quadruple(0, 0, 0, -1)
    assert theta_vertex(spec, GammaVertex(0, 0, 1)) == Quadruple(-1, -1, 1, 0)
    assert theta_vertex(spec, GammaVertex(0, 2, 1)) == Quadruple(-1, -1, 0, -1)
    assert theta_vertex(spec, GammaVertex(0, 3, 2)) == Quadruple(-1, 0, 0, -1)
    spec = AlgebraSpec(3, 2)
    assert theta_vertex(spec, GammaVertex(1, 1, 1)) == Quadruple(-1, -2, 0, -2)
    assert theta_vertex(spec, GammaVertex(1, 1, 2)) == Quadruple(-1, -1, 0, -1)
    spec = AlgebraSpec(2, 1)
    assert theta_vertex(spec, GammaVertex(1, 1, 1)) == Quadruple(-1, -1, 0, -1)


def test_theta_is_injective_on_windows(spec):
    vertices = grid(spec, -2, 2)
    images = [theta_vertex(spec, v) for v in vertices]
    assert len(set(images)) == len(images)


def test_theta_commutes_with_suspension_strictly(spec):
    for v in grid(spec, -2, 2):
        assert theta_vertex(spec, suspend_vertex(spec, v)) == suspend_quadruple(
            theta_vertex(spec, v)
        )


def test_theta_hom_transports_bases(spec):
    vertices = grid(spec, -1, 1)
    for v in vertices:
        for u in vertices:
            expected = gamma_hom_dim(spec, v, u)
            got = hom_space_dimension(
                build_complex(spec, theta_vertex(spec, v)),
                build_complex(spec, theta_vertex(spec, u)),
            )
            assert expected == got
            for h in (
                [hom_f(spec, v, u)] if in_F(spec, v, u) else []
            ) + ([hom_g(spec, v, u)] if in_G(spec, v, u) else []):
                chain = theta_hom(h)
                assert validate_chain_map(chain) is None
                assert not is_null_homotopic(chain)


@pytest.mark.parametrize("membership, kind", [("_in_phi", "phi"), ("_in_psi", "psi")])
def test_theta_hom_leaves_the_basis_map_check_to_basismaps(monkeypatch, membership, kind):
    # with the membership test broken, the generator's basis map is missing and
    # theta_hom raises the error of phi_map or psi_map, which run the check
    spec, v = AlgebraSpec(1, 0), GammaVertex(0, 0, 0)
    generator = hom_f(spec, v, v) if kind == "phi" else hom_g(spec, v, v)
    clear_caches()
    monkeypatch.setattr(basismaps, membership, lambda spec, q_target, q_source: False)
    try:
        with pytest.raises(ValueError) as raised:
            theta_hom(generator)
        assert str(raised.value) == f"{kind} not defined for (0, 0, 0, 0) -> (0, 0, 0, 0)"
    finally:
        clear_caches()


def test_theta_functoriality_small_window():
    spec = AlgebraSpec(2, 1)
    vertices = grid(spec, -1, 1)
    gens = []
    for v in vertices:
        for u in vertices:
            if in_F(spec, v, u) and v != u:
                gens.append(hom_f(spec, v, u))
            if in_G(spec, v, u):
                gens.append(hom_g(spec, v, u))
    for h1 in gens:
        for h2 in gens:
            if h2.source != h1.target:
                continue
            lhs = compose_chain_maps(theta_hom(h2), theta_hom(h1))
            composite = gamma_compose(h2, h1)
            if not composite.is_zero():
                lhs = add_chain_maps(lhs, scale_chain_map(theta_hom(composite), -1))
            assert is_null_homotopic(lhs), (h1, h2)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def random_hom(draw, spec: AlgebraSpec, v: GammaVertex, u: GammaVertex):
    lam = draw(coeffs) if in_F(spec, v, u) else Fraction(0)
    mu = draw(coeffs) if in_G(spec, v, u) else Fraction(0)
    return GammaHom(spec, v, u, lam, mu)


@settings(max_examples=60)
@given(data=st.data())
def test_composition_is_bilinear_and_associative(data):
    n, m = data.draw(st.sampled_from(ALGEBRA_PARAMS))
    spec = AlgebraSpec(n, m)
    vertices = grid(spec, -1, 1)
    a, b, c, d = (data.draw(st.sampled_from(vertices)) for _ in range(4))
    h1 = data.draw(random_hom(spec, a, b))
    h2 = data.draw(random_hom(spec, b, c))
    h3 = data.draw(random_hom(spec, c, d))
    assert gamma_compose(h3, gamma_compose(h2, h1)) == gamma_compose(
        gamma_compose(h3, h2), h1
    )
    h2b = data.draw(random_hom(spec, b, c))
    t = data.draw(coeffs)
    assert gamma_compose(hom_add(h2, h2b), h1) == hom_add(
        gamma_compose(h2, h1), gamma_compose(h2b, h1)
    )
    assert gamma_compose(hom_scale(h2, t), h1) == hom_scale(gamma_compose(h2, h1), t)


kernel_coeffs = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@settings(max_examples=300)
@given(
    f2=kernel_coeffs, g2=kernel_coeffs, f1=kernel_coeffs, g1=kernel_coeffs,
    in_f=st.booleans(), in_g=st.booleans(),
)
def test_kernel_on_scaled_ints_matches_fractions(f2, g2, f1, g1, in_f, in_g):
    spec, v = AlgebraSpec(1, 0), GammaVertex(0, 0, 0)  # f and g both live on v -> v
    second, first = GammaHom(spec, v, v, f2, g2), GammaHom(spec, v, v, f1, g1)
    for h in (second, first):
        f, g, d = scaled(h)
        assert type(f) is type(g) is type(d) is int and d > 0
        assert (Fraction(f, d), Fraction(g, d)) == (h.f_coeff, h.g_coeff)
    (sf2, sg2, d2), (sf1, sg1, d1) = scaled(second), scaled(first)
    f, g = compose_coeffs(sf2, sg2, sf1, sg1, in_f, in_g)
    assert type(f) is type(g) is int
    expected = compose_coeffs(f2, g2, f1, g1, in_f, in_g)
    assert (Fraction(f, d1 * d2), Fraction(g, d1 * d2)) == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_theta_respects_random_combinations(data):
    n, m = data.draw(st.sampled_from(ALGEBRA_PARAMS))
    spec = AlgebraSpec(n, m)
    vertices = grid(spec, -1, 1)
    v = data.draw(st.sampled_from(vertices))
    u = data.draw(st.sampled_from(vertices))
    h = data.draw(random_hom(spec, v, u))
    if h.is_zero():
        return
    chain = theta_hom(h)
    rebuilt = None
    if h.f_coeff:
        rebuilt = scale_chain_map(theta_hom(hom_f(spec, v, u)), h.f_coeff)
    if h.g_coeff:
        part = scale_chain_map(theta_hom(hom_g(spec, v, u)), h.g_coeff)
        rebuilt = part if rebuilt is None else add_chain_maps(rebuilt, part)
    assert chain.key() == rebuilt.key()
