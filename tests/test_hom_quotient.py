"""``HomQuotient`` against the solver patterns it replaced.

Before the quotient, each query on Hom up to homotopy built a fresh
``SpanSolver``: ``hom_space``, ``homotopy_rank``, the memoized solver
behind ``is_null_homotopic``, the inverse search of ``is_isomorphic_K``
and the span solves of ``standard_triangle``.  The last two added the
generators before the homotopy images.  Those five patterns are kept
below, written out on the oracle's assembly, as the reference: the
quotient reduces the images once and puts the generators after them, and
every basis, rank, null-homotopy answer and witness must stay the same.

``quotient`` shares one core between pairs that differ by a common shift.
The last tests check that a view on a shared core answers like a fresh
quotient on its own pair, with null-homotopic maps built by matrix
products rather than from the quotient's grid, and that a relative shift
or a negated target differential gets a core of its own.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import ALGEBRA_PARAMS
from kbproj import complexes, rigidity
from kbproj.algebra import AlgebraSpec, Path, PathCombination, hom_basis_proj
from kbproj.complexes import (
    ChainMap,
    HomQuotient,
    ProjComplex,
    _chain_equations,
    _hom_variables,
    _homotopy_images,
    _lift_vector,
    _map_vector,
    add_chain_maps,
    clear_caches,
    compose_chain_maps,
    direct_sum,
    hom_space,
    hom_space_dimension,
    homotopy_rank,
    identity_chain_map,
    is_isomorphic_K,
    is_null_homotopic,
    make_chain_map,
    mapping_cone,
    mat_mul,
    mat_scale,
    minimal_model,
    quotient,
    scale_chain_map,
    shift,
    shift_chain_map,
    stalk_complex,
    validate_chain_map,
    zero_chain_map,
)
from kbproj.gamma import GammaVertex, is_vertex, suspend_vertex, theta_vertex
from kbproj.linalg import SpanSolver, nullspace
from kbproj.quadruples import build_complex, enumerate_quadruples, suspend_quadruple
from test_oracle_assembly import sample_complexes

ALGEBRA_IDS = [f"L({n},{m})" for n, m in ALGEBRA_PARAMS]


# -- The reference: one fresh solver per query ---------------------------------


def hom_grid(c, d):
    """The f-variables of Hom(c, d) and their index."""
    fvars = _hom_variables(c, d, 0)
    return fvars, {v: j for j, v in enumerate(fvars)}


def ref_boundary(c, d):
    """A fresh solver holding the homotopy images as its first generators."""
    fvars, findex = hom_grid(c, d)
    solver = SpanSolver()
    for img in _homotopy_images(c, d, findex):
        solver.add_generator(img)
    return fvars, findex, solver


def ref_hom_space(c, d):
    """(dimension, basis) of the earlier ``hom_space``."""
    fvars, findex = hom_grid(c, d)
    if not fvars:
        return 0, []
    cycles = nullspace(_chain_equations(c, d, fvars), len(fvars))
    _, _, solver = ref_boundary(c, d)
    dim = len(cycles) - solver.rank
    basis = []
    for z in cycles:
        if len(basis) == dim:
            break
        if not solver.contains(z):
            solver.add_generator(z)
            basis.append(_lift_vector(c, d, fvars, z))
    return dim, basis


def ref_homotopy_rank(maps):
    if not maps:
        return 0
    _, findex, solver = ref_boundary(maps[0].source, maps[0].target)
    base = solver.rank
    for f in maps:
        solver.add_generator(_map_vector(f, findex))
    return solver.rank - base


def ref_is_null_homotopic(f):
    assert validate_chain_map(f) is None
    _, findex, solver = ref_boundary(f.source, f.target)
    try:
        vec = _map_vector(f, findex)
    except ValueError:
        return False
    return solver.contains(vec)


def ref_express_in_span(generators, source, target, rhs):
    """Generators first, then the homotopy images, as ``standard_triangle`` had it."""
    _, findex = hom_grid(source, target)
    solver = SpanSolver()
    for gen in generators:
        solver.add_generator(_map_vector(gen, findex))
    for img in _homotopy_images(source, target, findex):
        solver.add_generator(img)
    solution = solver.solve(_map_vector(rhs, findex))
    if solution is None:
        return None
    return {j: c for j, c in solution.items() if j < len(generators) and c}


def ref_try_inverse(f, backward):
    c = f.source
    composed = [compose_chain_maps(g, f) for g in backward]
    sol = ref_express_in_span(composed, c, c, identity_chain_map(c))
    if sol is None:
        return None
    g = zero_chain_map(f.target, f.source)
    for idx, coeff in sol.items():
        g = add_chain_maps(g, scale_chain_map(backward[idx], coeff))
    return g


def ref_is_isomorphic_K(c, d):
    """(forward, backward) keys of the earlier search, or None."""
    signature = lambda x: tuple(sorted((i, tuple(sorted(s))) for i, s in x.summands.items()))
    if signature(minimal_model(c)) != signature(minimal_model(d)):
        return None
    if ref_is_null_homotopic(identity_chain_map(c)):
        return zero_chain_map(c, d).key(), zero_chain_map(d, c).key()
    forward = ref_hom_space(c, d)[1]
    backward = ref_hom_space(d, c)[1]
    if not forward or not backward:
        return None
    candidates = list(forward)
    if len(forward) > 1:
        total = forward[0]
        for f in forward[1:]:
            total = add_chain_maps(total, f)
        candidates.append(total)
        rng = random.Random(0)
        for _ in range(6):
            combo = zero_chain_map(c, d)
            for f in forward:
                combo = add_chain_maps(combo, scale_chain_map(f, rng.randint(1, 7)))
            candidates.append(combo)
    minus_identity_d = scale_chain_map(identity_chain_map(d), -1)
    for f in candidates:
        g = ref_try_inverse(f, backward)
        if g is None:
            continue
        if ref_is_null_homotopic(add_chain_maps(compose_chain_maps(f, g), minus_identity_d)):
            return f.key(), g.key()
    return None


class RefHomSpace:
    def __init__(self, c, d):
        self.dimension, self.basis = ref_hom_space(c, d)


class RefQuotient:
    def __init__(self, c, d):
        self.source, self.target = c, d

    def solve(self, generators, rhs):
        return ref_express_in_span(generators, self.source, self.target, rhs)

    def contains(self, f):
        return ref_is_null_homotopic(f)


# -- Comparisons -----------------------------------------------------------------


def grid(spec, span):
    lo, hi = span
    vertices = [
        GammaVertex(i, a, b)
        for i in range(spec.n)
        for a in range(lo, hi + 1)
        for b in range(lo, hi + 1)
    ]
    return [v for v in vertices if is_vertex(spec, v)]


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_basis_rank_and_null_homotopy_match_fresh_solvers(params):
    spec = AlgebraSpec(*params)
    complexes = sample_complexes(spec)[::2]
    null_checked = 0
    for c in complexes:
        for d in complexes:
            dim, ref_basis = ref_hom_space(c, d)
            hom = hom_space(c, d)
            assert isinstance(hom, HomQuotient)
            assert hom.dimension == hom_space_dimension(c, d) == dim
            assert [f.key() for f in hom.basis] == [f.key() for f in ref_basis]
            if not hom.basis:
                continue
            total = hom.basis[0]
            for f in hom.basis[1:]:
                total = add_chain_maps(total, scale_chain_map(f, 2))
            maps = hom.basis + [total]
            assert homotopy_rank(maps) == ref_homotopy_rank(maps) == dim
            assert homotopy_rank([total]) == ref_homotopy_rank([total]) == 1
            # d h + h d for a unit homotopy h, alone and added to a basis map
            fvars, findex = hom_grid(c, d)
            for img in _homotopy_images(c, d, findex)[:3]:
                null = _lift_vector(c, d, fvars, img)
                assert is_null_homotopic(null) and ref_is_null_homotopic(null)
                moved = add_chain_maps(hom.basis[-1], null)
                assert not is_null_homotopic(moved) and not ref_is_null_homotopic(moved)
                null_checked += 1
            for f in maps:
                assert is_null_homotopic(f) == ref_is_null_homotopic(f) is False
    assert null_checked > len(complexes)


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_queries_leave_the_shared_boundary_echelon_alone(params):
    spec = AlgebraSpec(*params)
    c = build_complex(spec, enumerate_quadruples(spec, 0, 0, 1)[0])
    end = hom_space(c, c)
    assert end.basis
    boundary_rank = end._core.boundary.rank
    identity = identity_chain_map(c)
    assert end.solve(end.basis, identity) is not None
    assert end.rank(end.basis) == end.dimension
    # neither query may leave the basis maps in the span of the homotopies
    assert end._core.boundary.rank == boundary_rank
    assert not any(end.contains(f) for f in end.basis)
    assert end.solve([], identity) is None


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_standard_triangle_certificates_match_fresh_solvers(params, monkeypatch):
    spec = AlgebraSpec(*params)
    span = (-5, 5) if params == (1, 0) else (-4, 4)
    vertices = grid(spec, span)[::3]
    assert len(vertices) >= 15
    found = [rigidity.standard_triangle(spec, v) for v in vertices]
    clear_caches()
    # the fill-in and its inverse are solved in complexes, the connecting map in rigidity
    monkeypatch.setattr("kbproj.complexes.hom_space", RefHomSpace)
    monkeypatch.setattr("kbproj.complexes.quotient", RefQuotient)
    monkeypatch.setattr(rigidity, "quotient", RefQuotient)
    for v, tri in zip(vertices, found):
        ref = rigidity.standard_triangle(spec, v)
        assert tri.nu == ref.nu, v
        for name in ("fill_in", "inverse", "connecting"):
            assert getattr(tri.certificate, name).key() == getattr(ref.certificate, name).key()
        assert tri.certificate.cone.key() == ref.certificate.cone.key()


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_suspension_square_witnesses_match_fresh_solvers(params):
    spec = AlgebraSpec(*params)
    pairs = []
    for v in grid(spec, (-3, 3))[::2]:
        left = build_complex(spec, suspend_quadruple(theta_vertex(spec, v)))
        right = build_complex(spec, theta_vertex(spec, suspend_vertex(spec, v)))
        pairs.append((left, right))
    # a decomposable pair, where the search also tries combinations
    quads = enumerate_quadruples(spec, 0, 0, 1)
    c, d = build_complex(spec, quads[0]), build_complex(spec, quads[-1])
    pairs.append((direct_sum(c, d), direct_sum(d, c)))
    assert len(pairs) >= 10
    for left, right in pairs:
        result = is_isomorphic_K(left, right)
        assert result
        assert (result.forward.key(), result.backward.key()) == ref_is_isomorphic_K(left, right)


# -- One core per pair up to a common shift ---------------------------------------


def unit_null_maps(c, d, limit=2):
    """The first nonzero maps d h + h d for h one path C^j -> D^{j-1}."""
    spec = c.spec
    out = []
    for j in sorted(c.summands):
        for r, tv in enumerate(d.summand(j - 1)):
            for col, sv in enumerate(c.summand(j)):
                for p in hom_basis_proj(spec, sv, tv):
                    h = [[PathCombination.zero()] * len(c.summand(j)) for _ in d.summand(j - 1)]
                    h[r][col] = PathCombination.of(p)
                    h = tuple(map(tuple, h))
                    comps = {j: mat_mul(spec, d.diff(j - 1), h), j - 1: mat_mul(spec, h, c.diff(j - 1))}
                    f = make_chain_map(c, d, comps)
                    if not f.is_zero():
                        assert validate_chain_map(f) is None
                        out.append(f)
                    if len(out) == limit:
                        return out
    return out


def negated(d):
    """d with every differential negated: isomorphic to d, and not equal to it."""
    return ProjComplex(d.spec, d.summands, {i: mat_scale(m, -1) for i, m in d.diffs.items()})


def assert_answers_like_fresh(view, c, d):
    """Every query of view equals that of a fresh, unshared quotient on (c, d)."""
    fresh = HomQuotient(c, d)
    assert fresh._core is not view._core
    assert (view.source, view.target) == (c, d)
    assert view.dimension == fresh.dimension
    assert [f.key() for f in view.basis] == [f.key() for f in fresh.basis]
    for f in view.basis:
        assert f.source is c and f.target is d
        assert validate_chain_map(f) is None
    nulls = unit_null_maps(c, d)
    for null in nulls:
        assert view.contains(null) and fresh.contains(null)
    if not view.basis:
        return
    coeffs = {j: Fraction(j + 1) for j in range(len(view.basis))}
    total = nulls[0] if nulls else scale_chain_map(view.basis[0], 0)
    for j, f in enumerate(view.basis):
        total = add_chain_maps(total, scale_chain_map(f, coeffs[j]))
    assert not view.contains(total) and not fresh.contains(total)
    maps = view.basis + [total] + nulls
    assert view.rank(maps) == fresh.rank(maps) == view.dimension
    assert view.solve(view.basis, total) == fresh.solve(fresh.basis, total) == coeffs


def shift_sample(spec):
    """Sources and targets from ``sample_complexes``, cones of phi and psi among them."""
    complexes = sample_complexes(spec)
    return complexes[::5], complexes[2::5]


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_common_shifts_share_one_core_and_answer_like_fresh_quotients(params):
    spec = AlgebraSpec(*params)
    sources, targets = shift_sample(spec)
    assert any(c.diffs for c in sources) and any(d.diffs for d in targets)
    for c in sources:
        for d in targets:
            base = quotient(c, d)
            for k in range(-3, 4):
                ck, dk = shift(c, k), shift(d, k)
                view = quotient(ck, dk)
                assert view._core is base._core, (c, d, k)
                assert_answers_like_fresh(view, ck, dk)
                assert [f.key() for f in view.basis] == [
                    shift_chain_map(f, k).key() for f in base.basis
                ]
                assert all(f.source is ck and f.target is dk for f in view.basis)


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_relative_shifts_and_negated_targets_get_their_own_core(params):
    spec = AlgebraSpec(*params)
    sources, targets = shift_sample(spec)
    checked = 0
    for c in sources:
        for d in targets:
            if not c.summands or negated(d).key() == d.key():
                continue  # negating a zero differential changes nothing
            base = quotient(c, d)
            for other in (shift(d, 1), shift(d, -2), negated(d)):
                view = quotient(c, other)
                assert view._core is not base._core, (c, d, other)
                assert_answers_like_fresh(view, c, other)
                checked += 1
    assert checked > len(sources)


def test_is_isomorphic_K_lifts_the_backward_basis_once(monkeypatch):
    spec = AlgebraSpec(2, 1)
    quads = enumerate_quadruples(spec, 0, 0, 1)
    c, d = build_complex(spec, quads[3]), build_complex(spec, quads[5])
    left, right = direct_sum(c, d), direct_sum(d, c)
    tried, lifted = [], []
    inverse, lift = complexes.homotopy_inverse, complexes._lift_vector
    monkeypatch.setattr(complexes, "homotopy_inverse", lambda f: tried.append(f) or inverse(f))
    monkeypatch.setattr(
        complexes, "_lift_vector", lambda c, d, fvars, z: lifted.append((c, d)) or lift(c, d, fvars, z)
    )
    clear_caches()
    assert is_isomorphic_K(left, right)
    # every candidate solves on the basis of Hom(right, left); it is lifted for the first only
    assert len(tried) >= 2
    backward = [pair for pair in lifted if pair[0] is right and pair[1] is left]
    assert len(backward) == hom_space_dimension(right, left) > 1
    clear_caches()


def test_quotients_answer_only_for_maps_between_their_own_complexes():
    # the cones of the loop and of twice the loop on P_0 have one variable
    # grid, so a map out of the second read as a vector of the first's quotient
    spec = AlgebraSpec(1, 0)
    p = stalk_complex(spec, 0)
    loop = make_chain_map(p, p, {0: ((PathCombination.of(Path(0, (0,))),),)})
    c1, c2 = mapping_cone(loop), mapping_cone(scale_chain_map(loop, 2))
    g = hom_space(c2, p).basis[0]
    hom = hom_space(c1, p)
    asks = {
        "solve": lambda: hom.solve(hom.basis, g),
        "solve generator": lambda: hom.solve([g], hom.basis[0]),
        "rank": lambda: hom.rank([g]),
        "contains": lambda: hom.contains(g),
        "homotopy_rank": lambda: homotopy_rank([hom.basis[0], g]),
    }
    for name, ask in asks.items():
        with pytest.raises(ValueError) as raised:
            ask()
        assert str(raised.value) == "maps must share source and target", name
    # equal complexes that are other objects are the same complex
    twin = hom_space(mapping_cone(loop), stalk_complex(spec, 0)).basis[0]
    assert twin.source is not c1
    assert hom.solve(hom.basis, twin) == {0: Fraction(1)}
    assert hom.rank([twin]) == 1 and not hom.contains(twin)
    # a map C -> D with a component off the variable grid is no null-homotopy
    off_grid = ChainMap(p, p, {1: ((PathCombination.of(Path(0, ())),),)})
    assert quotient(p, p).contains(off_grid) is False
