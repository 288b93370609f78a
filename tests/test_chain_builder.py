"""Every matrix built from entries goes through ``complexes._blocks``: chain
maps by ``_chain_map``, and the differentials of ``mapping_cone`` and
``quadruples.build_complex``.  ``minimal_model`` ends with ``make_complex``.

The constructions they replaced are kept here as references: the dense
unit matrices and dense fills, the block concatenation of ``cone_maps``,
the set-then-freeze basis maps with their per-degree layout lookup
``chain_tail_positions``, the ``minimal_model`` that cleaned up
after every pivot, the hand-built matrices of ``build_complex`` and the
row concatenation of ``mapping_cone``.  Each rebuilt map and complex must
equal its reference, ``key()`` included, over the six algebras.  The old
cone and minimal model kept all-zero differentials, so they are compared
after ``make_complex`` brings them to the one normal form.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import ALGEBRA_PARAMS
from kbproj import complexes
from kbproj.algebra import (
    AlgebraSpec,
    Path,
    PathCombination,
    algebra_product,
    factor_path,
    max_path,
    successor_power,
)
from kbproj.basismaps import _psi_r1, in_phi, in_psi, phi_map, psi_map
from kbproj.complexes import (
    ChainMap,
    HomQuotient,
    ProjComplex,
    _invert_local,
    add_chain_maps,
    combine_chain_maps,
    compose_chain_maps,
    cone_maps,
    direct_sum,
    hom_space,
    homotopy_inverse,
    identity_chain_map,
    is_contractible,
    is_isomorphic_K,
    make_chain_map,
    make_complex,
    mapping_cone,
    mat_is_zero,
    mat_scale,
    mat_zero,
    minimal_model,
    scale_chain_map,
    shift,
    stalk_complex,
    zero_chain_map,
)
from kbproj.gamma import GammaVertex, is_vertex, suspend_vertex, theta_hom, theta_vertex
from kbproj.quadruples import (
    Quadruple,
    _check_member,
    build_complex,
    enumerate_quadruples,
)
from kbproj.rigidity import (
    _generator_hom,
    _suspension_comparison,
    conjugation_domain,
    generator_keys,
)
from test_oracle_assembly import sample_complexes

ALGEBRA_IDS = [f"L({n},{m})" for n, m in ALGEBRA_PARAMS]


# -- The constructions the builder replaced ------------------------------------


def ref_unit_matrix(verts, coeff=1):
    z = PathCombination.zero()
    cols = range(len(verts))
    return tuple(
        tuple(PathCombination.of(Path(v, ()), coeff) if r == col else z for col in cols)
        for r, v in enumerate(verts)
    )


def ref_identity(c: ProjComplex) -> ChainMap:
    return ChainMap(c, c, {i: ref_unit_matrix(c.summand(i)) for i in c.degrees()})


def ref_lift_vector(c, d, fvars, vec) -> ChainMap:
    t = min(c.summands) if c.summands else 0
    comps = {}
    for j, (i, r, col, p) in enumerate(fvars):
        coeff = vec.get(j)
        if not coeff:
            continue
        if i not in comps:
            comps[i] = [[PathCombination.zero() for _ in c.summand(i + t)]
                        for _ in d.summand(i + t)]
        comps[i][r][col] = comps[i][r][col] + PathCombination.of(p, coeff)
    return make_chain_map(c, d, {i + t: tuple(tuple(r) for r in m) for i, m in comps.items()})


def ref_cone_maps(f: ChainMap):
    cone = mapping_cone(f)
    c, d = f.source, f.target
    inclusion = {
        i: mat_zero(len(c.summand(i + 1)), len(d.summand(i))) + ref_unit_matrix(d.summand(i))
        for i in d.degrees()
    }
    projection = {}
    for i in cone.degrees():
        verts = c.summand(i + 1)
        if verts:
            zeros = mat_zero(1, len(d.summand(i)))[0]
            projection[i] = tuple(row + zeros for row in ref_unit_matrix(verts))
    return ChainMap(d, cone, inclusion), ChainMap(cone, shift(c, 1), projection)


def ref_combine(source, target, maps, coeffs) -> ChainMap:
    total = ChainMap(source, target, {})
    for j, coeff in coeffs.items():
        total = add_chain_maps(total, scale_chain_map(maps[j], coeff))
    return total


def _dense(source, target, entries) -> ChainMap:
    """Zero blocks on the degrees both complexes share, each entry set, then frozen."""
    comps = {
        i: [[PathCombination.zero() for _ in source.summand(i)] for _ in target.summand(i)]
        for i in set(source.summands) & set(target.summands)
    }
    for (i, row, col), combo in entries:
        comps[i][row][col] = combo
    return make_chain_map(source, target, {i: tuple(tuple(r) for r in m) for i, m in comps.items()})


def chain_tail_positions(spec: AlgebraSpec, q: Quadruple, i: int) -> tuple[int | None, int | None]:
    """(index of chain summand, index of tail summand) at degree i, or None.

    The layout of ``build_complex`` worked out again per degree, as the basis
    maps did before they read ``quadruples.tail_position``.
    """
    k, u, l, v = q
    top = successor_power(spec, u, l)
    has_tail = v != top
    chain = None
    tail = None
    if has_tail and i == k + l - 1:
        tail_pos = 0
        if l > 0 and k <= i:
            chain = 0
            tail_pos = 1
        tail = tail_pos
    elif k <= i <= k + l:
        chain = 0
    return chain, tail


def ref_phi_map(spec, q_target, q_source) -> ChainMap:
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    entries = []
    c_pos, _ = chain_tail_positions(spec, q_source, k)
    t_pos, _ = chain_tail_positions(spec, q_target, k)
    anchor = successor_power(spec, up, k - kp)
    entries.append(((k, t_pos, c_pos), PathCombination.of(factor_path(spec, u, anchor))))
    for i in range(k + 1, kp + lp + 1):
        c_pos, _ = chain_tail_positions(spec, q_source, i)
        t_pos, _ = chain_tail_positions(spec, q_target, i)
        w = successor_power(spec, u, i - k)
        entries.append(((i, t_pos, c_pos), PathCombination.of(Path(w, ()))))
    top = successor_power(spec, u, l)
    if k + l == kp + lp and v < top:
        _, c_tail = chain_tail_positions(spec, q_source, k + l - 1)
        _, t_tail = chain_tail_positions(spec, q_target, k + l - 1)
        entries.append(((k + l - 1, t_tail, c_tail), PathCombination.of(factor_path(spec, v, vp))))
    return _dense(build_complex(spec, q_source), build_complex(spec, q_target), entries)


def ref_psi_map(spec, q_target, q_source) -> ChainMap:
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    sign = 1 if (k + l) % 2 == 0 else -1
    top = successor_power(spec, u, l)
    entries = []
    if _psi_r1(spec, q_target, q_source):
        if v != top:
            _, c_tail = chain_tail_positions(spec, q_source, k + l - 1)
            t_pos, _ = chain_tail_positions(spec, q_target, k + l - 1)
            anchor = successor_power(spec, up, k + l - 1 - kp)
            combo = PathCombination.of(factor_path(spec, v, anchor), sign)
            entries.append(((k + l - 1, t_pos, c_tail), combo))
        c_pos, _ = chain_tail_positions(spec, q_source, k + l)
        t_pos, _ = chain_tail_positions(spec, q_target, k + l)
        entries.append(((k + l, t_pos, c_pos), PathCombination.of(max_path(spec, top), sign)))
    else:
        _, c_tail = chain_tail_positions(spec, q_source, k + l - 1)
        t_pos, _ = chain_tail_positions(spec, q_target, k + l - 1)
        anchor = successor_power(spec, up, lp)
        combo = PathCombination.of(factor_path(spec, v, anchor), sign)
        entries.append(((k + l - 1, t_pos, c_tail), combo))
    return _dense(build_complex(spec, q_source), build_complex(spec, q_target), entries)


def ref_suspension_comparison(spec, v) -> ChainMap:
    shifted = shift(build_complex(spec, theta_vertex(spec, v)), 1)
    suspended = build_complex(spec, theta_vertex(spec, suspend_vertex(spec, v)))
    comps = {i: ref_unit_matrix(s, -1 if i % 2 else 1) for i, s in suspended.summands.items()}
    return make_chain_map(suspended, shifted, comps)


def ref_minimal_model(c: ProjComplex) -> ProjComplex:
    """``minimal_model`` as it was, with its cleanup after every pivot."""
    spec = c.spec
    summands = {i: list(s) for i, s in c.summands.items()}
    diffs = {i: [list(row) for row in mat] for i, mat in c.diffs.items()}

    def find_pivot():
        for i in sorted(diffs):
            for r, row in enumerate(diffs[i]):
                for col, entry in enumerate(row):
                    if entry.stationary_coefficient():
                        return i, r, col
        return None

    while (pivot := find_pivot()) is not None:
        i, r, col = pivot
        mat = diffs[i]
        inv = _invert_local(mat[r][col])
        for s in range(len(mat)):
            for e in range(len(mat[0])):
                if s != r and e != col and mat[r][e] and mat[s][col]:
                    corr = algebra_product(spec, algebra_product(spec, mat[r][e], inv), mat[s][col])
                    mat[s][e] = mat[s][e] - corr
        del summands[i][col]
        del summands[i + 1][r]
        del mat[r]
        for row in mat:
            del row[col]
        if not mat or not mat[0]:
            del diffs[i]
        below = diffs.get(i - 1)
        if below is not None:
            del below[col]
            if not below:
                del diffs[i - 1]
        above = diffs.get(i + 1)
        if above is not None:
            for row in above:
                del row[r]
            if above and not above[0]:
                del diffs[i + 1]
        for j in (i - 1, i, i + 1):
            if j in diffs and (not summands.get(j) or not summands.get(j + 1)):
                del diffs[j]
        for j in (i, i + 1):
            if j in summands and not summands[j]:
                del summands[j]
    return ProjComplex(
        spec,
        {i: tuple(s) for i, s in summands.items() if s},
        {i: tuple(tuple(row) for row in mat) for i, mat in diffs.items()},
    )


def ref_build_complex(spec: AlgebraSpec, q: Quadruple) -> ProjComplex:
    """``quadruples.build_complex`` as it was, with hand-built 1x1, 2x1 and 1x2 matrices."""
    _check_member(spec, q)
    k, u, l, v = q
    top = successor_power(spec, u, l)
    has_tail = v != top
    summands = {}
    for i in range(k, k + l + 1):
        summands[i] = (successor_power(spec, u, i - k),)
    if has_tail:
        if l == 0:
            summands[k - 1] = (v,)
        else:
            summands[k + l - 1] = (successor_power(spec, u, l - 1), v)
    diffs = {}
    sigma = lambda w: PathCombination.of(max_path(spec, w))
    if not has_tail:
        for i in range(k, k + l):
            diffs[i] = ((sigma(successor_power(spec, u, i - k)),),)
    elif l == 0:
        diffs[k - 1] = ((PathCombination.of(factor_path(spec, v, u)),),)
    else:
        for i in range(k, k + l - 2):
            diffs[i] = ((sigma(successor_power(spec, u, i - k)),),)
        if l >= 2:
            zero = PathCombination.zero()
            diffs[k + l - 2] = ((sigma(successor_power(spec, u, l - 2)),), (zero,))
        diffs[k + l - 1] = (
            (sigma(successor_power(spec, u, l - 1)), PathCombination.of(factor_path(spec, v, top))),
        )
    return ProjComplex(spec, summands, diffs)


def ref_mapping_cone(f: ChainMap) -> ProjComplex:
    """``mapping_cone`` as it was: block rows concatenated, all-zero differentials kept."""
    c, d = f.source, f.target
    summands = {}
    for i in set(x - 1 for x in c.summands) | set(d.summands):
        s = c.summand(i + 1) + d.summand(i)
        if s:
            summands[i] = s
    diffs = {}
    for i in summands:
        if i + 1 not in summands:
            continue
        zeros = mat_zero(1, len(d.summand(i)))[0]
        upper = tuple(tuple(row) + zeros for row in mat_scale(c.diff(i + 1), -1))
        pairs = zip(f.component(i + 1), d.diff(i), strict=True)
        diffs[i] = upper + tuple(tuple(fr) + tuple(dr) for fr, dr in pairs)
    return ProjComplex(c.spec, summands, diffs)


def normalized(c: ProjComplex) -> ProjComplex:
    return make_complex(c.spec, c.summands, c.diffs)


def has_zero_diff(c: ProjComplex) -> bool:
    return any(mat_is_zero(m) for m in c.diffs.values())


# -- The corpus ------------------------------------------------------------------


def corpus(spec: AlgebraSpec) -> list[ProjComplex]:
    """sample_complexes, cones of the identity, direct sums and contractible paddings."""
    samples = sample_complexes(spec)
    trivial = [mapping_cone(identity_chain_map(c)) for c in samples[:6:2]]
    sums = [direct_sum(a, b) for a in samples[:8:3] for b in samples[1:9:3]]
    stalks = [stalk_complex(spec, v, i) for v in spec.vertices[:2] for i in (0, 1)]
    sums += [direct_sum(a, b) for a in stalks for b in stalks]
    padded = [direct_sum(c, trivial[0]) for c in samples[::5]]
    return samples + trivial + sums + padded


def assert_same(got, ref) -> None:
    assert got == ref
    assert got.key() == ref.key()


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_minimal_models_match_the_reference(params):
    spec = AlgebraSpec(*params)
    v, zero = spec.vertices[0], PathCombination.zero()
    # no constructor builds an all-zero differential, so this one is written out
    written = ProjComplex(spec, {0: (v,), 1: (v,)}, {0: ((zero,),)})
    zero_diffs = 0
    for c in corpus(spec) + [written]:
        model, ref = minimal_model(c), ref_minimal_model(c)
        assert_same(model, normalized(ref))
        assert not has_zero_diff(model)
        zero_diffs += has_zero_diff(ref)
    # the comparison covers references that keep an all-zero differential
    assert zero_diffs > 0


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_built_complexes_match_the_reference(params):
    spec = AlgebraSpec(*params)
    quads = enumerate_quadruples(spec, -3, 3, 5)
    for q in quads:
        assert_same(build_complex(spec, q), ref_build_complex(spec, q))
    # the window holds tails at l = 0, l = 1 and l >= 2
    tails = {min(q.l, 2) for q in quads if q.v != successor_power(spec, q.u, q.l)}
    assert tails == {0, 1, 2} or spec.m == 0


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_cones_match_the_normalized_reference(params):
    spec = AlgebraSpec(*params)
    keys = generator_keys(spec, conjugation_domain(spec, (-1, 1, -1, 1)))
    maps = [theta_hom(_generator_hom(spec, key)) for key in keys]
    ends = list({c.key(): c for f in maps for c in (f.source, f.target)}.values())
    maps += [identity_chain_map(c) for c in ends]
    maps += [zero_chain_map(a, b) for a in ends[::3] for b in ends[1::3] + [shift(a, -1)]]
    zero_diffs = 0
    for f in maps:
        ref = ref_mapping_cone(f)
        assert_same(mapping_cone(f), normalized(ref))
        zero_diffs += has_zero_diff(ref)
    # the comparison covers references that keep an all-zero differential
    assert zero_diffs > 0


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_identities_and_cone_maps_match_the_reference(params):
    spec = AlgebraSpec(*params)
    samples = corpus(spec)
    for c in samples:
        assert_same(identity_chain_map(c), ref_identity(c))
    for c in samples[::3]:
        for d in samples[::4]:
            for f in hom_space(c, d).basis[:2] + [identity_chain_map(d)] * (c is d):
                for got, ref in zip(cone_maps(f), ref_cone_maps(f)):
                    assert_same(got, ref)


# phi and psi maps with both quadruples in k in [-1, 1], l <= 4: 17,216 in all
BASIS_MAPS_IN_WINDOW = {(1, 0): 170, (1, 1): 2141, (1, 2): 9943, (2, 0): 340, (2, 1): 1490, (3, 2): 3132}


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_basis_maps_match_the_reference(params):
    spec = AlgebraSpec(*params)
    quads = enumerate_quadruples(spec, -1, 1, 4)
    built = 0
    reached = set()
    for qs in quads:
        k, u, l, v = qs
        source_tail = v != successor_power(spec, u, l)
        for qt in quads:
            phi, psi = in_phi(spec, qt, qs), in_psi(spec, qt, qs)
            if phi:
                assert_same(phi_map(spec, qt, qs), ref_phi_map(spec, qt, qs))
                reached.add("phi tail to tail" if source_tail and k + l == qt.k + qt.l else "phi")
            if psi:
                assert_same(psi_map(spec, qt, qs), ref_psi_map(spec, qt, qs))
                reached.add("psi r1" if _psi_r1(spec, qt, qs) else "psi r2")
            if source_tail and l == 0 and (phi or psi):
                reached.add("source tail at l = 0")
            built += phi + psi
    assert built == BASIS_MAPS_IN_WINDOW[params]
    # tails need a vertex below 0, so only the algebras with m > 0 reach the tail cases
    tail_cases = {"phi tail to tail", "psi r2", "source tail at l = 0"}
    assert reached == {"phi", "psi r1"} | (tail_cases if spec.m else set())
    vertices = [
        v
        for i in range(spec.n)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if is_vertex(spec, v := GammaVertex(i, a, b))
    ]
    for v in vertices:
        assert_same(_suspension_comparison(spec, v), ref_suspension_comparison(spec, v))


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_lifts_and_combinations_match_the_reference(params):
    spec = AlgebraSpec(*params)
    samples = corpus(spec)[::2]
    combined = 0
    for c in samples:
        for d in samples[::3]:
            hom = hom_space(c, d)
            basis = hom.basis
            core = hom._core
            for f, z in zip(basis, core.basis):
                assert_same(f, ref_lift_vector(c, d, core.vars, z))
            if len(basis) < 2:
                continue
            ones = dict.fromkeys(range(len(basis)), 1)
            # 1 - 1 = 0: a cancelling pair, a zero coefficient and a Fraction
            cancel = {0: 1, 1: -1, **{j: Fraction(j, 3) for j in range(2, len(basis))}}
            twice = {0: 2, 1: 0}
            for coeffs in (ones, cancel, twice):
                got = combine_chain_maps(c, d, basis, coeffs)
                assert_same(got, ref_combine(c, d, basis, coeffs))
            # the same map twice: every entry sums two terms
            doubled = combine_chain_maps(c, d, [basis[0], basis[0]], {0: 1, 1: 1})
            assert_same(doubled, ref_combine(c, d, basis, {0: 2}))
            combined += 1
    assert combined > 0


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_the_round_trip_of_homotopy_inverse_matches_the_reference(params, monkeypatch):
    spec = AlgebraSpec(*params)
    asked = []
    contains = HomQuotient.contains
    monkeypatch.setattr(
        HomQuotient, "contains", lambda self, f: asked.append(f) or contains(self, f)
    )
    certified = 0
    samples = corpus(spec)[::3]
    for c in samples:
        for f in [identity_chain_map(c)] + hom_space(c, c).basis[:2]:
            asked.clear()
            g = homotopy_inverse(f)
            if g is None:
                continue
            round_trip = asked[-1]
            minus_id = scale_chain_map(ref_identity(f.target), -1)
            ref = add_chain_maps(compose_chain_maps(f, g), minus_id)
            assert_same(round_trip, ref)
            certified += 1
    assert certified > len(samples) // 2


def test_combinations_and_inverses_scale_no_matrix(monkeypatch):
    spec = AlgebraSpec(2, 1)
    samples = corpus(spec)[::4]
    pairs = [(c, d, hom_space(c, d).basis) for c in samples for d in samples]
    pairs = [(c, d, basis) for c, d, basis in pairs if len(basis) > 1]
    assert pairs
    calls = []
    scale = complexes.mat_scale
    monkeypatch.setattr(
        complexes, "mat_scale", lambda a, coeff: calls.append(coeff) or scale(a, coeff)
    )
    for c, d, basis in pairs:
        combine_chain_maps(c, d, basis, {j: j + 2 for j in range(len(basis))})
    for c in samples:
        assert homotopy_inverse(identity_chain_map(c)) is not None
    assert calls == []


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=ALGEBRA_IDS)
def test_contractible_exactly_when_the_minimal_model_is_zero(params):
    spec = AlgebraSpec(*params)
    seen = set()
    for c in corpus(spec):
        contractible = is_contractible(c)
        assert contractible == minimal_model(c).is_zero()
        seen.add(contractible)
    assert seen == {True, False}


def test_is_isomorphic_K_reads_contractibility_off_the_minimal_models(monkeypatch):
    spec = AlgebraSpec(1, 0)
    trivial = mapping_cone(identity_chain_map(stalk_complex(spec, 0)))
    monkeypatch.setattr(complexes, "is_contractible", None)
    result = is_isomorphic_K(trivial, shift(trivial, 2))
    assert result and result.forward.is_zero() and result.backward.is_zero()
