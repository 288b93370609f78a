"""Oracle assembly from the path table against the product-based reference.

``complexes`` builds the variables, chain equations and homotopy images
of a hom space by reading the per-algebra path table.  The reference
versions below are the earlier ones, built on ``hom_basis_proj`` and
``algebra_product``; the two must agree exactly: same variable order,
same equation rows, same image vectors.  ``validate_chain_map`` and
``validate_complex`` read the same Hom differential; they are checked
against square-by-square ``mat_mul`` products, on basis maps, on complexes,
and on each with one entry perturbed.  The isomorphism search is
likewise compared with its earlier form, which rebuilt every linear
system once per candidate, so that its witnesses stay the same.
"""

from __future__ import annotations

import random

import pytest

from conftest import ALGEBRA_PARAMS
from kbproj.algebra import AlgebraSpec, PathCombination, algebra_product, hom_basis_proj
from kbproj.basismaps import in_phi, in_psi, phi_map, psi_map
from kbproj.complexes import (
    ChainMap,
    ProjComplex,
    _chain_equations,
    _hom_variables,
    _homotopy_images,
    _lift_vector,
    _map_vector,
    add_chain_maps,
    compose_chain_maps,
    direct_sum,
    hom_space,
    homotopy_inverse,
    identity_chain_map,
    is_isomorphic_K,
    is_null_homotopic,
    make_chain_map,
    make_complex,
    mapping_cone,
    mat_is_zero,
    mat_mul,
    mat_zero,
    scale_chain_map,
    shift,
    stalk_complex,
    validate_chain_map,
    validate_complex,
    zero_chain_map,
)
from kbproj.gamma import GammaVertex, is_vertex, suspend_vertex, theta_vertex
from kbproj.linalg import SpanSolver, add_entry, nullspace
from kbproj.quadruples import build_complex, enumerate_quadruples, suspend_quadruple


def ref_hom_variables(c, d, offset):
    spec = c.spec
    out = []
    for i in sorted(set(c.summands)):
        targets = d.summand(i + offset)
        sources = c.summand(i)
        if not targets or not sources:
            continue
        for r, tv in enumerate(targets):
            for col, sv in enumerate(sources):
                for p in hom_basis_proj(spec, sv, tv):
                    out.append((i, r, col, p))
    return out, {v: j for j, v in enumerate(out)}


def from_lowest(c, fvars):
    """The variables with degrees counted from the lowest degree of c."""
    t = min(c.summands, default=0)
    return [(i - t, r, col, p) for i, r, col, p in fvars]


def ref_lift(c, d, fvars, vec):
    """The chain map with coordinates vec over fvars, in the degrees of fvars."""
    comps = {}
    for j, (i, r, col, p) in enumerate(fvars):
        if vec.get(j):
            mat = comps.setdefault(i, [[PathCombination.zero()] * len(c.summand(i)) for _ in d.summand(i)])
            mat[r][col] = mat[r][col] + PathCombination.of(p, vec[j])
    return make_chain_map(c, d, comps)


def ref_chain_equations(c, d, fvars, findex):
    spec = c.spec
    rows = {}

    def put(eqkey, var, coeff):
        add_entry(rows.setdefault(eqkey, {}), var, coeff)

    for (i, r, col, p) in fvars:
        var = findex[(i, r, col, p)]
        unit = PathCombination.of(p)
        dd = d.diff(i)
        for s in range(len(d.summand(i + 1))):
            entry = dd[s][r]
            if not entry:
                continue
            for path, coeff in algebra_product(spec, unit, entry).terms():
                put((i, s, col, path), var, coeff)
        dc = c.diff(i - 1)
        for col0 in range(len(c.summand(i - 1))):
            entry = dc[col][col0] if dc else None
            if not entry:
                continue
            for path, coeff in algebra_product(spec, entry, unit).terms():
                put((i - 1, r, col0, path), var, -coeff)
    return [rows[k] for k in sorted(rows, key=lambda t: (t[0], t[1], t[2], t[3].sort_key()))]


def ref_homotopy_images(c, d, findex):
    spec = c.spec
    hvars, _ = ref_hom_variables(c, d, -1)
    images = []
    for (i, r, col, q) in hvars:
        vec = {}
        unit = PathCombination.of(q)
        dd = d.diff(i - 1)
        for s in range(len(d.summand(i))):
            entry = dd[s][r]
            if entry:
                for path, coeff in algebra_product(spec, unit, entry).terms():
                    var = findex.get((i, s, col, path))
                    if var is not None:
                        add_entry(vec, var, coeff)
        dc = c.diff(i - 1)
        for col0 in range(len(c.summand(i - 1))):
            entry = dc[col][col0] if dc else None
            if entry:
                for path, coeff in algebra_product(spec, entry, unit).terms():
                    var = findex.get((i - 1, r, col0, path))
                    if var is not None:
                        add_entry(vec, var, coeff)
        images.append(vec)
    return images


def ref_hom_space_keys(c, d):
    """Keys of the hom-space basis, computed on the reference systems."""
    fvars, findex = ref_hom_variables(c, d, 0)
    if not fvars:
        return []
    cycles = nullspace(ref_chain_equations(c, d, fvars, findex), len(fvars))
    solver = SpanSolver()
    for img in ref_homotopy_images(c, d, findex):
        solver.add_generator(img)
    dim = len(cycles) - solver.rank
    keys = []
    for z in cycles:
        if len(keys) == dim:
            break
        if not solver.contains(z):
            solver.add_generator(z)
            keys.append(ref_lift(c, d, fvars, z).key())
    return keys


def sample_complexes(spec: AlgebraSpec) -> list:
    """Built complexes, odd shifts (negated differentials), mapping cones of
    basis maps, and two-term complexes with a zero or an absent differential."""
    quads = enumerate_quadruples(spec, 0, 1, 2)
    built = [build_complex(spec, q) for q in quads]
    shifted = [shift(c, 1) for c in built[::4]]
    cones = []
    small = enumerate_quadruples(spec, 0, 0, 1)
    for qs in small:
        for qt in small:
            if in_phi(spec, qt, qs):
                cones.append(mapping_cone(phi_map(spec, qt, qs)))
            if in_psi(spec, qt, qs):
                cones.append(mapping_cone(psi_map(spec, qt, qs)))
    u, v = spec.vertices[0], spec.vertices[-1]
    gaps = [
        direct_sum(stalk_complex(spec, u, 0), stalk_complex(spec, v, 1)),
        make_complex(spec, {0: (u, v), 1: (v,)}, {}),
    ]
    return built + shifted + cones[:12] + gaps


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=lambda p: f"L({p[0]},{p[1]})")
def test_assembly_matches_the_product_reference(params):
    spec = AlgebraSpec(*params)
    complexes = sample_complexes(spec)
    # some complex has two consecutive degrees and no differential between them
    assert any(i + 1 in cx.summands and i not in cx.diffs for cx in complexes for i in cx.summands)
    checked = 0
    for c in complexes:
        for d in complexes:
            fvars = _hom_variables(c, d, 0)
            ref_vars, ref_index = ref_hom_variables(c, d, 0)
            assert fvars == from_lowest(c, ref_vars)
            assert _hom_variables(c, d, -1) == from_lowest(c, ref_hom_variables(c, d, -1)[0])
            if not fvars:
                continue
            findex = {v: j for j, v in enumerate(fvars)}
            assert _chain_equations(c, d, fvars) == ref_chain_equations(c, d, ref_vars, ref_index)
            assert _homotopy_images(c, d, findex) == ref_homotopy_images(c, d, ref_index)
            # a lifted cycle lands in the degrees of the reference, and back
            z = nullspace(_chain_equations(c, d, fvars), len(fvars))[-1:]
            for vec in z:
                f = _lift_vector(c, d, fvars, vec)
                assert f.key() == ref_lift(c, d, ref_vars, vec).key()
                assert _map_vector(f, findex) == vec
            checked += 1
    assert checked > len(complexes)


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=lambda p: f"L({p[0]},{p[1]})")
def test_hom_space_basis_matches_the_reference(params):
    spec = AlgebraSpec(*params)
    complexes = sample_complexes(spec)[::3]
    for c in complexes:
        for d in complexes:
            assert [f.key() for f in hom_space(c, d).basis] == ref_hom_space_keys(c, d)


def ref_failing_square(f):
    """The lowest degree i where d_D f^i != f^(i+1) d_C^i, multiplying at every degree."""
    spec = f.source.spec
    degrees = set(f.source.summands) | set(f.target.summands)
    for i in range(min(degrees, default=0), max(degrees, default=0) + 1):
        lhs = mat_mul(spec, f.target.diff(i), f.component(i))
        rhs = mat_mul(spec, f.component(i + 1), f.source.diff(i))
        if lhs != rhs and not (mat_is_zero(lhs) and mat_is_zero(rhs)):
            return i
    return None


def ref_failing_square_of_d(c):
    """The lowest degree i where d^(i+1) d^i != 0."""
    for i in c.degrees():
        if not mat_is_zero(mat_mul(c.spec, c.diff(i + 1), c.diff(i))):
            return i
    return None


def with_entry(mats, slot, coeff, shape):
    """mats plus coeff times the path of slot (i, r, col, p) in its entry; shape(i) sizes a new matrix."""
    i, r, col, p = slot
    mat = [list(row) for row in mats.get(i) or mat_zero(*shape(i))]
    mat[r][col] = mat[r][col] + PathCombination.of(p, coeff)
    return {**mats, i: tuple(tuple(row) for row in mat)}


@pytest.mark.parametrize("params", ALGEBRA_PARAMS, ids=lambda p: f"L({p[0]},{p[1]})")
def test_validators_match_the_product_reference(params):
    spec = AlgebraSpec(*params)
    rng = random.Random(10 * params[0] + params[1])
    complexes = sample_complexes(spec)
    seen = set()  # (kind, whether it passes, whether the lowest degree of the source is 0)

    def check_map(f):
        expect = ref_failing_square(f)
        message = None if expect is None else f"degree {expect}: does not commute with the differentials"
        assert validate_chain_map(f) == message, f
        seen.add(("map", expect is None, min(f.source.summands, default=0) == 0))

    for c in complexes:
        assert ref_failing_square_of_d(c) is None and validate_complex(c) is None
        slots = ref_hom_variables(c, c, 1)[0]
        if slots:
            shape = lambda i: (len(c.summand(i + 1)), len(c.summand(i)))
            coeff = rng.choice((1, -1, 2))
            bad = ProjComplex(spec, c.summands, with_entry(c.diffs, rng.choice(slots), coeff, shape))
            expect = ref_failing_square_of_d(bad)
            message = None if expect is None else f"degree {expect}: differential does not square to zero"
            assert validate_complex(bad) == message, bad
            seen.add(("complex", expect is None, min(c.summands) == 0))
        for d in complexes:
            slots = ref_hom_variables(c, d, 0)[0]
            shape = lambda i: (len(d.summand(i)), len(c.summand(i)))
            for f in hom_space(c, d).basis:
                check_map(f)
                coeff = rng.choice((1, -1, 2))
                check_map(ChainMap(c, d, with_entry(f.components, rng.choice(slots), coeff, shape)))
    for kind in ("map", "complex"):
        # passes, and fails where the lowest degree is not 0, so the reported degree adds it
        assert {(kind, True), (kind, False)} <= {(k, passes) for k, passes, _ in seen}
        assert (kind, False, False) in seen


def ref_try_inverse(f):
    c, d = f.source, f.target
    backward = hom_space(d, c)
    if not backward.basis:
        return None
    findex = {v: j for j, v in enumerate(_hom_variables(c, c, 0))}
    solver = SpanSolver()
    for g in backward.basis:
        solver.add_generator(_map_vector(compose_chain_maps(g, f), findex))
    n_g = len(backward.basis)
    for img in _homotopy_images(c, c, findex):
        solver.add_generator(img)
    sol = solver.solve(_map_vector(identity_chain_map(c), findex))
    if sol is None:
        return None
    g = zero_chain_map(d, c)
    for idx, coeff in sol.items():
        if idx < n_g and coeff:
            g = add_chain_maps(g, scale_chain_map(backward.basis[idx], coeff))
    return g


def ref_iso_witnesses(c, d):
    """(forward, backward) keys of the earlier search, after its invariant checks."""
    forward = hom_space(c, d)
    candidates = list(forward.basis)
    if len(forward.basis) > 1:
        total = forward.basis[0]
        for f in forward.basis[1:]:
            total = add_chain_maps(total, f)
        candidates.append(total)
        rng = random.Random(0)
        for _ in range(6):
            combo = zero_chain_map(c, d)
            for f in forward.basis:
                combo = add_chain_maps(combo, scale_chain_map(f, rng.randint(1, 7)))
            candidates.append(combo)
    for f in candidates:
        g = ref_try_inverse(f)
        if g is None:
            continue
        diff = add_chain_maps(compose_chain_maps(f, g), scale_chain_map(identity_chain_map(d), -1))
        if is_null_homotopic(diff):
            return f.key(), g.key()
    return None


def test_isomorphism_witnesses_match_the_reference():
    pairs = []
    spec = AlgebraSpec(1, 0)
    grid = [GammaVertex(0, a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for v in filter(lambda v: is_vertex(spec, v), grid):
        left = build_complex(spec, suspend_quadruple(theta_vertex(spec, v)))
        right = build_complex(spec, theta_vertex(spec, suspend_vertex(spec, v)))
        pairs.append((left, right))
    spec = AlgebraSpec(2, 1)
    c = build_complex(spec, enumerate_quadruples(spec, 0, 0, 1)[3])
    d = build_complex(spec, enumerate_quadruples(spec, 0, 0, 1)[5])
    # a decomposable pair, where the search also tries combinations
    pairs.append((direct_sum(c, d), direct_sum(d, c)))
    seen_multi = False
    for left, right in pairs:
        result = is_isomorphic_K(left, right)
        assert result
        assert (result.forward.key(), result.backward.key()) == ref_iso_witnesses(left, right)
        seen_multi |= len(hom_space(left, right).basis) > 1
    assert seen_multi


DOUBLED = [(p, v) for p in ALGEBRA_PARAMS for v in AlgebraSpec(*p).vertices]


@pytest.mark.parametrize("params, v", DOUBLED, ids=[f"L({n},{m})-P{v}" for (n, m), v in DOUBLED])
def test_a_doubled_projective_is_decided_by_a_seeded_combination(params, v):
    """No basis map of End(P_v (+) P_v) and not their sum is an isomorphism;
    the first seeded combination that is one must be the forward witness."""
    spec = AlgebraSpec(*params)
    c = direct_sum(stalk_complex(spec, v), stalk_complex(spec, v))
    result = is_isomorphic_K(c, c)
    assert result
    assert homotopy_inverse(result.forward).key() == result.backward.key()
    assert homotopy_inverse(result.backward) is not None
    basis = hom_space(c, c).basis
    total = zero_chain_map(c, c)
    for f in basis:
        total = add_chain_maps(total, f)
    rng = random.Random(0)
    seeded = []
    for _ in range(6):
        combo = zero_chain_map(c, c)
        for f in basis:
            combo = add_chain_maps(combo, scale_chain_map(f, rng.randint(1, 7)))
        seeded.append(combo)
    # End has dimension 4 or 8: candidate 6 or 9, the second or the first seeded one
    k = {4: 1, 8: 0}[len(basis)]
    assert all(homotopy_inverse(f) is None for f in basis + [total] + seeded[:k])
    assert result.forward.key() == seeded[k].key()
