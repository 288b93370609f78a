"""The four benchmark workloads, built from public kbproj calls only.

A workload turns ``(seed, pass_index)`` into a list of units and runs one
unit at a time.  ``run_unit`` returns ``(ok, group, record)``:

- ``ok`` says whether every exact check of the unit held;
- ``group`` names the reference digest the unit belongs to;
- ``record`` is a canonical text of the unit's exact results.

The records of one group are sorted and hashed, and the hash must equal
the one stored in ``reference.json``, recorded from the seed commit.

Every kbproj function is looked up on its module at call time, so that
the tracer's wrappers are the ones called when tracing is on.
"""

from __future__ import annotations

from random import Random

from kbproj import algebra, basismaps, complexes, gamma, quadruples, rigidity

L32 = algebra.AlgebraSpec(3, 2)
L10 = algebra.AlgebraSpec(1, 0)


def _rng(seed: int, pass_index: int) -> Random:
    return Random(f"{seed}:{pass_index}")


def _grid(spec, lo: int, hi: int) -> list:
    return [
        gamma.GammaVertex(i, a, b)
        for i in range(spec.n)
        for a in range(lo, hi + 1)
        for b in range(lo, hi + 1)
        if gamma.is_vertex(spec, gamma.GammaVertex(i, a, b))
    ]


def _hom_label(h) -> str:
    return f"{tuple(h.source)}>{tuple(h.target)}:{h.f_coeff},{h.g_coeff}"


# -- functoriality ------------------------------------------------------------


def functoriality_units(seed: int, pass_index: int) -> list:
    """Composable generator pairs on L(3,2), window a, b in [-2, 2], identities left out."""
    vertices = _grid(L32, -2, 2)
    gens = []
    for v in vertices:
        for u in vertices:
            if gamma.in_F(L32, v, u) and v != u:
                gens.append(gamma.hom_f(L32, v, u))
            if gamma.in_G(L32, v, u):
                gens.append(gamma.hom_g(L32, v, u))
    by_source: dict = {}
    for h in gens:
        by_source.setdefault(h.source, []).append(h)
    units = [(h1, h2) for h1 in gens for h2 in by_source.get(h1.target, ())]
    _rng(seed, pass_index).shuffle(units)
    return units


def functoriality_unit(unit) -> tuple[bool, str, str]:
    h1, h2 = unit
    lhs = complexes.compose_chain_maps(gamma.theta_hom(h2), gamma.theta_hom(h1))
    composite = gamma.gamma_compose(h2, h1)
    if not composite.is_zero():
        lhs = complexes.add_chain_maps(
            lhs, complexes.scale_chain_map(gamma.theta_hom(composite), -1)
        )
    ok = complexes.is_null_homotopic(lhs)
    return ok, "all", f"{_hom_label(h1)} {_hom_label(h2)} {_hom_label(composite)}"


# -- dims-oracle ------------------------------------------------------------


def dims_units(seed: int, pass_index: int) -> list:
    """Shift classes of quadruple pairs on L(3,2), k in [-3, 3], l <= 5."""
    quads = quadruples.enumerate_quadruples(L32, -3, 3, 5)
    classes: dict = {}
    for qs in quads:
        for qt in quads:
            key = (qs.u, qs.l, qs.v, qt.k - qs.k, qt.u, qt.l, qt.v)
            classes.setdefault(key, []).append((qs, qt))
    units = list(classes.items())
    _rng(seed, pass_index).shuffle(units)
    return units


def dims_unit(unit) -> tuple[bool, str, str]:
    key, members = unit
    u, l, v, dk, tu, tl, tv = key
    oracle = complexes.hom_space_dimension(
        quadruples.build_complex(L32, quadruples.Quadruple(0, u, l, v)),
        quadruples.build_complex(L32, quadruples.Quadruple(dk, tu, tl, tv)),
    )
    ok = all(basismaps.hom_dim(L32, qs, qt) == oracle for qs, qt in members)
    return ok, "all", f"{key} {oracle} {len(members)}"


# -- conjugation ------------------------------------------------------------

CONJUGATION_WINDOW = (-4, 4, -4, 4)
CONJUGATION_POOL = 240
CONJUGATION_PER_PASS = 10


def conjugation_units(seed: int, pass_index: int) -> list:
    """Pseudo-identity seeds drawn from a fixed pool; passes of one run never repeat one."""
    order = Random(seed).sample(range(CONJUGATION_POOL), CONJUGATION_POOL)
    start = (pass_index * CONJUGATION_PER_PASS) % CONJUGATION_POOL
    return order[start : start + CONJUGATION_PER_PASS]


def conjugation_unit(instance: int) -> tuple[bool, str, str]:
    data = rigidity.random_pseudo_identity(L32, CONJUGATION_WINDOW, instance)
    family = rigidity.construct_conjugation(data)
    ok = rigidity.verify_naturality(family, data) is None
    coeffs = ";".join(f"{tuple(v)}:{h.f_coeff},{h.g_coeff}" for v, h in family.homs)
    return ok, str(instance), coeffs


# -- certify ----------------------------------------------------------------


def certify_units(seed: int, pass_index: int) -> list:
    """Vertices of L(1,0) on the grid a, b in [-8, 8]."""
    units = _grid(L10, -8, 8)
    _rng(seed, pass_index).shuffle(units)
    return units


def certify_unit(v) -> tuple[bool, str, str]:
    tri = rigidity.standard_triangle(L10, v)
    left = quadruples.build_complex(
        L10, quadruples.suspend_quadruple(gamma.theta_vertex(L10, v))
    )
    right = quadruples.build_complex(
        L10, gamma.theta_vertex(L10, gamma.suspend_vertex(L10, v))
    )
    iso = complexes.is_isomorphic_K(left, right)
    ok = (
        tri.nu != 0
        and bool(iso)
        and iso.forward is not None
        and iso.backward is not None
        and iso.forward.source.key() == left.key()
        and iso.forward.target.key() == right.key()
        and iso.backward.source.key() == right.key()
        and iso.backward.target.key() == left.key()
    )
    record = f"{tuple(v)} {tuple(tri.middle)} {tuple(tri.cone_vertex)} {tri.nu}"
    return ok, "all", record


WORKLOADS = {
    "functoriality": (functoriality_units, functoriality_unit),
    "dims-oracle": (dims_units, dims_unit),
    "conjugation": (conjugation_units, conjugation_unit),
    "certify": (certify_units, certify_unit),
}
