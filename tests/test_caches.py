"""Per-process memos of the chain-level constructors, and the chain-map squares.

The path table, ``build_complex``, ``theta_hom``, the hom quotients
and the rigidity window grids keep their results in memo tables
registered in ``algebra``, each through ``algebra.memoized`` with its own
key; a ``verify`` run fills every one of them, and ``clear_caches``
empties them all.  A memoized object is shared by every
caller, so these tests check that nothing changes one after it was
stored, that a warm memo gives the same reports as a cold one, and that
a fault toggled between two runs is not hidden by results of the first.
Two AST guards keep one memo mechanism, ``algebra.memoized``, and one
rule for "the same complex", ``complexes._same``.  The last tests check that ``validate_chain_map``, which applies the Hom
differential to the map's own terms and so never multiplies out a
square with no component on either side, still reports the lowest
failing square, one degree below the only component or at it.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction

import pytest

from conftest import fault, sites
from kbproj import algebra, complexes, rigidity
from kbproj.algebra import AlgebraSpec, Path, PathCombination, memo_table
from kbproj.cli import _functoriality_checks, _suite, main
from kbproj.complexes import (
    clear_caches,
    hom_space_dimension,
    is_null_homotopic,
    make_chain_map,
    mat_is_zero,
    mat_mul,
    stalk_complex,
    validate_chain_map,
    zero_chain_map,
)
from kbproj.gamma import GammaHom, GammaVertex, suspend_vertex, theta_hom
from kbproj.quadruples import Quadruple, build_complex, enumerate_quadruples

L21 = AlgebraSpec(2, 1)
TABLES = (
    "algebra.path_table",
    "complexes.hom_quotient",
    "quadruples.build_complex",
    "gamma.theta_hom",
    "rigidity.conjugation_domain",
    "rigidity.generator_keys",
)


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()


def verify_json(capsys, *extra) -> tuple[int, str]:
    code = main(["--algebra", "2,1", "verify", "--format", "json", *extra])
    return code, capsys.readouterr().out


def test_memoized_objects_match_fresh_rebuilds():
    report = _suite("functoriality", _functoriality_checks(L21, (-2, 2), (-2, 2)))
    assert report["checks"] > 0 and report["failures"] == []
    stored_complexes = dict(memo_table("quadruples.build_complex"))
    stored_maps = dict(memo_table("gamma.theta_hom"))
    assert stored_complexes and stored_maps
    clear_caches()
    for (spec, q), c in stored_complexes.items():
        fresh = build_complex(spec, q)
        assert fresh is not c
        assert c.key() == fresh.key()
        assert c == fresh
    # each coefficient is keyed by its int numerator and denominator
    assert not any(isinstance(x, Fraction) for key in stored_maps for x in key)
    clear_caches()
    for (spec, source, target, fn, fd, gn, gd), chain in stored_maps.items():
        fresh = theta_hom(GammaHom(spec, source, target, Fraction(fn, fd), Fraction(gn, gd)))
        assert fresh is not chain
        assert chain.key() == fresh.key()
        assert chain.source.key() == fresh.source.key()
        assert chain.target.key() == fresh.target.key()
        assert chain == fresh


def test_build_complex_memo_is_keyed_on_the_quadruple_values():
    c = build_complex(L21, Quadruple(0, 0, 1, 1))
    assert build_complex(L21, (0, 0, 1, 1)) is c
    assert build_complex(L21, [0, 0, 1, 1]) is c
    assert build_complex(AlgebraSpec(2, 1), Quadruple(0, 0, 1, 1)) is c
    assert build_complex(L21, Quadruple(1, 0, 1, 1)) is not c


def test_clear_caches_empties_every_registered_table(capsys):
    assert complexes.clear_caches is algebra.clear_caches
    code, _ = verify_json(capsys)
    assert code == 0
    registry = algebra._MEMO_TABLES
    # every memo table is listed, and a verify run fills each one
    assert set(TABLES) == set(registry)
    assert all(registry[name] for name in TABLES)
    clear_caches()
    assert all(not table for table in registry.values())


def calls_memo_table(node) -> bool:
    return isinstance(node, ast.Call) and "memo_table" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def compares_two_keys(node) -> bool:
    """A comparison with the results of two ``.key()`` calls among its operands."""
    def is_key(x):
        return isinstance(x, ast.Call) and getattr(x.func, "attr", None) == "key" and not x.args
    return isinstance(node, ast.Compare) and sum(map(is_key, [node.left, *node.comparators])) >= 2


def test_memo_table_is_called_only_by_memoized():
    # one memo mechanism: no module keeps a table with get-and-store code of its own
    assert sites(calls_memo_table) == ["algebra.memoized"]


def test_complexes_are_compared_by_key_only_in_same():
    # one rule for "the same complex": every other check goes through _same
    assert sites(compares_two_keys) == ["complexes._same"]


def test_quotient_across_algebras_raises_before_storing_a_core():
    c, d = stalk_complex(L21, 0), stalk_complex(AlgebraSpec(1, 0), 0)
    with pytest.raises(ValueError, match="hom across different algebras"):
        complexes.quotient(c, d)
    assert not memo_table("complexes.hom_quotient")


def test_hom_dimension_sweep_leaves_the_quotient_memo_empty():
    # a sweep asks each pair once, so memoizing it would only hold memory
    quads = enumerate_quadruples(L21, -1, 1, 2)
    complexes = [build_complex(L21, q) for q in quads]
    dims = [hom_space_dimension(c, d) for c in complexes for d in complexes]
    assert any(dims)
    assert memo_table("quadruples.build_complex")
    assert not memo_table("complexes.hom_quotient")
    assert is_null_homotopic(zero_chain_map(complexes[0], complexes[1]))
    assert memo_table("complexes.hom_quotient")


def test_triangles_down_a_suspension_column_share_quotient_cores(monkeypatch):
    spec = AlgebraSpec(1, 0)
    created = {}
    calls = []

    class RecordedCore(complexes._QuotientCore):
        def __init__(self, c, d):
            super().__init__(c, d)
            created[id(self)] = (c, d)

    def counted(c, d, real=complexes.quotient):
        calls.append((c.key(), d.key()))
        return real(c, d)

    monkeypatch.setattr(complexes, "_QuotientCore", RecordedCore)
    monkeypatch.setattr(complexes, "quotient", counted)
    monkeypatch.setattr(rigidity, "quotient", counted)
    column = [GammaVertex(0, -2, 0)]
    for _ in range(3):
        column.append(suspend_vertex(spec, column[-1]))
    for v in column:
        assert rigidity.standard_triangle(spec, v).nu
    stored = list(memo_table("complexes.hom_quotient").values())
    # fewer cores than distinct pairs asked for: suspension shares them
    assert len(stored) < len(set(calls))
    clear_caches()
    for core in stored:
        c, d = created[id(core)]
        fresh = complexes.HomQuotient(c, d)
        assert fresh._core is not core
        assert complexes.HomQuotient(c, d, core).dimension == fresh.dimension
        assert core.boundary.rank == fresh._core.boundary.rank


def test_the_quotient_key_is_hashed_once_and_compared_in_full():
    spec = AlgebraSpec(1, 0)
    p = stalk_complex(spec, 0)
    loop = complexes.mapping_cone(make_chain_map(p, p, {0: ((PathCombination.of(Path(0, (0,))),),)}))
    key = loop.nkey()
    assert key is loop.nkey() and key == tuple(key) and hash(key) == hash(tuple(key))
    # a forged collision of the stored hashes still gives two cores: the memo
    # lookup compares the keys themselves, not their hashes
    p.nkey().hash = key.hash
    assert hash(p.nkey()) == hash(key) and p.nkey() != key
    assert complexes.quotient(p, p)._core is not complexes.quotient(loop, loop)._core
    assert len(memo_table("complexes.hom_quotient")) == 2
    # an equal complex built afresh finds the stored core
    again = complexes.mapping_cone(make_chain_map(p, p, {0: ((PathCombination.of(Path(0, (0,))),),)}))
    assert again is not loop and complexes.quotient(again, again)._core is complexes.quotient(loop, loop)._core


def test_verify_json_is_identical_on_cold_and_warm_caches(capsys):
    cold_code, cold = verify_json(capsys)
    assert any(memo_table(name) for name in TABLES)
    warm_code, warm = verify_json(capsys)
    assert cold_code == warm_code == 0
    assert cold == warm


def test_fault_after_clean_run_is_still_caught(capsys):
    window = ("--k", "0:1", "--l", "1", "--a", "-2:0", "--b", "-2:0", "--oracle", "off")
    code, _ = verify_json(capsys, *window)
    assert code == 0
    assert memo_table("gamma.theta_hom")
    with fault("psi-sign"):
        code, out = verify_json(capsys, *window)
    assert code == 1
    report = json.loads(out)
    functoriality = next(s for s in report["suites"] if s["name"] == "functoriality")
    assert functoriality["failures"]
    code, out = verify_json(capsys, *window)
    assert code == 0
    assert json.loads(out)["ok"] is True


# -- Squares of validate_chain_map around a single component ------------------


def _unit(vertex: int):
    return ((PathCombination.of(Path(vertex, ())),),)


def _failing_degrees(f) -> list[int]:
    """Every degree whose square fails, multiplying at all degrees, skipping none."""
    spec = f.source.spec
    degrees = set(f.source.summands) | set(f.target.summands)
    out = []
    for i in range(min(degrees), max(degrees) + 1):
        lhs = mat_mul(spec, f.target.diff(i), f.component(i))
        rhs = mat_mul(spec, f.component(i + 1), f.source.diff(i))
        if lhs != rhs and not (mat_is_zero(lhs) and mat_is_zero(rhs)):
            out.append(i)
    return out


def test_single_component_failing_below_its_degree_is_reported():
    # P_0 -> P_1 in degrees 0, 1, mapped onto the stalk P_1 in degree 1:
    # the square at degree 1 is zero on both sides, the one at 0 is not.
    source = build_complex(L21, Quadruple(0, 0, 1, 1))
    f = make_chain_map(source, stalk_complex(L21, 1, 1), {1: _unit(1)})
    assert _failing_degrees(f) == [0]
    assert validate_chain_map(f) == "degree 0: does not commute with the differentials"
    with pytest.raises(ValueError, match="not a chain map"):
        is_null_homotopic(f)


def test_single_component_failing_at_its_degree_is_reported():
    # The stalk P_0 in degree 1 mapped into P_0 -> P_1 in degrees 1, 2:
    # the square at degree 0 is zero on both sides, the one at 1 is not.
    target = build_complex(L21, Quadruple(1, 0, 1, 1))
    f = make_chain_map(stalk_complex(L21, 0, 1), target, {1: _unit(0)})
    assert _failing_degrees(f) == [1]
    assert validate_chain_map(f) == "degree 1: does not commute with the differentials"
    with pytest.raises(ValueError, match="not a chain map"):
        is_null_homotopic(f)
