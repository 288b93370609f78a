"""Shared fixtures: the algebra list, a from-scratch path enumerator,
deliberate faults in the basis maps, and ``sites``, which the AST guards use.

The enumerator below rebuilds the quiver with relations directly from the
(n, m) parameters - vertex range, one arrow into each vertex, forbidden
cycle pairs - without touching the package's path machinery, so the two
routes stay independent.
"""

from __future__ import annotations

import ast
import contextlib
import pathlib

import pytest

from kbproj import algebra, basismaps, gamma
from kbproj.algebra import AlgebraSpec, successor_power
from kbproj.complexes import clear_caches, scale_chain_map

ALGEBRA_PARAMS = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 2)]


@pytest.fixture(params=ALGEBRA_PARAMS, ids=lambda p: f"L({p[0]},{p[1]})")
def spec(request) -> AlgebraSpec:
    n, m = request.param
    return AlgebraSpec(n, m)


def brute_arrow_words(n: int, m: int, u: int, v: int) -> list[tuple[int, ...]]:
    """Arrow words of the nonzero paths from u to v, rebuilt from scratch.

    The quiver has vertices -m..n-1, one arrow w into each vertex w whose
    source is w+1 (or 0 for the closing arrow n-1), and a word vanishes
    as soon as it contains two consecutive cycle arrows (a, b) with
    b = a+1 mod n.  Words are listed in algebra order: the first arrow is
    applied last.
    """

    def source(w: int) -> int:
        return 0 if w == n - 1 else w + 1

    words: list[tuple[int, ...]] = []
    frontier: list[tuple[int, tuple[int, ...]]] = [(u, ())]
    while frontier:
        at, word = frontier.pop()
        if at == v:
            words.append(word)
        for w in range(-m, n):
            if source(w) != at:
                continue
            if word and word[0] >= 0 and w >= 0 and word[0] == (w + 1) % n:
                continue
            frontier.append((w, (w,) + word))
    words.sort(key=lambda word: (len(word), word))
    return words


# -- Deliberate faults ---------------------------------------------------------


def _unsigned_psi_map(spec, q_target, q_source):
    """psi_map without its sign (-1)^(k+l): composites mixing parities go wrong."""
    chain = basismaps.psi_map(spec, q_target, q_source)
    k, _, l, _ = q_source
    return scale_chain_map(chain, -1) if (k + l) % 2 else chain


def _in_phi_without_degree_clause(spec, q_target, q_source):
    """basismaps._in_phi without its ``kp == k and not (u <= up)`` clause."""
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    if not (kp <= k <= kp + lp <= k + l):
        return False
    if successor_power(spec, up, lp + 1) != successor_power(spec, u, kp + lp + 1 - k):
        return False
    top = successor_power(spec, u, l)
    if k + l == kp + lp and v < top and not (v <= vp < top):
        return False
    if k == kp + lp and vp != successor_power(spec, up, lp) and u <= vp:
        return False
    return True


_FAULTS = {
    # theta_hom looks psi_map up in gamma; hom_dim, in_phi and phi_map look
    # _in_phi up in basismaps
    "psi-sign": (gamma, "psi_map", _unsigned_psi_map),
    "phi-membership": (basismaps, "_in_phi", _in_phi_without_degree_clause),
}


@contextlib.contextmanager
def fault(name: str):
    """Run the block with one basis-map fault patched in, emptying every memo
    before and after so that no result crosses the boundary."""
    module, attr, broken = _FAULTS[name]
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, attr, broken)
            yield
    finally:
        clear_caches()


# -- AST guards ----------------------------------------------------------------


def sites(hit) -> list[str]:
    """Where the package's modules hold a node that ``hit`` accepts:
    module.function, or the module alone."""
    out = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if hit(child):
                out.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{path.stem}.{child.name}" if inner else where)

    modules = sorted(pathlib.Path(algebra.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        visit(ast.parse(path.read_text()), path.stem)
    return out
