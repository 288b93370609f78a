"""Closed-form hom spaces between the indecomposable complexes.

Hom up to homotopy between two family members has dimension 0, 1 or 2,
witnessed by at most one unsigned "graph-type" basis map (phi) and at
most one signed "singleton-type" basis map (psi).  Membership is decided
by inequalities on the quadruples; the maps themselves are assembled
from stationary, factor and maximal paths.  The oracle in
``complexes`` recomputes the same dimensions by linear algebra, which is
what the verification sweeps compare against.
"""

from __future__ import annotations

from .algebra import AlgebraSpec, Path, factor_path, max_path, successor_power
from .complexes import ChainMap, _chain_map
from .quadruples import Quadruple, build_complex, in_calC, tail_position


def _check_pair(spec: AlgebraSpec, q_target: Quadruple, q_source: Quadruple) -> None:
    if not in_calC(spec, q_target) or not in_calC(spec, q_source):
        raise ValueError("quadruples outside the family")


def in_phi(spec: AlgebraSpec, q_target: Quadruple, q_source: Quadruple) -> bool:
    """Whether the unsigned basis map C_{q_source} -> C_{q_target} exists.

    Raises ValueError unless both quadruples are in the family.
    """
    _check_pair(spec, q_target, q_source)
    return _in_phi(spec, q_target, q_source)


def _in_phi(spec: AlgebraSpec, q_target: Quadruple, q_source: Quadruple) -> bool:
    """:func:`in_phi` for quadruples already known to be in the family."""
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    if not (kp <= k <= kp + lp <= k + l):
        return False
    if successor_power(spec, up, lp + 1) != successor_power(spec, u, kp + lp + 1 - k):
        return False
    if kp == k and not (u <= up):
        return False
    top = successor_power(spec, u, l)
    if k + l == kp + lp and v < top and not (v <= vp < top):
        return False
    # When the map consists of the bottom factor path alone (no identity
    # components) and the target has a tail below the slot it lands in,
    # the factor path slides down the target's tail differential and the
    # map is null-homotopic; such pairs contribute nothing.
    if k == kp + lp and vp != successor_power(spec, up, lp) and u <= vp:
        return False
    return True


def _psi_r1(spec, q_target, q_source) -> bool:
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    if not (kp <= k + l <= kp + lp):
        return False
    top = successor_power(spec, u, l)
    if v == top:
        return True
    return kp < k + l - 1 or (kp == k + l - 1 and v <= up)


def _psi_r2(spec, q_target, q_source) -> bool:
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    if k + l != kp + lp + 1:
        return False
    top = successor_power(spec, u, l)
    if not v < top:
        return False
    tail_anchor = successor_power(spec, up, lp)
    if not (vp < v or vp == tail_anchor):
        return False
    # the factor path from v into the target's top must exist
    return v <= tail_anchor


def in_psi(spec: AlgebraSpec, q_target: Quadruple, q_source: Quadruple) -> bool:
    """Whether the signed basis map C_{q_source} -> C_{q_target} exists.

    Raises ValueError unless both quadruples are in the family.
    """
    _check_pair(spec, q_target, q_source)
    return _in_psi(spec, q_target, q_source)


def _in_psi(spec: AlgebraSpec, q_target: Quadruple, q_source: Quadruple) -> bool:
    """:func:`in_psi` for quadruples already known to be in the family."""
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    if not (k <= kp or (k == kp + 1 and up < u)):
        return False
    if not (_psi_r1(spec, q_target, q_source) or _psi_r2(spec, q_target, q_source)):
        return False
    return successor_power(spec, u, l + 1) == successor_power(spec, up, k + l - kp)


def hom_dim(spec: AlgebraSpec, q_source: Quadruple, q_target: Quadruple) -> int:
    """Dimension of Hom(C_{q_source}, C_{q_target}) up to homotopy.

    Checks once that both quadruples are in the family (ValueError if not),
    then counts the phi and psi basis maps without checking again.
    """
    _check_pair(spec, q_target, q_source)
    return int(_in_phi(spec, q_target, q_source)) + int(_in_psi(spec, q_target, q_source))


def phi_map(spec: AlgebraSpec, q_target: Quadruple, q_source: Quadruple) -> ChainMap:
    """The unsigned basis map: factor path at the bottom, identities along
    the shared successor chain, and a tail-to-tail factor when the tops align.
    Chain summands sit at index 0, tails at ``quadruples.tail_position``.
    """
    if not in_phi(spec, q_target, q_source):
        raise ValueError(f"phi not defined for {tuple(q_source)} -> {tuple(q_target)}")
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    anchor = successor_power(spec, up, k - kp)
    terms = [(1, (k, 0, 0, factor_path(spec, u, anchor)))]
    for i in range(k + 1, kp + lp + 1):
        terms.append((1, (i, 0, 0, Path(successor_power(spec, u, i - k), ()))))
    if k + l == kp + lp and v < successor_power(spec, u, l):
        tail = factor_path(spec, v, vp)
        terms.append((1, (k + l - 1, tail_position(q_target), tail_position(q_source), tail)))
    return _chain_map(build_complex(spec, q_source), build_complex(spec, q_target), terms)


def psi_map(spec: AlgebraSpec, q_target: Quadruple, q_source: Quadruple) -> ChainMap:
    """The signed basis map, with global sign (-1)^(k+l) of the source: its
    tail (at ``quadruples.tail_position``) and, under the first rule, its top
    map into the target's chain summands, at index 0.
    """
    if not in_psi(spec, q_target, q_source):
        raise ValueError(f"psi not defined for {tuple(q_source)} -> {tuple(q_target)}")
    kp, up, lp, vp = q_target
    k, u, l, v = q_source
    sign = 1 if (k + l) % 2 == 0 else -1
    top = successor_power(spec, u, l)
    terms = []
    if v != top:
        # under either rule the tail lands on the target's chain one degree below the top
        anchor = successor_power(spec, up, k + l - 1 - kp)
        terms.append((sign, (k + l - 1, 0, tail_position(q_source), factor_path(spec, v, anchor))))
    if _psi_r1(spec, q_target, q_source):
        terms.append((sign, (k + l, 0, 0, max_path(spec, top))))
    return _chain_map(build_complex(spec, q_source), build_complex(spec, q_target), terms)


def irr_targets_quadruple(spec: AlgebraSpec, q: Quadruple) -> list[Quadruple]:
    """Targets of the irreducible maps out of C_q, longer one first.

    The first target always exists (extend the chain downward); the
    second (shorten or grow the tail) exists unless the complex is a
    stalk at a simple-ended position.
    """
    if not in_calC(spec, q):
        raise ValueError(f"{tuple(q)} is not in the family")
    k, u, l, v = q
    n, m = spec.n, spec.m
    out = []
    if u > 1:
        out.append(Quadruple(k - 1, u - 1, l + 1, v))
    elif (n > 1 and u == 1) or (n == 1 and u == 0):
        out.append(Quadruple(k - 1, -m, l + 1, v))
    elif u == 0:
        out.append(Quadruple(k - 1, n - 1, l + 1, v))
    elif l == 0 and v == u:
        # one-term complex low in the tail range: the irreducible map is
        # the arrow into the next one-term complex, not into the cone
        out.append(Quadruple(k, u + 1, l, u + 1))
    else:
        out.append(Quadruple(k, u + 1, l, v))
    if l > 0:
        below = successor_power(spec, u, l - 1)
        if v > 0 or v == -1 or (v == 0 and m == 0):
            out.append(Quadruple(k, u, l - 1, below))
        elif v == 0:
            out.append(Quadruple(k, u, l, -m))
        else:
            out.append(Quadruple(k, u, l, v + 1))
    else:
        if -m < u and u == v and v <= 0:
            out.append(Quadruple(k, u, l, -m))
        elif v + 1 < u:
            out.append(Quadruple(k, u, l, v + 1))
    return out
