"""Command-line front end: hom queries, verification sweeps, and exports.

Subcommands (all take --algebra N,M):

- hom: dimension and basis labels between two vertices or two index
  quadruples, with an optional chain-level cross-check.
- verify: the invariant suites (dimension agreement, basis maps,
  functoriality, suspension squares, irreducibles, triangles, rigidity)
  on a window, with a JSON report; exit code 1 on any failure.
- ar-export: the vertex grid with irreducible-map edges as DOT or JSON,
  shifted-projective vertices marked.
- rigidity-check: seeded random pseudo-identity data (or data from a
  JSON file) run through validation, the conjugation construction, and
  the naturality check, shared with verify's rigidity suite.

Exit codes: 0 success, 1 verification failure, 2 usage error.  ``_emit``
alone writes the report header ``{"schema": 2, "algebra": [n, m]}``; JSON
reports are byte-identical for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraSpec
from .basismaps import hom_dim, in_phi, in_psi, irr_targets_quadruple, phi_map, psi_map
from .complexes import (
    _INT_TEXT,
    _int_literal,
    add_chain_maps,
    compose_chain_maps,
    hom_space_dimension,
    homotopy_rank,
    is_isomorphic_K,
    is_null_homotopic,
    quotient,
    scale_chain_map,
    validate_chain_map,
)
from .gamma import (
    GammaVertex,
    gamma_compose,
    in_F,
    in_G,
    irreducible_targets,
    is_shifted_projective,
    is_vertex,
    suspend_vertex,
    theta_hom,
    theta_vertex,
)
from .quadruples import Quadruple, build_complex, enumerate_quadruples, in_calC, suspend_quadruple
from .rigidity import (
    InvalidPseudoIdentity,
    TriangleCertificationError,
    Window,
    _generator_hom,
    check_window,
    construct_conjugation,
    family_to_obj,
    generator_keys,
    identity_data,
    identity_family,
    pseudo_identity_from_obj,
    random_pseudo_identity,
    standard_triangle,
    validate_pseudo_identity,
    verify_naturality,
)


class UsageError(argparse.ArgumentTypeError):
    """Bad arguments: argparse reports one met while parsing, ``main`` one met
    after it, both on exit code 2."""


# -- Argument parsing -----------------------------------------------------------


def _integer(text: str) -> int:
    """An integer as the CLI reads every number: ``complexes._INT_TEXT``, ASCII
    digits with an optional sign and whitespace around, read by ``_int_literal``."""
    if not _INT_TEXT.fullmatch(text):
        raise UsageError(f"expected an integer, got {text!r}")
    try:
        return _int_literal(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _pair(text: str, sep: str, flag: str, form: str) -> tuple[int, int]:
    """The two integers of ``text``, written ``form``; UsageError naming ``flag`` otherwise."""
    parts = text.split(sep)
    if len(parts) != 2:
        raise UsageError(f"{flag} expects {form}, got {text!r}")
    try:
        return _integer(parts[0]), _integer(parts[1])
    except UsageError:
        raise UsageError(f"{flag} expects integers, got {text!r}") from None


def _algebra_spec(text: str) -> AlgebraSpec:
    n, m = _pair(text, ",", "--algebra", "N,M")
    if n < 1 or m < 0:
        raise UsageError(f"--algebra needs N >= 1 and M >= 0, got {text!r}")
    return AlgebraSpec(n, m)


def _parse_span(text: str, flag: str) -> tuple[int, int]:
    lo, hi = _pair(text, ":", flag, "LO:HI")
    if lo > hi:
        raise UsageError(f"{flag} window {text!r} is empty")
    return lo, hi


def _parse_window(a_span: tuple[int, int], b_span: tuple[int, int]) -> Window:
    """The --a/--b rectangle, which must be able to seed the conjugation sweep."""
    window = (a_span[0], a_span[1], b_span[0], b_span[1])
    try:
        check_window(window)
    except ValueError as exc:
        raise UsageError(f"--a/--b: {exc}") from None
    return window


def _parse_point(spec: AlgebraSpec, text: str):
    """A vertex (i,a,b) or a quadruple (k,u,l,v) from its printed form, as
    ``str(tuple(v))`` or ``quadruples.format_quadruple`` write it: integers
    as ``_integer`` reads them, separated by commas, optionally in one pair
    of parentheses."""
    body = text.strip()
    if body[:1] == "(" and body[-1:] == ")":
        body = body[1:-1]
    try:
        numbers = [_integer(p) for p in body.split(",")]
    except UsageError:
        raise UsageError(f"cannot parse {text!r} as a vertex or quadruple") from None
    if len(numbers) == 3:
        v = GammaVertex(*numbers)
        if not is_vertex(spec, v):
            raise UsageError(f"{text!r} is not a vertex of the grid")
        return v
    if len(numbers) == 4:
        q = Quadruple(*numbers)
        if not in_calC(spec, q):
            raise UsageError(f"{text!r} is not in the indexing family")
        return q
    raise UsageError(f"expected (i,a,b) or (k,u,l,v), got {text!r}")


def _window_vertices(spec: AlgebraSpec, a_span: tuple[int, int], b_span: tuple[int, int]):
    out = []
    for i in range(spec.n):
        for a in range(a_span[0], a_span[1] + 1):
            for b in range(b_span[0], b_span[1] + 1):
                v = GammaVertex(i, a, b)
                if is_vertex(spec, v):
                    out.append(v)
    return out


# The version of the report format; the data formats keep complexes.SCHEMA_VERSION.
REPORT_SCHEMA = 2


def _emit(spec: AlgebraSpec, obj: dict, fmt: str, text_lines: list[str]) -> None:
    """Print the text lines, or obj under the report header as canonical JSON."""
    if fmt == "json":
        report = {"schema": REPORT_SCHEMA, "algebra": [spec.n, spec.m], **obj}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- hom --------------------------------------------------------------------------


def cmd_hom(spec: AlgebraSpec, args: argparse.Namespace) -> int:
    source = _parse_point(spec, args.from_)
    target = _parse_point(spec, args.to)
    if type(source) is not type(target):
        raise UsageError("--from and --to must both be vertices or both be quadruples")
    if isinstance(source, GammaVertex):
        members = {"f": in_F(spec, source, target), "g": in_G(spec, source, target)}
        oracle_pair = (theta_vertex(spec, source), theta_vertex(spec, target))
    else:
        members = {"phi": in_phi(spec, target, source), "psi": in_psi(spec, target, source)}
        oracle_pair = (source, target)
    labels = [label for label, member in members.items() if member]
    dim = len(labels)
    obj = {"from": list(source), "to": list(target), "dim": dim, "basis": labels}
    lines = [f"dim {dim}: {', '.join(labels)}" if labels else f"dim {dim}"]
    if args.oracle == "on":
        oracle_dim = hom_space_dimension(
            build_complex(spec, oracle_pair[0]), build_complex(spec, oracle_pair[1])
        )
        obj["oracle_dim"] = oracle_dim
        obj["ok"] = oracle_dim == dim
        lines.append(f"oracle dim {oracle_dim}")
        if not obj["ok"]:
            lines.append("MISMATCH")
    _emit(spec, obj, args.format, lines)
    return 0 if obj.get("ok", True) else 1


# -- verify ------------------------------------------------------------------------


def _suite(name: str, checks) -> dict:
    """The report of a suite from its per-check failure lines ([] for a pass)."""
    results = list(checks)
    failures = [line for lines in results for line in lines]
    return {"name": name, "checks": len(results), "failures": failures}


def _shift_classes(spec: AlgebraSpec, k_span, l_max):
    """Each pair of window quadruples, its representative with the source in
    degree 0, and whether that representative is new to the walk."""
    quads = enumerate_quadruples(spec, k_span[0], k_span[1], l_max)
    seen: set[tuple] = set()
    for qs in quads:
        for qt in quads:
            rep = (Quadruple(0, qs.u, qs.l, qs.v), Quadruple(qt.k - qs.k, qt.u, qt.l, qt.v))
            yield qs, qt, rep, rep not in seen
            seen.add(rep)


def _dims_checks(spec: AlgebraSpec, k_span, l_max):
    oracle: dict[tuple, int] = {}
    for qs, qt, rep, new in _shift_classes(spec, k_span, l_max):
        if new:
            oracle[rep] = hom_space_dimension(*(build_complex(spec, q) for q in rep))
        formula = hom_dim(spec, qs, qt)
        if formula == oracle[rep]:
            yield []
        else:
            yield [f"{tuple(qs)} -> {tuple(qt)}: formula {formula}, oracle {oracle[rep]}"]


def _basis_checks(spec: AlgebraSpec, k_span, l_max):
    for _, _, (rep_s, rep_t), new in _shift_classes(spec, k_span, l_max):
        if not new:
            continue
        claimed = [
            (label, build)
            for label, member, build in (("phi", in_phi, phi_map), ("psi", in_psi, psi_map))
            if member(spec, rep_t, rep_s)
        ]
        if not claimed:
            continue
        pair = f"{tuple(rep_s)} -> {tuple(rep_t)}"
        failures, maps = [], []
        for label, build in claimed:
            try:
                maps.append((label, build(spec, rep_t, rep_s)))
            except ValueError as exc:
                failures.append(f"{label} {pair}: {exc}")
        if not failures:
            for label, chain in maps:
                problem = validate_chain_map(chain) or (
                    "null-homotopic" if quotient(chain.source, chain.target).contains(chain) else None
                )
                if problem is not None:
                    failures.append(f"{label} {pair}: {problem}")
            if len(maps) == 2 and homotopy_rank([c for _, c in maps]) != 2:
                failures.append(f"{pair}: pair is not rank 2")
        yield failures


def _functoriality_checks(spec: AlgebraSpec, a_span, b_span):
    vertices = tuple(_window_vertices(spec, a_span, b_span))
    gens = [
        _generator_hom(spec, key)
        for key in generator_keys(spec, vertices)
        if key[0] == "g" or key[1] != key[2]
    ]
    by_source: dict[GammaVertex, list] = {}
    for h in gens:
        by_source.setdefault(h.source, []).append(h)
    for h1 in gens:
        for h2 in by_source.get(h1.target, ()):
            composite = gamma_compose(h2, h1)
            lhs = compose_chain_maps(theta_hom(h2), theta_hom(h1))
            if not composite.is_zero():
                lhs = add_chain_maps(lhs, scale_chain_map(theta_hom(composite), -1))
            if is_null_homotopic(lhs):
                yield []
            else:
                yield [f"{tuple(h1.source)} -> {tuple(h1.target)} -> {tuple(h2.target)}"]


def _suspension_checks(spec: AlgebraSpec, a_span, b_span):
    for v in _window_vertices(spec, a_span, b_span):
        left = build_complex(spec, suspend_quadruple(theta_vertex(spec, v)))
        right = build_complex(spec, theta_vertex(spec, suspend_vertex(spec, v)))
        yield [] if is_isomorphic_K(left, right) else [f"suspension square fails at {tuple(v)}"]


def _irreducibles_checks(spec: AlgebraSpec, a_span, b_span):
    for v in _window_vertices(spec, a_span, b_span):
        transported = [theta_vertex(spec, t) for t in irreducible_targets(spec, v)]
        table = irr_targets_quadruple(spec, theta_vertex(spec, v))
        if transported == table:
            yield []
        else:
            yield [
                f"{tuple(v)}: transported {[tuple(q) for q in transported]}"
                f" != table {[tuple(q) for q in table]}"
            ]


def _triangles_checks(spec: AlgebraSpec, a_span, b_span):
    for v in _window_vertices(spec, a_span, b_span):
        try:
            standard_triangle(spec, v)
            yield []
        except TriangleCertificationError as exc:
            yield [str(exc)]


def _conjugation_check(data) -> tuple:
    """The conjugation family of pseudo-identity data and the failure lines
    of its naturality check ([] when natural); the family is None, and the
    one line says why, when the construction fails."""
    try:
        family = construct_conjugation(data)
    except InvalidPseudoIdentity as exc:
        return None, [str(exc)]
    cx = verify_naturality(family, data)
    if cx is None:
        return family, []
    return family, [
        f"naturality fails for {cx.kind} {tuple(cx.source)} -> {tuple(cx.target)}: "
        f"phi o F(h) = {cx.lhs.f_coeff} f + {cx.lhs.g_coeff} g, "
        f"h o phi = {cx.rhs.f_coeff} f + {cx.rhs.g_coeff} g"
    ]


def _rigidity_checks(spec: AlgebraSpec, window: Window, seed: int):
    ident = identity_data(spec, window)
    if construct_conjugation(ident) == identity_family(spec, ident.vertices()):
        yield []
    else:
        yield ["identity data does not return the identity family"]
    for s in range(seed, seed + 3):
        _, violations = _conjugation_check(random_pseudo_identity(spec, window, s))
        yield [f"seed {s}: {line}" for line in violations]


def cmd_verify(spec: AlgebraSpec, args: argparse.Namespace) -> int:
    k_span = _parse_span(args.k, "--k")
    a_span = _parse_span(args.a, "--a")
    b_span = _parse_span(args.b, "--b")
    window = _parse_window(a_span, b_span)
    if args.l < 0:
        raise UsageError("--l must be nonnegative")
    suites = [_suite("dims", _dims_checks(spec, k_span, args.l))] if args.oracle == "on" else []
    suites.append(_suite("basis", _basis_checks(spec, k_span, args.l)))
    suites.append(_suite("functoriality", _functoriality_checks(spec, a_span, b_span)))
    suites.append(_suite("suspension", _suspension_checks(spec, a_span, b_span)))
    suites.append(_suite("irreducibles", _irreducibles_checks(spec, a_span, b_span)))
    suites.append(_suite("triangles", _triangles_checks(spec, a_span, b_span)))
    suites.append(_suite("rigidity", _rigidity_checks(spec, window, args.seed)))
    ok = all(not s["failures"] for s in suites)
    obj = {
        "window": {"k": list(k_span), "l": args.l, "a": list(a_span), "b": list(b_span)},
        "seed": args.seed,
        "oracle": args.oracle == "on",
        "suites": [{**s, "failures": s["failures"][:10]} for s in suites],
        "ok": ok,
    }
    lines = []
    for s in suites:
        lines.append(f"{s['name']}: {s['checks']} checks, {len(s['failures'])} failures")
        for example in s["failures"][:3]:
            lines.append(f"  {example}")
    lines.append("OK" if ok else "FAIL")
    _emit(spec, obj, args.format, lines)
    return 0 if ok else 1


# -- ar-export -----------------------------------------------------------------------


def cmd_ar_export(spec: AlgebraSpec, args: argparse.Namespace) -> int:
    a_span = _parse_span(args.a, "--a")
    b_span = _parse_span(args.b, "--b")
    vertices = sorted(_window_vertices(spec, a_span, b_span))
    inside = set(vertices)
    edges = [(v, t) for v in vertices for t in irreducible_targets(spec, v) if t in inside]
    obj = {
        "window": {"a": list(a_span), "b": list(b_span)},
        "vertices": [
            {
                "vertex": list(v),
                "shifted_projective": (
                    list(sp) if (sp := is_shifted_projective(spec, v)) is not None else None
                ),
            }
            for v in vertices
        ],
        "edges": [{"from": list(v), "to": list(t)} for v, t in edges],
    }
    lines = ["digraph grid {"]
    for v, record in zip(vertices, obj["vertices"]):
        shape = " shape=box" if record["shifted_projective"] is not None else ""
        lines.append(f'  "{v.i},{v.a},{v.b}" [label="({v.i},{v.a},{v.b})"{shape}];')
    for v, t in edges:
        lines.append(f'  "{v.i},{v.a},{v.b}" -> "{t.i},{t.a},{t.b}";')
    lines.append("}")
    _emit(spec, obj, args.format, lines)
    return 0


# -- rigidity-check ---------------------------------------------------------------------


def cmd_rigidity_check(spec: AlgebraSpec, args: argparse.Namespace) -> int:
    instances = []
    family_obj = None
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                data = pseudo_identity_from_obj(json.load(handle, parse_int=_int_literal))
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load pseudo-identity data: {exc}") from None
        if data.spec != spec:
            raise UsageError("data algebra does not match --algebra")
        window = data.window
        violations = validate_pseudo_identity(data)[:10]
        if not violations:
            family, violations = _conjugation_check(data)
            if not violations:
                family_obj = family_to_obj(family)
        instances.append({"source": args.input, "violations": violations, "ok": not violations})
    else:
        window = _parse_window(_parse_span(args.a, "--a"), _parse_span(args.b, "--b"))
        if args.count < 1:
            raise UsageError("--count must be positive")
        for seed in range(args.seed, args.seed + args.count):
            _, violations = _conjugation_check(random_pseudo_identity(spec, window, seed))
            entry = {"seed": seed, "ok": not violations}
            if violations:
                entry["violations"] = violations
            instances.append(entry)
    ok = all(entry["ok"] for entry in instances)
    obj = {
        "window": {"a": list(window[:2]), "b": list(window[2:])},
        "seed": args.seed,
        "instances": instances,
        "ok": ok,
    }
    if family_obj is not None:
        obj["family"] = family_obj
    lines = []
    for entry in instances:
        tag = entry.get("source", f"seed {entry.get('seed')}")
        lines.append(f"{tag}: {'ok' if entry['ok'] else 'FAIL'}")
        for violation in entry.get("violations", [])[:3]:
            lines.append(f"  {violation}")
    lines.append("OK" if ok else "FAIL")
    _emit(spec, obj, args.format, lines)
    return 0 if ok else 1


# -- Entry point ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbproj",
        description="Homotopy-category calculator for the one-cycle gentle algebras",
    )
    parser.add_argument("--algebra", required=True, metavar="N,M", help="algebra parameters")
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser("hom", help="dimension and basis of a hom space")
    hom.set_defaults(run=cmd_hom)
    hom.add_argument("--from", dest="from_", required=True, metavar="POINT")
    hom.add_argument("--to", required=True, metavar="POINT")
    hom.add_argument("--format", choices=["text", "json"], default="text")
    hom.add_argument("--oracle", choices=["on", "off"], default="off")

    verify = sub.add_parser("verify", help="run the invariant suites on a window")
    verify.set_defaults(run=cmd_verify)
    verify.add_argument("--k", default="-2:2", metavar="LO:HI")
    verify.add_argument("--l", type=_integer, default=3, metavar="MAX")
    verify.add_argument("--a", default="-2:2", metavar="LO:HI")
    verify.add_argument("--b", default="-2:2", metavar="LO:HI")
    verify.add_argument("--seed", type=_integer, default=0)
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--oracle", choices=["on", "off"], default="on")

    export = sub.add_parser("ar-export", help="vertex grid with irreducible-map edges")
    export.set_defaults(run=cmd_ar_export)
    export.add_argument("--a", default="0:2", metavar="LO:HI")
    export.add_argument("--b", default="0:2", metavar="LO:HI")
    export.add_argument("--format", choices=["dot", "json"], default="dot")

    rigidity = sub.add_parser("rigidity-check", help="conjugation construction on seeded data")
    rigidity.set_defaults(run=cmd_rigidity_check)
    rigidity.add_argument("--a", default="-2:2", metavar="LO:HI", help="ignored with --input")
    rigidity.add_argument("--b", default="-2:2", metavar="LO:HI", help="ignored with --input")
    rigidity.add_argument("--seed", type=_integer, default=0)
    rigidity.add_argument("--count", type=_integer, default=5)
    rigidity.add_argument("--input", default=None, metavar="FILE")
    rigidity.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join a long option and a value that starts with "-" and a digit, as in
    "--k -1:1" or "--from -1,0,0,0", into "--k=-1:1", which argparse parses."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev[:2] == "--" and len(prev) > 2 and "=" not in prev and tok[:1] == "-" and "0" <= tok[1:2] <= "9":
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.run(_algebra_spec(args.algebra), args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
