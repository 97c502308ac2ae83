"""Command-line front end.

Verbs: analyze, arrangement {lattice,trichotomy,cone,bound},
pencil {discriminant,classify,syzygy}, suite.
Exit codes: 0 success, 1 input error, 2 mathematical inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arrangements import (LineArrangement, _normalize, cone_construction,
                           multiplicity_bound_check, parse_arrangement_file,
                           tau_combinatorial, trichotomy)
from .backend import BackendDisagreement, make_backend
from .fields import parse_field_tag
from .fixtures import fixture_names, get_fixture
from .pencils import (PencilProductSpec, build_product, discriminant,
                      thmPEN_classify, wedge_syzygy)
from .poly import ParseError, poly_parse
from .suite import run_suite
from .syzygy import is_primitive
from .tjurina import InconsistencyError, classify

__all__ = ["main"]


class InputError(ValueError):
    pass


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _backend(args):
    return make_backend(primes=args.primes, seed=args.seed)


def _load_fixture(name, args):
    """The named fixture, or None.  A fixture has its own field, so a
    ``--field`` given with a fixture name is refused, not ignored."""
    try:
        fx = get_fixture(name, seed=args.seed)
    except (KeyError, ValueError):
        return None
    if args.field is not None:
        raise InputError(f"--field does not apply to the fixture {name!r}, "
                         "which has its own field")
    return fx


def _read_input(args):
    """(text, whether it came from a file): the contents of the file
    ``args.input`` names when that path exists, else ``args.input``."""
    if not os.path.exists(args.input):
        return args.input, False
    with open(args.input) as fh:
        return fh.read(), True


def _resolve_curve(args):
    """Fixture name, file path (arrangement or polynomial), or inline
    polynomial -> (HomogPoly, LineArrangement | None)."""
    field = parse_field_tag(args.field or "Q")
    fx = _load_fixture(args.input, args)
    if fx is not None:
        if fx.f is None:
            raise InputError(f"fixture {args.input!r} is not a curve")
        return fx.f, fx.arrangement
    text, from_file = _read_input(args)
    if from_file:
        try:
            A = parse_arrangement_file(text, field)
            return A.f, A
        except ValueError:
            pass
    try:
        return poly_parse(text.strip(), field), None
    except ParseError as exc:
        raise InputError(f"cannot parse input: {exc}") from exc


def _resolve_arrangement(args) -> LineArrangement:
    field = parse_field_tag(args.field or "Q")
    fx = _load_fixture(args.input, args)
    if fx is not None:
        if fx.arrangement is None:
            raise InputError(f"fixture {args.input!r} has no line arrangement")
        return fx.arrangement
    return parse_arrangement_file(_read_input(args)[0], field)


def _resolve_pencil_spec(args) -> PencilProductSpec:
    fx = _load_fixture(args.input, args)
    if fx is not None:
        if fx.spec is not None:
            return fx.spec
        if fx.pencil is not None:
            # bare pencil: use the three members q1, q2, q1+q2
            return PencilProductSpec(fx.pencil, ts=(fx.pencil.field.one(),))
        raise InputError(f"fixture {args.input!r} is not a pencil")
    if args.field is not None:
        raise InputError("--field does not apply to a pencil spec, which "
                         "names its own field")
    try:
        return PencilProductSpec.from_json_str(_read_input(args)[0])
    except (json.JSONDecodeError, KeyError, ParseError) as exc:
        raise InputError(f"cannot parse pencil spec: {exc}") from exc


def _point(text, field):
    parts = text.replace("(", "").replace(")", "").replace(":", ",").split(",")
    if len(parts) != 3:
        raise InputError(f"expected three coordinates, got {text!r}")
    return tuple(field.scalar_from_str(p.strip()) for p in parts)


def _report_lines(rep):
    lines = [
        f"degree     : {rep.d}",
        f"mdr        : {rep.mdr}",
        f"tau        : {rep.tau}",
        f"class      : {rep.classification}",
        f"exponents  : {rep.exponents}",
        f"dPW bound  : {rep.bounds['value']} ({rep.bounds['active']})",
        f"backend    : {rep.backend} {rep.primes}",
    ]
    if rep.certificate is not None:
        c = rep.certificate.to_json()
        lines.append(f"syzygy     : deg {c['degree']}  a={c['a']}")
        lines.append(f"             b={c['b']}  c={c['c']}")
    return lines


def cmd_analyze(args) -> int:
    f, _ = _resolve_curve(args)
    rep = classify(f, _backend(args))
    _emit(args, rep.to_json(), _report_lines(rep))
    return 0


def cmd_arrangement(args) -> int:
    A = _resolve_arrangement(args)
    backend = _backend(args)
    if args.sub == "lattice":
        lat = A.lattice()
        payload = {
            "d": A.d,
            "m": lat.m_max,
            "tau_combinatorial": tau_combinatorial(A),
            "points": [{
                "point": [A.field.scalar_str(v) for v in p.point],
                "multiplicity": p.multiplicity,
                "lines": list(p.lines),
            } for p in lat.points],
        }
        lines = [f"d = {A.d}, m(A) = {lat.m_max}, "
                 f"tau = {payload['tau_combinatorial']}"]
        for p in lat.points:
            pt = ":".join(A.field.scalar_str(v) for v in p.point)
            lines.append(f"  ({pt})  m={p.multiplicity}  lines {p.lines}")
        _emit(args, payload, lines)
        return 0
    if args.sub == "trichotomy":
        lat = A.lattice()
        if args.point:
            target = _normalize(A.field, _point(args.point, A.field))
            p = lat.point_at(target)
            if p is None:
                raise InputError(f"{args.point} is not a lattice point")
        else:
            p = lat.top()
        tr = trichotomy(A, p, backend)
        payload = {"case": tr.case, "r": tr.r, "m": tr.m, "d": tr.d}
        if tr.report:
            payload["report"] = tr.report.to_json()
        _emit(args, payload,
              [f"case ({tr.case}): r = {tr.r}, m = {tr.m}, d = {tr.d}"])
        return 0
    if args.sub == "cone":
        if not args.apex:
            raise InputError("cone requires --apex a,b,c")
        apex = _point(args.apex, A.field)
        B, sk = cone_construction(A, apex)
        rep = classify(B.f, backend)
        ok = (rep.classification == "free"
              and rep.exponents == sk.expected_exponents
              and rep.tau == sk.expected_tau)
        if not ok:
            raise InconsistencyError(
                f"cone construction not free {sk.expected_exponents} with "
                f"tau {sk.expected_tau}: got {rep.classification} "
                f"{rep.exponents} tau {rep.tau}")
        payload = {"e": sk.e, "added": sk.m, "d": sk.d,
                   "tau": rep.tau, "exponents": list(rep.exponents),
                   "report": rep.to_json()}
        _emit(args, payload,
              [f"cone: e={sk.e}, added={sk.m}, d={sk.d} -> free "
               f"{rep.exponents}, tau={rep.tau}"])
        return 0
    if args.sub == "bound":
        m, rhs, ok = multiplicity_bound_check(A, backend)
        payload = {"m": m, "bound": str(rhs), "ok": ok}
        _emit(args, payload, [f"m(A) = {m} >= 2d/(r+2) = {rhs}: {ok}"])
        return 0 if ok else 2
    raise InputError(f"unknown arrangement subcommand {args.sub!r}")


def cmd_pencil(args) -> int:
    spec = _resolve_pencil_spec(args)
    if args.sub == "discriminant":
        disc = discriminant(spec.pencil)
        payload = disc.to_json()
        lines = [f"degree {payload['degree']}, sum mu {payload['sum_mu']}, "
                 f"distinct roots {payload['distinct_roots']}"]
        for fac in payload["factors"]:
            lines.append(f"  ({fac['poly']})^{fac['multiplicity']}")
        _emit(args, payload, lines)
        return 0
    if args.sub == "classify":
        verdict = thmPEN_classify(spec, _backend(args), seed=args.seed)
        payload = verdict.to_json()
        _emit(args, payload, [
            f"condition (1): {verdict.condition1}",
            f"free {verdict.exponents}: {verdict.free}",
            f"tau = {verdict.tau} (target {verdict.tau_target})",
        ])
        return 0
    if args.sub == "syzygy":
        f = build_product(spec)
        triple = wedge_syzygy(spec.pencil, f)
        payload = dict(triple.to_json(), primitive=is_primitive(triple),
                       f_degree=f.degree)
        _emit(args, payload, [
            f"degree-{triple.degree} syzygy of the degree-{f.degree} product",
            f"  a = {payload['a']}",
            f"  b = {payload['b']}",
            f"  c = {payload['c']}",
            f"  primitive: {payload['primitive']}",
        ])
        return 0
    raise InputError(f"unknown pencil subcommand {args.sub!r}")


def cmd_suite(args) -> int:
    for flag in ("field", "primes"):
        if getattr(args, flag) is not None:
            raise InputError(f"--{flag} does not apply to suite")
    results = run_suite(seed=args.seed, name_filter=args.filter)
    if not results:
        raise InputError(f"filter {args.filter!r} matches no criterion")
    # with --json stdout holds only the JSON, free of wall times
    table = sys.stderr if args.json else sys.stdout
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{status} {r.name:18s} {r.seconds:7.2f}s  {r.doc}", file=table)
        if not r.passed:
            print(f"     {r.detail}", file=table)
    print(f"{len(results) - failed}/{len(results)} criteria passed",
          file=table)
    if args.json:
        print(json.dumps([{"name": r.name, "passed": r.passed,
                           "detail": str(r.detail)} for r in results],
                         sort_keys=True, indent=2))
    return 1 if failed else 0


def _add_common(p):
    p.add_argument("--field",
                   help="base field of an inline polynomial or a file: Q or "
                        "Fp:<prime>, GF(p) with deg f < p < 2^31 (default "
                        "Q); refused with a fixture name or a pencil spec, "
                        "and by suite")
    p.add_argument("--primes", type=int, default=3,
                   help="number of voting primes for the modular backend "
                        "(refused by suite)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomized choices")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jacsyz",
        description="Jacobian syzygies, Tjurina numbers and freeness of "
                    "plane curves; exact arithmetic only.",
        epilog="built-in fixtures: " + ", ".join(fixture_names()))
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a curve (free / nearly "
                       "free / neither / cone)")
    p.add_argument("input", help="fixture name, file, or polynomial")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("arrangement", help="line-arrangement operations")
    p.add_argument("sub", choices=["lattice", "trichotomy", "cone", "bound"])
    p.add_argument("input", help="fixture name or arrangement file")
    p.add_argument("--apex", help="apex a,b,c for the cone construction")
    p.add_argument("--point", help="lattice point a,b,c for trichotomy")
    _add_common(p)
    p.set_defaults(func=cmd_arrangement)

    p = sub.add_parser("pencil", help="pencil-of-curves operations")
    p.add_argument("sub", choices=["discriminant", "classify", "syzygy"])
    p.add_argument("input", help="fixture name or pencil-product JSON")
    _add_common(p)
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("suite", help="run the verification suite")
    p.add_argument("--filter", help="run only criteria whose name contains "
                   "this substring")
    _add_common(p)
    p.set_defaults(func=cmd_suite, primes=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InconsistencyError, BackendDisagreement) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except (InputError, ParseError, KeyError, OSError, ValueError,
            MemoryError) as exc:  # an input too large to compute with
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
