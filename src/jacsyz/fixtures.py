"""Named example fixtures: the line arrangements, pencil products and
pencils used throughout the test and verification suites.

Names accept an optional integer parameter after a colon, e.g. ``ex12i:4`` or
``ex14ii:5``.  Arrangements whose lines need roots of unity are realized over
a prime field GF(p) with p = 1 (mod k).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .arrangements import LineArrangement
from .fields import Field, PrimeField, QQ, random_primes
from .pencils import PencilProductSpec, PencilSpec, build_product
from .poly import HomogPoly, poly_parse
from .uni import UniPoly

__all__ = ["Fixture", "get_fixture", "fixture_names", "FIXTURES"]


@dataclass
class Fixture:
    name: str
    kind: str  # "arrangement" | "curve" | "pencil"
    f: HomogPoly | None = None
    arrangement: LineArrangement | None = None
    pencil: PencilSpec | None = None
    spec: PencilProductSpec | None = None
    expected: dict = dc_field(default_factory=dict)


def _arr(covectors, field: Field = QQ) -> LineArrangement:
    return LineArrangement(field, covectors)


_EX1_LINES = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, 0, -1), (1, 0, 1), (1, -1, 0)]
_EX2A_LINES = _EX1_LINES + [(1, 1, 0), (0, 1, -1)]
_EX2B_LINES = _EX2A_LINES + [(0, 1, 1)]
_EX3_LINES = _EX2B_LINES + [
    (1, 2, 0), (1, -2, 0), (1, 0, 2), (1, 0, -2), (0, 1, -2), (0, 1, 2),
    (1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, 1, 1)]


def _root_of_unity(F: PrimeField, k: int):
    """An element of exact multiplicative order k (p = 1 mod k required)."""
    p = F.p
    if (p - 1) % k:
        raise ValueError(f"{p} != 1 mod {k}")
    for a in range(2, 200):
        w = pow(a, (p - 1) // k, p)
        if all(pow(w, j, p) != 1 for j in range(1, k)):
            return F.coerce(w)
    raise ArithmeticError("no k-th root of unity found")


def _fermat_lines(k: int, seed: int = 0, with_xyz: bool = False):
    """The 3k lines of (x^k-y^k)(y^k-z^k)(x^k-z^k) over GF(p), p = 1 mod k,
    optionally together with the coordinate triangle."""
    p = random_primes(1, seed=seed, congruence=(1, k))[0]
    F = PrimeField(p)
    w = _root_of_unity(F, k)
    covs = []
    pw = [F.one()]
    for _ in range(k - 1):
        pw.append(F.mul(pw[-1], w))
    for i in range(k):
        covs.append((F.one(), F.neg(pw[i]), F.zero()))   # x - w^i y
    for i in range(k):
        covs.append((F.zero(), F.one(), F.neg(pw[i])))   # y - w^i z
    for i in range(k):
        covs.append((F.one(), F.zero(), F.neg(pw[i])))   # x - w^i z
    if with_xyz:
        covs += [(F.one(), F.zero(), F.zero()),
                 (F.zero(), F.one(), F.zero()),
                 (F.zero(), F.zero(), F.one())]
    return LineArrangement(F, covs)


def _fermat_pencil(k: int, field: Field = QQ) -> PencilSpec:
    x, y, z = (HomogPoly.variable(field, i) for i in range(3))
    return PencilSpec(x ** k - y ** k, y ** k - z ** k)


def _hesse_pencil(field: Field = QQ) -> PencilSpec:
    x, y, z = (HomogPoly.variable(field, i) for i in range(3))
    return PencilSpec(x ** 3 + y ** 3 + z ** 3, x * y * z)


def _power_diff_group(field: Field, s: int) -> UniPoly:
    """Monic g with group product q1^s - q2^s (the members q1 + t q2 over the
    roots of g)."""
    coeffs = [field.zero()] * (s + 1)
    coeffs[s] = field.one()
    coeffs[0] = field.coerce((-1) ** (s + 1))
    return UniPoly(field, coeffs)


def _ex12ii_spec(field: Field = QQ) -> PencilProductSpec:
    g = UniPoly(field, [field.coerce(9), field.coerce(-3), field.one()])
    return PencilProductSpec(_hesse_pencil(field),
                             ts=(field.coerce(-3),), groups=(g,))


def _ex14i_spec(k: int, field: Field = QQ) -> PencilProductSpec:
    return PencilProductSpec(_fermat_pencil(k, field),
                             ts=(field.one(),),
                             h=HomogPoly.variable(field, 0))


def _ex14ii_spec(m: int, field: Field = QQ) -> PencilProductSpec:
    x, y, z = (HomogPoly.variable(field, i) for i in range(3))
    return PencilProductSpec(
        PencilSpec(x, y),
        groups=(_power_diff_group(field, m - 1),),
        h=x * y + z ** 2,
        include_q2=False,
    )


def _ex14iip_spec(m: int, field: Field = QQ) -> PencilProductSpec:
    x, y, z = (HomogPoly.variable(field, i) for i in range(3))
    return PencilProductSpec(
        PencilSpec(x, y),
        groups=(_power_diff_group(field, m - 2),),
        h=x * y + z ** 2,
    )


def _free_expect(d, d1, d2):
    d1, d2 = sorted((d1, d2))
    return {"d": d, "class": "free", "exponents": (d1, d2), "mdr": d1,
            "tau": (d - 1) ** 2 - d1 * d2}


def _nearly_free_expect(d, d1, d2):
    return {"d": d, "class": "nearly-free", "exponents": (d1, d2), "mdr": d1,
            "tau": (d - 1) ** 2 - d1 * (d2 - 1) - 1}


def get_fixture(name: str, seed: int = 0) -> Fixture:
    """Look up a fixture by name, e.g. "ex1", "ex12i:4", "fermat:3"."""
    base, _, arg = name.partition(":")
    n = int(arg) if arg else None

    if base == "triangle":
        A = _arr([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        return Fixture(name, "arrangement", A.f, A,
                       expected=dict(_free_expect(3, 1, 1), m=2))
    if base == "ex1":
        A = _arr(_EX1_LINES)
        return Fixture(name, "arrangement", A.f, A,
                       expected=dict(_free_expect(6, 2, 3), m=4))
    if base == "ex2a":
        A = _arr(_EX2A_LINES)
        return Fixture(name, "arrangement", A.f, A,
                       expected=dict(_free_expect(8, 3, 4), m=4))
    if base == "ex2b":
        A = _arr(_EX2B_LINES)
        return Fixture(name, "arrangement", A.f, A,
                       expected=dict(_free_expect(9, 3, 5), m=4))
    if base == "ex3":
        A = _arr(_EX3_LINES)
        return Fixture(name, "arrangement", A.f, A,
                       expected=dict(_free_expect(19, 9, 9), m=6))
    if base == "ex5":
        A = _fermat_lines(3, seed=seed)
        P = _fermat_pencil(3)
        spec = PencilProductSpec(P, ts=(Fraction(1),))
        return Fixture(name, "arrangement", build_product(spec), A,
                       pencil=P, spec=spec,
                       expected=dict(_free_expect(9, 4, 4), m=3))
    if base == "ex12i":
        k = n or 3
        A = _fermat_lines(k, seed=seed) if k >= 2 else None
        P = _fermat_pencil(k)
        spec = PencilProductSpec(P, ts=(Fraction(1),))
        exp = _free_expect(3 * k, k + 1, 2 * k - 2)
        if k >= 3:
            exp["m"] = k
        return Fixture(name, "arrangement", build_product(spec), A,
                       pencil=P, spec=spec, expected=exp)
    if base == "ex12ix":
        k = n or 3
        A = _fermat_lines(k, seed=seed, with_xyz=True)
        P = _fermat_pencil(k)
        f = build_product(PencilProductSpec(P, ts=(Fraction(1),))) \
            * poly_parse("x*y*z")
        return Fixture(name, "arrangement", f, A, pencil=P,
                       expected=_free_expect(3 * k + 3, k + 1, 2 * k + 1))
    if base == "ex12ii":
        spec = _ex12ii_spec()
        return Fixture(name, "curve", build_product(spec),
                       pencil=spec.pencil, spec=spec,
                       expected=_free_expect(15, 4, 10))
    if base == "ex14i":
        k = n or 3
        spec = _ex14i_spec(k)
        d = 3 * k + 1
        return Fixture(name, "curve", build_product(spec),
                       pencil=spec.pencil, spec=spec,
                       expected=_free_expect(d, k + 1, 2 * k - 1))
    if base == "ex14ii":
        m = n or 5
        spec = _ex14ii_spec(m)
        return Fixture(name, "curve", build_product(spec),
                       pencil=spec.pencil, spec=spec,
                       expected=_nearly_free_expect(m + 2, 2, m))
    if base == "ex14iip":
        m = n or 5
        spec = _ex14iip_spec(m)
        return Fixture(name, "curve", build_product(spec),
                       pencil=spec.pencil, spec=spec,
                       expected=_free_expect(m + 2, 2, m - 1))
    if base == "hesse":
        P = _hesse_pencil()
        return Fixture(name, "pencil", pencil=P,
                       expected={"k": 3, "disc_degree": 12})
    if base == "fermat":
        k = n or 3
        P = _fermat_pencil(k)
        return Fixture(name, "pencil", pencil=P,
                       expected={"k": k, "disc_degree": 3 * (k - 1) ** 2})
    raise KeyError(f"unknown fixture {name!r}")


FIXTURES = ["triangle", "ex1", "ex2a", "ex2b", "ex3", "ex5", "ex12i:2",
            "ex12i:3", "ex12i:4", "ex12i:5", "ex12ix:3", "ex12ii",
            "ex14i:3", "ex14ii:3", "ex14ii:4", "ex14ii:5", "ex14ii:6",
            "ex14iip:4", "ex14iip:5", "hesse", "fermat:2", "fermat:3"]


def fixture_names():
    return list(FIXTURES)
