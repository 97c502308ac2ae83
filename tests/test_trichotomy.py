"""The one seeded mdr scan and the one trichotomy, against the scan-based
code they replaced.

``_mdr_scan`` ranks AR_r only below the degree u of an explicit syzygy and
certifies mdr = u with that syzygy, built lazily and verified in each
computing field.  ``trichotomy``, ``thm11_trichotomy``, ``thm13_trichotomy``
and ``multiplicity_bound_check`` all go through it.  The reference functions
below scan mdr from degree 0 up to d-1 and then split the cases, as the
code did before the seed.  Under a modular backend every voting prime
runs the same search: the first from the predicted mdr, the others from
the first prime's answer, so that a prime that agrees takes only the ranks
that prove it; the last tests compare that vote with each prime's own scan.
"""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from jacsyz import arrangements, pencils, syzygy
from jacsyz.arrangements import (LineArrangement, multiplicity_bound_check,
                                 point_syzygy, tau_combinatorial, trichotomy)
from jacsyz.backend import (BackendDisagreement, compute, fields_for,
                            make_backend)
from jacsyz.fields import PrimeField, QQ
from jacsyz.fixtures import fixture_names, get_fixture
from jacsyz.pencils import (base_locus_zero_dimensional, build_product,
                            thm11_trichotomy, thm13_trichotomy)
from jacsyz.poly import HomogPoly, is_reduced, monomials, poly_parse
from jacsyz.syzygy import SyzygyTriple, _mdr_scan, ar_dimension, mdr
from jacsyz.tjurina import InconsistencyError, classify, thmF_gate

ARRANGEMENTS = [n for n in fixture_names()
                if get_fixture(n).arrangement is not None]
PENCIL_PRODUCTS = [n for n in fixture_names() if get_fixture(n).spec is not None]
BACKEND = make_backend(seed=0)


# -- the scan-based reference ------------------------------------------------

def _reference_mdr_scan(f):
    for r in range(f.degree):
        if ar_dimension(f, r) > 0:
            return r
    raise ArithmeticError("no syzygy found up to degree d-1")


def _reference_mdr(f, backend=None):
    return compute(_reference_mdr_scan, f, backend)


def _reference_trichotomy(A, p, backend=None):
    """(case, r, m, d, report JSON) by a full scan, then the case split."""
    m, d, f = p.multiplicity, A.d, A.f
    r = _reference_mdr(f, backend)
    if r > d - m:
        raise InconsistencyError("mdr exceeds d-m")
    if r == d - m:
        return 0, r, m, d, None
    if r <= m - 1:
        if r != m - 1:
            raise InconsistencyError("mdr < m-1 with mdr < d-m")
        report = classify(f, backend)
        if thmF_gate(d, r, report.tau) != "attained":
            raise InconsistencyError("freeness bound not attained")
        return 1, r, m, d, report.to_json()
    if m <= r <= d - m - 1:
        return 2, r, m, d, None
    raise InconsistencyError("trichotomy fell through")


def _reference_thm11(spec, backend):
    P = spec.pencil
    k, m = P.k, spec.m
    if (spec.h is not None or m < 3 or k < 2
            or not base_locus_zero_dimensional(P)):
        raise ValueError("thm11 does not apply")
    f = build_product(spec)
    r = _reference_mdr(f, backend)
    if r == 2 * k - 2:
        return "thm11", "generic", r, (2 * k - 2, 2 * k - 2), None
    if m != 3 or r > 2 * k - 3:
        raise InconsistencyError("theorem violation")
    if r <= k + 1:
        if r != k + 1 or k < 4:
            raise InconsistencyError("case (1) requires mdr = k+1, k >= 4")
        report = classify(f, backend)
        if not (report.classification == "free"
                and report.exponents == (k + 1, 2 * k - 2)):
            raise InconsistencyError("case (1) not free")
        return "thm11", "free", r, (k + 1, k + 1), report.to_json()
    if k >= 5 and k + 2 <= r <= 2 * k - 3:
        return "thm11", "middle", r, (k + 2, 2 * k - 3), None
    raise InconsistencyError("thm11 fell through")


def _reference_thm13(spec, backend):
    P = spec.pencil
    k, m = P.k, spec.m
    if spec.h is None or m < 2:
        raise ValueError("thm13 does not apply")
    f = build_product(spec)
    d = f.degree
    top = 2 * k - 2 + spec.h.degree
    r = _reference_mdr(f, backend)
    if r == top:
        return "thm13", "generic", r, (top, top), None
    if r > top:
        raise InconsistencyError("mdr exceeds 2k-2+deg h")
    lo = (m - 2) * k + 1
    if r <= lo:
        if r != lo:
            raise InconsistencyError("case (1) requires mdr = (m-2)k+1")
        report = classify(f, backend)
        if not (report.classification == "free"
                and report.exponents == (lo, d - lo - 1)):
            raise InconsistencyError("case (1) not free")
        return "thm13", "free", r, (lo, lo), report.to_json()
    if lo + 1 <= r <= top - 1:
        return "thm13", "middle", r, (lo + 1, top - 1), None
    raise InconsistencyError("thm13 fell through")


def _out(t):
    return t.case, t.r, t.m, t.d, t.report.to_json() if t.report else None


def _pencil_out(c):
    return (c.theorem, c.case, c.r, tuple(c.bounds),
            c.report.to_json() if c.report else None)


def _outcome(fn, *args):
    """The value of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


# -- differential tests --------------------------------------------------------

@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_every_fixture_lattice_point_matches_the_scan(name):
    A = get_fixture(name).arrangement
    for p in A.lattice().points:
        assert _out(trichotomy(A, p, BACKEND)) == _reference_trichotomy(
            A, p, BACKEND), p.point


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_multiplicity_bound_matches_the_scan(name):
    A = get_fixture(name).arrangement
    m, rhs, ok = multiplicity_bound_check(A, BACKEND)
    r = _reference_mdr(A.f, BACKEND)
    assert (m, rhs, ok) == (A.lattice().m_max, Fraction(2 * A.d, r + 2),
                            m >= Fraction(2 * A.d, r + 2))


covectors = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    .filter(any), min_size=3, max_size=8)


@settings(max_examples=25, deadline=None)
@given(covectors, st.sampled_from([QQ, PrimeField(1000003)]), st.randoms())
def test_random_arrangements_match_the_scan(covs, field, rnd):
    try:
        A = LineArrangement(field, covs)
    except ValueError:  # repeated line
        return
    points = A.lattice().points
    backend = BACKEND if field == QQ else None
    for p in (points[0], rnd.choice(points)):
        assert _out(trichotomy(A, p, backend)) == _reference_trichotomy(
            A, p, backend)
    r = _reference_mdr(A.f, backend)
    assert multiplicity_bound_check(A, backend)[1] == Fraction(2 * A.d, r + 2)


@pytest.mark.parametrize("name", PENCIL_PRODUCTS)
def test_pencil_fixtures_match_the_scan(name):
    spec = get_fixture(name).spec
    for new, ref in ((thm11_trichotomy, _reference_thm11),
                     (thm13_trichotomy, _reference_thm13)):
        got = _outcome(lambda s, b: _pencil_out(new(s, b)), spec, BACKEND)
        assert got == _outcome(ref, spec, BACKEND)


CURVES = [
    "x^3 + y^3 + z^3", "x^4 + y^4 + z^4", "x^5 + y^5 + z^5 + x^2*y^2*z",
    "x^2 - y^2", "x^3 - y^3", "x^4 - x*y^3", "x^2*y^2 + y^4",  # cones
    "x^2*y", "x^3*z + y^4", "(x + y)^2*z^2 - x^4",  # non-reduced, singular
    "x*y*z", "y^2*z - x^3", "y^6 + x^5*z", "x", "z", "x + 2*y + 3*z",
]


@pytest.mark.parametrize("text", CURVES)
def test_mdr_matches_the_scan(text):
    f = poly_parse(text)
    assert mdr(f) == _reference_mdr_scan(f)
    g = f.map_field(PrimeField(1000003))
    assert mdr(g) == _reference_mdr_scan(g)
    assert mdr(f, BACKEND) == _reference_mdr(f, BACKEND)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32))
def test_mdr_of_random_forms_matches_the_scan(d, seed):
    rng = random.Random(seed)
    F = PrimeField(1000003)
    f = HomogPoly(F, d, {m: rng.choice([0, 0, rng.randrange(1, 7)])
                         for m in monomials(d)})
    if f.degree != d:
        return
    assert mdr(f) == _reference_mdr_scan(f)


# -- the seed: scanned below, built lazily, verified, refused after policy ----

def _ranked_degrees(monkeypatch):
    seen = []
    real = syzygy.ar_dimension

    def recording(f, r):
        seen.append(r)
        return real(f, r)
    monkeypatch.setattr(syzygy, "ar_dimension", recording)
    return seen


def test_no_rank_at_or_above_the_seed_degree(monkeypatch):
    seen = _ranked_degrees(monkeypatch)
    assert mdr(poly_parse("x^4 + y^4 + z^4")) == 3  # the Koszul seed, d-1
    assert seen == [0, 1, 2]
    seen.clear()
    A = get_fixture("ex1").arrangement  # case 0: r = d-m = 2
    assert trichotomy(A, A.lattice().points[0]).r == 2
    assert seen == [1]  # a top point: AR_1 = 0 and the seed prove mdr = 2


def test_mdr_one_below_the_seed_is_found(monkeypatch):
    seen = _ranked_degrees(monkeypatch)
    assert mdr(poly_parse("x*y*z")) == 1  # d-2
    assert seen == [0, 1]
    # one triple point, twelve double points: mdr = d-3 = 3
    A = LineArrangement(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                             (1, 2, 5), (1, -3, 7)])
    top, double = A.lattice().points[0], A.lattice().points[-1]
    assert (top.multiplicity, double.multiplicity) == (3, 2)
    assert _out(trichotomy(A, top)) == (0, 3, 3, 6, None)
    assert _out(trichotomy(A, double)) == (2, 3, 2, 6, None)  # r = u-1


def test_seed_is_built_once_and_only_when_needed(monkeypatch):
    calls = []
    real = arrangements._point_triple

    def counting(A, p):
        calls.append(p.point)
        return real(A, p)
    monkeypatch.setattr(arrangements, "_point_triple", counting)
    A = get_fixture("ex1").arrangement
    assert trichotomy(A, A.lattice().points[0], BACKEND).case == 0
    assert len(calls) == 1  # one build over Q, verified in three primes
    calls.clear()
    A = get_fixture("ex3").arrangement
    assert trichotomy(A, A.lattice().points[-1], BACKEND).case == 2
    assert calls == []  # the middle case never needs the seed


def _smooth_cubic_seed(u):
    return lambda: SyzygyTriple(*(poly_parse(t) for t in u), 3)


BAD_SEEDS = [
    ("x^2", "y^2", "z^2"),   # degree 2, not a syzygy
    ("x*y", "0", "0"),       # degree 2, not a syzygy
    ("0", "0", "0"),         # zero triple
    ("x", "-y", "0"),        # wrong degree
]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_a_bad_seed_is_refused(seed):
    _assert_a_bad_seed_is_refused(seed, guess=None)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_a_bad_top_seed_is_refused(seed):
    _assert_a_bad_seed_is_refused(seed, guess=2)


def _assert_a_bad_seed_is_refused(seed, guess):
    f = poly_parse("x^3 + y^3 + z^3")  # mdr 2: nothing below the seed
    with pytest.raises(ArithmeticError, match="seed syzygy fails in Q$"):
        _mdr_scan(f, 2, _smooth_cubic_seed(seed), guess=guess)
    with pytest.raises(ArithmeticError,
                       match=f"seed syzygy fails in Fp:{BACKEND.primes[0]}$"):
        _mdr_scan(f, 2, _smooth_cubic_seed(seed), BACKEND, guess)
    assert _mdr_scan(f, 2, _smooth_cubic_seed(("y^2", "-x^2", "0")),
                     guess=guess)[0] == 2


def test_seed_with_a_voting_prime_in_a_denominator():
    # the triple point (0 : 1 : -1/p) of x, y + p*z and x + y + p*z has p in
    # a denominator, and so has its syzygy: the seed is made primitive over
    # Q before it is mapped into GF(p)
    p = BACKEND.primes[0]
    A = LineArrangement(QQ, [(1, 0, 0), (0, 1, p), (1, 1, p), (2, 3, 5),
                             (7, -2, 3)])
    top = A.lattice().points[0]
    assert (top.multiplicity, top.point[2]) == (3, Fraction(-1, p))
    assert _out(trichotomy(A, top, BACKEND)) == _reference_trichotomy(
        A, top, BACKEND)


def test_a_bad_point_seed_fails_trichotomy(monkeypatch):
    A = get_fixture("ex1").arrangement  # case 0 needs the seed
    p = A.lattice().points[0]
    good = point_syzygy(A, p)
    bad = SyzygyTriple(good.a, good.b, good.c + good.a, good.f_degree)
    monkeypatch.setattr(arrangements, "_point_triple", lambda A, p: bad)
    first = f"seed syzygy fails in Fp:{BACKEND.primes[0]}$"
    with pytest.raises(ArithmeticError, match=first):
        trichotomy(A, p, BACKEND)
    with pytest.raises(ArithmeticError, match=first):
        multiplicity_bound_check(A, BACKEND)
    with pytest.raises(ArithmeticError, match=first):
        classify(A.f, BACKEND)


def test_small_primes_are_refused_before_a_seed_is_built(monkeypatch):
    def forbidden(*args):
        raise AssertionError("seed built before the field policy")
    monkeypatch.setattr(arrangements, "_point_triple", forbidden)
    monkeypatch.setattr(pencils, "wedge_syzygy", forbidden)
    small = make_backend(primes=[1000003, 5])
    A = get_fixture("ex1").arrangement
    with pytest.raises(ValueError, match="p <= d"):
        trichotomy(A, A.lattice().points[0], small)
    with pytest.raises(ValueError, match="p <= d"):
        multiplicity_bound_check(A, small)
    with pytest.raises(ValueError, match="p <= d"):
        thm11_trichotomy(get_fixture("ex12i:3").spec, small)


def test_free_case_is_exactly_d_minus_1_minus_u():
    A = get_fixture("ex2a").arrangement  # d = 8, m = 4: free (3, 4)
    t = trichotomy(A, A.lattice().points[0], BACKEND)
    assert (t.case, t.r) == (1, 3)
    assert t.report.exponents == (3, 4)
    c = thm13_trichotomy(get_fixture("ex14i:3").spec)
    assert (c.case, c.r, c.bounds) == ("free", 4, (4, 4))
    assert c.report.exponents == (4, 5)


# -- the vote: later primes search from the first prime's answer -----------

SEEDED = [make_backend(seed=s) for s in (0, 7)]


def _field_scans(f, backend):
    """mdr of f's image in each voting field, by its own unvoted scan."""
    return [_reference_mdr_scan(f.map_field(F))
            for F in fields_for(f, backend)]


def _assert_votes_match_field_scans(A, backend):
    scans = _field_scans(A.f, backend)
    assert len(set(scans)) == 1, scans
    r = scans[0]
    assert mdr(A.f, backend) == r
    assert classify(A.f, backend).mdr == r
    for p in A.lattice().points:
        assert trichotomy(A, p, backend).r == r, p.point
    assert multiplicity_bound_check(A, backend)[1] == Fraction(
        2 * A.d, r + 2)


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_checked_vote_matches_every_field_scan(name):
    for backend in SEEDED:
        _assert_votes_match_field_scans(get_fixture(name).arrangement,
                                        backend)


@settings(max_examples=20, deadline=None)
@given(covectors, st.integers(0, 2**16))
def test_checked_vote_matches_field_scans_on_random_arrangements(covs, seed):
    try:
        A = LineArrangement(QQ, covs)
    except ValueError:  # repeated line
        return
    _assert_votes_match_field_scans(A, make_backend(seed=seed))


def _ranks_by_field(monkeypatch):
    seen = {}
    real = syzygy.ar_dimension

    def recording(g, r):
        seen.setdefault(g.field, []).append(r)
        return real(g, r)
    monkeypatch.setattr(syzygy, "ar_dimension", recording)
    return seen


def _expected_ranks(f, backend, r, u, scan=None):
    """The first field takes the ranks ``scan``, by default an upward scan
    of 0..r (0..u-1 at r = u).  Every other field searches from r and, as
    it agrees, ranks at r-1 and, below the seed degree, at r."""
    first, *rest = fields_for(f, backend)
    agreeing = [r - 1] * (r > 0) + [r] * (r < u)
    if scan is None:
        scan = list(range(min(r + 1, u)))
    ranks = {first: scan, **{F: agreeing for F in rest}}
    return {F: seen for F, seen in ranks.items() if seen}


@pytest.mark.parametrize("text", CURVES)
def test_later_fields_only_check_the_mdr(text, monkeypatch):
    f = poly_parse(text)
    r = _reference_mdr_scan(f)
    seen = _ranks_by_field(monkeypatch)
    assert mdr(f, BACKEND) == r
    assert seen == _expected_ranks(f, BACKEND, r, f.degree - 1)


BARE_CURVES = ([t for t in CURVES if is_reduced(poly_parse(t))]
               + [pytest.param(get_fixture(n).f.to_str(), id=n)
                  for n in ("ex3", "ex12ii")])


@pytest.mark.parametrize("text", BARE_CURVES)
def test_classify_of_a_bare_curve_checks_the_mdr_in_later_fields(
        text, monkeypatch):
    # the rank / Hilbert verdict is voted at the mdr the first field found,
    # so no field after the first scans
    f = poly_parse(text)
    r = _reference_mdr(f, BACKEND)
    seen = _ranks_by_field(monkeypatch)
    assert classify(f, BACKEND).mdr == r
    assert seen == _expected_ranks(f, BACKEND, r, f.degree - 1)


@pytest.mark.parametrize("name", ["ex12i:4", "ex12i:5"])
def test_the_free_case_of_thm11_scans_once(name, monkeypatch):
    spec = get_fixture(name).spec
    f = build_product(spec)
    seen = _ranks_by_field(monkeypatch)
    case = thm11_trichotomy(spec, BACKEND)
    assert case.case == "free" and case.report.classification == "free"
    assert seen == _expected_ranks(f, BACKEND, case.r,
                                   2 * spec.pencil.k - 2)


# (first-field ranks of multiplicity_bound_check, of classify).  tau
# predicts mdr = m_max - 1 where it equals phi1 there (ex2a, ex2b, ex12i:2,
# ex12ix:3), which the first tests by ranks at mdr-1 and mdr, and
# mdr = u = d - m_max where tau does not exceed the du Plessis-Wall bound
# at u (triangle, ex1), tested by a rank at u-1 and the seed; elsewhere
# (the middle range) nothing is predicted and it scans upward.  classify
# tests a prediction by the certificate's nullspace, which proves it with
# no rank on these fixtures (all with dim AR_mdr <= 2).
ARRANGEMENT_FIRST_RANKS = {
    "triangle": ([0], []), "ex1": ([1], []),
    "ex2a": ([2, 3], []), "ex2b": ([2, 3], []),
    "ex3": (list(range(10)),) * 2, "ex5": ([0, 1, 2, 3, 4],) * 2,
    "ex12i:2": ([1, 2], []), "ex12i:3": ([0, 1, 2, 3, 4],) * 2,
    "ex12i:4": (list(range(6)),) * 2, "ex12i:5": (list(range(7)),) * 2,
    "ex12ix:3": ([3, 4], []),
}


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_later_fields_only_check_the_arrangement_mdr(name, monkeypatch):
    A = get_fixture(name).arrangement
    u = A.d - A.lattice().m_max
    r = _reference_mdr(A.f, BACKEND)
    scan, proved = ARRANGEMENT_FIRST_RANKS[name]
    seen = _ranks_by_field(monkeypatch)
    assert multiplicity_bound_check(A, BACKEND)[1] == Fraction(2 * A.d, r + 2)
    assert seen == _expected_ranks(A.f, BACKEND, r, u, scan)
    seen.clear()
    assert classify(A.f, BACKEND).mdr == r
    assert seen == _expected_ranks(A.f, BACKEND, r, u, proved)


def _first_field_ranks(monkeypatch, fn, A):
    seen = _ranks_by_field(monkeypatch)
    fn()
    return seen.get(fields_for(A.f, BACKEND)[0], [])


@pytest.mark.parametrize("name, u, r", [("ex1", 2, 2), ("ex2a", 4, 3),
                                        ("ex3", 13, 9)])
def test_a_top_seed_ranks_its_degree_first(name, u, r, monkeypatch):
    # a top seed ranks AR_{u-1} first (ex1) unless tau predicts another
    # mdr: m - 1 (ex2a, ranked at 2 and 3) or none, where tau exceeds the
    # du Plessis-Wall bound at u (ex3): then it scans upward from 0;
    # classify proves a predicted mdr (ex1, ex2a) from its certificate's
    # nullspace and takes no rank
    A = get_fixture(name).arrangement
    top = A.lattice().points[0]
    assert (A.d - top.multiplicity, _reference_mdr(A.f, BACKEND)) == (u, r)
    scan, proved = ARRANGEMENT_FIRST_RANKS[name]
    assert _first_field_ranks(
        monkeypatch, lambda: classify(A.f, BACKEND), A) == proved
    assert _first_field_ranks(
        monkeypatch, lambda: multiplicity_bound_check(A, BACKEND), A) == scan
    # the free case (ex2a) reports at that mdr without scanning again
    assert _first_field_ranks(
        monkeypatch, lambda: trichotomy(A, top, BACKEND), A) == scan


def test_a_lower_point_ranks_upward_from_zero(monkeypatch):
    A = get_fixture("ex3").arrangement  # mdr 9 <= d - m_max < d - m
    low = A.lattice().points[-1]
    assert low.multiplicity < A.lattice().m_max
    ranks = _first_field_ranks(
        monkeypatch, lambda: trichotomy(A, low, BACKEND), A)
    assert ranks == list(range(10))


# d = 8, m_max = 3 and tau = 33, the du Plessis-Wall bound at u = 5: tau
# does not exclude mdr = u, so u is the prediction, but mdr = 4 (the middle
# range).  Testing u costs classify the certificate's nullspace at 5 before
# the ranks, one nullspace more than ranking first.
MIDDLE = [(-2, -2, 2), (-2, -1, -1), (-2, -1, 2), (-2, 0, 1), (0, -2, -2),
          (0, 1, 2), (0, 2, 1), (1, -1, -1)]


def test_a_wrong_prediction_costs_classify_one_nullspace(monkeypatch):
    A = LineArrangement(QQ, MIDDLE)
    top = A.lattice().points[0]
    assert (A.d, top.multiplicity, tau_combinatorial(A)) == (8, 3, 33)
    assert _out(trichotomy(A, top, BACKEND)) == _reference_trichotomy(
        A, top, BACKEND) == (2, 4, 3, 8, None)
    assert multiplicity_bound_check(A, BACKEND)[1] == Fraction(2 * 8, 4 + 2)
    first = fields_for(A.f, BACKEND)[0]
    seen = []
    for kind, name in (("rank", "ar_dimension"),
                       ("nullspace", "_slice_nullspace")):
        def spy(g, r, real=getattr(syzygy, name), kind=kind):
            if g.field == first:
                seen.append((kind, r))
            return real(g, r)
        monkeypatch.setattr(syzygy, name, spy)
    ranks = [("rank", r) for r in (4, 0, 1, 2, 3)]
    for fn in (multiplicity_bound_check, lambda A, b: trichotomy(A, top, b)):
        seen.clear()
        fn(A, BACKEND)
        assert seen == ranks
    seen.clear()
    assert classify(A.f, BACKEND).mdr == _reference_mdr(A.f, BACKEND)
    assert seen == [("nullspace", 5)] + ranks + [("nullspace", 4)]


BAD = 1000003  # x + y + BAD*z meets x and y at one point mod BAD only


@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_bad_prime_in_any_position_gives_the_same_disagreement(position):
    primes = [1000033, 1000037]
    primes.insert(position, BAD)
    backend = make_backend(primes=primes)
    A = LineArrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, BAD)])
    answers = [(f"Fp:{p}", 1 if p == BAD else 2) for p in primes]
    assert answers == list(zip([F.tag for F in backend.fields],
                               _field_scans(A.f, backend)))
    message = f"backend disagreement on mdr: {answers}"
    for f, fn in product((A.f, poly_parse(A.f.to_str())), (classify, mdr)):
        with pytest.raises(BackendDisagreement) as exc:
            fn(f, backend)
        assert str(exc.value) == message
        assert (exc.value.what, exc.value.answers) == ("mdr", answers)


# the ranks of each voting field, in field order, on that disagreement:
# every field after the first searches from the first field's answer, and
# one that disagrees goes on to its own mdr
DISAGREEMENT_RANKS = {
    (0, "classify"): ([1, 0], [0, 1], [0, 1]),
    (0, "mdr"): ([0, 1], [0, 1, 2], [0, 1, 2]),
    (1, "classify"): ([1], [1, 0], [1]),
    (1, "mdr"): ([0, 1, 2], [1, 0], [1, 2]),
    (2, "classify"): ([1], [1], [1, 0]),
    (2, "mdr"): ([0, 1, 2], [1, 2], [1, 0]),
}


@pytest.mark.parametrize("position, call", sorted(DISAGREEMENT_RANKS))
def test_a_disagreeing_field_searches_from_the_first_answer(
        position, call, monkeypatch):
    primes = [1000033, 1000037]
    primes.insert(position, BAD)
    backend = make_backend(primes=primes)
    A = LineArrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, BAD)])
    # classify takes the arrangement route, mdr gets the bare curve
    f, fn = ((A.f, classify) if call == "classify"
             else (poly_parse(A.f.to_str()), mdr))
    seen = _ranks_by_field(monkeypatch)
    with pytest.raises(BackendDisagreement, match="disagreement on mdr"):
        fn(f, backend)
    assert tuple(seen.get(F, []) for F in backend.fields) == (
        DISAGREEMENT_RANKS[position, call])


@pytest.mark.parametrize("later", [1, 2])
def test_a_seed_that_fails_only_in_a_later_field_is_refused(later):
    _assert_a_later_field_refuses_the_seed(later, guess=None)


@pytest.mark.parametrize("later", [1, 2])
def test_a_top_seed_that_fails_only_in_a_later_field_is_refused(later):
    _assert_a_later_field_refuses_the_seed(later, guess=2)


def _assert_a_later_field_refuses_the_seed(later, guess):
    # (y^2 + k*x^2, -x^2, 0) is a syzygy of the Fermat cubic exactly modulo
    # the primes that divide k: here every voting prime before ``later``
    primes = BACKEND.primes
    k = prod(primes[:later])
    f = poly_parse("x^3 + y^3 + z^3")
    seed = _smooth_cubic_seed((f"y^2 + {k}*x^2", "-x^2", "0"))
    with pytest.raises(ArithmeticError,
                       match=f"seed syzygy fails in Fp:{primes[later]}$"):
        _mdr_scan(f, 2, seed, BACKEND, guess)
    assert _mdr_scan(f, 2, seed, make_backend(primes=primes[:later]),
                     guess)[0] == 2


# -- one mdr per arrangement ----------------------------------------------------
#
# ``trichotomy`` takes the arrangement's mdr where ``classify`` and
# ``multiplicity_bound_check`` take it (``tjurina._seeded_mdr``): seeded by a
# point of highest multiplicity at every lattice point, so that the first
# field ranks the same degrees for every point as for the bound check.

def _first_ranks_per_call(mp, A, backend):
    seen = _ranks_by_field(mp)
    first = fields_for(A.f, backend)[0]

    def ranks(fn):
        seen.clear()
        fn()
        return seen.get(first, [])
    return ranks


def _assert_one_mdr(A, backend):
    with pytest.MonkeyPatch.context() as mp:
        ranks = _first_ranks_per_call(mp, A, backend)
        bound = ranks(lambda: multiplicity_bound_check(A, backend))
        for p in A.lattice().points:
            assert ranks(lambda: trichotomy(A, p, backend)) == bound, p.point


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_every_point_ranks_as_the_bound_check(name):
    _assert_one_mdr(get_fixture(name).arrangement, BACKEND)


@settings(max_examples=20, deadline=None)
@given(covectors, st.sampled_from([QQ, PrimeField(1000003)]))
def test_every_point_of_a_random_arrangement_ranks_as_the_bound_check(
        covs, field):
    try:
        A = LineArrangement(field, covs)
    except ValueError:  # repeated line
        return
    _assert_one_mdr(A, BACKEND if field == QQ else None)


def test_a_double_point_takes_the_top_point_check(monkeypatch):
    # one triple point, twelve double points, mdr = d - m_max = 3: at a
    # double point (u = 4) one rank at 2 per field and the top point's seed
    # prove mdr = 3; the double point's own syzygy is never built
    A = LineArrangement(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                             (1, 2, 5), (1, -3, 7)])
    top, double = A.lattice().points[0], A.lattice().points[-1]
    built = []
    real = arrangements._point_triple

    def counting(A, p):
        built.append(p.point)
        return real(A, p)
    monkeypatch.setattr(arrangements, "_point_triple", counting)
    seen = _ranks_by_field(monkeypatch)
    assert _out(trichotomy(A, double, BACKEND)) == (2, 3, 2, 6, None)
    assert seen == {F: [2] for F in fields_for(A.f, BACKEND)}
    assert built == [top.point]  # built once over Q, not the double point's
