"""The fast routes of ``classify``, tested against the paths they replace:
the one-rank free test against the Hilbert oracle for free curves, the
arrangement route against the bare polynomial with the same coefficients,
and its mdr, proved from the certificate's nullspace where 2 m_max >= d,
against the scan (``_mdr_scan``); and the reducedness gate in front of all
of them."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, example, given, settings, strategies as st

from jacsyz import poly, syzygy, tjurina
from jacsyz.arrangements import (LineArrangement, arrangement_to_file,
                                 cone_construction, lattice,
                                 multiplicity_bound_check, tau_combinatorial)
from jacsyz.backend import BackendDisagreement, fields_for, make_backend
from jacsyz.cli import main
from jacsyz.fields import PrimeField, QQ
from jacsyz.fixtures import fixture_names, get_fixture
from jacsyz.poly import HomogPoly, homog_gcd, is_reduced, poly_parse
from jacsyz.syzygy import (_koszul, _mdr_scan, ar_dimension, ar_slice,
                           graded_multiplication_matrix, mdr)
from jacsyz.tjurina import NotReducedError, classify, global_tjurina

_hilbert_profile = tjurina._profile

A3 = "(x^2-y^2)*(y^2-z^2)*(x^2-z^2)"  # free, exponents (2, 3)
F_LARGE = PrimeField(1000003)
MODULAR = make_backend(seed=0)


def bare(f):
    """f's coefficients with no arrangement recorded, as parsed text gives
    them: an arrangement's own product would take the arrangement route."""
    return HomogPoly(f.field, f.degree, dict(f.coeffs))


def run_classify(f, backend=None, rank=True):
    """classify(f), with the one-rank free test switched off if ``rank`` is
    false; also returns the tau of every Hilbert profile it computed."""
    taus = []

    def profile(g):
        prof = _hilbert_profile(g)
        taus.append(prof.tau)
        return prof

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tjurina, "_profile", profile)
        if not rank:
            mp.setattr(tjurina, "_free_by_rank", lambda g, r: False)
        rep = classify(f, backend)
    return rep, taus


def assert_matches_hilbert_oracle(f, backend=None, fast=None):
    """The fast report equals the Hilbert-path report byte for byte, and
    every Hilbert profile of the oracle has the fast tau."""
    if fast is None:
        fast, fast_taus = run_classify(f, backend)
        assert fast_taus == []  # decided by the rank alone
    slow, slow_taus = run_classify(f, backend, rank=False)
    assert fast.classification == "free"
    assert (json.dumps(fast.to_json(), sort_keys=True)
            == json.dumps(slow.to_json(), sort_keys=True))
    assert slow_taus and set(slow_taus) == {fast.tau}
    return fast


CURVE_FIXTURES = [name for name in fixture_names()
                  if get_fixture(name).kind != "pencil"]


@pytest.mark.parametrize("name", CURVE_FIXTURES)
def test_free_fixtures_match_hilbert_oracle(name):
    fx = get_fixture(name)
    f = bare(fx.f)
    backend = make_backend(primes=1, seed=0) if f.field == QQ else None
    fast, fast_taus = run_classify(f, backend)
    if fast.classification != "free":
        assert fx.expected["class"] != "free"
        return
    assert fast_taus == []
    assert_matches_hilbert_oracle(f, backend, fast)
    assert fast.exponents == fx.expected["exponents"]


def _random_cones(seed, count):
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        covs = {tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                for _ in range(rng.randint(3, 4))}
        covs.discard((0, 0, 0))
        try:
            A = LineArrangement(QQ, sorted(covs))
        except ValueError:
            continue
        apex = tuple(Fraction(rng.randint(1, 7)) for _ in range(3))
        if (A.d < 3 or len(A.lattice().points) < 2
                or any(l.contains(apex) for l in A.lines)):
            continue
        B, sk = cone_construction(A, apex)
        if B.d <= 10:
            cones.append((B, sk))
    return cones


@pytest.fixture(scope="module")
def cones():
    return _random_cones(seed=2024, count=6)


@pytest.mark.parametrize("index", range(6))
def test_random_cones_match_hilbert_oracle(cones, index):
    B, sk = cones[index]
    rep = assert_matches_hilbert_oracle(bare(B.f),
                                        make_backend(primes=1, seed=index))
    assert (rep.exponents, rep.tau) == (sk.expected_exponents, sk.expected_tau)


def test_rational_backend_matches_hilbert_oracle():
    rep = assert_matches_hilbert_oracle(poly_parse(A3), make_backend("rational"))
    assert rep.certificate.field == QQ
    assert (rep.exponents, rep.tau) == ((2, 3), 19)


def test_largest_prime_matches_hilbert_oracle():
    F = PrimeField(2**31 - 1)
    f = poly_parse("x*y*z*(x+y)*(x-y)", F)
    # the largest prime below 2^31 still runs in the int64 kernels
    assert graded_multiplication_matrix(list(f.gradient()), 1,
                                        5).dtype == np.int64
    rep = assert_matches_hilbert_oracle(f)
    assert (rep.exponents, rep.tau) == ((1, 3), 13)


def _form(field, degree, coeffs):
    """The degree-``degree`` form with the first coefficients of ``coeffs``
    on the graded-lex monomials."""
    return HomogPoly(field, degree, {
        m: field.coerce(c) for m, c in zip(poly.monomials(degree), coeffs)
        if c})


def spied_classify(f, backend):
    """classify(f), recording the field and degree of every rank that
    ``tjurina`` takes and the degree of every nullspace."""
    ranks, nullspaces = [], []
    real_rank, real_nullspace = tjurina.ar_dimension, syzygy._slice_nullspace

    def rank(g, k):
        ranks.append((g.field, k))
        return real_rank(g, k)

    def nullspace(g, k):
        nullspaces.append(k)
        return real_nullspace(g, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tjurina, "ar_dimension", rank)
        mp.setattr(syzygy, "_slice_nullspace", nullspace)
        rep = classify(f, backend)
    return rep, ranks, nullspaces


FACTORS = st.lists(
    st.tuples(st.sampled_from([1, 1, 2, 3]),
              st.lists(st.sampled_from([0, 0, 1, -1]), min_size=10,
                       max_size=10)),
    min_size=2, max_size=5)
RANK_SETTINGS = [(F_LARGE, None, 7), (QQ, make_backend("rational"), 6),
                 (QQ, MODULAR, 7)]  # (field, backend, degree cap)


@settings(max_examples=60, deadline=None)
@given(FACTORS, st.sampled_from(RANK_SETTINGS))
@example([(2, [1, 0, 0, 1, 0, -1]), (2, [0, 0, 0, -1, 1, -1]),
          (3, [0, 0, 0, 0, 0, 0, 0, 1, 0, -1])],
         RANK_SETTINGS[0])  # free (2, 4)
@example([(1, [0, 1, 0]), (1, [-1, 0, 0]), (3, [0, 0, 0, 0, 0, 1, 0, -1, 1])],
         RANK_SETTINGS[1])  # free (2, 2)
@example([(2, [1, 0, 0, 0, 0, -1]), (1, [0, 1, 1]), (1, [1, 0, 0]),
          (2, [1, 0, -1, 0, 0, -1])], RANK_SETTINGS[2])  # free (1, 4)
@example([(1, [1, 0, 1]), (2, [-1, 0, 0, 0, 0, -1]), (1, [1, 1, 0]),
          (2, [0, 1, 1, 0, 0, 0])], RANK_SETTINGS[2])  # nearly free (2, 4)
def test_rank_test_matches_hilbert_oracle(factors, setting):
    field, backend, cap = setting
    f = None
    for degree, coeffs in factors:
        if f is not None and f.degree + degree > cap:
            break
        g = _form(field, degree, coeffs)
        f = g if f is None else f * g
    if not is_reduced(f):
        return
    fast, ranks, nullspaces = spied_classify(f, backend)
    d, r = fast.d, fast.mdr
    if not (r >= 1 and 2 * r <= d - 1):
        return
    slow, slow_taus = run_classify(f, backend, rank=False)
    assert _json(fast) == _json(slow)
    assert set(slow_taus) == {fast.tau}
    # one rank at d-1-r in each voting field; the only nullspace taken is
    # the certificate's, at r
    assert [F for F, k in ranks if k == d - 1 - r] == fields_for(f, backend)
    assert nullspaces == [r]


NEARLY_FREE = "y^6 + x^5*z"  # over Q: nearly free, exponents (1, 5), tau 20


@pytest.mark.parametrize("p", [5, 7])
def test_classify_refuses_prime_at_most_degree(p):
    # d = 7 >= p; over GF(5), f_x of y^6 + x^5*z vanishes identically
    f = poly_parse("x*(" + NEARLY_FREE + ")", PrimeField(p))
    with pytest.raises(ValueError, match="p <= d"):
        classify(f)


def test_classify_refuses_small_prime_in_voting_backend():
    f = poly_parse(NEARLY_FREE)
    with pytest.raises(ValueError, match=r"p = \[5\]"):
        classify(f, make_backend(primes=[5, 7, 11]))
    rep = classify(f, make_backend(primes=[7, 11, 13]))  # all p > d = 6
    assert (rep.classification, rep.exponents, rep.tau) == (
        "nearly-free", (1, 5), 20)


def test_cli_refuses_prime_at_most_degree(capsys):
    assert main(["analyze", NEARLY_FREE, "--field", "Fp:5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "p <= d" in err
    assert main(["analyze", NEARLY_FREE, "--field", "Fp:7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == 20


def _no_linear_algebra(*args, **kwargs):
    raise AssertionError("linear algebra ran on non-reduced input")


def test_non_reduced_input_is_never_free(capsys):
    F = PrimeField(1000003)
    f = poly_parse("x^2*y*z", F)
    # the curve has a Saito pair in degrees 1 + 2 = 3: only the reducedness
    # gate keeps it off the fast path, and it runs before any rank
    assert not is_reduced(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tjurina, "mdr", _no_linear_algebra)
        mp.setattr(tjurina, "milnor_hilbert", _no_linear_algebra)
        with pytest.raises(ValueError, match="not reduced"):
            classify(f)
        with pytest.raises(ValueError, match="not reduced"):
            global_tjurina(f)
        with pytest.raises(ValueError, match="not reduced"):
            global_tjurina(poly_parse("x^2*y*z"), make_backend(seed=0))
        code = main(["analyze", "x^2*y*z", "--field", "Fp:1000003"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and "not reduced" in err


def test_non_reduced_rational_input_exits_1(capsys):
    assert main(["analyze", "x^2*y*z*(x+y+z)"]) == 1
    assert "not reduced" in capsys.readouterr().err


def test_bad_first_prime_is_refused_not_voted():
    # f is reduced over Q, but its image mod p is x^2*y*z, which votes free
    # (1, 2) with tau 7 inside the phi1 bound: a vote in that image would
    # report a free curve, so the gate refuses it and names the prime
    p, q = 1000003, 1000033
    f = poly_parse(f"x^2*y*z + {p}*(x^4 + y^4 + z^4)")
    image = f.map_field(PrimeField(p))
    assert is_reduced(f) and not is_reduced(image)
    assert tjurina._free_by_rank(image, 1)
    assert tjurina._bare_verdict(image, mdr(image)) == tjurina._Verdict(
        1, 7, "free", (1, 2))
    for primes in ([p], [p, q]):
        with pytest.raises(NotReducedError, match=f"or {p} is a bad prime"):
            classify(f, make_backend(primes=primes))
        with pytest.raises(NotReducedError, match=f"or {p} is a bad prime"):
            global_tjurina(f, make_backend(primes=primes))
    # a bad later prime is outvoted loudly by the first, reduced, image
    with pytest.raises(BackendDisagreement):
        classify(f, make_backend(primes=[q, p]))
    assert classify(f, make_backend(primes=[q])).classification == "neither"


def _witness_line_forms():
    """The linear forms of the three witness lines of ``is_reduced``."""
    forms = []
    for a, b in poly._WITNESS_LINES:
        c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        forms.append(poly_parse(f"({c[0]})*x + ({c[1]})*y + ({c[2]})*z"))
    return forms


def test_gcd_fallback_decides_curves_through_every_witness_line():
    l1, l2, l3 = _witness_line_forms()
    gcd_calls = []

    def counting_gcd(p, q):
        gcd_calls.append(1)
        return homog_gcd(p, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "homog_gcd", counting_gcd)
        assert is_reduced(poly_parse("x*y*z"))
        assert gcd_calls == []  # a witness line decides
        assert is_reduced(l1 * l2 * l3 * poly_parse("x^2 + y*z"))
        assert gcd_calls
        assert not is_reduced(l1 * l1 * l2 * l3)
    # the gate admits it through the fallback over a voting prime too
    f = l1 * l2 * l3 * poly_parse("x*y")
    assert classify(f, make_backend(primes=1, seed=0)).tau == (
        global_tjurina(f).tau)


def test_reducedness_witness():
    for text in ["x*y*z", A3, "y^2*z - x^3", "x^4 + y^4 + z^4"]:
        assert is_reduced(poly_parse(text))
    for text in ["x^2*y*z", "(x+y+z)^2*(x-y)", "(x^2+y*z)^2", "1", "0"]:
        assert not is_reduced(poly_parse(text))


def test_rank_test_rejects_non_free_curves():
    # nearly free with 2*mdr <= d-1: the rank test applies and says no
    for f in [poly_parse("y^2*z - x^3"), get_fixture("ex14ii:4").f]:
        rep = classify(f)
        assert rep.classification != "free"
        assert 2 * rep.mdr <= rep.d - 1
        assert not tjurina._free_by_rank(f, rep.mdr)


# -- the arrangement route, against the bare polynomial ----------------------

ARRANGEMENT_FIXTURES = [name for name in fixture_names()
                        if get_fixture(name).arrangement is not None]

# mdr < d - m_max: the scan below the point syzygy finds the answer
FREE_BELOW_SEED = [(1, 0, 1), (1, -1, -1), (1, 1, 1), (1, -1, 0),
                   (1, -1, 1), (0, 1, 1)]                  # free (2, 3)
NEARLY_FREE_BELOW_SEED = [(1, -1, 1), (1, 0, 0), (1, 1, 0), (1, -1, -1),
                          (0, 1, 0), (0, 0, 1), (1, 1, 1)]  # (3, 4)
NEITHER_BELOW_SEED = [(1, 0, 1), (0, 1, 0), (0, 1, -1), (1, 0, -1),
                      (1, 1, -1), (1, 1, 1), (1, 1, 0), (1, -1, 0)]


def _json(rep):
    return json.dumps(rep.to_json(), sort_keys=True)


def route_report(A, backend=None):
    """classify(A.f), which must take the arrangement route: no Hilbert
    profile, no bare verdict and no rank at or above d - m_max."""
    ranked = []
    real_rank = syzygy.ar_dimension

    def rank(g, r):
        ranked.append(r)
        return real_rank(g, r)

    def forbidden(*args):
        raise AssertionError("the arrangement route took another path")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tjurina, "_profile", forbidden)
        mp.setattr(tjurina, "_bare_verdict", forbidden)
        mp.setattr(syzygy, "ar_dimension", rank)
        rep = classify(A.f, backend)
    assert all(r < A.d - A.lattice().m_max for r in ranked)
    return rep


def scanned(f, backend=None):
    """``classify``'s report of an arrangement's f with mdr from
    ``_mdr_scan``, seeded by a top point, guessing u and testing it by
    ranks: the search that a certificate's nullspace replaces."""
    u, build, _ = f._arrangement._route()
    image = tjurina._admit(f, backend)
    return tjurina._report(f, image, _mdr_scan(f, u, build, backend, u)[0],
                           backend)


def assert_route_matches_bare(A, backend=None, hilbert=True):
    """The route's report equals the bare polynomial's and the scan's byte
    for byte, and its tau is the Hilbert tau (when ``hilbert``) and the
    lattice's."""
    rep = route_report(A, backend)
    assert _json(rep) == _json(classify(bare(A.f), backend))
    assert _json(rep) == _json(scanned(A.f, backend))
    assert rep.tau == tau_combinatorial(A)
    if hilbert:
        assert rep.tau == global_tjurina(A.f, backend).tau
    return rep


@pytest.mark.parametrize("name", ARRANGEMENT_FIXTURES)
def test_arrangement_fixtures_take_the_route(name):
    A = get_fixture(name).arrangement
    assert A.f._arrangement is A
    assert_route_matches_bare(A, MODULAR)
    assert_route_matches_bare(A, make_backend(primes=1, seed=0), False)
    if A.field != QQ:  # every backend computes in the fixture's own GF(p)
        assert_route_matches_bare(A)
        return
    if A.d <= 9:  # exact Q linear algebra; the Hilbert tau only for d <= 6
        for backend in (make_backend("rational"), None):
            assert_route_matches_bare(A, backend, hilbert=A.d <= 6)
    assert_route_matches_bare(
        LineArrangement(F_LARGE, [l.covector for l in A.lines]))


@pytest.mark.parametrize("index", range(6))
def test_random_cones_take_the_route(cones, index):
    # a cone's apex carries every added line and one more: 2m >= d
    B, sk = cones[index]
    assert 2 * B.lattice().m_max >= B.d
    for backend in (make_backend(primes=1, seed=index), MODULAR):
        rep = assert_route_matches_bare(B, backend)
        assert (rep.exponents, rep.tau) == (sk.expected_exponents,
                                            sk.expected_tau)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                          st.integers(-2, 2)).filter(any),
                min_size=2, max_size=9),
       st.sampled_from([QQ, F_LARGE]))
@example(FREE_BELOW_SEED, QQ)
@example(NEARLY_FREE_BELOW_SEED, QQ)
@example(NEITHER_BELOW_SEED, F_LARGE)
def test_random_arrangements_take_the_route(covs, field):
    try:
        A = LineArrangement(field, covs)
    except ValueError:  # repeated line
        return
    assert_route_matches_bare(A, MODULAR if field == QQ else None)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=6, unique=True),
       st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                max_size=5, unique=True),
       st.sampled_from([QQ, F_LARGE]))
def test_random_arrangements_with_a_heavy_point_take_the_route(
        slopes, others, field):
    # distinct lines x + t*y through (0 : 0 : 1) and a*x + b*y + z off it;
    # with 2m >= d the mdr is proved from the certificate's nullspace
    A = LineArrangement(field, [(1, t, 0) for t in slopes]
                        + [(a, b, 1) for a, b in others])
    assume(2 * A.lattice().m_max >= A.d)
    assert_route_matches_bare(A, MODULAR if field == QQ else None)


@pytest.mark.parametrize("covs, cls", [
    (FREE_BELOW_SEED, "free"), (NEARLY_FREE_BELOW_SEED, "nearly-free"),
    (NEITHER_BELOW_SEED, "neither")])
def test_examples_below_the_seed(covs, cls):
    A = LineArrangement(QQ, covs)
    rep = route_report(A, MODULAR)
    assert rep.classification == cls
    assert rep.mdr == A.d - A.lattice().m_max - 1


def test_route_with_a_voting_prime_in_the_seed():
    # the seed of the top point (0 : 1 : -1/p) has p in a denominator
    p = MODULAR.primes[0]
    A = LineArrangement(QQ, [(1, 0, 0), (0, 1, p), (1, 1, p), (2, 3, 5),
                             (7, -2, 3)])
    assert A.lattice().points[0].multiplicity == 3
    assert assert_route_matches_bare(A, MODULAR).classification == (
        "nearly-free")


def _takes_the_bare_path(g, backend):
    calls = []
    real = tjurina._bare_verdict

    def verdict(h, r):
        calls.append(h.degree)
        return real(h, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tjurina, "_bare_verdict", verdict)
        rep = classify(g, backend)
    assert calls
    return rep


def test_polynomials_derived_from_the_product_take_the_bare_path():
    A = LineArrangement(QQ, NEITHER_BELOW_SEED)  # x = 0 is not a line
    route = _json(route_report(A, MODULAR))
    x = poly_parse("x")
    same = (-A.f, A.f.scale(2), poly_parse(A.f.to_str()))
    other = (A.f * x, A.f.map_field(F_LARGE))
    assert all(g._arrangement is None for g in same + other)
    for g in same:
        assert _json(_takes_the_bare_path(g, MODULAR)) == route
    _takes_the_bare_path(other[0], MODULAR)
    _takes_the_bare_path(other[1], None)


def test_analyze_lines_file_equals_its_polynomial(capsys, tmp_path):
    for covs in (FREE_BELOW_SEED, NEITHER_BELOW_SEED):
        A = LineArrangement(QQ, covs)
        path = tmp_path / "lines.txt"
        path.write_text(arrangement_to_file(A))
        outs = []
        for source in (str(path), A.f.to_str()):
            assert main(["analyze", source, "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_reducedness_is_read_from_the_lines():
    p = MODULAR.primes[0]
    A = LineArrangement(QQ, [(1, 0, 0), (1, p, 0), (0, 0, 1)])  # x*x*z mod p
    assert not A._reduced_in(PrimeField(p)) and A._reduced_in(QQ)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tjurina, "is_reduced", _no_linear_algebra)
        with pytest.raises(NotReducedError, match=f"or {p} is a bad prime"):
            classify(A.f, MODULAR)
    f = bare(A.f)
    assert is_reduced(f) and not is_reduced(f.map_field(PrimeField(p)))
    with pytest.raises(NotReducedError, match=f"or {p} is a bad prime"):
        classify(f, MODULAR)


def test_one_line_keeps_the_bare_path():
    A = LineArrangement(QQ, [(1, 2, 3)])
    lat = lattice(A)
    assert (lat.points, lat.m_max, tau_combinatorial(A)) == ((), 1, 0)
    assert A._route() is None
    rep = _takes_the_bare_path(A.f, MODULAR)
    assert _json(classify(bare(A.f), MODULAR)) == _json(rep)
    assert (rep.classification, rep.mdr, rep.tau) == ("cone", 0, 0)
    with pytest.raises(ValueError, match="no intersection point"):
        multiplicity_bound_check(A, MODULAR)
    with pytest.raises(ValueError, match="no intersection point"):
        lat.top()
    with pytest.raises(ValueError, match="no intersection point"):
        cone_construction(A, (0, 0, 1))


# -- the certificate: basis vector 0, the only one converted and verified ----

CURVES_OF_FIXTURES = [name for name in fixture_names()
                      if get_fixture(name).f is not None]


def assert_certificate_is_basis_vector_0(f, backend):
    """classify's certificate is ``ar_slice(image, mdr).basis[0]``, the
    full basis of the first computing field, on the route and bare."""
    image = f.map_field(fields_for(f, backend)[0])
    for g in (f, bare(f)):
        rep = classify(g, backend)
        assert rep.certificate == ar_slice(image, rep.mdr).basis[0]


@pytest.mark.parametrize("name", CURVES_OF_FIXTURES)
def test_fixture_certificates_are_basis_vector_0(name):
    assert_certificate_is_basis_vector_0(get_fixture(name).f, MODULAR)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                          st.integers(-2, 2)).filter(any),
                min_size=3, max_size=8),
       st.sampled_from([QQ, F_LARGE]))
def test_random_certificates_are_basis_vector_0(covs, field):
    try:
        A = LineArrangement(field, covs)
    except ValueError:  # repeated line
        return
    assert_certificate_is_basis_vector_0(A.f, MODULAR if field == QQ else None)


def _verifications(monkeypatch):
    seen = []
    real = syzygy.verify_syzygy

    def spy(f, s):
        seen.append(s.degree)
        return real(f, s)
    monkeypatch.setattr(syzygy, "verify_syzygy", spy)
    return seen


def test_one_certificate_verification(monkeypatch):
    A = get_fixture("ex3").arrangement  # mdr 9 < u = 13, dim AR_9 = 2
    image = A.f.map_field(MODULAR.fields[0])
    assert ar_slice(image, 9).dimension == 2
    seen = _verifications(monkeypatch)
    rep = classify(A.f, MODULAR)
    # the route verifies no seed below u: the certificate is the only one
    assert (rep.mdr, seen) == (9, [9])
    seen.clear()
    # bare, the free test is a rank: again only the certificate is verified
    assert classify(bare(A.f), MODULAR).certificate == rep.certificate
    assert seen == [9]


# -- the proved mdr: what the first voting field eliminates -----------------

def _eliminations(monkeypatch):
    """(kind, p, columns) of every GF(p) elimination ``syzygy`` takes."""
    seen = []
    for kind in ("rank_mod_np", "nullspace_mod_np"):
        real = getattr(syzygy, kind)

        def spy(A, p, real=real, kind=kind):
            seen.append((kind, p, A.shape[1]))
            return real(A, p)
        monkeypatch.setattr(syzygy, kind, spy)
    return seen


def _columns(r):
    return 3 * poly.monomial_count(r)


@pytest.mark.parametrize("index", range(3))
def test_a_proved_mdr_takes_no_rank_in_the_first_field(cones, index,
                                                        monkeypatch):
    # dim AR_mdr <= 2 proves AR_{mdr-1} = 0, so the first prime's one
    # elimination is the certificate's nullspace; the others search from r
    B, _ = cones[index]
    p, *rest = MODULAR.primes
    r = classify(B.f, MODULAR).mdr
    assert 1 <= ar_dimension(B.f.map_field(PrimeField(p)), r) <= 2
    seen = _eliminations(monkeypatch)
    classify(B.f, MODULAR)
    assert [e for e in seen if e[1] == p] == [
        ("nullspace_mod_np", p, _columns(r))]
    agreeing = [r - 1] + [r] * (r < B.d - B.lattice().m_max)
    for q in rest:
        assert [e for e in seen if e[1] == q] == [
            ("rank_mod_np", q, _columns(k)) for k in agreeing]


def test_a_third_syzygy_costs_the_first_field_one_rank(monkeypatch):
    # four general lines: nearly free (2, 2), dim AR_2 = 3 > 2, so the
    # first prime also ranks AR_1
    A = LineArrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    p = MODULAR.primes[0]
    assert ar_dimension(A.f.map_field(PrimeField(p)), 2) == 3
    rep = assert_route_matches_bare(A, MODULAR)
    assert (rep.classification, rep.mdr) == ("nearly-free", 2)
    seen = _eliminations(monkeypatch)
    classify(A.f, MODULAR)
    assert [e for e in seen if e[1] == p] == [
        ("nullspace_mod_np", p, _columns(2)), ("rank_mod_np", p, _columns(1))]


# five lines through (0 : 0 : 1) and z = 0: free with exponents (1, 4), so
# AR_2 = S_1 * rho1 has dimension 3 and AR_1 != 0
NEAR_PENCIL = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (1, 2, 0),
               (0, 0, 1)]


@pytest.mark.parametrize("field, backend", [
    (QQ, None), (QQ, make_backend("rational")), (F_LARGE, None),
    (QQ, MODULAR)], ids=["Q", "rational", "F_LARGE", "modular"])
def test_three_syzygies_at_d1_plus_1_are_no_proof(field, backend):
    # at r = d1 + 1 of a free curve with d1 + 1 < d2, dim AR_r = 3 and
    # AR_{r-1} != 0: the nullspace at r must not be taken as a proof
    f = LineArrangement(field, NEAR_PENCIL).f
    image = f.map_field(fields_for(f, backend)[0])
    assert (ar_dimension(image, 2), ar_dimension(image, 1)) == (3, 1)
    build = lambda: _koszul(f)  # noqa: E731
    assert _mdr_scan(f, f.degree - 1, build, backend, 2, image) == (1, None)
    r, certificate = _mdr_scan(f, f.degree - 1, build, backend, 1, image)
    assert r == 1 and certificate == ar_slice(image, 1).basis[0]
