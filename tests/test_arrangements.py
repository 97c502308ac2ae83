import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from jacsyz.arrangements import (IntersectionLattice, LatticePoint,
                                 LineArrangement, _cross, _normalize,
                                 _sort_key, arrangement_to_file, lattice,
                                 cone_construction, exponent_gap_check,
                                 faenzi_valles_check, lattice_isomorphic,
                                 multiplicity_bound_check,
                                 parse_arrangement_file, point_syzygy,
                                 tau_combinatorial, trichotomy)
from jacsyz.fields import PrimeField, QQ
from jacsyz.fixtures import fixture_names, get_fixture
from jacsyz.poly import HomogPoly, poly_parse
from jacsyz.syzygy import SyzygyTriple, is_primitive, mdr, verify_syzygy
from jacsyz.tjurina import classify, global_tjurina

covectors = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
    .filter(lambda v: any(v)),
    min_size=3, max_size=7)


def _arr(covs):
    try:
        return LineArrangement(QQ, covs)
    except ValueError:  # repeated line after normalization
        return None


@settings(max_examples=60)
@given(covectors)
def test_lattice_pair_count_invariant(covs):
    A = _arr(covs)
    if A is None:
        return
    lat = A.lattice()
    assert sum(comb(p.multiplicity, 2) for p in lat.points) == comb(A.d, 2)
    for p in lat.points:
        assert len(p.lines) == p.multiplicity
        for i in p.lines:
            assert A.lines[i].contains(p.point)


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
    .filter(lambda v: any(v)),
    min_size=3, max_size=5))
def test_tau_combinatorial_is_tau(covs):
    A = _arr(covs)
    if A is None:
        return
    assert tau_combinatorial(A) == global_tjurina(A.f).tau


def _field_cross(F, a, b):
    return (F.sub(F.mul(a[1], b[2]), F.mul(a[2], b[1])),
            F.sub(F.mul(a[2], b[0]), F.mul(a[0], b[2])),
            F.sub(F.mul(a[0], b[1]), F.mul(a[1], b[0])))


def _reference_lattice(A):
    """The lattice in field arithmetic on the normalized covectors: every
    pairwise point crossed and normalized in A's field."""
    F = A.field
    table = {}
    for i in range(A.d):
        for j in range(i + 1, A.d):
            pt = _normalize(F, _field_cross(F, A.lines[i].covector,
                                            A.lines[j].covector))
            table.setdefault(pt, set()).update((i, j))
    points = [LatticePoint(pt, len(idx), tuple(sorted(idx)))
              for pt, idx in table.items()]
    points.sort(key=lambda p: (-p.multiplicity, _sort_key(F, p.point)))
    return IntersectionLattice(
        tuple(points), max((p.multiplicity for p in points), default=1))


def assert_lattice_matches_reference(A):
    lat = lattice(A)
    # repr tells Fraction(1, 1) from 1: the same scalars, not only equal ones
    assert repr(lat) == repr(_reference_lattice(A))
    F = A.field
    for p in lat.points:  # leading 0s and 1 are the field's shared constants
        i = next(i for i, v in enumerate(p.point) if v != 0)
        assert all(v is F.zero() for v in p.point[:i])
        assert p.point[i] is F.one()


@pytest.mark.parametrize("name", [n for n in fixture_names()
                                  if get_fixture(n).arrangement is not None])
def test_fixture_lattices_match_the_reference(name):
    A = get_fixture(name).arrangement
    assert_lattice_matches_reference(A)
    if A.field == QQ:
        assert_lattice_matches_reference(
            LineArrangement(PrimeField(1000003), [l.covector for l in A.lines]))


rational_covectors = st.lists(
    st.tuples(*[st.fractions(-7, 7, max_denominator=6)] * 3).filter(any),
    min_size=1, max_size=9)


@settings(max_examples=60, deadline=None)
@given(rational_covectors, st.sampled_from([QQ, PrimeField(1000003)]))
def test_random_lattices_match_the_reference(covs, field):
    try:
        A = LineArrangement(field, covs)
    except ValueError:  # repeated line, or a denominator divisible by p
        return
    assert_lattice_matches_reference(A)


def test_known_lattices():
    A = get_fixture("ex1").arrangement
    lat = A.lattice()
    assert lat.m_max == 4
    assert [p.multiplicity for p in lat.points].count(4) == 1
    assert tau_combinatorial(A) == 19


def test_point_syzygy_all_points():
    A = get_fixture("ex1").arrangement
    for p in A.lattice().points:
        s = point_syzygy(A, p)
        assert verify_syzygy(A.f, s)
        assert s.degree == A.d - p.multiplicity
    # the modular point realizes the mdr: degree 6-4 = 2 = d1
    top = A.lattice().points[0]
    assert point_syzygy(A, top).degree == mdr(A.f)


def _reference_point_syzygy(A, p):
    """The construction that point_syzygy replaced, kept as its oracle:
    move the point to (1:0:0) by a basis matrix B, take (x*P - d*h, y*P,
    z*P) there with P = dh/dx, substitute B^-1 and mix through B."""
    F = A.field
    mul, sub, add = F.mul, F.sub, F.add
    pivot = next(i for i, v in enumerate(p.point) if not F.is_zero(v))
    cols = [list(p.point)]
    for i in range(3):
        if i != pivot:
            cols.append([F.one() if j == i else F.zero() for j in range(3)])
    B = [[cols[j][i] for j in range(3)] for i in range(3)]
    (a, b, c), (d_, e, f), (g, h_, i_) = B
    adj = [[sub(mul(e, i_), mul(f, h_)), sub(mul(c, h_), mul(b, i_)),
            sub(mul(b, f), mul(c, e))],
           [sub(mul(f, g), mul(d_, i_)), sub(mul(a, i_), mul(c, g)),
            sub(mul(c, d_), mul(a, f))],
           [sub(mul(d_, h_), mul(e, g)), sub(mul(b, g), mul(a, h_)),
            sub(mul(a, e), mul(b, d_))]]
    det = add(add(mul(a, adj[0][0]), mul(b, adj[1][0])), mul(c, adj[2][0]))
    M = [[F.div(v, det) for v in row] for row in adj]
    away = []
    for k, line in enumerate(A.lines):
        if k not in p.lines:
            away.append(tuple(
                add(add(mul(B[0][cc], line.covector[0]),
                        mul(B[1][cc], line.covector[1])),
                    mul(B[2][cc], line.covector[2])) for cc in range(3)))
    h = HomogPoly.constant(F, 1)
    for cov in away:
        h = h * HomogPoly.linear(F, cov)
    P = HomogPoly.zero(F)
    for k, cov in enumerate(away):
        part = HomogPoly.constant(F, 1)
        for k2, cov2 in enumerate(away):
            if k2 != k:
                part = part * HomogPoly.linear(F, cov2)
        P = P + part.scale(cov[0])
    x, y, z = (HomogPoly.variable(F, i) for i in range(3))
    moved = [(x * P - h.scale(A.d)).substitute(M), (y * P).substitute(M),
             (z * P).substitute(M)]
    comps = []
    for r in range(3):
        acc = HomogPoly.zero(F)
        for cc, q in enumerate(moved):
            acc = acc + q.scale(B[r][cc])
        comps.append(acc)
    return SyzygyTriple(comps[0], comps[1], comps[2], A.d)


@pytest.mark.parametrize("name", ["triangle", "ex1", "ex2a", "ex2b", "ex3",
                                  "ex5", "ex12i:2", "ex12i:3"])
def test_point_syzygy_matches_reference_on_fixtures(name):
    A = get_fixture(name).arrangement
    points = A.lattice().points
    if A.d > 12:  # the reference costs ~0.3 s a point at d = 19
        points = (points[0], points[-1])
    for p in points:
        assert point_syzygy(A, p) == _reference_point_syzygy(A, p)


@settings(max_examples=25, deadline=None)
@given(covectors, st.sampled_from([QQ, PrimeField(1000003)]))
def test_point_syzygy_matches_reference(covs, field):
    try:
        A = LineArrangement(field, covs)
    except ValueError:
        return
    for p in A.lattice().points:
        assert point_syzygy(A, p) == _reference_point_syzygy(A, p)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_point_syzygy_of_concurrent_lines_is_constant(field):
    # m = d: every line passes through the point, h = 1 and rho = -d*P
    A = LineArrangement(field, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0),
                                (1, 2, 0)])
    (p,) = A.lattice().points
    assert p.multiplicity == A.d == 5 and p.point == (0, 0, 1)
    s = point_syzygy(A, p)
    assert s.degree == 0
    assert s.a.is_zero() and s.b.is_zero()
    assert s.c == HomogPoly.constant(field, -5)
    assert s == _reference_point_syzygy(A, p)


def test_trichotomy_cases():
    A = get_fixture("ex1").arrangement  # r = 2 = d - m: case (0)
    assert trichotomy(A, A.lattice().points[0]).case == 0
    B = get_fixture("ex2a").arrangement  # r = 3 = d - m - 1 free: case (1)
    assert trichotomy(B, B.lattice().points[0]).case == 1


def _foreign_points():
    # the triple point (0:0:1) of x, y, x+y, z, x+2y+5z is a double point of
    # x, y, z, x+y+z; (1:2:3) is on no line of either
    B = LineArrangement(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                             (1, 2, 5)])
    return [B.lattice().point_at((0, 0, 1)),
            LatticePoint((1, 2, 3), 5, (0, 1, 2, 3, 4))]


@pytest.mark.parametrize("p", _foreign_points(), ids=["other", "made-up"])
@pytest.mark.parametrize("fn", [trichotomy, point_syzygy])
def test_a_point_off_the_lattice_is_refused(fn, p):
    A = LineArrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert p not in A.lattice().points
    with pytest.raises(ValueError, match="is not a lattice point"):
        fn(A, p)


def test_multiplicity_bound():
    for name in ["triangle", "ex1", "ex2a", "ex2b"]:
        A = get_fixture(name).arrangement
        m, rhs, ok = multiplicity_bound_check(A)
        assert ok and Fraction(m) >= rhs


def test_exponent_gap():
    A = get_fixture("ex1").arrangement
    rep = classify(A.f)
    assert exponent_gap_check(rep, A.lattice().m_max)
    with pytest.raises(ValueError):
        exponent_gap_check(classify(poly_parse("x^4 + y^4 + z^4")), 2)


def test_faenzi_valles():
    # ex2a: d=8 free (3,4); k=3, ell=1 gives d=2k+ell+1
    v = faenzi_valles_check(get_fixture("ex2a").arrangement, 3, 1)
    assert v.free and v.exponents == (3, 4)
    with pytest.raises(ValueError):
        faenzi_valles_check(get_fixture("ex2a").arrangement, 2, 1)


def test_cone_construction():
    A = get_fixture("triangle").arrangement
    B, sk = cone_construction(A, (Fraction(1), Fraction(1), Fraction(1)))
    rep = classify(B.f)
    assert rep.classification == "free"
    assert rep.exponents == sk.expected_exponents
    assert rep.tau == sk.expected_tau
    with pytest.raises(ValueError):
        cone_construction(A, (Fraction(1), Fraction(0), Fraction(0)))


@settings(max_examples=60)
@given(st.tuples(*[st.fractions(-5, 5, max_denominator=3)] * 6),
       st.sampled_from([QQ, PrimeField(1000003), PrimeField(2**31 - 1)]))
def test_plain_cross_normalizes_like_the_field_cross(entries, F):
    a = tuple(F.coerce(v) for v in entries[:3])
    b = tuple(F.coerce(v) for v in entries[3:])
    ref = _field_cross(F, a, b)
    got = _cross(a, b)
    assert [F.is_zero(v) for v in got] == [F.is_zero(v) for v in ref]
    if not all(F.is_zero(v) for v in ref):
        assert repr(_normalize(F, got)) == repr(_normalize(F, ref))


def _reference_cone_lines(A, apex):
    """The lines the cone construction adds, crossed in A's field."""
    F = A.field
    apex = _normalize(F, apex)
    added = []
    for p in A.lattice().points:
        cov = _normalize(F, _field_cross(F, apex, p.point))
        if cov not in added:
            added.append(cov)
    return added


@pytest.mark.parametrize("name", [n for n in fixture_names()
                                  if get_fixture(n).arrangement is not None])
def test_cone_lines_match_the_field_cross(name):
    A = get_fixture(name).arrangement
    for apex in [(1, 2, 7), (3, 5, 11), (2, 3, 13)]:
        apex = tuple(A.field.coerce(v) for v in apex)
        B, sk = cone_construction(A, apex)
        added = _reference_cone_lines(A, apex)
        assert repr([l.covector for l in B.lines]) == repr(
            [l.covector for l in A.lines] + added)
        assert sk.m == len(added)


def test_lattice_isomorphic_projective_images():
    A = get_fixture("ex1").arrangement
    rng = random.Random(3)
    while True:
        M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
             for _ in range(3)]
        det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
               - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
               + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
        if det != 0:
            break
    covs = [tuple(sum(M[i][j] * line.covector[i] for i in range(3))
                  for j in range(3)) for line in A.lines]
    B = LineArrangement(QQ, covs)
    assert lattice_isomorphic(A, B)
    assert not lattice_isomorphic(A, get_fixture("ex2a").arrangement)


def test_lattice_isomorphic_refuses_large_inputs():
    A = get_fixture("ex3").arrangement  # 19 lines is fine, 21 is not
    B = LineArrangement(QQ, [(1, 0, k) for k in range(11)]
                        + [(0, 1, k) for k in range(10)])
    with pytest.raises(ValueError):
        lattice_isomorphic(B, B)
    assert lattice_isomorphic(A, A)


def test_file_round_trip(tmp_path):
    A = get_fixture("ex2b").arrangement
    text = arrangement_to_file(A)
    B = parse_arrangement_file(text)
    assert [l.covector for l in A.lines] == [l.covector for l in B.lines]
    with pytest.raises(ValueError):
        parse_arrangement_file("lines\n1 0\n")
