"""The kernels around the elimination, tested against reference code kept
here: the numpy scatter that fills a graded multiplication matrix against a
per-term loop, the grid product and sum of products of GF(p) forms (``dot``)
and the rational product against the term-by-term product ``_mul_terms``,
``verify_syzygy``, ``diff`` and ``map_field`` against the accumulate-by-``+``
and per-term references they replace, and the kept gradient against fresh
partials.  A
prime of 2^31 or more is refused; where a test is parametrized with one,
the refusal is what it checks."""

import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacsyz import poly as poly_module
from jacsyz.backend import make_backend
from jacsyz.fields import FieldError, PrimeField, QQ, parse_field_tag
from jacsyz.poly import (HomogeneityError, HomogPoly, _mul_rational, dot,
                         monomial_count, monomial_index, monomials,
                         poly_parse)
from jacsyz.syzygy import (DegreeMismatchError, SyzygyTriple, _primitive,
                           graded_multiplication_matrix, verify_syzygy)
from jacsyz.tjurina import classify

INT64_LIMIT = PrimeField(2**31 - 1)  # the largest prime of the int64 kernels
REFUSED = "Fp:2147483659"  # 2^31 + 11, the smallest prime above them
FIELDS = [PrimeField(5), PrimeField(1000003), INT64_LIMIT, REFUSED, QQ]


def refused(field) -> bool:
    """Whether ``field`` is the REFUSED tag, after checking its refusal."""
    if field != REFUSED:
        return False
    with pytest.raises(FieldError, match=r"p < 2\^31"):
        parse_field_tag(field)
    return True


def _mul_terms(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """The reference product of two nonzero forms: every pair of terms, in
    the field's scalar operations."""
    F = a.field
    out: dict = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = F.add(out.get(e, F.zero()), F.mul(c1, c2))
            if F.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return HomogPoly._trusted(F, a.degree + b.degree, out)


def reference_fill(polys, r, target):
    """The per-term loop: column b*m + c holds monomial c of S_r times p_b,
    entered at the graded-lex row of each product monomial."""
    field = polys[0].field
    ridx = monomial_index(target)
    rows = [[field.zero()] * (len(polys) * monomial_count(r))
            for _ in range(monomial_count(target))]
    col = 0
    for p in polys:
        for (mi, mj, mk) in monomials(r):
            for (ei, ej, ek), v in p.coeffs.items():
                rows[ridx[(ei + mi, ej + mj, ek + mk)]][col] = v
            col += 1
    return rows


def random_form(rng, field, degree, density=0.7):
    """A form with random coefficients on a random subset of monomials."""
    if isinstance(field, PrimeField):
        draw = lambda: rng.randrange(field.p)  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))  # noqa
    return HomogPoly(field, degree, {m: draw() for m in monomials(degree)
                                     if rng.random() < density})


def assert_fill_matches(polys, r, target):
    A = graded_multiplication_matrix(polys, r, target)
    ref = reference_fill(polys, r, target)
    assert isinstance(A, np.ndarray)
    assert A.dtype == (np.int64 if polys[0].field.char else object)
    # repr tells Fraction(0) from 0: the same scalars, not only equal ones
    assert repr(A.tolist()) == repr(ref)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("r", [0, 1, 2, 5])
def test_fill_matches_reference_loop(field, r):
    if refused(field):
        return
    rng = random.Random(f"{field}:{r}")
    for e in (0, 1, 3, 6):
        polys = [random_form(rng, field, e) for _ in range(3)]
        if all(p.is_zero() for p in polys):
            continue
        assert_fill_matches(polys, r, r + e)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("r", [0, 3])
def test_fill_with_a_zero_partial(field, r):
    if refused(field):
        return
    # a cone: f_z vanishes identically, its column block stays zero
    f = poly_parse("x^4 + 2*x*y^3 + 3*x^2*y^2", field)
    grads = list(f.gradient())
    assert grads[2].is_zero()
    assert_fill_matches(grads, r, r + 3)
    A = np.array(graded_multiplication_matrix(grads, r, r + 3), dtype=object)
    assert not A[:, 2 * monomial_count(r):].any()


def test_fill_of_a_curve_gradient():
    f = poly_parse("x*y*(x+y)*(x-2*z)*(y+3*z)*(x+y+z)", INT64_LIMIT)
    for r in range(6):
        assert_fill_matches(list(f.gradient()), r, r + 5)


def test_fill_refuses_a_mixed_degree():
    x2, y = poly_parse("x^2", QQ), poly_parse("y", QQ)
    with pytest.raises(ValueError):
        graded_multiplication_matrix([x2, y], 1, 3)


# grid product against the term-by-term product ------------------------------

def forms(field, max_degree=6, min_degree=0):
    mons = st.integers(min_degree, max_degree).map(monomials)
    if isinstance(field, PrimeField):
        scalar = st.one_of(st.integers(0, field.p - 1),
                           st.sampled_from([1, field.p - 1]))
    else:
        scalar = st.fractions(max_denominator=5)
    return mons.flatmap(lambda ms: st.lists(
        st.tuples(st.sampled_from(ms), scalar), max_size=len(ms) + 2).map(
            lambda terms, d=sum(ms[0]): HomogPoly(field, d, dict(terms))))


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(1000003),
                                   INT64_LIMIT], ids=str)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_grid_product_matches_term_product(field, data):
    a = data.draw(forms(field))
    b = data.draw(forms(field))
    product = a * b
    if a.is_zero() or b.is_zero():
        assert product.is_zero()
        return
    expected = _mul_terms(a, b)
    assert dot((a,), (b,)).coeffs == expected.coeffs
    assert product == expected and product.degree == a.degree + b.degree
    assert all(type(v) is int and 0 < v < field.p
               for v in product.coeffs.values())


@pytest.mark.parametrize("field", [INT64_LIMIT, PrimeField(5)], ids=str)
def test_grid_product_of_dense_forms_and_constants(field):
    # every coefficient p-1: each output entry sums many (p-1)^2 products
    rng = random.Random(3)
    top = field.p - 1
    dense = HomogPoly(field, 7, {m: top for m in monomials(7)})
    other = random_form(rng, field, 5, density=1.0)
    for a, b in [(dense, dense), (dense, other), (other, dense),
                 (HomogPoly.constant(field, top), dense),
                 (dense, HomogPoly.constant(field, 2)),
                 (HomogPoly.constant(field, 3), HomogPoly.constant(field, 4))]:
        assert dot((a,), (b,)) == _mul_terms(a, b) == a * b


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rational_product_matches_term_product(data):
    # non-integer coefficients; in (u + v)(u - v) every cross term cancels
    d = data.draw(st.integers(0, 5))
    u, v = data.draw(forms(QQ, d, d)), data.draw(forms(QQ, d, d))
    a, b = u + v, u - v
    if a.is_zero() or b.is_zero():
        return
    product = _mul_rational(a, b)
    assert product.coeffs == _mul_terms(a, b).coeffs
    assert product == a * b == _mul_terms(u, u) - _mul_terms(v, v)
    assert all(type(c) is Fraction and c for c in product.coeffs.values())


@pytest.mark.parametrize("field", [REFUSED, QQ], ids=str)
def test_generic_product_outside_the_int64_range(field):
    if refused(field):
        return
    rng = random.Random(7)
    a, b = random_form(rng, field, 4), random_form(rng, field, 3)
    assert field.char == 0
    assert a * b == _mul_terms(a, b)
    assert (a * b).evaluate((2, 3, 5)) == field.mul(a.evaluate((2, 3, 5)),
                                                   b.evaluate((2, 3, 5)))


# sums of products (dot) against the term-by-term product --------------------

INT64_FIELDS = [PrimeField(5), PrimeField(1000003), INT64_LIMIT]


def term_sum(us, vs):
    """The reference: ``_mul_terms`` per nonzero pair, summed by ``+``."""
    F = us[0].field
    out = HomogPoly.zero(F)
    for u, v in zip(us, vs):
        if not (u.is_zero() or v.is_zero()):
            out = out + _mul_terms(u, v)
    return out


@pytest.mark.parametrize("field", INT64_FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dot_of_several_pairs_matches_term_sums(field, data):
    e = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(1, 4))
    us = [data.draw(forms(field, e, e)) for _ in range(n)]
    vs = []
    for _ in range(n):
        d = data.draw(st.integers(0, 4))
        vs.append(data.draw(forms(field, d, d)))
    # every nonzero product must have one degree: align each v to the first
    # nonzero pair's total, or zero it
    total = None
    for i, (u, v) in enumerate(zip(us, vs)):
        if u.is_zero() or v.is_zero():
            continue
        if total is None:
            total = u.degree + v.degree
        elif u.degree + v.degree != total:
            vs[i] = HomogPoly.zero(field)
    got = dot(us, vs)
    assert got == term_sum(us, vs)
    assert all(type(c) is int and 0 < c < field.p
               for c in got.coeffs.values())


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_dot_cancels_across_pairs(field):
    if refused(field):
        return
    rng = random.Random(f"cancel:{field}")
    u, v = random_form(rng, field, 3), random_form(rng, field, 4)
    assert dot((u, -u), (v, v)).is_zero()
    assert dot((u, -u), (v, v)).degree == -1
    w = random_form(rng, field, 4)
    # (u, v) + (-u, v) + (u, w) leaves exactly u*w
    assert dot((u, -u, u), (v, v, w)) == _mul_terms(u, w)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_dot_with_zero_factors(field):
    if refused(field):
        return
    rng = random.Random(f"zero:{field}")
    zero = HomogPoly.zero(field)
    u, v = random_form(rng, field, 2), random_form(rng, field, 5)
    assert dot((zero,), (v,)).is_zero() and dot((u,), (zero,)).is_zero()
    assert dot((zero, zero), (zero, zero)).is_zero()
    # a zero pair of another degree takes no part in the degree check
    x3 = HomogPoly(field, 3, {(3, 0, 0): 1})
    assert dot((u, zero, x3), (v, x3, zero)) == _mul_terms(u, v)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_dot_refuses_a_degree_mismatch(field):
    if refused(field):
        return
    x, y2 = poly_parse("x", field), poly_parse("y^2", field)
    with pytest.raises(HomogeneityError):
        dot((x, x), (x, y2))
    with pytest.raises(ValueError):
        dot((x,), (x, x))  # the two sequences differ in length


def test_dot_of_dense_pairs_with_every_coefficient_top():
    # every coefficient p-1 at the largest int64 prime: each cell sums
    # many reduced (p-1)^2 products from several pairs
    field, top = INT64_LIMIT, INT64_LIMIT.p - 1
    dense = [HomogPoly(field, e, {m: top for m in monomials(e)})
             for e in (5, 6)]
    us, vs = [dense[0]] * 4, [dense[1]] * 4
    assert dot(us, vs) == term_sum(us, vs)
    assert dot(us, vs) == (dense[0] * dense[1]).scale(4)


@pytest.mark.parametrize("field", INT64_FIELDS, ids=str)
def test_dot_across_chunk_boundaries(field):
    # blocks of at most 3 term pairs (or one row) instead of one block
    rng = random.Random(f"chunk:{field}")
    us = [random_form(rng, field, 3, density=1.0) for _ in range(3)]
    vs = [random_form(rng, field, 4, density=1.0) for _ in range(2)]
    vs.append(poly_parse("(x + 2*y)*z^3", field))  # two terms: 3 // 2 rows
    whole = dot(us, vs)
    assert whole == term_sum(us, vs)
    for chunk in (1, 3, 7):
        with mock.patch.object(poly_module, "_PAIR_CHUNK", chunk):
            assert dot(us, vs) == whole
            assert us[0] * vs[0] == _mul_terms(us[0], vs[0])


def sparse_form(rng, field, degree, terms):
    """A form of degree ``degree`` with at most ``terms`` random terms,
    drawn without listing the monomials of that degree."""
    coeffs = {}
    for _ in range(terms):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        coeffs[(i, j, degree - i - j)] = field.coerce(Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4)))
    return HomogPoly(field, degree, coeffs)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sparse_and_grid_products_agree(field):
    # _SPARSE_RATIO 0 makes every product sparse, 10**9 none
    if refused(field):
        return
    rng = random.Random(f"sparse:{field}")
    cases = [([random_form(rng, field, 3, density=1.0)],
              [random_form(rng, field, 4)]),
             ([sparse_form(rng, field, 40, 3), sparse_form(rng, field, 40, 2)],
              [sparse_form(rng, field, 25, 4), sparse_form(rng, field, 25, 1)]),
             ([poly_parse("x - y", field)], [poly_parse("x + y", field)])]
    for us, vs in cases:
        expected = term_sum(us, vs)
        for ratio in (0, 8, 10**9):
            with mock.patch.object(poly_module, "_SPARSE_RATIO", ratio):
                assert dot(us, vs) == expected
                assert us[0] * vs[0] == _mul_terms(us[0], vs[0])


@pytest.mark.parametrize("field", INT64_FIELDS + [QQ], ids=str)
def test_a_sparse_product_of_high_degree_costs_its_terms(monkeypatch, field):
    # the grid of degree 100000 would hold 10^10 cells, monomials(100000)
    # 5 * 10^9 tuples
    rng = random.Random(f"high:{field}")
    us = [sparse_form(rng, field, 50000, 3), sparse_form(rng, field, 40000, 2)]
    vs = [sparse_form(rng, field, 50000, 4), sparse_form(rng, field, 60000, 3)]
    kernel = spy(monkeypatch, "_dot_int64")
    tracemalloc.start()
    try:
        product = dot(us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product == term_sum(us, vs) and product.degree == 100000
    assert not kernel and peak < 1 << 20


# verify_syzygy and diff against the references they replace ----------------

def reference_verify(f, s):
    """The accumulate-by-``+`` verification: three products (the generic
    ones: ``_mul_rational`` over Q, else ``_mul_terms``), two sums."""
    degs = {p.degree for p in s.components() if not p.is_zero()}
    if len(degs) > 1:
        raise DegreeMismatchError(f"mixed component degrees {sorted(degs)}")
    mul = _mul_rational if f.field == QQ else _mul_terms
    acc = HomogPoly.zero(f.field)
    for i, coeff in enumerate(s.components()):
        part = reference_diff(f, i)
        if not (coeff.is_zero() or part.is_zero()):
            acc = acc + mul(coeff, part)
    return acc.is_zero()


def reference_diff(p, i):
    """The per-term derivative through the checking constructor."""
    F = p.field
    out = {}
    for e, c in p.coeffs.items():
        if e[i] == 0:
            continue
        ne = list(e)
        ne[i] -= 1
        v = F.mul(F.coerce(e[i]), c)
        if not F.is_zero(v):
            out[tuple(ne)] = v
    return HomogPoly(F, p.degree - 1 if out else -1, out)


def perturbed(s):
    """s with one coefficient raised by 1, in a component whose partner in
    the gradient is nonzero (so the sum is no longer zero)."""
    comps = list(s.components())
    i = next(i for i, q in enumerate(comps) if not q.is_zero())
    F = comps[i].field
    e = min(comps[i].coeffs)
    table = dict(comps[i].coeffs)
    table[e] = F.add(table[e], F.one())
    comps[i] = HomogPoly(F, s.degree, table)
    return SyzygyTriple(*comps, s.f_degree)


def mapped(f, s, field):
    return f.map_field(field), SyzygyTriple(
        *(q.map_field(field) for q in s.components()), s.f_degree)


def fixture_syzygies():
    """(label, f, s): every point syzygy of every arrangement fixture (a
    rational one made primitive and also mapped into INT64_LIMIT and each
    seed-0 voting prime), and every fixture's reported certificate in its own
    field."""
    from jacsyz.arrangements import lattice, point_syzygy
    from jacsyz.fixtures import fixture_names, get_fixture
    backend = make_backend(seed=0)
    primes = [INT64_LIMIT] + [PrimeField(p) for p in backend.primes]
    out = []
    for name in fixture_names():
        fx = get_fixture(name)
        A = fx.arrangement
        if A is not None:
            for i, pt in enumerate(lattice(A).points):
                s = _primitive(point_syzygy(A, pt))
                for F in [A.field] + (primes if A.field == QQ else []):
                    out.append((f"{name} point {i} {F}", *mapped(A.f, s, F)))
        if fx.f is not None:
            cert = classify(fx.f, backend).certificate
            out.append((f"{name} certificate", fx.f.map_field(cert.field),
                        cert))
    return out


@pytest.fixture(scope="module")
def syzygies():
    return fixture_syzygies()


def test_fixture_syzygies_cover_every_field(syzygies):
    tags = {s.field.tag for _, _, s in syzygies}
    assert {"Q", INT64_LIMIT.tag} <= tags and len(tags) >= 5
    assert len(syzygies) > 400


def test_verify_matches_the_reference_on_fixture_syzygies(syzygies):
    for label, f, s in syzygies:
        assert verify_syzygy(f, s), label
        assert reference_verify(f, s), label


def test_verify_rejects_every_perturbed_fixture_syzygy(syzygies):
    for label, f, s in syzygies:
        bad = perturbed(s)
        assert not verify_syzygy(f, bad), label
        assert not reference_verify(f, bad), label


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_verify_refuses_mixed_degrees(field):
    if refused(field):
        return
    f = poly_parse("x^3 + y^3 + z^3", field)
    s = SyzygyTriple(poly_parse("x", field), poly_parse("y", field),
                     poly_parse("x^2", field), 3)
    for check in (verify_syzygy, reference_verify):
        with pytest.raises(DegreeMismatchError):
            check(f, s)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_diff_matches_the_per_term_reference(field):
    if refused(field):
        return
    rng = random.Random(f"diff:{field}")
    for e in (0, 1, 4, 7):
        p = random_form(rng, field, e)
        for i in range(3):
            assert p.diff(i) == reference_diff(p, i)
            assert p.diff(i).degree == reference_diff(p, i).degree


def test_diff_drops_exponents_divisible_by_the_characteristic():
    F = PrimeField(5)
    p = poly_parse("x^5*y + 2*x^4*y^2 + x^6 + y^6", F)
    dx = p.diff(0)
    assert dx == reference_diff(p, 0) == poly_parse("3*x^3*y^2 + x^5", F)
    # every exponent of x is 0 or 5: the whole x-derivative vanishes
    q = poly_parse("x^5*z + y^6 + 3*x^5*y", F)
    for dq in (q.diff(0), reference_diff(q, 0)):
        assert dq.is_zero() and dq.degree == -1 and dq.coeffs == {}
    assert q.diff(2) == reference_diff(q, 2) == poly_parse("x^5", F)


def reference_map_field(f, field):
    """The coefficient-wise image: one coercion (and one inverse) each."""
    return HomogPoly(field, f.degree, f.coeffs)


@pytest.mark.parametrize("field", FIELDS[:3], ids=str)
def test_map_field_matches_the_per_coefficient_reference(field):
    rng = random.Random(f"map:{field}")
    for e in (0, 1, 4, 7):
        f = random_form(rng, QQ, e)
        # denominators beyond 1..4, and numerators the prime divides
        f = f.scale(Fraction(field.p, 7 * 11 * 13)) + random_form(rng, QQ, e)
        g = f.map_field(field)
        ref = reference_map_field(f, field)
        assert (g.degree, list(g.coeffs.items())) == (
            ref.degree, list(ref.coeffs.items()))
    zero = HomogPoly.zero(QQ).map_field(field)
    assert (zero.degree, zero.coeffs) == (-1, {})


def test_map_field_refuses_a_denominator_the_prime_divides():
    F = PrimeField(1000003)
    f = poly_parse("x^2 + y*z").scale(Fraction(3, 2 * F.p))
    for image in (lambda: f.map_field(F), lambda: reference_map_field(f, F)):
        with pytest.raises(FieldError,
                           match=f"denominator of 3/{2 * F.p} vanishes"):
            image()
    # every coefficient a multiple of p: the image is the zero form
    g = poly_parse("x - y").scale(F.p).map_field(F)
    assert (g.degree, g.coeffs) == (-1, {})


# one GF(p) product path -----------------------------------------------------

def spy(monkeypatch, name):
    """Count the calls of ``poly.<name>``, still running it."""
    calls = []
    real = getattr(poly_module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poly_module, name, counted)
    return calls


def forbid(monkeypatch, *methods):
    for method in methods:
        def refused(*args, _m=method):
            raise AssertionError(f"HomogPoly.{_m} was called")
        monkeypatch.setattr(poly_module.HomogPoly, method, refused)


@pytest.mark.parametrize("field", INT64_FIELDS[1:], ids=str)
def test_int64_verification_is_one_kernel_call(monkeypatch, field):
    f = poly_parse("x*y*(x+y)*(x-2*z)*(y+3*z)*(x+y+z)", field)
    fx, fy, _ = f.gradient()
    s = SyzygyTriple(fy, -fx, HomogPoly.zero(field), f.degree)
    kernel = spy(monkeypatch, "_dot_int64")
    rational = spy(monkeypatch, "_mul_rational")
    forbid(monkeypatch, "__mul__", "__add__", "__sub__")
    assert verify_syzygy(f, s)
    assert len(kernel) == 1 and len(kernel[0][2]) == 2 and not rational


@pytest.mark.parametrize("field", INT64_FIELDS, ids=str)
def test_int64_products_go_through_the_kernel(monkeypatch, field):
    a = poly_parse("x^2 + 3*y*z", field)
    b = poly_parse("x - y + 2*z", field)
    kernel = spy(monkeypatch, "_dot_int64")
    rational = spy(monkeypatch, "_mul_rational")
    product = a * b
    assert len(kernel) == 1 and len(kernel[0][2]) == 1
    assert not rational
    assert product == poly_parse("(x^2 + 3*y*z)*(x - y + 2*z)", field)


@pytest.mark.parametrize("field, path", [(REFUSED, "_mul_terms"),
                                         (QQ, "_mul_rational")], ids=str)
def test_only_fields_outside_int64_leave_the_kernel(monkeypatch, field, path):
    if refused(field):
        # and no generic GF(p) product is left in the package
        assert not hasattr(poly_module, path)
        return
    a = poly_parse("x^2 + 3*y*z", field)
    b = poly_parse("x - y + 2*z", field)
    kernel = spy(monkeypatch, "_dot_int64")
    fallback = spy(monkeypatch, path)
    f = a * b
    fx, fy, _ = f.gradient()
    assert verify_syzygy(f, SyzygyTriple(fy, -fx, HomogPoly.zero(field), 3))
    assert not kernel and len(fallback) == 3


# one gradient per polynomial ------------------------------------------------

def counting_diff(monkeypatch):
    calls = []
    diff = HomogPoly.diff

    def counted(self, var):
        calls.append(self)  # kept alive, so no two polynomials share an id
        return diff(self, var)

    monkeypatch.setattr(poly_module.HomogPoly, "diff", counted)
    return calls


def test_gradient_is_computed_once_per_polynomial(monkeypatch):
    f = poly_parse("x^3*y + y^3*z + z^3*x", PrimeField(1000003))
    g = poly_parse("x^4 + y^4 + z^4", PrimeField(1000003))
    fresh_f = (f.diff(0), f.diff(1), f.diff(2))
    fresh_g = (g.diff(0), g.diff(1), g.diff(2))
    calls = counting_diff(monkeypatch)
    for _ in range(3):
        assert f.gradient() == fresh_f
        assert g.gradient() == fresh_g
    assert [id(p) for p in calls].count(id(f)) == 3
    assert [id(p) for p in calls].count(id(g)) == 3


@pytest.mark.parametrize("text, field", [
    ("x*y*(x+y)*(x-2*z)*(y+3*z)*(x+y+z)*(x-y+2*z)", PrimeField(1000003)),
    ("x^5 + y^5 + z^5 + x^2*y^2*z", QQ),
])
def test_classify_takes_each_gradient_once(monkeypatch, text, field):
    f = poly_parse(text, field)
    backend = make_backend(seed=0) if field == QQ else None
    calls = counting_diff(monkeypatch)
    classify(f, backend)
    ids = [id(p) for p in calls]
    assert ids and max(ids.count(i) for i in set(ids)) == 3
