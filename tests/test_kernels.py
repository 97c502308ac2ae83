"""The int64 kernels around the elimination, tested against the generic
code they sit beside: the numpy scatter that fills a graded multiplication
matrix against a per-term loop, the grid product of GF(p) forms against the
term-by-term product, and the kept gradient against fresh partials."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacsyz import poly as poly_module
from jacsyz.backend import make_backend
from jacsyz.fields import PrimeField, QQ
from jacsyz.poly import (HomogPoly, _mul_int64, _mul_rational, _mul_terms,
                         monomial_count, monomial_index, monomials, poly_parse)
from jacsyz.syzygy import graded_multiplication_matrix
from jacsyz.tjurina import classify

INT64_LIMIT = PrimeField(2**31 - 1)  # the largest prime of the int64 kernels
BIG = PrimeField(2**31 + 11)         # the smallest prime above them
FIELDS = [PrimeField(5), PrimeField(1000003), INT64_LIMIT, BIG, QQ]


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
    if polys[0].field.int64:
        assert isinstance(A, np.ndarray) and A.dtype == np.int64
        assert np.array_equal(A, np.array(ref, dtype=np.int64))
    else:
        assert isinstance(A, list)
        assert A == ref


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("r", [0, 1, 2, 5])
def test_fill_matches_reference_loop(field, r):
    rng = random.Random(f"{field}:{r}")
    for e in (0, 1, 3, 6):
        polys = [random_form(rng, field, e) for _ in range(3)]
        if all(p.is_zero() for p in polys):
            continue
        assert_fill_matches(polys, r, r + e)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("r", [0, 3])
def test_fill_with_a_zero_partial(field, r):
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
    assert _mul_int64(a, b).coeffs == expected.coeffs
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
        assert _mul_int64(a, b) == _mul_terms(a, b) == a * b


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


@pytest.mark.parametrize("field", [BIG, QQ], ids=str)
def test_generic_product_outside_the_int64_range(field):
    rng = random.Random(7)
    a, b = random_form(rng, field, 4), random_form(rng, field, 3)
    assert not field.int64
    assert a * b == _mul_terms(a, b)
    assert (a * b).evaluate((2, 3, 5)) == field.mul(a.evaluate((2, 3, 5)),
                                                   b.evaluate((2, 3, 5)))


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
