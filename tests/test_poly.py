from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacsyz.fields import PrimeField, QQ, random_primes
from jacsyz.poly import (HomogPoly, HomogeneityError, ParseError, homog_gcd,
                         is_reduced, monomials, poly_parse)


def homog(degree, max_coeff=9):
    mons = monomials(degree)
    return st.lists(st.integers(-max_coeff, max_coeff),
                    min_size=len(mons), max_size=len(mons)).map(
        lambda cs: HomogPoly(QQ, degree, dict(zip(mons, cs))))


def test_parse_round_trip():
    for text in ["x^3 + y^3 + z^3", "x*y*z", "2*x^2*y - 7*z^3",
                 "(x+y)*(x-y)", "x^2 - y^2"]:
        f = poly_parse(text)
        assert poly_parse(f.to_str()) == f


def test_parse_errors():
    with pytest.raises(ValueError):
        poly_parse("x^2 + y")  # inhomogeneous
    with pytest.raises(ParseError):
        poly_parse("x +")
    with pytest.raises(ParseError):
        poly_parse("w^2")


@pytest.mark.parametrize("text, position", [("x^\u00b2", 2), ("\u00b2*x", 0),
                                            ("x^2*y^\u00b3", 6)])
def test_superscript_digit_is_a_parse_error(text, position):
    # '\u00b2'.isdigit() is true, but int() refuses it: only decimal digits
    # are read as numbers, so a superscript fails at its own position
    with pytest.raises(ParseError) as err:
        poly_parse(text)
    assert err.value.position == position


def test_parse_unicode_minus_anywhere():
    # U+2212 negates as "-" does: between terms, leading, in parentheses
    for text in ["x^2 \u2212 y^2", "\u2212x^2 + y^2", "(\u2212x)*y",
                 "x*(\u2212y \u2212 z)", "\u2212(x + y)*z"]:
        assert poly_parse(text) == poly_parse(text.replace("\u2212", "-"))
    assert poly_parse("\u2212x^2 + y^2") == poly_parse("y^2 - x^2")


def test_add_degree_mismatch():
    with pytest.raises(HomogeneityError):
        poly_parse("x^2") + poly_parse("x")


@settings(max_examples=50)
@given(homog(3))
def test_euler_relation(f):
    # x f_x + y f_y + z f_z = d f
    assert f.euler_combination() == f.scale(Fraction(f.degree))


@settings(max_examples=30)
@given(homog(2), homog(2))
def test_product_and_gcd(f, g):
    if f.is_zero() or g.is_zero():
        return
    h = f * g
    assert h.degree == 4
    d = homog_gcd(h, f)
    assert d.divides(f) and f.divides(d)  # gcd(fg, f) = f up to scalar


def test_exact_div():
    f = poly_parse("(x+y)*(x-z)*(y+2*z)")
    g = poly_parse("x - z")
    q = f.exact_div(g)
    assert q * g == f
    assert poly_parse("x^2 + y*z").exact_div(g) is None
    assert not g.divides(poly_parse("x^2 + y*z"))


def test_substitute_is_composition():
    f = poly_parse("x^2*y + z^3")
    M = [[1, 2, 0], [0, 1, 1], [3, 0, 1]]  # rows of the substitution
    Mq = [[Fraction(v) for v in row] for row in M]
    g = f.substitute(Mq)
    pt = (Fraction(2), Fraction(-1), Fraction(3))
    img = tuple(sum(Mq[i][j] * pt[j] for j in range(3)) for i in range(3))
    assert g.evaluate(pt) == f.evaluate(img)


def test_restrict_to_line():
    f = poly_parse("x*y - z^2")
    # parametrize by A + s B with A=(1,0,0), B=(0,1,1): f = s - s^2
    u = f.restrict_to_line((Fraction(1), Fraction(0), Fraction(0)),
                           (Fraction(0), Fraction(1), Fraction(1)))
    assert u(Fraction(0)) == 0 and u(Fraction(1)) == 0
    assert u.degree == 2


def test_is_reduced():
    assert is_reduced(poly_parse("x*y*z"))
    assert not is_reduced(poly_parse("x^2*y"))
    assert is_reduced(poly_parse("x^3 + y^3 + z^3"))
    assert not is_reduced(poly_parse("(x+y)^2*(x-y)"))


def test_map_field():
    p = random_primes(1, seed=0)[0]
    F = PrimeField(p)
    f = poly_parse("x^2 - 2*y*z").scale(Fraction(1, 2))
    g = f.map_field(F)
    assert g.field == F
    assert g.scale(F.coerce(2)) == poly_parse("x^2 - 2*y*z", F)


def test_gradient_degrees():
    f = poly_parse("x^4 + x*y^2*z + z^4")
    fx, fy, fz = f.gradient()
    assert fx.degree == fy.degree == fz.degree == 3
    assert fy == poly_parse("2*x*y*z")
