import pickle

import pytest

from jacsyz.backend import BackendDisagreement, make_backend
from jacsyz.poly import poly_parse
from jacsyz.syzygy import (DegreeMismatchError, SyzygyTriple, ar_dimension,
                           ar_slice, is_cone, is_primitive, mdr,
                           verify_syzygy)


def _koszul(f):
    """(f_y, -f_x, 0) is always a syzygy of degree d-1."""
    fx, fy, _ = f.gradient()
    zero = fy - fy
    return SyzygyTriple(fy, -fx, zero, f.degree)


def test_koszul_syzygies_verify():
    for text in ["x^3 + y^3 + z^3", "x*y*z*(x+y+z)", "x^5 - y^4*z"]:
        f = poly_parse(text)
        assert verify_syzygy(f, _koszul(f))


def test_verify_rejects_non_syzygy():
    f = poly_parse("x^3 + y^3 + z^3")
    s = SyzygyTriple(poly_parse("x"), poly_parse("y"), poly_parse("z"), 3)
    assert not verify_syzygy(f, s)


def test_degree_mismatch():
    f = poly_parse("x^3 + y^3 + z^3")
    s = SyzygyTriple(poly_parse("x"), poly_parse("y"), poly_parse("x^2"), 3)
    with pytest.raises(DegreeMismatchError):
        verify_syzygy(f, s)


def test_mdr_known_values():
    assert mdr(poly_parse("x*y*z")) == 1              # free (1,1)
    assert mdr(poly_parse("x^3 + y^3 + z^3")) == 2    # smooth cubic
    assert mdr(poly_parse("x^2 - y^2")) == 0          # cone over points


def test_ar_dimension_and_slice():
    f = poly_parse("x*y*z")
    assert ar_dimension(f, 0) == 0
    sl = ar_slice(f, 1)
    assert sl.dimension == 2
    for s in sl.basis:
        assert verify_syzygy(f, s)


def test_ar_dimension_monotone_nondecreasing_beyond_mdr():
    f = poly_parse("x^4 + y^4 + z^4")
    r = mdr(f)
    dims = [ar_dimension(f, k) for k in range(r, r + 3)]
    assert dims[0] >= 1
    assert dims == sorted(dims)


def test_is_cone():
    assert is_cone(poly_parse("x^2 - y^2"))
    assert is_cone(poly_parse("x^3 - y^3"))
    assert not is_cone(poly_parse("x*y*z"))
    assert not is_cone(poly_parse("x^3 + y^3 + z^3"))


def test_is_primitive():
    f = poly_parse("x*y*z")
    sl = ar_slice(f, 1)
    assert all(is_primitive(s) for s in sl.basis)
    scaled = SyzygyTriple(sl.basis[0].a * poly_parse("x"),
                          sl.basis[0].b * poly_parse("x"),
                          sl.basis[0].c * poly_parse("x"), f.degree)
    assert verify_syzygy(f, scaled) and not is_primitive(scaled)


def test_modular_backend_agrees_with_rational():
    f = poly_parse("(x^2-y^2)*(y^2-z^2)*(x^2-z^2)")
    b = make_backend(seed=5)
    assert mdr(f, b) == mdr(f)


def test_backend_voting_disagreement():
    f = poly_parse("x*y*z")
    b = make_backend(seed=0)
    assert b.vote(lambda g: g.degree, f) == 3
    answers = [(F.tag, F.p) for F in b.fields]
    with pytest.raises(BackendDisagreement) as exc:
        b.vote(lambda g: g.field.p, f, "the prime")
    assert (exc.value.what, exc.value.answers) == ("the prime", answers)
    assert str(exc.value) == f"backend disagreement on the prime: {answers}"
    copy = pickle.loads(pickle.dumps(exc.value))
    assert (copy.what, copy.answers, str(copy)) == (
        "the prime", answers, str(exc.value))
