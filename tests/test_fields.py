from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jacsyz.fields import (FieldError, PrimeField, QQ, is_probable_prime,
                           parse_field_tag, random_primes)

P = 2**31 - 1  # Mersenne prime above 2^30


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


@given(st.integers(min_value=-1000, max_value=10**6))
def test_probable_prime_matches_trial_division(n):
    assert is_probable_prime(n) == _trial_division(n)


@given(st.fractions(), st.fractions())
def test_rational_field_ops(a, b):
    assert QQ.add(a, b) == a + b
    assert QQ.mul(a, b) == a * b
    assert QQ.sub(a, b) == a - b
    if b != 0:
        assert QQ.div(a, b) == Fraction(a, b)


@given(st.integers(), st.integers())
def test_prime_field_ops(a, b):
    F = PrimeField(P)
    x, y = F.coerce(a), F.coerce(b)
    assert F.add(x, y) == (a + b) % P
    assert F.mul(x, y) == (a * b) % P
    if y:
        assert F.mul(F.inv(y), y) == F.one()


def test_prime_field_rejects_composite_and_small():
    with pytest.raises(FieldError):
        PrimeField(2)
    with pytest.raises(FieldError):
        PrimeField(15)


@pytest.mark.parametrize("p", [2**31 + 11, 2**61 - 1, 2**31])
def test_prime_field_refuses_primes_beyond_the_int64_range(p):
    with pytest.raises(FieldError, match=r"p < 2\^31"):
        PrimeField(p)
    with pytest.raises(FieldError, match=r"p < 2\^31"):
        parse_field_tag(f"Fp:{p}")


def test_prime_field_coerces_fractions_exactly():
    F = PrimeField(P)
    half = F.coerce(Fraction(1, 2))
    assert F.mul(half, F.coerce(2)) == F.one()


def test_prime_field_inverse_and_its_refusals():
    F = PrimeField(P)
    for a in (1, 2, F.p - 1, -3, 5 * F.p + 7):
        assert F.mul(F.inv(a), F.coerce(a)) == 1
        assert F.mul(F.coerce(Fraction(1, a)), F.coerce(a)) == 1
    for a in (0, F.p, -2 * F.p):
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
    with pytest.raises(FieldError):
        F.coerce(Fraction(1, 3 * F.p))


def test_parse_field_tag():
    assert parse_field_tag("Q") is QQ
    F = parse_field_tag(f"Fp:{P}")
    assert isinstance(F, PrimeField) and F.p == P
    with pytest.raises(FieldError):
        parse_field_tag("R")


def test_random_primes_range_distinct_deterministic():
    ps = random_primes(4, seed=7)
    assert len(set(ps)) == 4
    assert all(2**30 < p < 2**31 for p in ps)
    assert all(is_probable_prime(p) for p in ps)
    assert ps == random_primes(4, seed=7)
    assert ps != random_primes(4, seed=8)


def test_random_primes_congruence():
    for p in random_primes(3, seed=1, congruence=(1, 5)):
        assert p % 5 == 1


def test_scalar_str_round_trip():
    assert QQ.scalar_from_str(QQ.scalar_str(Fraction(-7, 3))) == Fraction(-7, 3)
    F = PrimeField(P)
    assert F.scalar_from_str(F.scalar_str(F.coerce(123))) == F.coerce(123)
