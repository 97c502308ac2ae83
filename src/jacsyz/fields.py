"""Exact coefficient fields: rationals and prime fields GF(p), p < 2^31.

Scalars are plain Python values (``fractions.Fraction`` over Q, ints in
``[0, p)`` over GF(p)); all arithmetic goes through the field object, so
polynomial and matrix code is backend-agnostic.  No floating point anywhere.
A product of two residues stays below 2^62, so the kernels in ``poly`` and
``linalg`` compute over GF(p) in numpy int64; ``PrimeField`` refuses any
prime they cannot hold.
"""

from __future__ import annotations

from fractions import Fraction
import random

__all__ = [
    "Field",
    "RationalField",
    "PrimeField",
    "QQ",
    "parse_field_tag",
    "is_probable_prime",
    "random_prime",
    "random_primes",
]


class FieldError(ValueError):
    pass


class Field:
    """Common interface of the two exact backends."""

    tag: str
    char: int

    def coerce(self, x):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        raise NotImplementedError

    def scalar_str(self, a):
        return str(a)

    def scalar_from_str(self, s):
        return self.coerce(Fraction(s))

    def __eq__(self, other):
        return isinstance(other, Field) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


_ZERO, _ONE = Fraction(0), Fraction(1)  # immutable, so shared


class RationalField(Field):
    tag = "Q"
    char = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def is_zero(self, a):
        return a == 0


class PrimeField(Field):
    """GF(p), 2 < p < 2^31, with elements stored as ints in ``[0, p)``.

    Division by the zero residue raises; rationals whose denominator is
    divisible by p are rejected at coercion time.  A prime of 2^31 or more
    is refused (FieldError): every entry point that names a prime builds
    its field here.
    """

    char: int

    def __init__(self, p: int):
        if p <= 2:
            raise FieldError("prime must exceed 2")
        if p >= 2**31:
            raise FieldError(f"GF(p) needs p < 2^31 for its int64 "
                             f"arithmetic, got p = {p}")
        if not is_probable_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.tag = f"Fp:{p}"

    def coerce(self, x):
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise FieldError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(den, -1, p) % p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise FieldError(f"cannot coerce {x!r} into GF({p})")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero residue mod {self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0


QQ = RationalField()


def parse_field_tag(tag: str) -> Field:
    """Parse a backend tag: ``"Q"`` or ``"Fp:<prime>"``."""
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:"):
        return PrimeField(int(tag[3:]))
    raise FieldError(f"unknown field tag {tag!r}")


# Deterministic Miller-Rabin bases valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int = 2**30 + 1, hi: int = 2**31 - 1,
                 congruence: tuple[int, int] | None = None) -> int:
    """Random prime in [lo, hi]; optionally p = r (mod m) via congruence=(r, m)."""
    while True:
        n = rng.randrange(lo, hi)
        if congruence is not None:
            r, m = congruence
            n += (r - n) % m
            if n > hi:
                continue
        else:
            n |= 1
        # scan upward a little from the random start
        step = congruence[1] if congruence is not None else 2
        for k in range(200):
            c = n + k * step
            if c > hi:
                break
            if is_probable_prime(c):
                return c


def random_primes(count: int, seed: int | None = None,
                  congruence: tuple[int, int] | None = None) -> list[int]:
    """``count`` distinct random primes > 2^30 (reproducible for a given seed)."""
    rng = random.Random(seed)
    primes: list[int] = []
    while len(primes) < count:
        p = random_prime(rng, congruence=congruence)
        if p not in primes:
            primes.append(p)
    return primes
