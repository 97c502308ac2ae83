"""Computation backends, and the one field policy for computations on f.

``compute`` decides where a computation on a curve f runs.  A rational f
under the modular backend runs in every GF(p) of three independent random
primes in (2^30, 2^31) and the results are cross-checked; any disagreement aborts
with a diagnostic.  Everything else runs in f's own field: f without a
backend, f under the rational (exact) backend, and a curve over GF(p).  No
computation runs in GF(p) with p <= deg f, where a partial derivative can
vanish identically.  A modular backend needs at least one prime.

The caller may hand in the first field's answer (``first``) when it has
computed what ``fn`` would return there; the vote then goes on as if ``fn``
had returned it.  That is how every mdr search (``syzygy._mdr_scan``)
hands in its first field, where it tests the predicted mdr its own way.

Pencil member invariants vote too, over two primes that split the
discriminant roots (``pencils._split_members``), under the same rule: every
answer goes through ``agree``, the only comparison of answers from
different fields, and a disagreement raises the same
``BackendDisagreement``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import PrimeField, QQ, random_primes

__all__ = ["Backend", "BackendDisagreement", "agree", "make_backend",
           "fields_for", "compute", "describe"]

DEFAULT_PRIME_COUNT = 3


class BackendDisagreement(ArithmeticError):
    """The random primes voted differently; the probabilistic path is
    self-policing and refuses to return an answer.  ``what`` names the
    voted value and ``answers`` holds the (field tag, answer) pairs."""

    def __init__(self, what: str, answers: list):
        super().__init__(what, answers)
        self.what = what
        self.answers = answers

    def __str__(self):
        return f"backend disagreement on {self.what}: {self.answers}"


@dataclass
class Backend:
    mode: str  # "modular" | "rational"
    primes: list = dc_field(default_factory=list)

    def __post_init__(self):
        if self.mode == "modular":
            if not self.primes:
                raise ValueError("the modular backend needs at least one "
                                 "voting prime")
            self.fields = [PrimeField(p) for p in self.primes]
        elif self.mode == "rational":
            self.fields = [QQ]
        else:
            raise ValueError(f"unknown backend mode {self.mode!r}")

    def vote(self, fn, f, what="value", first=None):
        """Apply ``fn`` to f in every field ``fields_for`` picks under this
        backend; all answers must agree.  ``first``, when not None, is the
        first field's answer, already proved by the caller, so ``fn`` does
        not run there."""
        fields = fields_for(f, self)
        answers = [fn(f.map_field(fields[0])) if first is None else first]
        answers += [fn(f.map_field(F)) for F in fields[1:]]
        return agree(what, [(F.tag, a) for F, a in zip(fields, answers)])


def agree(what: str, answers: list):
    """The common answer of the (field tag, answer) pairs; raises
    BackendDisagreement on ``what`` unless they all agree."""
    answer = answers[0][1]
    if any(a != answer for _, a in answers):
        raise BackendDisagreement(what, answers)
    return answer


def fields_for(f, backend: Backend | None = None) -> list:
    """The fields a computation on f runs in: the backend's fields for a
    rational f, f's own field otherwise.  Raises ValueError if one of them
    is GF(p) with p <= deg f."""
    rational = backend is not None and f.field == QQ
    fields = backend.fields if rational else [f.field]
    d = f.degree
    small = [F.p for F in fields if isinstance(F, PrimeField) and F.p <= d]
    if small:
        raise ValueError(
            f"GF(p) with p <= d = {d} is not supported (p = {small}): "
            "a partial derivative can vanish in characteristic p")
    return fields


def compute(fn, f, backend: Backend | None = None, what="value",
            first=None):
    """``fn(f)`` in the fields of ``fields_for``: directly when that is f's
    own field, else voted over the backend's primes (with ``first``, as
    ``Backend.vote``).  A proved ``first`` answer in f's own field is the
    answer."""
    if fields_for(f, backend) == [f.field]:
        return fn(f) if first is None else first
    return backend.vote(fn, f, what, first)


def describe(f, backend: Backend | None = None) -> dict:
    """Where a computation on f runs, as reported: "modular" with the voting
    primes, "direct" in f's own GF(p), or "rational"."""
    if fields_for(f, backend) != [f.field]:
        return {"backend": "modular", "primes": list(backend.primes)}
    if isinstance(f.field, PrimeField):
        return {"backend": "direct", "primes": [f.field.p]}
    return {"backend": "rational", "primes": []}


def make_backend(mode: str = "modular",
                 primes: int | list = DEFAULT_PRIME_COUNT,
                 seed: int | None = None) -> Backend:
    if mode == "rational":
        return Backend("rational")
    if isinstance(primes, int):
        primes = random_primes(primes, seed=seed)
    return Backend("modular", list(primes))
