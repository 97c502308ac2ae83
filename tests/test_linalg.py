import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacsyz import linalg
from jacsyz.fields import PrimeField, QQ, random_primes
from jacsyz.linalg import (ExactMatrix, _echelon_mod_np, nullspace_mod_np,
                           rank_mod_np)

P = random_primes(1, seed=11)[0]
BIG = PrimeField(2**31 + 11)  # above the int64 kernel's range

matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n, max_size=n)))


def _qmat(rows):
    return ExactMatrix(QQ, [[Fraction(v) for v in row] for row in rows])


def _rank_oracle(rows):
    """Fraction-free elimination with shuffled pivot choices."""
    rng = random.Random(12345)
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = list(range(len(rows[0])))
    for col in cols:
        pivots = [i for i in range(rank, len(rows)) if rows[i][col] != 0]
        if not pivots:
            continue
        i = rng.choice(pivots)
        rows[rank], rows[i] = rows[i], rows[rank]
        for j in range(len(rows)):
            if j != rank and rows[j][col] != 0:
                c = rows[j][col] / rows[rank][col]
                rows[j] = [a - c * b for a, b in zip(rows[j], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=60)
@given(matrices)
def test_rank_against_shuffled_pivot_oracle(rows):
    assert _qmat(rows).rank() == _rank_oracle(rows)


@settings(max_examples=60)
@given(matrices)
def test_rank_nullity(rows):
    M = _qmat(rows)
    ns = M.nullspace()
    assert M.rank() + len(ns) == len(rows[0])
    for v in ns:
        assert M.maps_to_zero(v)


@settings(max_examples=40)
@given(matrices)
def test_modular_rank_matches_rational_on_small_entries(rows):
    # entries in [-9, 9]: no accidental rank drop is possible at a 31-bit
    # prime unless a minor is divisible by P, which cannot happen here
    A = np.array(rows, dtype=np.int64) % P
    assert rank_mod_np(A, P) == _qmat(rows).rank()


@settings(max_examples=40)
@given(matrices)
def test_modular_nullspace(rows):
    A = np.array(rows, dtype=np.int64) % P
    basis = nullspace_mod_np(A, P)
    assert rank_mod_np(A, P) + len(basis) == A.shape[1]
    for v in basis:
        assert not ((A @ v) % P).any()


@settings(max_examples=30)
@given(matrices)
def test_rref_idempotent(rows):
    A = np.array(rows, dtype=np.int64) % P
    R, piv = _echelon_mod_np(A, P, reduced=True)
    R2, piv2 = _echelon_mod_np(R, P, reduced=True)
    assert (R == R2).all() and piv == piv2
    assert (A == np.array(rows, dtype=np.int64) % P).all()  # input unchanged
    # the echelon form finds the same pivots; its rows span the same space
    E, piv3 = _echelon_mod_np(A, P, reduced=False)
    assert piv3 == piv and rank_mod_np(R, P) == len(piv)
    assert (_echelon_mod_np(E, P, reduced=True)[0] == R).all()


# the int64 kernel against the remainder-based kernel it replaced -----------

LIMIT = 2**31 - 1  # the largest prime of the int64 kernel


def _reference_echelon(A, p, reduced):
    """The elimination reducing by ``% p`` (a hardware division per entry),
    with the Fermat inverse and a boolean-mask gather of the rows to update.
    ``_echelon_mod_np`` must return the same (R, pivots) bit for bit."""
    R = A.copy()
    rows, cols = R.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), p - 2, p) % p
        top = 0 if reduced else r + 1
        block = R[top:, c:]
        mask = block[:, 0] != 0
        if reduced:
            mask[r] = False
        if mask.any():
            sub = block[mask]
            block[mask] = (sub - sub[:, :1] * R[r, c:]) % p
        pivots.append(c)
    return R, pivots


def _assert_kernel_matches_reference(A, p):
    for reduced in (False, True):
        R0, piv0 = _reference_echelon(A, p, reduced)
        # a block of 3 entries splits every row update into several blocks
        for block in (linalg._BLOCK, 3):
            with mock.patch.object(linalg, "_BLOCK", block):
                R, piv = _echelon_mod_np(A, p, reduced)
            assert R.dtype == R0.dtype == np.int64
            assert piv == piv0 and np.array_equal(R, R0)


def residue_matrices(p, size=8):
    entry = st.one_of(st.just(0), st.integers(0, p - 1),
                      st.sampled_from([1, p - 2, p - 1]))
    return st.integers(1, size).flatmap(
        lambda n: st.integers(1, size).flatmap(
            lambda m: st.lists(st.lists(entry, min_size=m, max_size=m),
                               min_size=n, max_size=n))).map(
        lambda rows: np.array(rows, dtype=np.int64))


@pytest.mark.parametrize("p", [5, P, LIMIT], ids=str)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_matches_remainder_reference(p, data):
    _assert_kernel_matches_reference(data.draw(residue_matrices(p)), p)


def test_kernel_matches_reference_on_the_largest_entries():
    # entries p-1 and p-2 give the largest products, (p-1)^2 < 2^62, and
    # negative differences before each reduction
    rng = np.random.default_rng(3)
    for n, m in [(12, 20), (20, 12), (16, 16), (1, 9), (9, 1)]:
        A = LIMIT - rng.integers(1, 3, size=(n, m))
        _assert_kernel_matches_reference(A, LIMIT)
        A[n // 2:] = A[:n - n // 2]  # repeated rows: rank at most ceil(n/2)
        _assert_kernel_matches_reference(A, LIMIT)


def test_kernel_matches_reference_with_row_swaps():
    # column c is zero on the pivot row, so a row below is swapped up
    rng = np.random.default_rng(4)
    for n in (2, 5, 9):
        anti = np.fliplr(np.diag(LIMIT - rng.integers(1, 3, size=n)))
        _assert_kernel_matches_reference(anti, LIMIT)
        sparse = rng.integers(0, LIMIT, size=(n, 2 * n))
        sparse[rng.random((n, 2 * n)) < 0.6] = 0
        _assert_kernel_matches_reference(sparse[rng.permutation(n)], LIMIT)
    pad = np.zeros((6, 8), dtype=np.int64)
    pad[5] = LIMIT - 1  # the only nonzero row is the last one
    pad[3, 4:] = LIMIT - 2
    _assert_kernel_matches_reference(pad, LIMIT)


def _low_rank_rows(rng, n, m, k, p):
    """An n x m matrix over GF(p) of rank at most k, with full-size entries."""
    B = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
    C = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
    return [[sum(B[i][t] * C[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)]


def _assert_nullspaces_agree(rows, p):
    A = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    M = ExactMatrix(PrimeField(p), rows)
    assert [v.tolist() for v in nullspace_mod_np(A, p)] == M.nullspace()
    assert rank_mod_np(A, p) == M.rank()


@settings(max_examples=40)
@given(matrices)
def test_modular_nullspace_matches_generic(rows):
    _assert_nullspaces_agree([[v % P for v in row] for row in rows], P)


def test_modular_nullspace_matches_generic_low_rank():
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(1, 9), rng.randint(1, 9)
        _assert_nullspaces_agree(
            _low_rank_rows(rng, n, m, rng.randint(0, min(n, m)), P), P)


def _det_oracle(F, rows):
    """Cofactor expansion along the first row."""
    if not rows:
        return F.one()
    acc = F.zero()
    for j, a in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = F.mul(a, _det_oracle(F, minor))
        acc = F.sub(acc, term) if j % 2 else F.add(acc, term)
    return acc


@pytest.mark.parametrize("field", [QQ, PrimeField(P), BIG],
                         ids=["Q", "Fp", "Fp_big"])
def test_det_matches_cofactor_oracle(field):
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(0, 5)
        # small entries make many matrices singular; a few rows repeat
        rows = [[field.coerce(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[-1] = list(rows[0])
        assert ExactMatrix(field, rows).det() == _det_oracle(field, rows)


def test_det():
    assert _qmat([[1, 0], [0, 1]]).det() == 1
    assert _qmat([[1, 2], [2, 4]]).det() == 0
    assert _qmat([[0, 1], [1, 0]]).det() == -1
    assert _qmat([[2, 1, 0], [1, 3, 1], [0, 1, 4]]).det() == Fraction(18)


def test_prime_field_matrix():
    F = PrimeField(P)
    M = ExactMatrix(F, [[F.coerce(1), F.coerce(2)],
                        [F.coerce(2), F.coerce(4)]])
    assert M.rank() == 1 and M.nullity() == 1
