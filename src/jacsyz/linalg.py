"""Exact rank / nullspace / determinant computations.

Two routes: a generic row reduction over any exact field (Fractions over Q),
and a vectorized numpy int64 kernel for prime fields with p < 2^31 (products
stay below 2^63, so the modular arithmetic is exact).
"""

from __future__ import annotations

import numpy as np

from .fields import Field, PrimeField

__all__ = ["ExactMatrix", "rank_mod_np", "rref_mod_np", "nullspace_mod_np"]


# ---------------------------------------------------------------------------
# numpy kernel for GF(p)
# ---------------------------------------------------------------------------

def rank_mod_np(A: np.ndarray, p: int) -> int:
    """Rank over GF(p); A is int64 with entries in [0, p), not preserved."""
    A = A.copy()
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = A[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = A[r, c:] * inv % p
        factors = A[r + 1:, c]
        mask = factors != 0
        if mask.any():
            sub = A[r + 1:, c:][mask]
            sub = (sub - factors[mask, None] * A[r, c:]) % p
            A[r + 1:, c:][mask] = sub
        r += 1
    return r


def rref_mod_np(A: np.ndarray, p: int):
    """Reduced row echelon form over GF(p): returns (R, pivot column list)."""
    R = A.copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = R[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r, c:] = R[r, c:] * inv % p
        factors = R[:, c].copy()
        factors[r] = 0
        mask = factors != 0
        if mask.any():
            R[mask, c:] = (R[mask, c:] - factors[mask, None] * R[r, c:]) % p
        pivots.append(c)
        r += 1
    return R, pivots


def nullspace_mod_np(A: np.ndarray, p: int):
    """Canonical nullspace basis over GF(p) (one vector per free column)."""
    R, pivots = rref_mod_np(A, p)
    cols = A.shape[1]
    pivset = set(pivots)
    basis = []
    for j in range(cols):
        if j in pivset:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-int(R[i, j])) % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# generic exact matrix
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Dense matrix over an exact field; all results verified by construction
    (nullspace vectors re-checked by substitution)."""

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [[field.coerce(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    def to_numpy(self):
        if not isinstance(self.field, PrimeField):
            raise ValueError("numpy form only for prime fields")
        return np.array(
            [[int(v) for v in row] for row in self.rows], dtype=np.int64
        ).reshape(self.nrows, self.ncols)

    def rank(self) -> int:
        if isinstance(self.field, PrimeField) and self.field.p < 2**31:
            if self.nrows == 0 or self.ncols == 0:
                return 0
            return rank_mod_np(self.to_numpy(), self.field.p)
        return len(self._rref()[1])

    def _rref(self):
        """Generic reduced row echelon form: (rows, pivot columns)."""
        F = self.field
        R = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            if r == len(R):
                break
            piv = None
            for i in range(r, len(R)):
                if not F.is_zero(R[i][c]):
                    piv = i
                    break
            if piv is None:
                continue
            R[r], R[piv] = R[piv], R[r]
            inv = F.inv(R[r][c])
            R[r] = [F.mul(inv, v) for v in R[r]]
            for i in range(len(R)):
                if i != r and not F.is_zero(R[i][c]):
                    f = R[i][c]
                    R[i] = [F.sub(R[i][j], F.mul(f, R[r][j]))
                            for j in range(self.ncols)]
            pivots.append(c)
            r += 1
        return R, pivots

    def nullspace(self):
        """Basis of the right kernel; canonical (RREF-derived), re-verified."""
        F = self.field
        if self.ncols == 0:
            return []
        if self.nrows == 0:
            basis = []
            for j in range(self.ncols):
                v = [F.zero()] * self.ncols
                v[j] = F.one()
                basis.append(v)
            return basis
        if isinstance(F, PrimeField) and F.p < 2**31:
            vecs = nullspace_mod_np(self.to_numpy(), F.p)
            basis = [[int(x) for x in v] for v in vecs]
        else:
            R, pivots = self._rref()
            pivset = set(pivots)
            basis = []
            for j in range(self.ncols):
                if j in pivset:
                    continue
                v = [F.zero()] * self.ncols
                v[j] = F.one()
                for i, pc in enumerate(pivots):
                    v[pc] = F.neg(R[i][j])
                basis.append(v)
        for v in basis:
            if not self.maps_to_zero(v):
                raise ArithmeticError("nullspace vector failed re-substitution")
        return basis

    def maps_to_zero(self, v) -> bool:
        F = self.field
        for row in self.rows:
            acc = F.zero()
            for a, b in zip(row, v):
                if not F.is_zero(a) and not F.is_zero(b):
                    acc = F.add(acc, F.mul(a, b))
            if not F.is_zero(acc):
                return False
        return True

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        F = self.field
        n = self.nrows
        if n == 0:
            return F.one()
        R = [list(r) for r in self.rows]
        det = F.one()
        for c in range(n):
            piv = None
            for i in range(c, n):
                if not F.is_zero(R[i][c]):
                    piv = i
                    break
            if piv is None:
                return F.zero()
            if piv != c:
                R[c], R[piv] = R[piv], R[c]
                det = F.neg(det)
            det = F.mul(det, R[c][c])
            inv = F.inv(R[c][c])
            for i in range(c + 1, n):
                if not F.is_zero(R[i][c]):
                    f = F.mul(inv, R[i][c])
                    R[i] = [F.sub(R[i][j], F.mul(f, R[c][j])) for j in range(n)]
        return det
