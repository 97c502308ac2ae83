"""Exact rank / nullspace / determinant computations.

Two eliminations, one per arithmetic:

* ``_echelon_mod_np``: a vectorized numpy int64 kernel over GF(p) for
  p < 2^31 (products stay below 2^63, so the modular arithmetic is exact).
  ``rank_mod_np`` counts its pivots; ``nullspace_mod_np`` reads the basis
  from its reduced form.
* ``ExactMatrix._rref``: a generic row reduction over any exact field
  (Fractions over Q, Python ints mod p for p >= 2^31).  ``rank``,
  ``nullspace`` and ``det`` all read from it.

Both return the reduced row echelon form with pivots scaled to 1, so a
nullspace basis is canonical: one vector per free column, with a 1 there.
"""

from __future__ import annotations

import numpy as np

from .fields import Field

__all__ = ["ExactMatrix", "rank_mod_np", "nullspace_mod_np"]


# ---------------------------------------------------------------------------
# numpy kernel for GF(p)
# ---------------------------------------------------------------------------

def _echelon_mod_np(A: np.ndarray, p: int, reduced: bool):
    """Row echelon form of A over GF(p) with pivots scaled to 1; the rows
    above each pivot are cleared too when ``reduced``.  A is int64 with
    entries in [0, p) and is left unchanged.  Returns (R, pivot columns)."""
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
            mask[r] = False  # the pivot row
        if mask.any():
            sub = block[mask]
            block[mask] = (sub - sub[:, :1] * R[r, c:]) % p
        pivots.append(c)
    return R, pivots


def rank_mod_np(A: np.ndarray, p: int) -> int:
    """Rank over GF(p); A is int64 with entries in [0, p) and is left
    unchanged."""
    return len(_echelon_mod_np(A, p, reduced=False)[1])


def nullspace_mod_np(A: np.ndarray, p: int):
    """Canonical nullspace basis over GF(p), read from the reduced row
    echelon form: one int64 vector per free column, with a 1 there."""
    R, pivots = _echelon_mod_np(A, p, reduced=True)
    cols = A.shape[1]
    pivset = set(pivots)
    basis = []
    for j in range(cols):
        if j in pivset:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[j] = 1
        v[pivots] = -R[:len(pivots), j] % p
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

    def rank(self) -> int:
        return len(self._rref()[1])

    def _rref(self):
        """Reduced row echelon form by one elimination: (rows, pivot columns,
        det).  det is the product of the pivots, with the sign of the row
        swaps, when every row has a pivot, and zero otherwise; for a square
        matrix it is the determinant."""
        F = self.field
        R = [list(r) for r in self.rows]
        pivots = []
        det = F.one()
        for c in range(self.ncols):
            r = len(pivots)
            if r == self.nrows:
                break
            piv = next((i for i in range(r, self.nrows)
                        if not F.is_zero(R[i][c])), None)
            if piv is None:
                continue
            if piv != r:
                R[r], R[piv] = R[piv], R[r]
                det = F.neg(det)
            det = F.mul(det, R[r][c])
            inv = F.inv(R[r][c])
            # entries left of column c are zero in rows r and below
            row = R[r] = R[r][:c] + [F.mul(inv, v) for v in R[r][c:]]
            for i in range(self.nrows):
                f = R[i][c]
                if i != r and not F.is_zero(f):
                    R[i] = R[i][:c] + [F.sub(a, F.mul(f, b))
                                       for a, b in zip(R[i][c:], row[c:])]
            pivots.append(c)
        if len(pivots) < self.nrows:
            det = F.zero()
        return R, pivots, det

    def nullspace(self):
        """Basis of the right kernel; canonical (RREF-derived), re-verified."""
        F = self.field
        R, pivots, _ = self._rref()
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
        return self._rref()[2]
