"""Dense linear algebra over prime fields F_p.

All matrices are numpy int64 arrays with entries reduced mod p. One
kernel, a batched Gauss-Jordan sweep over a (B x m x n) stack, does every
elimination: :func:`rref` and :func:`rank` run it on one matrix,
:class:`SpanBuilder` on its basis stacked with the new rows, and
:func:`batch_rref` (so :func:`batch_rank`) on a whole stack. Its output is
the canonical RREF (unit pivots, zeros above and below each pivot, rows
ordered by pivot column), so two equal row spaces always produce
byte-identical bases.
:func:`square_multiply` is the one square-and-multiply loop: :func:`mat_pow`
runs it with a matrix product mod p, and the field powers
(``FieldCtx.pow_elem``, ``FieldCtx.pow_many``) with field products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """Return an array ``inv`` with ``inv[i] * i == 1 (mod p)`` for 0 < i < p."""
    inv = np.zeros(p, dtype=np.int64)
    for i in range(1, p):
        inv[i] = pow(i, p - 2, p)
    inv.setflags(write=False)
    return inv


def _gauss_jordan(M: np.ndarray, p: int) -> np.ndarray:
    """Bring every matrix of the (B x m x n) stack ``M`` to RREF, in place.

    Entries must already lie in [0, p). Step i pivots every matrix that
    still has a nonzero entry in rows i.. on the first such column: that
    row is swapped into row i, scaled to a unit pivot and the column is
    cleared in every other row. A matrix drops out once rows i.. are zero,
    so the loop runs max-rank times.

    Returns:
        Length-B int64 array of ranks.
    """
    B, m, n = M.shape
    inv = inverse_table(p)
    ranks = np.full(B, min(m, n), dtype=np.int64)
    live = k = np.arange(B)
    S = M
    for i in range(min(m, n)):
        nz = S[:, i:] != 0
        cols = nz.any(axis=1)
        has = cols.any(axis=1)
        if not has.all():
            ranks[live[~has]] = i
            M[live[~has]] = S[~has]
            live, S, nz, cols = live[has], S[has], nz[has], cols[has]
            k = k[: live.size]
            if not live.size:
                break
        c = cols.argmax(axis=1)
        r = i + nz[k, :, c].argmax(axis=1)
        prow = S[k, r]
        prow = prow * inv[prow[k, c]][:, None] % p
        S[k, r] = S[k, i]
        S[k, i] = prow
        f = S[k, :, c]
        f[:, i] = 0
        S -= f[:, :, None] * prow[:, None, :]
        S -= S // p * p  # = S % p; numpy divides by a scalar 4-5x faster than it takes a remainder
    if S is not M:
        M[live] = S
    return ranks


class SpanBuilder:
    """Accumulator of a row space over F_p in canonical RREF.

    Args:
        p: Field characteristic (prime).
        ncols: Length of the row vectors.

    The accumulated basis is reachable through :attr:`basis` (a read-only
    (rank x ncols) array in canonical reduced echelon form) and
    :attr:`pivots` (sorted pivot column indices, one per basis row).
    """

    __slots__ = ("p", "_basis", "_pivots")

    def __init__(self, p: int, ncols: int):
        self.p = p
        self._basis = np.zeros((0, ncols), dtype=np.int64)
        self._basis.setflags(write=False)
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> list[int]:
        return list(self._pivots)

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    def reduce(self, rows: np.ndarray) -> np.ndarray:
        """Reduce a batch of rows against the current basis.

        Args:
            rows: (..., ncols) array of any leading shape; not modified.

        Returns:
            Residuals of the same shape. A residual is zero exactly when
            the corresponding row lies in the accumulated span.
        """
        rows = np.asarray(rows) % self.p
        if not self._pivots:
            return rows
        return (rows - rows[..., self._pivots] @ self._basis) % self.p

    def contains(self, rows: np.ndarray) -> bool:
        return not self.reduce(rows).any()

    def insert_many(self, rows: np.ndarray) -> int:
        """Insert a batch of (m x ncols) rows; returns the number of rank increases."""
        before = self.rank
        R, self._pivots = rref(np.vstack([self._basis, np.atleast_2d(rows)]), self.p)
        R.setflags(write=False)
        self._basis = R
        return self.rank - before


def rref(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``A`` over F_p.

    Returns:
        (R, pivots): canonical RREF basis of the row space and its pivot
        column indices.
    """
    M, ranks = batch_rref(np.atleast_2d(A)[None], p)
    R = M[0, : ranks[0]]
    return R, (R != 0).argmax(axis=1).tolist() if R.size else []


def rank(A: np.ndarray, p: int) -> int:
    return len(rref(A, p)[1])


def right_nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {x : A @ x == 0 (mod p)}.

    Returns:
        (nullity x ncols) array; rows are canonical (each has a 1 in "its"
        free column and zeros in the other free columns).
    """
    R, pivots = rref(A, p)
    n = R.shape[1]
    free = np.setdiff1d(np.arange(n), pivots)
    out = np.zeros((free.size, n), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, pivots] = -R[:, free].T % p
    return out


def left_nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {z : z @ A == 0 (mod p)}."""
    return right_nullspace(np.atleast_2d(A).T, p)


def batch_rref(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical RREF (zero rows past the rank) and the rank of each matrix of a (B x m x n) stack."""
    M = np.array(mats, dtype=np.int64) % p
    return M, _gauss_jordan(M, p)


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a (B x m x n) stack of matrices over F_p; ``mats`` is not modified."""
    return batch_rref(mats, p)[1]


def square_multiply(one, base, e: int, mul):
    """base^e under the product ``mul``, from ``one``; e a nonnegative Python int.

    One product per set bit of e and one squaring per bit below the top one.
    """
    assert e >= 0
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def mat_pow(A: np.ndarray, e: int, p: int) -> np.ndarray:
    """A^e over F_p; A is square."""
    base = np.asarray(A, dtype=np.int64) % p
    return square_multiply(np.eye(A.shape[0], dtype=np.int64), base, e, lambda X, Y: X @ Y % p)

