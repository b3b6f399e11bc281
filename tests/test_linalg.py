import itertools

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from oracles import gaussian_binomial
from sidonspace.linalg import (
    SpanBuilder,
    batch_rank,
    inverse_table,
    left_nullspace,
    mat_pow,
    rank,
    rref,
    right_nullspace,
)


def test_inverse_table():
    for p in (2, 3, 5, 7, 13):
        t = inverse_table(p)
        for i in range(1, p):
            assert (i * int(t[i])) % p == 1


def _span_size(A, p):
    # brute force: count distinct vectors in the row space
    rows = A.shape[0]
    seen = set()
    for combo in itertools.product(range(p), repeat=rows):
        v = (np.asarray(combo, dtype=np.int64) @ A) % p
        seen.add(v.tobytes())
    return len(seen)


def test_rank_matches_row_space_size():
    rng = np.random.default_rng(0)
    for p in (2, 3):
        for _ in range(15):
            A = rng.integers(0, p, (4, 5), dtype=np.int64)
            r = rank(A, p)
            assert p ** r == _span_size(A, p)


def test_rref_is_canonical_under_row_operations():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = rng.integers(0, 5, (4, 6), dtype=np.int64)
        R, piv = rref(A, 5)
        perm = rng.permutation(4)
        scales = rng.integers(1, 5, 4, dtype=np.int64)
        B = (A[perm] * scales[:, None]) % 5
        R2, piv2 = rref(B, 5)
        assert (R == R2).all()
        assert piv == piv2
        assert piv == sorted(piv)
        # pivot columns are unit columns
        for i, c in enumerate(piv):
            col = R[: len(piv), c]
            want = np.zeros(len(piv), dtype=np.int64)
            want[i] = 1
            assert (col == want).all()


def test_span_builder_tracks_rank_and_membership():
    rng = np.random.default_rng(2)
    A = rng.integers(0, 3, (6, 5), dtype=np.int64)
    sb = SpanBuilder(3, 5)
    inserted = 0
    for row in A:
        inserted += sb.insert_many(row[None, :])
    assert sb.rank == rank(A, 3)
    assert inserted == sb.rank
    for row in A:
        assert sb.contains(row[None, :])
    assert not sb.reduce(A).any()
    R, piv = rref(A, 3)
    assert (sb.basis == R[: sb.rank]).all()
    assert sb.pivots == piv


def test_span_builder_insert_many():
    rng = np.random.default_rng(3)
    A = rng.integers(0, 2, (8, 6), dtype=np.int64)
    sb = SpanBuilder(2, 6)
    got = sb.insert_many(A)
    assert got == rank(A, 2)


def test_right_nullspace():
    rng = np.random.default_rng(4)
    for p in (2, 3, 7):
        A = rng.integers(0, p, (3, 6), dtype=np.int64)
        N = right_nullspace(A, p)
        assert not ((A @ N.T) % p).any()
        assert rank(N, p) == N.shape[0]
        assert N.shape[0] == 6 - rank(A, p)


def test_left_nullspace():
    rng = np.random.default_rng(5)
    A = rng.integers(0, 3, (5, 3), dtype=np.int64)
    N = left_nullspace(A, 3)
    assert not ((N @ A) % 3).any()
    assert N.shape[0] == 5 - rank(A, 3)


def test_batch_rank_agrees_with_rank():
    rng = np.random.default_rng(6)
    mats = rng.integers(0, 3, (10, 4, 5), dtype=np.int64)
    br = batch_rank(mats, 3)
    assert br.tolist() == [rank(m, 3) for m in mats]


def _sympy_rref(A, p):
    M = DomainMatrix.from_list(A.tolist(), GF(p)) if len(A) else DomainMatrix.zeros(A.shape, GF(p))
    R, piv = M.rref()
    # sympy may hold GF(p) entries as symmetric representatives
    rows = [[int(x) % p for x in row] for row in R.to_list()[: len(piv)]]
    return np.array(rows, dtype=np.int64).reshape(len(piv), A.shape[1]), list(piv), M.rank()


def _mixed_rank_stack(rng, p, count, m, n):
    """Matrices X @ Y of every rank up to min(m, n), the zero matrix first."""
    out = np.zeros((count, m, n), dtype=np.int64)
    for b in range(1, count):
        r = b % (min(m, n) + 1)
        out[b] = rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n)) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_and_batch_rank_match_sympy(p):
    rng = np.random.default_rng(p)
    for m, n in ((4, 6), (6, 4), (5, 5), (0, 4)):
        mats = _mixed_rank_stack(rng, p, 12, m, n)
        want = [_sympy_rref(A, p) for A in mats]
        assert batch_rank(mats, p).tolist() == [w[2] for w in want]
        for A, (R0, piv0, r0) in zip(mats, want):
            R, piv = rref(A, p)
            assert R.tolist() == R0.tolist() and piv == piv0 and rank(A, p) == r0
    assert batch_rank(np.zeros((0, 3, 4), dtype=np.int64), p).shape == (0,)


@pytest.mark.parametrize("e", [0, 1, 2, 7, 64])
def test_mat_pow_matches_repeated_multiplication(e):
    A = np.random.default_rng(5).integers(0, 7, (5, 5))
    want = np.eye(5, dtype=np.int64)
    for _ in range(e):
        want = want @ A % 7
    assert mat_pow(A, e, 7).tolist() == want.tolist()


def test_span_builder_basis_is_read_only():
    sb = SpanBuilder(5, 4)
    sb.insert_many(np.array([[1, 2, 3, 4], [0, 1, 1, 0]]))
    with pytest.raises(ValueError):
        sb.basis[0, 0] = 2


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 1, 2) == 31
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 3, 5) == 1
    assert gaussian_binomial(2, 3, 5) == 0


def test_gaussian_binomial_identities():
    for q in (2, 3, 4):
        for n in range(1, 8):
            for k in range(0, n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
                if 0 < k:
                    lhs = gaussian_binomial(n, k, q)
                    rhs = q ** k * gaussian_binomial(n - 1, k, q) + gaussian_binomial(
                        n - 1, k - 1, q
                    )
                    assert lhs == rhs
