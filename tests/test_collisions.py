"""First repeated key among r-multisets, against an all-pairs reference.

``is_r_sidon`` (projective products of points), ``is_br_set`` (sums of
residues) and ``is_scattered`` (f(a)/a on points) each look for the first
r-multiset, in lexicographic order, whose key equals that of an earlier
multiset, and report the earliest multiset it repeats. The reference here
compares every later multiset with every earlier one.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sidonspace.brset import is_br_set
from sidonspace.field import find_generator, make_field
from sidonspace.qpoly import LinearizedPoly, is_scattered
from sidonspace.sidon import first_collision, is_r_sidon, is_sidon_intersection
from sidonspace.subspace import random_subspace, scale, subfield_space

BLOCK = 8192  # a collision counts multisets_checked through its block

# F_2^6, F_3^4 and F_(4^3), as (p, a, n)
FIELDS = [(2, 1, 6), (3, 1, 4), (2, 2, 3)]
# fields small enough to list every power of a generator
LOG_FIELDS = FIELDS + [(2, 1, 7), (2, 1, 8), (3, 1, 5)]


def first_repeat(keys: list) -> tuple[int, int] | None:
    """(s, t) for the first t whose key equals an earlier one, s the earliest such."""
    for t in range(len(keys)):
        s = keys.index(keys[t])  # compares keys[t] with keys[0], keys[1], ... in turn
        if s < t:
            return s, t
    return None


def multisets(N: int, r: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations_with_replacement(range(N), r))


def stepping_logs(ctx, g) -> dict[bytes, int]:
    """{(g^i).tobytes(): i} for 0 <= i < q^n - 1, by repeated multiplication by g."""
    out, cur = {}, ctx.one_vec
    for i in range(ctx.order - 1):
        out[cur.tobytes()] = i
        cur = ctx.mul(cur, g.vec)
    return out


def point_logs(V, g) -> list[int]:
    """The logs to the base g of V's projective points, mod (q^n - 1)/(q - 1)."""
    ctx = V.ctx
    logs = stepping_logs(ctx, g)
    M = (ctx.order - 1) // (ctx.q - 1)
    return [logs[v.tobytes()] % M for v in V.projective_points()]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    N=st.integers(0, 40),
    r=st.integers(1, 3),
    m=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(0, 2**20),
    t=st.integers(0, 2**20),
)
# the repeat is the last of 11,480 multisets: 8,192 of the first block and 3,288 of the second
@example(N=40, r=3, m=0, seed=0, s=8000, t=11479)
def test_first_collision_matches_all_pairs(N, r, m, seed, s, t):
    """m > 0: keys are weighted sums mod m; m = 0: distinct keys but one planted repeat."""
    mss = multisets(N, r)
    if m:
        w = np.random.default_rng(seed).integers(0, 10**6, size=N)
        keys = [int(w[list(ms)].sum()) % m for ms in mss]
    else:
        keys = list(range(len(mss)))
        if len(mss) >= 2:
            t = 1 + (t - 1) % (len(mss) - 1)
            keys[t] = s % t
    rank = {ms: i for i, ms in enumerate(mss)}

    def key_rows(idx):
        assert idx.dtype == np.int64 and idx.shape[1] == r and idx.shape[0] <= BLOCK
        return np.array([keys[rank[tuple(row)]] for row in idx.tolist()], dtype=np.int64)

    pair, checked = first_collision(N, r, key_rows)
    hit = first_repeat(keys)
    if hit is None:
        assert (pair, checked) == (None, len(mss))
    else:
        earlier, later = hit
        assert pair == (mss[earlier], mss[later])
        assert checked == min(len(mss), (later // BLOCK + 1) * BLOCK)


def spaces(field):
    ctx = make_field(*field)
    rng = np.random.default_rng(field)
    out = [random_subspace(ctx, k, rng) for k in (2, 2, 2, 3, 3)]
    # the largest proper subfield, not Sidon once its dimension is 2 or more
    return out + [subfield_space(ctx, ctx.subfield_degrees[-2])]


def _product_key(ctx, pts, ms) -> bytes:
    prod = ctx.one_vec
    for i in ms:
        prod = ctx.mul(prod, pts[i])
    return ctx.proj_canon(prod[None, :])[0].tobytes()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: "F%d^%d^%d" % f)
def test_is_r_sidon_matches_all_pairs(field):
    verdicts = set()
    for V in spaces(field):
        ctx = V.ctx
        pts = V.projective_points()
        for r in (2, 3):
            mss = multisets(pts.shape[0], r)
            hit = first_repeat([_product_key(ctx, pts, ms) for ms in mss])
            rep = is_r_sidon(V, r)
            verdicts.add(rep.verdict)
            assert rep.details["points"] == pts.shape[0]
            if hit is None:
                assert rep.verdict and rep.witness is None
                assert rep.details["multisets_checked"] == len(mss)
                continue
            s, t = hit
            assert not rep.verdict
            assert rep.details["multisets_checked"] == min(len(mss), (t // BLOCK + 1) * BLOCK)
            w = rep.witness
            assert (tuple(w["indices_a"]), tuple(w["indices_b"])) == (mss[s], mss[t])
            assert w["multiset_a"] == [[int(c) for c in pts[i]] for i in mss[s]]
            assert w["multiset_b"] == [[int(c) for c in pts[i]] for i in mss[t]]
            assert np.asarray(w["product"]).tobytes() == _product_key(ctx, pts, mss[s])
    assert verdicts == {True, False}


def _reference_br(elems, r, modulus):
    E = sorted({x % modulus for x in elems} if modulus else set(elems))
    mss = multisets(len(E), r)
    sums = [sum(E[i] for i in ms) % modulus if modulus else sum(E[i] for i in ms) for ms in mss]
    hit = first_repeat(sums)
    if hit is None:
        return True, None
    s, t = hit
    wa, wb = (tuple(E[i] for i in ms) for ms in (mss[s], mss[t]))
    return False, {"sum": sums[t], "multiset_a": wa, "multiset_b": wb}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: "F%d^%d^%d" % f)
def test_is_br_set_of_discrete_logs_matches_all_pairs(field):
    # V is r-Sidon exactly when the logs of its points are a B_r-set mod M
    ctx = make_field(*field)
    g = find_generator(ctx, primitive=True)
    M = (ctx.order - 1) // (ctx.q - 1)
    verdicts = set()
    for V in spaces(field):
        logs = point_logs(V, g)
        for r in (2, 3):
            expected = _reference_br(logs, r, M)
            assert is_br_set(logs, r, modulus=M) == expected
            assert expected[0] == is_r_sidon(V, r).verdict
            verdicts.add(expected[0])
    assert verdicts == {True, False}


def is_br_by_counting(logs, r, M) -> bool:
    """All r-fold sums mod M distinct: as many distinct sums as multisets."""
    sums = {sum(ms) % M for ms in itertools.combinations_with_replacement(logs, r)}
    return len(sums) == math.comb(len(logs) + r - 1, r)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    field=st.sampled_from(LOG_FIELDS),
    k=st.integers(0, 8),
    subfield=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(field=(2, 1, 6), k=0, subfield=True, seed=0)  # F_8 scaled: neither Sidon nor B_2
@example(field=(2, 1, 7), k=1, subfield=False, seed=0)  # a 2-dim space of F_2^7
@example(field=(2, 2, 3), k=1, subfield=False, seed=1)
@example(field=(3, 1, 4), k=2, subfield=False, seed=2)  # 3 of 4 dimensions: not Sidon
def test_r_sidon_exactly_when_the_point_logs_are_a_br_set(field, k, subfield, seed):
    """Roth, Raviv and Tamo: V is r-Sidon iff the logs of its points are a B_r-set
    mod (q^n - 1)/(q - 1). The logs come from stepping through the powers of g."""
    ctx = make_field(*field)
    rng = np.random.default_rng(seed)
    if subfield and len(ctx.subfield_degrees) > 2:
        m = ctx.subfield_degrees[1 + k % (len(ctx.subfield_degrees) - 2)]
        V = scale(subfield_space(ctx, m), find_generator(ctx, seed=seed))
    else:
        V = random_subspace(ctx, 1 + k % min(ctx.n - 1, 4), rng)
    g = find_generator(ctx, primitive=True, seed=seed % 3)
    logs = point_logs(V, g)
    M = (ctx.order - 1) // (ctx.q - 1)
    assert len(set(logs)) == len(logs)
    sidon_2 = is_sidon_intersection(V).verdict
    for r in (2, 3):
        verdict = is_r_sidon(V, r).verdict
        if r == 2:
            assert verdict == sidon_2
        assert is_br_by_counting(logs, r, M) == verdict
        assert is_br_set(logs, r, modulus=M)[0] == verdict


@pytest.mark.parametrize("seed", range(12))
def test_is_br_set_matches_all_pairs(seed):
    rng = np.random.default_rng(seed)
    elems = [int(x) for x in rng.integers(-40, 200, size=int(rng.integers(1, 10)))]
    for r in (1, 2, 3):
        for modulus in (None, 1, 31, 64, 1000):
            assert is_br_set(elems, r, modulus=modulus) == _reference_br(elems, r, modulus)


def _polys(ctx):
    rng = np.random.default_rng(ctx.dim)
    out = []
    for k in ctx.subfield_degrees[1:]:
        out += [LinearizedPoly.monomial(ctx, k, s) for s in range(k)]
        B = ctx.subfield_fp_basis(k)
        for _ in range(3):
            coeffs = rng.integers(0, ctx.p, size=(k, B.shape[0])) @ B % ctx.p
            out.append(LinearizedPoly(ctx, k, coeffs))
    return out


def _reference_scattered(f):
    # f(a)/a == f(b)/b exactly when f(a) b == f(b) a, zero values included
    ctx = f.ctx
    pts = subfield_space(ctx, f.k).projective_points()
    vals = f.evaluate_many(pts)
    for t in range(pts.shape[0]):
        for s in range(t):
            if (ctx.mul(vals[s], pts[t]) == ctx.mul(vals[t], pts[s])).all():
                return False, (pts[s], pts[t])
    return True, None


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: "F%d^%d^%d" % f)
def test_is_scattered_matches_all_pairs(field):
    ctx = make_field(*field)
    verdicts = set()
    for f in _polys(ctx):
        ok, witness = is_scattered(f)
        expected_ok, expected_witness = _reference_scattered(f)
        assert ok == expected_ok
        verdicts.add(ok)
        if ok:
            assert witness is None
        else:
            assert [w.tolist() for w in witness] == [w.tolist() for w in expected_witness]
    assert verdicts == {True, False}
