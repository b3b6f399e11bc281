"""The span chain ``span_levels`` against the per-space product chain of ``oracles``.

Every case compares the canonical rows of every level, not only the dims.
"""

import itertools

import numpy as np
import pytest

from oracles import span_levels_by_products
from sidonspace import subspace as subspace_mod
from sidonspace.constructions import admissible_deltas, binomial_images
from sidonspace.experiments import TABLE_CHUNK
from sidonspace.field import find_generator, make_field
from sidonspace.linalg import SpanBuilder, batch_rref
from sidonspace.qpoly import graph_bases
from sidonspace.subspace import (
    Subspace,
    multisets,
    random_subspace,
    scale,
    span,
    span_chain,
    span_levels,
    subfield_space,
)


def _stack(spaces):
    """The canonical bases of ``spaces`` as one stack, zero rows past each rank."""
    R = np.zeros((len(spaces), max(V.basis.shape[0] for V in spaces), spaces[0].ctx.dim), dtype=np.int64)
    for M, V in zip(R, spaces):
        M[: V.basis.shape[0]] = V.basis
    return R


def _rows(levels):
    return [rows.tolist() for rows in levels]


def _reference(V, count):
    return [W.basis.tolist() for W in span_levels_by_products(V, count)]


def _chain_equals_reference(spaces, count):
    got = span_levels(spaces[0].ctx, _stack(spaces), count)
    assert [_rows(lv) for lv in got] == [_reference(V, count) for V in spaces]
    return got


def _counting_rref(monkeypatch):
    """Record (members, generator rows) of every ``batch_rref`` call of the chain."""
    calls = []
    real = subspace_mod.batch_rref

    def counting(mats, p):
        calls.append(np.shape(mats)[:2])
        return real(mats, p)

    monkeypatch.setattr(subspace_mod, "batch_rref", counting)
    return calls


@pytest.mark.parametrize(
    "q,r,n,k,variant",
    [(2, 3, 25, 5, "mid"), (3, 3, 36, 4, "end"), (3, 4, 24, 4, "end"), (3, 5, 28, 4, "end")],
    ids=["table2-3-25-5", "table3-3-36-4", "table3-4-24-4", "table3-5-28-4"],
)
def test_stacked_dims_equal_span_levels_on_every_delta_of_a_table_row(q, r, n, k, variant):
    # the table's own stacks: G0 + delta G1 for TABLE_CHUNK deltas at a time, gamma at seed 0
    ctx = make_field(q, 1, n)
    gamma = find_generator(ctx, over_m=k, seed=0)
    Fs, Fe = binomial_images(ctx, k, 1, variant)
    G0, G1 = graph_bases(ctx, k, Fs, gamma.vec), ctx.mul_many(Fe, gamma.vec)
    deltas = ctx.subfield_elements(k)
    deltas = deltas[admissible_deltas(ctx, deltas, k, variant)]
    bases = (G0 + ctx.mul_many(deltas[:, None], G1)) % ctx.p
    got = []
    for lo in range(0, len(bases), TABLE_CHUNK):
        got += span_levels(ctx, batch_rref(bases[lo : lo + TABLE_CHUNK], ctx.p)[0], r)
    assert [_rows(lv) for lv in got] == [_reference(Subspace(ctx, B), r) for B in bases]
    assert {len(lv) for lv in got} == {r}


@pytest.mark.parametrize(
    "p,n,k,members,count,seed",
    [(2, 6, 4, 5, 5, 0), (2, 6, 4, 4, 4, 1), (3, 4, 2, 5, 5, 2), (3, 4, 3, 4, 4, 3), (3, 4, 3, 5, 5, 4)],
)
def test_stacked_dims_equal_span_levels_on_random_spaces(p, n, k, members, count, seed):
    ctx = make_field(p, 1, n)
    rng = np.random.default_rng((p, n, k, seed))
    got = _chain_equals_reference([random_subspace(ctx, k, rng) for _ in range(members)], count)
    assert any(len(lv) < count for lv in got)  # the chains stop early


@pytest.mark.parametrize("p,a,n,k,seed", [(2, 2, 3, 2, 0), (2, 2, 5, 2, 1), (3, 2, 2, 1, 2), (2, 2, 5, 3, 3)])
def test_span_levels_over_a_non_prime_q(p, a, n, k, seed):
    # F_(4^3), F_(4^5) and F_(9^2): the a*k rows are an F_p-basis of an F_q-closed space
    ctx = make_field(p, a, n)
    rng = np.random.default_rng(seed)
    spaces = [random_subspace(ctx, k, rng) for _ in range(4)]
    spaces += [subfield_space(ctx, 1), span(ctx, [ctx.one, ctx.random_element(rng)])]
    _chain_equals_reference(spaces, n + 1)


def test_the_zero_space_stops_at_level_1():
    ctx = make_field(2, 1, 6)
    Z, V = span(ctx, []), random_subspace(ctx, 2, np.random.default_rng(0))
    assert [_rows(lv) for lv in span_levels(ctx, Z.basis[None], 4)] == [[[]]]
    got = _chain_equals_reference([V, Z, V], 4)
    assert [len(lv) for lv in got] == [len(got[0]), 1, len(got[0])]


def test_a_subfield_stops_at_level_1_and_a_scaled_subfield_runs_on(monkeypatch):
    # F_8 in F_64 has F_8 * F_8 = F_8; alpha * F_8 with alpha outside F_8 keeps dim 3 at every
    # level, yet alpha^s F_8 != alpha^(s+1) F_8, so equal dims must not stop its chain
    ctx = make_field(2, 1, 6)
    K = subfield_space(ctx, 3)
    aK = scale(K, find_generator(ctx))
    calls = _counting_rref(monkeypatch)
    got = _chain_equals_reference([K, aK, K], 5)
    assert [len(lv) for lv in got] == [1, 5, 1] and len({bytes(np.ascontiguousarray(x)) for x in got[1]}) == 5
    # one elimination per level; level 2 has C(4, 2) = 6 monomials, levels 3 to 5 the
    # 3 * 3 level rows times the basis (C(5, 3) = 10 monomials)
    assert calls == [(3, 6), (1, 9), (1, 9), (1, 9)]


@pytest.mark.parametrize("p,n,m,seed", [(3, 4, 2, 0), (2, 6, 3, 1), (2, 6, 2, 2), (5, 4, 2, 3)])
def test_stacked_dims_equal_span_levels_on_scaled_subfields(monkeypatch, p, n, m, seed):
    # random alpha * F_(q^m): the level-rows-times-basis branch, and members that stop at level 1
    ctx = make_field(p, 1, n)
    rng = np.random.default_rng(seed)
    K = subfield_space(ctx, m)
    alphas = [ctx.random_element(rng) for _ in range(5)]
    calls = _counting_rref(monkeypatch)
    _chain_equals_reference([scale(K, a) for a in alphas if not a.is_zero()], 6)
    assert calls


def test_long_chains_switch_to_rref_rows_times_the_basis(monkeypatch):
    # span(1, g, g^2) grows by 2 per level, so from level 9 on its C(s+2, s) monomials outnumber
    # its 3 * d_(s-1) products; the choice is per stack, and the scaled member, growing by 3,
    # keeps the monomials the smaller set until it stops at level 11
    ctx = make_field(2, 1, 30)
    g = find_generator(ctx)
    spaces = [span(ctx, [ctx.one, g, g * g]), scale(span(ctx, [ctx.one, g, g**3]), g**5)]
    calls = _counting_rref(monkeypatch)
    got = _chain_equals_reference(spaces, 16)
    dims = [[len(rows) for rows in lv] for lv in got]
    assert dims[0] == [*range(3, 31, 2), 30] and dims[1] == [*range(3, 31, 3)]
    monomials = [(2, (s + 2) * (s + 1) // 2) for s in range(2, 12)]
    assert calls == monomials + [(1, 3 * d) for d in dims[0][10:15]]  # levels 12 to 16, alone


def test_each_level_is_one_elimination_of_its_live_members(monkeypatch):
    ctx = make_field(2, 1, 6)
    rng = np.random.default_rng(5)
    spaces = [random_subspace(ctx, k, rng) for k in (1, 2, 2, 3, 4)] + [subfield_space(ctx, 2)]
    calls = _counting_rref(monkeypatch)
    ranks = []
    monkeypatch.setattr(subspace_mod, "batch_rank", lambda mats, p: ranks.append(len(mats)))
    count = 6
    got = _chain_equals_reference(spaces, count)
    live = [sum(s <= min(len(lv) + 1, count) for lv in got) for s in range(2, count + 1)]
    assert [members for members, _ in calls] == [n for n in live if n]
    assert not ranks


def test_span_chain_adopts_its_levels_without_another_elimination(monkeypatch):
    ctx = make_field(2, 1, 9)
    V = random_subspace(ctx, 3, np.random.default_rng(7))
    inserts = []
    real = SpanBuilder.insert_many

    def counting(self, rows):
        inserts.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(SpanBuilder, "insert_many", counting)
    calls = _counting_rref(monkeypatch)
    chain = span_chain(V)
    assert not inserts
    assert chain.levels == tuple(span_levels_by_products(V, ctx.n + 1))
    assert [members for members, _ in calls] == [1] * len(chain.levels)  # levels 2 to t_bar + 1


@pytest.mark.parametrize("N,r", [(4, 1), (3, 3), (5, 2), (1, 4), (0, 2)])
def test_multisets_is_one_read_only_lexicographic_table(N, r):
    table = multisets(N, r)
    assert table.dtype == np.int64 and table.shape[1] == r
    assert [tuple(row) for row in table.tolist()] == list(
        itertools.combinations_with_replacement(range(N), r)
    )
    assert multisets(N, r) is table
    with pytest.raises(ValueError):
        table[...] = 0
