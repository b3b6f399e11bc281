"""The stacked span chain of the table sweeps against per-space ``span_levels``."""

import itertools

import numpy as np
import pytest

from sidonspace import subspace as subspace_mod
from sidonspace.constructions import admissible_deltas, binomial_images
from sidonspace.experiments import TABLE_CHUNK
from sidonspace.field import find_generator, make_field
from sidonspace.qpoly import graph_bases
from sidonspace.subspace import (
    Subspace,
    multisets,
    random_subspace,
    scale,
    span,
    span_levels,
    stacked_span_dims,
    subfield_space,
)


def _level_dims(V, count):
    return [lv.dim for lv in span_levels(V, count)]


def _counting_rref(monkeypatch):
    calls = []
    real = subspace_mod.batch_rref

    def counting(mats, p):
        calls.append(len(mats))
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
        got += stacked_span_dims(ctx, bases[lo : lo + TABLE_CHUNK], r)
    assert got == [_level_dims(Subspace(ctx, B), r) for B in bases]
    assert {len(dims) for dims in got} == {r}


@pytest.mark.parametrize(
    "p,n,k,members,count,seed",
    [(2, 6, 4, 5, 5, 0), (2, 6, 4, 4, 4, 1), (3, 4, 2, 5, 5, 2), (3, 4, 3, 4, 4, 3), (3, 4, 3, 5, 5, 4)],
)
def test_stacked_dims_equal_span_levels_on_random_spaces(p, n, k, members, count, seed):
    ctx = make_field(p, 1, n)
    rng = np.random.default_rng((p, n, k, seed))
    spaces = [random_subspace(ctx, k, rng) for _ in range(members)]
    got = stacked_span_dims(ctx, np.stack([V.basis for V in spaces]), count)
    assert got == [_level_dims(V, count) for V in spaces]
    assert any(len(dims) < count for dims in got)  # the chains stop early


def test_a_subfield_stops_at_level_1_and_a_scaled_subfield_runs_on(monkeypatch):
    # F_8 in F_64 has F_8 * F_8 = F_8; alpha * F_8 with alpha outside F_8 keeps dim 3 at every
    # level, yet alpha^s F_8 != alpha^(s+1) F_8, so equal dims must not stop its chain
    ctx = make_field(2, 1, 6)
    K = subfield_space(ctx, 3)
    alpha = find_generator(ctx)
    aK = scale(K, alpha)
    levels = span_levels(aK, 5)
    assert [lv.dim for lv in levels] == [3] * 5 and len(set(levels)) == 5
    calls = _counting_rref(monkeypatch)
    assert stacked_span_dims(ctx, np.stack([K.basis, aK.basis, K.basis]), 5) == [
        [3], [3, 3, 3, 3, 3], [3],
    ]
    # level 3 has C(5, 3) = 10 monomials but only 3 * 3 RREF rows times the basis
    assert calls == [1, 1, 1]


@pytest.mark.parametrize("p,n,m,seed", [(3, 4, 2, 0), (2, 6, 3, 1), (2, 6, 2, 2), (5, 4, 2, 3)])
def test_stacked_dims_equal_span_levels_on_scaled_subfields(monkeypatch, p, n, m, seed):
    # random alpha * F_(q^m): the RREF-rows-times-basis branch, and members that stop at level 1
    ctx = make_field(p, 1, n)
    rng = np.random.default_rng(seed)
    K = subfield_space(ctx, m)
    alphas = [ctx.random_element(rng) for _ in range(5)]
    spaces = [scale(K, a) for a in alphas if not a.is_zero()]
    count = 6
    calls = _counting_rref(monkeypatch)
    got = stacked_span_dims(ctx, np.stack([V.basis for V in spaces]), count)
    assert got == [_level_dims(V, count) for V in spaces]
    assert calls


def test_long_chains_switch_to_rref_rows_times_the_basis(monkeypatch):
    # span(1, g, g^2) grows by 2 per level, so from level 9 on its C(s+2, s) monomials outnumber
    # its 3 * d_(s-1) products; the choice is per stack, and the scaled member, growing by 3,
    # keeps the monomials the smaller set until it stops at level 11
    ctx = make_field(2, 1, 30)
    g = find_generator(ctx)
    spaces = [span(ctx, [ctx.one, g, g * g]), scale(span(ctx, [ctx.one, g, g**3]), g**5)]
    calls = _counting_rref(monkeypatch)
    got = stacked_span_dims(ctx, np.stack([V.basis for V in spaces]), 16)
    assert got == [_level_dims(V, 16) for V in spaces]
    assert got[0] == [*range(3, 31, 2), 30] and got[1] == [*range(3, 31, 3)]
    assert calls == [1] * 5  # levels 12 to 16, the first member alone


def test_stacked_dims_refuse_a_non_prime_q():
    ctx = make_field(2, 2, 3)
    V = subfield_space(ctx, 1)
    with pytest.raises(ValueError, match="prime q, got q = 4"):
        stacked_span_dims(ctx, V.basis[None], 2)


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
