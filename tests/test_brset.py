"""Integer B_r sets: checking, extraction from subspaces, discrete logs."""

import pytest

from sidonspace.brset import BrSet, extract_brset, is_br_set
from sidonspace.constructions import trace_space
from sidonspace.errors import BudgetError
from sidonspace.field import find_generator, make_field
from sidonspace.qpoly import LinearizedPoly, v_f_gamma
from sidonspace.subspace import Subspace, scale

TRACE39_ELEMENTS = (0, 166, 177, 757, 799, 1212, 2271, 3144, 3196, 6542, 6813, 9630, 9827)


def test_is_br_set_basics():
    assert is_br_set([0, 1, 3], 2) == (True, None)
    ok, w = is_br_set([0, 1, 2, 3], 2)
    assert not ok
    assert w == {"sum": 2, "multiset_a": (0, 2), "multiset_b": (1, 1)}
    assert sum(w["multiset_a"]) == sum(w["multiset_b"]) == w["sum"]


def test_is_br_set_modular():
    assert is_br_set([0, 1, 3], 2, modulus=7) == (True, None)
    ok, w = is_br_set([0, 1, 3], 2, modulus=6)
    assert not ok
    assert w == {"sum": 0, "multiset_a": (0, 0), "multiset_b": (3, 3)}


def test_is_br_set_higher_order_and_dedupe():
    assert is_br_set([0, 1, 4, 16], 3) == (True, None)
    # duplicates and order are irrelevant
    assert is_br_set([3, 1, 0, 1], 2) == (True, None)
    # B_3 holds but B_4 need not: 0+1+16+16 = 4+4+4+21? no 21; check directly
    ok4, w4 = is_br_set([0, 1, 4, 16], 4)
    if not ok4:
        assert sum(w4["multiset_a"]) == sum(w4["multiset_b"])


def test_is_br_set_validation():
    with pytest.raises(ValueError):
        is_br_set([0, 1], 0)
    with pytest.raises(ValueError):
        is_br_set([0, 1], 2, modulus=0)
    with pytest.raises(ValueError):
        is_br_set([0, 2**62], 2)
    with pytest.raises(BudgetError) as ei:
        is_br_set(range(100), 3, budget=10)
    assert ei.value.required == 171700  # C(102, 3)


def test_modulus_beyond_every_sum_gives_the_integer_verdict():
    # every sum stays below r * max(S) < 2^62, so a modulus beyond int64 leaves them as they are
    for modulus in (2**62, 2**70):
        assert is_br_set([0, 1, 3], 2, modulus=modulus) == (True, None)
        assert is_br_set([0, 1, 2, 3], 2, modulus=modulus) == is_br_set([0, 1, 2, 3], 2)


def test_large_negative_elements_are_refused_not_wrapped():
    # 3 * (1 - 2^63) wraps in int64 onto (1 - 2^63) + 1 + 1, a false collision
    with pytest.raises(ValueError, match="too large"):
        is_br_set([1 - 2**63, 1], 3)
    with pytest.raises(ValueError, match="too large"):
        is_br_set([-(2**70), 0], 2)
    assert is_br_set([-(2**60), 1], 3) == (True, None)


def test_extract_from_the_zero_space_is_refused():
    ctx = make_field(2, 1, 9)
    gamma = find_generator(ctx, primitive=True)
    with pytest.raises(ValueError, match="zero space"):
        extract_brset(Subspace(ctx, []), 2, gamma)


def test_brset_round_trip_and_defaults():
    bs = BrSet(elements=(0, 1, 3), modulus=7, r=2, verified=True)
    assert bs.size == 3
    d = bs.to_dict()
    assert d == {"elements": [0, 1, 3], "modulus": 7, "r": 2, "verified": True}
    again = BrSet.from_dict(d)
    assert again == bs
    bare = BrSet.from_dict({"elements": [0, 1, 3], "r": 2})
    assert bare.modulus is None and bare.verified is False


def test_extract_from_trace_space_f3_9():
    rec = trace_space(3, 3, 3)
    V = rec.space
    gamma = find_generator(V.ctx, primitive=True)
    bs = extract_brset(V, 2, gamma)
    assert bs.size == 13
    assert bs.modulus == 9841  # (3^9 - 1) / (3 - 1)
    assert bs.r == 2 and bs.verified
    assert bs.elements == TRACE39_ELEMENTS
    assert is_br_set(bs.elements, 2, modulus=bs.modulus) == (True, None)


def test_extraction_is_scale_invariant():
    rec = trace_space(3, 3, 3)
    V = rec.space
    gamma = find_generator(V.ctx, primitive=True)
    bs = extract_brset(scale(V, gamma**2), 2, gamma)
    assert bs.elements == TRACE39_ELEMENTS


def test_translate_flag():
    rec = trace_space(3, 3, 3)
    V = rec.space
    gamma = find_generator(V.ctx, primitive=True)
    W = scale(V, gamma)
    raw = extract_brset(W, 2, gamma, translate=False)
    norm = extract_brset(W, 2, gamma)
    lo = min(raw.elements)
    assert norm.elements == tuple(sorted(e - lo for e in raw.elements))


def test_extract_rejects_non_sidon_space():
    rec = trace_space(2, 4, 2)
    V = rec.space
    gamma = find_generator(V.ctx, primitive=True)
    with pytest.raises(ValueError):
        extract_brset(V, 2, gamma)
    with pytest.raises(ValueError):
        extract_brset(V, 2, gamma, assume_r_sidon=True)  # verify still catches it
    bs = extract_brset(V, 2, gamma, assume_r_sidon=True, verify=False)
    assert bs.size == 15 and bs.modulus == 255 and bs.verified is False
    assert is_br_set(bs.elements, 2, modulus=255)[0] is False


def test_square_graph_logs_in_f2_6_are_not_b2():
    ctx = make_field(2, 1, 6)
    gamma = find_generator(ctx, over_m=3, primitive=True)
    f = LinearizedPoly.monomial(ctx, 3, 1)
    V = v_f_gamma(f, gamma)
    with pytest.raises(ValueError):
        extract_brset(V, 2, gamma)
    bs = extract_brset(V, 2, gamma, assume_r_sidon=True, verify=False)
    assert sorted(bs.elements) == [0, 2, 16, 17, 24, 41, 46]
    assert bs.modulus == 63
    ok, w = is_br_set(bs.elements, 2, modulus=63)
    assert ok is False
    assert w == {"sum": 41, "multiset_a": (0, 41), "multiset_b": (17, 24)}


def test_extract_gamma_validation():
    rec = trace_space(3, 3, 3)
    V = rec.space
    gamma = find_generator(V.ctx, primitive=True)
    with pytest.raises(ValueError):
        extract_brset(V, 2, gamma**2)  # not primitive: even order
    other = make_field(3, 1, 9, seed=7)
    with pytest.raises(ValueError):
        extract_brset(V, 2, find_generator(other, primitive=True))
    with pytest.raises(ValueError):
        extract_brset(V, 2, V.ctx.zero)
