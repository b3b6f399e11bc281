import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

from sidonspace.brset import is_br_set
from sidonspace.errors import BudgetError, ConstructionError
from sidonspace.field import (
    DiscreteLogTable,
    MAX_DIM,
    FieldCtx,
    FieldElement,
    field_from_spec,
    find_generator,
    make_field,
    minimal_polynomial,
    norm,
    prime_ctx,
    subfield_embedding,
)
from sidonspace.numtheory import MAX_P, divisors, factorint, isprime, mobius
from sidonspace.orbit import semilinear_equivalent
from sidonspace.qpoly import LinearizedPoly, v_f_gamma
from sidonspace.sidon import is_r_sidon
from sidonspace.subspace import projective_point_count

ROOT = Path(__file__).resolve().parent.parent


def test_characteristic_bound():
    with pytest.raises(ValueError, match="below 65536"):
        make_field(65537)
    with pytest.raises(ValueError, match="below 65536"):
        FieldCtx(65537, 1, 1, np.array([0, 1]))
    assert make_field(65521).p == 65521


def test_dimension_bound_is_checked_before_anything_is_built():
    with pytest.raises(ValueError, match=f"at most {MAX_DIM}, got {MAX_DIM + 1}"):
        make_field(2, 1, MAX_DIM + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_DIM}"):
        make_field(3, 3, MAX_DIM // 3 + 1)
    # q = p^a would have 2^70 bits: the bound must come first
    with pytest.raises(ValueError, match=f"at most {MAX_DIM}"):
        make_field(2, 2**70, 1, modulus=[1, 1])
    with pytest.raises(ValueError, match=f"at most {MAX_DIM}"):
        FieldCtx(2, 2**70, 1, np.array([1, 1]))
    assert MAX_DIM >= 61  # F_7^61, the largest field the experiments build


def test_prime_field_arithmetic():
    ctx = prime_ctx(7)
    a = ctx.element(3)
    b = ctx.element(5)
    assert (a * b).coeffs == [1]
    assert (a + b).coeffs == [1]
    assert (a - b).coeffs == [5]
    assert a.inverse().coeffs == [5]
    assert ctx.element(10).coeffs == [3]


def test_extension_field_basic_shape():
    ctx = make_field(2, 1, 6)
    assert ctx.q == 2
    assert ctx.n == 6
    assert ctx.dim == 6
    assert ctx.order == 64
    assert sorted(ctx.subfield_degrees) == [1, 2, 3, 6]


def test_mul_matches_sympy_polynomial_arithmetic():
    ctx = make_field(2, 1, 6)
    spec = ctx.to_spec()
    x = sympy.symbols("x")
    mod = sympy.Poly(list(reversed(spec["modulus"])), x, modulus=2)
    rng = np.random.default_rng(7)
    for _ in range(25):
        u = rng.integers(0, 2, 6, dtype=np.int64)
        v = rng.integers(0, 2, 6, dtype=np.int64)
        w = ctx.mul(u, v)
        pu = sympy.Poly(list(reversed(u.tolist())), x, modulus=2)
        pv = sympy.Poly(list(reversed(v.tolist())), x, modulus=2)
        prod = (pu * pv) % mod
        got = [c % 2 for c in reversed(prod.all_coeffs())]
        got = got + [0] * (6 - len(got))
        assert got == w.tolist()


def test_inverse_and_power():
    ctx = make_field(3, 1, 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = ctx.random_element(rng)
        if a.is_zero():
            continue
        assert (a * a.inverse()) == ctx.one
        assert a ** 80 == ctx.one
        assert a ** 81 == a


def test_pow_elem_squares_only_up_to_the_top_bit(monkeypatch):
    ctx = make_field(3, 1, 16)
    calls = []
    mul = FieldCtx.mul

    def counting_mul(self, u, v):
        calls.append(1)
        return mul(self, u, v)

    monkeypatch.setattr(FieldCtx, "mul", counting_mul)
    u = ctx.element([0, 1]).vec
    for e in (1, 2, 5, (3**16 - 1) // 2):
        calls.clear()
        ctx.pow_elem(u, e)
        # one product per set bit, one squaring per bit below the top one
        assert len(calls) == bin(e).count("1") + e.bit_length() - 1
    assert len(calls) == 34
    monkeypatch.undo()
    a = ctx.element([2, 1, 1])
    prod = ctx.one
    for e in range(1, 12):
        prod = prod * a
        assert a**e == prod


@pytest.mark.parametrize("p,a,n", [(3, 1, 4), (2, 2, 3)])
def test_powers_match_repeated_multiplication(p, a, n):
    ctx = make_field(p, a, n)
    U = np.random.default_rng(3).integers(0, p, (6, ctx.dim))
    U[0] = 0
    for e in (0, 1, 2, 7, 64, ctx.order - 2):
        want = np.tile(ctx.one_vec, (U.shape[0], 1))
        for _ in range(e):
            want = ctx.mul_many(want, U)
        assert ctx.pow_many(U, e).tolist() == want.tolist()
        assert [ctx.pow_elem(u, e).tolist() for u in U] == want.tolist()
    u = U[1]
    assert u.any()
    want = ctx.one_vec
    for _ in range(3):
        want = ctx.mul(want, ctx.inv(u))
    assert ctx.pow_elem(u, -3).tolist() == want.tolist()
    assert ctx.mul(ctx.pow_elem(u, -3), ctx.pow_elem(u, 3)).tolist() == ctx.one_vec.tolist()


@pytest.mark.parametrize("p,a,n", [(2, 1, 9), (3, 1, 5), (2, 2, 3)])
def test_mul_many_broadcasts_like_pairwise_mul(p, a, n):
    ctx = make_field(p, a, n)
    rng = np.random.default_rng(p * a * n)
    U, W = rng.integers(0, p, (5, ctx.dim)), rng.integers(0, p, (4, ctx.dim))
    u = W[0]

    def mul(x, y):
        return ctx.mul(x, y).tolist()

    assert ctx.mul_many(U, u).tolist() == [mul(x, u) for x in U]  # (N, d) x (d,)
    assert ctx.mul_many(u, U).tolist() == [mul(u, x) for x in U]  # (d,) x (N, d)
    assert ctx.mul_many(U[:, None], W).tolist() == [[mul(x, y) for y in W] for x in U]
    assert ctx.mul_many(U[:4], W).tolist() == [mul(x, y) for x, y in zip(U, W)]
    assert ctx.mul_many(u, U[1]).tolist() == mul(u, U[1])  # two elements give one
    assert ctx.mul_many(U[:0], u).shape == (0, ctx.dim)
    assert ctx.mul_many(U[:0], W[:0]).shape == (0, ctx.dim)
    assert ctx.mul_many(U[:0, None], W).shape == (0, 4, ctx.dim)


def test_reducible_modulus_is_rejected():
    with pytest.raises(ConstructionError, match="reducible"):
        FieldCtx(2, 1, 4, np.array([1, 0, 0, 0, 1]))  # x^4 + 1 = (x + 1)^4
    with pytest.raises(ConstructionError, match="reducible"):
        make_field(3, 1, 2, modulus=[2, 0, 1])  # x^2 - 1


MODULUS_BUILDERS = {
    "make_field": lambda p, n, mod: make_field(p, 1, n, modulus=mod),
    "FieldCtx": lambda p, n, mod: FieldCtx(p, 1, n, mod),
}


@pytest.mark.parametrize("build", MODULUS_BUILDERS.values(), ids=MODULUS_BUILDERS)
@pytest.mark.parametrize(
    "p,n,mod",
    [
        (2, 3, [1, 1.5, 0, 1]),
        (3, 2, [1.9, 0.2, 1.7]),
        (2, 3, [1, True, 0, 1]),
        (2, 3, np.array([1.0, 1.0, 0.0, 1.0])),
        (2, 3, np.array([True, True, False, True])),
    ],
    ids=["float", "floats", "bool", "float-array", "bool-array"],
)
def test_modulus_refuses_floats_and_bools(build, p, n, mod):
    with pytest.raises(ValueError, match="must be integers"):
        build(p, n, mod)


@pytest.mark.parametrize("build", MODULUS_BUILDERS.values(), ids=MODULUS_BUILDERS)
@pytest.mark.parametrize(
    "mod",
    [[1, 1, 0, 1], [3, -1, 2, 1 + 2**70], np.array([5, 3, 4, 7]), np.array([1, 1, 0, 1], dtype=np.uint8)],
    ids=["ints", "big-ints", "int64-array", "uint8-array"],
)
def test_modulus_integers_are_read_mod_p(build, mod):
    assert build(2, 3, mod).modulus.tolist() == [1, 1, 0, 1]


@pytest.mark.parametrize("build", MODULUS_BUILDERS.values(), ids=MODULUS_BUILDERS)
@pytest.mark.parametrize("mod", [5, [1, 1, 1], [[1, 1, 0, 1]]], ids=["scalar", "short", "nested"])
def test_modulus_of_the_wrong_shape_is_a_construction_error(build, mod):
    with pytest.raises(ConstructionError, match="modulus must have degree 3"):
        build(2, 3, mod)


def test_modulus_cache_key_is_the_reduced_modulus():
    assert make_field(2, 1, 3, modulus=[3, -1, 2, 1 + 2**70]) is make_field(2, 1, 3, modulus=[1, 1, 0, 1])


def test_oversized_combinations_raise_budget_error():
    ctx = make_field(2, 1, 23)
    with pytest.raises(BudgetError) as err:
        ctx.combinations(np.eye(23, dtype=np.int64))
    assert err.value.required == 2**23


# each reads its subfield degree through FieldCtx.subfield_degree, so a bad one is named
SUBFIELD_DEGREE_READERS = {
    "in_subfield": ("m", lambda ctx, m: ctx.in_subfield(ctx.one_vec, m)),
    "subfield_elements": ("m", lambda ctx, m: ctx.subfield_elements(m)),
    "norm": ("m", lambda ctx, m: norm(ctx.one, m)),
    "minimal_polynomial": ("m", lambda ctx, m: minimal_polynomial(ctx.one, m)),
    "find_generator": ("over_m", lambda ctx, m: find_generator(ctx, over_m=m)),
    "LinearizedPoly": ("k", lambda ctx, m: LinearizedPoly(ctx, m, [ctx.one_vec])),
}


@pytest.mark.parametrize("m", [0, -3, 4], ids=["zero", "negative", "non-divisor"])
@pytest.mark.parametrize("reader", sorted(SUBFIELD_DEGREE_READERS))
def test_a_bad_subfield_degree_is_refused_by_name(reader, m):
    ctx = make_field(2, 1, 6)
    what, call = SUBFIELD_DEGREE_READERS[reader]
    message = f"{what} must be at least 1, got {m}" if m < 1 else f"{what}={m} does not divide n=6"
    with pytest.raises(ValueError) as ei:
        call(ctx, m)
    assert str(ei.value) == message


# every enumeration guard goes through errors.within_budget; V is a 3-dim graph space in F_2^9
BUDGET_SITES = {
    "combinations": (lambda V: make_field(2, 1, 23).combinations(np.eye(23, dtype=np.int64)), 2**23),
    "projective_point_count": (lambda V: projective_point_count(V.ctx, 10), 511),
    "is_r_sidon": (lambda V: is_r_sidon(V, 3, budget=10), 84),
    "is_br_set": (lambda V: is_br_set(range(100), 3, budget=10), 171700),
    "semilinear_equivalent": (lambda V: semilinear_equivalent(V, V, budget=100), 9 * 511),
}


@pytest.mark.parametrize("site", sorted(BUDGET_SITES))
def test_every_budget_site_reports_what_it_requires(site):
    ctx = make_field(2, 1, 9)
    V = v_f_gamma(LinearizedPoly.monomial(ctx, 3, 1), find_generator(ctx, over_m=3))
    call, required = BUDGET_SITES[site]
    with pytest.raises(BudgetError) as ei:
        call(V)
    assert ei.value.required == required
    assert str(ei.value).startswith(f"{required} ") and "exceed the budget" in str(ei.value)


def test_frobenius_is_q_power_and_additive():
    ctx = make_field(3, 1, 4)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        assert a.frobenius(1) == a ** 3
        assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)
        assert a.frobenius(4) == a


def test_frob_q_versus_frob_p_on_a_proper_prime_power():
    # q = 4 means one q-Frobenius step is two p-Frobenius steps
    ctx = make_field(2, 2, 3)
    assert ctx.q == 4
    assert ctx.dim == 6
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = ctx.random_element(rng)
        assert FieldElement(ctx, ctx.frob_q(a.vec, 1)) == a ** 4
        assert (ctx.frob_q(a.vec, 1) == ctx.frob_p(a.vec, 2)).all()


def test_subfield_membership_counts():
    ctx = make_field(2, 1, 6)
    elems = ctx.subfield_elements(6)
    assert elems.shape == (64, 6)
    assert int(ctx.in_subfield(elems, 3).sum()) == 8
    assert int(ctx.in_subfield(elems, 2).sum()) == 4
    assert int(ctx.in_subfield(elems, 1).sum()) == 2
    assert bool(ctx.in_subfield(ctx.one_vec, 1))


def test_subfield_fp_basis_spans_the_subfield():
    ctx = make_field(2, 1, 6)
    B = ctx.subfield_fp_basis(3)
    assert B.shape == (3, 6)
    assert bool(ctx.in_subfield(B, 3).all())
    # all 8 F_2-combinations of the basis give exactly the subfield
    combos = set()
    for m in range(8):
        bits = np.array([(m >> i) & 1 for i in range(3)], dtype=np.int64)
        combos.add((bits @ B % 2).tobytes())
    sub = ctx.subfield_elements(3)
    assert combos == {row.tobytes() for row in sub}


def test_norm_is_the_product_of_conjugates():
    ctx = make_field(3, 1, 4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = ctx.random_element(rng)
        if a.is_zero():
            continue
        # N(a) = a^(1 + q + q^2 + q^3) = a^40
        assert norm(a) == a ** 40
        assert bool(ctx.in_subfield(norm(a).vec, 1))
        b = ctx.random_element(rng)
        if not b.is_zero():
            assert norm(a * b) == norm(a) * norm(b)


def test_norm_tower_transitivity():
    ctx = make_field(3, 1, 4)
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = ctx.random_element(rng)
        y = norm(a, 2)
        assert bool(ctx.in_subfield(y.vec, 2))
        # compose with the norm of F_(q^2) over F_q, which is y * y^q
        assert y * y.frobenius(1) == norm(a, 1)


def test_minimal_polynomial_of_a_generator():
    ctx = make_field(2, 1, 6)
    g = find_generator(ctx)
    mp = minimal_polynomial(g)
    assert len(mp) == 7
    assert mp[-1] == ctx.one
    acc = ctx.zero
    for i, c in enumerate(mp):
        acc = acc + c * g ** i
    assert acc.is_zero()
    for c in mp:
        assert bool(ctx.in_subfield(c.vec, 1))


def test_minimal_polynomial_over_an_intermediate_field():
    ctx = make_field(2, 1, 6)
    g = find_generator(ctx, over_m=3)
    mp = minimal_polynomial(g, 3)
    assert len(mp) == 3
    for c in mp:
        assert bool(ctx.in_subfield(c.vec, 3))
    acc = ctx.zero
    for i, c in enumerate(mp):
        acc = acc + c * g ** i
    assert acc.is_zero()


def test_field_degree():
    ctx = make_field(2, 1, 6)
    assert ctx.field_degree(ctx.one_vec) == 1
    assert ctx.field_degree(ctx.subfield_generator(3)) == 3
    assert ctx.field_degree(find_generator(ctx).vec) == 6
    # rows from F_4 and F_8 generate their compositum F_64
    assert ctx.field_degree(np.vstack([ctx.subfield_generator(2), ctx.subfield_generator(3)])) == 6


def test_find_generator_is_seeded_and_honors_over_m():
    ctx = make_field(2, 1, 6)
    a = find_generator(ctx, over_m=3, seed=11)
    b = find_generator(ctx, over_m=3, seed=11)
    assert a == b
    assert not bool(ctx.in_subfield(a.vec, 3))
    assert len(minimal_polynomial(a, 3)) == 3


# sha256 of find_generator's outputs for every over_m | n at seeds 0-2, and primitive
# ones in F_2^12: a change to the candidate test must keep every seeded generator
FIND_GENERATOR_PIN = "8a33c84e82eeec37c56349da5518025e161d2301a614da76d822f47f16a8693b"


def test_find_generator_outputs_are_pinned():
    rows = []
    for p, a, n in [(2, 1, 12), (3, 1, 6), (2, 2, 3), (2, 1, 25), (3, 1, 36)]:
        ctx = make_field(p, a, n)
        for m in ctx.subfield_degrees:
            for seed in range(3):
                gen = find_generator(ctx, over_m=m, seed=seed)
                rows.append([p, a, n, m, seed, False, gen.coeffs])
    ctx = make_field(2, 1, 12)
    for seed in range(3):
        rows.append([2, 1, 12, 1, seed, True, find_generator(ctx, primitive=True, seed=seed).coeffs])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == FIND_GENERATOR_PIN


def test_find_generator_primitive_order():
    ctx = make_field(2, 1, 6)
    g = find_generator(ctx, primitive=True)
    assert g ** 63 == ctx.one
    assert g ** 21 != ctx.one
    assert g ** 9 != ctx.one


def test_discrete_log_round_trip():
    ctx = make_field(2, 1, 9)
    g = find_generator(ctx, primitive=True)
    table = DiscreteLogTable(g)
    for e in (0, 1, 5, 100, 510):
        assert table.log(g ** e) == e
    with pytest.raises(ValueError):
        table.log(ctx.zero)


def test_discrete_log_large_field():
    ctx = make_field(3, 1, 16)
    g = find_generator(ctx, primitive=True)
    table = DiscreteLogTable(g)
    assert table.log(g ** 123456) == 123456
    assert table.log(ctx.one) == 0
    # 3^16 - 1 = 2^6 * 5 * 17 * 41 * 193: one baby-step/giant-step per prime-power part
    exps = [int(e) for e in np.random.default_rng(16).integers(0, ctx.order - 1, 200)]
    assert table.log_many(np.array([ctx.pow_elem(g.vec, e) for e in exps])) == exps


def stepping_powers(ctx, g) -> np.ndarray:
    """The rows g^0, g^1, ..., g^(q^n - 2), by repeated multiplication by g."""
    out = np.empty((ctx.order - 1, ctx.dim), dtype=np.int64)
    cur = ctx.one_vec
    for i in range(ctx.order - 1):
        out[i] = cur
        cur = ctx.mul(cur, g.vec)
    return out


# q^n - 1 = 63 = 3^2 * 7, 80 = 2^4 * 5, 63 with a = 2, the primes 127 and 8191, and the
# prime powers of 2400 = 2^5 * 3 * 5^2, 6560 = 2^5 * 5 * 41, 4095 = 3^2 * 5 * 7 * 13 and
# 80 with a = 2
@pytest.mark.parametrize("field", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (2, 1, 7), (2, 1, 13),
                                   (7, 1, 4), (3, 1, 8), (2, 1, 12), (3, 2, 2)],
                         ids=lambda f: "F%d^%d^%d" % f)
def test_log_many_inverts_every_power_of_the_generator(field):
    ctx = make_field(*field)
    g = find_generator(ctx, primitive=True)
    powers = stepping_powers(ctx, g)
    assert len({row.tobytes() for row in powers}) == ctx.order - 1  # g is primitive
    table = DiscreteLogTable(g)
    assert table.log_many(powers) == list(range(ctx.order - 1))
    assert table.log_many(powers[::-1]) == list(range(ctx.order - 2, -1, -1))


def test_discrete_log_to_a_base_that_is_not_primitive():
    # the base g^d has order (q^n - 1)/d: in F_7^4, 2400 = 2^5 * 3 * 5^2
    for field, ds in (((3, 1, 4), (2, 5, 8, 10, 16, 40, 80)),
                      ((7, 1, 4), (2, 3, 5, 25, 32, 75))):
        ctx = make_field(*field)
        g = find_generator(ctx, primitive=True)
        powers = stepping_powers(ctx, g)
        o = ctx.order - 1
        for d in ds:
            table = DiscreteLogTable(g ** d)
            assert table.order == o // d
            assert table.log_many(powers[::d]) == list(range(o // d))
            with pytest.raises(ValueError, match="not a power of the base"):
                table.log(g)
            with pytest.raises(ValueError, match="not a power of the base"):
                table.log_many(powers[:2])
    ctx = make_field(3, 1, 4)
    g = find_generator(ctx, primitive=True)
    with pytest.raises(ValueError, match="zero has no discrete log"):
        DiscreteLogTable(g).log_many([g, ctx.zero])


def test_discrete_log_refuses_a_zero_base():
    with pytest.raises(ValueError, match="base of a discrete log must be nonzero"):
        DiscreteLogTable(make_field(3, 1, 4).zero)


def test_discrete_log_steps_is_the_ceiling_of_the_square_root():
    assert [DiscreteLogTable.steps(N) for N in (1, 2, 4, 5, 9, 10, 511)] == [1, 2, 2, 3, 3, 4, 23]


def test_subfield_embedding_of_the_prime_field():
    small = prime_ctx(3)
    big = make_field(3, 1, 4)
    E = subfield_embedding(small, big)
    assert E.shape == (1, 4)
    for c in range(3):
        v = np.array([c], dtype=np.int64) @ E % 3
        assert (v == big.element(c).vec).all()


def test_subfield_embedding_of_a_standalone_base_field():
    # a standalone F_4 embeds into the base field of F_(4^3)
    small = make_field(2, 2, 1)
    big = make_field(2, 2, 3)
    assert small.order == big.q == 4
    E = subfield_embedding(small, big)
    assert E.shape == (2, 6)

    def emb(v):
        return v @ E % 2

    assert (emb(small.one_vec) == big.one_vec).all()
    for u in small.subfield_elements(1):
        assert bool(big.in_subfield(emb(u), 1))
        for v in small.subfield_elements(1):
            assert (emb(small.mul(u, v)) == big.mul(emb(u), emb(v))).all()
            assert (emb((u + v) % 2) == (emb(u) + emb(v)) % 2).all()


def test_subfield_embedding_rejects_other_requests():
    with pytest.raises(ValueError):
        subfield_embedding(make_field(2, 1, 3), make_field(2, 1, 6))


def test_field_spec_round_trip():
    ctx = make_field(3, 1, 4, seed=2)
    again = field_from_spec(ctx.to_spec())
    assert again == ctx
    assert make_field(2, 1, 6) == make_field(2, 1, 6)
    # a different seed may pick a different modulus, hence a different context
    other = make_field(2, 1, 6, seed=5)
    assert (other == ctx) is False


def test_field_spec_reads_the_q_form():
    assert field_from_spec({"q": 4, "n": 3}) == field_from_spec({"p": 2, "a": 2, "n": 3})
    assert field_from_spec({"q": 3, "n": 4, "seed": 2}) == make_field(3, 1, 4, seed=2)
    assert field_from_spec({"q": 5}) == make_field(5)
    with pytest.raises(ValueError, match="q must be a prime power"):
        field_from_spec({"q": 6, "n": 2})


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"p": 2, "q": 9, "n": 3}, "unknown keys: q"),
        ({"q": 4, "a": 3, "n": 3}, "unknown keys: a"),
        ({"p": 2, "n": 3, "degree": 5}, "unknown keys: degree"),
        ({"n": 3}, "needs 'p'"),
    ],
    ids=["p-and-q", "q-and-a", "unknown-key", "neither-p-nor-q"],
)
def test_field_spec_refuses_keys_outside_its_form(spec, message):
    with pytest.raises(ValueError, match=message):
        field_from_spec(spec)


def test_element_coeff_round_trip():
    ctx = make_field(3, 1, 4)
    e = ctx.element([1, 2, 0, 1])
    assert e.coeffs == [1, 2, 0, 1]
    assert ctx.element(e.coeffs) == e


def test_random_element_determinism():
    ctx = make_field(2, 1, 9)
    a = ctx.random_element(np.random.default_rng(42))
    b = ctx.random_element(np.random.default_rng(42))
    assert a == b


@pytest.mark.parametrize("p,a,n", [(2, 2, 3), (3, 2, 2), (5, 1, 3), (3, 1, 4)])
def test_proj_canon_is_the_smallest_vector_of_each_scaling_orbit(p, a, n):
    ctx = make_field(p, a, n)
    U = ctx.combinations(np.eye(ctx.dim, dtype=np.int64))[1:]
    scalars = ctx.subfield_elements(1)[1:]
    want = [
        min(tuple(int(c) for c in ctx.mul(u, s)) for s in scalars) for u in U
    ]
    assert ctx.proj_canon(U).tolist() == [list(w) for w in want]


# -- number theory: trial division below MAX_P, sympy only for a large cofactor ----------


def test_factorint_is_sympys_below_max_p():
    for n in range(1, MAX_P):
        assert list(factorint(n).items()) == list(sympy.factorint(n).items()), n


def test_factorint_is_sympys_on_group_orders():
    cases = [p**d - 1 for p in (2, 3, 5, 7) for d in range(1, 33)] + [2**61 - 1, 2**64 - 1]
    large_cofactors = 0
    for n in cases:
        want = sympy.factorint(n)
        assert list(factorint(n).items()) == list(want.items()), n
        large_cofactors += math.prod(ell**e for ell, e in want.items() if ell >= MAX_P) >= MAX_P**2
    assert large_cofactors == 19  # the cases that reach sympy


def test_isprime_divisors_and_mobius_are_sympys():
    assert [n for n in range(-2, MAX_P) if isprime(n)] == list(sympy.primerange(MAX_P))
    big = [2**32 - 5, 2**32 + 15, 2**61 - 1, 2**64 - 1, (2**61 - 1) ** 2,
           sympy.nextprime(10**24) * sympy.nextprime(3 * 10**24)]
    assert [isprime(n) for n in big] == [sympy.isprime(n) for n in big]
    for n in range(1, MAX_DIM + 1):
        assert divisors(n) == sympy.divisors(n)
        assert mobius(n) == sympy.mobius(n)


def _loads_sympy(code: str) -> bool:
    """Whether sympy is in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return out.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "code",
    [
        "import sidonspace",
        "import sidonspace.cli",
        "from sidonspace import make_field; make_field(2, 1, 9)",
        "from sidonspace import binomial_family, extract_brset, find_generator, make_field\n"
        "gamma = find_generator(make_field(3, 1, 16), over_m=4, primitive=True)\n"
        "rec = binomial_family(3, 4, 1, 4, 'end', gamma=gamma)\n"
        "assert extract_brset(rec.space, 3, gamma, verify=True).verified",
        "from sidonspace.cli import main; main(['field', '9', '2', '--primitive'])",
    ],
    ids=["import", "import-cli", "make-field-2-9", "b3-extraction-3-16", "cli-field-primitive"],
)
def test_sympy_stays_unloaded(code):
    assert not _loads_sympy(code)


def test_a_large_cofactor_loads_sympy():
    assert _loads_sympy("from sidonspace import make_field; make_field(2, 1, 61).group_factorization()")
    assert make_field(2, 1, 61).group_factorization() == sympy.factorint(2**61 - 1)
