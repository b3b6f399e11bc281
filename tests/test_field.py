import numpy as np
import pytest
import sympy

from sidonspace.errors import BudgetError, ConstructionError, NoSuchElementError
from sidonspace.field import (
    DiscreteLogTable,
    FieldCtx,
    FieldElement,
    field_from_spec,
    find_generator,
    make_field,
    minimal_polynomial,
    norm,
    prime_ctx,
    subfield_embedding,
    trace,
)


def test_characteristic_bound():
    with pytest.raises(ValueError, match="below 65536"):
        make_field(65537)
    with pytest.raises(ValueError, match="below 65536"):
        FieldCtx(65537, 1, 1, np.array([0, 1]))
    assert make_field(65521).p == 65521


def test_prime_field_arithmetic():
    ctx = prime_ctx(7)
    a = ctx.from_int(3)
    b = ctx.from_int(5)
    assert (a * b).coeffs == [1]
    assert (a + b).coeffs == [1]
    assert (a - b).coeffs == [5]
    assert a.inverse().coeffs == [5]
    assert ctx.from_int(10).coeffs == [3]


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


def test_reducible_modulus_is_rejected():
    with pytest.raises(ConstructionError, match="reducible"):
        FieldCtx(2, 1, 4, np.array([1, 0, 0, 0, 1]))  # x^4 + 1 = (x + 1)^4
    with pytest.raises(ConstructionError, match="reducible"):
        make_field(3, 1, 2, modulus=[2, 0, 1])  # x^2 - 1


def test_oversized_combinations_raise_budget_error():
    ctx = make_field(2, 1, 23)
    with pytest.raises(BudgetError) as err:
        ctx.combinations(np.eye(23, dtype=np.int64))
    assert err.value.required == 2**23


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


def test_trace_is_additive_and_lands_in_the_base():
    ctx = make_field(3, 1, 4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        assert trace(a + b) == trace(a) + trace(b)
        assert bool(ctx.in_subfield(trace(a).vec, 1))
        assert bool(ctx.in_subfield(trace(a, 2).vec, 2))


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


def test_degree_over_base():
    ctx = make_field(2, 1, 6)
    assert ctx.one.degree_over_base() == 1
    sub = FieldElement(ctx, ctx.subfield_generator(3))
    assert sub.degree_over_base() == 3
    assert find_generator(ctx).degree_over_base() == 6


def test_find_generator_is_seeded_and_honors_over_m():
    ctx = make_field(2, 1, 6)
    a = find_generator(ctx, over_m=3, seed=11)
    b = find_generator(ctx, over_m=3, seed=11)
    assert a == b
    assert not bool(ctx.in_subfield(a.vec, 3))
    assert len(minimal_polynomial(a, 3)) == 3


def test_find_generator_primitive_order():
    ctx = make_field(2, 1, 6)
    g = find_generator(ctx, primitive=True)
    assert g ** 63 == ctx.one
    assert g ** 21 != ctx.one
    assert g ** 9 != ctx.one


def test_find_generator_norm_constraint():
    ctx = make_field(3, 1, 4)
    g = find_generator(ctx, norm_constraint=("ne", 1))
    assert norm(g) != ctx.one
    h = find_generator(ctx, norm_constraint=("eq", 2))
    assert norm(h) == ctx.from_int(2)


def test_find_generator_exhaustion_raises():
    ctx = make_field(2, 1, 6)
    with pytest.raises(NoSuchElementError):
        find_generator(ctx, norm_constraint=("eq", 0), max_tries=200)


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


def test_subfield_embedding_of_the_prime_field():
    small = prime_ctx(3)
    big = make_field(3, 1, 4)
    E = subfield_embedding(small, big)
    assert E.shape == (1, 4)
    for c in range(3):
        v = np.array([c], dtype=np.int64) @ E % 3
        assert (v == big.from_int(c).vec).all()


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
