import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oracles import pdivmod, pmod
from sidonspace.errors import SupplyError
from sidonspace.field import make_field, prime_ctx, random_irreducibles
from sidonspace.gfpoly import (
    Poly,
    count_monic_irreducibles,
    irreducible_search,
    irreducible_supply,
    is_irreducible,
    pmul,
    random_monic,
    x_power_table,
    require_supply,
)

F2 = prime_ctx(2)
F7 = prime_ctx(7)


def _coeff_array(ints):
    return np.asarray(ints, dtype=np.int64)[:, None]


def _to_ints(c):
    return [int(v) for v in c[:, 0]]


def test_pmul_matches_sympy():
    x = sympy.symbols("x")
    rng = np.random.default_rng(0)
    for _ in range(20):
        fu = rng.integers(0, 7, rng.integers(1, 7), dtype=np.int64)
        fv = rng.integers(0, 7, rng.integers(1, 7), dtype=np.int64)
        w = pmul(F7, _coeff_array(fu), _coeff_array(fv))
        pu = sympy.Poly(list(reversed(fu.tolist())) or [0], x, modulus=7)
        pv = sympy.Poly(list(reversed(fv.tolist())) or [0], x, modulus=7)
        want = [c % 7 for c in reversed((pu * pv).all_coeffs())]
        got = _to_ints(w)
        got = got + [0] * (len(want) - len(got))
        assert got[: len(want)] == want or (not any(want) and not any(got))


def test_pdivmod_matches_sympy():
    x = sympy.symbols("x")
    rng = np.random.default_rng(1)
    for _ in range(20):
        fu = rng.integers(0, 7, 6, dtype=np.int64)
        fv = rng.integers(0, 7, 3, dtype=np.int64)
        if not fv[1:].any():
            fv[2] = 1
        q, r = pdivmod(F7, _coeff_array(fu), _coeff_array(fv))
        pu = sympy.Poly(list(reversed(fu.tolist())) or [0], x, modulus=7)
        pv = sympy.Poly(list(reversed(fv.tolist())), x, modulus=7)
        wq, wr = sympy.div(pu, pv)
        want_q = [c % 7 for c in reversed(wq.all_coeffs())]
        want_r = [c % 7 for c in reversed(wr.all_coeffs())]
        gq, gr = _to_ints(q), _to_ints(r)
        assert (gq + [0] * 8)[: len(want_q)] == want_q
        assert (gr + [0] * 8)[: len(want_r)] == want_r


def _brute_irreducible_count(q, d):
    ctx = prime_ctx(q)
    count = 0
    for m in range(q ** d):
        digits = []
        mm = m
        for _ in range(d):
            digits.append(mm % q)
            mm //= q
        c = _coeff_array(digits + [1])
        if is_irreducible(ctx, c):
            count += 1
    return count


def test_irreducible_counts_over_f2():
    assert [_brute_irreducible_count(2, d) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert [count_monic_irreducibles(2, d) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]


def test_irreducible_counts_over_f3_and_f7():
    assert [_brute_irreducible_count(3, d) for d in range(1, 4)] == [3, 3, 8]
    assert [count_monic_irreducibles(3, d) for d in range(1, 4)] == [3, 3, 8]
    assert _brute_irreducible_count(7, 2) == 21
    assert count_monic_irreducibles(7, 2) == 21


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_irreducible_matches_sympy(p):
    x = sympy.symbols("x")
    ctx = prime_ctx(p)
    rng = np.random.default_rng(p)
    verdicts = []
    for _ in range(100):
        d = int(rng.integers(1, 14))
        c = rng.integers(0, p, d + 1, dtype=np.int64)
        c[d] = rng.integers(1, p)  # any nonzero leading coefficient
        want = sympy.Poly(c[::-1].tolist(), x, modulus=p).is_irreducible
        assert is_irreducible(ctx, c[:, None]) == want, c.tolist()
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


def test_x_power_table_matches_sympy():
    x = sympy.symbols("x")
    F5 = prime_ctx(5)
    rng = np.random.default_rng(11)
    for start, step, count in [(0, 5, 7), (7, 1, 6), (3, 11, 4)]:
        c = rng.integers(0, 5, 8, dtype=np.int64)
        c[7] = 1
        f = sympy.Poly(c[::-1].tolist(), x, modulus=5)
        table = x_power_table(F5, c[:, None], start, step, count)
        assert table.shape == (count, 7, 1)
        for i in range(count):
            rem = sympy.rem(sympy.Poly(x ** (start + step * i), x, modulus=5), f)
            want = [int(v) % 5 for v in reversed(rem.all_coeffs())]
            assert table[i, :, 0].tolist() == want + [0] * (7 - len(want))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_is_irreducible_matches_sympy_up_to_degree_40(p, data):
    d = data.draw(st.integers(1, 40), label="degree")
    c = data.draw(st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1), label="coeffs")
    c[d] = data.draw(st.integers(1, p - 1), label="lead")  # any nonzero leading coefficient
    want = sympy.Poly(c[::-1], sympy.symbols("x"), modulus=p).is_irreducible
    assert is_irreducible(prime_ctx(p), _coeff_array(c)) is want


SCALAR_FIELDS = {
    "F2": lambda: prime_ctx(2),
    "F3": lambda: prime_ctx(3),
    "F5": lambda: prime_ctx(5),
    "F4": lambda: make_field(2, 2, 1),
    "F9": lambda: make_field(3, 2, 1),
}


@pytest.mark.parametrize("name", sorted(SCALAR_FIELDS))
def test_is_irreducible_rejects_powers_and_products(name):
    # g^2 and g^3 have no root-free factor the fixed-space count alone would
    # catch; they are refused because they do not divide x^(q^m) - x
    scal = SCALAR_FIELDS[name]()
    rng = np.random.default_rng(5)
    for dg, dh in [(1, 1), (1, 2), (2, 3), (3, 2)]:
        g = irreducible_search(scal, dg, rng)
        h = irreducible_search(scal, dh, rng)
        if dg == dh and (g == h).all():
            continue
        assert is_irreducible(scal, g) and is_irreducible(scal, h)
        g2 = pmul(scal, g, g)
        for f in (g2, pmul(scal, g2, g), pmul(scal, g, h)):
            assert is_irreducible(scal, f) is False, (name, f.tolist())


def _x_powers_by_multiplication(scal, f, start, step, count):
    x = np.zeros((2, scal.dim), dtype=np.int64)
    x[1] = scal.one_vec
    out = []
    cur = pmod(scal, x[1:], f)  # the constant 1
    for e in range(start + step * (count - 1) + 1):
        if e >= start and (e - start) % step == 0:
            row = np.zeros((f.shape[0] - 1, scal.dim), dtype=np.int64)
            row[: cur.shape[0]] = cur
            out.append(row)
        cur = pmod(scal, pmul(scal, cur, x), f)
    return np.array(out)


@pytest.mark.parametrize("name,degree,lead", [("F4", 5, 1), ("F9", 4, 1), ("F5", 6, 3)])
def test_x_power_table_matches_repeated_multiplication(name, degree, lead):
    scal = SCALAR_FIELDS[name]()
    rng = np.random.default_rng(degree)
    f = rng.integers(0, scal.p, (degree + 1, scal.dim), dtype=np.int64)
    f[degree] = 0
    f[degree, 0] = lead  # lead 3 over F_5: a non-monic modulus
    f[0, 0] = 1
    for start, step, count in [(0, scal.order, degree), (degree, 1, degree - 1), (3, 7, 5), (0, 1, 1)]:
        table = x_power_table(scal, f, start, step, count)
        assert table.shape == (count, degree, scal.dim)
        assert (table == _x_powers_by_multiplication(scal, f, start, step, count)).all()


def test_make_field_divides_no_polynomials():
    from sidonspace import gfpoly

    assert not hasattr(gfpoly, "pdivmod") and not hasattr(gfpoly, "pmod")


def _brute_irreducible_count_over(scal, d):
    """Monic irreducibles of degree d over a scalar field with a > 1."""
    count = 0
    for low in scal.combinations(np.eye(d * scal.dim, dtype=np.int64)):
        c = np.vstack([low.reshape(d, scal.dim), scal.one_vec[None, :]])
        count += is_irreducible(scal, c)
    return count


def test_irreducible_counts_over_f4_and_f9():
    f4, f9 = make_field(2, 2, 1), make_field(3, 2, 1)
    assert [_brute_irreducible_count_over(f4, d) for d in (1, 2, 3)] == [4, 6, 20]
    assert [count_monic_irreducibles(4, d) for d in (1, 2, 3)] == [4, 6, 20]
    assert [_brute_irreducible_count_over(f9, d) for d in (1, 2)] == [9, 36]
    assert [count_monic_irreducibles(9, d) for d in (1, 2)] == [9, 36]


def test_counting_identity_sums_to_the_field_size():
    # sum over d | m of d * N_q(d) = q^m
    for q in (2, 3):
        for m in range(1, 7):
            total = sum(
                d * count_monic_irreducibles(q, d) for d in range(1, m + 1) if m % d == 0
            )
            assert total == q ** m


def test_irreducible_supply_and_require():
    assert irreducible_supply(2, 3) == 5
    assert irreducible_supply(3, 2) == 6
    assert irreducible_supply(7, 2) == 28
    assert require_supply(2, 5, 3) == 5
    with pytest.raises(SupplyError) as err:
        require_supply(2, 6, 3)
    assert err.value.available == 5


def test_random_monic_and_irreducible_search_are_seeded():
    f1 = random_monic(F7, 4, np.random.default_rng(9))
    f2 = random_monic(F7, 4, np.random.default_rng(9))
    assert (f1 == f2).all()
    assert _to_ints(f1)[-1] == 1
    g1 = irreducible_search(F2, 5, np.random.default_rng(3))
    g2 = irreducible_search(F2, 5, np.random.default_rng(3))
    assert (g1 == g2).all()
    assert is_irreducible(F2, g1)


def test_random_irreducibles_distinct_and_deterministic():
    polys = random_irreducibles(2, 5, 3, seed=1)
    again = random_irreducibles(2, 5, 3, seed=1)
    assert [p.to_list() for p in polys] == [p.to_list() for p in again]
    assert len({p.coeffs.tobytes() for p in polys}) == 5
    for p in polys:
        assert p.irreducible()
        assert p.is_monic
        assert p.degree <= 3
    with pytest.raises(SupplyError):
        random_irreducibles(2, 6, 3)


def test_poly_class_basics():
    p = Poly.from_ints(F7, [1, 4, 1])
    assert p.degree == 2
    assert p.is_monic
    assert p.to_list() == [1, 4, 1]
    assert Poly.from_ints(F7, [0, 1, 0]).to_list() == [0, 1]  # trailing zeros dropped
    with pytest.raises(AttributeError):
        p.coeffs = None


def test_poly_multiplication():
    one_plus_x = Poly.from_ints(F2, [1, 1])
    sq = one_plus_x * one_plus_x
    assert sq.to_list() == [1, 0, 1]


def test_poly_evaluate_in_extension():
    from sidonspace.field import find_generator

    big = make_field(2, 1, 6)
    g = find_generator(big)
    p = Poly.from_ints(F2, [1, 1, 1])
    val = p.evaluate_in(big, g)
    assert val == big.one + g + g * g


def test_poly_evaluate_in_respects_coefficients():
    big = make_field(7, 1, 2)
    g = big.element([1, 1])
    p = Poly.from_ints(F7, [2, 3, 1])
    assert p.evaluate_in(big, g) == big.element(2) + big.element(3) * g + g * g


def test_product_refuses_a_polynomial_over_another_field():
    f, g = Poly.from_ints(F2, [1, 1, 1]), Poly.from_ints(prime_ctx(3), [1, 0, 1])
    with pytest.raises(ValueError, match="polynomials live in different fields"):
        f * g
