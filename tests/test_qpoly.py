import numpy as np
import pytest

from sidonspace.errors import NoSuchElementError
from sidonspace.field import FieldElement, find_generator, make_field, norm
from sidonspace.qpoly import LinearizedPoly, graph_bases, interpolate, is_scattered, v_f_gamma
from sidonspace.subspace import Subspace, span, subfield_space


def test_exponents_fold_modulo_k():
    ctx = make_field(2, 1, 6)
    f = LinearizedPoly.from_terms(ctx, 3, {3: 1})
    g = LinearizedPoly.from_terms(ctx, 3, {0: 1})
    pts = subfield_space(ctx, 3).elements()
    assert (f.evaluate_many(pts) == g.evaluate_many(pts)).all()
    assert f == g


def test_monomial_evaluates_to_the_frobenius():
    ctx = make_field(3, 1, 6)
    f = LinearizedPoly.monomial(ctx, 3, 1)
    for u in subfield_space(ctx, 3).elements():
        e = FieldElement(ctx, u)
        assert f.evaluate(e) == e ** 3


def test_linearity_over_the_subfield():
    ctx = make_field(3, 1, 4)
    f = LinearizedPoly.from_terms(ctx, 4, {0: 2, 1: 1, 3: 2})
    rng = np.random.default_rng(0)
    sub = subfield_space(ctx, 4).elements()
    for _ in range(10):
        a = FieldElement(ctx, sub[rng.integers(0, len(sub))])
        b = FieldElement(ctx, sub[rng.integers(0, len(sub))])
        assert f.evaluate(a + b) == f.evaluate(a) + f.evaluate(b)
        assert f.evaluate(a * 2) == f.evaluate(a) * 2


def test_evaluate_many_matches_evaluate():
    ctx = make_field(2, 1, 6)
    f = LinearizedPoly.from_terms(ctx, 3, {0: 1, 1: 1})
    pts = subfield_space(ctx, 3).elements()
    vals = f.evaluate_many(pts)
    for u, v in zip(pts, vals):
        assert f.evaluate(FieldElement(ctx, u)) == FieldElement(ctx, v)


def test_trace_poly_kernel_dimension():
    ctx = make_field(2, 1, 6)
    tr = LinearizedPoly.trace_poly(ctx, 3)
    ker = tr.kernel()
    assert ker.dim == 2
    assert subfield_space(ctx, 3).contains_space(ker)
    for u in ker.elements():
        assert not tr.evaluate_many(u[None, :]).any()

    ctx3 = make_field(3, 1, 4)
    assert LinearizedPoly.trace_poly(ctx3, 4).kernel().dim == 3


def test_frobenius_minus_identity_kernel_is_the_base_field():
    ctx = make_field(3, 1, 4)
    f = LinearizedPoly.from_terms(ctx, 4, {1: 1, 0: 2})
    ker = f.kernel()
    assert ker.dim == 1
    assert ker == subfield_space(ctx, 1)


def test_rank_nullity():
    from sidonspace.linalg import rank

    ctx = make_field(3, 1, 4)
    rng = np.random.default_rng(1)
    sub = subfield_space(ctx, 4).elements()
    for _ in range(5):
        terms = {i: FieldElement(ctx, sub[rng.integers(0, len(sub))]) for i in range(4)}
        f = LinearizedPoly.from_terms(ctx, 4, terms)
        if f.is_zero():
            continue
        M = f.matrix_on_subfield()
        assert f.kernel().dim + rank(M, 3) == 4


def _scattered_brute(f, k):
    # quadratic-time oracle: f(a) b == f(b) a exactly on dependent pairs
    ctx = f.ctx
    pts = subfield_space(ctx, k).projective_points()
    vals = f.evaluate_many(pts)
    for i in range(pts.shape[0]):
        for j in range(i + 1, pts.shape[0]):
            lhs = ctx.mul(vals[i], pts[j])
            rhs = ctx.mul(vals[j], pts[i])
            if (lhs == rhs).all():
                return False
    return True


def test_scattered_monomials_with_coprime_exponent():
    ctx = make_field(2, 1, 8)
    for s in (1, 3):
        f = LinearizedPoly.monomial(ctx, 4, s)
        assert is_scattered(f) == (True, None)
        assert _scattered_brute(f, 4)


def test_non_coprime_monomial_is_not_scattered():
    ctx = make_field(2, 1, 8)
    f = LinearizedPoly.monomial(ctx, 4, 2)
    ok, witness = is_scattered(f)
    assert not ok
    assert not _scattered_brute(f, 4)
    a, b = witness
    assert span(ctx, [a, b]).dim == 2
    fa, fb = f.evaluate_many(np.stack([a, b]))
    assert (ctx.mul(fa, b) == ctx.mul(fb, a)).all()


def test_two_term_norm_dichotomy():
    # x^q + delta x^(q^3) over F_81 is scattered exactly when N(delta) != 1
    ctx = make_field(3, 1, 4)
    B = ctx.subfield_fp_basis(4)
    norm_one = 0
    for m in range(1, 81):
        digits = []
        mm = m
        for _ in range(4):
            digits.append(mm % 3)
            mm //= 3
        d = FieldElement(ctx, (np.asarray(digits, dtype=np.int64) @ B) % 3)
        f = LinearizedPoly.from_terms(ctx, 4, {1: 1, 3: d})
        expected = norm(d) != ctx.one
        assert is_scattered(f)[0] == expected
        norm_one += not expected
    assert norm_one == 40


def test_two_term_mid_family_never_scattered_at_k4():
    # x^q + delta x^(q^2) over F_16: exponent gap 2 shares a factor with k=4,
    # and indeed no choice of delta gives a scattered map (0 of 15 by sweep).
    ctx = make_field(2, 1, 4)
    B = ctx.subfield_fp_basis(4)
    count = 0
    for m in range(1, 16):
        digits = [(m >> i) & 1 for i in range(4)]
        d = FieldElement(ctx, (np.asarray(digits, dtype=np.int64) @ B) % 2)
        f = LinearizedPoly.from_terms(ctx, 4, {1: 1, 2: d})
        scattered = is_scattered(f)[0]
        assert scattered == _scattered_brute(f, 4)
        count += scattered
    assert count == 0


def test_v_f_gamma_is_the_graph_space():
    ctx = make_field(2, 1, 9)
    gamma = find_generator(ctx, over_m=3)
    f = LinearizedPoly.monomial(ctx, 3, 1)
    V = v_f_gamma(f, gamma)
    assert V.dim == 3
    for u in subfield_space(ctx, 3).elements():
        e = FieldElement(ctx, u)
        assert V.contains((e + f.evaluate(e) * gamma).vec)


def test_graph_bases_broadcast_over_gammas():
    ctx = make_field(3, 1, 6)
    f = LinearizedPoly.trace_poly(ctx, 2)
    FB = f.matrix_on_subfield()
    gammas = ctx.subfield_elements(6)[::97]
    stacked = graph_bases(ctx, 2, FB, gammas[:, None, :])
    assert stacked.shape == (gammas.shape[0], 2, ctx.dim)
    for rows, gv in zip(stacked, gammas):
        assert (rows == graph_bases(ctx, 2, FB, gv)).all()
        if not ctx.in_subfield(gv, 2):
            assert Subspace(ctx, rows) == v_f_gamma(f, FieldElement(ctx, gv))


def test_interpolate_round_trip():
    ctx = make_field(3, 1, 4)
    sub = subfield_space(ctx, 4)
    f = LinearizedPoly.from_terms(ctx, 4, {0: 1, 2: 2})
    args = [FieldElement(ctx, v) for v in sub.basis]
    pairs = [(a, f.evaluate(a)) for a in args]
    g = interpolate(ctx, 4, pairs)
    pts = sub.elements()
    assert (f.evaluate_many(pts) == g.evaluate_many(pts)).all()


def test_interpolate_inconsistent_data():
    ctx = make_field(2, 1, 6)
    sub = subfield_space(ctx, 3)
    u = FieldElement(ctx, sub.basis[0])
    v = FieldElement(ctx, sub.basis[1])
    pairs = [(u, ctx.zero), (v, ctx.zero), (u + v, ctx.one)]
    with pytest.raises(NoSuchElementError):
        interpolate(ctx, 3, pairs)


def test_interpolate_input_validation():
    ctx = make_field(2, 1, 6)
    g = find_generator(ctx)
    with pytest.raises(ValueError):
        interpolate(ctx, 3, [(g, ctx.one)])
    sub = subfield_space(ctx, 3)
    too_many = [(FieldElement(ctx, v), ctx.one) for v in sub.elements()[:4]]
    with pytest.raises(ValueError):
        interpolate(ctx, 3, too_many)


def test_scale_by_a_coefficient():
    ctx = make_field(3, 1, 4)
    f = LinearizedPoly.monomial(ctx, 4, 1)
    g = f.scale(2)
    for u in subfield_space(ctx, 4).elements()[:10]:
        e = FieldElement(ctx, u)
        assert g.evaluate(e) == f.evaluate(e) * 2


def test_interpolate_pins_the_underdetermined_solution():
    # Fewer F_q-independent conditions than coefficients: the free
    # coefficients are zero and the pivot ones are fixed by the data.
    ctx = make_field(3, 1, 4)
    E = ctx.subfield_elements(4)
    pairs = [(FieldElement(ctx, E[5]), FieldElement(ctx, E[40])),
             (FieldElement(ctx, E[17]), FieldElement(ctx, E[71]))]
    g = interpolate(ctx, 4, pairs)
    assert g.coeffs.tolist() == [[1, 0, 1, 1], [2, 2, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]]

    # Over F_4 with an F_q-dependent pair of arguments (a and xi*a).
    ctx = make_field(2, 2, 4)
    E = ctx.subfield_elements(4)
    xi = FieldElement(ctx, ctx.subfield_elements(1)[2])
    a, b, c, d = (FieldElement(ctx, E[i]) for i in (7, 100, 33, 250))
    pairs = [(a, b), (xi * a, xi * b), (c, d)]
    g = interpolate(ctx, 4, pairs)
    assert g.coeffs.tolist() == [
        [1, 1, 1, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 1, 1, 1, 0],
        [0] * 8,
        [0] * 8,
    ]
    for x, y in pairs:
        assert g.evaluate(x) == y
