import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import gaussian_binomial
from sidonspace.constructions import monomial
from sidonspace.errors import BudgetError
from sidonspace.field import FieldElement, find_generator, make_field
from sidonspace.sidon import audit_bounds
from sidonspace.subspace import (
    Subspace,
    all_projective_points,
    frob_image,
    full_space,
    intersect,
    intersection_dims_with_scaled,
    orbit_size,
    power,
    product,
    random_subspace,
    scale,
    span,
    span_chain,
    stabilizer,
    subfield_space,
    sum_spaces,
)


def test_span_is_canonical():
    ctx = make_field(3, 1, 4)
    g = find_generator(ctx)
    gens = np.stack([ctx.one_vec, g.vec, (g * g).vec])
    V = span(ctx, gens)
    W = span(ctx, gens[::-1])
    X = span(ctx, (gens * 2) % 3)
    assert V == W == X
    assert V.fingerprint() == W.fingerprint() == X.fingerprint()
    assert V.dim == 3


def test_exhaustive_two_dim_subspace_count():
    ctx = make_field(2, 1, 4)
    pts = all_projective_points(ctx)
    assert pts.shape[0] == 15
    seen = set()
    for i, j in itertools.combinations(range(15), 2):
        V = span(ctx, pts[[i, j]])
        if V.dim == 2:
            seen.add(V.fingerprint())
    assert len(seen) == 35
    assert len(seen) == gaussian_binomial(4, 2, 2)


def test_dimension_formula():
    ctx = make_field(3, 1, 6)
    rng = np.random.default_rng(0)
    for _ in range(15):
        U = random_subspace(ctx, int(rng.integers(1, 4)), rng)
        V = random_subspace(ctx, int(rng.integers(1, 4)), rng)
        s = sum_spaces(U, V)
        i = intersect(U, V)
        assert s.dim == U.dim + V.dim - i.dim
        assert U.contains_space(i) and V.contains_space(i)
        assert s.contains_space(U) and s.contains_space(V)


def test_contains_and_reduce():
    ctx = make_field(2, 1, 6)
    V = subfield_space(ctx, 3)
    for row in V.basis:
        assert V.contains(row)
    assert V.contains(ctx.zero_vec)
    assert not V.contains(find_generator(ctx).vec)
    assert not V.reduce_rows(V.elements()).any()


@pytest.mark.parametrize("p,a,n", [(2, 1, 9), (3, 1, 5), (2, 2, 3)])
def test_reduce_rows_of_a_stack_matches_row_by_row(p, a, n):
    ctx = make_field(p, a, n)
    rng = np.random.default_rng(p * a * n)
    V = random_subspace(ctx, 2, rng)
    stack = rng.integers(0, p, (3, 4, ctx.dim))
    stack[1, 2] = V.basis[-1]  # a member reduces to zero
    got = V.reduce_rows(stack)
    assert got.shape == stack.shape
    assert got.tolist() == [[V.reduce_rows(row).tolist() for row in block] for block in stack]
    assert not got[1, 2].any()


def test_scale_properties():
    ctx = make_field(2, 1, 9)
    g = find_generator(ctx)
    V = random_subspace(ctx, 3, np.random.default_rng(1))
    W = scale(V, g)
    assert W.dim == V.dim
    assert scale(W, g.inverse()) == V
    # the subfield is stable under scaling by its own elements
    S = subfield_space(ctx, 3)
    beta = FieldElement(ctx, ctx.subfield_generator(3))
    assert scale(S, beta) == S


def test_frob_image_properties():
    ctx = make_field(3, 1, 6)
    V = random_subspace(ctx, 2, np.random.default_rng(2))
    assert frob_image(V, 1).dim == V.dim
    assert frob_image(frob_image(V, 1), 2) == frob_image(V, 3)
    assert frob_image(V, 6) == V


def test_frob_image_of_a_times_j_is_the_q_power_image():
    ctx = make_field(2, 2, 3)
    V = random_subspace(ctx, 2, np.random.default_rng(3))
    for j in range(ctx.n + 1):
        assert frob_image(V, ctx.a * j) == Subspace(ctx, ctx.frob_q(V.basis, j))
    # one p-step is not a q-step when a > 1
    assert frob_image(V, 1) != Subspace(ctx, ctx.frob_q(V.basis, 1))
    assert frob_image(V, 3) == frob_image(frob_image(V, 2), 1)


def test_product_small_oracle():
    ctx = make_field(2, 1, 3)
    g = find_generator(ctx)
    V = span(ctx, [ctx.one_vec, g.vec])
    VV = product(V, V)
    assert VV.dim == 3
    assert product(V, V) == product(V, V)
    assert power(V, 1) == V
    assert power(V, 2) == VV


def test_product_contains_all_pairwise_products():
    ctx = make_field(3, 1, 6)
    rng = np.random.default_rng(4)
    U = random_subspace(ctx, 2, rng)
    V = random_subspace(ctx, 3, rng)
    P = product(U, V)
    assert P == product(V, U)
    for u in U.elements():
        for v in V.elements():
            assert P.contains(ctx.mul(u, v))


def test_span_chain_monomial_graph():
    V = monomial(2, 3, 1, 4, 3).space
    ch = span_chain(V)
    assert ch.dims == (3, 6, 9, 11, 12)
    assert ch.t == 5
    assert ch.t_bar == 5
    assert not ch.truncated
    assert ch.generated_field_degree == 12
    assert ch.level(1) == V
    assert ch.level(5) == subfield_space(V.ctx, 12)
    with pytest.raises(IndexError):
        ch.level(6)


def test_span_chain_of_a_subfield_stops_immediately():
    ctx = make_field(2, 1, 6)
    V = subfield_space(ctx, 3)
    ch = span_chain(V)
    assert ch.dims == (3,)
    assert ch.t == 1
    assert ch.t_bar == 1
    assert ch.generated_field_degree == 3


def test_span_chain_cap_reports_truncation():
    V = monomial(2, 3, 1, 4, 3).space
    ch = span_chain(V, s_max=2)
    assert len(ch.dims) == 2
    assert ch.truncated
    assert ch.t is None
    assert ch.t_bar is None


@pytest.mark.parametrize("s_max", [0, -1])
def test_span_chain_rejects_a_cap_below_one(s_max):
    V = monomial(2, 3, 1, 4, 3).space
    with pytest.raises(ValueError, match="s_max"):
        span_chain(V, s_max=s_max)
    with pytest.raises(ValueError, match="s_max"):
        audit_bounds(V, s_max=s_max)


def test_span_chain_stabilizing_at_the_cap():
    # dims (3, 6, 9, 11, 12) and V^5 = V^6: a cap of 5 sees the stabilization,
    # a cap of 4 does not.
    V = monomial(2, 3, 1, 4, 3).space
    ch = span_chain(V, s_max=5)
    assert ch.dims == (3, 6, 9, 11, 12)
    assert ch.t_bar == 5 and ch.t == 5
    assert not ch.truncated
    ch = span_chain(V, s_max=4)
    assert ch.dims == (3, 6, 9, 11)
    assert ch.truncated
    assert ch.t_bar is None and ch.t is None
    assert power(V, 7) == power(V, 5)


CHAIN_FIELDS = [(2, 1, 6), (3, 1, 4), (2, 2, 3)]


def _random_nonzero_subspace(field, k, seed):
    ctx = make_field(*field)
    return random_subspace(ctx, min(k, ctx.n), np.random.default_rng(seed))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    field=st.sampled_from(CHAIN_FIELDS),
    k=st.integers(1, 4),
    s_max=st.sampled_from([None, 1, 2, 3]),
    j=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_chain_is_invariant_under_scaling_and_frobenius(field, k, s_max, j, seed):
    V = _random_nonzero_subspace(field, k, seed)
    ctx = V.ctx
    rng = np.random.default_rng(seed + 1)
    alpha = ctx.element(rng.integers(0, ctx.p, ctx.dim))
    if alpha.is_zero():
        alpha = ctx.one
    ch = span_chain(V, s_max=s_max)
    # (alpha V)^s = alpha^s V^s has the dimension of V^s for every s, but the
    # chain of alpha V may run on past V^(t_bar) = V^(t_bar + 1), where the
    # dimensions no longer change; compare both padded to the cap.
    cap = s_max or ctx.n + 1
    padded = lambda c: c.dims + c.dims[-1:] * (cap - len(c.dims))
    assert padded(span_chain(scale(V, alpha), s_max=s_max)) == padded(ch)
    for W in (frob_image(V, ctx.a * j), frob_image(V, j)):
        img = span_chain(W, s_max=s_max)
        assert img.dims == ch.dims
        assert (img.t, img.t_bar, img.truncated) == (ch.t, ch.t_bar, ch.truncated)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    field=st.sampled_from(CHAIN_FIELDS),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_chain_t_and_field_degree_match_their_definitions(field, k, seed):
    V = _random_nonzero_subspace(field, k, seed)
    ctx = V.ctx
    m = math.lcm(
        *(min(d for d in ctx.subfield_degrees if ctx.in_subfield(row, d)) for row in V.basis)
    )
    assert ctx.field_degree(V.basis) == m
    ch = span_chain(V)
    assert ch.generated_field_degree == m
    target = subfield_space(V.ctx, m)
    hits = [s for s, lv in enumerate(ch.levels, start=1) if lv == target]
    assert ch.t == (hits[0] if hits else None)


STABILIZER_FIELDS = [(2, 1, 12), (3, 1, 6), (2, 2, 4)]


def _stabilizer_by_definition(V):
    """Largest m | n with beta * V inside V for every nonzero beta of F_{q^m}."""
    ctx = V.ctx
    return max(
        m
        for m in ctx.subfield_degrees
        if all(
            V.contains_space(scale(V, FieldElement(ctx, b)))
            for b in ctx.subfield_elements(m)[1:]
        )
    )


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    field=st.sampled_from(STABILIZER_FIELDS),
    linear=st.booleans(),
    pick=st.integers(0, 2**16),
    j=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stabilizer_matches_its_definition(field, linear, pick, j, seed):
    ctx = make_field(*field)
    rng = np.random.default_rng(seed)
    if linear:
        # a sum of scaled copies of a proper subfield F_{q^m} is F_{q^m}-linear,
        # so degrees above 1 occur; fewer than n/m copies keep it proper
        proper = [m for m in ctx.subfield_degrees if m < ctx.n]
        m = proper[pick % len(proper)]
        V = None
        for _ in range(1 + pick % max(1, ctx.n // m - 1)):
            alpha = ctx.random_element(rng)
            part = scale(subfield_space(ctx, m), alpha if not alpha.is_zero() else ctx.one)
            V = part if V is None else sum_spaces(V, part)
    else:
        V = random_subspace(ctx, 1 + pick % (ctx.n - 1), rng)
    h = stabilizer(V)
    assert h == _stabilizer_by_definition(V)
    alpha = ctx.random_element(rng)
    if not alpha.is_zero():
        assert stabilizer(scale(V, alpha)) == h
    assert stabilizer(frob_image(V, ctx.a * j)) == h
    assert stabilizer(frob_image(V, j)) == h


def test_stabilizer_and_orbit_size():
    ctx = make_field(2, 1, 6)
    S = subfield_space(ctx, 3)
    assert stabilizer(S) == 3
    assert orbit_size(S) == 9

    V = monomial(2, 3, 1, 3, 2).space
    assert stabilizer(V) == 1
    assert orbit_size(V) == 511

    F = full_space(ctx)
    assert stabilizer(F) == 6
    assert orbit_size(F) == 1
    assert stabilizer(span(ctx, [])) == 6


def test_field_degree_of_a_space():
    ctx = make_field(2, 1, 6)
    assert ctx.field_degree(subfield_space(ctx, 2).basis) == 2
    assert ctx.field_degree(full_space(ctx).basis) == 6
    V = monomial(2, 3, 1, 3, 2).space
    assert V.ctx.field_degree(V.basis) == 9


def test_random_subspace_determinism_and_dim():
    ctx = make_field(2, 1, 9)
    A = random_subspace(ctx, 3, np.random.default_rng(7))
    B = random_subspace(ctx, 3, np.random.default_rng(7))
    assert A == B
    assert A.dim == 3
    for k in (1, 2, 4):
        assert random_subspace(ctx, k, np.random.default_rng(0)).dim == k


def test_all_projective_points():
    ctx = make_field(2, 1, 6)
    pts = all_projective_points(ctx)
    assert pts.shape == (63, 6)
    assert len({row.tobytes() for row in pts}) == 63
    assert (ctx.proj_canon(pts) == pts).all()
    ctx3 = make_field(3, 1, 4)
    assert all_projective_points(ctx3).shape == (40, 4)
    with pytest.raises(BudgetError):
        all_projective_points(make_field(2, 1, 9), budget=100)


def test_projective_points_of_a_subspace():
    ctx = make_field(2, 1, 9)
    V = random_subspace(ctx, 3, np.random.default_rng(8))
    pts = V.projective_points()
    assert pts.shape[0] == 7
    for row in pts:
        assert V.contains(row)
    assert (ctx.proj_canon(pts) == pts).all()


def test_intersection_dims_with_scaled_matches_direct_intersections():
    ctx = make_field(3, 1, 6)
    V = random_subspace(ctx, 3, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    alphas = []
    while len(alphas) < 10:
        a = ctx.random_element(rng)
        if not a.is_zero():
            alphas.append(ctx.proj_canon(a.vec[None, :])[0])
    alphas = np.stack(alphas)
    dims = intersection_dims_with_scaled(V, alphas)
    for a, d in zip(alphas, dims):
        assert intersect(V, scale(V, FieldElement(ctx, a))).dim == int(d)


def test_dict_round_trip():
    ctx = make_field(3, 1, 4)
    V = random_subspace(ctx, 2, np.random.default_rng(11))
    d = V.to_dict()
    assert set(d) == {"field", "basis"}
    W = Subspace.from_dict(d)
    assert W == V
    assert W.fingerprint() == V.fingerprint()
    d["basis"][0][1] += 0.5
    with pytest.raises(ValueError, match="basis row"):
        Subspace.from_dict(d)
    with pytest.raises(ValueError, match="n must be an integer"):
        Subspace.from_dict({"field": {"p": 3, "n": 4.0}, "basis": []})


@pytest.mark.parametrize(
    "d",
    [{"field": {"p": 2, "n": 3}, "basis": 5}, {"basis": [[1, 0, 0]]}, {"field": {"p": 2, "n": 3}}],
    ids=["scalar-basis", "no-field", "no-basis"],
)
def test_from_dict_refuses_a_dict_that_is_not_a_subspace(d):
    with pytest.raises(ValueError, match="'field' and a 'basis' list"):
        Subspace.from_dict(d)


def test_zero_and_full_edges():
    ctx = make_field(2, 1, 6)
    Z = span(ctx, [ctx.zero_vec])
    assert Z.is_zero()
    assert Z.dim == 0
    F = full_space(ctx)
    assert F.dim == 6
    V = subfield_space(ctx, 2)
    assert intersect(V, F) == V
    assert sum_spaces(V, Z) == V
