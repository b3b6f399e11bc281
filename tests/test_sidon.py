"""Product-property checks: both verdict routes, witnesses, bound audits."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidonspace.constructions import monomial
from sidonspace.errors import BudgetError
from sidonspace.field import FieldElement, find_generator, make_field
from sidonspace.qpoly import LinearizedPoly, v_f_gamma
from sidonspace.sidon import (
    audit_bounds,
    is_max_span,
    is_r_sidon,
    is_sidon_intersection,
    max_span_bound,
    r_sidon_profile,
)
from sidonspace.subspace import intersect, random_subspace, scale, span, subfield_space


def graph_space_f2_9():
    ctx = make_field(2, 1, 9)
    gamma = find_generator(ctx, over_m=3)
    f = LinearizedPoly.monomial(ctx, 3, 1)
    return v_f_gamma(f, gamma)


# (p, a, n): F_2^n and F_3^n, and F_4^n where q = p^a has a = 2.
SMALL_FIELDS = [(2, 1, 5), (2, 1, 6), (3, 1, 4), (3, 1, 5), (2, 2, 3), (2, 2, 4)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    field=st.sampled_from(SMALL_FIELDS),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_routes_agree_on_random_subspaces(field, k, seed):
    ctx = make_field(*field)
    V = random_subspace(ctx, k, np.random.default_rng(seed))
    assert is_sidon_intersection(V).verdict == is_r_sidon(V, 2).verdict


def test_monomial_graph_is_sidon_both_routes():
    V = graph_space_f2_9()
    a = is_sidon_intersection(V)
    b = is_r_sidon(V, 2)
    assert a.verdict and b.verdict
    assert a.method == "intersection"
    assert b.method == "products"
    assert a.witness is None and b.witness is None
    assert a.fingerprint == b.fingerprint == V.fingerprint()
    # 511 projective scalars, minus the class of 1
    assert a.details["alphas_checked"] == 510
    # 7 projective points in V, C(8, 2) multisets
    assert b.details["points"] == 7
    assert b.details["multisets_checked"] == 28


def test_subfield_is_not_sidon_intersection_witness():
    ctx = make_field(2, 1, 6)
    V = subfield_space(ctx, 2)
    rep = is_sidon_intersection(V)
    assert not rep.verdict
    w = rep.witness
    al = FieldElement(ctx, np.asarray(w["alpha"], dtype=np.int64))
    assert w["intersection_dim"] >= 2
    assert intersect(V, scale(V, al)).dim == w["intersection_dim"]
    assert len(w["intersection_basis"]) == w["intersection_dim"]


def test_subfield_is_not_sidon_product_witness():
    ctx = make_field(2, 1, 6)
    V = subfield_space(ctx, 2)
    rep = is_r_sidon(V, 2)
    assert not rep.verdict
    w = rep.witness
    assert sorted(w["indices_a"]) != sorted(w["indices_b"])
    pa = ctx.one_vec
    for row in w["multiset_a"]:
        pa = ctx.mul(pa, np.asarray(row, dtype=np.int64))
    pb = ctx.one_vec
    for row in w["multiset_b"]:
        pb = ctx.mul(pb, np.asarray(row, dtype=np.int64))
    assert (ctx.proj_canon(pa[None, :])[0] == ctx.proj_canon(pb[None, :])[0]).all()
    assert (ctx.proj_canon(pa[None, :])[0] == np.asarray(w["product"])).all()


def test_routes_agree_on_every_dim2_subspace_of_f16():
    ctx = make_field(2, 1, 4)
    spaces = {}
    vecs = [np.asarray(v, dtype=np.int64) for v in itertools.product(range(2), repeat=4)]
    vecs = [v for v in vecs if v.any()]
    for u, v in itertools.combinations(vecs, 2):
        W = span(ctx, [u, v])
        if W.dim == 2:
            spaces[W.fingerprint()] = W
    assert len(spaces) == 35
    sidon_count = 0
    for W in spaces.values():
        a = is_sidon_intersection(W).verdict
        b = is_r_sidon(W, 2).verdict
        assert a == b
        sidon_count += a
    # the 5 flats of the degree-2 subfield are the only failures
    assert sidon_count == 30


def test_r_sidon_profile_stops_at_first_failure():
    V = graph_space_f2_9()
    profile = r_sidon_profile(V, 5)
    assert [(rep.r, rep.verdict) for rep in profile] == [(2, True), (3, False)]
    assert profile[-1].witness is not None


def test_r_one_is_always_satisfied():
    ctx = make_field(2, 1, 6)
    rep = is_r_sidon(subfield_space(ctx, 2), 1)
    assert rep.verdict


def test_r_below_one_rejected():
    ctx = make_field(2, 1, 6)
    with pytest.raises(ValueError):
        is_r_sidon(subfield_space(ctx, 2), 0)


def test_product_budget_error_carries_required():
    V = graph_space_f2_9()
    with pytest.raises(BudgetError) as ei:
        is_r_sidon(V, 3, budget=10)
    assert ei.value.required == 84  # C(7 + 2, 3)


def test_intersection_budget_error():
    V = graph_space_f2_9()
    with pytest.raises(BudgetError) as ei:
        is_sidon_intersection(V, budget=10)
    assert ei.value.required == 511


def test_report_round_trip():
    V = graph_space_f2_9()
    d = is_r_sidon(V, 2).to_dict()
    assert set(d) == {"fingerprint", "r", "verdict", "method", "witness", "details"}
    assert d["r"] == 2 and d["verdict"] is True


def test_max_span_bound_values():
    assert max_span_bound(9, 3, 2) == 6
    assert max_span_bound(9, 3, 3) == 9
    assert max_span_bound(49, 4, 3) == 20
    assert max_span_bound(6, 3, 2) == 6


def test_is_max_span_on_graph():
    V = graph_space_f2_9()
    assert is_max_span(V, 2) == (True, 6, 6)
    ok, d, bound = is_max_span(V, 3)
    assert (ok, d, bound) == (False, 8, 9)


def test_audit_monomial_graph_is_clean():
    V = graph_space_f2_9()
    audit = audit_bounds(V, r_sidon={2: "products"})
    assert audit.ok
    assert audit.violations == ()
    assert audit.dims == (3, 6, 8, 9)
    assert audit.t == 4 and audit.t_bar == 4
    assert audit.normalized  # the graph misses 1, so it was rescaled
    names = {c.name for c in audit.checks}
    assert {"upper", "kneser-step", "span-lower", "k-bound", "dim-cap"} <= names
    d = audit.to_dict()
    assert d["ok"] is True
    assert len(d["checks"]) == len(audit.checks)


def test_audit_is_scale_invariant():
    V = graph_space_f2_9()
    al = find_generator(V.ctx)
    W = scale(V, al)
    a = audit_bounds(V, r_sidon={2: "products"})
    b = audit_bounds(W, r_sidon={2: "products"})
    assert a.dims == b.dims
    assert a.t == b.t and a.t_bar == b.t_bar
    assert a.stabilizer_degrees == b.stabilizer_degrees


def test_audit_subfield_without_hypotheses():
    ctx = make_field(2, 1, 6)
    audit = audit_bounds(subfield_space(ctx, 3))
    assert audit.ok
    assert audit.dims == (3,)
    assert audit.t == 1
    # no sidon vouching, so only the unconditional checks appear
    assert all(c.hypothesis == "none" for c in audit.checks)


def test_audit_reads_the_sidon_hypothesis_from_r_sidon():
    V = monomial(2, 3, 1, 4, 3).space  # vouched 3-Sidon by its construction

    def tags(audit):
        return {(c.name, c.hypothesis) for c in audit.checks}

    vouched = tags(audit_bounds(V, r_sidon={3: "s"}))
    assert {("span-lower", "sidon:s"), ("k-bound", "sidon:s"), ("dim-cap", "r-sidon:s")} <= vouched
    assert {h for _, h in tags(audit_bounds(V))} == {"none"}
    # r-Sidon is closed downward: the Sidon checks carry the source of the smallest order
    both = tags(audit_bounds(V, r_sidon={3: "b", 2: "a"}))
    assert {h for name, h in both if name == "span-lower"} == {"sidon:a"}
    # order 1 vouches for nothing beyond its dimension cap
    assert {h for _, h in tags(audit_bounds(V, r_sidon={1: "x"}))} == {"none", "r-sidon:x"}


def test_audit_zero_space_rejected():
    ctx = make_field(2, 1, 6)
    with pytest.raises(ValueError):
        audit_bounds(span(ctx, []))
