"""Orbit code metrics, semilinear equivalence, and matrix certificates."""

import numpy as np
import pytest

import sidonspace.subspace as subspace_mod
from sidonspace.constructions import trace_space
from sidonspace.errors import BudgetError, ConstructionError
from sidonspace.field import FieldElement, find_generator, make_field
from sidonspace.orbit import (
    orbit_report,
    semilinear_equivalent,
    subspace_distance,
    verify_glk2_certificate,
)
from sidonspace.qpoly import LinearizedPoly, v_f_gamma
from sidonspace.subspace import (
    frob_image,
    full_space,
    scale,
    span,
    subfield_space,
)


def graph_setup():
    ctx = make_field(2, 1, 9)
    gamma = find_generator(ctx, over_m=3)
    f = LinearizedPoly.monomial(ctx, 3, 1)
    return ctx, gamma, f, v_f_gamma(f, gamma)


def test_subspace_distance():
    ctx = make_field(2, 1, 4)
    e = np.eye(4, dtype=np.int64)
    U = span(ctx, [e[0], e[1]])
    W = span(ctx, [e[1], e[2], e[3]])
    assert subspace_distance(U, W) == 3
    assert subspace_distance(U, U) == 0
    assert subspace_distance(U, span(ctx, [])) == 2
    other = make_field(2, 1, 6)
    with pytest.raises(ValueError):
        subspace_distance(U, subfield_space(other, 2))


def test_orbit_report_sidon_graph():
    ctx, gamma, f, V = graph_setup()
    rep = orbit_report(V)
    assert rep.dim == 3
    assert rep.field_of_linearity == 1
    assert rep.orbit_size == 511
    assert rep.min_distance == 4  # 2k - 2 with k = 3
    assert rep.max_intersection_dim == 1
    assert rep.max_intersection_dim_nonbase == 1
    assert rep.sidon is True
    d = rep.to_dict()
    assert d["orbit_size"] == 511 and d["sidon"] is True


def test_orbit_report_subfield_line():
    ctx = make_field(2, 1, 6)
    rep = orbit_report(subfield_space(ctx, 2))
    # the 21 flats of F_4 form a spread: moving intersections are trivial
    assert rep.field_of_linearity == 2
    assert rep.orbit_size == 21
    assert rep.min_distance == 4
    assert rep.max_intersection_dim == 0
    assert rep.max_intersection_dim_nonbase == 2
    assert rep.sidon is False


def test_orbit_report_full_space():
    ctx = make_field(2, 1, 6)
    rep = orbit_report(full_space(ctx))
    assert rep.field_of_linearity == 6
    assert rep.orbit_size == 1
    assert rep.min_distance is None
    assert rep.max_intersection_dim is None
    assert rep.max_intersection_dim_nonbase == 6
    assert rep.sidon is False


def test_orbit_report_rejects_zero_space():
    ctx = make_field(2, 1, 6)
    with pytest.raises(ValueError):
        orbit_report(span(ctx, []))


def test_semilinear_self_equivalence():
    ctx, gamma, f, V = graph_setup()
    alpha, j = semilinear_equivalent(V, V)
    assert alpha == ctx.one and j == 0


def test_semilinear_scaled_and_frobenius_images():
    ctx, gamma, f, V = graph_setup()
    U = scale(V, gamma)
    res = semilinear_equivalent(U, V)
    assert res is not None
    alpha, j = res
    assert scale(frob_image(V, j), alpha) == U
    res2 = semilinear_equivalent(V, frob_image(V, 1))
    assert res2 is not None
    alpha2, j2 = res2
    assert (alpha2, j2) == (ctx.one, 8)


def test_semilinear_inequivalent_spaces():
    ctx, gamma, f, V = graph_setup()
    # equivalence preserves the Sidon property; the subfield lacks it
    assert semilinear_equivalent(V, subfield_space(ctx, 3)) is None


def test_semilinear_dim_mismatch_and_zero():
    ctx = make_field(2, 1, 6)
    assert semilinear_equivalent(subfield_space(ctx, 2), subfield_space(ctx, 3)) is None
    alpha, j = semilinear_equivalent(span(ctx, []), span(ctx, []))
    assert alpha == ctx.one and j == 0


def test_semilinear_budget():
    ctx, gamma, f, V = graph_setup()
    with pytest.raises(BudgetError) as ei:
        semilinear_equivalent(V, V, budget=100)
    assert ei.value.required == 9 * 511


def test_semilinear_budget_is_checked_before_any_point_is_built(monkeypatch):
    # the candidates come from the points of U; positions from the field's point list
    monkeypatch.setattr(subspace_mod, "all_projective_points", _no_points)
    monkeypatch.setattr(subspace_mod.Subspace, "projective_points", _no_points)
    ctx, gamma, f, V = graph_setup()
    with pytest.raises(BudgetError):
        semilinear_equivalent(V, V, budget=100)


def test_semilinear_budget_counts_points_beyond_the_enumeration_cap():
    # F_2^23 has more projective points than all_projective_points' default cap of 2^22
    ctx = make_field(2, 1, 23)
    V = span(ctx, [ctx.one])
    with pytest.raises(BudgetError) as ei:
        semilinear_equivalent(V, V, budget=1000)
    assert ei.value.required == 23 * (2**23 - 1)


def _no_points(*args, **kwargs):
    raise AssertionError("projective points were built")


def cert_setup():
    ctx, gamma, f, V = graph_setup()
    delta = ctx.element(ctx.subfield_generator(3))
    g = LinearizedPoly.from_terms(ctx, 3, {0: delta, 1: 1})
    gs = FieldElement(ctx, ctx.frob_p(gamma.vec, 2))
    xi = gs / (ctx.one + delta * gs)
    A = ((ctx.one, delta), (ctx.zero, ctx.one))
    return ctx, gamma, delta, f, g, xi, A


def test_glk2_certificate_valid():
    ctx, gamma, delta, f, g, xi, A = cert_setup()
    assert verify_glk2_certificate(f, g, gamma, xi, A, 2) is True
    # the realized identity: (1 + delta*gamma^(p^2))^-1 * V_f^(p^2) = V_{g,xi}
    gs = FieldElement(ctx, ctx.frob_p(gamma.vec, 2))
    lam = (ctx.one + delta * gs).inverse()
    moved = scale(frob_image(v_f_gamma(f, gamma), 2), lam)
    assert moved == v_f_gamma(g, xi)


def test_glk2_certificate_identity():
    ctx, gamma, delta, f, g, xi, A = cert_setup()
    assert verify_glk2_certificate(f, f, gamma, gamma, ((1, 0), (0, 1)), 0) is True


def test_glk2_certificate_wrong_data_fails_consistently():
    ctx, gamma, delta, f, g, xi, A = cert_setup()
    assert xi != gamma
    assert verify_glk2_certificate(f, g, gamma, gamma, A, 2) is False
    g2 = LinearizedPoly.monomial(ctx, 3, 2)
    assert verify_glk2_certificate(f, g2, gamma, xi, A, 2) is False


def test_glk2_certificate_rejections():
    ctx, gamma, delta, f, g, xi, A = cert_setup()
    with pytest.raises(ConstructionError):
        verify_glk2_certificate(f, g, gamma, xi, ((1, 1), (1, 1)), 2)  # singular
    with pytest.raises(ConstructionError):
        verify_glk2_certificate(f, g, delta, xi, A, 2)  # gamma inside F_8
    with pytest.raises(ConstructionError):
        verify_glk2_certificate(f, g, gamma, delta, A, 2)  # xi inside F_8
    with pytest.raises(ConstructionError):
        verify_glk2_certificate(f, g, gamma, xi, ((ctx.one, delta), (gamma, ctx.one)), 2)


def test_orbit_report_ranks_at_most_4096_alphas_at_a_time(monkeypatch):
    # only pairs of points of V are ranked: 7 * 6 for a 3-dim space of F_2^13, not its 8,191 points
    sizes = []
    real = subspace_mod.batch_rank

    def recording(mats, p):
        sizes.append(len(mats))
        return real(mats, p)

    monkeypatch.setattr(subspace_mod, "batch_rank", recording)
    ctx = make_field(2, 1, 13)
    g = find_generator(ctx)
    V = span(ctx, [ctx.one, g, g * g])
    assert orbit_report(V).to_dict() == {
        "fingerprint": "45ab204d8112",
        "dim": 3,
        "field_of_linearity": 1,
        "orbit_size": 8191,
        "min_distance": 2,
        "max_intersection_dim": 2,
        "max_intersection_dim_nonbase": 2,
        "sidon": False,
    }
    assert sum(sizes) == 42 and max(sizes) <= 4096
    # F_(2^7) in F_2^14: 127 * 126 = 16,002 pairs, fewer than the 16,382 points other than 1
    sizes.clear()
    rep = orbit_report(subfield_space(make_field(2, 1, 14), 7))
    assert (rep.field_of_linearity, rep.orbit_size) == (7, 129)
    assert sum(sizes) == 16002 and max(sizes) <= 4096


def test_trace_space_with_no_subfield_alphas_still_builds():
    # k = 1 leaves no alpha of F_q other than 1 to measure
    rec = trace_space(2, 1, 3)
    assert rec.measured["subfield_intersection_dims"] == []
    assert rec.measured["subfield_alphas"] == 0

