"""The pair form of the alpha sweep against the full sweep over every alpha.

``is_sidon_intersection``, ``orbit_report`` and ``semilinear_equivalent``
rank only the alpha = v/u over pairs of points u, v of a space. The
reference functions below sweep every projective point of the field
instead, as the deciders once did, and must give the same results.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sidonspace.errors import BudgetError
from sidonspace.field import FieldElement, make_field
from sidonspace.orbit import OrbitReport, orbit_report, semilinear_equivalent
from sidonspace.sidon import SidonReport, is_sidon_intersection
from sidonspace.subspace import (
    all_projective_points,
    frob_image,
    intersect,
    intersection_dims_with_scaled,
    off_base_field,
    point_positions,
    quotient_pairs,
    random_subspace,
    scale,
    span,
    stabilizer,
)

# (p, a, n): F_2^6, F_2^9, F_3^5 and F_(4^3)
FIELDS = [(2, 1, 6), (2, 1, 9), (3, 1, 5), (2, 2, 3)]


def reference_sidon(V) -> SidonReport:
    ctx = V.ctx
    pts = all_projective_points(ctx)
    pts = pts[off_base_field(ctx, pts)]
    checked, witness = 0, None
    for lo in range(0, pts.shape[0], 4096):
        batch = pts[lo : lo + 4096]
        dims = intersection_dims_with_scaled(V, batch)
        checked += batch.shape[0]
        bad = np.nonzero(dims >= 2)[0]
        if bad.size:
            al = FieldElement(ctx, batch[bad[0]])
            inter = intersect(V, scale(V, al))
            witness = {
                "alpha": al.coeffs,
                "intersection_dim": inter.dim,
                "intersection_basis": [[int(c) for c in row] for row in inter.basis],
            }
            break
    return SidonReport(V.fingerprint(), 2, witness is None, "intersection", witness,
                       {"alphas_checked": checked})


def reference_orbit(V) -> OrbitReport:
    ctx, k = V.ctx, V.dim
    pts = all_projective_points(ctx)
    dims = intersection_dims_with_scaled(V, pts)
    full = dims == k
    nonbase = off_base_field(ctx, pts)
    max_nonbase = int(dims[nonbase].max()) if nonbase.any() else 0
    max_moving = int(dims[~full].max()) if (~full).any() else None
    return OrbitReport(
        fingerprint=V.fingerprint(),
        dim=k,
        field_of_linearity=stabilizer(V),
        orbit_size=pts.shape[0] // int(full.sum()),
        min_distance=None if max_moving is None else 2 * k - 2 * max_moving,
        max_intersection_dim=max_moving,
        max_intersection_dim_nonbase=max_nonbase,
        sidon=max_nonbase <= 1,
    )


def reference_semilinear(U, V):
    ctx = U.ctx
    if U.dim != V.dim:
        return None
    pts = all_projective_points(ctx)
    for j in range(ctx.a * ctx.n):
        B = frob_image(V, j).basis
        hits = ~U.reduce_rows(ctx.mul_many(pts[:, None], B)).any(axis=(1, 2))
        if hits.any():
            return (pts[np.flatnonzero(hits)[0]].tolist(), j)
    return None


def nonzero_element(ctx, rng):
    while (x := ctx.random_element(rng)).is_zero():
        pass
    return x


def draw_space(ctx, kind: str, k: int, m_index: int, rng):
    """A random k-dim space ("random"), or alpha times the F_(q^m)-span of
    some random elements ("module"): for one element a scaled subfield, for
    m = n the full space; either way a stabilizer of degree m."""
    if kind == "random":
        return random_subspace(ctx, 1 + k % ctx.n, rng)
    m = ctx.subfield_degrees[m_index % len(ctx.subfield_degrees)]
    gens = [nonzero_element(ctx, rng).vec for _ in range(1 + k % (ctx.n // m))]
    sub = ctx.subfield_elements(m)
    V = span(ctx, ctx.mul_many(sub[:, None], np.array(gens)).reshape(-1, ctx.dim))
    return scale(V, nonzero_element(ctx, rng))


def equivalence(res):
    return None if res is None else (res[0].coeffs, res[1])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    kind=st.sampled_from(["random", "module"]),
    k=st.integers(0, 8),
    m_index=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(field=(2, 1, 9), kind="random", k=0, m_index=0, seed=0)  # a 1-dim space
@example(field=(2, 1, 9), kind="module", k=0, m_index=1, seed=0)  # F_8 scaled, stabilizer 7 on 42 pairs
@example(field=(2, 1, 9), kind="random", k=5, m_index=0, seed=1)  # k = 6 takes the (1, alpha) list
@example(field=(2, 2, 3), kind="module", k=0, m_index=1, seed=2)  # the full space of F_(4^3)
@example(field=(3, 1, 5), kind="module", k=0, m_index=1, seed=3)  # the full space of F_3^5
def test_pair_sweep_matches_the_full_sweep(field, kind, k, m_index, seed):
    ctx = make_field(*field)
    rng = np.random.default_rng(seed)
    V = draw_space(ctx, kind, k, m_index, rng)
    assert is_sidon_intersection(V) == reference_sidon(V)
    assert orbit_report(V) == reference_orbit(V)
    U = frob_image(scale(V, nonzero_element(ctx, rng)), int(rng.integers(ctx.dim)))
    W = random_subspace(ctx, V.dim, rng)
    for A, B in ((V, U), (U, V), (V, W)):
        got = equivalence(semilinear_equivalent(A, B))
        assert got == reference_semilinear(A, B)


def test_random_3_dim_spaces_of_f2_6_are_both_sidon_and_not():
    ctx = make_field(2, 1, 6)
    verdicts = {reference_sidon(random_subspace(ctx, 3, np.random.default_rng(s))).verdict
                for s in range(8)}
    assert verdicts == {True, False}


@pytest.mark.parametrize("p,a,n", [(2, 1, 6), (3, 1, 5), (5, 1, 3), (7, 1, 2), (2, 2, 3), (3, 2, 2)])
def test_point_positions_are_the_indices_of_all_projective_points(p, a, n):
    ctx = make_field(p, a, n)
    pts = all_projective_points(ctx)
    assert (point_positions(ctx, pts) == np.arange(pts.shape[0])).all()


@pytest.mark.parametrize(
    "field,k,pairs,per_alpha",
    [
        ((2, 1, 9), 3, 42, 7),  # 7 points: 42 pairs instead of 510 alphas
        ((3, 1, 9), 3, 156, 13),
        ((2, 2, 5), 2, 20, 5),
        ((2, 1, 9), 5, 510, 1),  # 31 * 30 pairs would exceed the 510 alphas
        ((2, 1, 9), 9, 510, 1),
    ],
)
def test_quotient_pairs_takes_the_shorter_list(field, k, pairs, per_alpha):
    ctx = make_field(*field)
    V = random_subspace(ctx, k, np.random.default_rng(0))
    rows, got, per = quotient_pairs(V)
    assert (got.shape, per) == ((pairs, 2), per_alpha)
    assert not (got[:, 0] == got[:, 1]).any()


def test_quotient_pairs_checks_the_budget_against_every_point_of_the_field():
    V = random_subspace(make_field(2, 1, 9), 3, np.random.default_rng(0))
    with pytest.raises(BudgetError) as ei:
        is_sidon_intersection(V, budget=510)
    assert ei.value.required == 511


def test_a_sidon_verdict_inverts_and_powers_nothing(monkeypatch):
    # only an offending pair needs its alpha = v/u; a Sidon space has none
    def refuse(*args, **kwargs):
        raise AssertionError("a field inverse or power was taken")

    ctx = make_field(3, 1, 9)
    V = random_subspace(ctx, 3, np.random.default_rng(0))
    for name in ("inv", "pow_many", "pow_elem"):
        monkeypatch.setattr(type(ctx), name, refuse)
    rep = is_sidon_intersection(V)
    assert rep.verdict and rep.details["alphas_checked"] == 9840
