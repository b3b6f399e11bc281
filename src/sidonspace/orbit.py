"""Cyclic-orbit metrics for subspaces and semilinear equivalence tools.

The multiplicative group of the ambient field acts on subspaces by
scaling; the orbit of V is a constant-dimension cyclic code whose size and
minimum injection distance are controlled by the scaling stabilizer and
the worst intersection dim(V, alpha V) over alpha with alpha V != V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import _as_subfield_element
from .errors import BudgetError, ConstructionError
from .field import FieldElement
from .linalg import rref
from .qpoly import LinearizedPoly, v_f_gamma
from .sidon import is_r_sidon
from .subspace import (
    Subspace,
    all_projective_points,
    frob_image,
    intersect,
    intersection_dims_with_scaled,
    scale,
    stabilizer,
)

_EQUIV_BUDGET = 1 << 24


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """Injection-metric style distance dim U + dim V - 2 dim(U intersect V)."""
    if U.ctx != V.ctx:
        raise ValueError("subspaces live in different fields")
    return U.dim + V.dim - 2 * intersect(U, V).dim


@dataclass(frozen=True)
class OrbitReport:
    """Metrics of the scaling orbit of one subspace."""

    fingerprint: str
    dim: int
    field_of_linearity: int
    orbit_size: int
    min_distance: int | None
    max_intersection_dim: int | None
    max_intersection_dim_nonbase: int
    sidon: bool

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "dim": self.dim,
            "field_of_linearity": self.field_of_linearity,
            "orbit_size": self.orbit_size,
            "min_distance": self.min_distance,
            "max_intersection_dim": self.max_intersection_dim,
            "max_intersection_dim_nonbase": self.max_intersection_dim_nonbase,
            "sidon": self.sidon,
        }


def orbit_report(V: Subspace) -> OrbitReport:
    """Full projective sweep of alpha -> dim(V intersect alpha V).

    Computes the orbit size (validated against the stabilizer subfield),
    the minimum distance of the orbit code (2k - 2 max over alpha V != V),
    and the worst intersection over alpha outside F_q, whose being <= 1 is
    the Sidon criterion; the verdict is cross-checked against the
    product-collision route.
    """
    ctx = V.ctx
    k = V.dim
    if k == 0:
        raise ValueError("orbit of the zero space is not meaningful")
    pts = all_projective_points(ctx)
    one = ctx.proj_canon(ctx.one_vec[None, :])[0]
    dims = intersection_dims_with_scaled(V, pts)

    full = dims == k
    stab_classes = int(full.sum())
    npts = pts.shape[0]
    if npts % stab_classes:
        raise AssertionError("stabilizer class count does not divide the point count")
    orbit_size = npts // stab_classes

    h = stabilizer(V).degree
    if stab_classes != (ctx.q**h - 1) // (ctx.q - 1):
        raise AssertionError("sweep stabilizer count disagrees with the stabilizer subfield")
    if orbit_size != (ctx.order - 1) // (ctx.q**h - 1):
        raise AssertionError("orbit size disagrees with the stabilizer subfield")

    nonbase = ~(pts == one).all(axis=1)
    max_nonbase = int(dims[nonbase].max()) if nonbase.any() else 0
    moving = ~full
    if moving.any():
        max_moving = int(dims[moving].max())
        min_distance = 2 * k - 2 * max_moving
    else:
        max_moving = None
        min_distance = None

    sidon = k >= 1 and max_nonbase <= 1
    verdict = is_r_sidon(V, 2).verdict
    if verdict != sidon:
        raise AssertionError(
            f"intersection sweep says sidon={sidon} but products say {verdict}"
        )
    return OrbitReport(
        fingerprint=V.fingerprint(),
        dim=k,
        field_of_linearity=h,
        orbit_size=orbit_size,
        min_distance=min_distance,
        max_intersection_dim=max_moving,
        max_intersection_dim_nonbase=max_nonbase,
        sidon=sidon,
    )


def semilinear_equivalent(
    U: Subspace, V: Subspace, *, budget: int = _EQUIV_BUDGET
) -> tuple[FieldElement, int] | None:
    """Search (alpha, sigma) with U = alpha * V^sigma, exhaustively.

    sigma ranges over all a*n powers of the p-Frobenius, alpha over the
    projective points, in that nesting order; the first hit is returned
    as (alpha, sigma_exponent) and re-verified before returning. None
    means definitively inequivalent. Work above the budget raises
    BudgetError before any sweep starts.
    """
    ctx = U.ctx
    if V.ctx != ctx:
        raise ValueError("subspaces live in different fields")
    if U.dim != V.dim:
        return None
    if U.dim == 0:
        return (ctx.one, 0)
    n_aut = ctx.a * ctx.n
    pts = all_projective_points(ctx)
    work = n_aut * pts.shape[0]
    if work > budget:
        raise BudgetError(
            f"equivalence sweep needs {work} candidate pairs (budget {budget})",
            required=work,
        )
    r = U.basis.shape[0]
    for j in range(n_aut):
        W = frob_image(V, j, p_power=True)
        B = W.basis
        # alpha * basis-row products for a chunk of candidate alphas
        chunk = max(1, 4096 // max(r, 1))
        for lo in range(0, pts.shape[0], chunk):
            al = pts[lo : lo + chunk]
            c = al.shape[0]
            left = np.repeat(al, r, axis=0)
            right = np.tile(B, (c, 1))
            prods = ctx.mul_many(left, right)
            resid = U.reduce_rows(prods).reshape(c, r, ctx.dim)
            hits = ~resid.any(axis=(1, 2))
            if hits.any():
                idx = int(np.flatnonzero(hits)[0])
                alpha = FieldElement(ctx, al[idx])
                cand = scale(W, alpha)
                if cand != U:
                    raise AssertionError("equivalence candidate failed re-verification")
                return (alpha, j)
    return None


def verify_glk2_certificate(
    f: LinearizedPoly,
    g: LinearizedPoly,
    gamma: FieldElement,
    xi: FieldElement,
    A,
    sigma: int,
) -> bool:
    """Check a 2x2 matrix certificate for graph-space equivalence.

    A is ((c, d), (a, b)) with entries in F_{q^k}, acting on row pairs by
    (w, w') * A = (c w + a w', d w + b w'). The certificate asserts
    xi = (a + b gamma^sigma) / (c + d gamma^sigma) together with
    U_f^sigma = U_g * A on the pair spaces, and when valid it realizes
    lambda * (V_{f,gamma})^sigma = V_{g,xi} with
    lambda = 1 / (c + d gamma^sigma), sigma acting as x -> x^(p^sigma).
    The pair-space condition and the subspace identity are evaluated
    independently and must agree.
    """
    ctx = gamma.ctx
    if xi.ctx != ctx:
        raise ValueError("gamma and xi live in different fields")
    if f.ctx != ctx or g.ctx != ctx or f.k != g.k:
        raise ValueError("f and g must act on the same subfield of the same field")
    k = f.k
    (c, d), (a, b) = A
    a = _as_subfield_element(ctx, k, a, "a")
    b = _as_subfield_element(ctx, k, b, "b")
    c = _as_subfield_element(ctx, k, c, "c")
    d = _as_subfield_element(ctx, k, d, "d")
    det = a * d - b * c
    if det.is_zero():
        raise ConstructionError("certificate matrix is singular")
    if ctx.in_subfield(gamma.vec, k) or ctx.in_subfield(xi.vec, k):
        raise ConstructionError("gamma and xi must be F_(q^k)-independent from 1")
    gs = FieldElement(ctx, ctx.frob_p(gamma.vec, sigma))
    den = c + d * gs
    if den.is_zero():
        raise ConstructionError("certificate denominator c + d*gamma^sigma is zero")
    lam = den.inverse()
    xi_formula = (a + b * gs) * lam

    # pair-space condition U_f^sigma == U_g * A over F_p rows of width 2*dim
    B = ctx.subfield_fp_basis(k)
    fB = f.evaluate_many(B)
    gB = g.evaluate_many(B)
    for name, img in (("f", fB), ("g", gB)):
        if not bool(np.asarray(ctx.in_subfield(img, k)).all()):
            raise ConstructionError(f"{name} must map F_(q^{k}) into itself")
    Us = np.hstack(
        [ctx.frob_p(B, sigma), ctx.frob_p(fB, sigma)]
    )
    WA_left = (ctx.mul_many(B, np.broadcast_to(c.vec, B.shape))
               + ctx.mul_many(gB, np.broadcast_to(a.vec, gB.shape))) % ctx.p
    WA_right = (ctx.mul_many(B, np.broadcast_to(d.vec, B.shape))
                + ctx.mul_many(gB, np.broadcast_to(b.vec, gB.shape))) % ctx.p
    WA = np.hstack([WA_left, WA_right])
    pairs_eq = np.array_equal(rref(Us, ctx.p)[0], rref(WA, ctx.p)[0])
    cond_pairs = bool(pairs_eq and xi == xi_formula)

    # independent subspace-level check
    Vf = v_f_gamma(f, gamma)
    Vg = v_f_gamma(g, xi)
    moved = scale(frob_image(Vf, sigma, p_power=True), lam)
    cond_spaces = moved == Vg

    if cond_pairs != cond_spaces:
        raise AssertionError(
            f"pair-space condition ({cond_pairs}) and subspace identity "
            f"({cond_spaces}) disagree"
        )
    return cond_pairs
