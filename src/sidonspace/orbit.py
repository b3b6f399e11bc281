"""Cyclic-orbit metrics for subspaces and semilinear equivalence tools.

The multiplicative group of the ambient field acts on subspaces by
scaling; the orbit of V is a constant-dimension cyclic code whose size and
minimum injection distance are controlled by the scaling stabilizer and
the worst intersection dim(V, alpha V) over alpha with alpha V != V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, within_budget
from .field import FieldElement
from .linalg import rref
from .qpoly import LinearizedPoly, v_f_gamma
from .sidon import is_r_sidon
from .subspace import (
    Subspace,
    frob_image,
    intersect,
    pair_intersection_dims,
    point_positions,
    quotient_pairs,
    same_field,
    scale,
    stabilizer,
)

_EQUIV_BUDGET = 1 << 24


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """Injection-metric style distance dim U + dim V - 2 dim(U intersect V)."""
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
    """Metrics of alpha -> dim(V intersect alpha V) over every alpha.

    Only the alpha = v/u over ordered pairs of points u, v of V can meet V
    (see :func:`quotient_pairs`); every other alpha has V intersect
    alpha V = 0. A stabilizing alpha permutes the points of V, so it is
    v/u for exactly N pairs, and the count of stabilizing classes is the
    number of pairs of full dimension (with the N pairs u = v) over N
    (Bachoc, Serra, Zemor 2017; Roth, Raviv, Tamo 2018).

    Computes the orbit size (validated against the stabilizer subfield),
    the minimum distance of the orbit code (2k - 2 max over alpha V != V),
    and the worst intersection over alpha outside F_q, whose being <= 1 is
    the Sidon criterion; the verdict is cross-checked against the
    product-collision route. Fields with more than 2^22 projective points
    raise BudgetError.
    """
    ctx = V.ctx
    k = V.dim
    if k == 0:
        raise ValueError("orbit of the zero space is not meaningful")
    rows, pairs, per_alpha = quotient_pairs(V)
    dims = pair_intersection_dims(V, rows, pairs)

    full = dims == k
    stab_pairs = int(full.sum()) + per_alpha  # alpha = 1 takes per_alpha unlisted pairs
    npts = (ctx.order - 1) // (ctx.q - 1)
    if stab_pairs % per_alpha or npts % (stab_pairs // per_alpha):
        raise AssertionError("the point count is not a multiple of the stabilizer class count")
    stab_classes = stab_pairs // per_alpha
    orbit_size = npts // stab_classes

    h = stabilizer(V)
    if stab_classes != (ctx.q**h - 1) // (ctx.q - 1):
        raise AssertionError("sweep stabilizer count disagrees with the stabilizer subfield")
    if orbit_size != (ctx.order - 1) // (ctx.q**h - 1):
        raise AssertionError("orbit size disagrees with the stabilizer subfield")

    # an alpha outside the pairs adds a 0, which no maximum over dims >= 0 needs
    max_nonbase = int(dims.max(initial=0))
    if stab_classes < npts:
        max_moving = int(dims[~full].max(initial=0))
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

    sigma ranges over all a*n powers of the p-Frobenius. alpha W = U for
    W = V^sigma puts alpha * w0 in U for the first basis row w0 of W, so
    the only candidates are alpha = u / w0 over the projective points u of
    U. The hit returned is the one with the smallest sigma, then the
    smallest position in :func:`all_projective_points` order, as
    (alpha, sigma_exponent), re-verified before returning. None means
    definitively inequivalent. The budget bounds a*n times the number of
    projective points of the field; above it BudgetError is raised before
    any point is built.
    """
    ctx = same_field(U, V)
    if U.dim != V.dim:
        return None
    if U.dim == 0:
        return (ctx.one, 0)
    n_aut = ctx.a * ctx.n
    within_budget(n_aut * ((ctx.order - 1) // (ctx.q - 1)), budget, "candidate pairs")
    pts = U.projective_points()
    chunk = max(1, 4096 // U.basis.shape[0])  # alpha * basis-row products per block
    for j in range(n_aut):
        W = frob_image(V, j)
        cands = ctx.proj_canon(ctx.mul_many(pts, ctx.inv(W.basis[0])))
        hits = np.concatenate([
            ~U.reduce_rows(ctx.mul_many(cands[lo : lo + chunk, None], W.basis)).any(axis=(1, 2))
            for lo in range(0, cands.shape[0], chunk)
        ])
        if hits.any():
            cands = cands[hits]
            alpha = FieldElement(ctx, cands[np.argmin(point_positions(ctx, cands))])
            if scale(W, alpha) != U:
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
    xi = ctx.element(xi)
    if f.ctx != ctx or g.ctx != ctx or f.k != g.k:
        raise ValueError("f and g must act on the same subfield of the same field")
    k = f.k
    (c, d), (a, b) = A
    a, b, c, d = (ctx.subfield_element(x, k, what) for x, what in zip((a, b, c, d), "abcd"))
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
    WA_left = (ctx.mul_many(B, c.vec) + ctx.mul_many(gB, a.vec)) % ctx.p
    WA_right = (ctx.mul_many(B, d.vec) + ctx.mul_many(gB, b.vec)) % ctx.p
    WA = np.hstack([WA_left, WA_right])
    pairs_eq = np.array_equal(rref(Us, ctx.p)[0], rref(WA, ctx.p)[0])
    cond_pairs = bool(pairs_eq and xi == xi_formula)

    # independent subspace-level check
    Vf = v_f_gamma(f, gamma)
    Vg = v_f_gamma(g, xi)
    moved = scale(frob_image(Vf, sigma), lam)
    cond_spaces = moved == Vg

    if cond_pairs != cond_spaces:
        raise AssertionError(
            f"pair-space condition ({cond_pairs}) and subspace identity "
            f"({cond_spaces}) disagree"
        )
    return cond_pairs
