"""Sidon-type product properties of subspaces and bound audits.

Two independent verdict routes are kept deliberately separate:

* the intersection route sweeps scalars alpha and checks
  dim(V intersect alpha V) <= 1 outside the base field;
* the product route enumerates multisets of projective points of V and
  checks that their r-fold products land on pairwise distinct projective
  points.

Route agreement for r = 2 is itself a testable claim, so neither is
implemented in terms of the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BudgetError
from .field import FieldElement
from .subspace import (
    Subspace,
    all_projective_points,
    intersect,
    intersection_dims_with_scaled,
    power,
    scale,
    span_chain,
    stabilizer,
)

DEFAULT_BUDGET = 50_000_000


@dataclass(frozen=True)
class SidonReport:
    """Outcome of a property check, with enough context to replay it."""

    fingerprint: str
    r: int
    verdict: bool
    method: str
    witness: dict | None
    details: dict

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "r": self.r,
            "verdict": self.verdict,
            "method": self.method,
            "witness": self.witness,
            "details": self.details,
        }


def is_sidon_intersection(V: Subspace, *, budget: int = 1 << 22) -> SidonReport:
    """Sidon check by scalar sweep: dim(V ∩ alpha V) <= 1 off the base field.

    Scaling alpha by base-field units does not change alpha V, so only one
    representative per projective point is tested. A witness records the
    offending alpha and a basis of the too-large intersection.
    """
    ctx = V.ctx
    count = (ctx.order - 1) // (ctx.q - 1)
    if count > budget:
        raise BudgetError(
            f"{count} scalars exceed the sweep budget {budget}", required=count
        )
    pts = all_projective_points(ctx)
    one = ctx.proj_canon(ctx.one_vec[None, :])[0]
    pts = pts[~(pts == one).all(axis=1)]
    checked = 0
    chunk = 4096  # a False verdict counts alphas_checked through its batch
    for lo in range(0, pts.shape[0], chunk):
        batch = pts[lo : lo + chunk]
        dims = intersection_dims_with_scaled(V, batch)
        checked += batch.shape[0]
        bad = np.nonzero(dims >= 2)[0]
        if bad.size:
            al = FieldElement(ctx, batch[bad[0]])
            inter = intersect(V, scale(V, al))
            assert inter.dim >= 2
            witness = {
                "alpha": al.coeffs,
                "intersection_dim": inter.dim,
                "intersection_basis": [[int(c) for c in row] for row in inter.basis],
            }
            return SidonReport(
                fingerprint=V.fingerprint(),
                r=2,
                verdict=False,
                method="intersection",
                witness=witness,
                details={"alphas_checked": checked},
            )
    return SidonReport(
        fingerprint=V.fingerprint(),
        r=2,
        verdict=True,
        method="intersection",
        witness=None,
        details={"alphas_checked": checked},
    )


def is_r_sidon(V: Subspace, r: int, *, budget: int = DEFAULT_BUDGET) -> SidonReport:
    """Product-route check that r-fold products separate point multisets.

    Enumerates all multisets of r projective points of V in a fixed order;
    each product is reduced to its projective representative and hashed. A
    collision between two distinct multisets is re-verified and returned
    as the witness.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    ctx = V.ctx
    pts = V.projective_points()
    N = pts.shape[0]
    total = math.comb(N + r - 1, r)
    if total > budget:
        raise BudgetError(
            f"{total} point multisets exceed the product budget {budget}",
            required=total,
        )
    seen: dict[bytes, tuple[int, ...]] = {}
    it = itertools.combinations_with_replacement(range(N), r)
    checked = 0
    chunk = 8192  # a collision counts multisets_checked through its block
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        prod = pts[idx[:, 0]]
        for j in range(1, r):
            prod = ctx.mul_many(prod, pts[idx[:, j]])
        keys = ctx.proj_canon(prod)
        checked += idx.shape[0]
        for row in range(idx.shape[0]):
            key = keys[row].tobytes()
            ms = tuple(block[row])
            prev = seen.get(key)
            if prev is not None:
                witness = _verify_product_collision(ctx, pts, prev, ms)
                return SidonReport(
                    fingerprint=V.fingerprint(),
                    r=r,
                    verdict=False,
                    method="products",
                    witness=witness,
                    details={"points": N, "multisets_checked": checked},
                )
            seen[key] = ms
    return SidonReport(
        fingerprint=V.fingerprint(),
        r=r,
        verdict=True,
        method="products",
        witness=None,
        details={"points": N, "multisets_checked": total},
    )


def _verify_product_collision(ctx, pts, ms_a, ms_b) -> dict:
    assert ms_a != ms_b, "collision must come from distinct multisets"
    pa = ctx.one_vec
    for i in ms_a:
        pa = ctx.mul(pa, pts[i])
    pb = ctx.one_vec
    for i in ms_b:
        pb = ctx.mul(pb, pts[i])
    ca = ctx.proj_canon(pa[None, :])[0]
    cb = ctx.proj_canon(pb[None, :])[0]
    assert (ca == cb).all(), "witness products must agree projectively"
    return {
        "multiset_a": [([int(c) for c in pts[i]]) for i in ms_a],
        "multiset_b": [([int(c) for c in pts[i]]) for i in ms_b],
        "indices_a": list(ms_a),
        "indices_b": list(ms_b),
        "product": [int(c) for c in ca],
    }


def is_sidon(V: Subspace, method: str = "intersection", **kw) -> SidonReport:
    """Sidon property through either route ("intersection" or "products")."""
    if method == "intersection":
        return is_sidon_intersection(V, **kw)
    if method == "products":
        return is_r_sidon(V, 2, **kw)
    raise ValueError(f"unknown method {method!r}")


def max_span_bound(n: int, k: int, r: int) -> int:
    return min(n, math.comb(k + r - 1, r))


def is_max_span(V: Subspace, r: int) -> tuple[bool, int, int]:
    """Whether dim V^r achieves min(n, C(k+r-1, r)); returns (ok, dim, bound)."""
    bound = max_span_bound(V.ctx.n, V.dim, r)
    d = power(V, r).dim
    return d == bound, d, bound


def r_sidon_profile(
    V: Subspace, r_max: int, *, budget: int = DEFAULT_BUDGET
) -> list[SidonReport]:
    """Reports for r = 2, 3, ... up to the first failure (or r_max).

    The property is closed downward in r, so stopping at the first failing
    order loses nothing.
    """
    out = []
    for r in range(2, r_max + 1):
        rep = is_r_sidon(V, r, budget=budget)
        out.append(rep)
        if not rep.verdict:
            break
    return out


# -- bound audits -----------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    params: dict
    lhs: float
    rhs: float
    ok: bool
    hypothesis: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ok": self.ok,
            "hypothesis": self.hypothesis,
        }


@dataclass(frozen=True)
class BoundAudit:
    fingerprint: str
    normalized: bool
    dims: tuple[int, ...]
    t: int | None
    t_bar: int | None
    stabilizer_degrees: tuple[int, ...]
    checks: tuple[BoundCheck, ...]

    @property
    def violations(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "normalized": self.normalized,
            "dims": list(self.dims),
            "t": self.t,
            "t_bar": self.t_bar,
            "stabilizer_degrees": list(self.stabilizer_degrees),
            "checks": [c.to_dict() for c in self.checks],
            "ok": self.ok,
        }


def audit_bounds(
    V: Subspace,
    *,
    sidon: bool | None = None,
    sidon_source: str = "",
    r_sidon: dict[int, str] | None = None,
    s_max: int | None = None,
) -> BoundAudit:
    """Audit the span-growth inequalities against a computed chain.

    The space is first scaled so that 1 lies in it (all quantities involved
    are invariant under scaling). Checks that depend on the Sidon property
    are only emitted when the caller vouches for it via ``sidon=True`` with
    a ``sidon_source`` tag; ``r_sidon`` likewise maps verified orders to
    their sources and feeds the dimension cap in terms of n/r.
    """
    if V.is_zero():
        raise ValueError("cannot audit the zero space")
    ctx = V.ctx
    normalized = False
    W = V
    u = FieldElement(ctx, V.basis[0])
    if not V.contains(ctx.one):
        W = scale(V, u.inverse())
        normalized = True
    chain = span_chain(W, s_max=s_max)
    k = W.dim
    n = ctx.n
    hs = tuple(stabilizer(lv).degree for lv in chain.levels)
    checks: list[BoundCheck] = []

    for s, lv in enumerate(chain.levels, start=1):
        bound = max_span_bound(n, k, s)
        checks.append(
            BoundCheck(
                name="upper",
                params={"s": s},
                lhs=lv.dim,
                rhs=bound,
                ok=lv.dim <= bound,
                hypothesis="none",
            )
        )

    for s in range(2, len(chain.levels) + 1):
        prev = chain.levels[s - 2].dim
        cur = chain.levels[s - 1].dim
        rhs = min(n, prev + k - hs[s - 1])
        checks.append(
            BoundCheck(
                name="kneser-step",
                params={"s": s},
                lhs=cur,
                rhs=rhs,
                ok=cur >= rhs,
                hypothesis="none",
            )
        )

    if sidon and k >= 3 and chain.t is not None:
        t = chain.t
        for s in range(2, min(t, len(chain.levels)) + 1):
            rhs = s * k - (s - 2) * hs[s - 1]
            cur = chain.levels[s - 1].dim
            checks.append(
                BoundCheck(
                    name="span-lower",
                    params={"s": s},
                    lhs=cur,
                    rhs=rhs,
                    ok=cur >= rhs,
                    hypothesis=f"sidon:{sidon_source or 'asserted'}",
                )
            )
        m_gen = chain.generated_field_degree
        if t >= 2:
            rhs = m_gen * (1 - 1 / t)
            checks.append(
                BoundCheck(
                    name="k-bound",
                    params={"t": t, "field_degree": m_gen},
                    lhs=k,
                    rhs=rhs,
                    ok=k <= rhs + 1e-9,
                    hypothesis=f"sidon:{sidon_source or 'asserted'}",
                )
            )
        from sympy import isprime

        if isprime(n):
            for s in range(2, min(t - 1, len(chain.levels)) + 1):
                cur = chain.levels[s - 1].dim
                checks.append(
                    BoundCheck(
                        name="span-lower-prime",
                        params={"s": s},
                        lhs=cur,
                        rhs=s * k,
                        ok=cur >= s * k,
                        hypothesis=f"sidon:{sidon_source or 'asserted'}",
                    )
                )
            if t >= 2:
                rhs = n // (t - 1)
                checks.append(
                    BoundCheck(
                        name="k-bound-prime",
                        params={"t": t},
                        lhs=k,
                        rhs=rhs,
                        ok=k <= rhs,
                        hypothesis=f"sidon:{sidon_source or 'asserted'}",
                    )
                )

    for r, source in (r_sidon or {}).items():
        rhs = n / r + 1 + math.log(r, ctx.q)
        checks.append(
            BoundCheck(
                name="dim-cap",
                params={"r": r},
                lhs=k,
                rhs=rhs,
                ok=k <= rhs + 1e-9,
                hypothesis=f"r-sidon:{source}",
            )
        )

    return BoundAudit(
        fingerprint=V.fingerprint(),
        normalized=normalized,
        dims=chain.dims,
        t=chain.t,
        t_bar=chain.t_bar,
        stabilizer_degrees=hs,
        checks=tuple(checks),
    )
