"""Sidon-type product properties of subspaces and bound audits.

Two independent verdict routes are kept deliberately separate:

* the intersection route checks dim(V intersect alpha V) <= 1 for alpha
  outside the base field, ranking only the alpha = v/u over pairs of
  points u, v of V;
* the product route enumerates multisets of projective points of V and
  checks that their r-fold products land on pairwise distinct projective
  points.

Route agreement for r = 2 is itself a testable claim, so neither is
implemented in terms of the other.

:func:`first_collision` is the one collision scan over r-multisets: the
product route, ``brset.is_br_set`` (sums) and ``qpoly.is_scattered`` (f(a)/a,
r = 1) differ only in the key they give each multiset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import within_budget
from .field import FieldElement
from .numtheory import isprime
from .subspace import (
    Subspace,
    base_point,
    intersect,
    pair_intersection_dims,
    point_positions,
    power,
    projective_point_count,
    quotient_pairs,
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
    """Sidon check: dim(V ∩ alpha V) <= 1 for every alpha off the base field.

    V ∩ alpha V != 0 only for alpha = v/u with u, v points of V, and then
    dim(V ∩ alpha V) = dim(uV ∩ vV) because multiplying by u is an
    F_q-linear bijection (Bachoc, Serra, Zemor 2017; Roth, Raviv, Tamo
    2018). So only the N(N-1) ordered pairs of distinct points of V are
    ranked, or the pairs (1, alpha) when those are fewer (see
    :func:`quotient_pairs`). The report reads as a sweep over the projective
    points alpha != 1 in :func:`all_projective_points` order, 4096 at a
    time: a witness records the first offending alpha and a basis of the
    too-large intersection, and ``alphas_checked`` counts through its block.
    """
    ctx = V.ctx
    rows, pairs, _ = quotient_pairs(V, budget=budget)
    total = projective_point_count(ctx, budget) - 1
    bad = pairs[pair_intersection_dims(V, rows, pairs) >= 2]
    checked, witness = total, None
    if bad.size:
        inv = {i: ctx.inv(rows[i]) for i in set(bad[:, 0].tolist())}
        u_inv = np.array([inv[i] for i in bad[:, 0].tolist()])
        alphas = ctx.proj_canon(ctx.mul_many(rows[bad[:, 1]], u_inv))
        pos = point_positions(ctx, alphas)
        first = int(np.argmin(pos))
        # the sweep skips the point 1, which every alpha here differs from
        swept = int(pos[first] - (pos[first] > point_positions(ctx, base_point(ctx))[0]))
        checked = min(total, -(-(swept + 1) // 4096) * 4096)
        al = FieldElement(ctx, alphas[first])
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
        verdict=witness is None,
        method="intersection",
        witness=witness,
        details={"alphas_checked": checked},
    )


def is_r_sidon(V: Subspace, r: int, *, budget: int = DEFAULT_BUDGET) -> SidonReport:
    """Product-route check that r-fold products separate point multisets.

    Every multiset of r projective points of V is keyed by the projective
    representative of its product, and :func:`first_collision` finds the
    first repeated key. A collision between two distinct multisets is
    re-verified and returned as the witness.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    ctx = V.ctx
    pts = V.projective_points()
    N = pts.shape[0]
    within_budget(math.comb(N + r - 1, r), budget, "point multisets")
    # one gather per column of idx: a single (r x B x dim) gather was measured slower
    pair, checked = first_collision(
        N, r, lambda idx: ctx.proj_canon(reduce(ctx.mul_many, (pts[c] for c in idx.T)))
    )
    return SidonReport(
        fingerprint=V.fingerprint(),
        r=r,
        verdict=pair is None,
        method="products",
        witness=None if pair is None else _verify_product_collision(ctx, pts, *pair),
        details={"points": N, "multisets_checked": checked},
    )


def first_collision(N: int, r: int, keys) -> tuple[tuple | None, int]:
    """First r-multiset of range(N), as a sorted index tuple in lexicographic
    order, whose key repeats that of an earlier one.

    ``keys(idx)`` maps a (B x r) int64 block of multisets (B <= 8192) to B key
    rows. Returns ((earlier, later), checked), ``earlier`` the first multiset
    with that key and ``checked`` counted through the end of the block, or
    (None, total) when every key is distinct.
    """
    seen: dict[bytes, tuple[int, ...]] = {}
    it = itertools.combinations_with_replacement(range(N), r)
    checked = 0
    while block := list(itertools.islice(it, 8192)):
        rows = np.ascontiguousarray(keys(np.array(block, dtype=np.int64))).reshape(len(block), -1)
        checked += len(block)
        # row.tobytes() for every row at once: one void view, one tolist()
        row_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        for ms, key in zip(block, row_bytes):
            if key in seen:
                return (seen[key], ms), checked
            seen[key] = ms
    return None, checked


def _verify_product_collision(ctx, pts, ms_a, ms_b) -> dict:
    assert ms_a != ms_b, "collision must come from distinct multisets"
    pa = reduce(ctx.mul, pts[list(ms_a)], ctx.one_vec)
    pb = reduce(ctx.mul, pts[list(ms_b)], ctx.one_vec)
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


def max_span_bound(n: int, k: int, r: int) -> int:
    return min(n, math.comb(k + r - 1, r))


def is_max_span(V: Subspace, r: int) -> tuple[bool, int, int]:
    """Whether dim V^r achieves min(n, C(k+r-1, r)); returns (ok, dim, bound)."""
    bound = max_span_bound(V.ctx.n, V.dim, r)
    d = power(V, r).dim
    return d == bound, d, bound


def r_sidon_profile(V: Subspace, r_max: int) -> list[SidonReport]:
    """Reports for r = 2, 3, ... up to the first failure (or r_max).

    The property is closed downward in r, so stopping at the first failing
    order loses nothing. Each order runs under the default budget.
    """
    out = []
    for r in range(2, r_max + 1):
        rep = is_r_sidon(V, r)
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
    r_sidon: dict[int, str] | None = None,
    s_max: int | None = None,
) -> BoundAudit:
    """Audit the span-growth inequalities against a computed chain.

    The space is first scaled so that 1 lies in it (all quantities involved
    are invariant under scaling). ``r_sidon`` maps the orders r for which
    the caller vouches that V is r-Sidon to the source of that fact; each
    feeds the dimension cap in terms of n/r. An order >= 2 vouches for the
    Sidon property itself (r-Sidon is closed downward in r), so the checks
    that depend on it are emitted, tagged with the source of the smallest
    such order.
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
    hs = tuple(stabilizer(lv) for lv in chain.levels)
    dims = chain.dims
    r_sidon = r_sidon or {}
    sidon_r = min((r for r in r_sidon if r >= 2), default=None)
    checks: list[BoundCheck] = []

    def check(name, params, lhs, rhs, *, upper, hypothesis="none"):
        # the slack only matters for the float right-hand sides of k-bound and dim-cap
        ok = lhs <= rhs + 1e-9 if upper else lhs >= rhs
        checks.append(BoundCheck(name, params, lhs, rhs, ok, hypothesis))

    for s, d in enumerate(dims, start=1):
        check("upper", {"s": s}, d, max_span_bound(n, k, s), upper=True)
    for s in range(2, len(dims) + 1):
        rhs = min(n, dims[s - 2] + k - hs[s - 1])
        check("kneser-step", {"s": s}, dims[s - 1], rhs, upper=False)

    t = chain.t
    if sidon_r is not None and k >= 3 and t is not None:
        sidon = f"sidon:{r_sidon[sidon_r]}"
        for s in range(2, min(t, len(dims)) + 1):
            rhs = s * k - (s - 2) * hs[s - 1]
            check("span-lower", {"s": s}, dims[s - 1], rhs, upper=False, hypothesis=sidon)
        m_gen = chain.generated_field_degree
        if t >= 2:
            params = {"t": t, "field_degree": m_gen}
            check("k-bound", params, k, m_gen * (1 - 1 / t), upper=True, hypothesis=sidon)
        if isprime(n):
            for s in range(2, min(t - 1, len(dims)) + 1):
                check("span-lower-prime", {"s": s}, dims[s - 1], s * k, upper=False, hypothesis=sidon)
            if t >= 2:
                check("k-bound-prime", {"t": t}, k, n // (t - 1), upper=True, hypothesis=sidon)

    for r, source in r_sidon.items():
        rhs = n / r + 1 + math.log(r, ctx.q)
        check("dim-cap", {"r": r}, k, rhs, upper=True, hypothesis=f"r-sidon:{source}")

    return BoundAudit(
        fingerprint=V.fingerprint(),
        normalized=normalized,
        dims=dims,
        t=t,
        t_bar=chain.t_bar,
        stabilizer_degrees=hs,
        checks=tuple(checks),
    )
