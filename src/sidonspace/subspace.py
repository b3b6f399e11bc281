"""F_q-subspace calculus inside F_{q^n}.

A :class:`Subspace` is an F_q-linear subspace of the ambient field, stored
as a canonical RREF basis of F_p coordinate rows (a*k rows for a k-dimensional
space over q = p^a). Canonical storage makes equality, hashing and set
membership cheap, which the chain/stabilizer computations lean on heavily.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, int_list, within_budget
from .field import FieldCtx, FieldElement, field_from_spec
from .linalg import SpanBuilder, batch_rank, batch_rref, left_nullspace


class Subspace:
    """An F_q-subspace of F_{q^n} with a canonical basis.

    Construct through :func:`span`; the raw constructor expects rows that
    already span an F_q-closed space and canonicalizes them.
    """

    __slots__ = ("ctx", "_sb")

    def __init__(self, ctx: FieldCtx, rows):
        self.ctx = ctx
        self._sb = SpanBuilder(ctx.p, ctx.dim)
        self._sb.insert_many(ctx.rows(rows))
        if ctx.a > 1:  # xi generates F_q over F_p, so xi * V inside V makes V F_q-closed
            xi = ctx.subfield_generator(1)
            if self._sb.reduce(ctx.mul_many(self.basis, xi)).any():
                raise ConstructionError("rows do not span an F_q-closed space")

    @classmethod
    def _adopt(cls, ctx: FieldCtx, rows: np.ndarray) -> "Subspace":
        """The space of rows that are already a canonical RREF basis (a level of
        :func:`span_levels`), taken as they are, without another elimination."""
        V = cls.__new__(cls)
        V.ctx, V._sb = ctx, SpanBuilder(ctx.p, ctx.dim)
        rows.setflags(write=False)
        V._sb._basis, V._sb._pivots = rows, (rows != 0).argmax(axis=1).tolist()
        return V

    @property
    def basis(self) -> np.ndarray:
        """Canonical RREF basis rows (F_p coordinates), read-only."""
        return self._sb.basis

    @property
    def fp_dim(self) -> int:
        return self._sb.rank

    @property
    def dim(self) -> int:
        """Dimension over F_q."""
        return self._sb.rank // self.ctx.a

    def contains(self, x) -> bool:
        return self._sb.contains(self.ctx.element(x).vec)

    def contains_space(self, other: "Subspace") -> bool:
        same_field(self, other)
        return not self._sb.reduce(other.basis).any()

    def reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """Residuals of (..., dim) rows against this space (zero row = member)."""
        return self._sb.reduce(rows)

    def is_zero(self) -> bool:
        return self._sb.rank == 0

    def fingerprint(self) -> str:
        """Short stable identifier derived from field and basis."""
        import hashlib

        h = hashlib.sha256()
        h.update(repr(self.ctx.to_spec()).encode())
        h.update(self.basis.tobytes())
        return h.hexdigest()[:12]

    # -- element / point enumeration (desk scale) --------------------------------

    def elements(self) -> np.ndarray:
        """All q^k elements as rows, zero first (see FieldCtx.combinations)."""
        return self.ctx.combinations(self.basis)

    def projective_points(self) -> np.ndarray:
        """Canonical representatives of the (q^k-1)/(q-1) projective points."""
        return np.unique(self.ctx.proj_canon(self.elements()[1:]), axis=0)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "field": self.ctx.to_spec(),
            "basis": [[int(c) for c in row] for row in self.basis],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Subspace":
        """The subspace of a dict as written by :meth:`to_dict`; see :func:`field_from_spec`."""
        if "field" not in d or not isinstance(d.get("basis"), list):
            raise ValueError("expected a subspace with 'field' and a 'basis' list")
        ctx = field_from_spec(d["field"])
        return cls(ctx, [int_list(row, "basis row") for row in d["basis"]])

    # -- dunder ------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.fp_dim == other.fp_dim
            and (self.basis == other.basis).all()
        )

    def __hash__(self):
        return hash((self.ctx, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim} over GF({self.ctx.q}) in GF({self.ctx.q}^{self.ctx.n}))"


def same_field(U: Subspace, V: Subspace) -> FieldCtx:
    """The field of U and V, which must be equal: the one gate of the operations on two spaces."""
    if U.ctx != V.ctx:
        raise ValueError("subspaces live in different fields")
    return U.ctx


def span(ctx: FieldCtx, gens) -> Subspace:
    """F_q-span of the given elements (or F_p coefficient rows)."""
    rows = ctx.rows(gens)
    if ctx.a > 1:  # every F_q^*-multiple of every row
        rows = ctx.mul_many(ctx.subfield_elements(1)[1:, None], rows).reshape(-1, ctx.dim)
    return Subspace(ctx, rows)


def full_space(ctx: FieldCtx) -> Subspace:
    return Subspace(ctx, np.eye(ctx.dim, dtype=np.int64))


def subfield_space(ctx: FieldCtx, m: int) -> Subspace:
    """The subfield F_{q^m} viewed as an F_q-subspace."""
    return Subspace(ctx, ctx.subfield_fp_basis(m))


def sum_spaces(U: Subspace, V: Subspace) -> Subspace:
    return Subspace(same_field(U, V), np.vstack([U.basis, V.basis]))


def intersect(U: Subspace, V: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked basis matrix."""
    ctx = same_field(U, V)
    if U.is_zero() or V.is_zero():
        return span(ctx, [])
    null = left_nullspace(np.vstack([U.basis, V.basis]), ctx.p)
    return Subspace(ctx, null[:, : U.fp_dim] @ U.basis)


def scale(V: Subspace, alpha: FieldElement) -> Subspace:
    """The subspace alpha * V."""
    alpha = V.ctx.element(alpha)
    if alpha.is_zero():
        raise ValueError("scaling by zero collapses the space")
    return Subspace(V.ctx, V.ctx.mul_many(V.basis, alpha.vec))


def frob_image(V: Subspace, j: int = 1) -> Subspace:
    """Image of V under x -> x^(p^j); pass j = a*i for the q-power x -> x^(q^i)."""
    return Subspace(V.ctx, V.ctx.frob_p(V.basis, j))


def product(U: Subspace, V: Subspace) -> Subspace:
    """Span of all pairwise products UV (an F_q-space again)."""
    ctx = same_field(U, V)
    return Subspace(ctx, ctx.mul_many(U.basis[:, None], V.basis).reshape(-1, ctx.dim))


@functools.lru_cache(maxsize=64)
def multisets(N: int, r: int) -> np.ndarray:
    """The r-multisets of range(N) in lexicographic order, as a read-only (C x r) int64 table."""
    table = np.array([*itertools.combinations_with_replacement(range(N), r)], dtype=np.int64)
    table.setflags(write=False)
    return table.reshape(-1, r)


def span_levels(ctx: FieldCtx, R: np.ndarray, count: int) -> list[list[np.ndarray]]:
    """The canonical RREF rows of V, V^2, ..., for the V of each member of an (F x m x dim) stack.

    ``R`` is in canonical RREF with zero rows past each rank, as ``batch_rref`` returns it,
    and its rows span an F_q-closed V over F_p; then the products of s of them span V^s
    over F_p. Level s >= 2 is one ``batch_rref`` of the smaller generator set: the
    C(m+s-1, s) monomials b_i1...b_is (i1 <= ... <= is), or the level-(s-1) rows times the
    basis. A member stops at its first V^s = V^(s+1), where its new rows equal its previous
    rows (equal dims alone do not decide: alpha * F_(q^m)), or at V^count. A stable chain
    stays stable (V^(s+2) = V^(s+1) V = V^s V = V^(s+1)), so the last level of every
    member is V^count even when its list is shorter.
    """
    X = np.asarray(R, dtype=np.int64)
    m, d = X.shape[1], X.any(axis=2).sum(axis=1)
    levels = [[rows[:r]] for rows, r in zip(X, d)]
    live, prev, mono, mono_s = np.arange(len(X)), X, X, 1
    for s in range(2, count + 1):
        if not live.size:
            break
        if math.comb(m + s - 1, s) <= d.max() * m:
            for t in range(mono_s + 1, s + 1):  # (t-1)-multiset (numbered by the cumsum), then j
                T = multisets(m, t)
                mono = ctx.mul_many(mono[:, np.cumsum(T[:, -1] == T[:, -2]) - 1], X[live][:, T[:, -1]])
            gens, mono_s = mono, s
        else:  # rows past a rank are zero
            gens = ctx.mul_many(prev[:, : d.max(), None], X[live][:, None]).reshape(live.size, -1, ctx.dim)
        nxt, dn = batch_rref(gens, ctx.p)
        w = min(nxt.shape[1], prev.shape[1])
        go = (dn != d) | (nxt[:, :w] != prev[:, :w]).any(axis=(1, 2))
        for i, rows, r in zip(live[go], nxt[go], dn[go]):
            levels[i].append(rows[:r])
        live, d, prev, mono = live[go], dn[go], nxt[go], mono[go]
    return levels


def power(V: Subspace, r: int) -> Subspace:
    """The r-fold product span V^r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return Subspace._adopt(V.ctx, span_levels(V.ctx, V.basis[None], r)[0][-1])


@dataclass(frozen=True)
class SpanChain:
    """The chain V, V^2, V^3, ... up to stabilization (or a cap).

    ``t`` is the first exponent whose span equals the generated subfield
    (None if never reached), ``t_bar`` the first s with V^s = V^(s+1)
    (None if the cap interrupted the chain first).
    """

    levels: tuple
    t: int | None
    t_bar: int | None
    truncated: bool
    generated_field_degree: int

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(lv.dim for lv in self.levels)

    def level(self, s: int) -> Subspace:
        if not 1 <= s <= len(self.levels):
            raise IndexError(f"chain holds levels 1..{len(self.levels)}")
        return self.levels[s - 1]


def span_chain(V: Subspace, s_max: int | None = None) -> SpanChain:
    """Compute successive product spans until V^s = V^(s+1).

    The chain always stabilizes when it is nested (in particular when
    1 in V); a cap of s_max levels (default n+1) guards the degenerate
    non-nested case, reported through ``truncated``.

    Every level lies in the generated subfield F_{q^m}, which is closed
    under products, so a level equals that subfield exactly when its
    dimension is m; ``t`` is found by dimension, without building the
    subfield.
    """
    if V.is_zero():
        raise ValueError("span chain of the zero space")
    if s_max is not None and s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    cap = s_max if s_max is not None else V.ctx.n + 1
    rows = span_levels(V.ctx, V.basis[None], cap + 1)[0]
    stable = len(rows) <= cap  # span_levels stops short only at V^s = V^(s+1)
    levels = [Subspace._adopt(V.ctx, lv) for lv in rows[:cap]]
    m_gen = V.ctx.field_degree(V.basis)
    return SpanChain(
        levels=tuple(levels),
        t=next((s for s, lv in enumerate(levels, start=1) if lv.dim == m_gen), None),
        t_bar=len(levels) if stable else None,
        truncated=not stable,
        generated_field_degree=m_gen,
    )


def stabilizer(V: Subspace) -> int:
    """Degree h over F_q of the largest subfield F_{q^h} with F_{q^h} * V = V.

    The stabilizer of a nonzero space is a subfield F_{q^h}, and V is a
    vector space over it, so h divides both n and dim V. For a candidate m,
    xi_m * V inside V for one generator xi_m of F_{q^m} already makes V
    closed under F_q[xi_m] = F_{q^m}, so m passes exactly when m divides h.
    All candidates are tested with one product batch and one reduction;
    h is the largest that passes. The zero space is stabilized by F_{q^n}.
    """
    ctx = V.ctx
    if V.is_zero():
        return ctx.n
    cands = [m for m in ctx.subfield_degrees if V.dim % m == 0]
    xis = np.array([ctx.subfield_generator(m) for m in cands])
    closed = ~V.reduce_rows(ctx.mul_many(xis[:, None], V.basis)).any(axis=(1, 2))
    return max(m for m, ok in zip(cands, closed) if ok)


def orbit_size(V: Subspace) -> int:
    """Size of {alpha V : alpha nonzero}, i.e. (q^n - 1)/(q^h - 1)."""
    h = stabilizer(V)
    return (V.ctx.order - 1) // (V.ctx.q**h - 1)


def random_subspace(ctx: FieldCtx, k: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random k-dimensional F_q-subspace.

    Samples field elements until k of them are F_q-independent; every
    subspace has equally many ordered bases, so the result is uniform on
    the Grassmannian.
    """
    if not 0 <= k <= ctx.n:
        raise ValueError(f"k must lie in [0, {ctx.n}]")
    rows: list[np.ndarray] = []
    out = span(ctx, rows)
    guard = 0
    while out.dim < k:
        guard += 1
        if guard > 10000 * (k + 1):
            raise AssertionError("random subspace sampling stalled")
        v = rng.integers(0, ctx.p, ctx.dim, dtype=np.int64)
        if not v.any() or out.contains(v):
            continue
        rows.append(v)
        out = span(ctx, rows)
    return out


def projective_point_count(ctx: FieldCtx, budget: int) -> int:
    """(q^n - 1)/(q - 1), the number of projective points of F_{q^n}.

    Raises BudgetError when it exceeds ``budget``.
    """
    return within_budget((ctx.order - 1) // (ctx.q - 1), budget, "projective points")


def all_projective_points(ctx: FieldCtx, *, budget: int = 1 << 22) -> np.ndarray:
    """Canonical representatives of all projective points of F_{q^n}.

    For prime q the reps (first nonzero coordinate 1) are enumerated
    directly without building the full field. Their order is the one
    :func:`point_positions` reports.
    """
    projective_point_count(ctx, budget)
    if ctx.a == 1:
        blocks = []
        d, p = ctx.dim, ctx.p
        for i in range(d):
            tail = d - 1 - i
            block = np.zeros((p**tail, d), dtype=np.int64)
            block[:, i] = 1
            if tail:
                block[:, i + 1 :] = np.indices((p,) * tail).reshape(tail, -1).T
            blocks.append(block)
        return np.vstack(blocks)
    return full_space(ctx).projective_points()


def _base_p_values(ctx: FieldCtx, rows: np.ndarray) -> np.ndarray:
    """Each row read as a base-p number, coordinate 0 the most significant digit."""
    return rows @ ctx.p ** np.arange(ctx.dim - 1, -1, -1, dtype=np.int64)


@functools.lru_cache(maxsize=8)
def _sorted_point_values(ctx: FieldCtx) -> np.ndarray:
    # for q = p^a, a > 1, the points come from np.unique: lexicographic, so ascending here
    return _base_p_values(ctx, all_projective_points(ctx))


def point_positions(ctx: FieldCtx, pts: np.ndarray) -> np.ndarray:
    """Index of each canonical point row in :func:`all_projective_points` order.

    For prime q a point whose first nonzero coordinate i is 1 lies in block
    i, after the (p^dim - p^(dim-i))/(p - 1) points of the earlier blocks,
    at the base-p value of its tail (coordinate i+1 the most significant
    digit). For q = p^a, a > 1, positions are looked up in the point list,
    enumerated once per field.
    """
    pts = np.atleast_2d(pts)
    p, d = ctx.p, ctx.dim
    if ctx.a > 1:
        return np.searchsorted(_sorted_point_values(ctx), _base_p_values(ctx, pts))
    first = np.argmax(pts != 0, axis=1)
    # the full value counts the leading 1 as p^(d-1-i); the tail value does not
    return (p**d - p ** (d - first)) // (p - 1) + _base_p_values(ctx, pts) - p ** (d - 1 - first)


def base_point(ctx: FieldCtx) -> np.ndarray:
    """Canonical representative of the projective point of F_q (alpha = 1)."""
    return ctx.proj_canon(ctx.one_vec[None, :])[0]


def off_base_field(ctx: FieldCtx, pts: np.ndarray) -> np.ndarray:
    """Mask of the canonical projective points ``pts`` other than the point of F_q (alpha = 1)."""
    return ~(pts == base_point(ctx)).all(axis=1)


def pair_intersection_dims(V: Subspace, rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """dim_Fq(uV intersect vV) for index pairs (i, j), u = rows[i], v = rows[j].

    Uses rank(uV) + rank(vV) - rank(uV + vV) on the stacked bases
    [u*B; v*B], vectorized over blocks of 4096 pairs, so memory does not
    grow with the batch. Multiplying by u is an F_q-linear bijection, so
    for u != 0 this is dim(V intersect (v/u)V).
    """
    ctx, B = V.ctx, V.basis
    ranks = np.empty(pairs.shape[0], dtype=np.int64)
    for lo in range(0, pairs.shape[0], 4096):
        uv = rows[pairs[lo : lo + 4096]]
        stacked = ctx.mul_many(uv[:, :, None], B).reshape(uv.shape[0], -1, ctx.dim)
        ranks[lo : lo + 4096] = batch_rank(stacked, ctx.p)
    return (2 * B.shape[0] - ranks) // ctx.a


def _pairs_with_one(ctx: FieldCtx, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows [1; alphas] and the pairs (1, alpha), one per alpha."""
    m = alphas.shape[0]
    pairs = np.column_stack([np.zeros(m, dtype=np.int64), np.arange(1, m + 1)])
    return np.vstack([ctx.one_vec, alphas]), pairs


def intersection_dims_with_scaled(V: Subspace, alphas: np.ndarray) -> np.ndarray:
    """dim_Fq(V intersect alpha*V) for a batch of scalars alpha (rows).

    The u = 1 case of :func:`pair_intersection_dims`.
    """
    return pair_intersection_dims(V, *_pairs_with_one(V.ctx, np.atleast_2d(alphas)))


def quotient_pairs(V: Subspace, *, budget: int = 1 << 22) -> tuple[np.ndarray, np.ndarray, int]:
    """Rows and ordered index pairs (i, j) whose quotients rows[j]/rows[i]
    reach every alpha outside F_q with V intersect alpha V != 0.

    V intersect alpha V != 0 only when alpha = v/u for points u, v of V,
    and then it has the dimension of uV intersect vV (Bachoc, Serra, Zemor
    2017; Roth, Raviv, Tamo 2018). So the N(N-1) ordered pairs of distinct
    points of V suffice; alpha = 1 never appears, every alpha outside
    {v/u} has V intersect alpha V = 0, and an alpha with alpha V = V
    permutes the points of V, so it is v/u for exactly N pairs (u, v).
    When N(N-1) reaches the number of points other than 1, the pairs
    (1, alpha) over those points are returned instead, one per alpha.

    The third value is that count of pairs per alpha with alpha V = V
    (N or 1); alpha = 1 takes as many, none of them listed. Raises
    BudgetError when F_{q^n} has more than ``budget`` projective points.
    """
    ctx = V.ctx
    count = projective_point_count(ctx, budget)
    N = (ctx.q**V.dim - 1) // (ctx.q - 1)
    if N * (N - 1) < count - 1:
        i, j = np.nonzero(~np.eye(N, dtype=bool))
        return V.projective_points(), np.column_stack([i, j]), N
    pts = all_projective_points(ctx, budget=budget)
    return *_pairs_with_one(ctx, pts[off_base_field(ctx, pts)]), 1
