"""Linearized (q-)polynomials acting on a subfield F_{q^k}.

A :class:`LinearizedPoly` is f(x) = sum_i c_i x^(q^i) with 0 <= i < k and
coefficients in F_{q^k}, applied to arguments from F_{q^k}; everything is
represented inside one ambient F_{q^n} with k | n. Exponents are folded
mod k since x^(q^k) = x on the domain.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSuchElementError
from .field import FieldCtx, FieldElement
from .linalg import left_nullspace, rref
from .sidon import first_collision
from .subspace import Subspace, span, subfield_space


class LinearizedPoly:
    """f(x) = sum c_i x^(q^i) on F_{q^k}, coefficients folded mod k."""

    __slots__ = ("ctx", "k", "coeffs")

    def __init__(self, ctx: FieldCtx, k: int, coeffs: np.ndarray):
        k = int(ctx.subfield_degree(k, "k"))
        self.ctx = ctx
        self.k = k
        c = np.zeros((k, ctx.dim), dtype=np.int64)
        src = ctx.rows(coeffs)
        if src.shape[0] > k:
            raise ValueError("more coefficient rows than the q-degree bound k")
        c[: src.shape[0]] = src
        bad = ~ctx.in_subfield(c, k)
        if bad.any():
            raise ValueError("coefficients must lie in F_{q^k}")
        c.setflags(write=False)
        self.coeffs = c

    @classmethod
    def from_terms(cls, ctx: FieldCtx, k: int, terms: dict[int, object]) -> "LinearizedPoly":
        """Build from {q-exponent: coefficient}; exponents folded mod k, colliding ones added.
        A dict holds each exponent once: add polynomials (``+``) for two terms of one exponent."""
        c = np.zeros((k, ctx.dim), dtype=np.int64)
        for e, coeff in terms.items():
            c[e % k] += ctx.element(coeff).vec
        return cls(ctx, k, c)

    @classmethod
    def monomial(cls, ctx: FieldCtx, k: int, s: int) -> "LinearizedPoly":
        """The monomial x^(q^s)."""
        return cls.from_terms(ctx, k, {s: 1})

    @classmethod
    def trace_poly(cls, ctx: FieldCtx, k: int) -> "LinearizedPoly":
        """The trace of F_{q^k} over F_q as a linearized polynomial."""
        return cls.from_terms(ctx, k, {i: 1 for i in range(k)})

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    # -- evaluation -----------------------------------------------------------

    def evaluate_many(self, U: np.ndarray) -> np.ndarray:
        """Apply f to each row of a (..., dim) batch from F_{q^k}."""
        U = np.asarray(U)
        ctx = self.ctx
        acc = np.zeros_like(U)
        for i in range(self.k):
            ci = self.coeffs[i]
            if not ci.any():
                continue
            term = ctx.mul_many(ctx.frob_q(U, i), ci)
            acc = (acc + term) % ctx.p
        return acc

    def evaluate(self, x) -> FieldElement | np.ndarray:
        """f(x): a FieldElement for a FieldElement argument, else a coefficient vector."""
        y = self.evaluate_many(self.ctx.element(x).vec)
        return FieldElement(self.ctx, y) if isinstance(x, FieldElement) else y

    def __call__(self, x):
        return self.evaluate(x)

    # -- algebra on maps ---------------------------------------------------------

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        if not isinstance(other, LinearizedPoly) or (self.ctx, self.k) != (other.ctx, other.k):
            raise TypeError("mismatched linearized polynomials")
        return LinearizedPoly(self.ctx, self.k, self.coeffs + other.coeffs)

    def scale(self, coeff) -> "LinearizedPoly":
        v = self.ctx.element(coeff).vec
        return LinearizedPoly(self.ctx, self.k, self.ctx.mul_many(self.coeffs, v))

    def __neg__(self) -> "LinearizedPoly":
        return LinearizedPoly(self.ctx, self.k, -self.coeffs)

    def __sub__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        return self.__add__(-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearizedPoly)
            and self.ctx == other.ctx
            and self.k == other.k
            and (self.coeffs == other.coeffs).all()
        )

    def __hash__(self):
        return hash((self.ctx, self.k, self.coeffs.tobytes()))

    def __repr__(self):
        terms = [f"c{i}*x^q^{i}" for i in range(self.k) if self.coeffs[i].any()]
        return f"LinearizedPoly(k={self.k}: {' + '.join(terms) or '0'})"

    # -- structure ---------------------------------------------------------------------

    def matrix_on_subfield(self) -> np.ndarray:
        """F_p-matrix of f on F_{q^k}: row i = f(basis row i)."""
        B = self.ctx.subfield_fp_basis(self.k)
        return self.evaluate_many(B)

    def kernel(self) -> Subspace:
        """Kernel of f on F_{q^k} as a subspace of the ambient field."""
        B = self.ctx.subfield_fp_basis(self.k)
        M = self.matrix_on_subfield()
        null = left_nullspace(M, self.ctx.p)
        return span(self.ctx, null @ B)


def is_scattered(f: LinearizedPoly) -> tuple[bool, tuple[np.ndarray, np.ndarray] | None]:
    """(ok, witness): whether a -> f(a)/a separates the projective points of F_{q^k}.

    Two arguments on the same F_q-line share the value f(a)/a, so the map
    descends to projective points; f is scattered exactly when it is
    injective there, which :func:`~sidonspace.sidon.first_collision` decides
    with r = 1. The witness is None when f is scattered, else a pair (a, b)
    of independent arguments with equal value, re-verified before returning.
    """
    ctx = f.ctx
    pts = subfield_space(ctx, f.k).projective_points()
    # f(a) a^(q^k - 2) is f(a)/a on F_{q^k}^*, and 0 where f(a) = 0
    vals = ctx.mul_many(f.evaluate_many(pts), ctx.pow_many(pts, ctx.q**f.k - 2))
    pair, _ = first_collision(pts.shape[0], 1, lambda idx: vals[idx[:, 0]])
    if pair is None:
        return True, None
    a, b = (pts[i].copy() for (i,) in pair)
    fa, fb = f.evaluate_many(np.vstack([a, b]))
    assert (ctx.mul(fa, b) == ctx.mul(fb, a)).all()  # f(a)/a = f(b)/b, zero values included
    assert span(ctx, [a, b]).dim == 2
    return False, (a, b)


def graph_bases(ctx: FieldCtx, k: int, images: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Rows u + f(u) gamma for u in the F_p-basis of F_{q^k}, given images = f(basis);
    leading shapes of ``images`` and ``gamma`` broadcast as in :meth:`FieldCtx.mul_many`."""
    return (ctx.subfield_fp_basis(k) + ctx.mul_many(images, gamma)) % ctx.p


def v_f_gamma(f: LinearizedPoly, gamma: FieldElement) -> Subspace:
    """The graph-style subspace {u + f(u) * gamma : u in F_{q^k}}."""
    ctx = f.ctx
    return Subspace(ctx, graph_bases(ctx, f.k, f.matrix_on_subfield(), ctx.element(gamma).vec))


def interpolate(ctx: FieldCtx, k: int, pairs: list[tuple]) -> LinearizedPoly:
    """Linearized polynomial through the given (argument, value) pairs.

    Solves the Moore-style system sum_j c_j a_i^(q^j) = b_i over F_p: the
    unknowns are the coordinates of each c_j in the F_p-basis (beta_t) of
    F_{q^k}, so column (j, t) stacks beta_t * a_i^(q^j) over i. The F_p
    pivots are J x {every t} for the F_{q^k} pivot set J, and free
    coordinates are set to zero. Raises NoSuchElementError when the system
    is inconsistent.
    """
    if len(pairs) > k:
        raise ValueError("more conditions than coefficients")
    B = ctx.subfield_fp_basis(k)
    args, vals = [], []
    for a, b in pairs:
        av, bv = ctx.element(a).vec, ctx.element(b).vec
        if not ctx.in_subfield(av, k) or not ctx.in_subfield(bv, k):
            raise ValueError("interpolation data must lie in F_{q^k}")
        args.append(av)
        vals.append(bv)
    m, d, nb = len(pairs), ctx.dim, B.shape[0]
    U = np.array(args, dtype=np.int64).reshape(m, d)
    powers = np.stack([ctx.frob_q(U, j) for j in range(k)])  # [j, i]: a_i^(q^j)
    P = ctx.mul_many(powers[:, :, None], B)  # [j, i, t]: beta_t * a_i^(q^j)
    A = P.transpose(1, 3, 0, 2).reshape(m * d, k * nb)
    rhs = np.array(vals, dtype=np.int64).reshape(m * d, 1)
    R, pivots = rref(np.hstack([A, rhs]), ctx.p)
    if pivots and pivots[-1] == k * nb:
        raise NoSuchElementError("no linearized polynomial satisfies the conditions")
    x = np.zeros(k * nb, dtype=np.int64)
    x[pivots] = R[:, -1]
    return LinearizedPoly(ctx, k, x.reshape(k, nb) @ B)
