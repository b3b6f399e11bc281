"""Named subspace constructions with recorded parameters and claims.

Each builder returns a :class:`ConstructionRecord` holding the produced
subspace, every element choice that went into it (so runs are replayable
from the record alone), the properties the underlying theory guarantees,
and the measurements taken at build time. Cheap claims (dimensions,
subfield intersection patterns, scatteredness where feasible) are
re-measured during construction and a mismatch raises ConstructionError;
expensive enumeration-based claims are recorded with their source and left
to the callers' checkers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import gfpoly
from .brset import is_br_set
from .errors import ConstructionError, NoSuchElementError
from .field import (
    FieldCtx,
    FieldElement,
    find_generator,
    make_field,
    minimal_polynomial,
    norm,
    random_irreducibles,
    split_prime_power,
)
from .linalg import rank
from .qpoly import LinearizedPoly, graph_bases, is_scattered, v_f_gamma
from .subspace import (
    Subspace,
    intersection_dims_with_scaled,
    multisets,
    off_base_field,
    power,
    scale,
    span,
    span_chain,
    span_levels,
    stabilizer,
    subfield_space,
    sum_spaces,
)

#: Twenty distinct monic irreducible quadratics over F_7, little-endian
#: coefficient triples (c0, c1, 1). A fixed supply for the q=7, k=4, r=3
#: worked example of the irreducible-product construction.
F7_EXAMPLE_QUADRATICS: tuple[tuple[int, int, int], ...] = (
    (1, 4, 1),
    (2, 2, 1),
    (5, 2, 1),
    (6, 4, 1),
    (3, 5, 1),
    (5, 5, 1),
    (5, 4, 1),
    (6, 6, 1),
    (1, 3, 1),
    (6, 3, 1),
    (2, 0, 1),
    (6, 1, 1),
    (4, 0, 1),
    (3, 1, 1),
    (5, 3, 1),
    (2, 5, 1),
    (4, 1, 1),
    (1, 0, 1),
    (3, 6, 1),
    (4, 6, 1),
)


@dataclass(frozen=True)
class ConstructionRecord:
    """A built subspace plus its parameters, choices, claims, and measurements."""

    name: str
    params: dict
    chosen: dict
    space: Subspace
    claims: dict
    measured: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "chosen": self.chosen,
            "space": self.space.to_dict(),
            "claims": self.claims,
            "measured": self.measured,
        }


def is_qm1_power(ctx: FieldCtx, x, k: int) -> bool:
    """Whether x (read by :meth:`FieldCtx.element`) is a (q-1)-th power inside F_{q^k}:
    zero, or of norm 1 down to F_q."""
    vec = ctx.element(x).vec
    if not ctx.in_subfield(vec, k):
        raise ValueError("argument must lie in F_{q^k}")
    return bool(_qm1_powers(ctx, vec[None, :], k)[0])


def _qm1_powers(ctx: FieldCtx, xs: np.ndarray, k: int) -> np.ndarray:
    """Mask of the rows of ``xs`` (elements of F_{q^k}) that are (q-1)-th powers there: as
    F_{q^k}^* is cyclic, zero and the kernel of the norm x -> x^((q^k - 1)/(q - 1)) to F_q."""
    norms = ctx.pow_many(xs, (ctx.q**k - 1) // (ctx.q - 1))
    return (norms == ctx.one_vec).all(axis=1) | ~xs.any(axis=1)


def monomial(q: int, k: int, s: int, t: int, r: int, *, seed: int = 0) -> ConstructionRecord:
    """Graph space of x -> x^(q^s) over F_{q^k} inside F_{q^(kt)}.

    For t >= r+1 any gamma generating F_{q^n} over F_{q^k} works; for
    t == r the constant term of gamma's minimal polynomial over F_{q^k}
    must avoid being a (q-1)-th power, which is unsatisfiable over q = 2.
    """
    if math.gcd(s, k) != 1:
        raise ConstructionError(f"gcd(s, k) must be 1, got s={s}, k={k}")
    if r < 2:
        raise ConstructionError("r must be >= 2")
    if t < r:
        raise ConstructionError(f"t={t} < r={r}: no variant of the construction applies")
    n = k * t
    ctx = _field(q, n, seed, f"n = k*t for k={k}, t={t}")
    gamma = None
    if t >= r + 1:
        gamma = find_generator(ctx, over_m=k, seed=seed)
    else:  # t == r: the constrained variant
        if q == 2:
            raise NoSuchElementError(
                "t == r variant needs a minimal-polynomial constant term that is "
                "not a (q-1)-th power; over F_2 every element is one"
            )
        for attempt in range(256):
            cand = find_generator(ctx, over_m=k, seed=seed + 1000 * attempt)
            p0 = minimal_polynomial(cand, k)[0]
            if not is_qm1_power(ctx, p0, k):
                gamma = cand
                break
        if gamma is None:
            raise NoSuchElementError("no admissible gamma found for the t == r variant")
    f = LinearizedPoly.monomial(ctx, k, s)
    V = _graph_space(ctx, k, f.matrix_on_subfield(), gamma)
    if not is_scattered(f)[0]:
        raise ConstructionError("monomial with gcd(s,k)=1 must be scattered")
    # For k >= 3 the layered span law gives dim V^s = sk up to t-1; for
    # k = 2 that exceeds the universal cap C(k+s-1, s), which is what the
    # space actually hits (making it max-span at every level instead).
    def expected_dim(rr: int) -> int:
        return rr * k if k >= 3 else math.comb(k + rr - 1, rr)

    count = min(r, t - 1)
    dims = [len(rows) // ctx.a for rows in span_levels(ctx, V.basis[None], count)[0]]
    dims += dims[-1:] * (count - len(dims))  # a stable chain stays stable
    for rr, d in enumerate(dims[1:], start=2):
        if d != expected_dim(rr):
            raise ConstructionError(f"dim V^{rr} = {d}, expected {expected_dim(rr)}")
    source = "scattered-graph" if t >= r + 1 else "norm-condition-graph"
    params = {"q": q, "k": k, "s": s, "t": t, "r": r, "n": n, "seed": seed}
    return _record(
        "monomial", params, gamma, V,
        {
            "r_sidon": {"order": r, "source": source},
            "sidon": {"value": True, "source": source},
            "span_dims": {str(rr): expected_dim(rr) for rr in range(2, t)},
        },
        {"scattered": True, "span_dims": dims[1:]},
    )


def monomial_decomposition_check(rec: ConstructionRecord) -> bool:
    """Verify the layered shape of V^r for a monomial record with r <= t-1.

    Checks, for the record's r: V^r equals the direct sum of the lines
    gamma^i F_{q^k} (1 <= i < r) with the graph space of the same monomial
    at gamma^r; the sum is direct (dimensions add); the stabilizer of V^r'
    is the base field for 2 <= r' <= t-1; and the chain stabilization index
    matches the norm of gamma (t+1 when N(gamma) = (-1)^n, else t).
    """
    if rec.name != "monomial":
        raise ValueError("record was not produced by the monomial builder")
    q, k, s, t, r = (rec.params[key] for key in ("q", "k", "s", "t", "r"))
    if r > t - 1:
        raise ValueError("decomposition applies to r <= t-1")
    ctx = rec.space.ctx
    gamma = ctx.element(rec.chosen["gamma"])
    V = rec.space
    ok = True

    f = LinearizedPoly.monomial(ctx, k, s)
    chain = span_chain(V)
    Vr = chain.level(min(r, len(chain.levels)))  # a stable chain stays stable
    K = subfield_space(ctx, k)
    parts = [scale(K, gamma**i) for i in range(1, r)]
    parts.append(v_f_gamma(f, gamma**r))
    direct = parts[0]
    for part in parts[1:]:
        direct = sum_spaces(direct, part)
    ok &= direct == Vr
    ok &= direct.dim == sum(part.dim for part in parts)

    for rr in range(2, t):
        if rr <= len(chain.levels):
            ok &= stabilizer(chain.level(rr)) == 1
    n = ctx.n
    sign = ctx.element((-1) ** n)
    expected_tbar = t + 1 if norm(gamma) == sign else t
    ok &= chain.t_bar == expected_tbar
    return bool(ok)


def binomial_family(
    q: int,
    k: int,
    s: int,
    t: int,
    variant: str,
    *,
    delta=None,
    gamma=None,
    seed: int = 0,
) -> ConstructionRecord:
    """Graph space of a two-term q-polynomial over F_{q^k} in F_{q^(kt)}.

    variant "mid" uses x^(q^s) + delta x^(q^(2s)); variant "end" uses
    x^(q^s) + delta x^(q^(s(k-1))). gcd(s, k) must be 1, as for
    :func:`monomial`. delta must be nonzero, and for the end
    variant with even k its norm down to F_q must differ from 1 (the Sidon
    guarantee fails otherwise).
    """
    n = k * t
    ctx = _field(q, n, seed, f"n = k*t for k={k}, t={t}")
    ctx.subfield_degree(k, "k")  # before k is read below
    if math.gcd(s, k) != 1:
        raise ConstructionError(f"gcd(s, k) must be 1, got s={s}, k={k}")
    e2 = binomial_exponent(variant, s, k)
    if delta is None:
        rng = np.random.default_rng((ctx.p, ctx.a, n, k, seed, 0xD))
        B = ctx.subfield_fp_basis(k)
        for _ in range(4096):
            v = rng.integers(0, ctx.p, B.shape[0], dtype=np.int64) @ B % ctx.p
            if admissible_deltas(ctx, v[None, :], k, variant)[0]:
                delta_el = FieldElement(ctx, v)
                break
        else:
            raise NoSuchElementError("no admissible delta found")
    else:
        delta_el = ctx.subfield_element(delta, k, "delta")
        if delta_el.is_zero():
            raise ConstructionError("delta must be nonzero")
        if not admissible_deltas(ctx, delta_el.vec[None, :], k, variant)[0]:
            raise ConstructionError(
                "end variant with even k requires the norm of delta to differ from 1"
            )
    gamma_el = find_generator(ctx, over_m=k, seed=seed) if gamma is None else ctx.element(gamma)
    Fs, Fe = binomial_images(ctx, k, s, variant)
    V = _graph_space(ctx, k, (Fs + ctx.mul_many(Fe, delta_el.vec)) % ctx.p, gamma_el)
    params = {"q": q, "k": k, "s": s, "t": t, "n": n, "seed": seed, "exp2": e2}
    # delta is admissible by now
    claims = {"sidon": {"value": True, "source": "binomial-graph"}} if t > 2 else {}
    return _record(f"binomial-{variant}", params, gamma_el, V, claims, {}, delta=delta_el.coeffs)


def binomial_exponent(variant: str, s: int, k: int) -> int:
    """The second q-exponent of the binomial family, mod k: 2s ("mid") or s(k-1) ("end")."""
    if variant not in ("mid", "end"):
        raise ValueError(f"variant must be 'mid' or 'end', got {variant!r}")
    return (2 * s if variant == "mid" else s * (k - 1)) % k


def binomial_images(ctx: FieldCtx, k: int, s: int, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """(Fs, Fe): the images of x^(q^s) and x^(q^e2) on the F_p-basis of F_{q^k}, e2 from
    :func:`binomial_exponent`; f = x^(q^s) + delta x^(q^e2) maps that basis to Fs + delta Fe."""
    e2 = binomial_exponent(variant, s, k)
    return tuple(LinearizedPoly.monomial(ctx, k, e).matrix_on_subfield() for e in (s, e2))


def admissible_deltas(ctx: FieldCtx, deltas: np.ndarray, k: int, variant: str) -> np.ndarray:
    """Mask of the rows of ``deltas`` (elements of F_{q^k}) that the binomial family admits.

    delta must be nonzero, and for the end variant with even k its norm
    down to F_q must differ from 1: delta must not be a (q-1)-th power.
    """
    if variant == "end" and k % 2 == 0:
        return ~_qm1_powers(ctx, deltas, k)
    return deltas.any(axis=1)


def trace_space(q: int, k: int, t: int, *, seed: int = 0) -> ConstructionRecord:
    """Graph space of the trace of F_{q^k} over F_q inside F_{q^(kt)}.

    On build the characteristic intersection pattern is re-measured: for
    every alpha in F_{q^k} outside F_q, dim(V intersect alpha V) = k-2.
    The space is Sidon exactly when k <= 3.
    """
    if t < 2:
        raise ConstructionError("t must be >= 2")
    n = k * t
    ctx = _field(q, n, seed, f"n = k*t for k={k}, t={t}")
    gamma_el = find_generator(ctx, over_m=k, seed=seed)
    V = _graph_space(ctx, k, LinearizedPoly.trace_poly(ctx, k).matrix_on_subfield(), gamma_el)
    sub_pts = subfield_space(ctx, k).projective_points()
    sub_pts = sub_pts[off_base_field(ctx, sub_pts)]
    inter_dims = intersection_dims_with_scaled(V, sub_pts)
    if k >= 2 and not (inter_dims == k - 2).all():
        raise ConstructionError(
            f"subfield intersection dims {sorted(set(int(d) for d in inter_dims))}, expected all {k - 2}"
        )
    return _record(
        "trace", {"q": q, "k": k, "t": t, "n": n, "seed": seed}, gamma_el, V,
        {
            "sidon": {"value": k <= 3, "source": "trace-graph"},
            "span_dims": {str(rr): rr * k for rr in range(2, t)},
        },
        {
            "subfield_intersection_dims": sorted({int(d) for d in inter_dims}),
            "subfield_alphas": int(sub_pts.shape[0]),
        },
    )


def maxspan_from_brset(S, q: int, r: int, n: int, *, seed: int = 0) -> ConstructionRecord:
    """Span of powers gamma^s for s in a B_r-set S, a max-span space.

    Requires n > r*max(S) and S to verify as a B_r-set over the integers;
    the resulting dims dim V = |S| and dim V^r = C(|S|+r-1, r) are
    re-measured on build.
    """
    S = sorted({int(x) for x in S})
    if not S or S[0] < 0:
        raise ConstructionError("S must be a nonempty set of nonnegative integers")
    h = max(S)
    if n <= r * h:
        raise ConstructionError(f"need n > r*max(S) = {r * h}, got n={n}")
    ok, witness = is_br_set(S, r)
    if not ok:
        raise ConstructionError(f"S is not a B_{r}-set: {witness}")
    ctx = _field(q, n, seed, f"F_(q^n) for q={q}, n={n}")
    gamma_el = find_generator(ctx, over_m=1, seed=seed)
    params = {"q": q, "r": r, "n": n, "seed": seed, "S": S}
    return _maxspan("maxspan-brset", params, {}, gamma_el, [gamma_el**e for e in S], r)


def maxspan_from_irreducibles(
    q: int, k: int, r: int, *, seed: int = 0, irreducibles=None
) -> ConstructionRecord:
    """Max-span space spanned by evaluations of coprime polynomial products.

    A supply of C(k+r-1, r) distinct monic irreducibles is indexed by the
    size-r multisets over [k]; f_j multiplies together every polynomial
    whose multiset avoids j. With n exceeding r*Delta*C(k+r-2, r) and gamma
    of degree n, the evaluations f_j(gamma) span a k-dimensional space
    whose r-span is re-measured to hit C(k+r-1, r).
    """
    if not 1 < r < k:
        raise ConstructionError(f"need 1 < r < k, got r={r}, k={k}")
    scal = _field(q, 1, seed, f"F_q for q={q}")  # q is checked before its supply is counted
    M = math.comb(k + r - 1, r)
    if irreducibles is None:  # random_irreducibles draws this degree first
        Delta = next(d for d in itertools.count(1) if gfpoly.irreducible_supply(q, d) >= M)
    else:
        polys = []
        for entry in irreducibles:
            pl = entry if isinstance(entry, gfpoly.Poly) else gfpoly.Poly.from_ints(scal, list(entry))
            if pl.field != scal:
                raise ConstructionError(f"supplied polynomial {pl} is over another field than F_{q}")
            if not pl.is_monic or not pl.irreducible():
                raise ConstructionError(f"supplied polynomial {pl} is not monic irreducible")
            polys.append(pl)
        if len({pl.coeffs.tobytes() for pl in polys}) != len(polys):
            raise ConstructionError("supplied polynomials must be pairwise distinct")
        if len(polys) != M:
            raise ConstructionError(f"need exactly {M} polynomials, got {len(polys)}")
        Delta = max(pl.degree for pl in polys)
    n = r * Delta * math.comb(k + r - 2, r) + 1
    ctx = _field(q, n, seed, f"n = r*Delta*C(k+r-2, r) + 1 for k={k}, r={r}, Delta={Delta}")
    gamma_el = find_generator(ctx, over_m=1, seed=seed)
    if irreducibles is None:  # the field is built, so a*n is within bounds
        polys = random_irreducibles(q, M, Delta, seed=seed)
    # the M polynomials are indexed by the size-r multisets over range(k), in lexicographic order
    fs = [
        functools.reduce(operator.mul, (pl for ms, pl in zip(multisets(k, r), polys) if j not in ms))
        for j in range(k)
    ]
    return _maxspan(
        "maxspan-irreducibles",
        {"q": q, "k": k, "r": r, "n": n, "Delta": Delta, "seed": seed},
        {
            "irreducibles": [pl.to_list() for pl in polys],
            "factors": {str(j + 1): fs[j].to_list() for j in range(k)},
        },
        gamma_el,
        [pl.evaluate_in(ctx, gamma_el) for pl in fs],
        r,
    )


def _maxspan(
    name: str, params: dict, chosen: dict, gamma: FieldElement, gens: list, r: int
) -> ConstructionRecord:
    """Record of the max-span space V = span(gens), built from powers or values of gamma.

    dim V = len(gens) = k and dim V^r = C(k+r-1, r) are re-measured, and a
    mismatch raises ConstructionError.
    """
    ctx, k = gamma.ctx, len(gens)
    V = span(ctx, gens)
    if V.dim != k:
        raise ConstructionError(f"dim V = {V.dim}, expected {k}")
    expected = math.comb(k + r - 1, r)
    got = power(V, r).dim
    if got != expected:
        raise ConstructionError(f"dim V^{r} = {got}, expected {expected}")
    claims = {
        "r_span_dim": expected,
        "r_sidon": {"order": r, "source": "max-span"},
        "sidon": {"value": True, "source": "max-span"},
    }
    return _record(name, params, gamma, V, claims, {"r_span_dim": got}, **chosen)


def _field(q: int, n: int, seed: int, what: str) -> FieldCtx:
    """The seeded F_{q^n} of a builder. A refused field keeps make_field's reason
    after ``what``, which names the builder parameters that set n and their values."""
    p, a = split_prime_power(q)
    try:
        return make_field(p, a, n, seed=seed)
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from None


def _graph_space(ctx: FieldCtx, k: int, images: np.ndarray, gamma: FieldElement) -> Subspace:
    """The graph space {u + f(u) gamma : u in F_{q^k}} of f with images = f(basis), of dim k."""
    V = Subspace(ctx, graph_bases(ctx, k, images, gamma.vec))
    if V.dim != k:
        raise ConstructionError(f"graph space has dim {V.dim}, expected {k}")
    return V


def _record(
    name: str, params: dict, gamma: FieldElement, V: Subspace, claims: dict, measured: dict,
    **chosen,
) -> ConstructionRecord:
    """The record of V, built from gamma, once the builder has checked dim V = k:
    ``chosen`` gets gamma and the field, and ``claims`` and ``measured`` get dim."""
    chosen = {"gamma": gamma.coeffs, "field": V.ctx.to_spec(), **chosen}
    dim = {"dim": V.dim}
    return ConstructionRecord(name, params, chosen, V, {**dim, **claims}, {**dim, **measured})


def polynomial_independence_check(fs: list, gamma: FieldElement) -> bool:
    """F_q-independence of polynomials vs of their values at gamma.

    Computes both sides (coefficient rank over F_q, and the dimension of
    the span of the evaluations) and asserts they agree, which requires
    every degree to stay below the degree of gamma over F_q.
    """
    if not fs:
        raise ValueError("need at least one polynomial")
    ctx = gamma.ctx
    n_gamma = ctx.field_degree(gamma.vec)
    dmax = max(pl.degree for pl in fs)
    if dmax >= n_gamma:
        raise ValueError(
            f"degree bound violated: max deg {dmax} >= deg(gamma) = {n_gamma}"
        )
    scal = fs[0].field
    if any(pl.field != scal for pl in fs):
        raise ValueError("polynomials live in different fields")
    width = dmax + 1
    coeffs = np.zeros((len(fs), width, scal.dim), dtype=np.int64)
    for c, pl in zip(coeffs, fs):
        c[: pl.coeffs.shape[0]] = pl.coeffs
    # the F_q-rank is the F_p-rank of all nonzero F_q-multiples, divided by a
    scalars = scal.subfield_elements(1)[1:]
    rows = scal.mul_many(scalars[:, None, None], coeffs).reshape(-1, width * scal.dim)
    coeff_rank = rank(rows, scal.p) // scal.a
    evals = [pl.evaluate_in(ctx, gamma) for pl in fs]
    eval_dim = span(ctx, evals).dim
    assert coeff_rank == eval_dim, (
        f"independence mismatch: coefficient rank {coeff_rank}, evaluation span {eval_dim}"
    )
    return coeff_rank == len(fs)
