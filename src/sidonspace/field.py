"""Finite field towers realized inside a single absolute extension.

A :class:`FieldCtx` models F_{q^n} with q = p^a as F_p[x]/(modulus) where
the modulus has degree a*n over the prime field. Every intermediate field
F_{q^m} (m dividing n) is located inside this one ring as the fixed space
of the q^m-power Frobenius, so elements of a subfield and of the extension
share one representation and can be mixed freely.

Elements are little-endian numpy int64 coefficient vectors of length
``ctx.dim == a*n``; :class:`FieldElement` is a thin immutable wrapper for
scalar work, while batch kernels (``mul_many``, ``frob_q``, ...) operate on
(N x dim) arrays directly.
"""

from __future__ import annotations

import math

import numpy as np
from sympy import divisors, factorint, isprime

from . import gfpoly
from .errors import BudgetError, ConstructionError, NoSuchElementError
from .linalg import inverse_table, right_nullspace, rref

_CTX_CACHE: dict = {}
_EMBED_CACHE: dict = {}

#: Exclusive upper bound on the characteristic. Below it the inverse table
#: (p int64 entries) stays small, and the int64 sums in ``mul_many`` (at most
#: dim * (p-1)^2 before reduction) cannot overflow for any dim below 2^31.
MAX_P = 1 << 16


def _check_params(p: int, a: int, n: int) -> None:
    if p >= MAX_P:
        raise ValueError(f"p must be below {MAX_P}, got {p}")
    if not isprime(p):
        raise ValueError(f"p must be prime, got {p}")
    if a < 1 or n < 1:
        raise ValueError("a and n must be positive")


class FieldCtx:
    """Arithmetic context for F_{q^n}, q = p^a, inside F_p[x]/(modulus)."""

    def __init__(self, p: int, a: int, n: int, modulus: np.ndarray, seed: int = 0):
        _check_params(p, a, n)
        self.p = int(p)
        self.a = int(a)
        self.n = int(n)
        self.dim = self.a * self.n
        self.q = self.p**self.a
        self.order = self.q**self.n
        self.seed = int(seed)
        mod = np.asarray(modulus, dtype=np.int64) % p
        if mod.ndim != 1 or len(mod) != self.dim + 1:
            raise ConstructionError(
                f"modulus must have degree {self.dim}, got degree {len(mod) - 1}"
            )
        if mod[-1] != 1:
            raise ConstructionError("modulus must be monic")
        mod.setflags(write=False)
        self.modulus = mod
        self._inv_table = inverse_table(p)
        if self.dim > 1:
            fp, f = prime_ctx(p), mod[:, None]
            if not gfpoly.is_irreducible(fp, f):
                raise ConstructionError("modulus is reducible")
            # rows x^(dim+i) mod modulus for i < dim-1, and x^(p*i) mod modulus
            self._red = gfpoly.x_power_table(fp, f, self.dim, 1, self.dim - 1)[:, :, 0]
            self._frob_p_mat = gfpoly.x_power_table(fp, f, 0, p, self.dim)[:, :, 0]
        else:  # prime_ctx builds these contexts, so their tables are written out
            self._red = np.zeros((0, 1), dtype=np.int64)
            self._frob_p_mat = np.eye(1, dtype=np.int64)
        self._pow_mats: dict[int, np.ndarray] = {
            0: np.eye(self.dim, dtype=np.int64),
            1: self._frob_p_mat,
        }
        self._subfield_basis: dict[int, np.ndarray] = {}
        self._subfield_gen: dict[int, np.ndarray] = {}
        self._group_factors: dict[int, int] | None = None

    # -- scalar/batch arithmetic -------------------------------------------------

    @property
    def zero_vec(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.int64)

    @property
    def one_vec(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[0] = 1
        return v

    def _reduce(self, full: np.ndarray) -> np.ndarray:
        """Reduce (N x m) convolution outputs, m <= 2*dim-1, mod the modulus."""
        d = self.dim
        if full.shape[1] <= d:
            out = np.zeros((full.shape[0], d), dtype=np.int64)
            out[:, : full.shape[1]] = full
            return out % self.p
        low = full[:, :d].copy()
        high = full[:, d:]
        return (low + high @ self._red[: high.shape[1]]) % self.p

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        full = np.convolve(u, v) % self.p
        return self._reduce(full[None, :])[0]

    def mul_many(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Elementwise products of two (N x dim) batches."""
        U = np.atleast_2d(U)
        V = np.atleast_2d(V)
        N, d = U.shape
        full = np.zeros((N, 2 * d - 1), dtype=np.int64)
        for i in range(d):
            full[:, i : i + d] += U[:, i : i + 1] * V
        return self._reduce(full % self.p)

    def inv(self, u: np.ndarray) -> np.ndarray:
        """Multiplicative inverse by extended Euclid against the modulus."""
        u = np.asarray(u, dtype=np.int64) % self.p
        if not u.any():
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        inv_t = self._inv_table

        def strip(x: list[int]) -> list[int]:
            while x and x[-1] == 0:
                x.pop()
            return x

        r0 = strip(list(self.modulus))
        r1 = strip([int(c) for c in u])
        s0, s1 = [0], [1]
        while len(r1) > 1:
            shift = len(r0) - len(r1)
            c = (r0[-1] * int(inv_t[r1[-1]])) % p
            for i in range(len(r1)):
                r0[i + shift] = (r0[i + shift] - c * r1[i]) % p
            if len(s1) + shift > len(s0):
                s0 = s0 + [0] * (len(s1) + shift - len(s0))
            for i in range(len(s1)):
                s0[i + shift] = (s0[i + shift] - c * s1[i]) % p
            strip(r0)
            if len(r0) < len(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
        assert r1, "modulus is irreducible, gcd must be a unit"
        c = int(inv_t[r1[0]])
        out = np.zeros(self.dim, dtype=np.int64)
        s1 = s1[: self.dim]
        out[: len(s1)] = s1
        return (out * c) % p

    def pow_elem(self, u: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            return self.pow_elem(self.inv(u), -e)
        result = self.one_vec
        base = np.asarray(u, dtype=np.int64) % self.p
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def pow_many(self, U: np.ndarray, e: int) -> np.ndarray:
        """Batched power with a shared nonnegative exponent."""
        assert e >= 0
        U = np.atleast_2d(U)
        result = np.tile(self.one_vec, (U.shape[0], 1))
        base = U % self.p
        while e:
            if e & 1:
                result = self.mul_many(result, base)
            e >>= 1
            if e:
                base = self.mul_many(base, base)
        return result

    # -- Frobenius and subfields ---------------------------------------------------

    def _pow_mat(self, i: int) -> np.ndarray:
        """Matrix of x -> x^(p^i) for right multiplication, cached."""
        i %= self.dim
        if i not in self._pow_mats:
            prev = max(j for j in self._pow_mats if j <= i)
            M = self._pow_mats[prev]
            for _ in range(i - prev):
                M = (M @ self._frob_p_mat) % self.p
            self._pow_mats[i] = M
        return self._pow_mats[i]

    def frob_p(self, U: np.ndarray, i: int = 1) -> np.ndarray:
        """x -> x^(p^i) applied to a vector or a batch of rows."""
        M = self._pow_mat(i)
        return np.asarray(U, dtype=np.int64) @ M % self.p

    def frob_q(self, U: np.ndarray, j: int = 1) -> np.ndarray:
        """x -> x^(q^j) applied to a vector or a batch of rows."""
        return self.frob_p(U, (self.a * j) % self.dim)

    def in_subfield(self, U: np.ndarray, m: int) -> np.ndarray | bool:
        """Membership of rows (or one vector) in F_{q^m}."""
        if self.n % m:
            raise ValueError(f"{m} does not divide n={self.n}")
        U = np.asarray(U, dtype=np.int64)
        img = self.frob_q(U, m)
        if U.ndim == 1:
            return bool((img == U).all())
        return (img == U).all(axis=1)

    def subfield_fp_basis(self, m: int) -> np.ndarray:
        """Canonical F_p-basis (a*m rows, RREF) of the subfield F_{q^m}."""
        if m not in self._subfield_basis:
            if self.n % m:
                raise ValueError(f"{m} does not divide n={self.n}")
            M = self._pow_mat((self.a * m) % self.dim)
            A = (M - np.eye(self.dim, dtype=np.int64)) % self.p
            basis = right_nullspace(A.T, self.p)  # rows u with u @ M == u
            out = rref(basis, self.p)[0]
            assert out.shape[0] == self.a * m, "subfield dimension mismatch"
            out.setflags(write=False)
            self._subfield_basis[m] = out
        return self._subfield_basis[m]

    def combinations(self, basis: np.ndarray) -> np.ndarray:
        """All F_p-combinations of the rows of ``basis``, in base-p counting order.

        Row i is sum_j d_j * basis[j], where d_j is digit j of i in base p:
        basis row 0 is the fastest digit and the zero combination comes
        first. Desk-scale only: beyond 2^22 combinations it raises
        BudgetError before allocating anything.
        """
        p, k = self.p, basis.shape[0]
        if p**k > 1 << 22:
            raise BudgetError(
                f"{p}^{k} combinations are too many to enumerate", required=p**k
            )
        digits = np.arange(p**k)[:, None] // p ** np.arange(k) % p
        return digits @ basis % p

    def subfield_elements(self, m: int) -> np.ndarray:
        """All q^m elements of F_{q^m} as rows, in :meth:`combinations` order."""
        return self.combinations(self.subfield_fp_basis(m))

    def subfield_generator(self, m: int) -> np.ndarray:
        """A deterministic element with F_q(xi) = F_{q^m}."""
        if m not in self._subfield_gen:
            if m == 1:
                gen = self.one_vec
            else:
                basis = self.subfield_fp_basis(m)
                proper = [m // ell for ell in factorint(m)]
                cands = [basis[i] for i in range(basis.shape[0])]
                cands.append(basis.sum(axis=0) % self.p)
                rng = np.random.default_rng((self.p, self.a, self.n, self.seed, m, 0x5F))
                gen = None
                for _ in range(1024):
                    for c in cands:
                        if not c.any():
                            continue
                        if all(not (self.frob_q(c, mp) == c).all() for mp in proper):
                            gen = np.asarray(c, dtype=np.int64)
                            break
                    if gen is not None:
                        break
                    cands = [rng.integers(0, self.p, basis.shape[0], dtype=np.int64) @ basis % self.p]
                if gen is None:
                    raise NoSuchElementError(f"no generator found for subfield degree {m}")
            gen = np.array(gen, dtype=np.int64)
            gen.setflags(write=False)
            self._subfield_gen[m] = gen
        return self._subfield_gen[m]

    # -- projective canonicalization --------------------------------------------------

    def proj_canon(self, U: np.ndarray) -> np.ndarray:
        """Canonical representative of each row under F_q^* scaling.

        For prime q the rule is "first nonzero F_p-coordinate equals 1"; for
        q = p^a with a > 1 the representative is the lexicographically
        smallest coefficient vector in the scaling orbit.
        """
        U = np.atleast_2d(U) % self.p
        if self.a == 1:
            nz = U != 0
            first = np.argmax(nz, axis=1)
            lead = U[np.arange(U.shape[0]), first]
            lead = np.where(nz.any(axis=1), lead, 1)
            return (U * self._inv_table[lead][:, None]) % self.p
        scalars = self.subfield_elements(1)[1:]
        out = np.empty_like(U)
        for i, u in enumerate(U):
            orbit = self.mul_many(np.broadcast_to(u, (scalars.shape[0], self.dim)), scalars)
            keys = [row.tobytes() for row in orbit]
            out[i] = orbit[min(range(len(keys)), key=keys.__getitem__)]
        return out

    # -- misc ---------------------------------------------------------------------------

    @property
    def subfield_degrees(self) -> list[int]:
        return [int(d) for d in divisors(self.n)]

    def group_factorization(self) -> dict[int, int]:
        """Prime factorization of q^n - 1 (cached)."""
        if self._group_factors is None:
            self._group_factors = {int(k): int(v) for k, v in factorint(self.order - 1).items()}
        return self._group_factors

    def element(self, coeffs) -> "FieldElement":
        v = np.zeros(self.dim, dtype=np.int64)
        c = np.asarray(coeffs, dtype=np.int64).ravel()
        if len(c) > self.dim:
            raise ValueError(f"too many coefficients ({len(c)} > {self.dim})")
        v[: len(c)] = c % self.p
        return FieldElement(self, v)

    def from_int(self, c: int) -> "FieldElement":
        v = np.zeros(self.dim, dtype=np.int64)
        v[0] = c % self.p
        return FieldElement(self, v)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_vec)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_vec)

    def random_element(self, rng: np.random.Generator) -> "FieldElement":
        return FieldElement(self, rng.integers(0, self.p, self.dim, dtype=np.int64))

    def to_spec(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "n": self.n,
            "modulus": [int(c) for c in self.modulus],
            "seed": self.seed,
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.a, self.n) == (other.p, other.a, other.n)
            and (self.modulus == other.modulus).all()
        )

    def __hash__(self):
        return hash((self.p, self.a, self.n, self.modulus.tobytes()))

    def __repr__(self):
        if self.a == 1:
            return f"FieldCtx(GF({self.p}^{self.n}))"
        return f"FieldCtx(GF(({self.p}^{self.a})^{self.n}))"


class FieldElement:
    """Immutable element of a :class:`FieldCtx` with operator sugar."""

    __slots__ = ("ctx", "vec")

    def __init__(self, ctx: FieldCtx, vec: np.ndarray):
        object.__setattr__(self, "ctx", ctx)
        v = np.asarray(vec, dtype=np.int64) % ctx.p
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> list[int]:
        return [int(c) for c in self.vec]

    def is_zero(self) -> bool:
        return not self.vec.any()

    def __bool__(self) -> bool:
        return bool(self.vec.any())

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if not isinstance(other, FieldElement) or other.ctx != self.ctx:
            raise TypeError("operands live in different fields")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.ctx, (self.vec + other.vec) % self.ctx.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.ctx, (self.vec - other.vec) % self.ctx.p)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return FieldElement(self.ctx, (-self.vec) % self.ctx.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.mul(self.vec, other.vec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.mul(self.vec, self.ctx.inv(other.vec)))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow_elem(self.vec, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv(self.vec))

    def frobenius(self, j: int = 1) -> "FieldElement":
        """x -> x^(q^j)."""
        return FieldElement(self.ctx, self.ctx.frob_q(self.vec, j))

    def degree_over_base(self) -> int:
        """Smallest m (dividing n) with self in F_{q^m}."""
        for m in sorted(self.ctx.subfield_degrees):
            if self.ctx.in_subfield(self.vec, m):
                return m
        raise AssertionError("element not fixed by the q^n Frobenius")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and (self.vec == other.vec).all()
        )

    def __hash__(self):
        return hash((self.ctx, self.vec.tobytes()))

    def __repr__(self):
        return f"elem({self.coeffs})"


def prime_ctx(p: int) -> FieldCtx:
    """The prime field F_p as a degenerate context (modulus x)."""
    key = ("prime", p)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FieldCtx(p, 1, 1, np.array([0, 1], dtype=np.int64))
    return _CTX_CACHE[key]


def make_field(p: int, a: int = 1, n: int = 1, modulus=None, seed: int = 0) -> FieldCtx:
    """Build (and cache) the context for F_{(p^a)^n}.

    Without an explicit modulus, a monic irreducible of degree a*n over F_p
    is found by seeded random search, so the same (p, a, n, seed) always
    yields the same field representation.
    """
    _check_params(p, a, n)
    if modulus is not None:
        mod = np.asarray(modulus, dtype=np.int64)
        key = (p, a, n, mod.tobytes(), seed)
        if key not in _CTX_CACHE:
            _CTX_CACHE[key] = FieldCtx(p, a, n, mod, seed=seed)
        return _CTX_CACHE[key]
    key = (p, a, n, None, seed)
    if key not in _CTX_CACHE:
        dim = a * n
        if dim == 1:
            mod = np.array([0, 1], dtype=np.int64)
        else:
            rng = np.random.default_rng((p, a, n, seed))
            mod = gfpoly.irreducible_search(prime_ctx(p), dim, rng)[:, 0]
        _CTX_CACHE[key] = FieldCtx(p, a, n, mod, seed=seed)
    return _CTX_CACHE[key]


def field_from_spec(spec: dict) -> FieldCtx:
    return make_field(
        int(spec["p"]),
        int(spec.get("a", 1)),
        int(spec.get("n", 1)),
        modulus=spec.get("modulus"),
        seed=int(spec.get("seed", 0)),
    )


# -- norm / trace / minimal polynomial ------------------------------------------------


def norm(x: FieldElement, m: int = 1) -> FieldElement:
    """Relative norm from F_{q^n} down to F_{q^m}."""
    ctx = x.ctx
    if ctx.n % m:
        raise ValueError(f"{m} does not divide n={ctx.n}")
    e = (ctx.order - 1) // (ctx.q**m - 1)
    return FieldElement(ctx, ctx.pow_elem(x.vec, e))


def trace(x: FieldElement, m: int = 1) -> FieldElement:
    """Relative trace from F_{q^n} down to F_{q^m}."""
    ctx = x.ctx
    if ctx.n % m:
        raise ValueError(f"{m} does not divide n={ctx.n}")
    acc = ctx.zero_vec
    cur = x.vec
    for _ in range(ctx.n // m):
        acc = (acc + cur) % ctx.p
        cur = ctx.frob_q(cur, m)
    return FieldElement(ctx, acc)


def minimal_polynomial(x: FieldElement, m: int = 1) -> list[FieldElement]:
    """Monic minimal polynomial of x over F_{q^m}, little-endian coefficients.

    Coefficients are elements of the ambient field, each lying in F_{q^m}
    (asserted). The degree equals the size of the Frobenius orbit of x.
    """
    ctx = x.ctx
    if ctx.n % m:
        raise ValueError(f"{m} does not divide n={ctx.n}")
    conj = [x.vec]
    cur = ctx.frob_q(x.vec, m)
    while not (cur == x.vec).all():
        conj.append(cur)
        cur = ctx.frob_q(cur, m)
    coeffs = [ctx.one_vec]  # little-endian, multiplying out prod (X - c)
    for c in conj:
        nxt = [ctx.zero_vec] + [co.copy() for co in coeffs]
        for i in range(len(coeffs)):
            nxt[i] = (nxt[i] - ctx.mul(c, coeffs[i])) % ctx.p
        coeffs = nxt
    out = [FieldElement(ctx, c) for c in coeffs]
    for c in out:
        assert ctx.in_subfield(c.vec, m), "minimal polynomial coefficient outside base"
    return out


# -- element searches --------------------------------------------------------------------


def find_generator(
    ctx: FieldCtx,
    over_m: int = 1,
    *,
    primitive: bool = False,
    norm_constraint: tuple[str, object] | None = None,
    seed: int = 0,
    max_tries: int = 1 << 16,
) -> FieldElement:
    """Seeded search for gamma with F_{q^over_m}(gamma) = F_{q^n}.

    Args:
        over_m: Degree over F_q of the base field of the generation request.
        primitive: Additionally require gamma to generate the multiplicative
            group (uses the factorization of q^n - 1).
        norm_constraint: Optional ("ne"|"eq", value) condition on the
            absolute norm N_{q^n/q}(gamma); value may be a FieldElement or a
            plain int embedded through the prime field.
        seed: Search seed; results are deterministic per seed.

    Raises:
        NoSuchElementError: If the constraint is provably unsatisfiable
            (e.g. norm != 1 over q = 2) or the try budget is exhausted.
    """
    if ctx.n % over_m:
        raise ValueError(f"over_m={over_m} does not divide n={ctx.n}")
    op = None
    target = None
    if norm_constraint is not None:
        op, value = norm_constraint
        if op not in ("ne", "eq"):
            raise ValueError("norm_constraint op must be 'ne' or 'eq'")
        target = value if isinstance(value, FieldElement) else ctx.from_int(int(value))
        if op == "ne" and ctx.q == 2 and target == ctx.one:
            raise NoSuchElementError(
                "norm constraint 'ne 1' unsatisfiable: over F_2 every nonzero element has norm 1"
            )
        if op == "eq" and target.is_zero():
            raise NoSuchElementError(
                "norm constraint 'eq 0' unsatisfiable: norms of nonzero elements are nonzero"
            )
    proper = [ctx.n // ell for ell in factorint(ctx.n // over_m)]
    prim_factors = list(ctx.group_factorization()) if primitive else []
    N = ctx.order - 1
    norm_exp = N // (ctx.q - 1)
    rng = np.random.default_rng((ctx.p, ctx.a, ctx.n, seed, 0x6E))
    for _ in range(max_tries):
        v = rng.integers(0, ctx.p, ctx.dim, dtype=np.int64)
        if not v.any():
            continue
        if any((ctx.frob_q(v, mp) == v).all() for mp in proper):
            continue
        if primitive and any(
            (ctx.pow_elem(v, N // ell) == ctx.one_vec).all() for ell in prim_factors
        ):
            continue
        if target is not None:
            nv = ctx.pow_elem(v, norm_exp)
            if op == "ne" and (nv == target.vec).all():
                continue
            if op == "eq" and not (nv == target.vec).all():
                continue
        return FieldElement(ctx, v)
    raise NoSuchElementError(f"no element found satisfying constraints after {max_tries} tries")


def random_irreducibles(q: int, count: int, max_degree: int, seed: int = 0) -> list[gfpoly.Poly]:
    """``count`` distinct monic irreducibles over F_q with degree <= max_degree.

    Polynomials of the largest degree are preferred; lower degrees are used
    only once a degree's supply is exhausted. Deterministic per seed. Raises
    SupplyError (carrying the available count) if fewer than ``count`` exist.
    """
    if count < 1 or max_degree < 1:
        raise ValueError("count and max_degree must be positive")
    fac = factorint(q)
    if len(fac) != 1:
        raise ValueError(f"q must be a prime power, got {q}")
    ((p, a),) = fac.items()
    scal = make_field(p, a, 1, seed=seed) if a > 1 else prime_ctx(p)
    gfpoly.require_supply(q, count, max_degree)
    rng = np.random.default_rng((p, a, max_degree, seed, 0x17))
    found: list[gfpoly.Poly] = []
    need = count
    for d in range(max_degree, 0, -1):
        if need == 0:
            break
        avail = gfpoly.count_monic_irreducibles(q, d)
        take = min(need, avail)
        if take == 0:
            continue
        if take == avail and q**d <= 4096:
            batch = _enumerate_irreducibles(scal, d)
            order = rng.permutation(len(batch))
            got = [batch[i] for i in order]
        else:
            got = []
            seen: set[bytes] = set()
            tries = 0
            while len(got) < take:
                tries += 1
                if tries > 8192 * take:
                    raise NoSuchElementError(f"sampling stalled at degree {d}")
                cand = gfpoly.random_monic(scal, d, rng)
                key = cand.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                if gfpoly.is_irreducible(scal, cand):
                    got.append(gfpoly.Poly(scal, cand))
        found.extend(got[:take])
        need -= take
    assert need == 0
    return found


def _enumerate_irreducibles(scal: FieldCtx, d: int) -> list[gfpoly.Poly]:
    out = []
    for low in scal.combinations(np.eye(d * scal.dim, dtype=np.int64)):
        c = np.vstack([low.reshape(d, scal.dim), scal.one_vec[None, :]])
        if gfpoly.is_irreducible(scal, c):
            out.append(gfpoly.Poly(scal, c))
    return out


# -- subfield embeddings --------------------------------------------------------------------


def subfield_embedding(small: FieldCtx, big: FieldCtx) -> np.ndarray:
    """Matrix E (small.dim x big.dim) of a field embedding small -> big.

    Covers the cases the package needs: ``small`` is the prime field, or
    ``small`` is a standalone copy of the base field F_q of ``big``.
    """
    key = (hash(small), hash(big), small.modulus.tobytes(), big.modulus.tobytes())
    if key in _EMBED_CACHE:
        return _EMBED_CACHE[key]
    if small.p != big.p:
        raise ValueError("characteristic mismatch")
    if small.dim == 1:
        E = np.zeros((1, big.dim), dtype=np.int64)
        E[0, 0] = 1
    elif small.order == big.q and small.n == 1:
        cands = big.subfield_elements(1)
        acc = np.zeros_like(cands)
        for c in small.modulus[::-1]:
            acc = big.mul_many(acc, cands)
            acc[:, 0] = (acc[:, 0] + int(c)) % big.p
        roots = cands[~acc.any(axis=1)]
        assert roots.shape[0] == small.dim, "defining polynomial must split in the subfield"
        keys = [r.tobytes() for r in roots]
        root = roots[min(range(len(keys)), key=keys.__getitem__)]
        E = np.zeros((small.dim, big.dim), dtype=np.int64)
        cur = big.one_vec
        for j in range(small.dim):
            E[j] = cur
            cur = big.mul(cur, root)
    else:
        raise ValueError("unsupported embedding request")
    E.setflags(write=False)
    _EMBED_CACHE[key] = E
    return E


# -- discrete logarithms --------------------------------------------------------------------


class DiscreteLogTable:
    """Baby-step/giant-step table for logs to a fixed base.

    Holds ceil(sqrt(q^n - 1)) baby steps; each query then needs at most
    that many giant steps.
    """

    def __init__(self, base: FieldElement):
        self.ctx = base.ctx
        self.base = base
        N = self.ctx.order - 1
        self.group_order = N
        m = math.isqrt(N)
        if m * m < N:
            m += 1
        self.m = m
        self.baby: dict[bytes, int] = {}
        cur = self.ctx.one_vec
        for j in range(m):
            key = cur.tobytes()
            if key not in self.baby:
                self.baby[key] = j
            cur = self.ctx.mul(cur, base.vec)
        self.giant = self.ctx.pow_elem(base.vec, N - m)  # base^(-m)

    def log(self, x: FieldElement) -> int:
        if x.ctx != self.ctx:
            raise ValueError("element from a different field")
        if x.is_zero():
            raise ValueError("zero has no discrete log")
        cur = x.vec
        for i in range(self.m + 1):
            j = self.baby.get(cur.tobytes())
            if j is not None:
                return (i * self.m + j) % self.group_order
            cur = self.ctx.mul(cur, self.giant)
        raise ValueError("element is not a power of the base")
