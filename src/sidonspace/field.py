"""Finite field towers realized inside a single absolute extension.

A :class:`FieldCtx` models F_{q^n} with q = p^a as F_p[x]/(modulus) where
the modulus has degree a*n over the prime field. Every intermediate field
F_{q^m} (m dividing n) is located inside this one ring as the fixed space
of the q^m-power Frobenius, so elements of a subfield and of the extension
share one representation and can be mixed freely.

Elements are little-endian numpy int64 coefficient vectors of length
``ctx.dim == a*n``; :class:`FieldElement` is a thin immutable wrapper for
scalar work, while batch kernels (``mul_many``, ``frob_q``, ...) operate on
arrays of rows directly. ``mul_many`` is the one field-product kernel for
every batch shape: it takes any two (..., dim) arrays whose leading shapes
broadcast, so outer products and scalings need no repeated copies. Both
powers (``pow_elem``, ``pow_many``) run
:func:`~sidonspace.linalg.square_multiply`, and :meth:`FieldCtx.is_primitive`
is the one test for a generator of the multiplicative group.

Values from callers enter through two readers: :meth:`FieldCtx.element` for
one element (a FieldElement of an equal field, an integer or a coefficient
list) and :meth:`FieldCtx.rows` for coefficient rows. Both reduce mod p and
refuse floats, bools and elements of another field.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import gfpoly
from .errors import ConstructionError, NoSuchElementError, int_list, int_scalar, within_budget
from .linalg import inverse_table, mat_pow, right_nullspace, rref, square_multiply
from .numtheory import MAX_P, divisors, factorint, isprime, split_prime_power

_CTX_CACHE: dict = {}

#: Upper bound on a*n, checked before q = p^a or any table is built. The package builds
#: at most F_7^61 (dim 61); a random F_2^128 takes about 1 s to set up, F_2^256 a minute.
MAX_DIM = 128


def _check_params(p: int, a: int, n: int) -> None:
    # below MAX_P the inverse table (p int64 entries) stays small, and the int64 sums in
    # mul_many (at most dim * (p-1)^2 before reduction) cannot overflow for dim below 2^31
    if p >= MAX_P:
        raise ValueError(f"p must be below {MAX_P}, got {p}")
    if not isprime(p):
        raise ValueError(f"p must be prime, got {p}")
    if a < 1 or n < 1:
        raise ValueError("a and n must be positive")
    if a * n > MAX_DIM:
        raise ValueError(f"a*n must be at most {MAX_DIM}, got {a * n}")


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
        #: the degrees m of the subfields F_{q^m}: the divisors of n, ascending
        self.subfield_degrees = tuple(divisors(self.n))
        mod = self._ints(modulus)
        if mod.ndim != 1 or len(mod) != self.dim + 1:
            raise ConstructionError(
                f"modulus must have degree {self.dim}, got coefficients of shape {mod.shape}"
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
        self._pow_mats: dict[int, np.ndarray] = {}
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
        high = full[:, d:]
        return (full[:, :d] + high @ self._red[: high.shape[1]]) % self.p

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        full = np.convolve(u, v) % self.p
        return self._reduce(full[None, :])[0]

    def mul_many(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Elementwise products of two (..., dim) batches whose leading shapes broadcast.

        (N, 1, dim) times (M, dim) gives all N*M products; two elements give one.
        The reduction runs on a flat 2-D view: ``@`` over a stack is slower.
        """
        U, V, d = np.asarray(U), np.asarray(V), self.dim
        shape = np.broadcast_shapes(U.shape[:-1], V.shape[:-1])
        full = np.zeros(shape + (2 * d - 1,), dtype=np.int64)
        for i in range(d):
            full[..., i : i + d] += U[..., i : i + 1] * V
        return self._reduce(full.reshape(-1, 2 * d - 1) % self.p).reshape(shape + (d,))

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
        """u^e for any Python int e (u^-e = (u^-1)^e), by scalar products."""
        if e < 0:
            return self.pow_elem(self.inv(u), -e)
        return square_multiply(self.one_vec, np.asarray(u, dtype=np.int64) % self.p, e, self.mul)

    def pow_many(self, U: np.ndarray, e: int) -> np.ndarray:
        """Batched power with a shared nonnegative exponent."""
        U = np.atleast_2d(U)
        return square_multiply(np.tile(self.one_vec, (U.shape[0], 1)), U % self.p, e, self.mul_many)

    def is_primitive(self, u: np.ndarray) -> bool:
        """Whether u generates F_{q^n}^*: u != 0 and u^((q^n-1)/ell) != 1 for each prime ell | q^n-1."""
        u = np.asarray(u, dtype=np.int64) % self.p
        if not u.any():
            return False
        N = self.order - 1
        return not any(
            (self.pow_elem(u, N // ell) == self.one_vec).all() for ell in self.group_factorization()
        )

    # -- Frobenius and subfields ---------------------------------------------------

    def _pow_mat(self, i: int) -> np.ndarray:
        """Matrix of x -> x^(p^i) for right multiplication, cached."""
        i %= self.dim
        if i not in self._pow_mats:
            self._pow_mats[i] = mat_pow(self._frob_p_mat, i, self.p)
        return self._pow_mats[i]

    def frob_p(self, U: np.ndarray, i: int = 1) -> np.ndarray:
        """x -> x^(p^i) applied to a vector or a batch of rows."""
        M = self._pow_mat(i)
        return np.asarray(U, dtype=np.int64) @ M % self.p

    def frob_q(self, U: np.ndarray, j: int = 1) -> np.ndarray:
        """x -> x^(q^j) applied to a vector or a batch of rows."""
        return self.frob_p(U, (self.a * j) % self.dim)

    def subfield_degree(self, m: int, what: str) -> int:
        """m itself if it is in ``subfield_degrees``, else ValueError naming ``what``."""
        if m not in self.subfield_degrees:
            if m < 1:
                raise ValueError(f"{what} must be at least 1, got {m}")
            raise ValueError(f"{what}={m} does not divide n={self.n}")
        return m

    def subfield_element(self, value, k: int, what: str) -> FieldElement:
        """``self.element(value)``, which must lie in F_{q^k} (else ConstructionError naming ``what``)."""
        el = self.element(value)
        if not self.in_subfield(el.vec, k):
            raise ConstructionError(f"{what} must lie in F_(q^{k})")
        return el

    def in_subfield(self, U: np.ndarray, m: int) -> np.ndarray | bool:
        """Membership of rows (or one vector) in F_{q^m}."""
        U = np.asarray(U, dtype=np.int64)
        img = self.frob_q(U, self.subfield_degree(m, "m"))
        if U.ndim == 1:
            return bool((img == U).all())
        return (img == U).all(axis=1)

    def field_degree(self, U: np.ndarray) -> int:
        """Smallest m in ``subfield_degrees`` with every row of U (or U itself) in F_{q^m}."""
        return next(m for m in self.subfield_degrees if np.all(self.in_subfield(U, m)))

    def subfield_fp_basis(self, m: int) -> np.ndarray:
        """Canonical F_p-basis (a*m rows, RREF) of the subfield F_{q^m}."""
        if m not in self._subfield_basis:
            M = self._pow_mat((self.a * self.subfield_degree(m, "m")) % self.dim)
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
        count = within_budget(p**k, 1 << 22, "combinations")
        digits = np.arange(count)[:, None] // p ** np.arange(k) % p
        return digits @ basis % p

    def subfield_elements(self, m: int) -> np.ndarray:
        """All q^m elements of F_{q^m} as rows, in :meth:`combinations` order."""
        return self.combinations(self.subfield_fp_basis(m))

    def subfield_generator(self, m: int) -> np.ndarray:
        """A deterministic element with F_p(xi) = F_{q^m}, hence F_q(xi) = F_{q^m}."""
        if m not in self._subfield_gen:
            basis = self.subfield_fp_basis(m)
            d = self.a * m
            proper = [d // ell for ell in factorint(d)]
            cands = [basis[i] for i in range(basis.shape[0])]
            cands.append(basis.sum(axis=0) % self.p)
            rng = np.random.default_rng((self.p, self.a, self.n, self.seed, m, 0x5F))
            gen = None
            for _ in range(1024):
                for c in cands:
                    if not c.any():
                        continue
                    if all(not (self.frob_p(c, dp) == c).all() for dp in proper):
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

        The representative is the lexicographically smallest coefficient
        vector in the row's F_q^*-orbit. For prime q that is the multiple
        whose first nonzero coordinate is 1, so the a = 1 branch is a fast
        path for the same rule.
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
        step = max(1, (1 << 16) // scalars.shape[0])  # orbit rows per chunk
        for lo in range(0, U.shape[0], step):
            chunk = U[lo : lo + step]
            orbit = self.mul_many(chunk[:, None], scalars)
            # lexicographic minimum: narrow each orbit column by column
            best = np.ones(orbit.shape[:2], dtype=bool)
            for j in range(self.dim):
                col = np.where(best, orbit[:, :, j], self.p)
                best &= col == col.min(axis=1, keepdims=True)
            out[lo : lo + step] = orbit[np.arange(chunk.shape[0]), best.argmax(axis=1)]
        return out

    # -- misc ---------------------------------------------------------------------------

    def group_factorization(self) -> dict[int, int]:
        """Prime factorization of q^n - 1 (cached)."""
        if self._group_factors is None:
            self._group_factors = factorint(self.order - 1)
        return self._group_factors

    # -- reading values: every element and coefficient row enters here -------------------

    def _ints(self, x) -> np.ndarray:
        """x as int64 reduced mod p: an integer array, an integer, or nested lists of them.

        Python ints are reduced before numpy sees them, so no size overflows;
        floats, bools and everything else raise ValueError.
        """
        if isinstance(x, np.ndarray):
            if x.dtype.kind not in "iu":
                raise ValueError(f"coefficients must be integers, got dtype {x.dtype}")
            return (x % self.p).astype(np.int64, copy=False)
        if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
            return np.array(int(x) % self.p, dtype=np.int64)
        if isinstance(x, (list, tuple)):
            return np.array([self._ints(c) for c in x], dtype=np.int64)
        raise ValueError(f"coefficients must be integers, got {type(x).__name__}")

    def _vec(self, x) -> np.ndarray:
        """The read-only coefficient vector of the element ``x`` names (see :meth:`element`)."""
        if isinstance(x, FieldElement):
            if x.ctx != self:
                raise ValueError("element from a different field")
            return x.vec
        c = self._ints(x).ravel()
        if len(c) > self.dim:
            raise ValueError(f"too many coefficients ({len(c)} > {self.dim})")
        if len(c) < self.dim:
            c = np.concatenate([c, np.zeros(self.dim - len(c), dtype=np.int64)])
        c.setflags(write=False)
        return c

    def element(self, x) -> "FieldElement":
        """The element x names: a FieldElement of an equal field, an integer (the
        constant x mod p), or at most ``dim`` integer coefficients, zero-padded."""
        return x if isinstance(x, FieldElement) and x.ctx == self else FieldElement(self, x)

    def rows(self, gens) -> np.ndarray:
        """(N x dim) rows mod p of a 2-D integer array, or of FieldElements and length-dim rows."""
        if isinstance(gens, np.ndarray) and gens.ndim == 2:
            if gens.shape[1] != self.dim:
                raise ValueError(f"coefficient rows of length {gens.shape[1]}, expected {self.dim}")
            return self._ints(gens)
        out = np.zeros((len(gens), self.dim), dtype=np.int64)
        for i, g in enumerate(gens):
            v = self._vec(g) if isinstance(g, FieldElement) else self._ints(g).ravel()
            if len(v) != self.dim:
                raise ValueError(f"coefficient row of length {len(v)}, expected {self.dim}")
            out[i] = v
        return out

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
        return self is other or (
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

    def __init__(self, ctx: FieldCtx, x):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "vec", ctx._vec(x))

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
        try:
            return self.ctx.element(other)
        except ValueError as e:
            raise TypeError(f"cannot combine with {other!r}: {e}") from None

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

    def __eq__(self, other) -> bool:
        try:
            return bool((self.ctx._vec(other) == self.vec).all())
        except ValueError:
            return False

    def __hash__(self):
        return hash((self.ctx, self.vec.tobytes()))

    def __repr__(self):
        return f"elem({self.coeffs})"


@functools.cache
def prime_ctx(p: int) -> FieldCtx:
    """The prime field F_p as a degenerate context (modulus x)."""
    return FieldCtx(p, 1, 1, np.array([0, 1], dtype=np.int64))


def make_field(p: int, a: int = 1, n: int = 1, modulus=None, seed: int = 0) -> FieldCtx:
    """Build (and cache) the context for F_{(p^a)^n}.

    Without an explicit modulus, a monic irreducible of degree a*n over F_p
    is found by seeded random search, so the same (p, a, n, seed) always
    yields the same field representation.
    """
    _check_params(p, a, n)
    if modulus is not None:  # read like any coefficient row: integers mod p, no floats or bools
        mod = prime_ctx(p)._ints(modulus)
        key = (p, a, n, mod.tobytes(), seed)
        if mod.ndim != 1 or key not in _CTX_CACHE:  # FieldCtx refuses a wrong shape
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
    """The field of a spec, checked entry by entry: the p-form that :meth:`FieldCtx.to_spec`
    writes, or the q-form, which gives the prime power ``q`` in place of ``p`` and ``a``.
    Any other key is refused, so a misspelt or contradicting entry is never dropped."""
    if not isinstance(spec, dict):
        raise ValueError("'field' must be a JSON object")
    if "p" in spec:
        p, a = int_scalar(spec["p"], "p"), int_scalar(spec.get("a", 1), "a")
        known = ("p", "a", "n", "modulus", "seed")
    elif "q" in spec:
        p, a = split_prime_power(int_scalar(spec["q"], "q"))
        known = ("q", "n", "modulus", "seed")
    else:
        raise ValueError("field spec needs 'p' (with optional 'a') or the prime power 'q'")
    unknown = sorted(str(key) for key in spec if key not in known)
    if unknown:
        raise ValueError(
            f"field spec takes only {', '.join(known)}; unknown keys: {', '.join(unknown)}"
        )
    modulus = spec.get("modulus")
    return make_field(
        p, a, int_scalar(spec.get("n", 1), "n"),
        modulus=None if modulus is None else int_list(modulus, "modulus"),
        seed=int_scalar(spec.get("seed", 0), "seed"),
    )


# -- norm / minimal polynomial ------------------------------------------------------


def norm(x: FieldElement, m: int = 1) -> FieldElement:
    """Relative norm from F_{q^n} down to F_{q^m}."""
    ctx = x.ctx
    e = (ctx.order - 1) // (ctx.q ** ctx.subfield_degree(m, "m") - 1)
    return FieldElement(ctx, ctx.pow_elem(x.vec, e))


def minimal_polynomial(x: FieldElement, m: int = 1) -> list[FieldElement]:
    """Monic minimal polynomial of x over F_{q^m}, little-endian coefficients.

    Coefficients are elements of the ambient field, each lying in F_{q^m}
    (asserted). The degree equals the size of the Frobenius orbit of x.
    """
    ctx = x.ctx
    m = ctx.subfield_degree(m, "m")
    conj = [x.vec]
    cur = ctx.frob_q(x.vec, m)
    while not (cur == x.vec).all():
        conj.append(cur)
        cur = ctx.frob_q(cur, m)
    coeffs = ctx.one_vec[None]  # little-endian, multiplying out prod (X - c)
    for c in conj:
        coeffs = gfpoly.pmul(ctx, coeffs, np.stack([-c % ctx.p, ctx.one_vec]))
    out = [FieldElement(ctx, c) for c in coeffs]
    for c in out:
        assert ctx.in_subfield(c.vec, m), "minimal polynomial coefficient outside base"
    return out


# -- element searches --------------------------------------------------------------------


def find_generator(
    ctx: FieldCtx, over_m: int = 1, *, primitive: bool = False, seed: int = 0
) -> FieldElement:
    """Seeded search for gamma with F_{q^over_m}(gamma) = F_{q^n}.

    Candidates are uniform random vectors; the first nonzero one whose
    field degree m has lcm(over_m, m) = n, so that F_{q^over_m}(gamma) is
    the compositum F_{q^n} (and, with ``primitive``, that passes
    :meth:`FieldCtx.is_primitive`) is returned.

    Args:
        over_m: Degree over F_q of the base field of the generation request.
        primitive: Additionally require gamma to generate the multiplicative
            group.
        seed: Search seed; results are deterministic per seed.

    Raises:
        ValueError: If over_m is not in ``ctx.subfield_degrees``.
        NoSuchElementError: If none of 2^16 candidates qualifies.
    """
    ctx.subfield_degree(over_m, "over_m")
    rng = np.random.default_rng((ctx.p, ctx.a, ctx.n, seed, 0x6E))
    for _ in range(1 << 16):
        v = rng.integers(0, ctx.p, ctx.dim, dtype=np.int64)
        if not v.any():
            continue
        if math.lcm(over_m, ctx.field_degree(v)) != ctx.n:
            continue
        if primitive and not ctx.is_primitive(v):
            continue
        return FieldElement(ctx, v)
    raise NoSuchElementError("no generator found in 2^16 tries")


def random_irreducibles(q: int, count: int, max_degree: int, seed: int = 0) -> list[gfpoly.Poly]:
    """``count`` distinct monic irreducibles over F_q with degree <= max_degree.

    Polynomials of the largest degree are preferred; lower degrees are used
    only once a degree's supply is exhausted. Deterministic per seed. Raises
    SupplyError (carrying the available count) if fewer than ``count`` exist.
    """
    if count < 1 or max_degree < 1:
        raise ValueError("count and max_degree must be positive")
    p, a = split_prime_power(q)
    scal = make_field(p, a, 1, seed=seed)
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
        else:  # search hits, each kept at its first appearance, until take are distinct
            hits: dict[gfpoly.Poly, None] = {}
            while len(hits) < take:
                hits[gfpoly.Poly(scal, gfpoly.irreducible_search(scal, d, rng))] = None
            got = list(hits)
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


@functools.cache
def subfield_embedding(small: FieldCtx, big: FieldCtx) -> np.ndarray:
    """Matrix E (small.dim x big.dim) of a field embedding small -> big.

    Covers the cases the package needs: ``small`` is the prime field, or
    ``small`` is a standalone copy of the base field F_q of ``big``.
    """
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
    return E


# -- discrete logarithms --------------------------------------------------------------------


class DiscreteLogTable:
    """Discrete logs to a fixed base by Pohlig-Hellman (Pohlig, Hellman, IEEE T-IT 24(1), 1978).

    The base generates a cyclic group of order o dividing q^n - 1 (o = q^n - 1 for a
    primitive base), read off the cached :meth:`FieldCtx.group_factorization`. For each
    prime power ell^f exactly dividing o, :meth:`log_many` raises every row to o/ell^f in
    one ``pow_many`` and solves its log in the subgroup of order ell^f by one
    baby-step/giant-step: a table of :meth:`steps` (ell^f) baby steps, and giant steps by
    ``mul_many`` over the rows not yet resolved. CRT joins the residues. A call costs about
    sum over ell^f || o of (log2 o + sqrt(ell^f)) batched products, however many rows it
    takes; for a prime o it is plain baby-step/giant-step.
    """

    @staticmethod
    def steps(group_order: int) -> int:
        """ceil(sqrt(group_order)), the table size for a group of that order."""
        return math.isqrt(group_order - 1) + 1

    def __init__(self, base: FieldElement):
        ctx = self.ctx = base.ctx
        if not base.vec.any():
            raise ValueError("the base of a discrete log must be nonzero")
        self.base = base
        self.group_order = ctx.order - 1
        # the order o of the base: drop each prime from q^n - 1 while base^(o/ell) = 1
        exps, o = dict(ctx.group_factorization()), self.group_order
        for ell in exps:
            while exps[ell] and (ctx.pow_elem(base.vec, o // ell) == ctx.one_vec).all():
                o //= ell
                exps[ell] -= 1
        self.order = o
        # per ell^f || o: the cofactor o/ell^f, the baby table of h = base^(o/ell^f)
        # (order ell^f), the giant step h^-m and the CRT coefficient
        self._parts = []
        for ell, f in exps.items():
            if not f:
                continue
            cofactor, m = o // ell**f, self.steps(ell**f)
            h = ctx.pow_elem(base.vec, cofactor)
            baby, cur = {}, ctx.one_vec
            for j in range(m):
                baby[cur.tobytes()] = j
                cur = ctx.mul(cur, h)
            coef = cofactor * pow(cofactor, -1, ell**f)
            self._parts.append((cofactor, baby, ctx.pow_elem(h, ell**f - m), coef))

    def _bsgs(self, Y: np.ndarray, baby: dict, giant: np.ndarray) -> np.ndarray:
        """i*m + j for each row y of Y, with y * giant^i = h^j the first baby-table hit."""
        m, out, todo = len(baby), np.empty(len(Y), dtype=np.int64), np.arange(len(Y))
        for i in range(m):
            hits = np.fromiter((baby.get(y.tobytes(), -1) for y in Y), np.int64, len(Y))
            found = hits >= 0
            out[todo[found]] = i * m + hits[found]
            todo, Y = todo[~found], Y[~found]
            if not todo.size:
                return out
            Y = self.ctx.mul_many(Y, giant)
        raise ValueError("element is not a power of the base")

    def log_many(self, rows) -> list[int]:
        """The log in [0, o) of each row (FieldElements or coefficient rows, see
        :meth:`FieldCtx.rows`); ValueError on a zero row or one outside the base's group."""
        ctx, o = self.ctx, self.order
        X = ctx.rows(rows)
        if not X.any(axis=1).all():
            raise ValueError("zero has no discrete log")
        if o < self.group_order and not (ctx.pow_many(X, o) == ctx.one_vec).all():
            raise ValueError("element is not a power of the base")
        logs = np.zeros(len(X), dtype=object)  # Python ints: o may pass int64
        for cofactor, baby, giant, coef in self._parts:
            logs += self._bsgs(ctx.pow_many(X, cofactor), baby, giant).astype(object) * coef
        return [int(x) % o for x in logs]

    def log(self, x: FieldElement) -> int:
        """The log of one element: the one-row case of :meth:`log_many`."""
        return self.log_many([self.ctx.element(x)])[0]
