"""Dense univariate polynomial arithmetic over a finite scalar field.

Coefficients live in a :class:`~sidonspace.field.FieldCtx` used as a plain
scalar field (for prime fields this is F_p itself, elements of length-1
vectors). A polynomial is stored little-endian as a (ncoeff x scalar_dim)
int64 array with no trailing zero coefficient; the zero polynomial is the
(0 x scalar_dim) array.

Only what the package needs is implemented: products and, from one
F_p-matrix of multiplication by x modulo f, tables of powers of x modulo f
and Berlekamp's irreducibility test over the Frobenius (q-power) matrix;
then counting and seeded random search for monic irreducibles.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSuchElementError, SupplyError
from .linalg import mat_pow, rank
from .numtheory import divisors, mobius


def _norm(c: np.ndarray) -> np.ndarray:
    c = np.atleast_2d(np.asarray(c, dtype=np.int64))
    nz = np.flatnonzero(c.any(axis=1))
    if nz.size == 0:
        return c[:0]
    return c[: nz[-1] + 1]


def pdeg(c: np.ndarray) -> int:
    return c.shape[0] - 1


def pmul(ctx, f, g):
    if f.shape[0] == 0 or g.shape[0] == 0:
        return f[:0]
    lf, lg = f.shape[0], g.shape[0]
    prods = ctx.mul_many(f[:, None], g)  # [i, j]: f_i g_j
    full = np.zeros((lf + lg - 1, ctx.dim), dtype=np.int64)
    for i in range(lf):
        full[i : i + lg] += prods[i]
    return _norm(full % ctx.p)


def _x_power_coords(ctx, f, start: int, step: int, count: int) -> np.ndarray:
    """(count x a x a*m) array; entry [i, t] holds e_t x^(start + step*i) mod f.

    f has degree m >= 1 over F_q = ``ctx`` (a = ctx.dim), e_t is the t-th
    F_p-basis vector of F_q, and F_q[x]/(f) has the F_p-basis e_t x^j with
    (j, t) at index j*a + t. C, the matrix of h -> x*h on coordinate rows,
    has the rows e_t x^k as the first a rows of C^k.
    """
    f = _norm(f)
    m, a, p = pdeg(f), ctx.dim, ctx.p
    f = ctx.mul_many(ctx.inv(f[-1]), f)  # monic
    C = np.eye(a * m, k=a, dtype=np.int64)  # e_t x^j -> e_t x^(j+1) for j < m-1
    # e_t x^m = -e_t (f_0 + ... + f_(m-1) x^(m-1))
    low = ctx.mul_many(np.eye(a, dtype=np.int64)[:, None], f[:m])  # [t, j]: e_t f_j
    C[a * (m - 1) :] = -low.reshape(a, a * m) % p
    rows, S = mat_pow(C, start, p)[:a], mat_pow(C, step, p)
    out = np.empty((count, a, a * m), dtype=np.int64)
    for i in range(count):
        out[i] = rows
        rows = rows @ S % p
    return out


def x_power_table(ctx, f, start: int, step: int, count: int) -> np.ndarray:
    """(count x deg f x dim) array; entry i holds x^(start + step*i) mod f.

    Each entry is the little-endian coefficient array of the remainder,
    padded with zero coefficients to deg f rows.
    """
    return _x_power_coords(ctx, f, start, step, count)[:, 0].reshape(count, pdeg(_norm(f)), ctx.dim)


def is_irreducible(ctx, f) -> bool:
    """Berlekamp's test for a polynomial over the scalar field F_q of ``ctx``.

    M is the F_p-matrix of the Frobenius h -> h^q on F_q[x]/(f), deg f = m:
    c^q = c for c in F_q, so row (j, t) holds e_t x^(q*j) mod f. f is
    irreducible exactly when
      - x^(q^m) = x mod f (checked first, as it is cheap): f divides the
        squarefree x^(q^m) - x, which rules out repeated factors such as g^e;
      - rank(M - I) = a(m - 1): for a squarefree f, the F_q-dimension of the
        fixed space of M is the number of irreducible factors of f
        (Berlekamp, Math. Comp. 24, 1970).
    """
    f = _norm(f)
    m, a = pdeg(f), ctx.dim
    if m <= 1:
        return m == 1
    M = _x_power_coords(ctx, f, 0, ctx.order, m).reshape(a * m, a * m)
    I = np.eye(a * m, dtype=np.int64)
    h = I[a]  # x, at (j, t) = (1, 0)
    for _ in range(m):
        h = h @ M % ctx.p
    return not (h != I[a]).any() and rank(M - I, ctx.p) == a * (m - 1)


def count_monic_irreducibles(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree exactly d over F_q."""
    if d < 1:
        return 0
    total = sum(mobius(e) * q ** (d // e) for e in divisors(d))
    assert total % d == 0
    return total // d


def irreducible_supply(q: int, max_degree: int) -> int:
    return sum(count_monic_irreducibles(q, d) for d in range(1, max_degree + 1))


def random_monic(ctx, degree: int, rng: np.random.Generator):
    c = rng.integers(0, ctx.p, size=(degree + 1, ctx.dim), dtype=np.int64)
    c[degree] = ctx.one_vec
    return _norm(c)


def irreducible_search(ctx, degree: int, rng: np.random.Generator):
    """Seeded random search for a monic irreducible of the given degree, 256*degree tries."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for _ in range(256 * degree):
        cand = random_monic(ctx, degree, rng)
        if is_irreducible(ctx, cand):
            return cand
    raise NoSuchElementError(f"no irreducible of degree {degree} found in {256 * degree} tries")


class Poly:
    """A polynomial over a scalar field, hashable and immutable.

    ``coeffs`` is the normalized little-endian (ncoeff x dim) array; for a
    prime scalar field dim == 1 and :meth:`to_list` yields plain ints.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        c = _norm(coeffs)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_ints(cls, field, ints) -> "Poly":
        if field.dim != 1:
            raise ValueError("from_ints requires a prime scalar field")
        return cls(field, field.rows(list(ints)))

    @property
    def degree(self) -> int:
        return pdeg(self.coeffs)

    @property
    def is_monic(self) -> bool:
        return self.degree >= 0 and (self.coeffs[-1] == self.field.one_vec).all()

    def __mul__(self, other: "Poly") -> "Poly":
        if other.field != self.field:
            raise ValueError("polynomials live in different fields")
        return Poly(self.field, pmul(self.field, self.coeffs, other.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs.shape == other.coeffs.shape
            and (self.coeffs == other.coeffs).all()
        )

    def __hash__(self):
        return hash((self.field, self.coeffs.tobytes(), self.coeffs.shape))

    def to_list(self):
        if self.field.dim == 1:
            return [int(v) for v in self.coeffs[:, 0]]
        return [[int(v) for v in row] for row in self.coeffs]

    def irreducible(self) -> bool:
        return is_irreducible(self.field, self.coeffs)

    def evaluate_in(self, big_ctx, x):
        """Evaluate at ``x`` (a FieldElement of ``big_ctx``), embedding coefficients.

        The scalar field must embed into ``big_ctx`` (its order a power of
        the same p with degree dividing big_ctx.dim).
        """
        from .field import FieldElement, subfield_embedding

        embed = subfield_embedding(self.field, big_ctx)
        acc = np.zeros(big_ctx.dim, dtype=np.int64)
        for row in self.coeffs[::-1]:
            acc = big_ctx.mul(acc, x.vec)
            acc = (acc + row @ embed) % big_ctx.p
        return FieldElement(big_ctx, acc)

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.coeffs):
            if not row.any():
                continue
            c = int(row[0]) if self.field.dim == 1 else list(map(int, row))
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(terms) if terms else "0"


def require_supply(q: int, count: int, max_degree: int) -> int:
    """Raise SupplyError unless at least ``count`` monic irreducibles of degree <= max_degree exist."""
    supply = irreducible_supply(q, max_degree)
    if count > supply:
        raise SupplyError(
            f"only {supply} monic irreducibles of degree <= {max_degree} exist over F_{q}"
            f" (requested {count})",
            available=supply,
        )
    return supply
