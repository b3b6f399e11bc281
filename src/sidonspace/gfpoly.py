"""Dense univariate polynomial arithmetic over a finite scalar field.

Coefficients live in a :class:`~sidonspace.field.FieldCtx` used as a plain
scalar field (for prime fields this is F_p itself, elements of length-1
vectors). A polynomial is stored little-endian as a (ncoeff x scalar_dim)
int64 array with no trailing zero coefficient; the zero polynomial is the
(0 x scalar_dim) array.

Only what the package needs is implemented: ring operations, gcd, modular
exponentiation, tables of powers of x modulo f, Ben-Or's irreducibility
test over the Frobenius (q-power) matrix, counting, and seeded random
search for monic irreducibles.
"""

from __future__ import annotations

import numpy as np
from sympy import divisors, mobius

from .errors import NoSuchElementError, SupplyError


def _norm(c: np.ndarray) -> np.ndarray:
    c = np.atleast_2d(np.asarray(c, dtype=np.int64))
    nz = np.flatnonzero(c.any(axis=1))
    if nz.size == 0:
        return c[:0]
    return c[: nz[-1] + 1]


def pdeg(c: np.ndarray) -> int:
    return c.shape[0] - 1


def padd(ctx, f, g):
    lf, lg = f.shape[0], g.shape[0]
    if lf < lg:
        f, g = g, f
        lf, lg = lg, lf
    out = f.copy()
    out[:lg] = (out[:lg] + g) % ctx.p
    return _norm(out)


def psub(ctx, f, g):
    m = max(f.shape[0], g.shape[0])
    out = np.zeros((m, ctx.dim), dtype=np.int64)
    out[: f.shape[0]] = f
    out[: g.shape[0]] -= g
    return _norm(out % ctx.p)


def pmul(ctx, f, g):
    if f.shape[0] == 0 or g.shape[0] == 0:
        return f[:0]
    if ctx.dim == 1:
        full = np.convolve(f[:, 0], g[:, 0]) % ctx.p
        return _norm(full[:, None])
    lf, lg = f.shape[0], g.shape[0]
    full = np.zeros((lf + lg - 1, ctx.dim), dtype=np.int64)
    for i in range(lf):
        full[i : i + lg] = (full[i : i + lg] + ctx.mul_many(np.broadcast_to(f[i], (lg, ctx.dim)), g)) % ctx.p
    return _norm(full)


def pscale(ctx, c, f):
    """Multiply every coefficient of f by scalar-field element c (vector)."""
    if f.shape[0] == 0:
        return f
    return _norm(ctx.mul_many(np.broadcast_to(c, (f.shape[0], ctx.dim)), f))


def pdivmod(ctx, f, g):
    if g.shape[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    df, dg = pdeg(f), pdeg(g)
    if df < dg:
        return f[:0], f
    lead_inv = ctx.inv(g[-1])
    rem = f.copy()
    quo = np.zeros((df - dg + 1, ctx.dim), dtype=np.int64)
    for k in range(df - dg, -1, -1):
        top = rem[k + dg]
        if not top.any():
            continue
        c = ctx.mul(top, lead_inv)
        quo[k] = c
        rem[k : k + dg + 1] = (rem[k : k + dg + 1] - ctx.mul_many(np.broadcast_to(c, (dg + 1, ctx.dim)), g)) % ctx.p
    return _norm(quo), _norm(rem[:dg])


def pmod(ctx, f, g):
    return pdivmod(ctx, f, g)[1]


def pgcd(ctx, f, g):
    """Monic gcd."""
    a, b = _norm(f), _norm(g)
    while b.shape[0]:
        a, b = b, pmod(ctx, a, b)
    if a.shape[0]:
        a = pscale(ctx, ctx.inv(a[-1]), a)
    return a


def ppow_mod(ctx, f, e: int, mod):
    """f**e mod ``mod`` by square-and-multiply; e is a nonnegative Python int."""
    assert e >= 0
    result = np.zeros((1, ctx.dim), dtype=np.int64)
    result[0] = ctx.one_vec
    base = pmod(ctx, f, mod)
    while e:
        if e & 1:
            result = pmod(ctx, pmul(ctx, result, base), mod)
        e >>= 1
        if e:
            base = pmod(ctx, pmul(ctx, base, base), mod)
    return result


def _x_poly(ctx):
    c = np.zeros((2, ctx.dim), dtype=np.int64)
    c[1] = ctx.one_vec
    return c


def x_power_table(ctx, f, start: int, step: int, count: int) -> np.ndarray:
    """(count x deg f x dim) array; entry i holds x^(start + step*i) mod f.

    Each entry is the little-endian coefficient array of the remainder,
    padded with zero coefficients to deg f rows.
    """
    m = pdeg(f)
    out = np.zeros((count, m, ctx.dim), dtype=np.int64)
    cur = ppow_mod(ctx, _x_poly(ctx), start, f)
    x_step = ppow_mod(ctx, _x_poly(ctx), step, f)
    for i in range(count):
        if i:
            cur = pmod(ctx, pmul(ctx, cur, x_step), f)
        out[i, : cur.shape[0]] = cur
    return out


def is_irreducible(ctx, f) -> bool:
    """Ben-Or's test for a polynomial over the scalar field F_q of ``ctx``.

    f of degree m is irreducible exactly when gcd(x^(q^i) - x, f) = 1 for
    every i <= m/2. Each x^(q^i) mod f comes from the previous one through
    the q-power matrix Q[j] = x^(q*j) mod f: every coefficient c of F_q has
    c^q = c, so (sum_j c_j x^j)^q = sum_j c_j Q[j].
    """
    f = _norm(f)
    m = pdeg(f)
    if m <= 1:
        return m == 1
    Q = x_power_table(ctx, f, 0, ctx.order, m).reshape(m * m, ctx.dim)
    x = _x_poly(ctx)
    h = np.zeros((m, ctx.dim), dtype=np.int64)  # x^(q^i) mod f, padded to m rows
    h[:2] = x
    for _ in range(m // 2):
        terms = ctx.mul_many(np.repeat(h, m, axis=0), Q)
        h = terms.reshape(m, m, ctx.dim).sum(axis=0) % ctx.p
        if pdeg(pgcd(ctx, psub(ctx, h, x), f)) != 0:
            return False
    return True


def count_monic_irreducibles(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree exactly d over F_q."""
    if d < 1:
        return 0
    total = sum(int(mobius(e)) * q ** (d // e) for e in divisors(d))
    assert total % d == 0
    return total // d


def irreducible_supply(q: int, max_degree: int) -> int:
    return sum(count_monic_irreducibles(q, d) for d in range(1, max_degree + 1))


def random_monic(ctx, degree: int, rng: np.random.Generator):
    c = rng.integers(0, ctx.p, size=(degree + 1, ctx.dim), dtype=np.int64)
    c[degree] = ctx.one_vec
    return _norm(c)


def irreducible_search(ctx, degree: int, rng: np.random.Generator, max_tries: int | None = None):
    """Seeded random search for a monic irreducible of the given degree."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    tries = max_tries if max_tries is not None else 256 * degree
    for _ in range(tries):
        cand = random_monic(ctx, degree, rng)
        if is_irreducible(ctx, cand):
            return cand
    raise NoSuchElementError(f"no irreducible of degree {degree} found in {tries} tries")


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
        return cls(field, np.asarray(ints, dtype=np.int64)[:, None])

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, _x_poly(field))

    @property
    def degree(self) -> int:
        return pdeg(self.coeffs)

    @property
    def is_monic(self) -> bool:
        return self.degree >= 0 and (self.coeffs[-1] == self.field.one_vec).all()

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.field, pmul(self.field, self.coeffs, other.coeffs))

    def __mod__(self, other: "Poly") -> "Poly":
        return Poly(self.field, pmod(self.field, self.coeffs, other.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.field, padd(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(self.field, psub(self.field, self.coeffs, other.coeffs))

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
