"""Reference implementations that only the tests read.

``pdivmod``/``pmod`` are schoolbook division with remainder, the oracle the
x-power tables of ``gfpoly`` are checked against; ``gaussian_binomial``
counts subspaces for the enumeration tests. ``span_levels_by_products`` is the
one-space span chain by repeated products, the reference for ``span_levels``.
"""

import numpy as np

from sidonspace.gfpoly import _norm, pdeg
from sidonspace.subspace import product


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
        rem[k : k + dg + 1] = (rem[k : k + dg + 1] - ctx.mul_many(c, g)) % ctx.p
    return _norm(quo), _norm(rem[:dg])


def pmod(ctx, f, g):
    return pdivmod(ctx, f, g)[1]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional F_q-subspaces of an n-dimensional space."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def span_levels_by_products(V, count):
    """V, V^2, ..., V^count by repeated ``product``, stopping at the first V^s = V^(s+1)."""
    levels = [V]
    while len(levels) < count:
        nxt = product(levels[-1], V)
        if nxt == levels[-1]:
            break
        levels.append(nxt)
    return levels
