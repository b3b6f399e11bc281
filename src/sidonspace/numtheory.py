"""Integer number theory for field parameters and group orders.

One factorizer, :func:`factorint`, trial-divides by the primes below MAX_P and
hands only a cofactor of MAX_P^2 or more to sympy, imported inside the function
so that no other path loads it; :func:`isprime`, :func:`divisors` and
:func:`mobius` are built on it, and :func:`split_prime_power` reads a prime power
q without ever factoring it in full.
"""

from __future__ import annotations

import functools
import math

#: Exclusive upper bound on the characteristic (see ``field._check_params``), and the
#: trial-division bound: a cofactor left below MAX_P^2 is prime.
MAX_P = 1 << 16


@functools.cache
def _small_primes() -> tuple[int, ...]:
    """The primes below MAX_P, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (MAX_P - 2)
    for i in range(2, math.isqrt(MAX_P) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, MAX_P, i)))
    return tuple(i for i in range(MAX_P) if sieve[i])


def _trial_division(n: int) -> tuple[dict[int, int], int]:
    """({prime: exponent} over the primes below MAX_P that divide n >= 1, cofactor): the
    cofactor is 1, a prime below MAX_P^2, or at least MAX_P^2 with no prime factor below MAX_P."""
    out: dict[int, int] = {}
    for ell in _small_primes():
        if ell * ell > n:
            break
        while n % ell == 0:
            n //= ell
            out[ell] = out.get(ell, 0) + 1
    return out, n


def factorint(n: int) -> dict[int, int]:
    """The prime factorization {prime: exponent} of n >= 1, primes ascending (sympy's result).

    Trial division leaves a cofactor that is 1, a prime below MAX_P^2, or at least
    MAX_P^2; only the last goes to sympy, imported here so that no other path loads it.
    """
    out, n = _trial_division(n)
    if n >= MAX_P * MAX_P:
        from sympy import factorint as sympy_factorint

        out.update(sympy_factorint(n))
    elif n > 1:
        out[n] = 1
    return out


def isprime(n: int) -> bool:
    """Primality by trial division below MAX_P^2 and by sympy's test from there on."""
    if n >= MAX_P * MAX_P:
        from sympy import isprime as sympy_isprime

        return bool(sympy_isprime(n))
    return n > 1 and factorint(n) == {n: 1}


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending."""
    out = [1]
    for ell, e in factorint(n).items():
        out = [d * ell**i for d in out for i in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """The Moebius function of n >= 1."""
    fac = factorint(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


def split_prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a, else ValueError; q is never factored in full.

    After trial division, a cofactor of MAX_P^2 or more is a prime power only when it is
    all of q, so q = p^a with p >= MAX_P: each a up to log_MAX_P(q) is tried by an
    integer root and a primality test on the root.
    """
    fac, rest = _trial_division(q) if q > 1 else ({}, 1)
    if rest < MAX_P * MAX_P:
        if rest > 1:
            fac[rest] = 1
        if len(fac) == 1:
            ((p, a),) = fac.items()
            return int(p), int(a)
    elif not fac:  # every prime factor of q is at least MAX_P
        from sympy import integer_nthroot

        for a in range(1, (q.bit_length() - 1) // (MAX_P.bit_length() - 1) + 1):
            p, exact = integer_nthroot(q, a)
            if exact and isprime(p):
                return int(p), a
    raise ValueError(f"q must be a prime power, got {q}")
