"""B_r-sets of integers: verification and extraction from subspaces.

A set S of residues (or plain integers, modulus None) is a B_r-set when
all r-fold sums of its elements, with repetition, are pairwise distinct.
Subspaces with the r-fold product-injectivity property hand over such sets
through discrete logs of their projective points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import int_list, int_scalar, within_budget
from .field import DiscreteLogTable, FieldElement
from .sidon import DEFAULT_BUDGET, first_collision, is_r_sidon
from .subspace import Subspace


@dataclass(frozen=True)
class BrSet:
    """A verified (or merely proposed) B_r-set."""

    elements: tuple[int, ...]
    modulus: int | None
    r: int
    verified: bool

    @property
    def size(self) -> int:
        return len(self.elements)

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "modulus": self.modulus,
            "r": self.r,
            "verified": self.verified,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BrSet":
        known = ("elements", "r", "modulus", "verified")
        bad = [f"missing key {key!r}" for key in known[:2] if key not in d]
        bad += [f"unknown key {key!r}" for key in d if key not in known]
        if bad:
            raise ValueError(f"a B_r-set takes {', '.join(known)}, the first two required: {', '.join(bad)}")
        verified = d.get("verified", False)
        if not isinstance(verified, bool):
            raise ValueError(f"verified must be true or false, got {verified!r}")
        return cls(
            elements=tuple(int_list(d["elements"], "B_r-set elements")),
            modulus=None if d.get("modulus") is None else int_scalar(d["modulus"], "modulus"),
            r=int_scalar(d["r"], "r"),
            verified=verified,
        )


def is_br_set(S, r: int, modulus: int | None = None, budget: int = DEFAULT_BUDGET):
    """Check the r-fold sum distinctness of S, by full enumeration.

    :func:`~sidonspace.sidon.first_collision` keys each multiset by its sum
    (reduced by the modulus). Returns (True, None) or (False, witness) with
    witness holding the two colliding multisets and their common sum. Raises
    BudgetError when the number of multisets C(|S|+r-1, r) exceeds the budget.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    elems = sorted({int(x) for x in S})
    if modulus is not None:
        if modulus < 1:
            raise ValueError("modulus must be positive")
        elems = sorted({x % modulus for x in elems})
    N = len(elems)
    if N == 0:
        return True, None
    within_budget(math.comb(N + r - 1, r), budget, "multisets")
    if r * max(elems[-1], -elems[0]) >= 2**62:
        raise ValueError("elements too large for int64 sum enumeration")
    E = np.asarray(elems, dtype=np.int64)
    # every sum is at most r * max(S) < 2^62: a larger modulus, even one beyond int64, changes none
    wrap = modulus is not None and modulus <= r * elems[-1]

    def sums(idx: np.ndarray) -> np.ndarray:
        s = E[idx].sum(axis=1)
        return s % modulus if wrap else s

    pair, _ = first_collision(N, r, sums)
    if pair is None:
        return True, None
    wa, wb = (tuple(elems[i] for i in ms) for ms in pair)
    s = sum(wb) % modulus if modulus else sum(wb)
    return False, {"sum": s, "multiset_a": wa, "multiset_b": wb}


def extract_brset(
    V: Subspace,
    r: int,
    gamma: FieldElement,
    *,
    assume_r_sidon: bool = False,
    translate: bool = True,
    verify: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> BrSet:
    """Discrete-log image of V's projective points, a B_r-set mod (q^n-1)/(q-1).

    gamma must be primitive (checked by :meth:`FieldCtx.is_primitive`). The
    r-fold product-injectivity of V is checked by enumeration unless
    assume_r_sidon marks it as already established by the caller. With
    translate, the set is shifted so its minimum is 0. With verify, the
    extracted set is re-checked as a B_r-set by sum enumeration.

    All logs come from one :meth:`DiscreteLogTable.log_many` call, which costs about
    sum (log2 N + sqrt(ell^e)) batched products over the prime powers ell^e || N = q^n - 1,
    whatever the number of points.
    """
    if V.is_zero():
        raise ValueError("cannot extract a B_r-set from the zero space")
    ctx = V.ctx
    gamma = ctx.element(gamma)
    if not ctx.is_primitive(gamma.vec):
        raise ValueError("gamma must be primitive")
    if not assume_r_sidon:
        report = is_r_sidon(V, r, budget=budget)
        if not report.verdict:
            raise ValueError(f"V is not {r}-fold product-injective: {report.witness}")
    M = (ctx.order - 1) // (ctx.q - 1)
    logs = sorted(x % M for x in DiscreteLogTable(gamma).log_many(V.projective_points()))
    if len(set(logs)) != len(logs):
        raise ValueError("projective points mapped to colliding residues")
    expected = (ctx.q**V.dim - 1) // (ctx.q - 1)
    if len(logs) != expected:
        raise ValueError(f"extracted {len(logs)} residues, expected {expected}")
    if translate:
        m0 = logs[0]
        logs = [(x - m0) % M for x in logs]
        logs.sort()
    verified = False
    if verify:
        ok, witness = is_br_set(logs, r, modulus=M, budget=budget)
        if not ok:
            raise ValueError(f"extracted set fails the B_{r} check: {witness}")
        verified = True
    return BrSet(elements=tuple(logs), modulus=M, r=r, verified=verified)
