"""Every entry point that takes field data reads it through FieldCtx.

Each entry point is fed the constant 1 of F_(3^6) (or of F_3) in every
accepted form and must give the result it gives for ``ctx.one``; a foreign
element, a float and a bool must be refused.
"""

import numpy as np
import pytest

from sidonspace.constructions import binomial_family
from sidonspace.field import FieldCtx, FieldElement, make_field, prime_ctx
from sidonspace.gfpoly import Poly
from sidonspace.qpoly import LinearizedPoly, interpolate
from sidonspace.subspace import span

F = make_field(3, 1, 6)  # the field binomial_family(3, 3, 1, 2, ...) builds
F3 = prime_ctx(3)
FOREIGN = make_field(3, 1, 6, seed=1)  # F_(3^6) again, under another modulus
assert (FOREIGN.modulus != F.modulus).any()


def _row(ctx, x):
    """x as one generator row of ctx: an element as it is, coefficients zero-padded."""
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, np.ndarray):
        return np.concatenate([x, np.zeros(ctx.dim - len(x), dtype=x.dtype)])
    x = x if isinstance(x, list) else [x]
    return x + [0] * (ctx.dim - len(x))


MONO = LinearizedPoly.monomial(F, 3, 1)

# name -> (field, call); refusals are ValueError unless listed in REFUSAL
ENTRY_POINTS = {
    "FieldCtx.element": (F, lambda x: F.element(x).coeffs),
    "FieldElement.__init__": (F, lambda x: FieldElement(F, x).coeffs),
    "FieldElement._coerce": (F, lambda x: (F.one + x).coeffs),
    "FieldElement.__eq__": (F, lambda x: F.one == x),
    "span": (F, lambda x: span(F, [_row(F, x)]).basis.tolist()),
    "Subspace.contains": (F, lambda x: span(F, [F.one]).contains(x)),
    "LinearizedPoly.__init__": (F, lambda x: LinearizedPoly(F, 3, [_row(F, x)]).coeffs.tolist()),
    "LinearizedPoly.from_terms": (F, lambda x: LinearizedPoly.from_terms(F, 3, {1: x}).coeffs.tolist()),
    "LinearizedPoly.evaluate": (F, lambda x: F.element(MONO.evaluate(x)).coeffs),
    "LinearizedPoly.scale": (F, lambda x: MONO.scale(x).coeffs.tolist()),
    "interpolate": (F, lambda x: interpolate(F, 3, [(x, x)]).coeffs.tolist()),
    "binomial_family(delta=)": (F, lambda x: binomial_family(3, 3, 1, 2, "mid", delta=x).chosen),
    "binomial_family(gamma=)": (F, lambda x: binomial_family(3, 3, 1, 2, "mid", gamma=x).chosen),
    "Poly.from_ints": (F3, lambda x: Poly.from_ints(F3, [x, 1]).coeffs.tolist()),
}

# form -> (value for a field, accepted)
FORMS = {
    "int": (lambda ctx: 4, True),
    "10**20": (lambda ctx: 10**20, True),
    "short list": (lambda ctx: [4], True),
    "int64 ndarray": (lambda ctx: np.array([4], dtype=np.int64), True),
    "equal field": (lambda ctx: FieldCtx(ctx.p, ctx.a, ctx.n, ctx.modulus).one, True),
    "foreign element": (lambda ctx: FOREIGN.one, False),
    "float": (lambda ctx: 1.0, False),
    "bool": (lambda ctx: True, False),
}

REFUSAL = {"FieldElement._coerce": TypeError}
# the argument whose result every accepted form must reproduce (default ctx.one)
REFERENCE = {
    "FieldCtx.element": F.one_vec,
    "FieldElement.__init__": F.one_vec,
    "span": F.one_vec,
    "LinearizedPoly.__init__": F.one_vec,
    "Poly.from_ints": 1,
}


@pytest.mark.parametrize("entry,form", [(e, f) for e in ENTRY_POINTS for f in FORMS])
def test_field_data_enters_through_the_field(entry, form):
    ctx, call = ENTRY_POINTS[entry]
    make, accepted = FORMS[form]
    x = make(ctx)
    if accepted:
        assert call(x) == call(REFERENCE.get(entry, ctx.one))
    elif entry == "FieldElement.__eq__":
        assert call(x) is False
    else:
        with pytest.raises(REFUSAL.get(entry, ValueError)):
            call(x)
