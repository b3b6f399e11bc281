"""Builders: claims re-verify, error paths fire, records replay."""

import numpy as np
import pytest

from sidonspace.constructions import (
    F7_EXAMPLE_QUADRATICS,
    admissible_deltas,
    binomial_family,
    binomial_images,
    is_qm1_power,
    maxspan_from_brset,
    maxspan_from_irreducibles,
    monomial,
    monomial_decomposition_check,
    polynomial_independence_check,
    trace_space,
)
from sidonspace.errors import ConstructionError, NoSuchElementError
from sidonspace.field import make_field, find_generator, prime_ctx
from sidonspace.gfpoly import Poly
from sidonspace.qpoly import LinearizedPoly, graph_bases, v_f_gamma
from sidonspace.sidon import is_r_sidon, is_sidon_intersection
from sidonspace.subspace import Subspace, power


def test_monomial_record_shape():
    rec = monomial(2, 3, 1, 3, 2)
    assert rec.name == "monomial"
    assert rec.params == {"q": 2, "k": 3, "s": 1, "t": 3, "r": 2, "n": 9, "seed": 0}
    assert rec.claims == {
        "dim": 3,
        "r_sidon": {"order": 2, "source": "scattered-graph"},
        "sidon": {"value": True, "source": "scattered-graph"},
        "span_dims": {"2": 6},
    }
    assert rec.measured == {"dim": 3, "scattered": True, "span_dims": [6]}
    assert rec.space.dim == 3
    assert set(rec.chosen) == {"field", "gamma"}
    d = rec.to_dict()
    assert set(d) == {"name", "params", "chosen", "space", "claims", "measured"}


def test_monomial_claim_verifies_and_stops_at_r3():
    rec = monomial(2, 3, 1, 3, 2)
    assert is_r_sidon(rec.space, 2).verdict
    assert not is_r_sidon(rec.space, 3).verdict


def test_monomial_rejections():
    with pytest.raises(ConstructionError):
        monomial(2, 4, 2, 5, 2)  # gcd(s, k) = 2
    with pytest.raises(ConstructionError):
        monomial(2, 3, 1, 4, 1)  # r < 2
    with pytest.raises(ConstructionError):
        monomial(2, 3, 1, 2, 3)  # t < r
    with pytest.raises(NoSuchElementError):
        monomial(2, 3, 1, 3, 3)  # t == r impossible over F_2


def test_monomial_constrained_variant():
    rec = monomial(3, 2, 1, 2, 2)
    assert rec.claims["r_sidon"]["source"] == "norm-condition-graph"
    assert rec.params["n"] == 4
    assert is_r_sidon(rec.space, 2).verdict


def test_monomial_k2_hits_universal_cap_instead():
    rec = monomial(3, 2, 1, 4, 3)
    assert rec.claims["span_dims"] == {"2": 3, "3": 4}
    assert rec.measured["span_dims"] == [3, 4]


def test_monomial_decomposition_check_dichotomy():
    assert monomial_decomposition_check(monomial(2, 3, 1, 3, 2)) is True
    assert monomial_decomposition_check(monomial(3, 2, 1, 4, 3)) is False


def test_monomial_decomposition_check_rejections():
    rec = monomial(2, 3, 1, 3, 2)
    bad = trace_space(2, 3, 3)
    with pytest.raises(ValueError):
        monomial_decomposition_check(bad)
    rec_tight = monomial(3, 2, 1, 2, 2)
    with pytest.raises(ValueError):
        monomial_decomposition_check(rec_tight)  # r > t-1
    assert rec.name == "monomial"


def test_binomial_mid_record_and_sidon():
    rec = binomial_family(2, 4, 1, 3, "mid")
    assert rec.name == "binomial-mid"
    assert rec.params["exp2"] == 2
    assert rec.params["n"] == 12
    assert rec.claims == {"dim": 4, "sidon": {"value": True, "source": "binomial-graph"}}
    assert rec.measured == {"dim": 4}
    assert is_sidon_intersection(rec.space).verdict


def test_binomial_end_norm_filter_and_sidon():
    rec = binomial_family(3, 4, 1, 3, "end")
    assert rec.name == "binomial-end"
    assert rec.params["exp2"] == 3
    ctx = rec.space.ctx
    delta = ctx.element(rec.chosen["delta"])
    e = (3**4 - 1) // 2
    assert not (ctx.pow_elem(delta.vec, e) == ctx.one_vec).all()
    assert is_sidon_intersection(rec.space).verdict


def test_binomial_rejections():
    with pytest.raises(ValueError):
        binomial_family(2, 4, 1, 3, "sideways")
    with pytest.raises(ConstructionError):
        binomial_family(3, 4, 1, 3, "mid", delta=0)
    ctx = make_field(3, 1, 12)
    gamma = find_generator(ctx)
    with pytest.raises(ConstructionError):
        binomial_family(3, 4, 1, 3, "mid", delta=gamma)  # outside F_81
    bad = ctx.element(ctx.subfield_generator(4)) ** 2  # norm down to F_3 is 1
    with pytest.raises(ConstructionError):
        binomial_family(3, 4, 1, 3, "end", delta=bad)
    with pytest.raises(NoSuchElementError):
        binomial_family(2, 4, 1, 3, "end")  # over F_2 every delta has norm 1


@pytest.mark.parametrize(
    "q,k,s,variant",
    [(2, 3, 0, "mid"), (2, 4, 2, "mid"), (2, 5, 5, "end"), (3, 3, 3, "end"), (3, 4, 2, "end"),
     (3, 2, 0, "mid")],
)
def test_binomial_refuses_s_sharing_a_factor_with_k(q, k, s, variant):
    with pytest.raises(ConstructionError, match=rf"gcd\(s, k\) must be 1, got s={s}, k={k}"):
        binomial_family(q, k, s, 3, variant)
    # the graph space such a build returned with a Sidon claim has a product collision
    ctx = make_field(q, 1, 3 * k)
    deltas = ctx.subfield_elements(k)
    delta = deltas[admissible_deltas(ctx, deltas, k, variant)][0]
    Fs, Fe = binomial_images(ctx, k, s, variant)
    gamma = find_generator(ctx, over_m=k)
    V = Subspace(ctx, graph_bases(ctx, k, (Fs + ctx.mul_many(Fe, delta)) % ctx.p, gamma.vec))
    assert V.dim == k
    assert not is_r_sidon(V, 2).verdict


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("q", [3, 5])
def test_binomial_end_at_k2_keeps_both_terms(q, seed):
    # k = 2, s = 1: the second exponent s(k - 1) equals s, and f = x^q + delta x^q
    rec = binomial_family(q, 2, 1, 3, "end", seed=seed)
    assert rec.params["exp2"] == 1
    ctx = rec.space.ctx
    delta, gamma = (ctx.element(rec.chosen[key]) for key in ("delta", "gamma"))
    x = LinearizedPoly.monomial(ctx, 2, 1)
    assert rec.space == v_f_gamma(x + x.scale(delta), gamma)
    assert rec.space != v_f_gamma(x.scale(delta), gamma)
    assert rec.claims["sidon"]["value"]
    assert is_r_sidon(rec.space, 2).verdict
    assert is_sidon_intersection(rec.space).verdict


@pytest.mark.parametrize("q,k,t,variant", [(3, 2, 3, "end"), (3, 4, 2, "end"), (2, 3, 3, "mid")])
def test_table_basis_is_affine_in_delta(q, k, t, variant):
    # the tables build V_delta as G0 + delta G1; binomial_family builds it from f(B)
    ctx = make_field(q, 1, k * t)
    gamma = find_generator(ctx, over_m=k)
    Fs, Fe = binomial_images(ctx, k, 1, variant)
    G0, G1 = graph_bases(ctx, k, Fs, gamma.vec), ctx.mul_many(Fe, gamma.vec)
    deltas = ctx.subfield_elements(k)
    deltas = deltas[admissible_deltas(ctx, deltas, k, variant)]
    assert deltas.shape[0] > 1
    for dv in deltas:
        V = Subspace(ctx, (G0 + ctx.mul_many(dv, G1)) % ctx.p)
        assert V == binomial_family(q, k, 1, t, variant, delta=dv, gamma=gamma).space


def test_binomial_even_k_end_claims_nothing_without_norm():
    # t = 2 leaves the Sidon claim out entirely
    rec = binomial_family(3, 4, 1, 2, "mid")
    assert "sidon" not in rec.claims


@pytest.mark.parametrize("variant", ["mid", "end"])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("t", [2, 3])
def test_binomial_claims_sidon_exactly_when_t_exceeds_two(variant, k, t):
    # every delta the builder accepts is admissible, so t alone decides the claim
    rec = binomial_family(3, k, 1, t, variant)
    again = binomial_family(3, k, 1, t, variant, delta=rec.chosen["delta"])
    for r in (rec, again):
        assert ("sidon" in r.claims) == (t > 2)
    assert again.space == rec.space


def test_trace_record_and_sidon_threshold():
    rec = trace_space(2, 3, 3)
    assert rec.name == "trace"
    assert rec.claims == {
        "dim": 3,
        "sidon": {"value": True, "source": "trace-graph"},
        "span_dims": {"2": 6},
    }
    assert rec.measured == {
        "dim": 3,
        "subfield_intersection_dims": [1],
        "subfield_alphas": 6,
    }
    assert power(rec.space, 2).dim == 6
    assert is_sidon_intersection(rec.space).verdict


def test_trace_k4_is_not_sidon():
    rec = trace_space(2, 4, 2)
    assert rec.claims["sidon"]["value"] is False
    assert rec.measured["subfield_intersection_dims"] == [2]
    assert rec.measured["subfield_alphas"] == 14
    assert not is_sidon_intersection(rec.space).verdict


def test_trace_needs_room():
    with pytest.raises(ConstructionError):
        trace_space(2, 3, 1)


def test_maxspan_brset_small_instance():
    rec = maxspan_from_brset([0, 1, 3], 2, 2, 7)
    assert rec.name == "maxspan-brset"
    assert rec.params["S"] == [0, 1, 3]
    assert rec.claims["dim"] == 3
    assert rec.claims["r_span_dim"] == 6
    assert rec.claims["r_sidon"] == {"order": 2, "source": "max-span"}
    assert rec.measured == {"dim": 3, "r_span_dim": 6}
    assert is_r_sidon(rec.space, 2).verdict


def test_maxspan_brset_rejections():
    with pytest.raises(ConstructionError):
        maxspan_from_brset([], 2, 2, 7)
    with pytest.raises(ConstructionError):
        maxspan_from_brset([-1, 0, 2], 2, 2, 7)
    with pytest.raises(ConstructionError):
        maxspan_from_brset([0, 1, 3], 2, 2, 6)  # n must exceed r*max(S)
    with pytest.raises(ConstructionError):
        maxspan_from_brset([0, 1, 2, 3], 2, 2, 9)  # 0+3 = 1+2


def test_maxspan_irreducibles_auto_supply():
    rec = maxspan_from_irreducibles(2, 3, 2)
    assert rec.name == "maxspan-irreducibles"
    assert rec.params["k"] == 3 and rec.params["r"] == 2
    assert rec.params["n"] == 2 * rec.params["Delta"] * 3 + 1
    assert rec.claims["r_span_dim"] == 6
    assert rec.measured == {"dim": 3, "r_span_dim": 6}
    assert len(rec.chosen["irreducibles"]) == 6
    assert len(rec.chosen["factors"]) == 3


def test_maxspan_irreducibles_supplied_list():
    supply = [[0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 0, 0, 1]]
    rec = maxspan_from_irreducibles(2, 3, 2, irreducibles=supply)
    assert rec.params["Delta"] == 4
    assert rec.params["n"] == 25
    assert rec.measured["r_span_dim"] == 6


def test_maxspan_irreducibles_rejections():
    with pytest.raises(ConstructionError):
        maxspan_from_irreducibles(2, 3, 1)
    with pytest.raises(ConstructionError):
        maxspan_from_irreducibles(2, 3, 3)
    base = [[0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1]]
    with pytest.raises(ConstructionError):
        maxspan_from_irreducibles(2, 3, 2, irreducibles=base + [[1, 0, 1]])  # (x+1)^2
    with pytest.raises(ConstructionError):
        maxspan_from_irreducibles(2, 3, 2, irreducibles=base + [[0, 1]])  # duplicate
    with pytest.raises(ConstructionError):
        maxspan_from_irreducibles(2, 3, 2, irreducibles=base)  # 5 of 6


def test_maxspan_irreducibles_refuses_a_large_field_before_drawing(monkeypatch, capsys):
    from sidonspace import constructions
    from sidonspace.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("random_irreducibles called")

    monkeypatch.setattr(constructions, "random_irreducibles", refuse)
    with pytest.raises(ValueError, match="at most 128"):
        maxspan_from_irreducibles(2, 16, 3)
    assert main(["construct", "maxspan-irreducibles", "--q", "2", "--k", "16", "--r", "3"]) == 64
    assert "at most 128" in capsys.readouterr().err


def test_f7_quadratics_are_a_valid_supply():
    ctx = prime_ctx(7)
    polys = [Poly.from_ints(ctx, list(c)) for c in F7_EXAMPLE_QUADRATICS]
    assert len(polys) == 20
    assert len({p.coeffs.tobytes() for p in polys}) == 20
    for p in polys:
        assert p.degree == 2 and p.is_monic and p.irreducible()


def test_polynomial_independence_check():
    ctx7 = prime_ctx(7)
    big = make_field(7, 1, 5)
    gamma = find_generator(big)
    fs = [Poly.from_ints(ctx7, c) for c in ([0, 1], [1, 1], [1, 1, 1])]
    assert polynomial_independence_check(fs, gamma) is True
    dep = [Poly.from_ints(ctx7, c) for c in ([0, 1], [1, 1], [1, 0])]
    assert polynomial_independence_check(dep, gamma) is False


def test_polynomial_independence_degree_guard():
    ctx2 = prime_ctx(2)
    small = make_field(2, 1, 2)
    gamma = find_generator(small)
    fs = [Poly.from_ints(ctx2, [1, 1, 1])]
    with pytest.raises(ValueError):
        polynomial_independence_check(fs, gamma)
    with pytest.raises(ValueError):
        polynomial_independence_check([], gamma)


def test_is_qm1_power():
    ctx = make_field(3, 1, 4)
    g = ctx.element(ctx.subfield_generator(2))
    assert not is_qm1_power(ctx, g, 2)
    assert is_qm1_power(ctx, g * g, 2)
    assert is_qm1_power(ctx, ctx.zero, 2)
    with pytest.raises(ValueError):
        is_qm1_power(ctx, find_generator(ctx), 2)
    ctx2 = make_field(2, 1, 6)
    h = ctx2.element(ctx2.subfield_generator(3))
    assert is_qm1_power(ctx2, h, 3)  # q-1 = 1: everything qualifies


@pytest.mark.parametrize(
    "q,n,k", [(3, 12, 4), (5, 4, 2), (2, 6, 2), (4, 4, 2)], ids=["3-12-4", "5-4-2", "2-6-2", "4-4-2"]
)
def test_end_variant_keeps_delta_exactly_when_it_is_not_a_qm1_power(q, n, k):
    # both ask whether N(delta) = 1 down to F_q, the end variant with even k over all of F_{q^k}
    p, a = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q]
    ctx = make_field(p, a, n)
    deltas = ctx.subfield_elements(k)
    kept = admissible_deltas(ctx, deltas, k, "end")
    assert kept.tolist() == [not is_qm1_power(ctx, ctx.element(d), k) for d in deltas]
    assert kept.any() == (q > 2)  # over F_2 every norm is 1


def test_polynomial_independence_check_over_f4():
    f4 = make_field(2, 2, 1)
    gamma = find_generator(make_field(2, 2, 3))
    one, w = [1, 0], [0, 1]  # 1 and a generator of F_4

    def poly(*coeffs):
        return Poly(f4, np.array(coeffs, dtype=np.int64))

    fs = [poly([0, 0], one), poly(one, w), poly(w, [0, 0], one)]
    assert polynomial_independence_check(fs, gamma) is True
    # w*x + w = w*(x) + w*(1): dependent over F_4, independent over F_2
    dep = [poly([0, 0], one), poly(one), poly(w, w)]
    assert polynomial_independence_check(dep, gamma) is False
