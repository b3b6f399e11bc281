"""Acceptance gate: one criterion per test, heavy sweeps shared via fixtures.

Two claims fail as printed and are kept as strict xfails next to tests that
pin what the computation actually finds: the square-graph family over
F_(2^6) (criterion 3) and the k = 2 cells of the monomial grid
(criterion 5). Everything else reproduces exactly.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sidonspace.constructions import (
    F7_EXAMPLE_QUADRATICS,
    maxspan_from_brset,
    maxspan_from_irreducibles,
    monomial,
    monomial_decomposition_check,
    polynomial_independence_check,
    trace_space,
)
from sidonspace.experiments import ExperimentSpec, run_experiment
from sidonspace.field import make_field, prime_ctx
from sidonspace.gfpoly import Poly
from sidonspace.sidon import audit_bounds, is_r_sidon, is_sidon_intersection
from sidonspace.subspace import (
    all_projective_points,
    frob_image,
    random_subspace,
    scale,
    span,
    span_chain,
)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table2():
    return timed(run_experiment, ExperimentSpec("table2", {"collect_audits": True}))


@pytest.fixture(scope="module")
def table3():
    return timed(run_experiment, ExperimentSpec("table3", {"collect_audits": True}))


@pytest.fixture(scope="module")
def prop_f26():
    return timed(run_experiment, ExperimentSpec("prop-f26", {"collect_audits": True}))


@pytest.fixture(scope="module")
def prop_trace_9():
    return timed(run_experiment, ExperimentSpec("prop-trace-9", {"collect_audits": True}))


@pytest.fixture(scope="module")
def sample_2000():
    return timed(run_experiment, ExperimentSpec("sample-f2-9", {"samples": 2000}))


@pytest.fixture(scope="module")
def brset_316():
    return timed(run_experiment, ExperimentSpec("brset-316", {"collect_audits": True}))


def build_monomial_grid():
    main, k2 = [], []
    for q in (2, 3):
        for k in (2, 3, 4):
            for s in (s for s in range(1, k if k > 1 else 2) if math.gcd(s, k) == 1):
                for t in (3, 4, 5):
                    rec = monomial(q, k, s, t, t - 1)
                    (k2 if k == 2 else main).append(rec)
    return main, k2


@pytest.fixture(scope="module")
def monomial_grid():
    return timed(build_monomial_grid)


@pytest.fixture(scope="module")
def trace_grid():
    def build():
        return [
            trace_space(q, k, t)
            for q in (2, 3)
            for k in (4, 5)
            for t in (3, 4)
        ]

    return timed(build)


@pytest.fixture(scope="module")
def brset_maxspan():
    return timed(maxspan_from_brset, [0, 1, 4, 16], 2, 3, 49)


@pytest.fixture(scope="module")
def irreducibles_maxspan():
    return timed(
        maxspan_from_irreducibles, 7, 4, 3, irreducibles=F7_EXAMPLE_QUADRATICS
    )


def test_criterion_01_table2_all_rows(table2):
    rep, dt = table2
    assert rep.verdict == "match" and rep.exit_code == 0
    assert len(rep.rows) == 13
    for row in rep.rows:
        r, k = row["r"], row["k"]
        assert row["q"] == 2
        assert row["expected_dim"] == (r + 1) * k
        assert row["delta_count"] == 2**k - 1
        assert row["dims_observed"] == {str((r + 1) * k): 2**k - 1}
        assert row["cap_violations"] == 0
        assert row["verdict"] == "match"
    assert rep.rows[0]["chain_dims_first"] == [5, 15, 20]
    assert dt < 600
    print(f"criterion 01: PASS (13 rows, every delta, {dt:.1f}s)")


def test_criterion_02_table3_all_rows(table3):
    rep, dt = table3
    assert rep.verdict == "match" and rep.exit_code == 0
    assert len(rep.rows) == 13
    deltas_by_k = {4: 40, 5: 242, 6: 364, 7: 2186, 8: 3280}
    for row in rep.rows:
        r, k = row["r"], row["k"]
        assert row["q"] == 3
        assert row["delta_count"] == deltas_by_k[k]
        assert row["dims_observed"] == {str((r + 1) * k): deltas_by_k[k]}
        assert row["verdict"] == "match"
    assert dt < 1200
    print(f"criterion 02: PASS (13 rows, norm-filtered deltas, {dt:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="claim fails as printed: no gamma outside F_8 makes the square graph "
    "2-Sidon in F_(2^6); the same family works in F_(2^9)",
)
def test_criterion_03_square_graphs_f26_claim(prop_f26):
    rep, dt = prop_f26
    row = next(r for r in rep.rows if r["field"] == "F_(2^6)")
    assert row["computed"] == row["expected"]


def test_criterion_03_square_graphs_f26_measured(prop_f26):
    rep, dt = prop_f26
    assert rep.verdict == "mismatch" and rep.exit_code == 1
    by_field = {r["field"]: r for r in rep.rows}
    r6 = by_field["F_(2^6)"]
    assert r6["gamma_count"] == 56
    assert r6["computed"] == {"two_sidon": 0, "three_sidon": 0}
    bad = r6["first_non_two_sidon"]
    assert bad["gamma"] == [0, 1, 0, 0, 0, 0]
    assert bad["witness"]["indices_a"] != bad["witness"]["indices_b"]
    r9 = by_field["F_(2^9)"]
    assert r9["computed"] == {"two_sidon": 504, "three_sidon": 0}
    assert dt < 60
    print(
        "criterion 03: FAIL as printed (0 of 56 gammas give a 2-Sidon space in "
        f"F_(2^6); witness embedded; n = 9 analogue holds 504/504; {dt:.1f}s)"
    )


def test_criterion_04_trace_graphs_q9(prop_trace_9):
    rep, dt = prop_trace_9
    assert rep.verdict == "match" and rep.exit_code == 0
    by_field = {r["field"]: r for r in rep.rows}
    assert by_field["F_(2^9)"]["gamma_count"] == 504
    assert by_field["F_(2^9)"]["computed"] == {"two_sidon": 504, "three_sidon": 0}
    assert by_field["F_(3^9)"]["gamma_count"] == 19656
    assert by_field["F_(3^9)"]["computed"] == {"two_sidon": 19656, "three_sidon": 0}
    assert dt < 1800
    print(f"criterion 04: PASS (exhaustive 504 + 19656 gammas, {dt:.1f}s)")


def test_criterion_05_monomial_grid(monomial_grid):
    (main, k2), dt = monomial_grid
    assert len(main) == 24  # q in {2,3}, (k,s) in {(3,1),(3,2),(4,1),(4,3)}, t in {3,4,5}
    for rec in main:
        k, t, r = rec.params["k"], rec.params["t"], rec.params["r"]
        assert r == t - 1
        assert rec.measured["span_dims"] == [rr * k for rr in range(2, t)]
        assert monomial_decomposition_check(rec) is True
    assert dt < 600
    print(f"criterion 05: PASS for k >= 3 (24 cells, decomposition + stabilizer + t-bar, {dt:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="claim fails as printed for k = 2: the r-span hits the universal cap "
    "C(r+1, r) = r+1, below the layered value rk",
)
def test_criterion_05_monomial_k2_claim(monomial_grid):
    (main, k2), dt = monomial_grid
    for rec in k2:
        k, t = rec.params["k"], rec.params["t"]
        assert rec.measured["span_dims"] == [rr * k for rr in range(2, t)]


def test_criterion_05_monomial_k2_measured(monomial_grid):
    (main, k2), dt = monomial_grid
    assert len(k2) == 6
    for rec in k2:
        t = rec.params["t"]
        assert rec.measured["span_dims"] == [rr + 1 for rr in range(2, t)]
        assert monomial_decomposition_check(rec) is False
    print(
        "criterion 05: FAIL as printed for k = 2 (6 cells stop at the cap r+1; "
        "layered decomposition does not apply)"
    )


def test_criterion_06_trace_grid(trace_grid):
    recs, dt = trace_grid
    alphas = {(2, 4): 14, (2, 5): 30, (3, 4): 39, (3, 5): 120}
    assert len(recs) == 8
    for rec in recs:
        q, k, t = rec.params["q"], rec.params["k"], rec.params["t"]
        r = t - 1
        assert rec.measured["subfield_intersection_dims"] == [k - 2]
        assert rec.measured["subfield_alphas"] == alphas[(q, k)]
        chain = span_chain(rec.space, s_max=r)
        assert list(chain.dims) == [rr * k for rr in range(1, r + 1)]
    assert dt < 600
    print(f"criterion 06: PASS (8 cells, intersections k-2 and spans rk, {dt:.1f}s)")


def test_criterion_07_maxspan_from_brset(brset_maxspan):
    rec, dt = brset_maxspan
    assert rec.params["S"] == [0, 1, 4, 16]
    assert rec.measured == {"dim": 4, "r_span_dim": 20}
    assert rec.claims["r_span_dim"] == math.comb(6, 3)
    rep = is_r_sidon(rec.space, 3)
    assert rep.verdict is True
    assert rep.details["multisets_checked"] == 680
    assert dt < 60
    print(f"criterion 07: PASS (dim V^3 = 20, 680 multisets collision-free, {dt:.1f}s)")


def test_criterion_08_maxspan_from_irreducibles(irreducibles_maxspan):
    rec, dt = irreducibles_maxspan
    assert rec.params["n"] == 61
    assert rec.params["Delta"] == 2
    assert rec.measured == {"dim": 4, "r_span_dim": 20}
    ctx7 = prime_ctx(7)
    factors = [
        Poly.from_ints(ctx7, rec.chosen["factors"][str(j)]) for j in range(1, 5)
    ]
    gamma = rec.space.ctx.element(rec.chosen["gamma"])
    assert polynomial_independence_check(factors, gamma) is True
    assert dt < 300
    print(f"criterion 08: PASS (20 quadratics, n = 61, dim V^3 = 20, {dt:.1f}s)")


def test_criterion_09_brset_extraction(brset_316):
    rep, dt = brset_316
    assert rep.verdict == "match" and rep.exit_code == 0
    row = rep.rows[0]
    assert row["expected"] == {
        "size": 40,
        "modulus": 21523360,
        "sums": 11480,
        "verified": True,
    }
    assert row["computed"] == row["expected"]
    assert row["bsgs_table_entries"] == 6561
    assert len(row["elements"]) == 40
    assert dt < 120
    print(f"criterion 09: PASS (40-element B_3 set mod 21523360, 11480 sums, {dt:.1f}s)")


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    ctx6 = make_field(2, 1, 6)
    pts = all_projective_points(ctx6)
    spaces = {}
    for c in itertools.combinations(range(pts.shape[0]), 3):
        W = span(ctx6, pts[list(c)])
        if W.dim == 3:
            spaces.setdefault(W.fingerprint(), W)
    assert len(spaces) == 1395  # [6 choose 3]_2
    sidon_count = 0
    for W in spaces.values():
        a = is_sidon_intersection(W).verdict
        b = is_r_sidon(W, 2).verdict
        assert a == b
        sidon_count += a
    assert sidon_count == 504
    rng = np.random.default_rng((10, 0))
    for ctx in (make_field(2, 1, 9), make_field(3, 1, 6)):
        for _ in range(500):
            V = random_subspace(ctx, 3, rng)
            assert is_sidon_intersection(V).verdict == is_r_sidon(V, 2).verdict
    dt = time.perf_counter() - t0
    print(
        "criterion 10: PASS (1395 exhaustive + 1000 random spaces, routes agree, "
        f"504 Sidon in F_(2^6), {dt:.1f}s)"
    )


def test_criterion_11_bound_audits(
    table2, table3, prop_f26, prop_trace_9, brset_316,
    monomial_grid, trace_grid, brset_maxspan, irreducibles_maxspan,
):
    def table_totals(rep):
        checks = violations = 0
        for entry in rep.audits:
            if "audit" in entry:
                assert entry["audit"]["ok"] is True
                checks += len(entry["audit"]["checks"])
            else:
                checks += entry["checks"]
                violations += entry["violations"]
        return checks, violations

    c2, v2 = table_totals(table2[0])
    assert (c2, v2) == (4663, 0)
    c3, v3 = table_totals(table3[0])
    assert (c3, v3) == (46101, 0)

    sweep_totals = {
        a["scope"]: (a["checks"], a["violations"])
        for a in prop_f26[0].audits + prop_trace_9[0].audits
    }
    assert sweep_totals == {
        "square graphs in F_(2^6)": (280, 0),
        "square graphs in F_(2^9)": (6048, 0),
        "trace graphs in F_(2^9)": (5292, 0),
        "trace graphs in F_(3^9)": (196506, 0),
    }
    assert brset_316[0].audits[0]["audit"]["ok"] is True

    audited = 0
    (main, k2), _ = monomial_grid
    for rec in main + k2:
        claim = rec.claims["r_sidon"]
        audit = audit_bounds(rec.space, r_sidon={claim["order"]: claim["source"]})
        assert audit.ok, audit.violations
        audited += 1
    for rec in trace_grid[0]:
        audit = audit_bounds(rec.space)
        assert audit.ok, audit.violations
        audited += 1
    for rec in (brset_maxspan[0], irreducibles_maxspan[0]):
        audit = audit_bounds(rec.space, r_sidon={3: "max-span"})
        assert audit.ok, audit.violations
        audited += 1
    total_checks = c2 + c3 + sum(c for c, _ in sweep_totals.values())
    print(
        f"criterion 11: PASS ({total_checks} aggregated checks plus {audited} "
        "construction audits, zero violations)"
    )


def test_criterion_12_sampling(sample_2000):
    rep, dt = sample_2000
    assert rep.verdict == "match" and rep.exit_code == 0
    by_prop = {row["property"]: row for row in rep.rows}
    two, three = by_prop["two_sidon"], by_prop["three_sidon"]
    assert two["samples"] == three["samples"] == 2000
    assert two["count"] == 1895 and three["count"] == 319
    for row in (two, three):
        lo, hi = row["band"]
        assert lo < row["fraction"] < hi
        assert row["verdict"] == "match"
    assert dt < 600
    print(
        "criterion 12: PASS (2000 samples: 94.75% 2-Sidon, 15.95% 3-Sidon, "
        f"both inside the 4-sigma bands, {dt:.1f}s)"
    )


def test_criterion_13_closure_and_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng((13, 0))
    ctxs = (make_field(2, 1, 9), make_field(3, 1, 6))
    checked = closures = 0
    for i in range(200):
        ctx = ctxs[i % 2]
        k = int(rng.integers(2, 4))
        V = random_subspace(ctx, k, rng)
        r = int(rng.integers(2, 4))
        verdict = is_r_sidon(V, r).verdict
        if verdict and r > 2:
            for rp in range(2, r):
                assert is_r_sidon(V, rp).verdict
                closures += 1
        while True:
            av = rng.integers(0, ctx.p, ctx.dim, dtype=np.int64)
            if av.any():
                break
        j = int(rng.integers(0, ctx.n))
        W = frob_image(scale(V, ctx.element(av)), j)
        assert is_r_sidon(W, r).verdict == verdict
        checked += 1
    dt = time.perf_counter() - t0
    assert checked == 200
    assert closures > 10
    print(
        f"criterion 13: PASS (200 tuples: downward closure x{closures}, "
        f"scale+Frobenius invariance throughout, {dt:.1f}s)"
    )
