"""Named reproduction experiments with deterministic, rerunnable reports.

Each experiment binds a fixed parameter grid, sweeps it with seeded element
choices, and emits one row per parameter tuple carrying expected value,
computed value, and a verdict. Reports embed every choice (field spec,
seeds, generators) so a rerun with the same spec is byte-identical.

The graph-space sweeps define no family of their own: ``graph_bases`` builds each basis
from f(B), taken from ``binomial_images`` by the tables and from ``LinearizedPoly`` by
prop-f26 and prop-trace-9; the tables take their deltas from ``admissible_deltas``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .brset import extract_brset
from .constructions import admissible_deltas, binomial_family, binomial_images
from .errors import int_scalar
from .field import DiscreteLogTable, find_generator, make_field
from .linalg import batch_rref
from .qpoly import LinearizedPoly, graph_bases
from .sidon import audit_bounds, max_span_bound, r_sidon_profile
from .subspace import Subspace, random_subspace, span_levels


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def report_json(obj) -> str:
    """The one JSON form of every report: sorted keys, indent 2, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


# (r, n, k) rows, q = 2, s = 1, variant "mid": f = x^(q^s) + delta x^(q^(2s)), all delta != 0
TABLE2_ROWS: tuple[tuple[int, int, int], ...] = (
    (3, 25, 5), (3, 30, 6), (3, 35, 7), (3, 40, 8),
    (4, 24, 4), (4, 35, 5), (4, 36, 6), (4, 42, 7), (4, 48, 8),
    (5, 28, 4), (5, 35, 5), (5, 42, 6), (5, 49, 7),
)

# (r, n, k) rows, q = 3, s = 1, variant "end": f = x^(q^s) + delta x^(q^(s(k-1))),
# delta restricted to norm != 1 when k is even
TABLE3_ROWS: tuple[tuple[int, int, int], ...] = (
    (3, 36, 4), (3, 25, 5), (3, 30, 6), (3, 35, 7), (3, 40, 8),
    (4, 24, 4), (4, 30, 5), (4, 36, 6), (4, 42, 7), (4, 48, 8),
    (5, 28, 4), (5, 35, 5), (5, 42, 6),
)

# deltas per stacked span chain: wider stacks ran no faster and raised the peak memory
TABLE_CHUNK = 4

SAMPLE_BANDS = {
    # property -> (low, high) printed sampling range the band wraps
    "two_sidon": (0.936, 0.951),
    "three_sidon": (0.145, 0.166),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment, its parameter overrides and its seed."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def _params(spec: ExperimentSpec, **defaults) -> tuple:
    """The values of the parameters an experiment reads, in the order named.

    A boolean default names a flag (a JSON boolean); any other default a
    count (an integer of at least 1, the default when absent or None).
    Every key of ``spec.params`` not named here is refused.
    """
    unread = [key for key in spec.params if key not in defaults]
    if unread:
        reads = ", ".join(map(repr, defaults))
        raise ValueError(
            f"experiment {spec.name!r} does not read {', '.join(map(repr, unread))}"
            f" (it reads {reads})"
        )
    values = []
    for key, default in defaults.items():
        if isinstance(default, bool):
            value = spec.params.get(key, default)
            if not isinstance(value, bool):
                raise ValueError(f"{key} must be true or false, got {value!r}")
        else:
            value = spec.params.get(key)
            if value is None:
                value = default
            elif int_scalar(value, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        values.append(value)
    return tuple(values)


@dataclass
class ExperimentReport:
    name: str
    params: dict
    rows: list[dict]
    verdict: str
    audits: list[dict] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.verdict == "mismatch":
            return 1
        if self.verdict == "budget-skip":
            return 2
        return 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "rows": self.rows,
            "audits": self.audits,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        return report_json(self.to_dict())

    def to_csv(self) -> str:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        for row in self.rows:
            w.writerow(
                [
                    _csv_cell(row[c]) if c in row else ""
                    for c in cols
                ]
            )
        return buf.getvalue()


def _csv_cell(v) -> str:
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, sort_keys=True, default=_json_default)
    return str(v)


def _overall_verdict(rows: list[dict]) -> str:
    verdicts = [r.get("verdict", "match") for r in rows]
    if any(v == "mismatch" for v in verdicts):
        return "mismatch"
    if any(v == "skipped: budget" for v in verdicts):
        return "budget-skip"
    return "match"


def _graph_table(
    spec: ExperimentSpec,
    *,
    q: int,
    rows_def: tuple[tuple[int, int, int], ...],
    variant: str,
) -> ExperimentReport:
    s = 1
    limit, budget, collect = _params(spec, limit=None, budget=None, collect_audits=False)
    rows: list[dict] = []
    audits: list[dict] = []
    for idx, (r, n, k) in enumerate(rows_def[:limit]):
        expected = (r + 1) * k
        work = (q**k - 1) * r * k * k  # ~ field products per sweep
        base_row = {
            "index": idx,
            "r": r,
            "n": n,
            "q": q,
            "k": k,
            "s": s,
            "expected_dim": expected,
            "work": work,
        }
        if budget is not None and work > budget:
            rows.append({**base_row, "verdict": "skipped: budget"})
            continue
        ctx = make_field(q, 1, n)
        gamma = find_generator(ctx, over_m=k, seed=spec.seed)
        Fs, Fe = binomial_images(ctx, k, s, variant)
        G0, G1 = graph_bases(ctx, k, Fs, gamma.vec), ctx.mul_many(Fe, gamma.vec)  # V_d = G0 + d G1
        deltas = ctx.subfield_elements(k)
        deltas = deltas[admissible_deltas(ctx, deltas, k, variant)]
        chains: list[list[int]] = []
        for dv in np.split(deltas, range(TABLE_CHUNK, deltas.shape[0], TABLE_CHUNK)):
            R, ranks = batch_rref(G0 + ctx.mul_many(dv[:, None], G1), ctx.p)
            assert (ranks == k).all(), "graph space lost dimension"
            chains += [[len(rows) for rows in lv] for lv in span_levels(ctx, R, r)]  # q = p: F_p ranks
        bounds = [max_span_bound(n, k, lvl) for lvl in range(1, r + 1)]
        cap_violations = sum(d > b for dims in chains for d, b in zip(dims, bounds))
        dims_seen = Counter(dims[-1] for dims in chains)  # dim V^r: a shorter chain is stable
        if collect:
            V = Subspace(ctx, (G0 + ctx.mul_many(deltas[0], G1)) % ctx.p)
            audit = audit_bounds(V, s_max=r).to_dict()
            audits.append({"experiment_row": idx, "scope": "first delta, full bound audit", "audit": audit})
            audits.append(
                {
                    "experiment_row": idx,
                    "scope": "every delta, span-cap dim V^s <= min(n, C(k+s-1,s))",
                    "spaces": int(deltas.shape[0]),
                    "checks": int(deltas.shape[0]) * r,
                    "violations": cap_violations,
                }
            )
        observed = {str(d): c for d, c in sorted(dims_seen.items())}
        verdict = "match" if set(dims_seen) == {expected} else "mismatch"
        rows.append(
            {
                **base_row,
                "delta_count": int(deltas.shape[0]),
                "gamma": [int(c) for c in gamma.coeffs],
                "dims_observed": observed,
                "chain_dims_first": chains[0],
                "cap_violations": cap_violations,
                "verdict": verdict if cap_violations == 0 else "mismatch",
            }
        )
    params = {
        "name": spec.name,
        "seed": spec.seed,
        "q": q,
        "s": s,
        "limit": limit,
        "budget": budget,
        "rows_total": len(rows_def),
    }
    return ExperimentReport(spec.name, params, rows, _overall_verdict(rows), audits)


def run_table2(spec: ExperimentSpec) -> ExperimentReport:
    return _graph_table(spec, q=2, rows_def=TABLE2_ROWS, variant="mid")


def run_table3(spec: ExperimentSpec) -> ExperimentReport:
    return _graph_table(spec, q=3, rows_def=TABLE3_ROWS, variant="end")


def _gamma_sweep(f: LinearizedPoly, family: str, collect, audits, **extra) -> dict:
    """Report row for the graph spaces {u + f(u) gamma}, one per gamma outside F_{q^k}.

    Expected: every space 2-Sidon and none 3-Sidon. ``extra`` keys go in
    after the counts, before the first non-2-Sidon witness.
    """
    ctx, k = f.ctx, f.k
    FB = f.matrix_on_subfield()
    gammas = ctx.subfield_elements(ctx.n)
    gammas = gammas[~np.asarray(ctx.in_subfield(gammas, k))]
    two = three = 0
    first_bad_two = None
    audit_violations = 0
    audit_checks = 0
    for gv in gammas:
        V = Subspace(ctx, graph_bases(ctx, k, FB, gv))
        assert V.dim == k, "graph space lost dimension"
        profile = r_sidon_profile(V, 3)
        vouched = {rep.r: "measured:products" for rep in profile if rep.verdict}
        two += 2 in vouched
        three += 3 in vouched
        if 2 not in vouched and first_bad_two is None:
            first_bad_two = {"gamma": [int(c) for c in gv], "witness": profile[0].witness}
        if collect:
            audit = audit_bounds(V, r_sidon=vouched)
            audit_checks += len(audit.checks)
            audit_violations += len(audit.violations)
    field_name = f"F_({ctx.q}^{ctx.n})"
    count = int(gammas.shape[0])
    if collect:
        audits.append(
            {
                "scope": f"{family} in {field_name}",
                "spaces": count,
                "checks": audit_checks,
                "violations": audit_violations,
            }
        )
    row = {
        "field": field_name,
        "gamma_count": count,
        "expected": {"two_sidon": count, "three_sidon": 0},
        "computed": {"two_sidon": two, "three_sidon": three},
        **extra,
    }
    if first_bad_two is not None:
        row["first_non_two_sidon"] = first_bad_two
    row["verdict"] = "match" if (two, three) == (count, 0) else "mismatch"
    return row


def run_prop_f26(spec: ExperimentSpec) -> ExperimentReport:
    """Square graphs {u + u^2 gamma}, u in F_8, over F_2^6 and F_2^9.

    The printed claim is the F_2^6 row: every one of the 56 gamma outside
    F_8 gives a 2-Sidon, not 3-Sidon space. The measured truth contradicts
    the 2-Sidon half at n = 6 (a witness is embedded in the row), while at
    n = 9 the claim holds for all 504 gamma; the n = 9 row is reported
    alongside as context and the mismatch is left visible.
    """
    (collect,) = _params(spec, collect_audits=False)
    audits: list[dict] = []
    rows = [
        _gamma_sweep(
            LinearizedPoly.monomial(make_field(2, 1, n), 3, 1),
            "square graphs", collect, audits, claimed=n == 6,
        )
        for n in (6, 9)
    ]
    params = {"name": spec.name, "seed": spec.seed, "k": 3, "q": 2}
    return ExperimentReport(spec.name, params, rows, _overall_verdict(rows), audits)


def run_prop_trace_9(spec: ExperimentSpec) -> ExperimentReport:
    """Trace graphs {u + Tr(u) gamma}, u in F_{q^3}, in F_{q^9}, q in {2,3}.

    Exhaustive over every gamma outside F_{q^3}; expectation: always Sidon,
    never 3-Sidon.
    """
    collect, limit = _params(spec, collect_audits=False, limit=None)
    audits: list[dict] = []
    qs = (2, 3)[:limit]
    rows = [
        _gamma_sweep(
            LinearizedPoly.trace_poly(make_field(q, 1, 9), 3), "trace graphs", collect, audits
        )
        for q in qs
    ]
    params = {"name": spec.name, "seed": spec.seed, "k": 3, "qs": list(qs)}
    return ExperimentReport(spec.name, params, rows, _overall_verdict(rows), audits)


def run_sample_f2_9(spec: ExperimentSpec) -> ExperimentReport:
    """Uniform 3-dim subspaces of F_2^9; Sidon-rate band check.

    The acceptance band per property is [low - 4*sigma, high + 4*sigma]
    where (low, high) is the printed sampling range and sigma is the
    binomial standard error at the sample size, evaluated at the band
    endpoint nearer 1/2 (the conservative choice). The printed range came
    from an unstated sample size, so a statistical band is the honest
    comparison.
    """
    (N,) = _params(spec, samples=2000)
    ctx = make_field(2, 1, 9)
    rng = np.random.default_rng((2, 9, 3, spec.seed))
    counts = {"two_sidon": 0, "three_sidon": 0}
    for _ in range(N):
        profile = r_sidon_profile(random_subspace(ctx, 3, rng), 3)
        for prop, rep in zip(counts, profile):  # r = 2, then r = 3 if V is 2-Sidon
            counts[prop] += rep.verdict
    rows = []
    for prop in ("two_sidon", "three_sidon"):
        low, high = SAMPLE_BANDS[prop]
        p_star = low if abs(low - 0.5) <= abs(high - 0.5) else high
        sigma = math.sqrt(p_star * (1 - p_star) / N)
        band = [low - 4 * sigma, high + 4 * sigma]
        frac = counts[prop] / N
        rows.append(
            {
                "property": prop,
                "samples": N,
                "count": counts[prop],
                "fraction": frac,
                "printed_range": [low, high],
                "sigma_hat": sigma,
                "band": band,
                "band_rule": "printed range widened by 4 binomial standard errors",
                "verdict": "match" if band[0] <= frac <= band[1] else "mismatch",
            }
        )
    params = {
        "name": spec.name,
        "seed": spec.seed,
        "samples": N,
        "rng": "numpy default_rng((2, 9, 3, seed))",
        "dim": 3,
        "field": "F_(2^9)",
    }
    return ExperimentReport(spec.name, params, rows, _overall_verdict(rows))


def run_brset_316(spec: ExperimentSpec) -> ExperimentReport:
    """Extract a B_3 set from a binomial graph space in F_3^16.

    Builds V = {u + (u^q + delta u^(q^3)) gamma} over F_81 with primitive
    gamma and norm(delta) != 1, checks the 3-Sidon property by brute force,
    and maps the 40 projective points through discrete logs to a B_3 set
    modulo (3^16 - 1)/2.
    """
    (collect,) = _params(spec, collect_audits=False)
    q, k, s, t, r = 3, 4, 1, 4, 3
    ctx = make_field(q, 1, k * t, seed=spec.seed)
    gamma = find_generator(ctx, over_m=k, primitive=True, seed=spec.seed)
    rec = binomial_family(q, k, s, t, variant="end", gamma=gamma, seed=spec.seed)
    V = rec.space
    bs = extract_brset(V, r, gamma, verify=True)
    modulus = (ctx.order - 1) // (ctx.q - 1)
    n_sums = math.comb(bs.size + r - 1, r)
    expected = {"size": 40, "modulus": 21523360, "sums": 11480, "verified": True}
    computed = {
        "size": bs.size,
        "modulus": bs.modulus,
        "sums": n_sums,
        "verified": bs.verified,
    }
    row = {
        "q": q,
        "k": k,
        "s": s,
        "t": t,
        "r": r,
        "n": k * t,
        "gamma": [int(c) for c in gamma.coeffs],
        "delta": rec.chosen["delta"],
        "expected": expected,
        "computed": computed,
        "elements": list(bs.elements),
        "group_order": modulus,
        "bsgs_table_entries": DiscreteLogTable.steps(ctx.order - 1),
        "verdict": "match" if computed == expected else "mismatch",
    }
    audits = []
    if collect:
        audit = audit_bounds(V, r_sidon={2: "measured:products", 3: "measured:products"})
        audits.append({"scope": "extraction space", "audit": audit.to_dict()})
    params = {"name": spec.name, "seed": spec.seed}
    return ExperimentReport(spec.name, params, [row], _overall_verdict([row]), audits)


EXPERIMENTS = {
    "table2": run_table2,
    "table3": run_table3,
    "prop-f26": run_prop_f26,
    "prop-trace-9": run_prop_trace_9,
    "sample-f2-9": run_sample_f2_9,
    "brset-316": run_brset_316,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Dispatch a spec to its experiment; rows are assembled in index order."""
    if spec.name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {spec.name!r} (known: {known})")
    return EXPERIMENTS[spec.name](spec)
