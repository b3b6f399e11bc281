"""The three benchmark workloads, driven through the public sidonspace API.

Each workload is a pair of functions: ``fields`` lists the fields set-up
builds with ``make_field``, and ``run`` produces every output, checks it and
records it in a :class:`Outcome`. Inputs come only from the workload seed.
Library calls go through module attributes at call time (``ss.is_r_sidon``
and not a name bound at import), so the traced run sees them.

Why each workload exists is written down in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import sidonspace as ss
from sidonspace import experiments

RECORDED = json.loads((Path(__file__).with_name("digests.json")).read_text())

# Input sizes. "full" is what the benchmark measures; "tiny" is for the
# benchmark's own smoke tests and has no recorded digests.
SIZES = {
    "full": {
        "table2_limit": 4, "table3_limit": 3,
        "products_f2_9": 1500, "products_trace_3_9": 600, "products_f4_5": 100,
        "brset": True,
        "inter_f2_9": 1000, "inter_trace_3_9": 60, "inter_f4_5": 20,
    },
    "tiny": {
        "table2_limit": 1, "table3_limit": 1,
        "products_f2_9": 60, "products_trace_3_9": 10, "products_f4_5": 4,
        "brset": False,
        "inter_f2_9": 30, "inter_trace_3_9": 2, "inter_f4_5": 2,
    },
}

B3_EXPECTED = {"size": 40, "modulus": 21523360, "verified": True}


@dataclass
class Outcome:
    """Checked outputs of one workload pass.

    Every output goes into the digest in production order, every check is
    counted, and a failed check or an exception is recorded and reported
    on stderr; neither stops the pass.
    """

    spaces: int = 0
    decide_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def record(self, obj) -> None:
        line = json.dumps(obj, sort_keys=True, default=experiments._json_default)
        self._digest.update(line.encode() + b"\n")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"perfbench: check failed: {what}", file=sys.stderr)

    def item(self, what: str, fn, *args) -> None:
        """Run one checked item; an exception counts as a failed check."""
        try:
            fn(*args)
        except Exception:
            self.attempted += 1
            self.fail(f"{what}: {traceback.format_exc(limit=3).strip()}")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


# -- span-tables ------------------------------------------------------------------


def _table_fields(size: dict, seed: int) -> list[tuple]:
    """The tables build their fields at make_field's default seed."""
    t2 = [(2, 1, n, 0) for _, n, _ in experiments.TABLE2_ROWS[: size["table2_limit"]]]
    return t2 + [(3, 1, n, 0) for _, n, _ in experiments.TABLE3_ROWS[: size["table3_limit"]]]


def _run_tables(fields: dict, size: dict, seed: int, out: Outcome) -> None:
    for name in ("table2", "table3"):
        limit = size[f"{name}_limit"]

        def one(name=name, limit=limit):
            rep = ss.run_experiment(ss.ExperimentSpec(name, {"limit": limit}, seed=seed))
            text = rep.to_json()
            out.record(text)
            out.spaces += sum(row.get("delta_count", 0) for row in rep.rows)
            out.check(rep.verdict == "match", f"{name} limit={limit} seed={seed}: verdict {rep.verdict}")
            want = RECORDED["reports"].get(f"{name}:limit={limit}:seed={seed}")
            if want is not None:
                got = hashlib.sha256(text.encode()).hexdigest()
                out.check(got == want, f"{name} limit={limit} seed={seed}: report digest {got}")

        out.item(name, one)


# -- shared by both route workloads -------------------------------------------------

ROUTE_FIELDS = [(2, 1, 9, 0), (3, 1, 9, 0), (2, 2, 5, 0)]  # F_2^9, F_3^9, F_(4^5)


def _random_spaces(ctx, k: int, rng):
    while True:
        yield ss.random_subspace(ctx, k, rng)


def _trace_graphs(ctx, rng):
    """Trace graphs {u + Tr(u) gamma : u in F_27} for seeded gamma outside F_27."""
    f = ss.LinearizedPoly.trace_poly(ctx, 3)
    while True:
        g = rng.integers(0, ctx.p, ctx.dim, dtype=np.int64)
        if not ctx.in_subfield(g, 3):
            yield ss.v_f_gamma(f, ss.FieldElement(ctx, g))


def _space_sets(fields: dict, size: dict, prefix: str, seed: int):
    """(label, count, spaces, expectation) shared by both route workloads.

    Spaces are drawn lazily, one per checked item. The F_2^9 stream uses
    sample-f2-9's generator, so its verdicts are that experiment's samples;
    trace graphs are known to be 2-Sidon and not 3-Sidon.
    """
    f29, f39, f45 = (fields[spec] for spec in ROUTE_FIELDS)
    n29, n39, n45 = (size[f"{prefix}_{key}"] for key in ("f2_9", "trace_3_9", "f4_5"))
    return [
        ("F_2^9", n29, _random_spaces(f29, 3, np.random.default_rng((2, 9, 3, seed))), None),
        ("trace F_3^9", n39, _trace_graphs(f39, np.random.default_rng((3, 9, 0x7A, seed))), "trace"),
        ("F_4^5", n45, _random_spaces(f45, 2, np.random.default_rng((4, 5, 2, seed))), None),
    ]


def _timed(out: Outcome, fn, *args):
    t0 = time.perf_counter()
    res = fn(*args)
    out.decide_ms.append((time.perf_counter() - t0) * 1e3)
    out.spaces += 1
    return res


def _witness_holds(ctx, w: dict) -> bool:
    """A product witness is valid when its two multisets differ and their
    products differ only by a nonzero factor from F_q (checked by
    multiplying out and testing the quotient for membership in F_q)."""
    if sorted(map(tuple, w["multiset_a"])) == sorted(map(tuple, w["multiset_b"])):
        return False
    pa, pb = ss.FieldElement(ctx, ctx.one_vec), ss.FieldElement(ctx, ctx.one_vec)
    for v in w["multiset_a"]:
        pa = pa * ss.FieldElement(ctx, np.array(v, dtype=np.int64))
    for v in w["multiset_b"]:
        pb = pb * ss.FieldElement(ctx, np.array(v, dtype=np.int64))
    quo = pa / pb
    return not quo.is_zero() and ctx.in_subfield(quo.vec, 1)


# -- products-route --------------------------------------------------------------------


def _product_fields(size: dict, seed: int) -> list[tuple]:
    return ROUTE_FIELDS + ([(3, 1, 16, seed)] if size["brset"] else [])


def _decide_products(V):
    rep2 = ss.is_r_sidon(V, 2)
    return rep2, (ss.is_r_sidon(V, 3) if rep2.verdict else None)


def _run_products(fields: dict, size: dict, seed: int, out: Outcome) -> None:
    counts = {"two_sidon": 0, "three_sidon": 0}
    for label, count, spaces, expect in _space_sets(fields, size, "products", seed):
        for i in range(count):
            def one(spaces=spaces, label=label, i=i, expect=expect):
                V = next(spaces)
                rep2, rep3 = _timed(out, _decide_products, V)
                out.record([label, i, rep2.to_dict(), rep3 and rep3.to_dict()])
                ok = all(
                    _witness_holds(V.ctx, rep.witness)
                    for rep in (rep2, rep3) if rep is not None and not rep.verdict
                )
                if expect == "trace":
                    ok = ok and rep2.verdict and rep3 is not None and not rep3.verdict
                out.check(ok, f"products {label} #{i}: verdicts {rep2.verdict}, {rep3 and rep3.verdict}")
                if label == "F_2^9":
                    counts["two_sidon"] += rep2.verdict
                    counts["three_sidon"] += bool(rep3 and rep3.verdict)

            out.item(f"products {label} #{i}", one)
    n = size["products_f2_9"]
    out.record(["F_2^9 counts", counts])
    # sample-f2-9's rule: the printed range widened by 4 binomial sigmas.
    for prop, (low, high) in experiments.SAMPLE_BANDS.items():
        p_star = low if abs(low - 0.5) <= abs(high - 0.5) else high
        sigma = (p_star * (1 - p_star) / n) ** 0.5
        frac = counts[prop] / n
        out.check(low - 4 * sigma <= frac <= high + 4 * sigma, f"F_2^9 {prop} rate {frac:.4f}")
    if size["brset"]:
        out.item("B_3 extraction", _run_b3, fields[(3, 1, 16, seed)], seed, out)


def _run_b3(ctx, seed: int, out: Outcome) -> None:
    """Primitive gamma, binomial graph space, B_3 extraction in F_3^16; one
    seed for the field, gamma and delta alike."""
    gamma = ss.find_generator(ctx, over_m=4, primitive=True, seed=seed)
    rec = ss.binomial_family(3, 4, 1, 4, "end", gamma=gamma, seed=seed)
    bs = ss.extract_brset(rec.space, 3, gamma, verify=True)
    out.record(["B_3", rec.chosen, bs.to_dict()])
    got = {"size": bs.size, "modulus": bs.modulus, "verified": bs.verified}
    out.check(got == B3_EXPECTED, f"B_3 set {got}")


# -- intersection-route -----------------------------------------------------------------


def _run_intersection(fields: dict, size: dict, seed: int, out: Outcome) -> None:
    for label, count, spaces, expect in _space_sets(fields, size, "inter", seed):
        for i in range(count):
            def one(spaces=spaces, label=label, i=i, expect=expect):
                V = next(spaces)
                rep = _timed(out, ss.is_sidon_intersection, V)
                cross = ss.is_r_sidon(V, 2)
                out.record([label, i, rep.to_dict(), cross.verdict])
                ok = rep.verdict == cross.verdict and (expect != "trace" or rep.verdict)
                out.check(ok, f"intersection {label} #{i}: routes say {rep.verdict} and {cross.verdict}")

            out.item(f"intersection {label} #{i}", one)


WORKLOADS = {
    "span-tables": (_table_fields, _run_tables),
    "products-route": (_product_fields, _run_products),
    "intersection-route": (lambda size, seed: ROUTE_FIELDS, _run_intersection),
}


def build_fields(workload: str, size: str, seed: int) -> dict:
    """Set-up: build every field the workload uses (modulus search), keyed
    by (p, a, n, seed)."""
    specs = WORKLOADS[workload][0](SIZES[size], seed)
    return {spec: ss.make_field(*spec[:3], seed=spec[3]) for spec in specs}


def run(workload: str, size: str, seed: int, fields: dict) -> Outcome:
    """Produce and check every output of one workload pass."""
    out = Outcome()
    WORKLOADS[workload][1](fields, SIZES[size], seed, out)
    want = RECORDED["outputs"].get(f"{workload}:{size}:seed={seed}")
    if want is not None:
        out.check(out.digest == want, f"{workload} seed={seed}: output digest {out.digest}")
    return out
