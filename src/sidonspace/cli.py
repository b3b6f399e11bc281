"""Command-line front end emitting machine-readable reports.

Subcommands: field, construct, span, check, orbit, equiv, brset,
experiment. construct takes one kind (monomial, binomial, trace,
maxspan-brset, maxspan-irreducibles), brset one action (verify, extract).
Each command accepts only the options it reads. Every command prints one
JSON report to stdout (experiment prints CSV with --format csv) and also
writes it to --out PATH; brset extract --out keeps only the bare set.

Exit codes: 0 = all checks/rows match, 1 = a claimed property or an
expected table value failed, 2 = a resource budget cut the computation
short, 64 = bad usage or malformed input, 70 = internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .brset import BrSet, extract_brset, is_br_set
from .constructions import (
    binomial_family,
    maxspan_from_brset,
    maxspan_from_irreducibles,
    monomial,
    trace_space,
)
from .errors import BudgetError, ConstructionError, NoSuchElementError
from .experiments import EXPERIMENTS, ExperimentSpec, report_json, run_experiment
from .field import find_generator, make_field
from .numtheory import split_prime_power
from .orbit import orbit_report, semilinear_equivalent
from .sidon import is_r_sidon, is_sidon_intersection
from .subspace import Subspace, span_chain, stabilizer

EXIT_MATCH = 0
EXIT_MISMATCH = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a prefix would change meaning as options come and go
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # keep exit code 2 reserved for budget skips
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # leftovers are reported by the innermost command, so its own usage is shown
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


def _emit(report: dict | str, out: str | None) -> None:
    text = report if isinstance(report, str) else report_json(report)
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    return d


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return _json_object(json.load(fh), path)


def _load_subspace(path: str) -> Subspace:
    d = _load_json(path)
    if "space" in d and "basis" not in d:
        d = _json_object(d["space"], f"{path}: 'space'")
    return Subspace.from_dict(d)


def _load_brset(path: str) -> BrSet:
    d = _load_json(path)
    if "brset" in d:
        d = _json_object(d["brset"], f"{path}: 'brset'")
    return BrSet.from_dict(d)


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _budget_kw(args) -> dict:
    return {} if args.budget is None else {"budget": args.budget}


# -- subcommand handlers ---------------------------------------------------------------


def _cmd_field(args) -> int:
    p, a = split_prime_power(args.q)
    ctx = make_field(p, a, args.n)
    gen = find_generator(
        ctx, over_m=args.over, primitive=args.primitive, seed=args.seed
    )
    report = {
        "field": ctx.to_spec(),
        "q": ctx.q,
        "order": ctx.order,
        "subfield_degrees": sorted(ctx.subfield_degrees),
        "generator": gen.coeffs,
        "generator_over_m": args.over,
        "generator_primitive": args.primitive,
    }
    _emit(report, args.out)
    return EXIT_MATCH


def _cmd_construct(args) -> int:
    _emit(args.build(args).to_dict(), args.out)
    return EXIT_MATCH


def _cmd_span(args) -> int:
    V = _load_subspace(args.file)
    chain = span_chain(V, s_max=args.s_max)
    report = {
        "field": V.ctx.to_spec(),
        "dim": V.dim,
        "dims": list(chain.dims),
        "t": chain.t,
        "t_bar": chain.t_bar,
        "truncated": chain.truncated,
        "stabilizer_degrees": [stabilizer(lv) for lv in chain.levels],
    }
    _emit(report, args.out)
    return EXIT_MATCH


def _cmd_check(args) -> int:
    V = _load_subspace(args.file)
    method = args.method
    budget_kw = _budget_kw(args)
    if method in ("intersection", "both") and args.r != 2:
        raise ValueError("the intersection route only decides r = 2")
    reports = {}
    if method in ("products", "both"):
        reports["products"] = is_r_sidon(V, args.r, **budget_kw).to_dict()
    if method in ("intersection", "both"):
        reports["intersection"] = is_sidon_intersection(V, **budget_kw).to_dict()
    verdicts = {rep["verdict"] for rep in reports.values()}
    if len(verdicts) != 1:
        raise AssertionError("the two routes disagree; this is a bug")
    report = {
        "field": V.ctx.to_spec(),
        "dim": V.dim,
        "r": args.r,
        "verdict": verdicts.pop(),
        "reports": reports,
    }
    _emit(report, args.out)
    return EXIT_MATCH


def _cmd_orbit(args) -> int:
    V = _load_subspace(args.file)
    rep = orbit_report(V)
    _emit(rep.to_dict(), args.out)
    return EXIT_MATCH


def _cmd_equiv(args) -> int:
    U = _load_subspace(args.file1)
    V = _load_subspace(args.file2)
    hit = semilinear_equivalent(U, V, **_budget_kw(args))
    report = {
        "field": U.ctx.to_spec(),
        "dims": [U.dim, V.dim],
        "equivalent": hit is not None,
        "alpha": hit[0].coeffs if hit else None,
        "sigma_p_exponent": hit[1] if hit else None,
    }
    _emit(report, args.out)
    return EXIT_MATCH


def _cmd_brset_verify(args) -> int:
    bs = _load_brset(args.file)
    ok, witness = is_br_set(bs.elements, bs.r, modulus=bs.modulus, **_budget_kw(args))
    report = {
        "elements": list(bs.elements),
        "modulus": bs.modulus,
        "r": bs.r,
        "verified": ok,
        "witness": witness,
    }
    _emit(report, args.out)
    return EXIT_MATCH if ok else EXIT_MISMATCH


def _cmd_brset_extract(args) -> int:
    V = _load_subspace(args.file)
    ctx = V.ctx
    if args.gamma:
        gamma = ctx.element(_ints(args.gamma))
    else:
        gamma = find_generator(ctx, primitive=True, seed=args.seed)
    bs = extract_brset(
        V,
        args.r,
        gamma,
        assume_r_sidon=args.assume_r_sidon,
        translate=not args.no_translate,
        **_budget_kw(args),
    )
    report = {
        "brset": bs.to_dict(),
        "field": ctx.to_spec(),
        "gamma": gamma.coeffs,
        "seed": args.seed,
    }
    sys.stdout.write(report_json(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_json(bs.to_dict()))
    return EXIT_MATCH


def _cmd_experiment(args) -> int:
    flags = {
        "budget": args.budget,
        "limit": args.limit,
        "samples": args.samples,
        "collect_audits": args.collect_audits or None,
    }
    params = {key: value for key, value in flags.items() if value is not None}
    spec = ExperimentSpec(args.name, params, seed=args.seed)
    report = run_experiment(spec)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    _emit(text, args.out)
    return report.exit_code


# -- parser ----------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sidonspace",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    out = _Parser(add_help=False)
    out.add_argument("--out", metavar="PATH", default=None, help="also write the report here")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for element searches")
    budget = _Parser(add_help=False)
    budget.add_argument(
        "--budget", type=int, default=None, help="work cap; exceeding it exits 2"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", parents=[out, seed], help="field data and a generator")
    p.add_argument("q", type=int, help="base prime power q")
    p.add_argument("n", type=int, help="extension degree over F_q")
    p.add_argument("--over", type=int, default=1, help="generator degree constraint m")
    p.add_argument("--primitive", action="store_true", help="demand a primitive generator")
    p.set_defaults(fn=_cmd_field)

    kinds = sub.add_parser("construct", help="build a named space").add_subparsers(
        dest="construction", required=True
    )

    def kind(name, build, *required):
        p = kinds.add_parser(name, parents=[out, seed])
        for flag in required:
            p.add_argument(f"--{flag}", type=int, required=True)
        p.set_defaults(fn=_cmd_construct, build=build)
        return p

    p = kind(
        "monomial", lambda a: monomial(a.q, a.k, a.s, a.t, a.r, seed=a.seed), "q", "k", "t", "r"
    )
    p.add_argument("--s", type=int, default=1)
    p = kind(
        "binomial",
        lambda a: binomial_family(
            a.q, a.k, a.s, a.t, a.variant,
            delta=_ints(a.delta) if a.delta else None, seed=a.seed,
        ),
        "q", "k", "t",
    )
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--variant", choices=("mid", "end"), default="mid")
    p.add_argument("--delta", help="coefficients c0,c1,... of delta")
    kind("trace", lambda a: trace_space(a.q, a.k, a.t, seed=a.seed), "q", "k", "t")
    p = kind(
        "maxspan-brset",
        lambda a: maxspan_from_brset(_ints(a.set), a.q, a.r, a.n, seed=a.seed),
        "q", "r", "n",
    )
    p.add_argument("--set", required=True, help="B_r-set elements, comma separated")
    kind(
        "maxspan-irreducibles",
        lambda a: maxspan_from_irreducibles(a.q, a.k, a.r, seed=a.seed),
        "q", "k", "r",
    )

    p = sub.add_parser("span", parents=[out], help="span chain of a subspace file")
    p.add_argument("file")
    p.add_argument("--s-max", type=int, default=None)
    p.set_defaults(fn=_cmd_span)

    p = sub.add_parser("check", parents=[out, budget], help="r-Sidon verdict for a subspace file")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=2)
    p.add_argument(
        "--method", choices=("products", "intersection", "both"), default="products"
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("orbit", parents=[out], help="orbit code metrics of a subspace file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("equiv", parents=[out, budget], help="semilinear equivalence of two files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=_cmd_equiv)

    actions = sub.add_parser("brset", help="verify or extract B_r-sets").add_subparsers(
        dest="action", required=True
    )
    p = actions.add_parser("verify", parents=[out, budget], help="check a BrSet file")
    p.add_argument("file", help="BrSet file")
    p.set_defaults(fn=_cmd_brset_verify)
    p = actions.add_parser(
        "extract", parents=[out, seed, budget], help="B_r-set of a subspace file"
    )
    p.add_argument("file", help="subspace file")
    p.add_argument("--r", type=int, default=3, help="order r for extraction")
    p.add_argument("--gamma", help="primitive element coefficients c0,c1,...")
    p.add_argument("--assume-r-sidon", action="store_true")
    p.add_argument("--no-translate", action="store_true")
    p.set_defaults(fn=_cmd_brset_extract)

    p = sub.add_parser("experiment", parents=[out, seed, budget], help="run a named experiment")
    p.add_argument("name", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    p.add_argument("--limit", type=int, default=None, help="only the first N rows")
    p.add_argument("--samples", type=int, default=None, help="sample count override")
    p.add_argument("--collect-audits", action="store_true")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is not None and args.budget <= 0:
        parser.error("--budget must be positive")
    try:
        return args.fn(args)
    except BudgetError as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return EXIT_BUDGET
    except (
        ValueError,
        ConstructionError,
        NoSuchElementError,
        FileNotFoundError,
        KeyError,
        json.JSONDecodeError,
    ) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except AssertionError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
