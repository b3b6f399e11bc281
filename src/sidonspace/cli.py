"""Command-line front end emitting machine-readable reports.

Subcommands: field, construct, span, check, orbit, equiv, brset,
experiment. Every command prints one JSON (or CSV where meaningful)
report to stdout and optionally writes it with --out.

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
from .errors import BudgetError, ConstructionError, NoSuchElementError, int_list, int_scalar
from .experiments import EXPERIMENTS, ExperimentSpec, _json_default, run_experiment
from .field import field_from_spec, find_generator, make_field, split_prime_power
from .orbit import orbit_report, semilinear_equivalent
from .sidon import is_r_sidon, is_sidon_intersection
from .subspace import Subspace, span_chain, stabilizer

EXIT_MATCH = 0
EXIT_MISMATCH = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for budget skips
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(report: dict | str, out: str | None) -> None:
    text = (
        report
        if isinstance(report, str)
        else json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    )
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


def _field_from_args(d: dict):
    if "p" not in _json_object(d, "'field'"):
        p, a = split_prime_power(int_scalar(d["q"], "q"))
        d = {"p": p, "a": a, "n": d["n"], "modulus": d.get("modulus")}
    return field_from_spec(d)


def _load_subspace(path: str) -> Subspace:
    d = _load_json(path)
    if "space" in d and "basis" not in d:
        d = _json_object(d["space"], f"{path}: 'space'")
    if "basis" not in d or "field" not in d or not isinstance(d["basis"], list):
        raise ValueError(f"{path}: expected a subspace file with 'field' and a 'basis' list")
    ctx = _field_from_args(d["field"])
    return Subspace(ctx, [int_list(row, f"{path}: basis row") for row in d["basis"]])


def _load_brset(path: str) -> BrSet:
    d = _load_json(path)
    if "brset" in d:
        d = _json_object(d["brset"], f"{path}: 'brset'")
    return BrSet.from_dict(d)


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


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


_CONSTRUCT_REQUIRED = {
    "monomial": ("k", "t", "r"),
    "binomial": ("k", "t"),
    "trace": ("k", "t"),
    "maxspan-brset": ("r", "n", "set"),
    "maxspan-irreducibles": ("k", "r"),
}


def _cmd_construct(args) -> int:
    name = args.construction
    missing = [
        a for a in _CONSTRUCT_REQUIRED[name] if getattr(args, a.replace("-", "_")) is None
    ]
    if missing:
        raise ValueError(
            f"construction {name!r} needs --" + ", --".join(missing)
        )
    if name == "monomial":
        rec = monomial(args.q, args.k, args.s, args.t, args.r, seed=args.seed)
    elif name == "binomial":
        rec = binomial_family(
            args.q,
            args.k,
            args.s,
            args.t,
            args.variant,
            delta=_ints(args.delta) if args.delta else None,
            seed=args.seed,
        )
    elif name == "trace":
        rec = trace_space(args.q, args.k, args.t, seed=args.seed)
    elif name == "maxspan-brset":
        rec = maxspan_from_brset(_ints(args.set), args.q, args.r, args.n, seed=args.seed)
    elif name == "maxspan-irreducibles":
        rec = maxspan_from_irreducibles(args.q, args.k, args.r, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(name)
    _emit(rec.to_dict(), args.out)
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
    budget_kw = {} if args.budget is None else {"budget": args.budget}
    reports = {}
    if method in ("products", "both"):
        reports["products"] = is_r_sidon(V, args.r, **budget_kw).to_dict()
    if method in ("intersection", "both"):
        if args.r != 2:
            raise ValueError("the intersection route only decides r = 2")
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
    kwargs = {}
    if args.budget is not None:
        kwargs["budget"] = args.budget
    hit = semilinear_equivalent(U, V, **kwargs)
    report = {
        "field": U.ctx.to_spec(),
        "dims": [U.dim, V.dim],
        "equivalent": hit is not None,
        "alpha": hit[0].coeffs if hit else None,
        "sigma_p_exponent": hit[1] if hit else None,
    }
    _emit(report, args.out)
    return EXIT_MATCH


def _cmd_brset(args) -> int:
    budget_kw = {} if args.budget is None else {"budget": args.budget}
    if args.action == "verify":
        bs = _load_brset(args.file)
        ok, witness = is_br_set(bs.elements, bs.r, modulus=bs.modulus, **budget_kw)
        report = {
            "elements": list(bs.elements),
            "modulus": bs.modulus,
            "r": bs.r,
            "verified": ok,
            "witness": witness,
        }
        _emit(report, args.out)
        return EXIT_MATCH if ok else EXIT_MISMATCH
    # extract
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
        **budget_kw,
    )
    report = {
        "brset": bs.to_dict(),
        "field": ctx.to_spec(),
        "gamma": gamma.coeffs,
        "seed": args.seed,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(bs.to_dict(), sort_keys=True, indent=2, default=_json_default)
                + "\n"
            )
    return EXIT_MATCH


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            params[key] = json.loads(val)
        except json.JSONDecodeError:
            params[key] = val
    return params


def _cmd_experiment(args) -> int:
    params = _parse_params(args.param)
    if args.budget is not None:
        params.setdefault("budget", args.budget)
    if args.limit is not None:
        params["limit"] = args.limit
    if args.samples is not None:
        params["samples"] = args.samples
    if args.collect_audits:
        params["collect_audits"] = True
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
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for element searches")
    common.add_argument(
        "--budget", type=int, default=None, help="work cap; exceeding it exits 2"
    )
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    common.add_argument("--out", metavar="PATH", default=None, help="also write the report here")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", parents=[common], help="field data and a generator")
    p.add_argument("q", type=int, help="base prime power q")
    p.add_argument("n", type=int, help="extension degree over F_q")
    p.add_argument("--over", type=int, default=1, help="generator degree constraint m")
    p.add_argument("--primitive", action="store_true", help="demand a primitive generator")
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("construct", parents=[common], help="build a named space")
    p.add_argument(
        "construction",
        choices=(
            "monomial",
            "binomial",
            "trace",
            "maxspan-brset",
            "maxspan-irreducibles",
        ),
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--variant", choices=("mid", "end"), default="mid")
    p.add_argument("--delta", help="coefficients c0,c1,... of delta")
    p.add_argument("--set", help="B_r-set elements, comma separated")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("span", parents=[common], help="span chain of a subspace file")
    p.add_argument("file")
    p.add_argument("--s-max", type=int, default=None)
    p.set_defaults(fn=_cmd_span)

    p = sub.add_parser("check", parents=[common], help="r-Sidon verdict for a subspace file")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=2)
    p.add_argument(
        "--method", choices=("products", "intersection", "both"), default="products"
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("orbit", parents=[common], help="orbit code metrics of a subspace file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("equiv", parents=[common], help="semilinear equivalence of two files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("brset", parents=[common], help="verify or extract B_r-sets")
    p.add_argument("action", choices=("verify", "extract"))
    p.add_argument("file", help="BrSet file (verify) or subspace file (extract)")
    p.add_argument("--r", type=int, default=3, help="order r for extraction")
    p.add_argument("--gamma", help="primitive element coefficients c0,c1,...")
    p.add_argument("--assume-r-sidon", action="store_true")
    p.add_argument("--no-translate", action="store_true")
    p.set_defaults(fn=_cmd_brset)

    p = sub.add_parser("experiment", parents=[common], help="run a named experiment")
    p.add_argument("name", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
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
    if args.format == "csv" and args.command != "experiment":
        parser.error("--format csv is only available for 'experiment'")
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
