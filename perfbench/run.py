"""The sidonspace benchmark: one workload, measured, checked and reported.

    python3 perfbench/run.py --workload span-tables --seed 0 --seconds 30 --trace 0

Each pass runs in a fresh single-threaded child process (``child.py``),
one at a time: set-up (import plus modulus search for every field the
workload uses), then every output produced and checked. Passes repeat
until ``--seconds`` have gone by; the end-to-end metrics are medians over
the passes. With ``--trace 1`` untraced and traced passes alternate, at
least two of each; the per-layer metrics come from the traced ones, and
the tracing overhead is the difference of the two medians of ``wall_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people. Metric
names and units come from BENCHMARK.json. A record of every pass goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("span-tables", "products-route", "intersection-route")
PASS_TIMEOUT_S = 170
# No new pass starts once the run, plus one more pass like the last,
# would pass this; the whole command must end within 180 s.
RUN_LIMIT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(workload: str, seed: int, size: str, spans: Path | None = None, run_id: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--run-id", str(run_id)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: pass {run_id} of {workload} took over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: pass {run_id} of {workload} exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["pass_s"] = time.monotonic() - t0
    print(f"pass {run_id}{' traced' if spans else ''}: setup_s={res['setup_s']:.4f} "
          f"wall_s={res['wall_s']:.4f} spaces={res['spaces']} checks={res['attempted']} "
          f"failed={res['failed']} output_digest={res['output_digest']}", flush=True)
    return res


def repeat(fn, minimum: int, seconds: float, t_begin: float) -> list[dict]:
    """Call ``fn(i)`` until ``seconds`` have passed since ``t_begin``, at least
    ``minimum`` times, and never so long that the run would overrun."""
    out: list[dict] = []
    while True:
        elapsed = time.monotonic() - t_begin
        if len(out) >= minimum and (
            elapsed >= seconds or elapsed + out[-1]["pass_s"] > RUN_LIMIT_S
        ):
            return out
        out.append(fn(len(out)))


def metadata_record() -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unknown"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def end_to_end(passes: list[dict]) -> dict:
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "spaces_per_s": statistics.median(p["spaces"] / p["wall_s"] for p in passes),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def is_count(name: str) -> bool:
    return not name.endswith((".s", "_s", "_ms"))


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts from the first traced pass, times as medians
    over the traced passes, and the tracing overhead against the untraced
    passes. Also returns the names of counts that differ between passes."""
    first = traced[0]["layers"]
    out, differ = {}, []
    for name, value in first.items():
        if is_count(name):
            out[name] = value
            if any(t["layers"][name] != value for t in traced[1:]):
                differ.append(name)
        else:
            out[name] = statistics.median(t["layers"][name] for t in traced)
    out["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out, differ


def main() -> int:
    ap = argparse.ArgumentParser(description="sidonspace benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the benchmark's own smoke tests")
    a = ap.parse_args()
    if not (ROOT / "src" / "sidonspace" / "__init__.py").is_file():
        print(f"perfbench: no sidonspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = metadata_record()
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    t_begin = time.monotonic()
    if a.trace:
        def pair(i: int) -> dict:
            plain = run_child(a.workload, a.seed, a.size, run_id=2 * i)
            spans = OUT / f"spans-{a.workload}-{a.size}-{i}.npz"
            traced = run_child(a.workload, a.seed, a.size, spans, 2 * i + 1)
            return {"plain": plain, "traced": traced, "pass_s": plain["pass_s"] + traced["pass_s"]}

        pairs = repeat(pair, 2, a.seconds, t_begin)
        plain = [p["plain"] for p in pairs]
        passes = plain + [p["traced"] for p in pairs]
        values, differ = per_layer(plain, [p["traced"] for p in pairs])
        wanted = spec["per_layer"]
    else:
        passes = plain = repeat(lambda i: run_child(a.workload, a.seed, a.size, run_id=i), 1, a.seconds, t_begin)
        values, differ = end_to_end(passes), []
        wanted = spec["end_to_end"]

    # Run-level checks: one seed gives one output, and traced counts repeat.
    digests = {p["output_digest"] for p in passes}
    attempted = sum(p["attempted"] for p in passes) + 1 + bool(a.trace)
    failed = sum(p["failed"] for p in passes) + (len(digests) != 1) + bool(differ)
    if len(digests) != 1:
        print(f"perfbench: check failed: passes disagree on output_digest {sorted(digests)}", file=sys.stderr)
    if differ:
        print(f"perfbench: check failed: traced counts differ between passes: {differ}", file=sys.stderr)

    decide = [ms for p in plain for ms in p["decide_ms"]]
    report = {
        "fail_ratio": (failed / attempted, "1"),
        "passes": (len(passes), "count"),
        "spaces_per_pass": (passes[0]["spaces"], "count"),
    }
    if decide:
        report["decide_p50_ms"] = (percentile(decide, 50), f"ms ({len(decide)} samples)")
        report["decide_p99_ms"] = (percentile(decide, 99), f"ms ({len(decide)} samples)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in report.items():
        print(f"{name:45s} {value:.6g} {unit}")
    if a.trace:
        total = statistics.median(p["traced"]["setup_s"] + p["traced"]["wall_s"] for p in pairs)
        print(f"reported self times by layer, share of traced set-up plus wall ({total:.3f} s):")
        layers: dict[str, float] = {}
        for name, value in values.items():
            if name.endswith(".self_s"):
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + value
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:12s} {value:9.4f} s {100 * value / total:5.1f}%")

    OUT.mkdir(exist_ok=True)
    record = {"workload": a.workload, "seed": a.seed, "size": a.size, "trace": a.trace,
              "seconds": a.seconds, "meta": meta, "passes": passes, "metrics": metrics,
              "report": {k: v[0] for k, v in report.items()}}
    (OUT / f"result-{a.workload}-{a.size}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
