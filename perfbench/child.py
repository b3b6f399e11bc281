"""One workload pass in a fresh process; prints one JSON object on stdout.

    python3 perfbench/child.py --workload NAME --seed N --size full|tiny [--trace SPANS.npz]

``run.py`` starts one of these per pass so that no field cache or lazy
table carries over between passes and set-up is paid every time, as every
command-line invocation of sidonspace pays it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_pass(workload: str, size: str, seed: int, spans: Path | None = None, run_id: int = 0) -> dict:
    """Set up, run and check one pass; with ``spans``, trace it and write the
    spans there."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads  # imports sidonspace: part of set-up

    tracer = None
    if spans is not None:
        import tracing

        tracer = tracing.Tracer(run_id)
        tracer.install()
    try:
        fields = workloads.build_fields(workload, size, seed)
        t1 = time.perf_counter()
        out = workloads.run(workload, size, seed, fields)
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "spaces": out.spaces,
        "decide_ms": out.decide_ms,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "output_digest": out.digest,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(spans)
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--trace", type=Path, default=None, help="write spans to this .npz file")
    ap.add_argument("--run-id", type=int, default=0)
    a = ap.parse_args()
    result = run_pass(a.workload, a.size, a.seed, a.trace, a.run_id)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
