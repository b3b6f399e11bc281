"""Tests of the benchmark itself: smoke runs, failure accounting, patch hygiene.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import child  # noqa: E402

sys.path.insert(0, str(child.SRC))
import sidonspace as ss  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    p = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, p.stderr
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for name, unit in wanted.items():
        assert printed.get(name) == unit, name


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench("--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def _flip(rep):
    return dataclasses.replace(rep, verdict=not rep.verdict)


@pytest.mark.parametrize("workload", ["products-route", "intersection-route"])
def test_wrong_product_verdict_is_counted_as_failure(workload, monkeypatch):
    fields = workloads.build_fields(workload, "tiny", 0)
    clean = workloads.run(workload, "tiny", 0, fields)
    assert clean.failed == 0
    real = ss.is_r_sidon
    monkeypatch.setattr(ss, "is_r_sidon", lambda V, r, **kw: _flip(real(V, r, **kw)))
    out = workloads.run(workload, "tiny", 0, fields)
    # Every space is still decided and checked; the wrong verdicts count.
    assert out.spaces == clean.spaces
    assert out.attempted == clean.attempted
    assert 0 < out.failed <= out.attempted


def test_wrong_table_verdict_is_counted_as_failure(monkeypatch):
    fields = workloads.build_fields("span-tables", "tiny", 0)
    real = ss.run_experiment
    monkeypatch.setattr(
        ss, "run_experiment", lambda spec: dataclasses.replace(real(spec), verdict="mismatch")
    )
    out = workloads.run("span-tables", "tiny", 0, fields)
    assert out.failed == 2 and out.attempted == 2


def _traced_objects() -> list[str]:
    """Every wrapper left anywhere in sidonspace's modules or classes."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] != "sidonspace":
            continue
        for attr, val in vars(mod).items():
            owners = [(attr, val)] + (list(vars(val).items()) if isinstance(val, type) else [])
            found += [f"{name}.{a}" for a, v in owners if getattr(v, "__perfbench_traced__", False)]
    return found


def test_untraced_pass_leaves_library_unpatched_and_traced_pass_restores_it(tmp_path):
    originals = [(owner, attr, orig) for owner, attr, orig, _ in tracing.targets()]
    res = child.run_pass("products-route", "tiny", 0)
    assert "layers" not in res and _traced_objects() == []
    res = child.run_pass("products-route", "tiny", 0, spans=tmp_path / "spans.npz", run_id=7)
    assert res["layers"]["sidon.is_r_sidon.calls"] > 0
    assert _traced_objects() == []
    for owner, attr, orig in originals:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is orig, attr
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) > 0 and (spans["end"] >= spans["start"]).all()
    assert (spans["run"] == 7).all()


def test_self_time_is_span_time_minus_child_spans():
    t = tracing.Tracer()
    inner = t.wrap(lambda: time.sleep(0.002), "toy.inner")
    outer = t.wrap(lambda: (inner(), inner(), time.sleep(0.001)), "toy.outer")
    outer()
    assert (t.stat("toy.outer", "calls"), t.stat("toy.inner", "calls")) == (1, 2)
    inner_total = t.stat("toy.inner", "s")
    assert t.stat("toy.inner", "self_s") == pytest.approx(inner_total)
    assert t.stat("toy.outer", "self_s") == pytest.approx(t.stat("toy.outer", "s") - inner_total, abs=1e-12)
    assert t.stat("toy.outer", "self_s") >= 0.001
    # The two inner spans name the outer one as parent.
    outer_idx = [i for i, n in enumerate(t.name) if t.names[n] == "toy.outer"]
    assert [t.parent[i] for i, n in enumerate(t.name) if t.names[n] == "toy.inner"] == outer_idx * 2
