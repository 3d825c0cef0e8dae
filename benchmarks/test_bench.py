"""Fast self-test of the benchmark (a few seconds):

    python3 -m pytest -q benchmarks/test_bench.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json is reported with its unit, that exact
counts repeat across runs, and that the traced run leaves no wrapper behind.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from run import END_TO_END, ROOT, load_spinlab, measure
from tracing import PER_LAYER, Tracer
from workloads import TINY, WORKLOADS, Outcome, check_headline

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that must repeat exactly between two runs of the same code
EXACT_UNITS = ("count", "bytes", "eigenvalue", "trace", "MiB")


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_metric_lists_match_benchmark_json():
    assert _units(SPEC["end_to_end"]) == {n: u for n, u, _ in END_TO_END}
    assert _units(SPEC["per_layer"]) == {n: u for n, u, _ in PER_LAYER}
    better = {e["name"]: e["better"] for e in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert better == {n: b for n, _, b in END_TO_END + PER_LAYER}
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = measure(TINY[name], seed=3, seconds=0.2, trace=False, out_root=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric_with_repeating_counts(name, tmp_path):
    eigvalsh = np.linalg.eigvalsh
    first = measure(TINY[name], seed=3, seconds=0.2, trace=True, out_root=tmp_path)
    second = measure(TINY[name], seed=3, seconds=0.2, trace=True, out_root=tmp_path)
    assert np.linalg.eigvalsh is eigvalsh
    for result in (first, second):
        assert result["correct"] and result["attempted"] == 2
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["per_layer"])
    exact = [n for n, unit, _ in PER_LAYER if unit in EXACT_UNITS]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    shares = sum(v["value"] for k, v in first["metrics"].items() if k.endswith(".share"))
    assert 0.0 < shares <= 1.0


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    sl = load_spinlab()
    tracer = Tracer(sl)
    originals = [getattr(owner, attr) for owner, attr in tracer.sites()]
    workload = TINY["workhorse"]
    plan, _ = workload.setup(sl, 0)
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(getattr(o, a) is not f for (o, a), f in zip(tracer.sites(), originals))
            workload.run(sl, plan, tmp_path)
            raise RuntimeError("leave the traced block early")
    assert [getattr(owner, attr) for owner, attr in tracer.sites()] == originals
    assert tracer.calls("dynamics.step") > 0


def test_headline_check_flags_a_moved_value():
    refs = {"zeta_min": {"value": 0.5, "tol": 1e-3}, "zeta@1": {"value": 0.2, "sem": 1e-3}}
    good = Outcome(headline={"zeta_min": 0.5005, "zeta@1": 0.2}, sem={"zeta@1": 1e-3})
    check_headline(good, refs)
    assert good.ok
    bad = Outcome(headline={"zeta_min": 0.502, "zeta@1": 0.21}, sem={"zeta@1": 1e-3})
    check_headline(bad, refs)
    assert len(bad.failures) == 2


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "workhorse",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_out").exists()
