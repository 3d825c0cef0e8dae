"""Regenerate ``reference.json``: the headline physics numbers each workload
is checked against, with their tolerances.

    python3 benchmarks/make_reference.py

Deterministic workloads are run at their own step and at half of it; the
tolerance is four times the change, with a floor of 1e-9 relative for
quantities that do not depend on the step. The ensemble reference is the
mean over REF_TRAJECTORIES trajectories on REF_SEED, far from the small
seeds benchmark runs are given, stored with its standard error. Takes a
few minutes.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

from run import OUT, REFERENCE, load_spinlab
from workloads import WORKLOADS, EnsembleWorkload, ScenarioWorkload

REF_SEED = 987654321
REF_TRAJECTORIES = 1024
TOL_FACTOR = 4.0
REL_FLOOR = 1e-9


def _headline(sl, workload, seed=0):
    out_dir = OUT / f"reference-{workload.name}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        plan, _ = workload.setup(sl, seed)
        outcome = workload.verify(sl, workload.run(sl, plan, out_dir), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not outcome.ok:
        raise RuntimeError(f"{workload.name}: {outcome.failures}")
    return outcome


def _halved(workload):
    if isinstance(workload, ScenarioWorkload):
        cfg = dict(workload.config)
        cfg["delta_v"] = cfg.get("delta_v", 1e-3) / 2.0
        cfg["stride"] = cfg.get("stride", 1) * 2
        return ScenarioWorkload(workload.name, **cfg)
    return replace(workload, delta_v=workload.delta_v / 2.0)


def main():
    sl = load_spinlab()
    table = {}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, EnsembleWorkload):
            big = EnsembleWorkload(name, **{**workload.config, "ensemble": REF_TRAJECTORIES})
            out = _headline(sl, big, seed=REF_SEED)
            table[name] = {k: {"value": v, "sem": out.sem[k]} for k, v in out.headline.items()}
        else:
            base = _headline(sl, workload).headline
            half = _headline(sl, _halved(workload)).headline
            table[name] = {
                k: {
                    "value": v,
                    "tol": max(TOL_FACTOR * abs(v - half[k]), REL_FLOOR * max(1.0, abs(v))),
                    "half_step": half[k],
                }
                for k, v in base.items()
            }
        print(name, json.dumps(table[name], indent=1), flush=True)
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
