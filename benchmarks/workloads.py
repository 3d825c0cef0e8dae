"""The four benchmark workloads: what each one runs, and how its outputs
are checked.

Each workload is a real user scenario, and each layer that is likely to be
optimised does most of its work in one workload and little in another:

* ``workhorse``       the ``fig1`` default scenario (two samples of spin 5,
                      simple law) run through the gain spike at v~2.97.
                      Dense GEMMs in ``dynamics`` dominate.
* ``two_mode_large``  the same scenario at 2j=20 (dimension 441). The
                      O(n^3) products dominate and Python overhead is
                      negligible; the frame's cached n x n triples dominate
                      set-up and memory.
* ``cond_ensemble``   64 record-conditioned spin-1 trajectories and their
                      mean. Per-step cost is numpy dispatch and the Python
                      loop (``stochastic``, ``metrics``, ``feedback``).
* ``size_sweep``      the ``fig6a`` simple-law row over six small spins plus
                      the ``fig2``/``fig6b`` extremal frontier. The same
                      ``dynamics`` code at small n with a metrics row every
                      step, and the only user of ``optimal_states``.

Every workload works through a namespace ``sl`` of freshly imported
spinlab modules (see ``run.load_spinlab``), so the traced run can wrap the
module attributes the callers look up.

Correctness: every status is ``ok``, every artifact round-trips bit-exactly
through ``harness.read_csv``, and each workload's headline physics numbers
stay within the tolerances recorded in ``reference.json`` (regenerate with
``make_reference.py``). Tolerances are four times the change under halving
the step, so an honest integrator change fits and a broken one does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# CSV column -> record column; the artifact contract in the README
_RECORD_NAME = {"lambda": "lam"}
# worst state eigenvalue the deterministic runs may reach before the run
# counts as failed; the same floor dynamics.py warns at
EIG_FLOOR = -1e-3
# ensemble means must sit within this many combined standard errors
ENSEMBLE_PULL = 5.0


@dataclass
class Outcome:
    """What one workload repetition produced and how it was judged."""

    headline: dict = field(default_factory=dict)  # name -> float
    sem: dict = field(default_factory=dict)  # name -> standard error, ensemble only
    artifacts: list = field(default_factory=list)  # paths written
    failures: list = field(default_factory=list)  # human-readable reasons
    counts: dict = field(default_factory=dict)  # exact counts read off the outputs
    digests: dict = field(default_factory=dict)  # artifact name -> sha256, informational

    @property
    def ok(self) -> bool:
        return not self.failures


def _bits_equal(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    same = a.view(np.uint64) == b.view(np.uint64)
    return bool(np.all(same | (np.isnan(a) & np.isnan(b))))


def _check_numeric_csv(sl, path, expected: dict, header_expect: dict, out: Outcome) -> None:
    """Round-trip one numeric artifact: every column bit-exact, header as written."""
    header, columns = sl.harness.read_csv(path)
    for key, want in header_expect.items():
        if header.get(key) != want:
            out.failures.append(f"{path.name}: header {key}={header.get(key)!r}, expected {want!r}")
    if set(columns) != set(expected):
        out.failures.append(f"{path.name}: columns {sorted(columns)} != {sorted(expected)}")
        return
    for name, values in expected.items():
        if not _bits_equal(columns[name], values):
            out.failures.append(f"{path.name}: column {name} does not round-trip bit-exactly")


def check_headline(out: Outcome, refs: dict) -> None:
    """Compare the headline numbers with their recorded references."""
    for name, ref in refs.items():
        got = out.headline.get(name)
        if got is None or not math.isfinite(got):
            out.failures.append(f"{name}: missing or non-finite ({got!r})")
            continue
        if "sem" in ref:
            tol = ENSEMBLE_PULL * math.hypot(ref["sem"], out.sem[name])
        else:
            tol = ref["tol"]
        if abs(got - ref["value"]) > tol:
            out.failures.append(
                f"{name}: {got!r} differs from reference {ref['value']!r} by more than {tol:.3g}"
            )


class ScenarioWorkload:
    """One record-averaged ``harness.run_scenario`` call with its CSV."""

    def __init__(self, name: str, **config):
        self.name = name
        self.config = config

    def setup(self, sl, seed: int):
        """(what ``run`` needs, what set-up built): the config, then its frame and state."""
        cfg = sl.harness.SimConfig(**self.config)
        return cfg, (cfg.frame(), cfg.initial_state())

    def run(self, sl, cfg, out_dir: Path):
        cfg = replace(cfg, out=str(out_dir / f"{self.name}.csv"))
        return sl.harness.run_scenario(cfg), cfg

    def verify(self, sl, result, out_dir: Path) -> Outcome:
        record, cfg = result
        out = Outcome()
        path = Path(cfg.out)
        out.artifacts.append(path)
        if record.status != "ok":
            out.failures.append(f"status {record.status}: {record.abort_reason}")
        if record.min_eig_floor < EIG_FLOOR:
            out.failures.append(f"state eigenvalue {record.min_eig_floor:.3e} below {EIG_FLOOR}")
        names = ("v", "zeta", "chi", "purity", "lambda")
        expected = {n: record.column(_RECORD_NAME.get(n, n)) for n in names}
        _check_numeric_csv(
            sl, path, expected, {"status": "ok", "config-hash": cfg.canonical_hash()}, out
        )
        zeta, chi = record.column("zeta"), record.column("chi")
        out.headline = {
            "zeta_min": float(np.min(zeta)),
            "zeta_final": float(zeta[-1]),
            "chi_final": float(chi[-1]),
        }
        out.counts = {"rows": record.n_rows, "clamp_events": record.clamp_events}
        return out


class EnsembleWorkload:
    """``harness.run_ensemble``: conditioned trajectories, each with its
    CSV, plus the mean CSV. The benchmark seed feeds the noise."""

    # times at which the ensemble mean is compared with the reference
    CHECK_V = (0.5, 1.0, 1.5)

    def __init__(self, name: str, **config):
        self.name = name
        self.config = config

    def setup(self, sl, seed: int):
        cfg = sl.harness.SimConfig(**self.config, seed=seed)
        return cfg, (cfg.frame(), cfg.initial_state())

    def run(self, sl, cfg, out_dir: Path):
        cfg = replace(cfg, out=str(out_dir / "ens.csv"))
        ensemble, records = sl.harness.run_ensemble(cfg)
        return ensemble, records, cfg

    def verify(self, sl, result, out_dir: Path) -> Outcome:
        ensemble, records, cfg = result
        out = Outcome()
        cfg = replace(cfg, conditioned=True)  # as run_ensemble writes it
        names = ("v", "zeta", "chi", "purity", "lambda", "zc_mean", "yc_mean", "entangled")
        bad = [r for r in records if r.status != "ok"]
        if bad:
            out.failures.append(f"{len(bad)}/{len(records)} trajectories ended {bad[0].status}")
        for rec in records:
            path = out_dir / f"ens_t{rec.meta['traj_index']}.csv"
            out.artifacts.append(path)
            expected = {n: rec.column(_RECORD_NAME.get(n, n)) for n in names}
            _check_numeric_csv(
                sl, path, expected, {"status": "ok", "config-hash": cfg.canonical_hash()}, out
            )
        path = out_dir / "ens_mean.csv"
        out.artifacts.append(path)
        expected = {n: ensemble.columns[_RECORD_NAME.get(n, n)] for n in names}
        _check_numeric_csv(
            sl, path, expected,
            {"trajectories": str(ensemble.n_trajectories), "config-hash": cfg.canonical_hash()}, out,
        )
        v = ensemble.columns["v"]
        for target in self.CHECK_V:
            row = int(np.argmin(np.abs(v - target)))
            for col in ("zeta", "chi"):
                key = f"{col}@{target:g}"
                out.headline[key] = float(ensemble.columns[col][row])
                out.sem[key] = float(ensemble.sem[col][row])
        out.counts = {
            "rows": sum(r.n_rows for r in records),
            "kept": ensemble.n_trajectories,
            "attempted": len(records),
            "clamp_events": sum(r.clamp_events for r in records),
        }
        return out


@dataclass(frozen=True)
class SweepWorkload:
    """``metrics.min_squeezing_sweep`` plus ``optimal_states.optimal_curve``,
    each written with its CSV writer."""

    name: str
    sweep_twice_j: tuple
    delta_v: float
    v_max: float
    frontier_twice_j: int
    n_mu: int

    def setup(self, sl, seed: int):
        frames = [sl.algebra.single_mode_frame(tj) for tj in self.sweep_twice_j]
        frames.append(sl.algebra.two_mode_frame(self.frontier_twice_j, omega=1.0))
        vectors = [sl.algebra.coherent_spin_state(tj) for tj in self.sweep_twice_j]
        return None, (frames, [np.outer(x, x.conj()) for x in vectors])

    def run(self, sl, plan, out_dir: Path):
        points = sl.metrics.min_squeezing_sweep(
            "single", self.sweep_twice_j, "simple", delta_v=self.delta_v, v_max=self.v_max
        )
        sweep_path = sl.harness.write_sweep_csv(points, out_dir / "sweep.csv")
        curve = sl.optimal_states.optimal_curve("two", self.frontier_twice_j, n_mu=self.n_mu)
        frontier_path = sl.harness.write_frontier_csv(curve, out_dir / "frontier.csv")
        return points, curve, Path(sweep_path), Path(frontier_path)

    def verify(self, sl, result, out_dir: Path) -> Outcome:
        points, curve, sweep_path, frontier_path = result
        out = Outcome(artifacts=[sweep_path, frontier_path])
        for p in points:
            if p.status != "ok":
                out.failures.append(f"sweep 2j={p.twice_j}: status {p.status}")
        _, cols = sl.harness.read_csv(sweep_path)
        text = {
            "mode": [p.mode for p in points],
            "scheme": [p.scheme for p in points],
            "twice_j": [str(p.twice_j) for p in points],
        }
        for name, want in text.items():
            if cols.get(name) != want:
                out.failures.append(f"{sweep_path.name}: column {name} does not round-trip")
        for name in ("xi2_min", "scaled"):
            got = [float(c) for c in cols.get(name, [])]
            if not _bits_equal(got, [getattr(p, name) for p in points]):
                out.failures.append(f"{sweep_path.name}: column {name} does not round-trip bit-exactly")
        expected = {
            "mu": [p.mu for p in curve],
            "chi": [p.chi for p in curve],
            "zeta": [p.zeta for p in curve],
        }
        _check_numeric_csv(sl, frontier_path, expected, {}, out)
        for p in points:
            out.headline[f"scaled@{p.twice_j}"] = float(p.scaled)
        best = sl.optimal_states.min_xi2_on_curve(curve)
        j = self.frontier_twice_j / 2.0
        out.headline["frontier_scaled"] = float((j + 1.0) * best.xi2)
        out.counts = {"sweep_points": len(points), "frontier_points": len(curve)}
        return out


WORKLOADS = {
    "workhorse": ScenarioWorkload(
        "workhorse", mode="two", twice_j=10, scheme="simple", v_max=3.5, stride=10
    ),
    "two_mode_large": ScenarioWorkload(
        "two_mode_large", mode="two", twice_j=20, scheme="simple", v_max=0.15, stride=10
    ),
    "cond_ensemble": EnsembleWorkload(
        "cond_ensemble", mode="single", twice_j=2, scheme="simple-conditioned",
        conditioned=True, ensemble=64, v_max=1.5, stride=1, jobs=1,
    ),
    "size_sweep": SweepWorkload(
        "size_sweep", sweep_twice_j=(2, 4, 6, 10, 14, 20), delta_v=1e-3, v_max=20.0,
        frontier_twice_j=10, n_mu=200,
    ),
}

# the same scenarios at a size that runs in well under a second, for the
# self-test; no reference values apply to them
TINY = {
    "workhorse": ScenarioWorkload(
        "workhorse", mode="two", twice_j=2, scheme="simple", v_max=0.05, stride=10
    ),
    "two_mode_large": ScenarioWorkload(
        "two_mode_large", mode="two", twice_j=4, scheme="simple", v_max=0.02, stride=10
    ),
    "cond_ensemble": EnsembleWorkload(
        "cond_ensemble", mode="single", twice_j=2, scheme="simple-conditioned",
        conditioned=True, ensemble=3, v_max=0.05, stride=1, jobs=1,
    ),
    "size_sweep": SweepWorkload(
        "size_sweep", sweep_twice_j=(2, 4), delta_v=1e-3, v_max=0.05,
        frontier_twice_j=2, n_mu=10,
    ),
}
