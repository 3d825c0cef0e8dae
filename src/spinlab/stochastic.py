"""Record-conditioned trajectories and ensemble averaging.

A single trajectory alternates three updates per step, all using
operators evaluated at the left endpoint (Ito convention):

  1. measurement back-action  rho += dv D[Z] rho + dW H[Z] rho
  2. feedback kick            rho -> U rho U^dag with
                              U = 1 - i (L dY) Y - (L dY)^2 Y^2 / 2
  3. trace renormalisation

where dY = 2<Z> dv + dW is the record increment. The second-order term
in U keeps the update accurate to O(dv) because dY^2 is O(dv). Averaged
over noise realisations the three updates reproduce the deterministic
feedback master equation to the same order, which is what the ensemble
tests pin down.

Noise is one standard normal per step from a counter-based generator
keyed on (seed, trajectory index), so trajectories are reproducible
bit-for-bit and different controllers can be compared on identical
noise records.

Only the step and its noise live here: the trace checks, gain, metrics
rows, positivity audit and abort statuses come from the step loop in
dynamics.integrate, which the deterministic runs share. fan_out is the
package's one process fan-out; ensembles, bundled curve sets and CLI
sweeps all go through it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .algebra import MeasurementFrame, expect_real
from .dynamics import EvolutionSpec, integrate
from .feedback import FeedbackScheme
from .metrics import compute_metrics
from .trajectory import EnsembleRecord, TrajectoryRecord

TRACE_WINDOW = (0.5, 2.0)


class WienerStream:
    """Deterministic Gaussian increments for one trajectory.

    Philox is counter-based: keying on (seed, index) gives independent
    streams without coordination, and replaying a key replays the noise.
    """

    def __init__(self, seed: int, traj_index: int = 0):
        if seed < 0 or traj_index < 0:
            raise ValueError("seed and trajectory index must be non-negative")
        key = np.array([seed, traj_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.seed = seed
        self.traj_index = traj_index

    def increment(self, delta_v: float) -> float:
        return math.sqrt(delta_v) * float(self._gen.standard_normal())


_COND_COLUMNS = (
    "v", "zeta", "chi", "purity", "lam", "xi2", "entangled", "mz2", "zc_mean", "yc_mean",
)


def conditioned_step(rho, frame: MeasurementFrame, v: float, lam: float, delta_v: float, dw: float):
    """One stochastic step; returns (new rho, record increment, trace before renorm)."""
    z = frame.z_at(v)
    z2 = frame.z2_at(v)
    mz = expect_real(z, rho)
    dy = 2.0 * mz * delta_v + dw

    zr = z @ rho
    sandwich = zr @ z
    half = z2 @ rho
    mid = rho + delta_v * (sandwich - 0.5 * (half + half.conj().T))
    mid += dw * (zr + zr.conj().T - 2.0 * mz * rho)

    if lam != 0.0:
        y = frame.y_at(v)
        y2 = frame.y2_at(v)
        kick = lam * dy
        u = -1j * kick * y - 0.5 * kick * kick * y2
        u.flat[:: u.shape[0] + 1] += 1.0
        mid = u @ mid @ u.conj().T

    trace = mid.trace().real
    if math.isfinite(trace) and TRACE_WINDOW[0] < trace < TRACE_WINDOW[1]:
        mid /= trace
    out = 0.5 * (mid + mid.conj().T)
    return out, dy, trace


def trajectory_run(
    rho0,
    spec: EvolutionSpec,
    controller: FeedbackScheme | None = None,
    seed: int = 0,
    traj_index: int = 0,
) -> TrajectoryRecord:
    """Integrate one record-conditioned trajectory through dynamics.integrate.

    The recorded squeezing column is mean-subtracted (genuine
    conditional variance); the raw means of the two measured components
    ride along so the unconditioned second moment can be rebuilt. Each
    step renormalises the trace, so the record's max_trace_drift is the
    largest |trace - 1| a step left before renormalisation, and a trace
    outside TRACE_WINDOW ends the run "aborted-norm".
    """
    if spec.generator != "feedback":
        raise ValueError("conditioned runs support only the feedback generator")
    frame, dv = spec.frame, spec.delta_v
    stream = WienerStream(seed, traj_index)

    def step(rho, v, lam):
        rho, _, trace = conditioned_step(rho, frame, v, lam, dv, stream.increment(dv))
        return rho, trace

    return integrate(
        rho0, spec, controller, step, partial(compute_metrics, conditioned=True), _COND_COLUMNS,
        {"conditioned": True, "seed": seed, "traj_index": traj_index}, window=TRACE_WINDOW,
    )


def fan_out(fn, tasks, jobs: int = 1) -> list:
    """[fn(task) for task in tasks], across up to jobs worker processes
    when jobs > 1; fn and every task must pickle. Results keep task order."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _one(args):
    rho0, spec, controller, seed, idx = args
    return trajectory_run(rho0, spec, controller, seed=seed, traj_index=idx)


def run_trajectories(
    rho0,
    spec: EvolutionSpec,
    controller: FeedbackScheme | None = None,
    seed: int = 0,
    n_trajectories: int = 16,
    jobs: int = 1,
) -> list[TrajectoryRecord]:
    """Independent conditioned trajectories, optionally across processes."""
    if n_trajectories < 1:
        raise ValueError("need at least one trajectory")
    return fan_out(_one, [(rho0, spec, controller, seed, i) for i in range(n_trajectories)], jobs)


def average_records(records: list[TrajectoryRecord]) -> EnsembleRecord:
    """Column-wise mean and standard error over trajectory records.

    Trajectories that abort are dropped from the average; the count of
    survivors is recorded. All survivors share the time grid, so the
    column mean is well defined row by row.
    """
    kept = [r for r in records if r.ok]
    if not kept:
        raise RuntimeError(f"all {len(records)} trajectories aborted; first: {records[0].abort_reason}")
    n_rows = min(r.n_rows for r in kept)
    columns = {}
    sem = {}
    for name in _COND_COLUMNS:
        stack = np.stack([r.column(name)[:n_rows] for r in kept])
        columns[name] = stack.mean(axis=0)
        spread = stack.std(axis=0, ddof=1) if len(kept) > 1 else np.zeros(n_rows)
        sem[name] = spread / math.sqrt(len(kept))

    meta = dict(kept[0].meta)
    meta["traj_index"] = None
    return EnsembleRecord(meta=meta, n_trajectories=len(kept), columns=columns, sem=sem)


def ensemble_average(
    rho0,
    spec: EvolutionSpec,
    controller: FeedbackScheme | None = None,
    seed: int = 0,
    n_trajectories: int = 16,
    jobs: int = 1,
) -> EnsembleRecord:
    """Run an ensemble and average it; see run_trajectories/average_records."""
    return average_records(
        run_trajectories(rho0, spec, controller, seed=seed, n_trajectories=n_trajectories, jobs=jobs)
    )
