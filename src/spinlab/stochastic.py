"""Record-conditioned trajectories and ensemble averaging.

A single trajectory alternates three updates per step, all using
operators evaluated at the left endpoint (Ito convention):

  1. measurement back-action  rho += dv D[Z] rho + dW H[Z] rho
  2. feedback kick            rho -> U rho U^dag with
                              U = 1 + (L dY) K - (L dY)^2 Y^2 / 2
  3. trace renormalisation, rho -> rho / Tr rho, of every state

where dY = 2<Z> dv + dW is the record increment and K = -iY, so the
kick is 1 - i (L dY) Y to first order. The second-order term in U keeps
the update accurate to O(dv) because dY^2 is O(dv). Averaged
over noise realisations the three updates reproduce the deterministic
feedback master equation to the same order, which is what the ensemble
tests pin down.

Noise is one standard normal per step from a counter-based generator
keyed on (seed, trajectory index), so trajectories are reproducible
bit-for-bit and different controllers can be compared on identical
noise records. Each trajectory draws its noise in blocks of NOISE_BLOCK
steps, the same numbers as one draw per step.

Trajectories are stepped as a stack: conditioned_step takes one state
or a (B, n, n) stack with one gain and one noise increment per member,
and a batch of trajectories goes through the step loop in
dynamics.integrate as one stack, which the deterministic runs share as
a stack of one. The loop brings the trace checks, gain, metrics rows,
positivity audit and per-trajectory abort statuses; every member's
numbers are bit for bit those of the trajectory run alone. The step
renormalises every member and returns each trace before renormalisation;
integrate alone reads dynamics.TRACE_WINDOW and ends a member whose trace
left it, before its renormalised state is read again. Batches hold
up to BATCH_ELEMENTS matrix elements, so a spin-1 ensemble is one batch
per worker. On the static single-mode frame Z, K and Y^2 are real, so
integrate steps a real rho0 as a float64 stack; a two-mode frame
measures J_y^-, an imaginary back-action, so its trajectories stay
complex.
fan_out is the package's one process fan-out; ensembles,
bundled curve sets and sweeps all go through it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .algebra import MeasurementFrame, dagger, moments_of
from .dynamics import EvolutionSpec, integrate
from .feedback import FeedbackScheme
from .metrics import METRIC_COLUMNS, compute_metrics
from .trajectory import EnsembleRecord, TrajectoryRecord

# steps of noise each trajectory draws at a time
NOISE_BLOCK = 512
# matrix elements in one stack of trajectories: about 1 MiB of complex
# states (half that for float64), so each of the step's temporaries stays
# small at any dimension
BATCH_ELEMENTS = 1 << 16


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

    def increments(self, delta_v: float, count: int) -> np.ndarray:
        """The next count increments, equal to count increment calls."""
        return math.sqrt(delta_v) * self._gen.standard_normal(count)


def _per_state(x):
    """A scalar per state, shaped to scale each matrix of a stack."""
    return np.asarray(x)[..., None, None]


def conditioned_step(rho, frame: MeasurementFrame, v: float, lam, delta_v: float, dw):
    """One stochastic step; returns (new rho, record increment, trace
    before renormalisation). rho is one state or a (B, n, n) stack, or the
    Moments of either, which the step reads <Z> from; lam and dw are then
    scalars or one per member, and the record increment and trace come
    back one per member. Every member is divided by its own trace, however
    far it lies from 1; integrate ends the members whose trace left
    TRACE_WINDOW, so their renormalised states are never read."""
    read = moments_of(rho)
    rho = read.rho
    at = frame.at(v)
    z, z2 = at.z, at.z2
    mz = read(z)
    dy = 2.0 * mz * delta_v + dw

    zr = z @ rho
    sandwich = zr @ z
    half = z2 @ rho
    mid = rho + delta_v * (sandwich - 0.5 * (half + dagger(half)))
    mid += _per_state(dw) * (zr + dagger(zr) - _per_state(2.0 * mz) * rho)

    fed = lam != 0.0
    if np.any(fed):
        # U and U^dag = 1 - kick K - kick^2 Y^2 / 2, built as they are (K is
        # anti-Hermitian, Y^2 Hermitian), so no product reads a transposed
        # operand
        kick = _per_state(lam * dy)
        turn, bend = kick * at.k, 0.5 * kick * kick * at.y2
        u, ud = turn - bend, np.negative(turn) - bend
        for x in (u, ud):
            x.reshape(x.shape[:-2] + (-1,))[..., :: x.shape[-1] + 1] += 1.0
        kicked = u @ mid @ ud
        mid = kicked if np.all(fed) else np.where(_per_state(fed), kicked, mid)

    trace = np.trace(mid, axis1=-2, axis2=-1).real
    mid /= _per_state(trace)
    out = 0.5 * (mid + dagger(mid))
    return out, dy, trace


def trajectory_batch(
    rho0,
    spec: EvolutionSpec,
    controller: FeedbackScheme | None = None,
    seed: int = 0,
    traj_indices=(0,),
) -> list[TrajectoryRecord]:
    """Integrate the record-conditioned trajectories traj_indices as one
    stack through dynamics.integrate; one record per index, in order.

    The recorded squeezing column is mean-subtracted (genuine
    conditional variance); the raw means of the two measured components
    ride along so the unconditioned second moment can be rebuilt. Each
    step renormalises every state and hands integrate the traces before
    renormalisation; integrate, told the run is conditioned, checks them
    against its renormalisation window (see there for the statuses and
    max_trace_drift) and steps a single-mode frame's real rho0 as float64.
    """
    if spec.generator != "feedback":
        raise ValueError("conditioned runs support only the feedback generator")
    dv = spec.delta_v
    streams = [WienerStream(seed, i) for i in traj_indices]
    runs = np.arange(len(streams))
    noise = np.empty((len(streams), NOISE_BLOCK))
    steps = 0

    def step(rho, frame, v, lam, live, read):
        nonlocal steps
        col = steps % NOISE_BLOCK
        if col == 0:
            for i in runs[live]:
                noise[i] = streams[i].increments(dv, NOISE_BLOCK)
        steps += 1
        rho, _, trace = conditioned_step(read, frame, v, lam, dv, noise[live, col])
        return rho, trace

    metas = [{"seed": seed, "traj_index": i} for i in traj_indices]
    return integrate(rho0, spec, controller, step, compute_metrics, METRIC_COLUMNS, metas, conditioned=True)


def trajectory_run(
    rho0,
    spec: EvolutionSpec,
    controller: FeedbackScheme | None = None,
    seed: int = 0,
    traj_index: int = 0,
) -> TrajectoryRecord:
    """Integrate one record-conditioned trajectory; see trajectory_batch."""
    return trajectory_batch(rho0, spec, controller, seed, (traj_index,))[0]


def fan_out(fn, tasks, jobs: int = 1) -> list:
    """[fn(task) for task in tasks], across min(jobs, len(tasks)) worker
    processes when that is more than one, else in this process; fn and
    every task must pickle. Results keep task order."""
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def run_trajectories(
    rho0,
    spec: EvolutionSpec,
    controller: FeedbackScheme | None = None,
    seed: int = 0,
    n_trajectories: int = 16,
    jobs: int = 1,
) -> list[TrajectoryRecord]:
    """Independent conditioned trajectories, in batches of up to
    BATCH_ELEMENTS matrix elements and at most one batch per worker,
    optionally across processes; records keep trajectory order."""
    if n_trajectories < 1:
        raise ValueError("need at least one trajectory")
    size = min(max(1, BATCH_ELEMENTS // spec.frame.dim**2), -(-n_trajectories // jobs))
    batches = [range(i, min(i + size, n_trajectories)) for i in range(0, n_trajectories, size)]
    run = partial(trajectory_batch, rho0, spec, controller, seed)
    return [record for batch in fan_out(run, batches, jobs) for record in batch]


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
    for name in METRIC_COLUMNS:
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
