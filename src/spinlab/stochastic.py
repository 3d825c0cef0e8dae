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
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .algebra import MeasurementFrame, expect_real
from .dynamics import EvolutionSpec
from .feedback import FeedbackScheme, GainError
from .metrics import compute_metrics
from .trajectory import EnsembleRecord, STATUS_OK, TrajectoryRecord, _ColumnBuffer

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
    c, s = frame.coefficients(v)
    from .algebra import _blend_linear, _blend_quadratic

    z = _blend_linear(frame._zc, frame._zs, c, s)
    z2 = _blend_quadratic(frame._zz, c, s)
    mz = expect_real(z, rho)
    dy = 2.0 * mz * delta_v + dw

    zr = z @ rho
    sandwich = zr @ z
    half = z2 @ rho
    mid = rho + delta_v * (sandwich - 0.5 * (half + half.conj().T))
    mid += dw * (zr + zr.conj().T - 2.0 * mz * rho)

    if lam != 0.0:
        y = _blend_linear(frame._yc, frame._ys, c, s)
        y2 = _blend_quadratic(frame._yy, c, s)
        kick = lam * dy
        u = -1j * kick * y - 0.5 * kick * kick * y2
        u[np.diag_indices_from(u)] += 1.0
        mid = u @ mid @ u.conj().T

    trace = np.trace(mid).real
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
    """Integrate one record-conditioned trajectory.

    The recorded squeezing column is mean-subtracted (genuine
    conditional variance); the raw means of the two measured components
    ride along so the unconditioned second moment can be rebuilt. The
    record's max_trace_drift is the largest |trace - 1| a step left
    before renormalisation, and its min_eig_floor the lowest state
    eigenvalue seen by the positivity audit every audit_stride steps.
    """
    frame = spec.frame
    if spec.generator != "feedback":
        raise ValueError("conditioned runs support only the feedback generator")
    if rho0.shape != (frame.dim, frame.dim):
        raise ValueError(f"state dimension {rho0.shape} does not match frame dimension {frame.dim}")
    rho = np.array(rho0, dtype=complex)
    controller = controller or FeedbackScheme("none")
    stream = WienerStream(seed, traj_index)

    buf = _ColumnBuffer(_COND_COLUMNS)
    status, abort_v, abort_reason = STATUS_OK, None, ""
    clamp_events = 0
    min_eig_floor = 0.0
    max_drift = 0.0  # largest |trace - 1| before renormalisation
    dv = spec.delta_v

    for n in range(spec.n_steps + 1):
        v = n * dv
        trace = np.trace(rho).real
        if not math.isfinite(trace):
            status, abort_v, abort_reason = "aborted-nonfinite", v, "non-finite trace"
            break
        try:
            lam, clamped = controller.gain(rho, frame, v)
        except GainError as err:
            status, abort_v, abort_reason = "aborted-gain", v, str(err)
            break
        clamp_events += int(clamped)
        if n % spec.record_stride == 0:
            row = compute_metrics(rho, frame, v=v, lam=lam, conditioned=True)
            if not math.isfinite(row.zeta):
                status, abort_v, abort_reason = "aborted-nonfinite", v, "non-finite moments"
                break
            buf.append(
                (row.v, row.zeta, row.chi, row.purity, row.lam, row.xi2,
                 float(row.entangled), row.mz2, row.zc_mean, row.yc_mean)
            )
        if spec.audit_stride and n % spec.audit_stride == 0:
            min_eig_floor = min(min_eig_floor, float(np.linalg.eigvalsh(rho)[0]))
        if n == spec.n_steps:
            break
        dw = stream.increment(dv)
        rho, _, trace_raw = conditioned_step(rho, frame, v, lam, dv, dw)
        max_drift = max(max_drift, abs(trace_raw - 1.0))
        if not (TRACE_WINDOW[0] < trace_raw < TRACE_WINDOW[1]):
            status, abort_v = "aborted-norm", v + dv
            abort_reason = f"trace {trace_raw:.3e} outside renormalisation window"
            break

    meta = {
        "mode": frame.mode,
        "generator": "feedback",
        "delta_v": dv,
        "v_max": spec.v_max,
        "omega": frame.omega,
        "scheme": controller.kind,
        "conditioned": True,
        "seed": seed,
        "traj_index": traj_index,
    }
    return TrajectoryRecord(
        meta=meta,
        columns=buf.finalize(),
        status=status,
        abort_v=abort_v,
        abort_reason=abort_reason,
        clamp_events=clamp_events,
        min_eig_floor=min_eig_floor,
        max_trace_drift=max_drift,
    )


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
    tasks = [(rho0, spec, controller, seed, i) for i in range(n_trajectories)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_one, tasks))
    return [_one(t) for t in tasks]


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
