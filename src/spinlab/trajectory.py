"""Column-oriented run records shared by the deterministic and stochastic
integrators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATUS_OK = "ok"


@dataclass
class TrajectoryRecord:
    """One integrated run: recorded columns plus bookkeeping.

    columns holds the metrics columns the step loop was asked to record,
    by name, in the order asked: a plain run (evolve's default,
    metrics.PLAIN_COLUMNS) records v, zeta, chi, purity, lam, xi2,
    entangled and mz2 (second moment of the instantaneous measured axis),
    a conditioned run adds zc_mean and yc_mean, and a size sweep records
    only v, zeta and xi2. Every record has v. An aborted run keeps the
    rows recorded before the failure and reports where it stopped.
    """

    meta: dict
    columns: dict
    status: str = STATUS_OK
    abort_v: float | None = None
    abort_reason: str = ""
    clamp_events: int = 0
    min_eig_floor: float = 0.0
    max_trace_drift: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def n_rows(self) -> int:
        return len(self.columns["v"])

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


class RecordStack(list):
    """The records of runs integrated as one stack, in stack order. Its
    min_eig_floor and max_trace_drift are the stack's worst, so the
    positivity and trace diagnostics read the same off one run or a
    stack."""

    @property
    def min_eig_floor(self) -> float:
        return min(r.min_eig_floor for r in self)

    @property
    def max_trace_drift(self) -> float:
        return max(r.max_trace_drift for r in self)


@dataclass
class EnsembleRecord:
    """Pointwise trajectory average with standard errors."""

    meta: dict
    n_trajectories: int
    columns: dict
    sem: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.columns["v"])
