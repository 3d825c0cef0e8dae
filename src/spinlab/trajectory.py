"""Column-oriented run records shared by the deterministic and stochastic
integrators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATUS_OK = "ok"


@dataclass
class TrajectoryRecord:
    """One integrated run: recorded columns plus bookkeeping.

    columns always contains v, zeta, chi, purity, lam, xi2, entangled and
    mz2 (second moment of the instantaneous measured axis); conditioned
    runs add zc_mean and yc_mean. An aborted run keeps the rows recorded
    before the failure and reports where it stopped.
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
