"""Squeezing figures of merit and scheme comparison sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import MeasurementFrame, expect_real

# below this polarisation the squeezing ratio is meaningless; report NaN
CHI_FLOOR = 1e-6


# the columns of a metrics row, in order; conditioned rows add the last two
METRIC_COLUMNS = ("v", "zeta", "chi", "purity", "lam", "xi2", "entangled", "mz2", "zc_mean", "yc_mean")
PLAIN_COLUMNS = METRIC_COLUMNS[:8]


def _column(i: int, kind):
    def read(row):
        if i >= len(row.values):
            return None
        x = row.values[i]
        return x.astype(kind) if isinstance(x, np.ndarray) else kind(x)

    return property(read, doc=f"column {METRIC_COLUMNS[i]!r}; None if the row has no such column")


class MetricsRow:
    """The metrics of one state, or of each member of a stack.

    values holds them as floats, values[i] being column METRIC_COLUMNS[i]:
    shape (8,) or (10,) for one state, (8, B) or (10, B) for a stack, the
    last two columns only for conditioned rows. A step loop copies values
    straight into its table. Each column also reads as an attribute: a
    float (bool for entangled) for one state, an array for a stack.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    v, zeta, chi, purity, lam, xi2 = (_column(i, float) for i in range(6))
    entangled = _column(6, bool)
    mz2, zc_mean, yc_mean = (_column(i, float) for i in range(7, 10))


def squeezing_xi2(zeta, chi):
    """zeta/chi^2, the squeezing parameter; NaN once chi falls below the
    floor where the ratio stops meaning anything. Elementwise on arrays.

    zeta is a variance ratio, nonnegative in exact arithmetic; once the
    squeezing exhausts the integrator's resolution it can round below
    zero, so nonpositive values get the same NaN treatment.
    """
    if not isinstance(zeta, np.ndarray):
        if not (chi > CHI_FLOOR) or not (zeta > 0.0):
            return math.nan
        return zeta / (chi * chi)
    out = np.full(np.shape(zeta), math.nan)
    np.divide(zeta, chi * chi, out=out, where=(chi > CHI_FLOOR) & (zeta > 0.0))
    return out


def compute_metrics(rho, frame: MeasurementFrame, v=0.0, lam=0.0, conditioned=False) -> MetricsRow:
    """Score a state, or each member of a (B, n, n) stack, against the
    frame's reduced variance and polarisation; lam may be one gain or one
    per member.

    For conditioned states the variance is taken about the conditional
    means of the slow quadratures (the means carry no squeezing
    information; the record-driven state walks them randomly).
    """
    raw = expect_real(frame.zeta_op, rho)
    chi = expect_real(frame.x_op, rho) / frame.chi_norm
    row = np.empty((len(METRIC_COLUMNS) if conditioned else len(PLAIN_COLUMNS),) + rho.shape[:-2])
    if conditioned:
        row[8] = expect_real(frame.zc_op, rho)
        row[9] = expect_real(frame.yc_op, rho)
        for w, mean in zip(frame.zeta_weights, row[8:]):
            # float_power is C pow, as Python's float ** is; a square can
            # round differently from it in the last bit
            raw = raw - w * np.float_power(mean, 2.0)
    zeta = raw / frame.zeta_norm
    row[0] = v
    row[1] = zeta
    row[2] = chi
    row[3] = np.add.reduce(rho.real**2 + rho.imag**2, axis=(-2, -1))
    row[4] = lam
    row[5] = squeezing_xi2(zeta, chi)
    row[6] = zeta < chi
    row[7] = expect_real(frame.z2_at(v), rho)
    return MetricsRow(row)


def parabolic_min(x, y):
    """Vertex of the parabola through three points; falls back to the middle
    point when the triple is not convex or the vertex escapes the bracket."""
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    y0, y1, y2 = float(y[0]), float(y[1]), float(y[2])
    d01 = (y1 - y0) / (x1 - x0)
    d12 = (y2 - y1) / (x2 - x1)
    curv = (d12 - d01) / (x2 - x0)
    if not (curv > 0 and np.isfinite(curv)):
        return x1, y1
    xv = 0.5 * (x0 + x1 - d01 / curv)
    if not (min(x0, x2) <= xv <= max(x0, x2)):
        return x1, y1
    # evaluate the interpolant at its vertex
    yv = y0 + d01 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    return xv, yv


@dataclass
class SweepPoint:
    mode: str
    twice_j: int
    scheme: str
    xi2_min: float
    v_at_min: float
    scaled: float  # (j+1) * xi2_min
    status: str
    interior: bool  # minimum strictly inside the valid rows


# forward Euler cannot resolve a variance much below ~10 steps' worth of
# accumulated drift; rows past that point are noise. The same floor holds
# for the second-order averaged two-mode step, so every sweep cuts alike
ZETA_RESOLUTION_STEPS = 10.0


def _xi2_minimum(v, xi2, zeta=None, zeta_floor=0.0):
    if zeta is not None:
        cut = np.flatnonzero(~(np.asarray(zeta) > zeta_floor))
        if cut.size:
            v, xi2 = v[: cut[0]], xi2[: cut[0]]
    finite = np.isfinite(xi2)
    if len(xi2) == 0 or not finite.any():
        return math.nan, math.nan, False
    masked = np.where(finite, xi2, np.inf)
    i = int(np.argmin(masked))
    lo, hi = max(i - 1, 0), min(i + 1, len(xi2) - 1)
    interior = 0 < i < len(xi2) - 1 and finite[i - 1] and finite[i + 1]
    if interior:
        v_min, y_min = parabolic_min(v[lo : hi + 1], xi2[lo : hi + 1])
        return float(y_min), float(v_min), True
    return float(xi2[i]), float(v[i]), False


def min_squeezing_sweep(
    mode: str,
    twice_j_values,
    scheme: str,
    delta_v: float = 1e-3,
    v_max: float = 20.0,
):
    """Best squeezing per spin for one production scheme.

    Integrates the deterministic evolution for each listed spin, locates
    the minimum of xi^2 = zeta/chi^2 over the recorded rows (with 3-point
    parabolic refinement), and reports (j+1) xi^2_min. scheme
    "optimal-states" short-circuits to the extremal-state curve instead
    of a time integration. Runs that abort mid-way still contribute their
    pre-abort minimum, flagged via status/interior.

    Each integration stops at the first row where zeta falls to
    ~10 delta_v, and that row is excluded: the integrators cannot resolve
    deeper squeezing, past that point the ratio is integration noise, and
    the gain that noise feeds can drive the run to an abort. Small spins
    approach their best xi^2 asymptotically, so their minimum lands on the
    end of the resolved prefix (interior=False) about a percent above the
    true asymptote; "optimal-states" gives the exact value.
    """
    from . import dynamics  # deferred: dynamics and harness both import this module
    from .harness import SimConfig
    from .optimal_states import min_xi2_on_curve, optimal_curve

    points = []
    for twice_j in twice_j_values:
        twice_j = int(twice_j)
        j = twice_j / 2.0
        if scheme == "optimal-states":
            curve = optimal_curve(mode, twice_j)
            best = min_xi2_on_curve(curve)
            points.append(
                SweepPoint(mode, twice_j, scheme, best.xi2, math.nan, (j + 1) * best.xi2, "ok", True)
            )
            continue
        config = SimConfig(mode=mode, twice_j=twice_j, scheme=scheme, delta_v=delta_v, v_max=v_max)
        zeta_floor = ZETA_RESOLUTION_STEPS * delta_v
        record = dynamics.evolve(
            config.initial_state(), config.spec(), config.controller(), zeta_floor=zeta_floor
        )
        xi2_min, v_min, interior = _xi2_minimum(
            record.column("v"),
            record.column("xi2"),
            zeta=record.column("zeta"),
            zeta_floor=zeta_floor,
        )
        points.append(
            SweepPoint(mode, twice_j, scheme, xi2_min, v_min, (j + 1) * xi2_min, record.status, interior)
        )
    return points

