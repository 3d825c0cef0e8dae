"""Squeezing figures of merit and scheme comparison sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import MeasurementFrame, moments_of, single_mode_frame, stack_members
from .trajectory import STATUS_OK

# below this polarisation the squeezing ratio is meaningless; report NaN
CHI_FLOOR = 1e-6


# the columns of a metrics row, in order; conditioned rows add the last two
METRIC_COLUMNS = ("v", "zeta", "chi", "purity", "lam", "xi2", "entangled", "mz2", "zc_mean", "yc_mean")
PLAIN_COLUMNS = METRIC_COLUMNS[:8]
# the columns a sweep reads off each run
SWEEP_COLUMNS = ("v", "zeta", "xi2")
# the largest spin dimension a single-mode sweep stacks (2j = 20); see
# min_squeezing_sweep
STACK_MAX_DIM = 21


def _column(name: str, kind):
    def read(row):
        if name not in row.columns:
            return None
        x = row.values[row.columns.index(name)]
        return x.astype(kind) if isinstance(x, np.ndarray) else kind(x)

    return property(read, doc=f"column {name!r}; None if the row has no such column")


class MetricsRow:
    """The metrics of one state, or of each member of a stack.

    values holds the named columns as floats, values[i] being column
    columns[i], in the order compute_metrics was asked for them: shape
    (len(columns),) for one state, (len(columns), B) for a stack. A step
    loop copies values straight into its table. Each column also reads as
    an attribute: a float (bool for entangled) for one state, an array
    for a stack, None for a column the row lacks.
    """

    __slots__ = ("values", "columns")

    def __init__(self, values: np.ndarray, columns: tuple):
        self.values, self.columns = values, columns

    v, zeta, chi, purity, lam, xi2 = (_column(name, float) for name in METRIC_COLUMNS[:6])
    entangled = _column("entangled", bool)
    mz2, zc_mean, yc_mean = (_column(name, float) for name in METRIC_COLUMNS[7:])


def squeezing_xi2(zeta, chi):
    """zeta/chi^2, the squeezing parameter; NaN once chi falls below the
    floor where the ratio stops meaning anything. Elementwise on arrays.

    zeta is a variance ratio, nonnegative in exact arithmetic; once the
    squeezing exhausts the integrator's resolution it can round below
    zero, so nonpositive values get the same NaN treatment. On arrays
    those members divide by NaN, which gives NaN without a warning.
    """
    if not isinstance(zeta, np.ndarray):
        if not (chi > CHI_FLOOR) or not (zeta > 0.0):
            return math.nan
        return zeta / (chi * chi)
    return zeta / np.where((chi > CHI_FLOOR) & (zeta > 0.0), chi * chi, math.nan)


def compute_metrics(rho, frame: MeasurementFrame, v=0.0, lam=0.0, conditioned=False, columns=None) -> MetricsRow:
    """Score a state, or each member of a (B, n, n) stack, against the
    frame's reduced variance and polarisation; lam may be one gain or one
    per member. rho may also be the Moments of either, whose reads are
    shared with the other readers of the step.

    The row holds the named columns in the order named, by default all of
    a plain row (PLAIN_COLUMNS) or of a conditioned one (METRIC_COLUMNS);
    any other name raises ValueError. Only those columns and the moments
    they need are computed, each by its one formula, so a column has the
    same bits whatever else the row holds.

    For conditioned states the variance is taken about the conditional
    means of the slow quadratures (the means carry no squeezing
    information; the record-driven state walks them randomly).
    """
    if columns is None:
        columns = METRIC_COLUMNS if conditioned else PLAIN_COLUMNS
    need = set(columns)
    if need & {"xi2", "entangled"}:
        need |= {"zeta", "chi"}
    read = moments_of(rho)
    rho = read.rho
    got = {"v": v, "lam": lam}
    if "chi" in need:
        got["chi"] = read(frame.x_op) / frame.chi_norm
    if conditioned and need & {"zeta", "zc_mean", "yc_mean"}:
        got["zc_mean"], got["yc_mean"] = read(frame.zc_op), read(frame.yc_op)
    if "zeta" in need:
        raw = read(frame.zeta_op)
        for w, name in zip(frame.zeta_weights, ("zc_mean", "yc_mean") if conditioned else ()):
            # float_power is C pow, as Python's float ** is; a square can
            # round differently from it in the last bit
            raw = raw - w * np.float_power(got[name], 2.0)
        got["zeta"] = raw / frame.zeta_norm
    if "purity" in need:
        got["purity"] = np.add.reduce(rho.real**2 + rho.imag**2 if rho.dtype.kind == "c" else rho**2, axis=(-2, -1))
    if "xi2" in need:
        got["xi2"] = squeezing_xi2(got["zeta"], got["chi"])
    if "entangled" in need:
        got["entangled"] = got["zeta"] < got["chi"]
    if "mz2" in need:
        got["mz2"] = read(frame.at(v).z2)
    try:
        values = [got[name] for name in columns]
    except KeyError as err:
        raise ValueError(f"a {'conditioned' if conditioned else 'plain'} row has no column {err.args[0]!r}") from None
    shape = (len(values),) + rho.shape[:-2]
    if rho.size == frame.dim**2 and not isinstance(frame.chi_norm, np.ndarray) and not isinstance(lam, np.ndarray):
        # one state read with shared operators, so one number per column:
        # the row fills in one pass
        if "purity" in got:
            values[columns.index("purity")] = got["purity"].item()
        return MetricsRow(np.fromiter(values, float, len(values)).reshape(shape), columns)
    row = np.empty(shape)
    for i, x in enumerate(values):
        row[i] = x
    return MetricsRow(row, columns)


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
# a sweep run ends on the first row whose xi2 exceeds this multiple of its
# running minimum: the minimum is bracketed, and no later row of a fig6a or
# fig6b feedback-law run comes back below it
BRACKET_RATIO = 1.2


def sweep_stop(zeta_floor: float):
    """The per-row stop a size sweep hands to dynamics.evolve: a run ends
    on the first row whose zeta is not above zeta_floor, with status ok
    while zeta is positive, else "aborted-zeta", since no positive state
    has zeta <= 0; or, ok, on the first row whose xi2 exceeds
    BRACKET_RATIO times the smallest xi2 of its rows before. Either row is
    kept, so the bracket row is the minimum's right-hand neighbour. The
    running minimum is kept per run id, so it survives the narrowing of
    the stack, and a NaN xi2 (chi below CHI_FLOOR) neither ends a run nor
    enters its minimum."""
    best = {}

    def stop(v, row, live):
        ends = {}
        for k, (run, z, x) in enumerate(zip(live.tolist(), row["zeta"].tolist(), row["xi2"].tolist())):
            low = best.get(run, math.inf)
            if not z > zeta_floor:
                ends[k] = (STATUS_OK,) if z > 0 else ("aborted-zeta", v, f"zeta {z:.3e} is not positive")
            elif x > BRACKET_RATIO * low:
                ends[k] = (STATUS_OK,)
            elif x < low:
                best[run] = x
        return ends

    return stop


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
    v_max: float | None = None,
    jobs: int = 1,
):
    """Best squeezing per spin for one production scheme.

    Integrates the deterministic evolution for each listed spin and
    stops at the bracket or the floor, else at v_max, by default the
    scheme's horizon: 5 for countertwisting, which passes its best
    squeezing well before that, and 20 for the feedback laws. It locates
    the minimum of xi^2 = zeta/chi^2 over the recorded rows (with 3-point
    parabolic refinement), and reports (j+1) xi^2_min. scheme
    "optimal-states" short-circuits to the extremal-state curve instead
    of a time integration. Runs that abort mid-way still contribute their
    pre-abort minimum, flagged via status/interior.

    Each integration runs under sweep_stop. It stops, ok, at the bracket:
    the first row whose xi^2 exceeds BRACKET_RATIO times the run's
    minimum so far, which is kept as the minimum's right-hand neighbour.
    The feedback laws' minima land near v = 0.6-1.3, so this saves
    integrating on to v = 20. Countertwisting is periodic at small spins
    and can revisit its minimum after the bracket, so a stopped sweep
    reports its first minimum. Otherwise it stops at the first row where
    zeta falls to ~10 delta_v, and that row is excluded: the integrators
    cannot resolve deeper squeezing, past that point the ratio is
    integration noise, and the gain that noise feeds can drive the run to
    an abort. Small spins approach their best xi^2 asymptotically, so
    their minimum lands on the end of the resolved prefix
    (interior=False) about a percent above the true asymptote;
    "optimal-states" gives the exact value.

    The spins go in groups, each integrated by one dynamics.evolve call,
    and the groups fan out over up to jobs worker processes through
    stochastic.fan_out; the points come back in the order of the spins.
    A single-mode time-integrated sweep puts its spins of dimension up to
    STACK_MAX_DIM in one group: they share one member-stacked frame, each
    zero-padded to the largest of them, so a step makes one gain call,
    one metrics row and one rate for all of them. At such sizes a step
    costs numpy's per-call dispatch more than arithmetic, and the stack
    pays for each call once instead of once per spin. A padded member
    pays the largest member's arithmetic on every step, so a larger spin
    runs alone. Measured with the simple law on one BLAS thread, stacks
    of 2 to 6 spins stepped in 0.26 to 0.84 of the time of their spins run
    one by one when the largest had n <= 21, 0.55 to 1.04 at n = 31, 0.80
    to 1.15 at n = 41 and 1.11 to 1.58 at n = 61. A two-mode sweep is one spin per group: its
    period-averaged step applies one spin's d x d factor and is
    arithmetic-bound already at 2j = 10, so padding the small spins up to
    the largest would multiply its work. Each "optimal-states" point is a
    group of its own. Padding changes the length and order of the sums a
    member's products and reads make, so a stacked single-mode point
    agrees with the same spin swept alone only to rounding
    (dynamics.integrate states the measured bound), and can differ at
    that level with the spins swept beside it.
    """
    from .stochastic import fan_out  # deferred: stochastic imports this module

    if v_max is None:
        v_max = 5.0 if scheme == "countertwist" else 20.0
    spins = [int(twice_j) for twice_j in twice_j_values]
    stacks = mode == "single" and scheme != "optimal-states"
    small = [i for i, twice_j in enumerate(spins) if stacks and twice_j + 1 <= STACK_MAX_DIM]
    groups = ([small] if small else []) + [[i] for i in range(len(spins)) if i not in small]
    tasks = [(mode, tuple(spins[i] for i in group), scheme, delta_v, v_max) for group in groups]
    points = [None] * len(spins)
    for group, found in zip(groups, fan_out(_sweep_group, tasks, jobs)):
        for i, point in zip(group, found):
            points[i] = point
    return points


def _sweep_group(task) -> list[SweepPoint]:
    """The sweep points of one group of spins, integrated as one stack."""
    from . import dynamics  # deferred: dynamics and harness both import this module
    from .harness import SimConfig
    from .optimal_states import min_xi2_on_curve, optimal_curve

    mode, group, scheme, delta_v, v_max = task
    if scheme == "optimal-states":
        (twice_j,) = group
        best = min_xi2_on_curve(optimal_curve(mode, twice_j))
        return [SweepPoint(mode, twice_j, scheme, best.xi2, math.nan, (twice_j / 2.0 + 1) * best.xi2, "ok", True)]
    configs = [SimConfig(mode=mode, twice_j=tj, scheme=scheme, delta_v=delta_v, v_max=v_max) for tj in group]
    spec, rho0 = configs[0].spec(), configs[0].initial_state()
    if len(group) > 1:  # one run of the spins on their member-stacked frame
        spec = replace(spec, frame=single_mode_frame(group))
        rho0 = stack_members([config.initial_state() for config in configs])
    zeta_floor = ZETA_RESOLUTION_STEPS * delta_v
    run = dynamics.evolve(rho0, spec, configs[0].controller(), sweep_stop(zeta_floor), SWEEP_COLUMNS)
    records = run if len(group) > 1 else [run]
    points = []
    for twice_j, record in zip(group, records):
        xi2_min, v_min, interior = _xi2_minimum(
            record.column("v"), record.column("xi2"), zeta=record.column("zeta"), zeta_floor=zeta_floor
        )
        scaled = (twice_j / 2.0 + 1) * xi2_min
        points.append(SweepPoint(mode, twice_j, scheme, xi2_min, v_min, scaled, record.status, interior))
    return points
