"""Deterministic evolution: the record-averaged feedback master equation
and the countertwisting Hamiltonian flow.

In scaled time v the record-averaged state obeys

    drho/dv = -i (L/2) [ZY + YZ, rho] + D[Z - i L Y] rho

with Z = Z(v), Y = Y(v) from the measurement frame and L the scaled
feedback gain. The first term is the twisting the feedback synthesises;
the dissipator carries both the measurement back-action and the fed-back
noise. The state is kept Hermitian (re-Hermitized after each Euler step;
the averaged steps below keep it so exactly), and the trace is left
alone so integrator failure shows up as drift instead of being hidden by
renormalisation.

Two integrators share the loop:

* When each step spans exactly a quarter frame period (two samples,
  omega delta_v = pi/2, the default ``omega = "auto"``), consecutive
  steps alternate between the node generators L0 (Z = J_z^+) and L1
  (Z = J_y^-); nodes 2 and 3 repeat them with Z and Y negated. The run
  integrates the period-averaged generator (L0 + L1)/2, the delta_v -> 0
  limit of node cycling, with the two-step Adams-Bashforth rule started
  by one Euler step: second order, one rate evaluation per step. The
  gain laws read moments averaged over the same two nodes.
* Every other frame, rate and generator steps forward Euler, the
  generator re-evaluated at the start of each step.

The Euler rate, feedback_rate, costs four dim^3 products with the dense
frame operators. At a node time, Hermiticity of rho lets every other
product be recovered as a conjugate transpose, and r^dag r folds into
cached frame operators via r^dag r = Z^2 + L^2 Y^2 - L X. The averaged
rate multiplies by no dense operator: J_z^+ and J_z^- are diagonal in
the |m1, m2> basis, and J_y^+ and J_y^- act one sample at a time through
the d x d factor of J_y (d = 2j + 1), so each of its four products costs
dim^2 d instead of dim^3.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import MeasurementFrame, expect_real
from .feedback import FeedbackScheme, GainError
from .metrics import compute_metrics
from .trajectory import STATUS_OK, TrajectoryRecord, _ColumnBuffer

log = logging.getLogger(__name__)

TRACE_TOL = 1e-6
# neither integrator preserves positivity exactly: forward Euler leaves
# negative eigenvalue dust of order delta_v, the averaged second-order
# step of order delta_v^2; warn only well above that scale, but always
# record the exact floor
EIG_FLOOR = -1e-3
# how far omega delta_v may sit from pi/2 and still count as a quarter period
_QUARTER_TOL = 1e-9


def dissipator(r, rho):
    """D[r] rho = r rho r^dag - (r^dag r rho + rho r^dag r)/2."""
    rd = r.conj().T
    rdr = rd @ r
    return r @ rho @ rd - 0.5 * (rdr @ rho + rho @ rdr)


def conditioning_superop(r, rho):
    """H[r] rho = r rho + rho r^dag - Tr[(r + r^dag) rho] rho.

    Traceless by construction; drives the record-conditioned update.
    """
    m = r @ rho
    rd_term = rho @ r.conj().T
    mean = np.trace(m).real + np.trace(rd_term).real
    return m + rd_term - mean * rho


@dataclass
class EvolutionSpec:
    """What to integrate and how finely."""

    frame: MeasurementFrame
    generator: str = "feedback"  # feedback | countertwist-two | countertwist-single
    delta_v: float = 1e-3
    v_max: float = 20.0
    record_stride: int = 1
    audit_stride: int = 200  # positivity spot-check cadence, in steps
    twist_strength: float = 1.0

    def __post_init__(self):
        if self.generator not in ("feedback", "countertwist-two", "countertwist-single"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if not (0 < self.delta_v <= 0.1):
            raise ValueError(f"delta_v out of range: {self.delta_v}")
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")
        if self.delta_v > self.v_max:
            raise ValueError("delta_v exceeds v_max")
        if self.record_stride < 1 or int(self.record_stride) != self.record_stride:
            raise ValueError("record_stride must be a positive integer")

    @property
    def n_steps(self) -> int:
        return round(self.v_max / self.delta_v)


def countertwist_hamiltonian(frame: MeasurementFrame, variant: str, strength: float = 1.0):
    """Two-axis countertwisting generator.

    The cross-sample form k (J_z1 J_y2 + J_y1 J_z2) and the collective
    form (k/2)(Jz Jy + Jy Jz) generate identical flows when two spin-1/2
    samples are read as one spin 1; the factor of one half is what makes
    that correspondence exact.
    """
    if variant == "countertwist-two":
        ops = frame.two_mode
        if ops is None:
            raise ValueError("two-sample countertwisting needs a two-mode frame")
        return strength * (ops.jz1 @ ops.jy2 + ops.jy1 @ ops.jz2)
    if variant == "countertwist-single":
        z0, y0 = frame._zc, frame._yc  # static parts: collective Jz, Jy
        return 0.5 * strength * (z0 @ y0 + y0 @ z0)
    raise ValueError(f"unknown countertwisting variant {variant!r}")


def feedback_rate(frame: MeasurementFrame, rho, v: float, lam: float):
    """Right-hand side of the scaled master equation at time v."""
    c, s = frame.coefficients(v)
    from .algebra import _blend_linear, _blend_quadratic

    z = _blend_linear(frame._zc, frame._zs, c, s)
    z2 = _blend_quadratic(frame._zz, c, s)
    if lam == 0.0:
        zr = z @ rho
        half = z2 @ rho
        return zr @ z - 0.5 * (half + half.conj().T)
    y = _blend_linear(frame._yc, frame._ys, c, s)
    y2 = _blend_quadratic(frame._yy, c, s)
    anti = _blend_quadratic(frame._zy_anti, c, s)
    r = z - 1j * lam * y
    rdr = z2 + (lam * lam) * y2 - lam * frame.x_op  # r^dag r, assembled without a product
    rr = r @ rho
    sandwich = rr @ r.conj().T
    half = rdr @ rho
    drive = anti @ rho
    return (
        (-0.5j * lam) * (drive - drive.conj().T)
        + sandwich
        - 0.5 * (half + half.conj().T)
    )


def _kron_sum_apply(k, x, sign: float):
    """(K (x) 1 + sign 1 (x) K) x for a per-sample real factor K (d x d)
    and a C-contiguous complex n x n array x, n = d^2.

    The |m1, m2> index splits as (m1, m2), so K (x) 1 acts on x as a
    (d, d n) array and 1 (x) K on each of its d row blocks; both are d x d
    products on the float view, since real K acts on real and imaginary
    parts alike. Costs O(n^2 d) and builds no n x n operator.
    """
    d = k.shape[0]
    n = x.shape[0]
    xf = x.view(float)
    out = (k @ xf.reshape(d, 2 * d * n)).reshape(n, 2 * n)
    other = np.matmul(k, xf.reshape(d, d, 2 * n)).reshape(n, 2 * n)
    if sign > 0:
        out += other
    else:
        out -= other
    return out.view(complex)


def averaged_rate(frame: MeasurementFrame, rho, lam: float):
    """Right-hand side of the period-averaged master equation, (L0 + L1)/2.

    L0 and L1 are the generators at the first two quarter-period nodes,
    (Z, Y) = (J_z^+, J_y^+) and (J_y^-, -J_z^-). Write J_y^+ = iB and
    J_y^- = iA, with A and B real and antisymmetric because J_y = iK on
    each sample, and D, E for the diagonal J_z^+ and -J_z^-. With
    a = A rho, b = B rho, and [A, rho] = a + a^dag, [B, rho] = b + b^dag,

        (L0 + L1) rho / 2 = G + G^dag,
        G = A [A, rho]/4 + B ([B, rho] L^2/4 + L (D rho + rho D)/2)
            + L [E, a - a^dag]/4 - F o rho,

    where F o rho dephases rho_ij at rate ((d_i - d_j)^2 + L^2 (e_i - e_j)^2)/8
    for the diagonals d of D and e of E. That is four products with A or
    B, each applied one sample at a time, and no n x n operator; G + G^dag
    is Hermitian to the last bit.
    """
    if frame.mode != "two":
        raise ValueError("the period-averaged generator needs a two-mode frame")
    rho = np.ascontiguousarray(rho, dtype=complex)
    k, d, e = frame.jy_factor, frame.jzp_diag, -frame.jzm_diag
    a = _kron_sum_apply(k, rho, -1.0)
    a_dag = np.conj(a.T, order="C")
    inner = a + a_dag
    inner *= 0.25
    g = _kron_sum_apply(k, inner, -1.0)
    dephase = np.square(d[:, None] - d)
    if lam != 0.0:
        de = e[:, None] - e
        dephase += np.square(lam * de)
        de *= 0.25 * lam
        a -= a_dag
        g += de * a
        b = _kron_sum_apply(k, rho, 1.0)
        inner = np.conj(b.T, order="C")
        inner += b
        inner *= 0.25 * lam * lam
        inner += ((0.5 * lam) * (d[:, None] + d)) * rho
        g += _kron_sum_apply(k, inner, 1.0)
    dephase *= -0.125
    g += dephase * rho
    out = np.conj(g.T, order="C")
    out += g
    return out


def unconditioned_step(
    rho, frame: MeasurementFrame, v: float, lam: float, delta_v: float, rate=None
):
    """One step of the feedback master equation.

    Forward Euler on feedback_rate, re-Hermitized, unless a rate is given:
    the averaged integrator passes its Adams-Bashforth combination of
    averaged rates, which is Hermitian to the last bit (each rate is
    G + G^dag, and real combinations keep that), so from a Hermitian rho
    the step is already Hermitian and re-Hermitizing would change nothing.
    """
    if rate is not None:
        return rho + delta_v * rate
    out = rho + delta_v * feedback_rate(frame, rho, v, lam)
    return 0.5 * (out + out.conj().T)


def _quarter_period_steps(spec: EvolutionSpec) -> bool:
    """True when spec steps a two-mode feedback generator exactly one
    quarter frame period at a time, the case the averaged integrator takes.
    Decided from omega delta_v alone, so an explicit omega = pi/(2 delta_v)
    runs exactly like omega = "auto"."""
    return (
        spec.frame.mode == "two"
        and spec.generator == "feedback"
        and abs(spec.frame.omega * spec.delta_v / (0.5 * math.pi) - 1.0) < _QUARTER_TOL
    )


def countertwisting_step(rho, hamiltonian, delta_v: float):
    comm = hamiltonian @ rho
    out = rho + delta_v * (-1j) * (comm - comm.conj().T)
    return 0.5 * (out + out.conj().T)


_RECORD_COLUMNS = ("v", "zeta", "chi", "purity", "lam", "xi2", "entangled", "mz2")


def evolve(
    rho0, spec: EvolutionSpec, controller: FeedbackScheme | None = None, zeta_floor: float | None = None
) -> TrajectoryRecord:
    """Integrate the deterministic evolution and record metrics rows.

    Rows are recorded every record_stride steps starting at v = 0, so a
    clean run yields exactly n_steps // record_stride + 1 rows and the
    final time appears whenever the stride divides the step count.
    Blow-ups are detected through trace drift
    or non-finite moments; the run then stops with the rows collected so
    far and a status describing the failure. Positivity is audited every
    audit_stride steps and logged, never repaired. With zeta_floor set,
    the run ends, status ok, at the first recorded row whose zeta is not
    above it; that row is kept.
    """
    frame = spec.frame
    if rho0.shape != (frame.dim, frame.dim):
        raise ValueError(f"state dimension {rho0.shape} does not match frame dimension {frame.dim}")
    rho = np.array(rho0, dtype=complex)
    averaged = _quarter_period_steps(spec)
    if averaged:
        # the averaged steps keep Hermiticity exactly, so it is imposed once
        rho = 0.5 * (rho + rho.conj().T)
    controller = controller or FeedbackScheme("none")
    hamiltonian = None
    if spec.generator != "feedback":
        hamiltonian = countertwist_hamiltonian(frame, spec.generator, spec.twist_strength)

    buf = _ColumnBuffer(_RECORD_COLUMNS)
    status, abort_v, abort_reason = STATUS_OK, None, ""
    clamp_events = 0
    min_eig_floor = 0.0
    max_drift = 0.0
    dv = spec.delta_v
    last_rate = None  # the previous averaged rate, for Adams-Bashforth

    for n in range(spec.n_steps + 1):
        v = n * dv
        trace = np.trace(rho).real
        drift = abs(trace - 1.0)
        max_drift = max(max_drift, drift)
        if not math.isfinite(trace):
            status, abort_v, abort_reason = "aborted-nonfinite", v, "non-finite trace"
            break
        if drift > TRACE_TOL:
            status, abort_v, abort_reason = "aborted-trace", v, f"trace drift {drift:.3e}"
            break
        try:
            lam, clamped = controller.gain(rho, frame, (v, v + dv) if averaged else v)
        except GainError as err:
            status, abort_v, abort_reason = "aborted-gain", v, str(err)
            break
        if clamped:
            if clamp_events == 0:
                log.warning("gain clamped to %.3g at v=%.4f", lam, v)
            clamp_events += 1
        if n % spec.record_stride == 0:
            row = compute_metrics(rho, frame, v=v, lam=lam)
            if not math.isfinite(row.zeta):
                status, abort_v, abort_reason = "aborted-nonfinite", v, "non-finite moments"
                break
            buf.append(
                (row.v, row.zeta, row.chi, row.purity, row.lam, row.xi2, float(row.entangled), row.mz2)
            )
            if zeta_floor is not None and not row.zeta > zeta_floor:
                break
        if spec.audit_stride and n % spec.audit_stride == 0:
            low = float(np.linalg.eigvalsh(rho)[0])
            if low < EIG_FLOOR and min_eig_floor >= EIG_FLOOR:
                # warn once; the worst excursion lands in min_eig_floor
                log.warning("state eigenvalue %.3e below floor at v=%.4f", low, v)
            min_eig_floor = min(min_eig_floor, low)
        if n == spec.n_steps:
            break
        if hamiltonian is not None:
            rho = countertwisting_step(rho, hamiltonian, dv)
        elif averaged:
            rate = averaged_rate(frame, rho, lam)
            step = rate if last_rate is None else 1.5 * rate - 0.5 * last_rate
            last_rate = rate
            rho = unconditioned_step(rho, frame, v, lam, dv, rate=step)
        else:
            rho = unconditioned_step(rho, frame, v, lam, dv)

    meta = {
        "mode": frame.mode,
        "generator": spec.generator,
        "delta_v": dv,
        "v_max": spec.v_max,
        "omega": frame.omega,
        "scheme": controller.kind,
        "conditioned": False,
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
