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

Every run, record-averaged here or record-conditioned in ``stochastic``,
goes through one step loop, ``integrate``: it checks the trace, asks the
gain law for the gain, records strided metrics rows, audits positivity,
and ends the run with a defined status. It steps a stack of runs at
once, a deterministic run being a stack of one and a batch of
conditioned trajectories a stack of many, and ends each run with its own
status. What differs between runs is only the step it is handed:

* When each step spans exactly a quarter frame period (two samples,
  omega delta_v = pi/2, the default ``omega = "auto"``), consecutive
  steps alternate between the node generators L0 (Z = J_z^+) and L1
  (Z = J_y^-); nodes 2 and 3 repeat them with Z and Y negated. The run
  integrates the period-averaged generator (L0 + L1)/2, the delta_v -> 0
  limit of node cycling, with the two-step Adams-Bashforth rule started
  by one Euler step: second order, one rate evaluation per step. The
  gain laws read moments averaged over the same two nodes.
* Countertwisting has a constant Hamiltonian H, so its step is the exact
  propagator exp(-i H delta_v), built once per run from the eigenvectors
  of H; it keeps the state positive and its trace one to rounding.
* Every other frame and rate steps forward Euler, the generator
  re-evaluated at the start of each step.

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

from .algebra import MeasurementFrame, on_samples
from .feedback import FeedbackScheme, GainError
from .metrics import PLAIN_COLUMNS, compute_metrics
from .trajectory import STATUS_OK, TrajectoryRecord

log = logging.getLogger(__name__)

TRACE_TOL = 1e-6
# the feedback steps do not preserve positivity exactly: forward Euler
# leaves negative eigenvalue dust of order delta_v, the averaged
# second-order step of order delta_v^2; warn only well above that scale,
# but always record the exact floor
EIG_FLOOR = -1e-3
# how far omega delta_v may sit from pi/2 and still count as a quarter period
_QUARTER_TOL = 1e-9


def dissipator(r, rho):
    """D[r] rho = r rho r^dag - (r^dag r rho + rho r^dag r)/2."""
    rd = r.conj().T
    rdr = rd @ r
    return r @ rho @ rd - 0.5 * (rdr @ rho + rho @ rdr)


@dataclass
class EvolutionSpec:
    """What to integrate and how finely."""

    frame: MeasurementFrame
    generator: str = "feedback"  # feedback | countertwist-two | countertwist-single
    delta_v: float = 1e-3
    v_max: float = 20.0
    record_stride: int = 1
    audit_stride: int = 200  # positivity spot-check cadence, in steps

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


def countertwist_hamiltonian(frame: MeasurementFrame, variant: str):
    """Two-axis countertwisting generator.

    The cross-sample form J_z1 J_y2 + J_y1 J_z2 and the collective form
    (Jz Jy + Jy Jz)/2 generate identical flows when two spin-1/2 samples
    are read as one spin 1; the factor of one half is what makes that
    correspondence exact.
    """
    if variant == "countertwist-two":
        if frame.mode != "two":
            raise ValueError("two-sample countertwisting needs a two-mode frame")
        jz1, jz2 = on_samples(frame.sample.jz)
        jy1, jy2 = on_samples(frame.sample.jy)
        return jz1 @ jy2 + jy1 @ jz2
    if variant == "countertwist-single":
        return 0.5 * frame.zy_anti_at(0.0)  # collective Jz Jy + Jy Jz
    raise ValueError(f"unknown countertwisting variant {variant!r}")


def feedback_rate(frame: MeasurementFrame, rho, v: float, lam: float):
    """Right-hand side of the scaled master equation at time v."""
    z = frame.z_at(v)
    z2 = frame.z2_at(v)
    if lam == 0.0:
        zr = z @ rho
        half = z2 @ rho
        return zr @ z - 0.5 * (half + half.conj().T)
    y = frame.y_at(v)
    y2 = frame.y2_at(v)
    anti = frame.zy_anti_at(v)
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


def _kron_sum_apply(k, x, sign: float, out, other):
    """Write (K (x) 1 + sign 1 (x) K) x into out, for a per-sample real
    factor K (d x d) and C-contiguous complex n x n arrays x, out and
    other (scratch), n = d^2; returns out.

    The |m1, m2> index splits as (m1, m2), so K (x) 1 acts on x as a
    (d, d n) array and 1 (x) K on each of its d row blocks; both are d x d
    products on the float view, since real K acts on real and imaginary
    parts alike. Costs O(n^2 d) and builds no n x n operator.
    """
    d = k.shape[0]
    n = x.shape[0]
    xf, of, otherf = x.view(float), out.view(float), other.view(float)
    np.matmul(k, xf.reshape(d, 2 * d * n), out=of.reshape(d, 2 * d * n))
    np.matmul(k, xf.reshape(d, d, 2 * n), out=otherf.reshape(d, d, 2 * n))
    if sign > 0:
        of += otherf
    else:
        of -= otherf
    return out


def averaged_rate(frame: MeasurementFrame, rho, lam: float, scratch: dict | None = None):
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

    The intermediates live in scratch, a dict the first call fills with
    n x n work arrays (five complex, three real); a run passes the same
    dict to every step, so only the returned rate is allocated per step.
    A dozen fresh n x n temporaries per step would grow the heap and hand
    it back to the system every step, and each 4 KiB page is a fault when
    touched again. Between calls the work arrays hold nothing.
    """
    if frame.mode != "two":
        raise ValueError("the period-averaged generator needs a two-mode frame")
    rho = np.ascontiguousarray(rho, dtype=complex)
    if scratch is None:
        scratch = {}
    if not scratch:
        scratch["complex"] = np.empty((5,) + rho.shape, dtype=complex)
        scratch["real"] = np.empty((3,) + rho.shape)
    a, a_dag, inner, g, t = scratch["complex"]
    dephase, de, tr = scratch["real"]
    k, d, e = frame.jy_factor, frame.jzp_diag, -frame.jzm_diag
    _kron_sum_apply(k, rho, -1.0, a, t)
    np.conjugate(a.T, out=a_dag)
    np.add(a, a_dag, out=inner)
    inner *= 0.25
    _kron_sum_apply(k, inner, -1.0, g, t)
    np.subtract(d[:, None], d, out=dephase)
    np.square(dephase, out=dephase)
    if lam != 0.0:
        np.subtract(e[:, None], e, out=de)
        np.multiply(lam, de, out=tr)
        dephase += np.square(tr, out=tr)
        de *= 0.25 * lam
        a -= a_dag
        g += np.multiply(de, a, out=t)
        b = _kron_sum_apply(k, rho, 1.0, a_dag, t)  # a^dag is spent
        np.conjugate(b.T, out=inner)
        inner += b
        inner *= 0.25 * lam * lam
        np.add(d[:, None], d, out=tr)
        np.multiply(0.5 * lam, tr, out=tr)
        inner += np.multiply(tr, rho, out=t)
        g += _kron_sum_apply(k, inner, 1.0, b, t)
    dephase *= -0.125
    g += np.multiply(dephase, rho, out=t)
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


def countertwist_propagator(hamiltonian, delta_v: float):
    """exp(-i H delta_v) for a Hermitian H, from its eigenvectors."""
    energies, vectors = np.linalg.eigh(hamiltonian)
    return (vectors * np.exp(-1j * delta_v * energies)) @ vectors.conj().T


def countertwisting_step(rho, propagator):
    """rho -> U rho U^dag, re-Hermitized; exact for a constant Hamiltonian."""
    out = propagator @ rho @ propagator.conj().T
    return 0.5 * (out + out.conj().T)


def _kept(lam, keep):
    """The gains of the members kept: lam is one gain for all or one each."""
    return lam[keep] if isinstance(lam, np.ndarray) else lam


def integrate(
    rho0, spec: EvolutionSpec, controller, step, metrics, columns, metas: list[dict],
    *, nodes: bool = False, window=None, zeta_floor: float | None = None,
) -> list[TrajectoryRecord]:
    """The step loop every run shares, averaged or conditioned.

    It integrates len(metas) runs from the same n x n state rho0 as one
    (B, n, n) stack and returns one record per run, its meta extended by
    that run's entry of metas. Each of the n_steps + 1 iterations checks
    every live state's trace, makes one gain call for the whole live stack
    at v (at the node times (v, v + delta_v) when nodes is set), records
    metrics(rho, frame, v=, lam=) as the named columns every record_stride
    steps into one table preallocated for the batch, audits positivity
    every audit_stride steps, and then calls step(rho, v, lam, live) for
    the next stack and each state's trace before renormalisation (None if
    the step does not renormalise). lam is what the controller returned:
    one gain per member, or one for all of them. live indexes the stack's
    members among the runs (a slice until one ends), so a step can keep
    per-run state such as noise. A clean run yields
    n_steps // record_stride + 1 rows, and the final time appears
    whenever the stride divides the step count.

    Each run keeps its own status through a mask over the stack: a run
    that fails a check leaves the stack with its status, stops stepping
    and keeps the rows recorded so far, while the others go on. Every
    member's numbers are bit for bit those of the run integrated alone.
    evolve and trajectory_run are the B = 1 callers; run_trajectories
    hands the loop whole batches.

    Without a window the steps keep the trace: a state whose trace is
    off by more than TRACE_TOL ends its run, and max_trace_drift is the
    largest |trace - 1| of a state. With a (low, high) window the steps
    renormalise: a raw trace outside it ends the run, and max_trace_drift
    is the largest raw |trace - 1|. A non-finite trace, moment or gain
    also ends the run. Positivity is logged and recorded, never repaired.
    With zeta_floor set, a run ends, status ok, at the first recorded row
    whose zeta is not above it; that row is kept.
    """
    frame, dv = spec.frame, spec.delta_v
    if rho0.shape != (frame.dim, frame.dim):
        raise ValueError(f"state dimension {rho0.shape} does not match frame dimension {frame.dim}")
    size = len(metas)
    rho = np.empty((size,) + rho0.shape, dtype=complex)
    rho[:] = rho0
    controller = controller or FeedbackScheme("none")
    table = np.empty((size, len(columns), spec.n_steps // spec.record_stride + 1))
    zeta_at = columns.index("zeta")
    shared = {
        "mode": frame.mode,
        "generator": spec.generator,
        "delta_v": dv,
        "v_max": spec.v_max,
        "omega": frame.omega,
        "scheme": controller.kind,
    }
    records = [None] * size
    # the runs still stepping, and their diagnostics, in stack order; the
    # per-step checks read floats, which on a small stack beats array calls
    live = np.arange(size)
    members = slice(None)
    clamp_events = np.zeros(size, dtype=int)
    min_eig_floor = np.zeros(size)
    max_drift = [0.0] * size
    n_rows = 0

    def finish(k, status=STATUS_OK, abort_v=None, abort_reason=""):
        run = live[k]
        records[run] = TrajectoryRecord(
            meta={**shared, **metas[run]},
            columns={name: table[run, i, :n_rows] for i, name in enumerate(columns)},
            status=status,
            abort_v=abort_v,
            abort_reason=abort_reason,
            clamp_events=int(clamp_events[k]),
            min_eig_floor=float(min_eig_floor[k]),
            max_trace_drift=max_drift[k],
        )

    def end(ends: dict):
        """Finish the members {stack position: (status, abort_v, reason)}
        and drop them from the stack; returns the mask of those kept."""
        nonlocal rho, live, members, clamp_events, min_eig_floor, max_drift
        for k, why in ends.items():
            finish(k, *why)
        keep = np.ones(len(live), dtype=bool)
        keep[list(ends)] = False
        rho, live, clamp_events, min_eig_floor = (a[keep] for a in (rho, live, clamp_events, min_eig_floor))
        max_drift = [m for m, kept in zip(max_drift, keep) if kept]
        members = live
        return keep

    for n in range(spec.n_steps + 1):
        v = n * dv
        trace = rho.trace(axis1=1, axis2=2).real.tolist()
        drift = [abs(x - 1.0) for x in trace]
        if window is None:
            max_drift = list(map(max, max_drift, drift))
        if not all(d <= TRACE_TOL for d in drift):  # NaN fails this too
            end({
                k: ("aborted-trace", v, f"trace drift {d:.3e}")
                if math.isfinite(x) else ("aborted-nonfinite", v, "non-finite trace")
                for k, (x, d) in enumerate(zip(trace, drift)) if not d <= TRACE_TOL
            })
            if not live.size:
                break
        t = (v, v + dv) if nodes else v
        try:
            lam, clamped = controller.gain(rho, frame, t)
        except GainError as err:
            failed = err.members or dict.fromkeys(range(live.size), str(err))
            end({k: ("aborted-gain", v, reason) for k, reason in failed.items()})
            if not live.size:
                break
            lam, clamped = controller.gain(rho, frame, t)
        if clamped is not False:
            hits = np.broadcast_to(np.asarray(clamped, dtype=bool), live.shape)
            for k in np.flatnonzero(hits & (clamp_events == 0)):
                log.warning("gain clamped to %.3g at v=%.4f", np.broadcast_to(lam, live.shape)[k], v)
            clamp_events += hits
        if n % spec.record_stride == 0:
            values = metrics(rho, frame, v=v, lam=lam).values
            table[members, :, n_rows] = values.T
            zeta = values[zeta_at].tolist()
            if not all(map(math.isfinite, zeta)):
                keep = end({
                    k: ("aborted-nonfinite", v, "non-finite moments")
                    for k, z in enumerate(zeta) if not math.isfinite(z)
                })
                lam, zeta = _kept(lam, keep), [z for z in zeta if math.isfinite(z)]
                if not live.size:
                    break
            n_rows += 1
            if zeta_floor is not None and not all(z > zeta_floor for z in zeta):
                lam = _kept(lam, end({k: (STATUS_OK,) for k, z in enumerate(zeta) if not z > zeta_floor}))
                if not live.size:
                    break
        if spec.audit_stride and n % spec.audit_stride == 0:
            low = np.linalg.eigvalsh(rho)[:, 0]
            for k in np.flatnonzero((low < EIG_FLOOR) & (min_eig_floor >= EIG_FLOOR)):
                # warn once per run; the worst excursion lands in min_eig_floor
                log.warning("state eigenvalue %.3e below floor at v=%.4f", low[k], v)
            np.fmin(min_eig_floor, low, out=min_eig_floor)
        if n == spec.n_steps:
            break
        rho, raw = step(rho, v, lam, members)
        if window is not None:
            raw = raw.tolist()
            max_drift = list(map(max, max_drift, [abs(x - 1.0) for x in raw]))
            if not all(window[0] < x < window[1] for x in raw):
                end({
                    k: ("aborted-norm", v + dv, f"trace {x:.3e} outside renormalisation window")
                    for k, x in enumerate(raw) if not window[0] < x < window[1]
                })
                if not live.size:
                    break

    for k in range(live.size):
        finish(k)
    return records


def evolve(
    rho0, spec: EvolutionSpec, controller: FeedbackScheme | None = None, zeta_floor: float | None = None
) -> TrajectoryRecord:
    """Integrate the deterministic evolution and record metrics rows; see
    integrate for the row, abort and diagnostic contract."""
    frame, dv = spec.frame, spec.delta_v
    averaged = _quarter_period_steps(spec)
    if spec.generator != "feedback":
        propagator = countertwist_propagator(countertwist_hamiltonian(frame, spec.generator), dv)

        def advance(rho, v, lam):
            return countertwisting_step(rho, propagator)

    elif averaged:
        # the averaged steps keep Hermiticity exactly, so it is imposed once
        rho0 = 0.5 * (rho0 + rho0.conj().T)
        last_rate = None  # the previous averaged rate, for Adams-Bashforth
        scratch = {}

        def advance(rho, v, lam):
            nonlocal last_rate
            rate = averaged_rate(frame, rho, lam, scratch)
            combined = rate
            if last_rate is not None:
                # the rate's work arrays are free until the next call
                combined, half_last = scratch["complex"][:2]
                np.multiply(1.5, rate, out=combined)
                combined -= np.multiply(0.5, last_rate, out=half_last)
            last_rate = rate
            return unconditioned_step(rho, frame, v, lam, dv, rate=combined)

    else:

        def advance(rho, v, lam):
            return unconditioned_step(rho, frame, v, lam, dv)

    def step(rho, v, lam, live):
        # a deterministic run is a stack of one state
        return advance(rho[0], v, float(lam[0] if isinstance(lam, np.ndarray) else lam))[None], None

    return integrate(
        rho0, spec, controller, step, compute_metrics, PLAIN_COLUMNS, [{"conditioned": False}],
        nodes=averaged, zeta_floor=zeta_floor,
    )[0]
