"""Deterministic evolution: the record-averaged feedback master equation
and the countertwisting Hamiltonian flow.

In scaled time v the record-averaged state obeys

    drho/dv = -i (L/2) [ZY + YZ, rho] + D[Z - i L Y] rho

with Z = Z(v), Y = Y(v) from the measurement frame and L the scaled
feedback gain. The first term is the twisting the feedback synthesises;
the D[Z - i L Y] term carries both the measurement back-action and the
fed-back noise. Both rates are Hermitian to the last bit, so evolve
Hermitizes rho0 once and the state stays Hermitian exactly, and the
trace is left alone so integrator failure shows up as drift instead of
being hidden by renormalisation. Every feedback step, Euler or
Adams-Bashforth, is the one update unconditioned_step, rho + delta_v rate.

Every run, record-averaged here or record-conditioned in ``stochastic``,
goes through one step loop, ``integrate``: it checks the trace, asks the
gain law for the gain, records strided metrics rows, audits positivity
every AUDIT_STRIDE steps, and ends the run with a defined status; the
gain law, metrics row and step share one ``algebra.Moments`` read per
step and the frame's bundle at v, ``frame.at(v)``, so each expectation
is computed once. It steps a stack of runs at once, a deterministic run
being a stack of one, a batch of conditioned trajectories a stack of
many on one frame, and a single-mode size sweep a stack of spins on a
member-stacked frame, and ends each run with its own status. What
differs between runs is only the step it is handed:

* When each step spans exactly a quarter frame period (two samples,
  omega delta_v = pi/2, the default ``omega = "auto"``), consecutive
  steps alternate between the node generators L0 (Z = J_z^+) and L1
  (Z = J_y^-); nodes 2 and 3 repeat them with Z and Y negated. The run
  integrates the period-averaged generator (L0 + L1)/2, the delta_v -> 0
  limit of node cycling, with the two-step Adams-Bashforth rule started
  by one Euler step: second order, one rate evaluation per step. The
  gain laws read moments averaged over the same two nodes.
* Countertwisting has a constant Hamiltonian H, the cross-sample or the
  collective form as the frame's mode says, so its step is the exact
  propagator exp(-i H delta_v), built once per run from the eigenvectors
  of H; it keeps the state positive and its trace one to rounding.
* Every other frame and rate steps forward Euler, the generator
  re-evaluated at the start of each step.

Dtype: in the J_z basis J_x, J_z and the +x coherent state are real and
J_y = iK with K real. So the averaged two-mode rate, the static
single-mode rate, the single-mode conditioned step and countertwisting
(H imaginary, exp(-i H delta_v) real orthogonal) keep a real state real.
integrate tells them from its spec (_as_stepped) and steps them on a
float64 stack when rho0's imaginary part is exactly zero: half the
memory, real BLAS in every product, expectation and audit. Two-mode
conditioned runs (measuring J_y^- is an imaginary back-action) and
finite-omega Euler runs mix real and imaginary operators and stay complex.

The Euler rate, feedback_rate, is W + W^dag with
W = Q rho + (r rho) r^dag / 2, r = Z + L K and Q = (L S - r^dag r)/2:
three dim^3 products with the dense frame operators. S is anti-Hermitian,
so the drive S rho + (S rho)^dag folds into Q, and r^dag r folds into the
frame's bundle at v, frame.at(v), via r^dag r = Z^2 + L^2 Y^2 - L X. The averaged
rate multiplies by no dense operator: J_z^+ and J_z^- are diagonal in
the |m1, m2> basis, and J_y^+ and J_y^- act one sample at a time through
the d x d factor of J_y (d = 2j + 1): one shared pair of per-sample
products gives J_y^+ rho and J_y^- rho, and one more pair the regrouped
second-order terms, so the rate makes four products with that factor,
each costing dim^2 d instead of dim^3.

Parity: the joint x-parity, in the |m1, m2> basis the index reversal
a -> n - 1 - a with no sign, keeps J_x and negates K and the diagonal
J_z^+ and J_z^-. Both node generators commute with it, so the averaged
run keeps a parity-even state even. The averaged rate and its
Adams-Bashforth step therefore compute only the top ceil(n/2) rows and
fill the rest by the mirror; no pass of either covers every row (see
averaged_rate for which operators are odd, which rows each pass covers
and how an odd n's middle row is kept). The reduction is exact for an
even start only, so evolve refuses any other on the averaged path; every
start in this package, the +x coherent product state, is even to
rounding. The first step starts from the start's exact parity
projection, and every later state is even and Hermitian to the last bit.
So from the first step on, integrate reads every moment on the parity
half of the state: Tr[op rho] is twice the dot product over the first
floor(N/2) entries of the flattened state (N = n^2), plus the middle
entry's term when N is odd (algebra.expect_real). That needs op even as
well. The metrics row's reads are (J_x^+, zeta_op, each node's Z^2), and
so are those of every gain law whose reads_even says so (X^2 and each
node's ZXZ besides); simple-conditioned reads the odd node Z, so its
runs, like the start, even only to rounding, are read in full.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import MeasurementFrame, Moments, dagger, on_samples
from .feedback import FeedbackScheme, GainError
from .metrics import METRIC_COLUMNS, PLAIN_COLUMNS, compute_metrics
from .trajectory import STATUS_OK, RecordStack, TrajectoryRecord

log = logging.getLogger(__name__)

TRACE_TOL = 1e-6
# the raw traces a conditioned step may renormalise; integrate ends a run
# whose raw trace leaves it
TRACE_WINDOW = (0.5, 2.0)
# the feedback steps do not preserve positivity exactly: forward Euler
# leaves negative eigenvalue dust of order delta_v, the averaged
# second-order step of order delta_v^2; warn only well above that scale,
# but always record the exact floor
EIG_FLOOR = -1e-3
# how far omega delta_v may sit from pi/2 and still count as a quarter period
_QUARTER_TOL = 1e-9
# how far a start of the period-averaged step may sit from parity-even; the
# +x coherent product state sits 1.5e-16 away, a state tilted off x O(1)
_PARITY_TOL = 1e-12
# positivity spot-check cadence, in steps
AUDIT_STRIDE = 200


@dataclass
class EvolutionSpec:
    """What to integrate and how finely."""

    frame: MeasurementFrame
    generator: str = "feedback"  # feedback | countertwist, its form picked by the frame's mode
    delta_v: float = 1e-3
    v_max: float = 20.0
    record_stride: int = 1

    def __post_init__(self):
        if self.generator not in ("feedback", "countertwist"):
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


def countertwist_hamiltonian(frame: MeasurementFrame):
    """Two-axis countertwisting generator: the cross-sample form
    J_z1 J_y2 + J_y1 J_z2 on a two-mode frame, the collective form
    (Jz Jy + Jy Jz)/2 on a single-mode one.

    The two generate identical flows when two spin-1/2 samples are read as
    one spin 1; the factor of one half is what makes that correspondence
    exact.
    """
    if frame.mode == "two":
        jz1, jz2 = on_samples(frame.sample.jz)
        jy1, jy2 = on_samples(frame.sample.jy)
        return jz1 @ jy2 + jy1 @ jz2
    return 0.5 * frame.at(0.0).zy  # collective Jz Jy + Jy Jz


def feedback_rate(frame: MeasurementFrame, rho, v: float, lam):
    """Right-hand side of the scaled master equation at time v, as W + W^dag
    with W = Q rho + (r rho) r^dag / 2, written with K = -iY and
    S = -i(ZY + YZ): r = Z + L K and Q = (L S - r^dag r)/2, where
    r^dag r = Z^2 + L^2 Y^2 - L X. Three products, and Hermitian to the
    last bit. It is computed as (V + V^dag)/2 with V = 2W, which rounds
    exactly as W does; on the static frame K and S are real, so a real rho
    gives a real rate.

    rho is one state or a (B, n, n) stack, on a shared or a member-stacked
    frame, and lam one gain or one per member. r^dag is built as Z - L K,
    the same array as r's adjoint since Z is Hermitian and K
    anti-Hermitian, so no product reads a transposed operand."""
    at = frame.at(v)
    if isinstance(lam, np.ndarray):
        lam = lam[:, None, None]
    kick = lam * at.k
    q, t = lam * at.sx, (lam * lam) * at.y2
    t += at.z2
    q -= t  # 2Q
    # np.dot: the same BLAS product as @ on one state, with less dispatch
    dot = np.dot if rho.ndim == 2 else np.matmul
    w = dot(q, rho)
    w += dot(dot(at.z + kick, rho), np.subtract(at.z, kick, out=kick))
    w += dagger(w)
    w *= 0.5
    return w


def _per_sample_products(k, x, y, p, q, blocks):
    """Write the top blocks of the d row blocks of P = (K (x) 1) x into p,
    then those of Q = (1 (x) K) y into q (q may be x), from all of x and
    the top of y, for a per-sample real factor K (d x d) and C-contiguous
    n x n arrays of one dtype, n = d^2. The |m1, m2> index splits as
    (m1, m2), so K (x) 1 acts on x as a (d, d n) array and 1 (x) K on each
    of y's d row blocks, both on the float view: real K acts on the real
    and any imaginary parts alike. Costs O(n^2 d) and builds no n x n
    operator."""
    d = k.shape[0]
    rows = blocks * d
    np.matmul(k[:blocks], x.view(float).reshape(d, -1), out=p[:rows].view(float).reshape(blocks, -1))
    np.matmul(k, y[:rows].view(float).reshape(blocks, d, -1), out=q[:rows].view(float).reshape(blocks, d, -1))


def _plus_dagger(x, out, sign=1.0):
    """The top h = ceil(n/2) rows of x + x^dag into out's, for an n x n
    array x that is sign-even under the parity, from x's top h rows alone:
    below them x[k, i] = sign x[n - 1 - k, n - 1 - i], so the top rows of
    x^T are x's top-left h x h block transposed beside sign times the
    mirror of its top-right block, transposed. Those are copied into out's
    top rows (a copy reads a transposed operand without the buffers a ufunc
    would fill), and x's top rows are added through the real and imaginary
    views. out must not share memory with x's top rows. Returns out's top
    rows."""
    n = x.shape[0]
    h, m = (n + 1) // 2, n // 2
    t = out[:h]
    t[:, :h] = x[:h, :h].T
    t[:, h:] = _mirror(x[:m, m:]).T
    if sign < 0:
        np.negative(t[:, h:], out=t[:, h:])
    if x.dtype.kind == "c":
        np.subtract(x.imag[:h], t.imag, out=t.imag)
    t.real += x.real[:h]
    return t


def _mirror(x):
    """x under the joint x-parity, the index reversal a -> n - 1 - a of the
    |m1, m2> basis on both axes of an n x n array, or on its flattening,
    where it is the one reversal of the flat index; a view."""
    return x[::-1, ::-1] if x.ndim == 2 else x[::-1]


def _fill_by_parity(x, sign=1.0, stop=None):
    """Make the C-contiguous n x n array x sign-even under the parity from
    its top ceil(n/2) rows: every entry past the middle of the flat index,
    up to row stop (the last by default), becomes sign times its mirror
    entry before the middle. That covers the rows below the middle row and
    the right half of an odd n's middle row, whose middle entry is left as
    it is; one reversed copy of the flat array. Returns x."""
    flat = x.reshape(-1)
    size, half = flat.size, flat.size // 2
    end = size if stop is None else stop * x.shape[1]
    np.multiply(_mirror(flat[size - end : half]), sign, out=flat[size - half : end])
    return x


def averaged_rate(frame: MeasurementFrame, rho, lam: float, scratch: dict | None = None):
    """Right-hand side of the period-averaged master equation, (L0 + L1)/2,
    for a state rho that is even under the joint x-parity.

    L0 and L1 are the generators at the first two quarter-period nodes,
    (Z, Y) = (J_z^+, J_y^+) and (J_y^-, -J_z^-). Write J_y^+ = iB and
    J_y^- = iA, with A and B real and antisymmetric because J_y = iK on
    each sample, and D, E for the diagonal J_z^+ and -J_z^-. With
    a = A rho, b = B rho, and [A, rho] = a + a^dag, [B, rho] = b + b^dag,

        (L0 + L1) rho / 2 = G + G^dag,
        G = A [A, rho]/4 + B Y + L [E, a - a^dag]/4 - F o rho,
        Y = [B, rho] L^2/4 + L (D rho + rho D)/2,

    where F o rho dephases rho_ij at rate ((d_i - d_j)^2 + L^2 (e_i - e_j)^2)/8
    for the diagonals d of D and e of E. As A = K (x) 1 - 1 (x) K and
    B = K (x) 1 + 1 (x) K, a and b are P - Q and P + Q of the per-sample
    products P = (K (x) 1) rho and Q = (1 (x) K) rho, and
    A [A, rho]/4 + B Y = (K/4 (x) 1) U + (1 (x) K/4) V with
    U = 4Y + [A, rho], V = 4Y - [A, rho]: four products with the d x d
    factor K and no n x n operator. e_i - e_j is real antisymmetric, so the
    Hermitian E term enters G as (L/2) (e_i - e_j) o a.

    Parity: in the |m1, m2> basis the joint x-parity is the index reversal
    a -> n - 1 - a with no sign. It keeps J_x and negates K and both J_z
    diagonals, so K (x) 1, 1 (x) K, A, B, D and E are odd, and for an even
    rho so are P, Q, a, b, [A, rho], [B, rho], Y, U and V, while G and the
    rate are even: below its top h = ceil(n/2) rows an odd or even x has
    x[k, i] = -+ x[n - 1 - k, n - 1 - i]. So, pass by pass:

    * the first pair of products makes the top ceil(d/2) row blocks of P
      and Q (P reads every row of rho, Q only those blocks);
    * a and b, and every later elementwise pass, cover the top h rows;
    * the top rows of [A, rho], [B, rho] and G + G^dag are built from the
      top rows of a, b and G alone: the top rows of x^T are x's top-left
      h x h block transposed beside -+ the mirror of its top-right block,
      transposed (_plus_dagger), so G is never filled;
    * U's other rows, and V's down to its top ceil(d/2) row blocks, are
      filled as the negated mirror of their top rows, because the second
      pair of products, on the top ceil(d/2) row blocks, reads them;
    * the rate's other rows are filled from its top h rows by the mirror,
      the right half of an odd n's middle row from its left half.

    No pass covers every row. The rate is then Hermitian and parity-even
    to the last bit, whatever the rounding of rho's parity, and matches
    the rate computed on every row to rounding.

    scratch is a dict the first call fills with K/4, four n x n arrays in
    rho's dtype and four real h x n arrays holding the top rows of the run
    constants d_i + d_j, e_i - e_j and the two dephasing rates, so it
    belongs to one frame. A run passes one dict to every step, so a step
    allocates only the returned rate, not a dozen n x n temporaries whose
    pages fault in again every step; its transposed reads are copies,
    which fill no ufunc iteration buffers.
    """
    if frame.mode != "two":
        raise ValueError("the period-averaged generator needs a two-mode frame")
    rho = np.ascontiguousarray(rho)
    scratch = {} if scratch is None else scratch
    k = frame.jy_factor
    n, d = rho.shape[0], k.shape[0]
    h, blocks = (n + 1) // 2, (d + 1) // 2
    if not scratch:
        dp, e = frame.jzp_diag, -frame.jzm_diag
        scratch["work"] = np.empty((4,) + rho.shape, dtype=rho.dtype)
        scratch["real"] = np.empty((4, h, n))
        ds, de, fd, fe = scratch["real"]
        np.add(dp[:h, None], dp, out=ds)
        np.subtract(e[:h, None], e, out=de)
        np.multiply(np.square(np.subtract(dp[:h, None], dp, out=fd), out=fd), -0.125, out=fd)
        np.multiply(np.square(de, out=fe), -0.125, out=fe)
        scratch["quarter_k"] = 0.25 * k
    (p, q, a, g), (ds, de, fd, fe) = scratch["work"], scratch["real"]
    top = rho[:h]
    _per_sample_products(k, rho, rho, p, q, blocks)
    np.subtract(p[:h], q[:h], out=a[:h])
    q[:h] += p[:h]  # b
    y = _plus_dagger(q, p, -1.0)  # 4Y, built in place
    y *= lam * lam
    y += np.multiply(np.multiply(ds, top, out=q[:h]), 2.0 * lam, out=q[:h])
    comm = _plus_dagger(a, q, -1.0)
    np.subtract(y, comm, out=g[:h])  # V
    y += comm  # U
    # U and V are odd; the products below read all of U and V's top row blocks
    _fill_by_parity(p, -1.0)
    _fill_by_parity(g, -1.0, stop=blocks * d)
    _per_sample_products(scratch["quarter_k"], p, g, q, p, blocks)
    q[:h] += p[:h]
    tr = g.view(float).reshape(-1)[: h * n].reshape(h, n)  # a real h x n array in g's memory
    a[:h] *= np.multiply(de, 0.5 * lam, out=tr)
    np.add(np.multiply(fe, lam * lam, out=tr), fd, out=tr)
    a[:h] += np.multiply(tr, top, out=p[:h])  # - F o rho
    q[:h] += a[:h]  # G
    rate = np.empty_like(q)
    _plus_dagger(q, rate)
    return _fill_by_parity(rate)


def unconditioned_step(rho, rate, delta_v: float):
    """One step of the feedback master equation, rho + delta_v rate, built
    in the rate's array and returned: forward Euler on feedback_rate, or
    the averaged integrator's Adams-Bashforth combination of averaged
    rates. Each rate is Hermitian to the last bit (W + W^dag or G + G^dag,
    and real combinations keep that), so from a Hermitian rho the step is
    too."""
    rate *= delta_v
    rate += rho
    return rate


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


def _as_stepped(rho0, spec: EvolutionSpec, averaged: bool):
    """rho0 as the stack is stepped: its real part when it is exactly real
    and spec's step keeps a real state real (the single-mode, averaged and
    countertwisting steps; see the module docstring), else rho0."""
    if (spec.frame.mode == "single" or averaged or spec.generator != "feedback") and not rho0.imag.any():
        return rho0.real
    return rho0


def countertwist_propagator(hamiltonian, delta_v: float):
    """exp(-i H delta_v) for a purely imaginary Hermitian H = iA, from the
    eigenvectors of H: the real orthogonal exp(A delta_v), returned as
    float64 without the rounding dust of its imaginary part. A (B, n, n)
    stack of Hamiltonians gives the stack of their propagators."""
    if hamiltonian.real.any():
        raise ValueError("expected a purely imaginary Hamiltonian")
    energies, vectors = np.linalg.eigh(hamiltonian)
    return ((vectors * np.exp(-1j * delta_v * energies)[..., None, :]) @ dagger(vectors)).real


def countertwisting_step(rho, propagator):
    """rho -> U rho U^dag, re-Hermitized; exact for a constant Hamiltonian.
    rho and U may each be one matrix or a stack."""
    out = propagator @ rho @ dagger(propagator)
    return 0.5 * (out + dagger(out))


def integrate(
    rho0, spec: EvolutionSpec, controller, step, metrics, columns, metas: list[dict],
    *, conditioned: bool = False, stop=None,
) -> list[TrajectoryRecord]:
    """The step loop every run shares, averaged or conditioned.

    It integrates len(metas) runs as one (B, n, n) stack, from rho0, one
    n x n state for all of them or a stack of one each, and returns one
    record per run, its meta the spec's, the scheme and conditioned,
    extended by that run's entry of metas. A run that is not conditioned
    and steps a quarter period at a time (_quarter_period_steps) is
    averaged: its step is the period-averaged two-mode step of one state.
    Each of the n_steps + 1 iterations checks every live state's trace,
    makes one gain call for the whole live stack at v (at the node times
    (v, v + delta_v) when averaged), records the row
    metrics(read, frame, v=, lam=, conditioned=, columns=) of the named
    columns, in the order named, every record_stride steps into one table
    preallocated for the batch, audits positivity every AUDIT_STRIDE
    steps, and then calls step(rho, frame, v, lam, live, read) for the
    next stack and each state's trace before renormalisation (None if the
    step does not renormalise). read is the algebra.Moments of the live
    stack that the gain call, the metrics row and the step share, so each
    expectation is computed once per step. lam is what the controller
    returned: one gain per member, or one for all of them. live indexes
    the stack's members among the runs (a slice until one ends), so a
    step can keep per-run state such as noise. A clean run yields
    n_steps // record_stride + 1 rows, and the final time appears
    whenever the stride divides the step count. columns name v and any
    other columns of a plain row (PLAIN_COLUMNS), or with conditioned set
    of a conditioned one (METRIC_COLUMNS), each once, else ValueError
    before the first step.

    Each run keeps its own status through a mask over the stack: a run
    that fails a check leaves the stack with its status, stops stepping
    and keeps the rows recorded so far, while the others go on. The
    spec's frame is shared by every member or member-stacked, one spin
    per member (algebra.single_mode_frame of several spins); a stacked
    frame is narrowed with the stack, frame.members(kept), and the gain
    call, the metrics row and the step get the narrowed one. Members that
    share a frame are bit for bit the run integrated alone. A member of a
    stacked frame is its spin zero-padded to the largest spin's dimension,
    which changes the length and the order of every sum the products and
    reads make, so it agrees with its spin run alone to rounding: over
    2j in {2, 4, 10, 14} padded to 2j = 20, with the simple and optimal
    laws up to v = 20, zeta moved by at most 7.8e-14 relative and the
    sweep's xi2_min by at most 3.1e-15 relative.

    An unconditioned run's steps keep the trace: a state whose trace is
    off by more than TRACE_TOL ends its run, and max_trace_drift is the
    largest |trace - 1| of a state. A conditioned run's steps renormalise
    every state: a raw trace outside TRACE_WINDOW ends the run
    "aborted-norm" before its state is read again, and max_trace_drift is
    the largest raw |trace - 1|. A non-finite trace or metrics row ends
    the run "aborted-nonfinite", and the row is dropped. A non-finite gain
    does not end it: the controller clamps it to +-clamp, counted as a
    clamp event like any gain past the clamp, and a state that turns
    non-finite ends at its next trace check. Positivity is logged and
    recorded, never repaired. With stop set, each recorded row, once kept,
    is handed to stop(v, row, live): row maps each metrics column asked for
    (the named ones and zeta) to its values over the live stack, and live
    indexes the stack's members among the runs. It returns
    {stack position: (status, abort_v, reason)} for the runs that end on
    that row, status alone for an ok end, and those runs end there with the
    row kept; a size sweep's stop (metrics.sweep_stop) ends a run once its
    xi2 minimum is bracketed or zeta falls to the resolution floor. Every
    run finishes through one exit, which records it from the rows so far
    and narrows the stack, its per-member values and the gain to the runs
    left.

    The stack is stepped as float64 when the step keeps a real state real
    and rho0 is exactly real (_as_stepped). The averaged step keeps every
    state past rho0 parity-even to the last bit, so from the first step
    on, when the controller's reads_even says its law reads only
    parity-even operators, each read of the step's Moments is a
    parity-half read (algebra.expect_real), exact to rounding because the
    metrics row's reads are even too (see the module docstring); rho0 is
    even only to rounding and read in full.
    """
    frame, dv = spec.frame, spec.delta_v
    n_steps, stride = spec.n_steps, spec.record_stride
    columns, offered = tuple(columns), METRIC_COLUMNS if conditioned else PLAIN_COLUMNS
    if "v" not in columns:
        raise ValueError(f"columns {columns} lack 'v', which every record keeps")
    for i, name in enumerate(columns):
        if name not in offered:
            raise ValueError(f"column {name!r} is not in a {'conditioned' if conditioned else 'plain'} metrics row")
        if name in columns[:i]:
            raise ValueError(f"column {name!r} is named twice")
    if rho0.shape[-2:] != (frame.dim, frame.dim):
        raise ValueError(f"state dimension {rho0.shape} does not match frame dimension {frame.dim}")
    averaged = not conditioned and _quarter_period_steps(spec)
    rho0 = _as_stepped(rho0, spec, averaged)
    size = len(metas)
    rho = np.empty((size, frame.dim, frame.dim), dtype=rho0.dtype)
    rho[:] = rho0
    controller = controller or FeedbackScheme("none")
    # the table holds the named columns; each row also has zeta for the checks
    table = np.empty((size, len(columns), n_steps // stride + 1))
    asked = columns if "zeta" in columns else (*columns, "zeta")
    zeta_at = asked.index("zeta")
    shared = {
        "mode": frame.mode,
        "generator": spec.generator,
        "delta_v": dv,
        "v_max": spec.v_max,
        "omega": frame.omega,
        "scheme": controller.kind,
        "conditioned": conditioned,
    }
    records = [None] * size
    # the runs still stepping, and their diagnostics, in stack order; the
    # per-step checks read floats, which on a small stack beats array calls
    live = np.arange(size)
    members = slice(None)
    clamp_events = np.zeros(size, dtype=int)
    min_eig_floor = np.zeros(size)
    max_drift = [0.0] * size
    n_rows, lam = 0, 0.0
    even = False  # whether the states are read on their parity half
    halves = averaged and getattr(controller, "reads_even", False)

    def end(ends: dict) -> int:
        """Finish the members {stack position: (status, abort_v, reason)},
        each with the rows recorded so far, drop them from the stack, its
        per-member values and the gain, and refresh the read; returns how
        many runs are left."""
        nonlocal rho, frame, read, lam, live, members, clamp_events, min_eig_floor, max_drift
        for k, why in ends.items():
            run = live[k]
            records[run] = TrajectoryRecord(
                meta={**shared, **metas[run]},
                columns={name: table[run, i, :n_rows] for i, name in enumerate(columns)},
                **dict(zip(("status", "abort_v", "abort_reason"), why)),
                clamp_events=int(clamp_events[k]),
                min_eig_floor=float(min_eig_floor[k]),
                max_trace_drift=max_drift[k],
            )
        keep = np.ones(len(live), dtype=bool)
        keep[list(ends)] = False
        rho, live, clamp_events, min_eig_floor = (a[keep] for a in (rho, live, clamp_events, min_eig_floor))
        lam = lam[keep] if isinstance(lam, np.ndarray) else lam
        frame = frame.members(keep)
        max_drift = [m for m, kept in zip(max_drift, keep) if kept]
        members = live
        read = Moments(rho, even)
        return live.size

    for n in range(spec.n_steps + 1):
        v = n * dv
        trace = rho.trace(axis1=1, axis2=2).real.tolist()
        drift = [abs(x - 1.0) for x in trace]
        if not conditioned:
            max_drift = list(map(max, max_drift, drift))
        if not all(d <= TRACE_TOL for d in drift) and not end({  # NaN fails d <= TRACE_TOL too
            k: ("aborted-trace", v, f"trace drift {d:.3e}")
            if math.isfinite(x) else ("aborted-nonfinite", v, "non-finite trace")
            for k, (x, d) in enumerate(zip(trace, drift)) if not d <= TRACE_TOL
        }):
            break
        read = Moments(rho, even)
        t = (v, v + dv) if averaged else v
        try:
            lam, clamped = controller.gain(read, frame, t)
        except GainError as err:
            failed = err.members or dict.fromkeys(range(live.size), str(err))
            if not end({k: ("aborted-gain", v, reason) for k, reason in failed.items()}):
                break
            lam, clamped = controller.gain(read, frame, t)
        if clamped is not False:
            hits = np.broadcast_to(np.asarray(clamped, dtype=bool), live.shape)
            for k in np.flatnonzero(hits & (clamp_events == 0)):
                log.warning("gain clamped to %.3g at v=%.4f", np.broadcast_to(lam, live.shape)[k], v)
            clamp_events += hits
        if n % stride == 0:
            values = metrics(read, frame, v=v, lam=lam, conditioned=conditioned, columns=asked).values
            table[members, :, n_rows] = values[: len(columns)].T
            zeta = values[zeta_at].tolist()
            if not all(map(math.isfinite, zeta)):
                if not end({
                    k: ("aborted-nonfinite", v, "non-finite moments") for k, z in enumerate(zeta) if not math.isfinite(z)
                }):
                    break
                values = values[:, [k for k, z in enumerate(zeta) if math.isfinite(z)]]
            n_rows += 1
            if stop is not None and (ends := stop(v, dict(zip(asked, values)), live)) and not end(ends):
                break
        if n % AUDIT_STRIDE == 0:
            low = np.linalg.eigvalsh(rho)[:, 0]
            for k in np.flatnonzero((low < EIG_FLOOR) & (min_eig_floor >= EIG_FLOOR)):
                # warn once per run; the worst excursion lands in min_eig_floor
                log.warning("state eigenvalue %.3e below floor at v=%.4f", low[k], v)
            np.fmin(min_eig_floor, low, out=min_eig_floor)
        if n == n_steps:
            break
        rho, raw = step(rho, frame, v, lam, members, read)
        even = halves
        if conditioned:
            raw = raw.tolist()
            max_drift = list(map(max, max_drift, [abs(x - 1.0) for x in raw]))
            if not all(TRACE_WINDOW[0] < x < TRACE_WINDOW[1] for x in raw) and not end({
                k: ("aborted-norm", v + dv, f"trace {x:.3e} outside renormalisation window")
                for k, x in enumerate(raw) if not TRACE_WINDOW[0] < x < TRACE_WINDOW[1]
            }):
                break

    end(dict.fromkeys(range(live.size), (STATUS_OK,)))
    return records


def evolve(
    rho0,
    spec: EvolutionSpec,
    controller: FeedbackScheme | None = None,
    stop=None,
    columns=PLAIN_COLUMNS,
) -> TrajectoryRecord | RecordStack:
    """Integrate the deterministic evolution and record the named columns
    of each metrics row, to spec.v_max unless a run aborts or stop, a
    per-row stop as integrate takes it, ends it earlier; see integrate for
    the row, stop, abort and diagnostic contract.

    rho0 is one state, and evolve returns its run's record, or a
    (B, n, n) stack, one state per member of a member-stacked frame or B
    states on a shared one, and evolve returns a RecordStack of their
    records in stack order. A spec that steps a quarter period at a time
    takes the period-averaged two-mode step, as integrate reads the same
    spec; that step keeps per-run state (its scratch and last rate), so it
    takes one state, and steps half its rows, so a parity-even one (see
    the module docstring); it raises ValueError for any other. One state
    is stepped as a 2-D matrix, whose products dispatch faster than a
    stack of one."""
    stacked = rho0.ndim == 3
    # every step keeps a Hermitian state Hermitian to the last bit, so
    # Hermiticity is imposed once, and only on a start that lacks it: a
    # complex copy held through a real run would cost memory for nothing.
    # Row against column, so the check builds no n x n temporary
    if not all(
        np.array_equal(row, col.conj()) for row, col in zip(np.moveaxis(rho0, -2, 0), np.moveaxis(rho0, -1, 0))
    ):
        rho0 = 0.5 * (rho0 + dagger(rho0))
    dv = spec.delta_v
    averaged = _quarter_period_steps(spec)
    if spec.generator != "feedback":
        propagator = countertwist_propagator(countertwist_hamiltonian(spec.frame), dv)

        def advance(rho, frame, v, lam, live):
            # a member-stacked frame has one propagator per member
            return countertwisting_step(rho, propagator if propagator.ndim == 2 else propagator[live])

    elif averaged:
        if stacked:
            raise ValueError("the period-averaged step integrates one state")
        # row by row, so the check builds no n x n temporary
        if any(np.abs(row - twin).max() > _PARITY_TOL for row, twin in zip(rho0, _mirror(rho0))):
            raise ValueError("the period-averaged step needs a start even under the joint x-parity")
        last_rate = None  # the previous averaged rate, for Adams-Bashforth
        scratch = {}
        h = (spec.frame.dim + 1) // 2

        def advance(rho, frame, v, lam, live):
            nonlocal last_rate
            if last_rate is None:
                # one Euler step starts the rule, from the start's exact
                # parity projection, so every later state is exactly even
                rho = rho + _mirror(rho)
                rho *= 0.5
                last_rate = averaged_rate(frame, rho, lam, scratch)
                return unconditioned_step(rho, last_rate.copy(), dv)
            rate = averaged_rate(frame, rho, lam, scratch)
            combined, last_rate = last_rate, rate
            # dv (1.5 rate - 0.5 last) = 1.5 dv (rate - last/3), built on the
            # top rows of the last rate, read here for the last time, which
            # becomes the state once its other rows are filled by the parity
            combined[:h] *= -1.0 / 3.0
            combined[:h] += rate[:h]
            unconditioned_step(rho[:h], combined[:h], 1.5 * dv)
            return _fill_by_parity(combined)

    else:

        def advance(rho, frame, v, lam, live):
            return unconditioned_step(rho, feedback_rate(frame, rho, v, lam), dv)

    def step(rho, frame, v, lam, live, read):
        if stacked:
            return advance(rho, frame, v, lam, live), None
        # one run is a stack of one state
        lam = float(lam[0] if isinstance(lam, np.ndarray) else lam)
        return advance(rho[0], frame, v, lam, live)[None], None

    metas = [{}] * (len(rho0) if stacked else 1)
    records = integrate(rho0, spec, controller, step, compute_metrics, columns, metas, stop=stop)
    return RecordStack(records) if stacked else records[0]
