"""Feedback gain laws, in measurement-rate units.

All gains are the scaled ratio of feedback strength to measurement rate.
The controller applies a rotation about the frame's Y axis proportional
to the measurement record; the laws below choose the proportionality:

* simple             2<Z^2>/<X>, moments of the evolving state
* simple-conditioned same ratio on the record-conditioned state
* analytic           precomputable schedule exp(v/4)/(1+2jv) for two
                     samples, exp(v/2)/(1+2jv) for one
* optimal            maximizes the descent slope of the reduced variance
                     against the polarisation at every instant
* spin1-analytic     1/sqrt(2 exp(v) - 1), the closed form the simple
                     ratio takes on the exactly-solvable spin-1 flow

The state-dependent laws read one n x n state, a (B, n, n) stack of them,
or the step's Moments, which the metrics row and the step share. They
take the frame's operators from frame.at(t), at the current time or at
each node time of a tuple, so they read the same blends as the metrics
row and the step. On a stack they return one gain per member, each bit
for bit the gain that member alone would get. The schedules return one
float either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import MeasurementFrame, moments_of

LAMBDA_CLAMP_DEFAULT = 1e3

SCHEME_KINDS = ("none", "simple", "simple-conditioned", "analytic", "optimal", "spin1-analytic")


class GainError(RuntimeError):
    """A gain law looked at moments it cannot turn into a finite gain.

    members maps the position of each failed member of a stack to its
    reason; None when the error is not tied to particular members.
    """

    def __init__(self, message: str, members: dict | None = None):
        super().__init__(message)
        self.members = members


def _node_mean(frame: MeasurementFrame, v, moment) -> float:
    """moment(frame.at(v)), or its mean over v when v is a tuple of
    frame-node times."""
    if isinstance(v, tuple):
        return sum(moment(frame.at(t)) for t in v) / len(v)
    return moment(frame.at(v))


def _ratio(num, mx):
    """num / mx, and infinity wherever mx == 0: the simple laws diverge as
    the spin depolarises."""
    if not isinstance(mx, np.ndarray):
        return math.inf if mx == 0.0 else num / mx
    if mx.all():
        return num / mx
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mx == 0.0, math.inf, num / mx)


def moment_block(rho, frame: MeasurementFrame, v):
    """The four moments every state-dependent law consumes:
    d = <X^2 - Z^2>, e = <4 Z X Z + X>, f = <X>/2, g = 2<Z^2>."""
    read = moments_of(rho)
    mx = read(frame.x_op)
    mz2 = _node_mean(frame, v, lambda at: read(at.z2))
    d = read(frame.x2_op) - mz2
    e = 4.0 * _node_mean(frame, v, lambda at: read(at.zxz)) + mx
    return d, e, 0.5 * mx, 2.0 * mz2


def lambda_simple(rho, frame: MeasurementFrame, v) -> float:
    """Measured second moment over polarisation; diverges as the spin
    depolarises."""
    read = moments_of(rho)
    return _ratio(2.0 * _node_mean(frame, v, lambda at: read(at.z2)), read(frame.x_op))


def _conditional_variance(read, at) -> float:
    """<Z^2> - <Z>^2 from the operators at one time."""
    mz = read(at.z)
    return read(at.z2) - mz * mz


def lambda_simple_conditioned(rho, frame: MeasurementFrame, v) -> float:
    """Conditional-variance form: on a conditioned state the regulated
    mean carries no squeezing information, so it is subtracted."""
    read = moments_of(rho)
    variance = _node_mean(frame, v, lambda at: _conditional_variance(read, at))
    return _ratio(2.0 * variance, read(frame.x_op))


def lambda_analytic(v: float, spin_j: float, mode: str) -> float:
    quarter = 0.25 if mode == "two" else 0.5
    return math.exp(quarter * v) / (1.0 + 2.0 * spin_j * v)


def lambda_spin1(v: float) -> float:
    return 1.0 / math.sqrt(2.0 * math.exp(v) - 1.0)


def lambda_optimal(rho, frame: MeasurementFrame, v) -> float:
    """Stationary point of the descent slope over the gain.

    Written with the discriminant in the numerator's conjugate so the
    expression stays finite when f e - d g crosses zero (there it reduces
    to e/(2d)). On a stack, GainError names every member that has no gain.
    """
    d, e, f, g = moment_block(rho, frame, v)
    # float_power is C pow, as Python's float ** is; a square can round
    # differently from it in the last bit
    disc = np.float_power(f * d, 2.0) + e * f * (f * e - d * g)
    no_root = disc < 0.0
    denom = f * d + np.sqrt(np.maximum(disc, 0.0))
    degenerate = (denom == 0.0) & ~no_root
    if np.any(no_root | degenerate):
        members = _reasons(no_root, "no real stationary gain: d={:.6g} e={:.6g} f={:.6g} g={:.6g} disc={:.6g}",
                           d, e, f, g, disc)
        members.update(_reasons(degenerate, "degenerate gain denominator: d={:.6g} e={:.6g} f={:.6g} g={:.6g}",
                                d, e, f, g))
        members = dict(sorted(members.items()))
        raise GainError(next(iter(members.values())), members)
    lam = e * f / denom
    return lam if isinstance(lam, np.ndarray) else float(lam)


def _reasons(failed, message: str, *values) -> dict:
    """{member: message formatted with that member's values} for each
    member where failed holds; one state counts as member 0."""
    columns = [np.atleast_1d(x) for x in values]
    return {int(k): message.format(*(c[k] for c in columns)) for k in np.flatnonzero(failed)}


@dataclass(frozen=True)
class FeedbackScheme:
    """A named gain law plus the safety clamp applied to its output."""

    kind: str
    clamp: float = LAMBDA_CLAMP_DEFAULT

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown feedback scheme {self.kind!r}; expected one of {SCHEME_KINDS}")
        if not 0 < self.clamp < math.inf:
            raise ValueError(f"clamp must be finite and positive, got {self.clamp!r}")

    @property
    def reads_even(self) -> bool:
        """Whether every operator the law reads is even under the two-mode
        joint x-parity (X, X^2 and the node Z^2 and ZXZ, or none), so a
        parity-even state may be read on its half; simple-conditioned also
        reads the node Z, which is odd."""
        return self.kind != "simple-conditioned"

    def gain(self, rho, frame: MeasurementFrame, v):
        """(gain, clamped) for the current state and time; rho is one
        state, a (B, n, n) stack, or the Moments of either.

        v may also be a tuple of frame-node times, the current time
        first: the state-dependent laws then read the mean of their
        moments over those nodes, as the period-averaged generator needs.

        On a stack the state-dependent laws give one gain per member.
        clamped is then False when no member was clamped, and otherwise
        a bool array over the members, True where the gain was clamped.
        """
        if self.kind == "none":
            return 0.0, False
        now = v[0] if isinstance(v, tuple) else v
        if self.kind == "simple":
            lam = lambda_simple(rho, frame, v)
        elif self.kind == "simple-conditioned":
            lam = lambda_simple_conditioned(rho, frame, v)
        elif self.kind == "analytic":
            lam = lambda_analytic(now, frame.spin_j, frame.mode)
        elif self.kind == "optimal":
            lam = lambda_optimal(rho, frame, v)
        else:
            lam = lambda_spin1(now)
        if not isinstance(lam, np.ndarray):
            if not math.isfinite(lam) or abs(lam) > self.clamp:
                return math.copysign(self.clamp, lam), True
            return lam, False
        if all(abs(x) <= self.clamp for x in lam.tolist()):  # NaN fails this too
            return lam, False
        flags = ~(np.abs(lam) <= self.clamp)
        return np.where(flags, np.copysign(self.clamp, lam), lam), flags
