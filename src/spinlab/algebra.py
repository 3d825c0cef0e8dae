"""Collective spin operators and the rotating measurement frame.

Spin magnitudes are carried as ``twice_j`` (an integer) so half-integer
spins stay exact. All matrices live in the J_z eigenbasis with m running
*descending* from +j, and two-sample operators are Kronecker products
with sample 1 as the left factor.

The measured quadrature precesses: in the two-mode configuration the
probe couples to

    Z(v) = J_z^(+) cos(w v) + J_y^(-) sin(w v)
    Y(v) = J_y^(+) cos(w v) - J_z^(-) sin(w v)

with the static mean-spin component X = J_x^(+) satisfying
[Z(v), Y(v)] = -iX at every v. The single-mode frame is the static
triple Z = J_z, Y = J_y, X = J_x. Each quadratic combination that the
integrators need every step (Z^2, Y^2, ZY+YZ, ZXZ) is a blend
c^2 P_c + s^2 P_s + cs P_cs of three constant products: the cosine
pair's, the sine pair's and their cross term. So a step costs O(dim^2)
on top of the generator's own products. Each dense operator and each
product is a named frame attribute built on first use. On a frame node
a read returns P_c or P_s as built, so a run whose steps all land on
nodes never builds a cross term, and a frame that is only inspected
builds none. zeta_op sums the same Z^2 products.

What is real in the J_z eigenbasis is stored as float64: J_x, J_z and
J_z^-, every node's Z^2, Y^2 and ZXZ, X^2, zeta_op, and the static frame's
K = -iY and S = -i(ZY + YZ). J_y, the ZY + YZ products and the cross
terms are imaginary and stay complex.

Every two-sample operator is a Kronecker sum over one sample's spin
matrices, J^(+-) = J (x) 1 +- 1 (x) J, and those per-sample matrices are
all a two-mode frame holds: it builds each dense operator from them on
first read. It also carries the per-sample factors (J_y = iK with K real,
and the diagonals of J_z^+ and J_z^-); an integrator that applies them
sample by sample pays O(dim^2 (2j+1)) per product instead of dim^3 and
never builds the dense operators it does not read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# quarter-period table used when a phase lands on an exact frame node
_NODE_COEFFS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
_NODE_SNAP = 1e-6


@dataclass(frozen=True)
class SpinQuantum:
    """Spin magnitude stored as twice the quantum number."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, (int, np.integer)) or self.twice_j < 1:
            raise ValueError(f"twice_j must be a positive integer, got {self.twice_j!r}")

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1


@dataclass(frozen=True)
class SpinMatrices:
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


def spin_matrices(twice_j: int) -> SpinMatrices:
    """Angular momentum matrices for a single spin of magnitude j = twice_j/2.

    Basis order is m = j, j-1, ..., -j. Satisfies [jx, jy] = i jz and
    jx^2 + jy^2 + jz^2 = j(j+1) I to rounding error.
    """
    spin = SpinQuantum(int(twice_j))
    j = spin.j
    m = j - np.arange(spin.dim)
    jz = np.diag(m).astype(complex)
    # raising operator: couples |j,m> to |j,m+1>, one index up in a descending basis
    amp = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((spin.dim, spin.dim), dtype=complex)
    jp[np.arange(spin.dim - 1), np.arange(1, spin.dim)] = amp
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return SpinMatrices(jx=jx, jy=jy, jz=jz)


def coherent_spin_state(twice_j: int) -> np.ndarray:
    """Coherent spin state along +x: the maximal eigenvector of jx.

    Components are fixed real and positive, which also pins the overall
    phase so identical calls are bit-reproducible. Transverse moments
    are <jz> = <jy> = 0 and <jz^2> = <jy^2> = j/2.
    """
    mats = spin_matrices(twice_j)
    _, vecs = np.linalg.eigh(mats.jx)
    vec = vecs[:, -1]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.abs(vec[pivot]) / vec[pivot])
    vec = vec.real.astype(complex)  # jx is real symmetric; drop rounding dust
    return vec / np.linalg.norm(vec)


def _real(op: np.ndarray) -> np.ndarray:
    """A real-valued operator as a C-contiguous float64 array."""
    if np.iscomplexobj(op) and op.imag.any():
        raise ValueError("expected a real-valued operator")
    return np.ascontiguousarray(op.real)


def on_samples(op: np.ndarray):
    """(op (x) 1, 1 (x) op): a per-sample operator acting on sample 1 and
    on sample 2 of a two-sample system."""
    eye = np.eye(op.shape[0])
    return np.kron(op, eye), np.kron(eye, op)


def two_mode_coherent_state(twice_j: int) -> np.ndarray:
    """Product of +x coherent states, one per sample."""
    css = coherent_spin_state(twice_j)
    return np.kron(css, css)


def _quarter_phase(omega: float, v: float):
    """(cos, sin) of omega*v, snapped exactly when the phase sits on a
    quarter-period node. The default omega places every integration step
    on such a node, where the cycling of the measured axis is an exact
    identity rather than a rounding accident."""
    theta = omega * v
    q = theta / (np.pi / 2.0)
    k = round(q)
    if abs(q - k) < _NODE_SNAP:
        return _NODE_COEFFS[int(k) % 4]
    return (float(np.cos(theta)), float(np.sin(theta)))


class MeasurementFrame:
    """Operator bundle for one measurement configuration.

    Exposes the rotating pair (Z(v), Y(v)), the static X, and the
    quadratic combinations the dynamics and gain laws consume, each built
    on first use. Also owns the normalisations that turn raw moments into
    the reduced variance zeta = <zeta_op>/zeta_norm and polarisation
    chi = <X>/chi_norm.

    The pair is Z = _zc cos + _zs sin and Y = _yc cos + _ys sin at the
    frame's phase. This class is the static frame of one collective spin:
    Z = jz, Y = jy and X = jx as given, with the phase pinned at (1, 0)
    and no sine components, so each quadratic is one product of the
    cosine pair. TwoModeFrame rotates the pair.
    """

    mode = "single"
    omega = 0.0
    # zeta = sum_i w_i <q_i^2> / zeta_norm over the slow pair q = (zc_op,
    # yc_op); conditioned scores subtract w_i <q_i>^2
    zeta_weights = (2.0,)

    def __init__(self, jx, jy, jz, twice_j):
        self._zc, self._yc, self.x_op = _real(jz), jy, _real(jx)
        self.dim = jx.shape[0]
        self.spin_j = self.zeta_norm = self.chi_norm = twice_j / 2.0

    # the cosine pair's products: Z^2, Y^2, ZY + YZ and ZXZ at phase (1, 0)
    _z2_c = cached_property(lambda self: self._zc @ self._zc)
    _y2_c = cached_property(lambda self: _real(self._yc @ self._yc))
    _zy_c = cached_property(lambda self: self._zc @ self._yc + self._yc @ self._zc)
    _zxz_c = cached_property(lambda self: self._zc @ self.x_op @ self._zc)
    # -iY and -i(ZY + YZ), real because Y is imaginary and Z real
    _k = cached_property(lambda self: _real(-1j * self._yc))
    _s = cached_property(lambda self: _real(-1j * self._zy_c))

    @property
    def zc_op(self) -> np.ndarray:
        """First of the slow quadrature pair whose conditional means get
        recorded: the two components of the rotating Z for two samples,
        (J_z, J_y) otherwise."""
        return self._zc

    @property
    def yc_op(self) -> np.ndarray:
        """Second of the slow quadrature pair; see zc_op."""
        return self._yc

    @cached_property
    def x2_op(self) -> np.ndarray:
        # the complex product: the real one sums some entries of (J_x^+)^2 in
        # another order, and the complex runs' bytes depend on them
        return _real(self.x_op @ self.x_op.astype(complex))

    @cached_property
    def zeta_op(self) -> np.ndarray:
        return sum(w * square for w, square in zip(self.zeta_weights, (self._z2_c,)))

    def coefficients(self, v: float):
        return (1.0, 0.0)

    # the static frame's reads skip the phase: each is its constant
    def z_at(self, v: float) -> np.ndarray:
        return self._zc

    def y_at(self, v: float) -> np.ndarray:
        return self._yc

    def z2_at(self, v: float) -> np.ndarray:
        return self._z2_c

    def y2_at(self, v: float) -> np.ndarray:
        return self._y2_c

    def zy_anti_at(self, v: float) -> np.ndarray:
        """ZY + YZ at time v."""
        return self._zy_c

    def zxz_at(self, v: float) -> np.ndarray:
        return self._zxz_c

    def k_at(self, v: float) -> np.ndarray:
        """-iY at time v."""
        return self._k

    def s_at(self, v: float) -> np.ndarray:
        """-i(ZY + YZ) at time v."""
        return self._s


class TwoModeFrame(MeasurementFrame):
    """The rotating frame of two identical samples: Z = (J_z^+, J_y^-),
    Y = (J_y^+, -J_z^-) and X = J_x^+, each a Kronecker sum over the
    per-sample spin matrices in sample, built on first read. Also carries
    the per-sample factors: J_y = i jy_factor on each sample with
    jy_factor real (d x d, d = 2j + 1), and the diagonals jzp_diag and
    jzm_diag of J_z^+ and J_z^-, entries m1 +- m2 in the |m1, m2> order.

    A quadratic read on a frame node (cos or sin zero) returns the cosine
    or the sine pair's product as built; off the nodes it blends both with
    the cross term, c^2 cos + s^2 sin + c s cross."""

    mode = "two"
    zeta_weights = (1.0, 1.0)

    def __init__(self, twice_j, omega):
        self.sample = spin_matrices(twice_j)
        self.omega = float(omega)
        self.spin_j = twice_j / 2.0  # per sample
        self.zeta_norm = self.chi_norm = float(twice_j)
        self.jy_factor = np.ascontiguousarray(self.sample.jy.imag)
        m = self.sample.jz.diagonal().real
        self.dim = m.size**2
        self.jzp_diag = np.add.outer(m, m).ravel()
        self.jzm_diag = np.subtract.outer(m, m).ravel()

    _zc = cached_property(lambda self: np.add(*on_samples(self.sample.jz.real)))
    _zs = cached_property(lambda self: np.subtract(*on_samples(self.sample.jy)))
    _yc = cached_property(lambda self: np.add(*on_samples(self.sample.jy)))
    _ys = cached_property(lambda self: -np.subtract(*on_samples(self.sample.jz.real)))
    x_op = cached_property(lambda self: np.add(*on_samples(self.sample.jx.real)))

    # the sine pair's products, then the cross terms only off-node reads need
    _z2_s = cached_property(lambda self: _real(self._zs @ self._zs))
    _y2_s = cached_property(lambda self: self._ys @ self._ys)
    _zy_s = cached_property(lambda self: self._zs @ self._ys + self._ys @ self._zs)
    _zxz_s = cached_property(lambda self: _real(self._zs @ self.x_op @ self._zs))
    _z2_cs = cached_property(lambda self: self._zc @ self._zs + self._zs @ self._zc)
    _y2_cs = cached_property(lambda self: self._yc @ self._ys + self._ys @ self._yc)
    _zy_cs = cached_property(
        lambda self: self._zc @ self._ys + self._ys @ self._zc + self._zs @ self._yc + self._yc @ self._zs
    )
    _zxz_cs = cached_property(lambda self: self._zc @ self.x_op @ self._zs + self._zs @ self.x_op @ self._zc)

    @property
    def yc_op(self) -> np.ndarray:
        return self._zs

    @cached_property
    def zeta_op(self) -> np.ndarray:
        return sum(w * square for w, square in zip(self.zeta_weights, (self._z2_c, self._z2_s)))

    def coefficients(self, v: float):
        return _quarter_phase(self.omega, v)

    def z_at(self, v: float) -> np.ndarray:
        c, s = self.coefficients(v)
        if s == 0.0:
            return self._zc if c == 1.0 else c * self._zc
        if c == 0.0:
            return self._zs if s == 1.0 else s * self._zs
        return c * self._zc + s * self._zs

    def y_at(self, v: float) -> np.ndarray:
        c, s = self.coefficients(v)
        if s == 0.0:
            return self._yc if c == 1.0 else c * self._yc
        if c == 0.0:
            return self._ys if s == 1.0 else s * self._ys
        return c * self._yc + s * self._ys

    def z2_at(self, v: float) -> np.ndarray:
        c, s = self.coefficients(v)
        if s == 0.0:
            return self._z2_c
        if c == 0.0:
            return self._z2_s
        return (c * c) * self._z2_c + (s * s) * self._z2_s + (c * s) * self._z2_cs

    def y2_at(self, v: float) -> np.ndarray:
        c, s = self.coefficients(v)
        if s == 0.0:
            return self._y2_c
        if c == 0.0:
            return self._y2_s
        return (c * c) * self._y2_c + (s * s) * self._y2_s + (c * s) * self._y2_cs

    def zy_anti_at(self, v: float) -> np.ndarray:
        """ZY + YZ at time v."""
        c, s = self.coefficients(v)
        if s == 0.0:
            return self._zy_c
        if c == 0.0:
            return self._zy_s
        return (c * c) * self._zy_c + (s * s) * self._zy_s + (c * s) * self._zy_cs

    def zxz_at(self, v: float) -> np.ndarray:
        c, s = self.coefficients(v)
        if s == 0.0:
            return self._zxz_c
        if c == 0.0:
            return self._zxz_s
        return (c * c) * self._zxz_c + (s * s) * self._zxz_s + (c * s) * self._zxz_cs

    def k_at(self, v: float) -> np.ndarray:
        return -1j * self.y_at(v)

    def s_at(self, v: float) -> np.ndarray:
        return -1j * self.zy_anti_at(v)


def single_mode_frame(twice_j: int) -> MeasurementFrame:
    mats = spin_matrices(twice_j)
    return MeasurementFrame(mats.jx, mats.jy, mats.jz, twice_j)


def two_mode_frame(twice_j: int, omega: float) -> MeasurementFrame:
    """Rotating frame for two identical samples of per-sample spin j.

    zeta compares the sum/difference quadrature variance against the
    polarisation: zeta = <(J_z^+)^2 + (J_y^-)^2> / (2j), chi = <J_x^+> / (2j).
    zeta < chi witnesses entanglement between the samples. No dense
    operator is built until something reads it.
    """
    return TwoModeFrame(twice_j, omega)


def expect_real(op: np.ndarray, rho):
    """Tr[op rho] for Hermitian op and rho (imag part is rounding noise);
    a real dot when both are float64.

    rho is one n x n state or a (B, n, n) stack. The result is a float for
    one state, a stack of one included, and a (B,) array for a larger
    stack, each member's value bit for bit the one np.vdot gives for that
    state alone. rho may also be the Moments of a state or stack, whose
    read of op is returned.
    """
    if isinstance(rho, Moments):
        return rho(op)
    if rho.size == op.size:
        return float(np.vdot(rho, op).real)
    return np.vecdot(rho.reshape(len(rho), -1), op.reshape(-1)).real


class Moments:
    """The moment read of a state or (B, n, n) stack rho: read(op) is
    expect_real(op, rho), computed once per operator. Operators are told
    apart by identity and held while the read lives, so no temporary can
    hand its id on; a blend built twice is read twice, to the same bits."""

    __slots__ = ("rho", "_seen")

    def __init__(self, rho):
        self.rho = rho
        self._seen = []  # (operator, value) in order of first read

    def __call__(self, op):
        for known, value in self._seen:
            if known is op:
                return value
        value = expect_real(op, self.rho)
        self._seen.append((op, value))
        return value


def moments_of(rho) -> Moments:
    """rho if it is a moment read, else a fresh read of the state or stack rho."""
    return rho if isinstance(rho, Moments) else Moments(rho)
