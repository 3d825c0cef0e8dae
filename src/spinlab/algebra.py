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
triple Z = J_z, Y = J_y, X = J_x. Quadratic combinations that the
integrators need every step (Z^2, Y^2, ZY+YZ, ZXZ) are assembled from
constant products by the frame's trigonometric coefficients, so a step
costs O(dim^2) on top of the generator's own products. Each dense
operator and each constant product is built on first use: a run whose
steps all land on frame nodes never builds the cross terms, and a frame
that is only inspected builds none.

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


def _blend_linear(a: np.ndarray, b: np.ndarray, c: float, s: float) -> np.ndarray:
    if s == 0.0:
        return a if c == 1.0 else c * a
    if c == 0.0:
        return b if s == 1.0 else s * b
    return c * a + s * b


class _LazyTriple:
    """The constant products (aa, bb, ab) of one quadratic blend, each
    built the first time it is indexed. Entry i is the sum, in order, of
    the left-to-right products of the chains in chains[i], each chain a
    tuple of frame attribute names; names rather than closures keep the
    frame picklable for worker processes."""

    __slots__ = ("_frame", "_chains", "_built")

    def __init__(self, frame, *chains):
        self._frame = frame
        self._chains = chains
        self._built = [None, None, None]

    def __getitem__(self, i: int) -> np.ndarray:
        term = self._built[i]
        if term is None:
            for chain in self._chains[i]:
                product = getattr(self._frame, chain[0])
                for name in chain[1:]:
                    product = product @ getattr(self._frame, name)
                term = product if term is None else term + product
            self._built[i] = term
        return term


def _products(*chains):
    """A frame attribute holding the _LazyTriple of chains, made on first read."""
    return cached_property(lambda frame: _LazyTriple(frame, *chains))


def _blend_quadratic(triple, c: float, s: float) -> np.ndarray:
    if s == 0.0:
        return triple[0] if abs(c) == 1.0 else (c * c) * triple[0]
    if c == 0.0:
        return triple[1] if abs(s) == 1.0 else (s * s) * triple[1]
    return (c * c) * triple[0] + (s * s) * triple[1] + (c * s) * triple[2]


class MeasurementFrame:
    """Operator bundle for one measurement configuration.

    Exposes the rotating pair (Z(v), Y(v)), the static X, and the
    quadratic combinations the dynamics and gain laws consume, each built
    on first use. Also owns the normalisations that turn raw moments into the reduced variance
    zeta = <zeta_op>/zeta_norm and polarisation chi = <X>/chi_norm.

    The pair is Z = _zc cos + _zs sin and Y = _yc cos + _ys sin at the
    frame's phase. This class is the static frame of one collective spin:
    Z = jz, Y = jy and X = jx as given, with the phase pinned at (1, 0)
    and no sine components. TwoModeFrame rotates the pair.
    _zeta_weights pairs operator attribute names with their weights in
    zeta_parts.
    """

    mode = "single"
    omega = 0.0
    _zs = _ys = None  # no sine components
    _zeta_weights = (("_zc", 2.0),)

    def __init__(self, jx, jy, jz, twice_j):
        self._zc, self._yc, self.x_op = jz, jy, jx
        self.dim = jx.shape[0]
        self.spin_j = self.zeta_norm = self.chi_norm = twice_j / 2.0

    _zz = _products((("_zc", "_zc"),), (("_zs", "_zs"),), (("_zc", "_zs"), ("_zs", "_zc")))
    _yy = _products((("_yc", "_yc"),), (("_ys", "_ys"),), (("_yc", "_ys"), ("_ys", "_yc")))
    _zy_anti = _products(
        (("_zc", "_yc"), ("_yc", "_zc")),
        (("_zs", "_ys"), ("_ys", "_zs")),
        (("_zc", "_ys"), ("_ys", "_zc"), ("_zs", "_yc"), ("_yc", "_zs")),
    )
    _zxz = _products(
        (("_zc", "x_op", "_zc"),),
        (("_zs", "x_op", "_zs"),),
        (("_zc", "x_op", "_zs"), ("_zs", "x_op", "_zc")),
    )

    @cached_property
    def zeta_parts(self):
        """((op, weight), ...) with zeta = sum w <op^2> / zeta_norm;
        mean-subtracted variants replace <op^2> by <op^2> - <op>^2."""
        return tuple((getattr(self, name), w) for name, w in self._zeta_weights)

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
        return self.x_op @ self.x_op

    @cached_property
    def zeta_op(self) -> np.ndarray:
        return sum(w * (op @ op) for op, w in self.zeta_parts)

    def coefficients(self, v: float):
        return (1.0, 0.0)

    # the static frame's reads skip the phase: each is its constant
    def z_at(self, v: float) -> np.ndarray:
        return self._zc

    def y_at(self, v: float) -> np.ndarray:
        return self._yc

    def z2_at(self, v: float) -> np.ndarray:
        return self._zz[0]

    def y2_at(self, v: float) -> np.ndarray:
        return self._yy[0]

    def zy_anti_at(self, v: float) -> np.ndarray:
        """ZY + YZ at time v."""
        return self._zy_anti[0]

    def zxz_at(self, v: float) -> np.ndarray:
        return self._zxz[0]


class TwoModeFrame(MeasurementFrame):
    """The rotating frame of two identical samples: Z = (J_z^+, J_y^-),
    Y = (J_y^+, -J_z^-) and X = J_x^+, each a Kronecker sum over the
    per-sample spin matrices in sample, built on first read. Also carries
    the per-sample factors: J_y = i jy_factor on each sample with
    jy_factor real (d x d, d = 2j + 1), and the diagonals jzp_diag and
    jzm_diag of J_z^+ and J_z^-, entries m1 +- m2 in the |m1, m2> order."""

    mode = "two"
    _zeta_weights = (("_zc", 1.0), ("_zs", 1.0))

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

    _zc = cached_property(lambda self: np.add(*on_samples(self.sample.jz)))
    _zs = cached_property(lambda self: np.subtract(*on_samples(self.sample.jy)))
    _yc = cached_property(lambda self: np.add(*on_samples(self.sample.jy)))
    _ys = cached_property(lambda self: -np.subtract(*on_samples(self.sample.jz)))
    x_op = cached_property(lambda self: np.add(*on_samples(self.sample.jx)))

    @property
    def yc_op(self) -> np.ndarray:
        return self._zs

    def coefficients(self, v: float):
        return _quarter_phase(self.omega, v)

    def z_at(self, v: float) -> np.ndarray:
        c, s = self.coefficients(v)
        return _blend_linear(self._zc, self._zs, c, s)

    def y_at(self, v: float) -> np.ndarray:
        c, s = self.coefficients(v)
        return _blend_linear(self._yc, self._ys, c, s)

    def z2_at(self, v: float) -> np.ndarray:
        return _blend_quadratic(self._zz, *self.coefficients(v))

    def y2_at(self, v: float) -> np.ndarray:
        return _blend_quadratic(self._yy, *self.coefficients(v))

    def zy_anti_at(self, v: float) -> np.ndarray:
        """ZY + YZ at time v."""
        return _blend_quadratic(self._zy_anti, *self.coefficients(v))

    def zxz_at(self, v: float) -> np.ndarray:
        return _blend_quadratic(self._zxz, *self.coefficients(v))


def single_mode_frame(twice_j: int) -> MeasurementFrame:
    mats = spin_matrices(twice_j)
    return MeasurementFrame(mats.jx, mats.jy, mats.jz, twice_j)


def frame_from_operators(jx, jy, jz, twice_j_total: int) -> MeasurementFrame:
    """Single-mode-style frame over caller-supplied spin components.

    Useful when a combined system should be driven and scored as one
    collective spin, e.g. two spin-1/2 samples treated as total spin 1.
    """
    return MeasurementFrame(jx, jy, jz, twice_j_total)


def two_mode_frame(twice_j: int, omega: float) -> MeasurementFrame:
    """Rotating frame for two identical samples of per-sample spin j.

    zeta compares the sum/difference quadrature variance against the
    polarisation: zeta = <(J_z^+)^2 + (J_y^-)^2> / (2j), chi = <J_x^+> / (2j).
    zeta < chi witnesses entanglement between the samples. No dense
    operator is built until something reads it.
    """
    return TwoModeFrame(twice_j, omega)


def expect_real(op: np.ndarray, rho: np.ndarray):
    """Tr[op rho] for Hermitian op and rho (imag part is rounding noise).

    rho is one n x n state or a (B, n, n) stack. The result is a float for
    one state, a stack of one included, and a (B,) array for a larger
    stack, each member's value bit for bit the one np.vdot gives for that
    state alone.
    """
    if rho.size == op.size:
        return float(np.vdot(rho, op).real)
    return np.vecdot(rho.reshape(len(rho), -1), op.reshape(-1)).real
