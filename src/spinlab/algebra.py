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

Every two-sample operator is a Kronecker sum of one per-sample factor,
so the two-mode frame also carries those factors (J_y = iK with K real,
and the diagonals of J_z^+ and J_z^-). An integrator that applies them
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


class _KronOp:
    """One dense two-sample operator of TwoModeOps, built on first read and
    then cached on the instance: the component on sample 1 (kind "1"), on
    sample 2 ("2"), their sum ("p") or their difference ("m")."""

    def __init__(self, component: str, kind: str):
        self.component, self.kind = component, kind

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, ops, owner=None):
        if ops is None:
            return self
        op = getattr(spin_matrices(ops.twice_j), self.component)
        eye = np.eye(ops.twice_j + 1)
        if self.kind == "1":
            value = np.kron(op, eye)
        elif self.kind == "2":
            value = np.kron(eye, op)
        elif self.kind == "p":
            value = np.kron(op, eye) + np.kron(eye, op)
        else:
            value = np.kron(op, eye) - np.kron(eye, op)
        ops.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class TwoModeOps:
    """Single-sample, sum and difference operators for two identical spins.

    Each dense n x n operator is built on first read. The per-sample
    factors are small and exact: J_y = i jy_factor on each sample with
    jy_factor real (d x d, d = 2j + 1), and J_z^(+-) are diagonal with
    entries m1 +- m2 in the |m1, m2> order.
    """

    twice_j: int  # per sample

    jx1, jx2, jxp, jxm = (_KronOp("jx", kind) for kind in "12pm")
    jy1, jy2, jyp, jym = (_KronOp("jy", kind) for kind in "12pm")
    jz1, jz2, jzp, jzm = (_KronOp("jz", kind) for kind in "12pm")

    @property
    def dim(self) -> int:
        return (self.twice_j + 1) ** 2

    @cached_property
    def jy_factor(self) -> np.ndarray:
        return np.ascontiguousarray(spin_matrices(self.twice_j).jy.imag)

    @cached_property
    def jzp_diag(self) -> np.ndarray:
        m = spin_matrices(self.twice_j).jz.diagonal().real
        return np.add.outer(m, m).ravel()

    @cached_property
    def jzm_diag(self) -> np.ndarray:
        m = spin_matrices(self.twice_j).jz.diagonal().real
        return np.subtract.outer(m, m).ravel()


def two_mode_ops(twice_j: int) -> TwoModeOps:
    return TwoModeOps(twice_j=int(twice_j))


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

    A static frame is given its operators (zc, zs, yc, ys, x), with
    Z = zc cos + zs sin, Y = yc cos + ys sin and X = x. A two-mode frame
    is given its TwoModeOps instead and reads Z = (J_z^+, J_y^-),
    Y = (J_y^+, -J_z^-) and X = J_x^+ from them on first use; it also
    exposes their per-sample factors jy_factor, jzp_diag and jzm_diag
    (None on static frames). zeta_weights pairs operator attribute names
    with their weights in zeta_parts.
    """

    def __init__(self, mode, omega, spin_j, zeta_weights, norms, operators=None, two_mode=None):
        if mode not in ("single", "two"):
            raise ValueError(f"unknown frame mode {mode!r}")
        self.mode = mode
        self.omega = float(omega) if mode == "two" else 0.0
        self.spin_j = float(spin_j)  # per-sample j for two samples, the spin itself otherwise
        self.two_mode = two_mode
        self.jy_factor = self.jzp_diag = self.jzm_diag = None
        if two_mode is not None:
            self.dim = two_mode.dim
            self.jy_factor = two_mode.jy_factor
            self.jzp_diag = two_mode.jzp_diag
            self.jzm_diag = two_mode.jzm_diag
        else:
            self._zc, self._zs, self._yc, self._ys, self.x_op = operators
            self.dim = self.x_op.shape[0]
        self._zeta_weights = zeta_weights
        self.zeta_norm, self.chi_norm = norms

        self._zz = _LazyTriple(self, (("_zc", "_zc"),), (("_zs", "_zs"),), (("_zc", "_zs"), ("_zs", "_zc")))
        self._yy = _LazyTriple(self, (("_yc", "_yc"),), (("_ys", "_ys"),), (("_yc", "_ys"), ("_ys", "_yc")))
        self._zy_anti = _LazyTriple(
            self,
            (("_zc", "_yc"), ("_yc", "_zc")),
            (("_zs", "_ys"), ("_ys", "_zs")),
            (("_zc", "_ys"), ("_ys", "_zc"), ("_zs", "_yc"), ("_yc", "_zs")),
        )
        self._zxz = _LazyTriple(
            self,
            (("_zc", "x_op", "_zc"),),
            (("_zs", "x_op", "_zs"),),
            (("_zc", "x_op", "_zs"), ("_zs", "x_op", "_zc")),
        )

    # a two-mode frame's operators; a static frame sets these in __init__
    _zc = cached_property(lambda self: self.two_mode.jzp)
    _zs = cached_property(lambda self: self.two_mode.jym)
    _yc = cached_property(lambda self: self.two_mode.jyp)
    _ys = cached_property(lambda self: -self.two_mode.jzm)
    x_op = cached_property(lambda self: self.two_mode.jxp)

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
        return self._zs if self.mode == "two" else self._yc

    @cached_property
    def x2_op(self) -> np.ndarray:
        return self.x_op @ self.x_op

    @cached_property
    def zeta_op(self) -> np.ndarray:
        return sum(w * (op @ op) for op, w in self.zeta_parts)

    def coefficients(self, v: float):
        if self.mode == "single":
            return (1.0, 0.0)
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
    return frame_from_operators(mats.jx, mats.jy, mats.jz, twice_j)


def frame_from_operators(jx, jy, jz, twice_j_total: int) -> MeasurementFrame:
    """Single-mode-style frame over caller-supplied spin components.

    Useful when a combined system should be driven and scored as one
    collective spin, e.g. two spin-1/2 samples treated as total spin 1.
    """
    j = twice_j_total / 2.0
    zero = np.zeros_like(jz)
    return MeasurementFrame(
        mode="single",
        omega=0.0,
        spin_j=j,
        zeta_weights=(("_zc", 2.0),),
        norms=(j, j),
        operators=(jz, zero, jy, zero, jx),
    )


def two_mode_frame(twice_j: int, omega: float) -> MeasurementFrame:
    """Rotating frame for two identical samples of per-sample spin j.

    zeta compares the sum/difference quadrature variance against the
    polarisation: zeta = <(J_z^+)^2 + (J_y^-)^2> / (2j), chi = <J_x^+> / (2j).
    zeta < chi witnesses entanglement between the samples. No dense
    operator is built until something reads it.
    """
    ops = two_mode_ops(twice_j)
    return MeasurementFrame(
        mode="two",
        omega=omega,
        spin_j=twice_j / 2.0,
        zeta_weights=(("_zc", 1.0), ("_zs", 1.0)),
        norms=(float(twice_j), float(twice_j)),
        two_mode=ops,
    )


def expect_real(op: np.ndarray, rho: np.ndarray) -> float:
    """Tr[op rho] for Hermitian op and rho (imag part is rounding noise)."""
    return float(np.vdot(rho, op).real)
