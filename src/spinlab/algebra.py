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
triple Z = J_z, Y = J_y, X = J_x. A frame is read at a time through one
call, frame.at(v), which returns the operators at v as one lazy bundle:
Z, Y and K = -iY, each c P_c + s P_s, and the quadratics the integrators
need every step (Z^2, Y^2, ZY + YZ, ZXZ, S = -i(ZY + YZ)), each a blend
c^2 P_c + s^2 P_s + cs P_cs of three constant products: the cosine
pair's, the sine pair's and their cross term. So a step costs O(dim^2)
on top of the generator's own products. Each dense operator and each
product is a named frame attribute built on first use. On a frame node
a read returns P_c or P_s as built, so a run whose steps all land on
nodes never builds a cross term, and a frame that is only inspected
builds none. The frame holds the last bundle and hands it out again at
the same phase, so the readers of one step share each blend; the static
frame's phase never moves, so one bundle serves its whole run. zeta_op
sums the same Z^2 products.

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

A static frame may also carry a leading member axis: several spins, each
member's J_x, J_y and J_z zero-padded to the largest spin's dimension in
one (B, n, n) stack, with spin_j, zeta_norm and chi_norm one per member.
Zero blocks stay exactly zero under every product, so each member's
operators act on its own spin's corner of a padded state and every read
of the frame is one value per member. members(keep) narrows the stack
to the members kept, as a step loop does when runs end.
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


def dagger(a: np.ndarray) -> np.ndarray:
    """The adjoint of a matrix, or of each matrix of a stack: a view of a
    real array, a copy of a complex one."""
    return a.conj().swapaxes(-1, -2)


def on_samples(op: np.ndarray):
    """(op (x) 1, 1 (x) op): a per-sample operator acting on sample 1 and
    on sample 2 of a two-sample system."""
    eye = np.eye(op.shape[0])
    return np.kron(op, eye), np.kron(eye, op)


def two_mode_coherent_state(twice_j: int) -> np.ndarray:
    """Product of +x coherent states, one per sample."""
    css = coherent_spin_state(twice_j)
    return np.kron(css, css)


class FrameAt:
    """The frame's operators at one phase (c, s) = (cos w v, sin w v):
    the linear z, y and k = -iY, the quadratic z2, y2, zy = ZY + YZ,
    zxz = ZXZ and s = -i(ZY + YZ), and sx = S + X. Each is built on first
    read, sx as s + X and the others by one blend rule over the frame's
    component products, named _<op>_c, _<op>_s and _<op>_cs (_zc, _zs,
    _yc, _ys for Z and Y): a linear operator is c P_c + s P_s, a quadratic
    one c^2 P_c + s^2 P_s + c s P_cs, summed in that order over the nonzero
    weights. A lone weight of 1 returns the stored product as built, so a
    read on a frame node builds no cross term and hands every reader the
    same array."""

    def __init__(self, frame, phase):
        self.frame, self.phase = frame, phase

    def _blend(self, *names):
        c, s = self.phase
        weights = (c, s) if len(names) == 2 else (c * c, s * s, c * s)
        (w, name), *rest = [(w, name) for w, name in zip(weights, names) if w != 0.0]
        if w == 1.0 and not rest:
            return getattr(self.frame, name)
        out = w * getattr(self.frame, name)
        for w, name in rest:
            out = out + w * getattr(self.frame, name)
        return out

    z = cached_property(lambda self: self._blend("_zc", "_zs"))
    y = cached_property(lambda self: self._blend("_yc", "_ys"))
    k = cached_property(lambda self: self._blend("_k_c", "_k_s"))
    z2 = cached_property(lambda self: self._blend("_z2_c", "_z2_s", "_z2_cs"))
    y2 = cached_property(lambda self: self._blend("_y2_c", "_y2_s", "_y2_cs"))
    zy = cached_property(lambda self: self._blend("_zy_c", "_zy_s", "_zy_cs"))
    zxz = cached_property(lambda self: self._blend("_zxz_c", "_zxz_s", "_zxz_cs"))
    s = cached_property(lambda self: self._blend("_s_c", "_s_s", "_s_cs"))
    # S + X, the gain's term of the feedback rate
    sx = cached_property(lambda self: self.s + self.frame.x_op)


class MeasurementFrame:
    """Operator bundle for one measurement configuration.

    at(v) hands out the rotating pair (Z(v), Y(v)) and the quadratic
    combinations the dynamics and gain laws consume as one FrameAt,
    blended from the component products at the phase phase(v). The frame
    holds the last bundle it handed out and returns it again for any read
    at the same phase, so the readers of one step share each blend, and
    its Moments read; a read at another phase replaces it. The static X
    and the normalisations that turn raw moments into the reduced variance
    zeta = <zeta_op>/zeta_norm and polarisation chi = <X>/chi_norm are
    plain attributes.

    This class is the static frame of one collective spin: Z = jz, Y = jy
    and X = jx as given. Its phase is (1, 0) at every v, so each operator
    is the cosine pair's product and one bundle serves the whole run.
    TwoModeFrame rotates the pair. Given (B, n, n) stacks and one 2j per
    member, it is the member-stacked frame of B spins.
    """

    mode = "single"
    omega = 0.0
    # zeta = sum_i w_i <q_i^2> / zeta_norm over the slow pair q = (zc_op,
    # yc_op); conditioned scores subtract w_i <q_i>^2
    zeta_weights = (2.0,)
    _held = None

    def __init__(self, jx, jy, jz, twice_j):
        self._zc, self._yc, self.x_op = _real(jz), jy, _real(jx)
        self.dim = jx.shape[-1]
        self.spin_j = self.zeta_norm = self.chi_norm = twice_j / 2.0

    # the cosine pair's products: Z^2, Y^2, ZY + YZ and ZXZ at phase (1, 0)
    _z2_c = cached_property(lambda self: self._zc @ self._zc)
    _y2_c = cached_property(lambda self: _real(self._yc @ self._yc))
    _zy_c = cached_property(lambda self: self._zc @ self._yc + self._yc @ self._zc)
    _zxz_c = cached_property(lambda self: self._zc @ self.x_op @ self._zc)
    # -iY and -i(ZY + YZ), real because Y is imaginary and Z real
    _k_c = cached_property(lambda self: _real(-1j * self._yc))
    _s_c = cached_property(lambda self: _real(-1j * self._zy_c))

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

    def phase(self, v: float):
        """(cos, sin) of the frame's rotation at time v: (1, 0) here."""
        return _NODE_COEFFS[0]

    def at(self, v: float) -> FrameAt:
        """The operators at time v: the held bundle if its phase is v's."""
        phase = self.phase(v)
        if self._held is None or self._held.phase != phase:
            self._held = FrameAt(self, phase)
        return self._held

    def members(self, keep):
        """The frame of the members keep selects (an index or mask over the
        member axis), with every operator and product built so far; this
        frame itself when it has no member axis."""
        if not isinstance(self.spin_j, np.ndarray):
            return self
        out = object.__new__(type(self))
        for name, value in vars(self).items():
            if name != "_held":
                setattr(out, name, value[keep] if isinstance(value, np.ndarray) else value)
        return out


class TwoModeFrame(MeasurementFrame):
    """The rotating frame of two identical samples: Z = (J_z^+, J_y^-),
    Y = (J_y^+, -J_z^-) and X = J_x^+, each a Kronecker sum over the
    per-sample spin matrices in sample, built on first read. Also carries
    the per-sample factors: J_y = i jy_factor on each sample with
    jy_factor real (d x d, d = 2j + 1), and the diagonals jzp_diag and
    jzm_diag of J_z^+ and J_z^-, entries m1 +- m2 in the |m1, m2> order.

    On top of the cosine pair's products it holds the sine pair's and the
    cross terms that off-node blends need, each built on first read."""

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
    # -iY and -i(ZY + YZ) component by component, complex as Y's are
    _k_c = cached_property(lambda self: -1j * self._yc)
    _k_s = cached_property(lambda self: -1j * self._ys)
    _s_c = cached_property(lambda self: -1j * self._zy_c)
    _s_s = cached_property(lambda self: -1j * self._zy_s)
    _s_cs = cached_property(lambda self: -1j * self._zy_cs)

    @property
    def yc_op(self) -> np.ndarray:
        return self._zs

    @cached_property
    def zeta_op(self) -> np.ndarray:
        return sum(w * square for w, square in zip(self.zeta_weights, (self._z2_c, self._z2_s)))

    def phase(self, v: float):
        """(cos, sin) of omega v, snapped exactly when the phase sits on a
        quarter-period node. The default omega places every integration
        step on such a node, where the cycling of the measured axis is an
        exact identity rather than a rounding accident."""
        theta = self.omega * v
        q = theta / (np.pi / 2.0)
        k = round(q)
        if abs(q - k) < _NODE_SNAP:
            return _NODE_COEFFS[int(k) % 4]
        return (float(np.cos(theta)), float(np.sin(theta)))


def stack_members(mats) -> np.ndarray:
    """Square matrices of several sizes as one (B, n, n) stack, each in the
    top-left corner of an n x n block of zeros, n the largest size."""
    n = max(len(m) for m in mats)
    out = np.zeros((len(mats), n, n), dtype=np.result_type(*mats))
    for member, m in zip(out, mats):
        member[: len(m), : len(m)] = m
    return out


def single_mode_frame(twice_j) -> MeasurementFrame:
    """The static frame of one spin, or for a sequence of 2j values the
    member-stacked frame of those spins, zero-padded to the largest."""
    if not np.ndim(twice_j):
        mats = spin_matrices(twice_j)
        return MeasurementFrame(mats.jx, mats.jy, mats.jz, twice_j)
    mats = [spin_matrices(tj) for tj in twice_j]
    stacks = (stack_members([getattr(m, name) for m in mats]) for name in ("jx", "jy", "jz"))
    return MeasurementFrame(*stacks, np.asarray(twice_j))


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

    rho is one n x n state or a (B, n, n) stack, and op one operator or,
    on a stack, one per member. The result is a float for one state and
    one operator, a stack of one included, and else a (B,) array, each
    member's value bit for bit the one np.vdot gives for that state and
    its operator alone.

    rho may also be the parity half of one state, the first ceil(N/2)
    entries of its flattening (N = n^2), as Moments passes it. Then the
    state and op must both be even under the joint x-parity, which in the
    two-mode |m1, m2> basis reverses the flat index, and the read is
    2 <op, rho> over the first floor(N/2) entries plus the middle entry's
    term when N is odd, on views of both. That is exact to rounding for
    the even J_x^+, X^2, zeta and node Z^2 and ZXZ; an odd operator, such
    as the node Z, reads wrong.
    """
    if rho.ndim == 1:
        flat = op.reshape(-1)
        half = flat.size // 2
        value = 2.0 * np.vdot(rho[:half], flat[:half]).real
        if flat.size % 2:
            value += (rho[half].conjugate() * flat[half]).real
        return float(value)
    if op.ndim == 3:
        return np.vecdot(rho.reshape(len(rho), -1), op.reshape(len(op), -1)).real
    if rho.size == op.size:
        return float(np.vdot(rho, op).real)
    return np.vecdot(rho.reshape(len(rho), -1), op.reshape(-1)).real


class Moments:
    """The moment read of a state or (B, n, n) stack rho: read(op) is
    expect_real(op, rho), computed once per operator. Operators are told
    apart by identity and held while the read lives, so no temporary can
    hand its id on; a blend built twice is read twice, to the same bits.

    With even set, rho is one state (or a stack of one) even under the
    joint x-parity, and every operator read must be even too (see
    expect_real): each read then takes the first ceil(N/2) entries of the
    flattened rho, a view, half the entries of the full read."""

    __slots__ = ("rho", "_source", "_seen")

    def __init__(self, rho, even: bool = False):
        self.rho = rho
        self._source = rho.reshape(-1)[: (rho.size + 1) // 2] if even else rho
        self._seen = []  # (operator, value) in order of first read

    def __call__(self, op):
        for known, value in self._seen:
            if known is op:
                return value
        value = expect_real(op, self._source)
        self._seen.append((op, value))
        return value


def moments_of(rho) -> Moments:
    """rho if it is a moment read, else a fresh read of the state or stack rho."""
    return rho if isinstance(rho, Moments) else Moments(rho)
