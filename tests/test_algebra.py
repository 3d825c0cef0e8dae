"""Operator algebra: matrix construction, coherent states, rotating frame."""

import math
import weakref

import numpy as np
import pytest

from spinlab.algebra import (
    MeasurementFrame,
    Moments,
    SpinQuantum,
    coherent_spin_state,
    expect_real,
    single_mode_frame,
    spin_matrices,
    stack_members,
    two_mode_coherent_state,
    two_mode_frame,
)
from spinlab.feedback import SCHEME_KINDS, FeedbackScheme
from spinlab.metrics import compute_metrics

from conftest import RecordedMoments

SPINS = (1, 2, 10, 20)  # twice_j: j = 1/2, 1, 5, 10


def comm(a, b):
    return a @ b - b @ a


@pytest.mark.parametrize("twice_j", SPINS)
def test_commutation_relations_exact(twice_j):
    m = spin_matrices(twice_j)
    for a, b, c in ((m.jx, m.jy, m.jz), (m.jy, m.jz, m.jx), (m.jz, m.jx, m.jy)):
        assert np.abs(comm(a, b) - 1j * c).max() < 1e-12


@pytest.mark.parametrize("twice_j", SPINS)
def test_casimir_is_scalar(twice_j):
    m = spin_matrices(twice_j)
    j = twice_j / 2.0
    total = m.jx @ m.jx + m.jy @ m.jy + m.jz @ m.jz
    assert np.abs(total - j * (j + 1) * np.eye(twice_j + 1)).max() < 1e-12


def test_spin_half_matches_pauli_over_two():
    m = spin_matrices(1)
    assert np.allclose(m.jz, [[0.5, 0], [0, -0.5]], atol=1e-15)
    assert np.allclose(m.jx, [[0, 0.5], [0.5, 0]], atol=1e-15)
    assert np.allclose(m.jy, [[0, -0.5j], [0.5j, 0]], atol=1e-15)


def test_basis_ordering_descending_m():
    m = spin_matrices(4)
    assert np.allclose(np.diag(m.jz), [2, 1, 0, -1, -2])


@pytest.mark.parametrize("twice_j", SPINS)
def test_matrices_hermitian(twice_j):
    m = spin_matrices(twice_j)
    for op in (m.jx, m.jy, m.jz):
        assert np.abs(op - op.conj().T).max() == 0.0


def test_spin_quantum_validation():
    assert SpinQuantum(3).j == 1.5
    assert SpinQuantum(3).dim == 4
    with pytest.raises(ValueError):
        SpinQuantum(0)
    with pytest.raises(ValueError):
        SpinQuantum(-2)


@pytest.mark.parametrize("twice_j", SPINS)
def test_coherent_state_is_top_jx_eigenvector(twice_j):
    m = spin_matrices(twice_j)
    j = twice_j / 2.0
    vec = coherent_spin_state(twice_j)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert np.abs(m.jx @ vec - j * vec).max() < 1e-10
    # real positive phase convention keeps CSV output reproducible
    assert np.abs(vec.imag).max() < 1e-12
    assert vec.real.min() > 0.0


@pytest.mark.parametrize("twice_j", (1, 2, 10))
def test_coherent_state_transverse_variances(twice_j):
    m = spin_matrices(twice_j)
    j = twice_j / 2.0
    vec = coherent_spin_state(twice_j)
    rho = np.outer(vec, vec.conj())
    assert expect_real(m.jz @ m.jz, rho) == pytest.approx(j / 2.0, abs=1e-12)
    assert expect_real(m.jy @ m.jy, rho) == pytest.approx(j / 2.0, abs=1e-12)
    assert expect_real(m.jz, rho) == pytest.approx(0.0, abs=1e-12)


def kron_ops(twice_j):
    """Independent two-sample references: each per-sample matrix on
    sample 1 and on sample 2, e.g. ops["jz1"], ops["jy2"]."""
    eye = np.eye(twice_j + 1)
    m = spin_matrices(twice_j)
    ops = {}
    for name in ("jx", "jy", "jz"):
        op = getattr(m, name)
        ops[name + "1"], ops[name + "2"] = np.kron(op, eye), np.kron(eye, op)
    return ops


def test_two_mode_ops_structure():
    ops = kron_ops(2)
    fr = two_mode_frame(2, omega=1.0)
    assert fr.dim == 9
    assert np.array_equal(fr.at(0.0).z, ops["jz1"] + ops["jz2"])
    assert np.array_equal(fr.at(0.0).y, ops["jy1"] + ops["jy2"])
    assert np.array_equal(fr.zc_op, ops["jz1"] + ops["jz2"])
    assert np.array_equal(fr.yc_op, ops["jy1"] - ops["jy2"])
    assert np.array_equal(fr.x_op, ops["jx1"] + ops["jx2"])
    # operators on different samples commute
    assert np.abs(comm(ops["jz1"], ops["jy2"])).max() == 0.0
    assert np.abs(comm(ops["jx1"], ops["jx2"])).max() == 0.0


@pytest.mark.parametrize("twice_j", (1, 2, 5))
def test_two_mode_per_sample_factors_are_exact(twice_j):
    ops = kron_ops(twice_j)
    fr = two_mode_frame(twice_j, omega=1.0)
    jzp, jzm = ops["jz1"] + ops["jz2"], ops["jz1"] - ops["jz2"]
    assert fr.jy_factor.dtype == float
    assert np.array_equal(1j * fr.jy_factor, spin_matrices(twice_j).jy)
    assert np.array_equal(fr.jzp_diag, jzp.diagonal().real)
    assert np.array_equal(fr.jzm_diag, jzm.diagonal().real)
    assert np.count_nonzero(jzp - np.diag(jzp.diagonal())) == 0
    assert not hasattr(single_mode_frame(twice_j), "jy_factor")


@pytest.mark.parametrize("twice_j", (1, 2, 3, 4, 10))
def test_joint_x_parity_is_the_index_reversal(twice_j):
    # the period-averaged rate fills half its rows by this mirror: in the
    # |m1, m2> basis the joint x-parity reverses the index, with no sign,
    # keeping J_x and negating K (J_y = iK) and both J_z diagonals exactly
    fr = two_mode_frame(twice_j, omega=1.0)
    sample = spin_matrices(twice_j)
    for op in (sample.jx.real, fr.x_op):
        assert np.array_equal(op[::-1, ::-1], op)
    assert np.array_equal(fr.jy_factor[::-1, ::-1], -fr.jy_factor)
    assert np.array_equal(fr.jzp_diag[::-1], -fr.jzp_diag)
    assert np.array_equal(fr.jzm_diag[::-1], -fr.jzm_diag)


@pytest.mark.parametrize("twice_j", (1, 4))
def test_real_operators_are_float64(twice_j):
    frames = ((single_mode_frame(twice_j), (0.0,)), (two_mode_frame(twice_j, omega=math.pi / 2e-3), (0.0, 1e-3)))
    for fr, nodes in frames:
        real = [fr.x_op, fr.x2_op, fr.zeta_op, fr.zc_op]
        for v in nodes:
            real += [fr.at(v).z2, fr.at(v).y2, fr.at(v).zxz]
        assert all(op.dtype == float for op in real)
        # the imaginary ones stay complex: J_y, and ZY + YZ
        assert fr.at(0.0).y.dtype == fr.at(0.0).zy.dtype == complex
    single = single_mode_frame(twice_j)
    m = spin_matrices(twice_j)
    assert single.at(0.5).k.dtype == single.at(0.5).s.dtype == float
    assert np.array_equal(1j * single.at(0.5).k, m.jy)
    assert np.array_equal(1j * single.at(0.5).s, single.at(0.5).zy)


@pytest.mark.parametrize("twice_j", (5, 9))
def test_x2_op_has_the_complex_product_bits(twice_j):
    # the complex runs' optimal-law bytes rest on (J_x^+)^2 summed as the
    # complex product sums it; the real product differs at these sizes
    fr = two_mode_frame(twice_j, omega=7.3)
    x = fr.x_op.astype(complex)
    assert np.array_equal(fr.x2_op.view(np.uint64), np.ascontiguousarray((x @ x).real).view(np.uint64))


def test_measurement_frame_refuses_imaginary_jz():
    m = spin_matrices(2)
    with pytest.raises(ValueError):
        MeasurementFrame(m.jx, m.jy, m.jy, twice_j=2)


def test_two_mode_frame_builds_operators_on_first_read():
    import pickle

    fr = two_mode_frame(2, omega=1.0)
    dense = {"_zc", "_zs", "_yc", "_ys", "x_op"}
    assert fr.dim == 9
    assert not dense & set(vars(fr))
    unbuilt = pickle.loads(pickle.dumps(fr))
    z = fr.at(0.3).z  # reads both rotating components
    assert dense & set(vars(fr)) == {"_zc", "_zs"}
    z2 = fr.at(0.3).z2  # builds the cosine, sine and cross Z^2 products
    built = pickle.loads(pickle.dumps(fr))
    for copy in (unbuilt, built):
        assert np.array_equal(copy.at(0.3).z, z)
        assert np.array_equal(copy.at(0.3).z2, z2)
        assert np.array_equal(copy.at(0.3).y, fr.at(0.3).y)


def test_two_mode_coherent_state_moments():
    tj = 4
    j = tj / 2.0
    ops = kron_ops(tj)
    jzp, jym = ops["jz1"] + ops["jz2"], ops["jy1"] - ops["jy2"]
    jxm = ops["jx1"] - ops["jx2"]
    vec = two_mode_coherent_state(tj)
    rho = np.outer(vec, vec.conj())
    assert expect_real(ops["jx1"] + ops["jx2"], rho) == pytest.approx(2 * j, abs=1e-12)
    assert expect_real(jzp @ jzp, rho) == pytest.approx(j, abs=1e-12)
    assert expect_real(jym @ jym, rho) == pytest.approx(j, abs=1e-12)
    # sharp relative x polarisation
    assert expect_real(jxm @ jxm, rho) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("twice_j", (1, 2, 20))
def test_frame_commutator_closes_on_x(twice_j):
    fr = two_mode_frame(twice_j, omega=math.pi / (2e-3))
    for v in (0.0, 1e-3, 2e-3, 3e-3, 0.1234567, 5.5):
        z, y = fr.at(v).z, fr.at(v).y
        assert np.abs(comm(z, y) + 1j * fr.x_op).max() < 1e-12


def test_auto_omega_steps_land_on_exact_nodes():
    dv = 1e-3
    fr = two_mode_frame(2, omega=math.pi / (2 * dv))
    seen = [fr.at(n * dv).phase for n in range(8)]
    assert seen == [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] * 2
    ops = kron_ops(2)
    assert np.abs(fr.at(dv).z - (ops["jy1"] - ops["jy2"])).max() == 0.0
    assert np.abs(fr.at(dv).y + (ops["jz1"] - ops["jz2"])).max() == 0.0


def test_generic_phase_coefficients_are_trig():
    fr = two_mode_frame(2, omega=3.0)
    c, s = fr.at(0.4).phase
    assert c == pytest.approx(math.cos(1.2), abs=1e-15)
    assert s == pytest.approx(math.sin(1.2), abs=1e-15)


@pytest.mark.parametrize("v", (0.0, 1e-3, 0.0777, 2.5))
def test_cached_quadratics_match_products(v):
    # 0.0777 is off the nodes of the two-mode frame
    for fr in (two_mode_frame(2, omega=math.pi / (2e-3)), single_mode_frame(2)):
        at = fr.at(v)
        z, y = at.z, at.y
        assert np.abs(at.z2 - z @ z).max() < 1e-13
        assert np.abs(at.y2 - y @ y).max() < 1e-13
        assert np.abs(at.zy - (z @ y + y @ z)).max() < 1e-13
        assert np.abs(at.zxz - z @ fr.x_op @ z).max() < 1e-13
        assert np.array_equal(at.k, -1j * y)
        assert np.array_equal(at.s, -1j * at.zy)
        assert fr.at(v) is at
        # a read at another phase replaces the held bundle, which nothing
        # else holds, so bundles do not accumulate
        phase, held = at.phase, weakref.ref(at)
        del at
        later = fr.at(v + 5e-4)  # an eighth of the two-mode period on
        if fr.mode == "single":  # one phase, so one bundle for every v
            assert later is held()
        else:
            assert later.phase != phase and held() is None


def test_single_mode_frame_is_static():
    fr = single_mode_frame(4)
    assert fr.mode == "single"
    assert fr.at(0.0).phase == fr.at(1.2345).phase == (1.0, 0.0)
    m = spin_matrices(4)
    assert np.abs(fr.at(2.0).z - m.jz).max() == 0.0
    assert np.abs(fr.at(2.0).y - m.jy).max() == 0.0
    # zeta normalisation: 2<Jz^2>/j equals 1 on the coherent state
    assert fr.zeta_norm == pytest.approx(2.0)
    assert fr.chi_norm == pytest.approx(2.0)
    assert np.allclose(fr.zeta_op, 2.0 * (m.jz @ m.jz))


def test_two_mode_frame_norms_and_zeta_op():
    tj = 4
    fr = two_mode_frame(tj, omega=1.0)
    ops = kron_ops(tj)
    jzp, jym = ops["jz1"] + ops["jz2"], ops["jy1"] - ops["jy2"]
    assert fr.zeta_norm == fr.chi_norm == float(tj)
    assert np.allclose(fr.zeta_op, jzp @ jzp + jym @ jym)
    assert fr.spin_j == tj / 2.0


def test_measurement_frame_embeds_total_spin():
    ops = kron_ops(1)
    jzp = ops["jz1"] + ops["jz2"]
    fr = MeasurementFrame(ops["jx1"] + ops["jx2"], ops["jy1"] + ops["jy2"], jzp, twice_j=2)
    assert fr.mode == "single"
    assert fr.dim == 4
    assert np.abs(fr.at(0.3).z - jzp).max() == 0.0
    assert fr.spin_j == 1.0


def test_expect_real_matches_trace(rng):
    from conftest import random_density

    rho = random_density(5, seed=9)
    m = spin_matrices(4)
    want = np.trace(m.jx @ rho).real
    assert expect_real(m.jx, rho) == pytest.approx(want, abs=1e-13)


def _states(dim: int, dtype, batch):
    """One random state, or a (batch, dim, dim) stack of them, of dtype."""
    rng = np.random.default_rng(dim + (batch or 0))
    out = []
    for _ in range(batch or 1):
        a = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if dtype is complex else 0.0)
        rho = a @ a.conj().T
        out.append(rho / np.trace(rho).real)
    return np.stack(out) if batch else out[0]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("batch", (None, 3), ids=["state", "stack"])
@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("omega, times", ((math.pi / 2e-3, (0.0, 1e-3, 2e-3, 3e-3)), (7.3, (0.0123, 0.4))),
                         ids=["nodes", "off-node"])
def test_moment_read_keeps_the_bits_of_each_expectation(omega, times, dtype, batch):
    fr = two_mode_frame(2, omega)
    rho = _states(fr.dim, dtype, batch)
    read = Moments(rho)
    ops = [fr.x_op, fr.x2_op, fr.zeta_op, fr.zc_op, fr.yc_op]
    ops += [getattr(fr.at(t), name) for t in times for name in ("z", "z2", "zxz")]
    for op in ops + ops:  # the second pass reads what the first computed
        want = expect_real(op, rho)
        assert np.array_equal(_bits(read(op)), _bits(want))
    # a temporary operator dropped after its read cannot pass its id on to
    # the next one: the read holds it
    z, y2 = fr.at(times[-1]).z, fr.at(times[-1]).y2
    first, second = read(z.copy()), read(y2.copy())
    assert np.array_equal(_bits(first), _bits(expect_real(z, rho)))
    assert np.array_equal(_bits(second), _bits(expect_real(y2, rho)))


@pytest.mark.parametrize("batch", (1, 3))
@pytest.mark.parametrize("dtype", (float, complex))
def test_per_member_operators_read_one_value_per_member(batch, dtype):
    # a (B, n, n) operator is one operator per member: the read is one
    # value per member, each the bits np.vdot gives for that member alone
    rho = _states(5, dtype, batch)
    ops = _states(5, float, batch) * 3.0 - 0.5
    want = [np.vdot(rho[k], ops[k]).real for k in range(batch)]
    got = expect_real(ops, rho)
    assert got.shape == (batch,)
    assert np.array_equal(_bits(got), _bits(want))
    read = Moments(rho)
    assert np.array_equal(_bits(read(ops)), _bits(want))
    assert read(ops) is read(ops)


def _path_reads(fr, kind, dv=1e-3):
    """{name: operator} for every operator the gain law kind and the metrics
    row read on the period-averaged path, recorded as they read: the gain
    at the node times (v, v + dv), the metrics row at v, on each of the
    four nodes."""
    psi = two_mode_coherent_state(round(2 * fr.spin_j))
    rho = np.outer(psi, psi.conj())
    ops = {}
    for node in range(4):
        read = RecordedMoments(rho)
        FeedbackScheme(kind).gain(read, fr, (node * dv, (node + 1) * dv))
        compute_metrics(read, fr, v=node * dv)
        for op in read.ops:
            ops.setdefault(id(op), (f"{len(ops)}@{node}", op))
    return dict(ops.values())


EVEN_KINDS = tuple(kind for kind in SCHEME_KINDS if FeedbackScheme(kind).reads_even)


def _averaged_path_reads(fr):
    """Every operator read on the period-averaged path under a law that
    says its reads are even, by name."""
    return {f"{kind}:{name}": op for kind in EVEN_KINDS for name, op in _path_reads(fr, kind).items()}


def _parity_even(rho):
    """The projection onto the states even under the joint x-parity, the
    index reversal of the |m1, m2> basis: the states of the averaged path."""
    return 0.5 * (rho + rho[::-1, ::-1])


def _flat_half(rho):
    """The first ceil(N/2) entries of the flattened state, N = n^2."""
    return rho.reshape(-1)[: (rho.size + 1) // 2]


PARITY_SPINS = (1, 2, 3, 4, 10)  # odd 2j: even n; even 2j: odd n with a middle entry


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("twice_j", PARITY_SPINS)
def test_parity_half_read_matches_the_full_read(twice_j, dtype):
    fr = two_mode_frame(twice_j, math.pi / 2e-3)
    ops = _averaged_path_reads(fr)
    assert {"simple", "optimal"} <= set(EVEN_KINDS) and len(ops) >= 11
    for seed, state in enumerate(_states(fr.dim, dtype, 3)):
        rho = _parity_even(state)
        read = Moments(rho, even=True)
        assert read._source.base is not None and np.shares_memory(read._source, rho)  # a view, no copy
        for name, op in ops.items():
            want = expect_real(op, rho)
            got = expect_real(op, _flat_half(rho))
            # relative to the sum of the terms' sizes: a random state's <J_x>
            # cancels to 1e-4 of it, and the dot's rounding follows the terms
            scale = np.abs(op * rho).sum()
            assert abs(got - want) <= 1e-14 * scale, (name, seed, got, want)
            assert np.array_equal(_bits(read(op)), _bits(got)), name
    # a stack of one state reads as the state
    stack = Moments(rho[None], even=True)
    assert np.array_equal(_bits(stack(fr.x_op)), _bits(read(fr.x_op)))


@pytest.mark.parametrize("twice_j", PARITY_SPINS)
def test_operators_read_on_the_averaged_path_are_parity_even(twice_j):
    # the half read is exact only for an even operator (spin 1/2's ZXZ is
    # zero): a law may say its reads are even only if each one is, and the
    # law that does not say so reads an odd one, the node Z
    fr = two_mode_frame(twice_j, math.pi / 2e-3)
    for name, op in _averaged_path_reads(fr).items():
        assert np.abs(op - op[::-1, ::-1]).max() <= 1e-15 * np.abs(op).max(), name
    for kind in set(SCHEME_KINDS) - set(EVEN_KINDS):
        odd = [op for op in _path_reads(fr, kind).values()
               if np.abs(op - op[::-1, ::-1]).max() > 1e-15 * np.abs(op).max()]
        assert odd, kind


def test_member_stacked_frame_pads_each_spin():
    spins = (2, 5, 4)
    fr = single_mode_frame(spins)
    assert fr.dim == 6 and fr.x_op.shape == (3, 6, 6)
    assert np.array_equal(fr.spin_j, [1.0, 2.5, 2.0])
    for k, twice_j in enumerate(spins):
        alone, n = single_mode_frame(twice_j), twice_j + 1
        at, one = fr.at(0.0), alone.at(0.0)
        for name in ("z", "k", "z2", "y2", "zxz", "s"):
            got = getattr(at, name)[k]
            assert not got[n:].any() and not got[:, n:].any(), name
            assert np.abs(got[:n, :n] - getattr(one, name)).max() <= 1e-13, name
        assert np.array_equal(fr.zeta_op[k, :n, :n], alone.zeta_op)


def test_members_narrows_a_stacked_frame_and_keeps_a_shared_one():
    fr = single_mode_frame((2, 3, 4))
    z2 = fr.at(0.0).z2  # built before narrowing: carried over, not rebuilt
    kept = fr.members(np.array([True, False, True]))
    assert np.array_equal(kept.spin_j, [1.0, 2.0]) and kept.dim == fr.dim
    assert np.array_equal(kept.at(0.0).z2, z2[[0, 2]])
    assert np.array_equal(kept.x_op, fr.x_op[[0, 2]])
    assert np.array_equal(kept.members(np.array([1])).zeta_op, fr.zeta_op[[2]])
    shared = single_mode_frame(4)
    assert shared.members(np.array([True])) is shared
    node = two_mode_frame(2, 1.0)
    assert node.members(np.array([0])) is node


def test_stack_members_zero_pads_into_the_corner():
    stack = stack_members([np.ones((2, 2)), 2j * np.ones((3, 3))])
    assert stack.shape == (2, 3, 3) and stack.dtype == complex
    assert stack[0].sum() == 4 and not stack[0, 2].any() and not stack[0, :, 2].any()
    assert np.array_equal(stack[1], 2j * np.ones((3, 3)))
