"""Operator algebra: matrix construction, coherent states, rotating frame."""

import math

import numpy as np
import pytest

from spinlab.algebra import (
    MeasurementFrame,
    SpinQuantum,
    coherent_spin_state,
    expect_real,
    single_mode_frame,
    spin_matrices,
    two_mode_coherent_state,
    two_mode_frame,
)

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
    assert np.array_equal(fr.z_at(0.0), ops["jz1"] + ops["jz2"])
    assert np.array_equal(fr.y_at(0.0), ops["jy1"] + ops["jy2"])
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


def test_two_mode_frame_builds_operators_on_first_read():
    import pickle

    fr = two_mode_frame(2, omega=1.0)
    dense = {"_zc", "_zs", "_yc", "_ys", "x_op"}
    assert fr.dim == 9
    assert not dense & set(vars(fr))
    unbuilt = pickle.loads(pickle.dumps(fr))
    z = fr.z_at(0.3)  # reads both rotating components
    assert dense & set(vars(fr)) == {"_zc", "_zs"}
    z2 = fr.z2_at(0.3)  # builds the cosine, sine and cross Z^2 products
    built = pickle.loads(pickle.dumps(fr))
    for copy in (unbuilt, built):
        assert np.array_equal(copy.z_at(0.3), z)
        assert np.array_equal(copy.z2_at(0.3), z2)
        assert np.array_equal(copy.y_at(0.3), fr.y_at(0.3))


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
        z, y = fr.z_at(v), fr.y_at(v)
        assert np.abs(comm(z, y) + 1j * fr.x_op).max() < 1e-12


def test_auto_omega_steps_land_on_exact_nodes():
    dv = 1e-3
    fr = two_mode_frame(2, omega=math.pi / (2 * dv))
    seen = [fr.coefficients(n * dv) for n in range(8)]
    assert seen == [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] * 2
    ops = kron_ops(2)
    assert np.abs(fr.z_at(dv) - (ops["jy1"] - ops["jy2"])).max() == 0.0
    assert np.abs(fr.y_at(dv) + (ops["jz1"] - ops["jz2"])).max() == 0.0


def test_generic_phase_coefficients_are_trig():
    fr = two_mode_frame(2, omega=3.0)
    c, s = fr.coefficients(0.4)
    assert c == pytest.approx(math.cos(1.2), abs=1e-15)
    assert s == pytest.approx(math.sin(1.2), abs=1e-15)


@pytest.mark.parametrize("v", (0.0, 1e-3, 0.0777, 2.5))
def test_cached_quadratics_match_products(v):
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    z, y = fr.z_at(v), fr.y_at(v)
    assert np.abs(fr.z2_at(v) - z @ z).max() < 1e-13
    assert np.abs(fr.y2_at(v) - y @ y).max() < 1e-13
    assert np.abs(fr.zy_anti_at(v) - (z @ y + y @ z)).max() < 1e-13
    assert np.abs(fr.zxz_at(v) - z @ fr.x_op @ z).max() < 1e-13


def test_single_mode_frame_is_static():
    fr = single_mode_frame(4)
    assert fr.mode == "single"
    assert fr.coefficients(0.0) == fr.coefficients(1.2345) == (1.0, 0.0)
    m = spin_matrices(4)
    assert np.abs(fr.z_at(2.0) - m.jz).max() == 0.0
    assert np.abs(fr.y_at(2.0) - m.jy).max() == 0.0
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
    assert np.abs(fr.z_at(0.3) - jzp).max() == 0.0
    assert fr.spin_j == 1.0


def test_expect_real_matches_trace(rng):
    from conftest import random_density

    rho = random_density(5, seed=9)
    m = spin_matrices(4)
    want = np.trace(m.jx @ rho).real
    assert expect_real(m.jx, rho) == pytest.approx(want, abs=1e-13)
