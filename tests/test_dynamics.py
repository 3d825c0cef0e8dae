"""Deterministic evolution: superoperators, the optimized generator, and
the integrator's recording/abort behaviour."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import css_rho, dissipator, random_density

from spinlab import algebra, dynamics, feedback, metrics, stochastic
from spinlab.algebra import single_mode_frame, spin_matrices, stack_members, two_mode_frame
from spinlab.dynamics import (
    EvolutionSpec,
    averaged_rate,
    countertwist_hamiltonian,
    countertwist_propagator,
    countertwisting_step,
    evolve,
    feedback_rate,
    unconditioned_step,
)
from spinlab.feedback import FeedbackScheme
from spinlab.harness import SimConfig, run_scenario
from spinlab.metrics import PLAIN_COLUMNS
from spinlab.trajectory import RecordStack


def test_dissipator_matches_definition():
    rng = np.random.default_rng(7)
    r = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = random_density(6, seed=8)
    rd = r.conj().T
    want = r @ rho @ rd - 0.5 * (rd @ r @ rho + rho @ rd @ r)
    assert np.abs(dissipator(r, rho) - want).max() < 1e-13
    assert abs(np.trace(dissipator(r, rho))) < 1e-12


def test_dissipator_spin_half_coherence_decay():
    # hand-expanded 2x2 case: dephasing halves the off-diagonal at unit rate
    m = spin_matrices(1)
    rho = css_rho("single", 1)
    want = np.array([[0.0, -0.25], [-0.25, 0.0]])
    assert np.abs(dissipator(m.jz, rho) - want).max() < 1e-14


def _plain_rate(fr, rho, v, lam):
    """The scaled master equation built naively from the public frame
    operators and dense products."""
    at = fr.at(v)
    z, y = at.z, at.y
    r = z - 1j * lam * y
    rd = r.conj().T
    h = 0.5 * lam * (z @ y + y @ z)
    return -1j * (h @ rho - rho @ h) + r @ rho @ rd - 0.5 * (rd @ r @ rho + rho @ rd @ r)


@pytest.mark.parametrize("lam", (0.0, 0.7, -1.3, 4.0))
@pytest.mark.parametrize("v", (0.0, 1e-3, 3e-3, 0.0071234))
def test_feedback_rate_matches_plain_assembly(v, lam):
    """The cached-product generator must equal the same equation built
    naively from the public frame operators and dense products."""
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    rho = random_density(9, seed=11)
    assert np.abs(feedback_rate(fr, rho, v, lam) - _plain_rate(fr, rho, v, lam)).max() < 1e-12


@pytest.mark.parametrize("lam", (0.0, 0.7, -1.3, 4.0))
@pytest.mark.parametrize("frame", ("single-2", "single-6", "single-20", "two-2-omega", "two-4-omega"))
def test_three_product_rate_matches_the_dense_assembly(frame, lam):
    # the static frame steps real states; an omega = 7.3 frame steps complex ones off its nodes
    mode, twice_j = frame.split("-")[:2]
    twice_j = int(twice_j)
    if mode == "single":
        fr, v = single_mode_frame(twice_j), 0.3
        rho = _real_density(fr.dim, seed=twice_j)
    else:
        fr, v = two_mode_frame(twice_j, omega=7.3), 0.4
        rho = random_density(fr.dim, seed=twice_j)
    got = feedback_rate(fr, rho, v, lam)
    want = _plain_rate(fr, rho, v, lam)
    assert got.dtype == rho.dtype
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # Hermitian to the last bit, so the Euler step keeps a Hermitian state Hermitian
    assert np.array_equal(got, got.conj().T)
    again = 0.5 * (got + got.conj().T)
    assert np.array_equal(again.view(np.uint64), got.view(np.uint64))


def _parity_even(rho):
    """The exact projection of rho onto the states even under the joint
    x-parity, the index reversal a -> n - 1 - a of the |m1, m2> basis: the
    states the period-averaged rate takes."""
    return 0.5 * (rho + rho[::-1, ::-1])


@pytest.mark.parametrize("lam", (0.0, 0.7, -1.3, 4.0))
def test_averaged_rate_is_mean_of_node_rates(lam):
    # odd 2j gives an even per-sample dimension; rho is complex, not real
    dv = 1e-3
    for twice_j in (1, 2, 3, 10):
        fr = two_mode_frame(twice_j, omega=math.pi / (2 * dv))
        rho = _parity_even(random_density(fr.dim, seed=11))
        assert np.abs(rho.imag).sum() > 0.1 * np.abs(rho.real).sum()
        want = 0.5 * (feedback_rate(fr, rho, 0.0, lam) + feedback_rate(fr, rho, dv, lam))
        got = averaged_rate(fr, rho, lam)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max(), twice_j
        assert np.array_equal(got, got.conj().T)
        # a run reuses one scratch dict; what an earlier step left there must not leak
        scratch = {}
        averaged_rate(fr, rho.conj(), -lam - 0.5, scratch)
        assert np.array_equal(averaged_rate(fr, rho, lam, scratch), got)


def _quarter_period_run(twice_j, rho0, scheme="simple", v_max=0.02):
    dv = 1e-3
    fr = two_mode_frame(twice_j, omega=math.pi / (2 * dv))
    spec = EvolutionSpec(frame=fr, delta_v=dv, v_max=v_max, record_stride=5)
    return fr, evolve(rho0, spec, FeedbackScheme(scheme))


@pytest.mark.parametrize("scheme", ("simple", "optimal"))
def test_quarter_period_run_builds_only_what_it_reads(scheme):
    fr, rec = _quarter_period_run(3, css_rho("two", 3), scheme)
    assert rec.ok
    built = set(vars(fr))
    assert {"_zc", "_zs", "x_op"} <= built
    # J_y^+ and -J_z^- only enter the generator, which uses per-sample factors
    assert not built & {"_yc", "_ys"}


def _wrap_steps(monkeypatch, wrap):
    """Hand the step loop wrap(step) for every step evolve passes it."""
    loop = dynamics.integrate

    def wrapped(rho0, spec, controller, step, *args, **kwargs):
        return loop(rho0, spec, controller, wrap(step), *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", wrapped)


def _record_steps(monkeypatch) -> list:
    """Record every state returned by the steps that evolve hands the step
    loop; returns the list they are appended to."""
    steps = []

    def recording(step):
        def recorded(*args):
            out, raw = step(*args)
            steps.append(out[0])
            return out, raw

        return recorded

    _wrap_steps(monkeypatch, recording)
    return steps


def test_quarter_period_steps_are_exactly_hermitian(monkeypatch):
    # every feedback step keeps the state Hermitian to the last bit once
    # the start is made so: the averaged quarter-period steps, and the
    # Euler steps of the static frame and of an off-node omega
    steps = _record_steps(monkeypatch)
    dv = 1e-3
    runs = {
        "averaged": (two_mode_frame(3, omega=math.pi / (2 * dv)), "simple"),
        "euler-single": (single_mode_frame(3), "simple"),
        "euler-omega": (two_mode_frame(3, omega=7.3), "optimal"),
    }
    for name, (fr, scheme) in runs.items():
        steps.clear()
        rho0 = random_density(fr.dim, seed=21)  # complex, not real
        if name == "averaged":
            rho0 = _parity_even(rho0)
        rho0[0, 1] += 1e-15  # and not bitwise Hermitian until the run makes it so
        spec = EvolutionSpec(frame=fr, delta_v=dv, v_max=0.03, record_stride=5)
        rec = evolve(rho0, spec, FeedbackScheme(scheme))
        assert rec.ok and len(steps) == 30, name
        for out in steps:
            again = 0.5 * (out + out.conj().T)
            assert np.array_equal(out.view(np.uint64), again.view(np.uint64)), name


def _sample_swap(rho, d):
    """P rho P for the swap P of the two samples, |m1, m2> -> |m2, m1>."""
    return rho.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(rho.shape)


@pytest.mark.parametrize("scheme", ("simple", "optimal"))
@pytest.mark.parametrize("twice_j", (3, 4))
def test_averaged_states_are_exactly_parity_even(twice_j, scheme, monkeypatch):
    # from the first step on every state the averaged step makes is even
    # under the joint x-parity and symmetric to the last bit, from the +x
    # coherent start, which is even only to rounding; an even n (odd 2j)
    # has no middle row, an odd n one that is its own mirror. The sample
    # swap is not imposed and holds to rounding (measured 1.4e-17 here)
    steps = _record_steps(monkeypatch)
    rho0 = css_rho("two", twice_j)
    assert not np.array_equal(rho0, rho0[::-1, ::-1])
    fr, rec = _quarter_period_run(twice_j, rho0, scheme, v_max=0.5)
    assert rec.ok and len(steps) == 500
    for rho in steps:
        assert rho.dtype == float
        assert np.array_equal(rho.view(np.uint64), np.ascontiguousarray(rho[::-1, ::-1]).view(np.uint64))
        assert np.array_equal(rho.view(np.uint64), np.ascontiguousarray(rho.T).view(np.uint64))
        assert np.abs(_sample_swap(rho, twice_j + 1) - rho).max() <= 1e-14


def _tilted_start(twice_j, angle=0.3):
    """The +x coherent state of each sample turned about y by angle: not
    even under the joint x-parity, which turns it the other way."""
    jy = spin_matrices(twice_j).jy
    energies, vectors = np.linalg.eigh(jy)
    turn = (vectors * np.exp(-1j * angle * energies)) @ vectors.conj().T
    vec = np.kron(*[turn @ algebra.coherent_spin_state(twice_j)] * 2)
    return np.outer(vec, vec.conj())


@pytest.mark.parametrize("twice_j", (3, 4))
def test_the_averaged_step_refuses_a_start_that_is_not_parity_even(twice_j):
    rho0 = _tilted_start(twice_j)
    dv = 1e-3
    spec = EvolutionSpec(frame=two_mode_frame(twice_j, omega=math.pi / (2 * dv)), delta_v=dv, v_max=0.01)
    with pytest.raises(ValueError, match="parity"):
        evolve(rho0, spec, FeedbackScheme("simple"))
    # the Euler step of a finite omega takes any start
    spec = EvolutionSpec(frame=two_mode_frame(twice_j, omega=7.3), delta_v=dv, v_max=0.01)
    assert evolve(rho0, spec, FeedbackScheme("simple")).ok


@pytest.mark.parametrize("dtype", (float, complex))
def test_averaged_step_allocates_only_the_rate(dtype, monkeypatch):
    # past the first step the rate's intermediates live in the run's
    # scratch and the Adams-Bashforth update builds the next state in the
    # spent last rate, so a step's only fresh n x n array is the rate
    dv = 1e-3
    fr = two_mode_frame(12, omega=math.pi / (2 * dv))
    n = fr.dim
    rho0 = _parity_even(_real_density(n, seed=4) if dtype is float else random_density(n, seed=4))
    grown = []

    def traced(step):
        def measured(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = step(*args)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        return measured

    _wrap_steps(monkeypatch, traced)
    tracemalloc.start()
    try:
        rec = evolve(rho0, EvolutionSpec(frame=fr, delta_v=dv, v_max=0.01), FeedbackScheme("simple"))
    finally:
        tracemalloc.stop()
    assert rec.ok and len(grown) == 10
    array = n * n * np.dtype(dtype).itemsize
    assert grown[0] > 8 * array  # the first call fills the scratch
    # plus a little: a ufunc reading a transposed operand iterates through
    # buffers (64 KiB at numpy's default size), which are not n x n arrays
    assert max(grown[1:]) < array + 2**17, [g - array for g in grown]


def test_hermiticity_check_copies_no_state(monkeypatch):
    # evolve checks the start's Hermiticity row against column, so its
    # set-up up to the step loop holds no n x n array: measured peak 12 KiB
    # at 2j = 20 (n = 441), where one complex n x n array is 3.0 MiB
    dv = 1e-3
    fr = two_mode_frame(20, omega=math.pi / (2 * dv))
    rho0 = css_rho("two", 20)
    peaks = []

    def handed(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return [None]

    monkeypatch.setattr(dynamics, "integrate", handed)
    tracemalloc.start()
    try:
        evolve(rho0, EvolutionSpec(frame=fr, delta_v=dv, v_max=2 * dv), FeedbackScheme("simple"))
    finally:
        tracemalloc.stop()
    assert peaks and peaks[0] < 2**16, peaks


def _full_rate(frame, rho, lam, scratch):
    """averaged_rate as it was written with every elementwise pass on every
    row, for any Hermitian rho: the per-sample products P and Q, [A, rho]
    and [B, rho] as a + a^dag and b + b^dag, U and V, G and G + G^dag
    whole. Kept as the oracle the parity-reduced rate must match to
    rounding on parity-even states."""

    def products(k, x, y, p, q):
        d = k.shape[0]
        np.matmul(k, x.view(float).reshape(d, -1), out=p.view(float).reshape(d, -1))
        np.matmul(k, y.view(float).reshape(d, d, -1), out=q.view(float).reshape(d, d, -1))

    def plus_dagger(x, out):
        if x.dtype.kind == "c":
            np.subtract(x.imag, x.imag.T, out=out.imag)
        np.add(x.real, x.real.T, out=out.real)
        return out

    rho = np.ascontiguousarray(rho)
    k = frame.jy_factor
    if not scratch:
        d, e = frame.jzp_diag, -frame.jzm_diag
        scratch["work"] = np.empty((4,) + rho.shape, dtype=rho.dtype)
        scratch["real"] = np.empty((4,) + rho.shape)
        ds, de, fd, fe = scratch["real"]
        np.add(d[:, None], d, out=ds)
        np.subtract(e[:, None], e, out=de)
        np.multiply(np.square(np.subtract(d[:, None], d, out=fd), out=fd), -0.125, out=fd)
        np.multiply(np.square(de, out=fe), -0.125, out=fe)
        scratch["quarter_k"] = 0.25 * k
    (p, q, a, g), (ds, de, fd, fe) = scratch["work"], scratch["real"]
    products(k, rho, rho, p, q)
    np.subtract(p, q, out=a)
    if lam != 0.0:
        q += p  # b
        comm = plus_dagger(a, p)
        y = plus_dagger(q, g)  # 4Y
        y *= lam * lam
        y += np.multiply(np.multiply(ds, rho, out=q), 2.0 * lam, out=q)
        np.subtract(y, comm, out=q)  # V
        comm += y  # U
    else:
        np.negative(plus_dagger(a, p), out=q)
        np.multiply(fd, rho, out=a)
    products(scratch["quarter_k"], p, q, g, p)
    g += p
    if lam != 0.0:
        tr = q.view(float)[:, : q.shape[1]]
        a *= np.multiply(de, 0.5 * lam, out=tr)
        np.add(np.multiply(fe, lam * lam, out=tr), fd, out=tr)
        a += np.multiply(tr, rho, out=p)
    g += a
    return plus_dagger(g, np.empty_like(g))


@pytest.mark.parametrize("lam", (0.0, 0.37, -2.1, 1e3))
@pytest.mark.parametrize("twice_j", (1, 2, 3, 10))
@pytest.mark.parametrize("dtype", (float, complex))
def test_parity_reduced_rate_matches_the_full_rate(dtype, twice_j, lam):
    # odd 2j gives an even n and a middle-free mirror, even 2j an odd n whose
    # middle row is its own mirror; the reduced rate is Hermitian and
    # parity-even to the last bit, the full one only to rounding
    fr = two_mode_frame(twice_j, omega=math.pi / 2e-3)
    scratch, oracle_scratch = {}, {}
    for seed in range(3):
        rho = _parity_even(_real_density(fr.dim, seed) if dtype is float else random_density(fr.dim, seed))
        got = averaged_rate(fr, rho, lam, scratch)
        want = _full_rate(fr, rho, lam, oracle_scratch)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), seed
        mirror = np.ascontiguousarray(got[::-1, ::-1])
        again = 0.5 * (got + got.conj().T)  # re-Hermitizing changes nothing
        for image in (mirror, again):
            assert np.array_equal(got.view(np.uint64), image.view(np.uint64)), seed


def _eight_product_rate(frame, rho, lam, scratch):
    """averaged_rate as it was written with A rho and B rho each from their
    own two per-sample products and each of A and B applied as such: eight
    products with K where the rate now makes four. Kept as the oracle the
    regrouped rate must match to rounding."""

    def kron_sum_apply(k, x, sign, out, other):
        d = k.shape[0]
        xf, of, otherf = x.view(float), out.view(float), other.view(float)
        np.matmul(k, xf.reshape(d, -1), out=of.reshape(d, -1))
        np.matmul(k, xf.reshape(d, d, -1), out=otherf.reshape(d, d, -1))
        if sign > 0:
            of += otherf
        else:
            of -= otherf
        return out

    rho = np.ascontiguousarray(rho)
    if not scratch:
        scratch["work"] = np.empty((5,) + rho.shape, dtype=rho.dtype)
        scratch["real"] = np.empty((3,) + rho.shape)
    a, a_dag, inner, g, t = scratch["work"]
    dephase, de, tr = scratch["real"]
    k, d, e = frame.jy_factor, frame.jzp_diag, -frame.jzm_diag
    kron_sum_apply(k, rho, -1.0, a, t)
    np.conjugate(a.T, out=a_dag)
    np.add(a, a_dag, out=inner)
    inner *= 0.25
    kron_sum_apply(k, inner, -1.0, g, t)
    np.subtract(d[:, None], d, out=dephase)
    np.square(dephase, out=dephase)
    if lam != 0.0:
        np.subtract(e[:, None], e, out=de)
        np.multiply(lam, de, out=tr)
        dephase += np.square(tr, out=tr)
        de *= 0.25 * lam
        a -= a_dag
        g += np.multiply(de, a, out=t)
        b = kron_sum_apply(k, rho, 1.0, a_dag, t)
        np.conjugate(b.T, out=inner)
        inner += b
        inner *= 0.25 * lam * lam
        np.add(d[:, None], d, out=tr)
        np.multiply(0.5 * lam, tr, out=tr)
        inner += np.multiply(tr, rho, out=t)
        g += kron_sum_apply(k, inner, 1.0, b, t)
    dephase *= -0.125
    g += np.multiply(dephase, rho, out=t)
    out = np.conj(g.T, order="C")
    out += g
    return out


@pytest.mark.parametrize("lam", (0.0, 0.37, -2.1, 1e3))
@pytest.mark.parametrize("twice_j", (1, 2, 3, 10))
@pytest.mark.parametrize("dtype", (float, complex))
def test_averaged_rate_keeps_the_eight_product_bits(dtype, twice_j, lam):
    # the regrouped sums round differently from the eight-product rate, so
    # it is matched to rounding, L = 0 included: there the rate takes its
    # general path with every L term zero, and the rows it fills by the
    # parity mirror rows whose products summed in another order. Three calls
    # through one scratch dict each: a run constant the rate overwrote
    # would show on the second or third
    fr = two_mode_frame(twice_j, omega=math.pi / 2e-3)
    scratch, oracle_scratch = {}, {}
    for seed in range(3):
        rho = _parity_even(_real_density(fr.dim, seed) if dtype is float else random_density(fr.dim, seed))
        got = averaged_rate(fr, rho, lam, scratch)
        want = _eight_product_rate(fr, rho, lam, oracle_scratch)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), seed
        # Hermitian to the last bit: re-Hermitizing changes nothing
        again = 0.5 * (got + got.conj().T)
        assert np.array_equal(got.view(np.uint64), again.view(np.uint64)), seed


@pytest.mark.parametrize("dtype", (float, complex))
def test_averaged_rate_makes_four_products_in_eight_arrays(dtype, monkeypatch):
    fr = two_mode_frame(4, omega=math.pi / 2e-3)
    n = fr.dim
    rho = _parity_even(_real_density(n, seed=3) if dtype is float else random_density(n, seed=3))
    products = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        products.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    scratch = {}
    for lam in (0.7, 0.0, -1.3):
        products.clear()
        averaged_rate(fr, rho, lam, scratch)
        # each with the d x d per-sample factor, never an n x n operator;
        # the first and third make only the top ceil(d/2) row blocks, with
        # those rows of K
        assert products == [(3, 5), (5, 5), (3, 5), (5, 5)], lam
        # four n x n work arrays and the top rows of four run constants
        held = [x for x in scratch.values() if x.shape[-1] == n]
        assert sum(math.prod(x.shape[:-2]) for x in held) == 8
        assert sum(x.nbytes for x in held) <= 4 * n * n * rho.itemsize + 4 * n * n * 8


def test_averaged_rate_needs_two_mode_frame():
    with pytest.raises(ValueError):
        averaged_rate(single_mode_frame(2), css_rho("single", 2), 0.5)


def test_quarter_period_run_is_second_order():
    # halving the step moves the averaged run by a quarter as much each time
    def final_zeta(dv):
        fr = two_mode_frame(2, omega=math.pi / (2 * dv))
        spec = EvolutionSpec(frame=fr, delta_v=dv, v_max=1.0, record_stride=round(0.1 / dv))
        return evolve(css_rho("two", 2), spec, FeedbackScheme("simple")).column("zeta")

    coarse, mid, fine = final_zeta(4e-3), final_zeta(2e-3), final_zeta(1e-3)
    ratio = np.abs(coarse - mid).max() / np.abs(mid - fine).max()
    assert 3.5 < ratio < 4.5


def test_unconditioned_step_preserves_trace_and_hermiticity():
    # from an exactly Hermitian rho the Euler step is exactly Hermitian
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    rho = random_density(9, seed=12)
    rho = 0.5 * (rho + rho.conj().T)
    out = unconditioned_step(rho, feedback_rate(fr, rho, 0.002, 0.9), 1e-3)
    assert abs(np.trace(out).real - 1.0) < 1e-13
    assert np.abs(out - out.conj().T).max() == 0.0


def test_step_without_gain_is_pure_dephasing():
    fr = single_mode_frame(2)
    rho = random_density(3, seed=13)
    dv = 1e-3
    out = unconditioned_step(rho, feedback_rate(fr, rho, 0.5, 0.0), dv)
    want = rho + dv * dissipator(fr.at(0.5).z, rho)
    assert np.abs(out - want).max() < 1e-14


def test_countertwist_two_mode_form():
    fr = two_mode_frame(2, omega=1.0)
    m = spin_matrices(2)
    h = countertwist_hamiltonian(fr)
    want = np.kron(m.jz, m.jy) + np.kron(m.jy, m.jz)
    assert np.abs(h - want).max() == 0.0
    assert np.abs(h - h.conj().T).max() < 1e-14


def test_countertwist_single_mode_form():
    fr = single_mode_frame(4)
    m = spin_matrices(4)
    h = countertwist_hamiltonian(fr)
    want = 0.5 * (m.jz @ m.jy + m.jy @ m.jz)
    assert np.abs(h - want).max() == 0.0


def test_countertwisting_step_preserves_trace_exactly():
    fr = two_mode_frame(2, omega=1.0)
    u = countertwist_propagator(countertwist_hamiltonian(fr), 1e-3)
    rho = css_rho("two", 2)
    for _ in range(50):
        rho = countertwisting_step(rho, u)
    assert abs(np.trace(rho).real - 1.0) < 1e-13


def test_countertwist_keeps_measured_variances_balanced():
    # from the coherent start the two measured second moments stay equal
    fr = two_mode_frame(4, omega=math.pi / (2e-3))
    spec = EvolutionSpec(frame=fr, generator="countertwist", delta_v=1e-3, v_max=1.0)
    rec = evolve(css_rho("two", 4), spec)
    m, eye = spin_matrices(4), np.eye(5)
    jzp = np.kron(m.jz, eye) + np.kron(eye, m.jz)
    jym = np.kron(m.jy, eye) - np.kron(eye, m.jy)
    from spinlab.algebra import expect_real

    # reconstruct the imbalance from a fresh integration of the same flow
    u = countertwist_propagator(countertwist_hamiltonian(fr), 1e-3)
    rho = css_rho("two", 4)
    zz = jzp @ jzp
    yy = jym @ jym
    worst = 0.0
    for _ in range(1000):
        rho = countertwisting_step(rho, u)
        worst = max(worst, abs(expect_real(zz - yy, rho)))
    assert worst < 1e-10
    assert rec.ok
    assert rec.column("zeta").min() < 0.7  # it squeezes


@pytest.mark.parametrize("stride", (1, 3, 7))
def test_record_row_count_contract(stride):
    fr = single_mode_frame(2)
    spec = EvolutionSpec(frame=fr, generator="feedback", delta_v=1e-3, v_max=0.02, record_stride=stride)
    rec = evolve(css_rho("single", 2), spec, FeedbackScheme("none"))
    assert rec.n_rows == spec.n_steps // stride + 1
    v = rec.column("v")
    assert (np.diff(v) > 0).all()
    assert v[0] == 0.0


def test_purity_nonincreasing_without_feedback():
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    spec = EvolutionSpec(frame=fr, generator="feedback", delta_v=1e-3, v_max=0.5)
    rec = evolve(css_rho("two", 2), spec, FeedbackScheme("none"))
    p = rec.column("purity")
    assert (np.diff(p) <= 1e-12).all()
    assert p[0] == pytest.approx(1.0, abs=1e-12)


class _Kick:
    """Stub controller returning a ruinously large constant gain."""

    kind = "stub"

    def gain(self, rho, frame, v):
        return 1e6, False


def test_evolve_aborts_gracefully_on_blowup():
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    spec = EvolutionSpec(frame=fr, generator="feedback", delta_v=1e-3, v_max=1.0)
    rec = evolve(css_rho("two", 2), spec, _Kick())
    assert not rec.ok
    assert rec.status in ("aborted-trace", "aborted-nonfinite")
    assert rec.abort_v is not None
    assert rec.n_rows >= 1  # the valid prefix is preserved


def test_clamped_gain_is_counted_and_bounded():
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    spec = EvolutionSpec(frame=fr, generator="feedback", delta_v=1e-3, v_max=0.05)
    rec = evolve(css_rho("two", 2), spec, FeedbackScheme("simple", clamp=0.5))
    assert rec.clamp_events > 0
    assert np.abs(rec.column("lam")).max() <= 0.5 + 1e-12


def test_dimension_mismatch_rejected():
    fr = two_mode_frame(2, omega=1.0)
    spec = EvolutionSpec(frame=fr, generator="feedback", delta_v=1e-3, v_max=0.01)
    with pytest.raises(ValueError):
        evolve(css_rho("single", 2), spec)


def test_spec_validation():
    fr = single_mode_frame(2)
    # the frame's mode picks the countertwisting form, so the generator names none
    for generator in ("nonsense", "countertwist-two", "countertwist-single"):
        with pytest.raises(ValueError):
            EvolutionSpec(frame=fr, generator=generator)
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, delta_v=0.0)
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, delta_v=1e-3, v_max=0.0)
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, delta_v=0.05, v_max=0.01)
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, record_stride=0)


# ------------------------------------------------ real arithmetic on real paths


def _real_density(dim: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    rho = a @ a.T
    return rho / np.trace(rho)


def _rate_before_k_and_s(frame, rho, v, lam):
    """feedback_rate as written with Y and ZY + YZ: r = Z - iLY and the drive
    -i(L/2)[ZY + YZ, rho], the products in the same order."""
    at = frame.at(v)
    z, z2, y, y2, anti = at.z, at.z2, at.y, at.y2, at.zy
    r = z - 1j * lam * y
    rdr = z2 + (lam * lam) * y2 - lam * frame.x_op
    sandwich = (r @ rho) @ r.conj().T
    half = rdr @ rho
    drive = anti @ rho
    return (-0.5j * lam) * (drive - drive.conj().T) + sandwich - 0.5 * (half + half.conj().T)


@pytest.mark.parametrize("lam", (0.0, 0.7, -1.3, 4.0))
@pytest.mark.parametrize("twice_j", (1, 2, 3, 10))
def test_real_averaged_rate_is_the_real_part_of_the_complex_one(twice_j, lam):
    fr = two_mode_frame(twice_j, omega=math.pi / 2e-3)
    rho = _parity_even(_real_density(fr.dim, seed=twice_j))
    full = averaged_rate(fr, rho.astype(complex), lam)
    real = averaged_rate(fr, rho, lam)
    assert real.dtype == float
    assert not full.imag.any()
    assert np.array_equal(real.view(np.uint64), np.ascontiguousarray(full.real).view(np.uint64))


@pytest.mark.parametrize("lam", (0.0, 0.7, -1.3, 4.0))
@pytest.mark.parametrize("v", (0.0, 0.0123, 0.4, 1.7))
def test_k_and_s_rate_equals_the_y_form_bit_for_bit(v, lam):
    # the three-product rate rounds differently from the four-product Y form,
    # so it matches it to 1e-12 here; test_feedback_rate_bytes_are_pinned
    # holds its own bytes
    for twice_j in (2, 4):
        fr = two_mode_frame(twice_j, omega=7.3)
        rho = random_density(fr.dim, seed=twice_j)
        got, want = feedback_rate(fr, rho, v, lam), _rate_before_k_and_s(fr, rho, v, lam)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# sha256 of feedback_rate's bytes on fixed inputs; like the golden artifacts
# they pin this build's floating point
_RATE_SHA256 = {
    "single-6": "376649a3bc332f29b2a11548f2551754dda8a62db76cd3f3131b36fdd150c542",
    "two-2-omega": "10bf02533a5b331738865e7e7376221dcffe91e7410bf6003bf25b86568f50ca",
}


@pytest.mark.parametrize("frame", sorted(_RATE_SHA256))
def test_feedback_rate_bytes_are_pinned(frame):
    if frame == "single-6":
        fr = single_mode_frame(6)
        rho = _real_density(fr.dim, seed=6)
    else:
        fr = two_mode_frame(2, omega=7.3)
        rho = random_density(fr.dim, seed=2)
    rate = feedback_rate(fr, rho, 0.4, 0.7)
    assert hashlib.sha256(rate.tobytes()).hexdigest() == _RATE_SHA256[frame]


@pytest.mark.parametrize("twice_j", (2, 6, 10, 20))
def test_single_mode_rate_on_a_real_state_is_real(twice_j):
    fr = single_mode_frame(twice_j)
    rho = _real_density(fr.dim, seed=twice_j)
    for lam in (0.0, 0.7, -1.3):
        real = feedback_rate(fr, rho, 0.3, lam)
        full = _rate_before_k_and_s(fr, rho.astype(complex), 0.3, lam)
        assert real.dtype == float
        assert np.abs(full.imag).max() == 0.0
        assert np.abs(real - full.real).max() <= 1e-14 * np.abs(full).max()


@pytest.mark.parametrize("mode, twice_j", (("two", 2), ("two", 4), ("single", 4), ("single", 10)))
def test_countertwist_propagator_is_real_orthogonal(mode, twice_j):
    fr = two_mode_frame(twice_j, omega=1.0) if mode == "two" else single_mode_frame(twice_j)
    h = countertwist_hamiltonian(fr)
    energies, vectors = np.linalg.eigh(h)
    full = (vectors * np.exp(-1j * 1e-3 * energies)) @ vectors.conj().T
    u = countertwist_propagator(h, 1e-3)
    assert u.dtype == float
    assert np.abs(u - full).max() < 1e-13
    assert np.abs(u.T @ u - np.eye(fr.dim)).max() < 1e-13


def test_countertwist_propagator_needs_an_imaginary_hamiltonian():
    with pytest.raises(ValueError):
        countertwist_propagator(np.diag([1.0, -1.0]).astype(complex), 1e-3)


def _watch_stacks(monkeypatch, dtype=None):
    """Record the dtype of every stack the step loop hands a step; with
    dtype given, the loop starts from rho0 cast to it and steps that dtype."""
    seen = set()
    loop = dynamics.integrate

    def watched(rho0, spec, controller, step, *args, **kwargs):
        def spied(rho, *rest):
            seen.add(rho.dtype)
            return step(rho, *rest)

        return loop(rho0 if dtype is None else rho0.astype(dtype), spec, controller, spied, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", watched)
    monkeypatch.setattr(stochastic, "integrate", watched)
    if dtype is not None:
        monkeypatch.setattr(dynamics, "_as_stepped", lambda rho0, spec, averaged: rho0)
    return seen


_REAL_PATHS = {
    "averaged-two": dict(mode="two", twice_j=4, scheme="simple", v_max=2.0),
    "averaged-two-optimal": dict(mode="two", twice_j=4, scheme="optimal", v_max=2.0),
    "euler-single": dict(mode="single", twice_j=6, scheme="simple", v_max=2.0),
    "countertwist-two": dict(mode="two", twice_j=4, scheme="countertwist", v_max=1.0),
    "countertwist-single": dict(mode="single", twice_j=6, scheme="countertwist", v_max=1.0),
    "cond-single": dict(
        mode="single", twice_j=6, scheme="simple-conditioned", conditioned=True, seed=3, v_max=2.0
    ),
}


@pytest.mark.parametrize("name", sorted(_REAL_PATHS))
def test_real_run_matches_complex_stepped_run(name, monkeypatch):
    config = SimConfig(stride=10, **_REAL_PATHS[name])
    seen = _watch_stacks(monkeypatch)
    real = run_scenario(config)
    assert seen == {np.dtype(float)}
    monkeypatch.undo()
    seen = _watch_stacks(monkeypatch, complex)
    full = run_scenario(config)
    assert seen == {np.dtype(complex)}
    assert real.ok and full.ok and real.n_rows == full.n_rows
    # zeta < chi flips wherever the two tie to rounding, as at the coherent start
    tied = np.abs(full.column("zeta") - full.column("chi")) < 1e-12
    assert np.array_equal(real.column("entangled")[~tied], full.column("entangled")[~tied])
    for column, want in full.columns.items():
        if column == "entangled":
            continue
        got, finite = real.column(column), np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite), column
        assert np.abs(got - want)[finite].max() <= 1e-12 * np.abs(want[finite]).max(), column


@pytest.mark.parametrize(
    "kw, dtype",
    [
        (dict(mode="two", twice_j=2, scheme="simple"), float),
        (dict(mode="single", twice_j=2, scheme="analytic"), float),
        (dict(mode="two", twice_j=2, scheme="countertwist"), float),
        (dict(mode="single", twice_j=2, scheme="countertwist"), float),
        (dict(mode="two", twice_j=2, scheme="optimal", omega=7.3), complex),
        (dict(mode="two", twice_j=2, scheme="simple-conditioned", conditioned=True), complex),
        (dict(mode="single", twice_j=2, scheme="simple-conditioned", conditioned=True), float),
    ],
    ids=["averaged", "euler-single", "countertwist-two", "countertwist-single", "euler-omega", "cond-two",
         "cond-single"],
)
def test_stack_dtype_follows_the_generator(kw, dtype, monkeypatch):
    seen = _watch_stacks(monkeypatch)
    assert run_scenario(SimConfig(v_max=0.05, stride=10, **kw)).ok
    assert seen == {np.dtype(dtype)}


def _count_expectations(monkeypatch) -> list:
    """Patch every module's expect_real to log each expectation computed;
    a read that a Moments answers again is not logged."""
    calls = []

    def counted(fn):
        def wrapper(op, rho):
            calls.append(op)
            return fn(op, rho)

        return wrapper

    for module in (algebra, dynamics, feedback, metrics, stochastic):
        if hasattr(module, "expect_real"):
            monkeypatch.setattr(module, "expect_real", counted(module.expect_real))
    return calls


@pytest.mark.parametrize(
    "kw, per_row, per_step",
    [
        (dict(mode="single", twice_j=4, scheme="simple"), 3, 2),
        (dict(mode="two", twice_j=2, scheme="simple"), 4, 3),
        (dict(mode="single", twice_j=2, scheme="simple-conditioned", conditioned=True), 5, 3),
        (dict(mode="two", twice_j=2, scheme="optimal", omega=7.3), 5, 4),
    ],
    ids=["single-simple", "two-node", "cond-spin1", "two-off-node"],
)
def test_each_step_computes_each_expectation_once(kw, per_row, per_step, monkeypatch):
    # per recorded step: the gain law, the metrics row and the step share
    # one read and one frame bundle, so <X> and <Z^2> are computed once,
    # not twice, off the frame nodes too
    calls = _count_expectations(monkeypatch)
    for stride, rows in ((1, 21), (10, 3)):
        calls.clear()
        assert run_scenario(SimConfig(v_max=0.02, stride=stride, **kw)).n_rows == rows
        assert len(calls) == rows * per_row + (21 - rows) * per_step, stride


@pytest.mark.parametrize(
    "kw, halves",
    [
        (dict(mode="two", twice_j=3, scheme="optimal"), True),
        (dict(mode="two", twice_j=4, scheme="simple"), True),
        (dict(mode="two", twice_j=2, scheme="simple", omega=7.3), False),
        (dict(mode="single", twice_j=4, scheme="simple"), False),
    ],
    ids=["averaged-odd-2j", "averaged-even-2j", "two-off-node", "single"],
)
def test_averaged_steps_read_the_parity_half(kw, halves, monkeypatch):
    # the start is even only to rounding and is read in full; from the
    # first step on an averaged run reads every moment on the first
    # ceil(n^2/2) flat entries of its exactly even state, and every other
    # run reads the whole state
    seen = []
    full_read = algebra.expect_real

    def watched(op, rho):
        seen.append(rho.size)
        return full_read(op, rho)

    monkeypatch.setattr(algebra, "expect_real", watched)
    config = SimConfig(v_max=0.02, stride=5, **kw)
    assert run_scenario(config).ok
    n = config.frame().dim
    full = [size for size in seen if size == n * n]
    half = [size for size in seen if size == (n * n + 1) // 2]
    assert len(full) + len(half) == len(seen)
    if halves:
        assert half and seen[: len(full)] == full  # the full reads are the first row's
    else:
        assert not half


def test_averaged_run_of_a_law_with_an_odd_read_is_read_in_full(monkeypatch):
    # simple-conditioned also reads the node Z, odd under the parity, which
    # a half read gets wrong: its averaged run reads in full, bit for bit a
    # run whose every read is full, and as <Z> of an even state is zero to
    # rounding, its gain is the simple law's
    config = SimConfig(mode="two", twice_j=3, scheme="simple-conditioned", v_max=0.5, stride=10)
    got = run_scenario(config)
    simple = run_scenario(SimConfig(mode="two", twice_j=3, scheme="simple", v_max=0.5, stride=10))
    monkeypatch.setattr(dynamics, "Moments", lambda rho, even=False: algebra.Moments(rho))
    full = run_scenario(config)
    assert got.ok and got.n_rows == 51
    for name in PLAIN_COLUMNS:
        assert np.array_equal(got.column(name), full.column(name)), name
        assert np.allclose(got.column(name), simple.column(name), rtol=1e-10, atol=1e-14), name


# ------------------------------------------------------------ member stacks


@pytest.mark.parametrize("mode", ("single", "two"))
def test_rate_of_a_stack_is_each_states_rate(mode):
    # on a shared frame each member's rate is, bit for bit, its state's
    # rate with its own gain
    fr = single_mode_frame(6) if mode == "single" else two_mode_frame(2, omega=7.3)
    states = [_real_density(fr.dim, seed=s) if mode == "single" else random_density(fr.dim, seed=s) for s in range(3)]
    lam = np.array([0.7, 0.0, -1.3])
    rates = feedback_rate(fr, np.stack(states), 0.4, lam)
    for k, rho in enumerate(states):
        one = feedback_rate(fr, rho, 0.4, float(lam[k]))
        assert np.array_equal(rates[k].view(np.uint64), one.view(np.uint64))


def test_rate_on_a_member_stacked_frame_keeps_each_spin_in_its_corner():
    spins = (2, 6, 4)
    fr = single_mode_frame(spins)
    states = [_real_density(tj + 1, seed=tj) for tj in spins]
    lam = np.array([0.7, -1.3, 0.2])
    rates = feedback_rate(fr, stack_members(states), 0.4, lam)
    for k, (tj, rho) in enumerate(zip(spins, states)):
        n, one = tj + 1, feedback_rate(single_mode_frame(tj), rho, 0.4, float(lam[k]))
        assert not rates[k, n:].any() and not rates[k, :, n:].any()
        assert np.abs(rates[k, :n, :n] - one).max() <= 1e-14 * np.abs(one).max()
    props = countertwist_propagator(countertwist_hamiltonian(fr), 1e-3)
    for k, tj in enumerate(spins):
        n = tj + 1
        alone = countertwist_propagator(countertwist_hamiltonian(single_mode_frame(tj)), 1e-3)
        assert not props[k, n:, :n].any() and not props[k, :n, n:].any()
        assert np.abs(props[k, :n, :n] - alone).max() <= 1e-14


def test_integrate_records_only_the_named_columns():
    spec = EvolutionSpec(frame=single_mode_frame(4), delta_v=1e-3, v_max=0.05, record_stride=5)
    runs = {
        columns: evolve(css_rho("single", 4), spec, FeedbackScheme("simple"), columns=columns)
        for columns in (PLAIN_COLUMNS, ("xi2", "v", "zeta"))
    }
    full, some = runs.values()
    assert list(some.columns) == ["xi2", "v", "zeta"] and some.n_rows == full.n_rows == 11
    for name in some.columns:
        assert np.array_equal(some.column(name).view(np.uint64), full.column(name).view(np.uint64))


@pytest.mark.parametrize(
    "columns, named",
    [(("v", "foo"), "foo"), (("v", "zc_mean"), "zc_mean"), (("chi",), "v"), ((), "v"), (("v", "zeta", "v"), "v")],
    ids=["unknown", "conditioned-on-a-plain-run", "without-v", "empty", "repeated"],
)
def test_evolve_refuses_a_bad_column_choice_before_the_first_step(columns, named, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(dynamics, "compute_metrics", never)
    monkeypatch.setattr(dynamics, "feedback_rate", never)
    spec = EvolutionSpec(frame=single_mode_frame(2), delta_v=1e-3, v_max=0.05)
    with pytest.raises(ValueError, match=f"column.*'{named}'"):
        evolve(css_rho("single", 2), spec, FeedbackScheme("simple"), columns=columns)


def test_evolve_of_a_stack_on_a_shared_frame_is_each_state_alone():
    spec = EvolutionSpec(frame=single_mode_frame(4), delta_v=1e-3, v_max=0.2)
    states = [css_rho("single", 4), _real_density(5, seed=3)]
    runs = evolve(np.stack(states), spec, FeedbackScheme("simple"))
    assert isinstance(runs, RecordStack) and len(runs) == 2
    for rho, run in zip(states, runs):
        alone = evolve(rho, spec, FeedbackScheme("simple"))
        assert (run.status, run.n_rows) == (alone.status, alone.n_rows)
        for name in PLAIN_COLUMNS:
            assert np.array_equal(run.column(name).view(np.uint64), alone.column(name).view(np.uint64)), name
    # a stack's diagnostics are its worst member's
    assert runs.min_eig_floor == min(run.min_eig_floor for run in runs)
    assert runs.max_trace_drift == max(run.max_trace_drift for run in runs)


def test_the_period_averaged_step_takes_one_state():
    config = SimConfig(mode="two", twice_j=2, v_max=0.01)
    with pytest.raises(ValueError, match="one state"):
        evolve(np.stack([config.initial_state()] * 2), config.spec(), config.controller())
