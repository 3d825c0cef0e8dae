"""Deterministic evolution: superoperators, the optimized generator, and
the integrator's recording/abort behaviour."""

import math

import numpy as np
import pytest
from conftest import css_rho, random_density

from spinlab.algebra import single_mode_frame, spin_matrices, two_mode_frame
from spinlab.dynamics import (
    EvolutionSpec,
    averaged_rate,
    countertwist_hamiltonian,
    countertwist_propagator,
    countertwisting_step,
    dissipator,
    evolve,
    feedback_rate,
    unconditioned_step,
)
from spinlab.feedback import FeedbackScheme


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


@pytest.mark.parametrize("lam", (0.0, 0.7, -1.3, 4.0))
@pytest.mark.parametrize("v", (0.0, 1e-3, 3e-3, 0.0071234))
def test_feedback_rate_matches_plain_assembly(v, lam):
    """The cached-product generator must equal the same equation built
    naively from the public frame operators and dense products."""
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    rho = random_density(9, seed=11)
    z, y = fr.z_at(v), fr.y_at(v)
    r = z - 1j * lam * y
    rd = r.conj().T
    h = 0.5 * lam * (z @ y + y @ z)
    want = (
        -1j * (h @ rho - rho @ h)
        + r @ rho @ rd
        - 0.5 * (rd @ r @ rho + rho @ rd @ r)
    )
    assert np.abs(feedback_rate(fr, rho, v, lam) - want).max() < 1e-12


@pytest.mark.parametrize("lam", (0.0, 0.7, -1.3, 4.0))
def test_averaged_rate_is_mean_of_node_rates(lam):
    # odd 2j gives an even per-sample dimension; rho is complex, not real
    dv = 1e-3
    for twice_j in (1, 2, 3, 10):
        fr = two_mode_frame(twice_j, omega=math.pi / (2 * dv))
        rho = random_density(fr.dim, seed=11)
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


def test_quarter_period_steps_are_exactly_hermitian(monkeypatch):
    from spinlab import dynamics

    steps = []

    def recording_step(*args, **kwargs):
        out = unconditioned_step(*args, **kwargs)
        steps.append(out)
        return out

    monkeypatch.setattr(dynamics, "unconditioned_step", recording_step)
    rho0 = random_density(16, seed=21)  # complex, not real
    rho0[0, 1] += 1e-15  # and not bitwise Hermitian until the run makes it so
    _, rec = _quarter_period_run(3, rho0, v_max=0.03)
    assert rec.ok and len(steps) == 30
    for out in steps:
        again = 0.5 * (out + out.conj().T)
        assert np.array_equal(out.view(np.uint64), again.view(np.uint64))


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
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    rho = random_density(9, seed=12)
    out = unconditioned_step(rho, fr, v=0.002, lam=0.9, delta_v=1e-3)
    assert abs(np.trace(out).real - 1.0) < 1e-13
    assert np.abs(out - out.conj().T).max() == 0.0


def test_step_without_gain_is_pure_dephasing():
    fr = single_mode_frame(2)
    rho = random_density(3, seed=13)
    dv = 1e-3
    out = unconditioned_step(rho, fr, v=0.5, lam=0.0, delta_v=dv)
    want = rho + dv * dissipator(fr.z_at(0.5), rho)
    assert np.abs(out - 0.5 * (want + want.conj().T)).max() < 1e-14


def test_countertwist_two_mode_form():
    fr = two_mode_frame(2, omega=1.0)
    m = spin_matrices(2)
    h = countertwist_hamiltonian(fr, "countertwist-two")
    want = np.kron(m.jz, m.jy) + np.kron(m.jy, m.jz)
    assert np.abs(h - want).max() == 0.0
    assert np.abs(h - h.conj().T).max() < 1e-14


def test_countertwist_single_mode_form():
    fr = single_mode_frame(4)
    m = spin_matrices(4)
    h = countertwist_hamiltonian(fr, "countertwist-single")
    want = 0.5 * (m.jz @ m.jy + m.jy @ m.jz)
    assert np.abs(h - want).max() == 0.0


def test_countertwist_needs_matching_frame():
    with pytest.raises(ValueError):
        countertwist_hamiltonian(single_mode_frame(2), "countertwist-two")
    with pytest.raises(ValueError):
        countertwist_hamiltonian(single_mode_frame(2), "bogus")


def test_countertwisting_step_preserves_trace_exactly():
    fr = two_mode_frame(2, omega=1.0)
    u = countertwist_propagator(countertwist_hamiltonian(fr, "countertwist-two"), 1e-3)
    rho = css_rho("two", 2)
    for _ in range(50):
        rho = countertwisting_step(rho, u)
    assert abs(np.trace(rho).real - 1.0) < 1e-13


def test_countertwist_keeps_measured_variances_balanced():
    # from the coherent start the two measured second moments stay equal
    fr = two_mode_frame(4, omega=math.pi / (2e-3))
    spec = EvolutionSpec(frame=fr, generator="countertwist-two", delta_v=1e-3, v_max=1.0)
    rec = evolve(css_rho("two", 4), spec)
    m, eye = spin_matrices(4), np.eye(5)
    jzp = np.kron(m.jz, eye) + np.kron(eye, m.jz)
    jym = np.kron(m.jy, eye) - np.kron(eye, m.jy)
    from spinlab.algebra import expect_real

    # reconstruct the imbalance from a fresh integration of the same flow
    u = countertwist_propagator(countertwist_hamiltonian(fr, "countertwist-two"), 1e-3)
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
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, generator="nonsense")
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, delta_v=0.0)
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, delta_v=1e-3, v_max=0.0)
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, delta_v=0.05, v_max=0.01)
    with pytest.raises(ValueError):
        EvolutionSpec(frame=fr, record_stride=0)
