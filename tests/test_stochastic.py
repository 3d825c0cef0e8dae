"""Conditioned trajectories: noise stream, single steps, ensembles."""

import math

import numpy as np
import pytest
from scipy import stats

from spinlab.algebra import single_mode_frame, spin_matrices, two_mode_frame
from spinlab.dynamics import EvolutionSpec, evolve
from spinlab.feedback import FeedbackScheme
from spinlab.stochastic import (
    TRACE_WINDOW,
    WienerStream,
    average_records,
    conditioned_step,
    ensemble_average,
    run_trajectories,
    trajectory_run,
)

from conftest import css_rho


def _spec(frame, **kw):
    kw.setdefault("generator", "feedback")
    return EvolutionSpec(frame=frame, **kw)


# ---------------------------------------------------------------- noise


def test_stream_is_reproducible():
    a = WienerStream(11, 3)
    b = WienerStream(11, 3)
    draws = [(a.increment(1e-3), b.increment(1e-3)) for _ in range(100)]
    assert all(x == y for x, y in draws)


def test_stream_keys_are_independent():
    a = WienerStream(11, 0).increment(1.0)
    b = WienerStream(11, 1).increment(1.0)
    c = WienerStream(12, 0).increment(1.0)
    assert a != b and a != c and b != c


def test_stream_rejects_negative_keys():
    with pytest.raises(ValueError):
        WienerStream(-1)
    with pytest.raises(ValueError):
        WienerStream(0, -2)


def test_increment_variance_scales_with_step():
    stream = WienerStream(5)
    dv = 2e-3
    draws = np.array([stream.increment(dv) for _ in range(200_000)])
    assert abs(draws.var() - dv) < 0.01 * dv
    assert abs(draws.mean()) < 4 * math.sqrt(dv / len(draws))


def test_block_sums_are_gaussian():
    # sums of 16 increments should be N(0, 16 dv); fixed seed keeps this
    # a regression test rather than a flaky one
    stream = WienerStream(123)
    dv = 1e-3
    draws = np.array([stream.increment(dv) for _ in range(16 * 2000)])
    sums = draws.reshape(-1, 16).sum(axis=1)
    _, p = stats.kstest(sums, "norm", args=(0.0, math.sqrt(16 * dv)))
    assert p > 0.01


# ---------------------------------------------------------- single steps


def test_measurement_eigenstate_is_fixed_point():
    frame = single_mode_frame(4)
    # projector onto one J_z eigenstate: back-action has nothing to do
    rho = np.zeros((5, 5), dtype=complex)
    rho[1, 1] = 1.0
    out, dy, trace = conditioned_step(rho, frame, v=0.0, lam=0.0, delta_v=1e-3, dw=0.02)
    assert np.abs(out - rho).max() < 1e-15
    assert trace == pytest.approx(1.0)
    # the record still carries the eigenvalue signal: m = 1 for this level
    assert dy == pytest.approx(2.0 * 1.0 * 1e-3 + 0.02)


def test_step_preserves_trace_and_hermiticity():
    frame = two_mode_frame(2, omega=math.pi / 0.002)
    rho = css_rho("two", 2)
    out, _, _ = conditioned_step(rho, frame, v=0.123, lam=0.7, delta_v=1e-3, dw=-0.03)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.abs(out - out.conj().T).max() == 0.0


def test_step_keeps_pure_states_nearly_pure():
    frame = single_mode_frame(2)
    rho = css_rho("single", 2)
    stream = WienerStream(2)
    dv = 1e-3
    for n in range(200):
        rho, _, _ = conditioned_step(rho, frame, n * dv, 0.0, dv, stream.increment(dv))
    purity = float(np.sum(rho.real**2 + rho.imag**2))
    assert purity > 1.0 - 5e-3


# ----------------------------------------------------------- trajectories


def test_trajectory_reproducible_and_index_sensitive():
    frame = single_mode_frame(2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.2)
    rho0 = css_rho("single", 2)
    a = trajectory_run(rho0, spec, seed=9, traj_index=4)
    b = trajectory_run(rho0, spec, seed=9, traj_index=4)
    c = trajectory_run(rho0, spec, seed=9, traj_index=5)
    assert np.array_equal(a.column("zeta"), b.column("zeta"))
    assert not np.array_equal(a.column("zeta"), c.column("zeta"))
    assert a.meta["conditioned"] and a.meta["traj_index"] == 4


def test_trajectory_rejects_non_feedback_generator():
    frame = single_mode_frame(2)
    spec = _spec(frame, generator="countertwist-single", v_max=0.1)
    with pytest.raises(ValueError, match="feedback"):
        trajectory_run(css_rho("single", 2), spec)


def test_trajectory_abort_on_norm_blowup():
    class Kick(FeedbackScheme):
        def __init__(self):
            super().__init__("simple", clamp=1e12)

        def gain(self, rho, frame, v):
            return 1e9, False

    frame = single_mode_frame(2)
    spec = _spec(frame, delta_v=1e-3, v_max=1.0)
    rec = trajectory_run(css_rho("single", 2), spec, Kick(), seed=1)
    assert rec.status in ("aborted-norm", "aborted-nonfinite")
    assert not rec.ok
    assert rec.abort_v is not None and rec.abort_v <= 1.0
    assert rec.n_rows >= 1  # the pre-abort prefix is preserved


def test_trajectory_row_contract():
    frame = single_mode_frame(2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.1, record_stride=7)
    rec = trajectory_run(css_rho("single", 2), spec, seed=3)
    assert rec.n_rows == 100 // 7 + 1
    v = rec.column("v")
    assert v[0] == 0.0 and np.all(np.diff(v) > 0)


def test_trajectory_diagnostics_match_a_replay():
    frame = two_mode_frame(1, omega=math.pi / 2e-3)
    spec = _spec(frame, delta_v=1e-3, v_max=0.05, audit_stride=7)
    controller = FeedbackScheme("simple-conditioned")
    rho0 = css_rho("two", 1)
    rec = trajectory_run(rho0, spec, controller, seed=13, traj_index=2)
    assert rec.ok

    stream = WienerStream(13, 2)
    rho, drift, low = rho0.astype(complex), 0.0, 0.0
    for n in range(spec.n_steps + 1):
        if n % spec.audit_stride == 0:
            low = min(low, float(np.linalg.eigvalsh(rho)[0]))
        if n == spec.n_steps:
            break
        lam, _ = controller.gain(rho, frame, n * spec.delta_v)
        dw = stream.increment(spec.delta_v)
        rho, _, trace = conditioned_step(rho, frame, n * spec.delta_v, lam, spec.delta_v, dw)
        drift = max(drift, abs(trace - 1.0))
    assert drift > 0.0
    assert rec.max_trace_drift == drift
    assert rec.min_eig_floor == low


def test_trajectory_reports_a_negative_eigenvalue():
    # a diagonal start is a fixed point of the unfed J_z measurement up to
    # its weights; the audit at v = 0 reads the constructed eigenvalue
    frame = single_mode_frame(2)
    rho0 = np.diag([0.75, 0.5, -0.25]).astype(complex)
    spec = _spec(frame, delta_v=1e-3, v_max=0.01, audit_stride=1000)
    rec = trajectory_run(rho0, spec, seed=1)
    assert rec.min_eig_floor == -0.25


# -------------------------------------------------------------- ensembles


def test_conditional_mean_is_a_martingale():
    frame = single_mode_frame(2)
    spec = _spec(frame, delta_v=1e-3, v_max=1.0, record_stride=250)
    ens = ensemble_average(css_rho("single", 2), spec, seed=21, n_trajectories=96)
    zc = ens.columns["zc_mean"]
    sem = ens.sem["zc_mean"]
    assert np.all(np.abs(zc) <= 4.0 * sem + 1e-12)


def test_ensemble_mean_matches_unconditioned_evolution():
    # averaging the record away must recover the deterministic channel
    frame = single_mode_frame(2)
    spec = _spec(frame, delta_v=1e-3, v_max=1.0, record_stride=500)
    rho0 = css_rho("single", 2)
    ens = ensemble_average(rho0, spec, seed=17, n_trajectories=128)
    det = evolve(rho0, spec)
    for col in ("mz2", "chi"):
        diff = np.abs(ens.columns[col] - det.column(col))
        bound = 4.0 * ens.sem[col] + 1e-9
        assert np.all(diff <= bound), (col, diff, bound)


def test_run_trajectories_process_pool_matches_serial():
    frame = single_mode_frame(2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.05)
    rho0 = css_rho("single", 2)
    serial = run_trajectories(rho0, spec, seed=2, n_trajectories=4, jobs=1)
    parallel = run_trajectories(rho0, spec, seed=2, n_trajectories=4, jobs=2)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.column("zeta"), b.column("zeta"))


def test_average_records_drops_aborted():
    frame = single_mode_frame(2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.1)
    rho0 = css_rho("single", 2)
    good = [trajectory_run(rho0, spec, seed=4, traj_index=i) for i in range(3)]
    bad = trajectory_run(rho0, _spec(frame, generator="feedback", delta_v=1e-3, v_max=0.1), None, 4, 3)
    bad.status = "aborted-norm"
    ens = average_records(good + [bad])
    assert ens.n_trajectories == 3
    want = np.stack([r.column("zeta") for r in good]).mean(axis=0)
    assert np.allclose(ens.columns["zeta"], want, atol=1e-15)
    sem = np.stack([r.column("zeta") for r in good]).std(axis=0, ddof=1) / math.sqrt(3)
    assert np.allclose(ens.sem["zeta"], sem, atol=1e-15)


def test_average_records_requires_a_survivor():
    frame = single_mode_frame(2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.05)
    rec = trajectory_run(css_rho("single", 2), spec, seed=5)
    rec.status = "aborted-trace"
    rec.abort_reason = "synthetic"
    with pytest.raises(RuntimeError, match="aborted"):
        average_records([rec])


def test_trace_window_bounds_renormalisation():
    lo, hi = TRACE_WINDOW
    assert lo < 1.0 < hi
