"""Conditioned trajectories: noise stream, single steps, ensembles."""

import math

import numpy as np
import pytest
from scipy import stats

from spinlab import dynamics
from spinlab.algebra import expect_real, moments_of, single_mode_frame, spin_matrices, two_mode_frame
from spinlab.dynamics import TRACE_WINDOW, EvolutionSpec, evolve
from spinlab.feedback import FeedbackScheme, GainError
from spinlab.metrics import compute_metrics
from spinlab.stochastic import (
    NOISE_BLOCK,
    WienerStream,
    average_records,
    conditioned_step,
    ensemble_average,
    run_trajectories,
    trajectory_run,
)

from conftest import css_rho, random_density


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


def test_real_stack_steps_as_the_complex_stack_real_part():
    frame = single_mode_frame(4)
    rng = np.random.default_rng(5)
    stack = np.stack([random_density(frame.dim, seed=s).real for s in range(4)])  # real states
    lam = np.array([0.7, 0.0, -1.3, 0.2])
    dw = rng.normal(scale=0.03, size=4)
    real = conditioned_step(stack, frame, 0.0, lam, 1e-3, dw)
    full = conditioned_step(stack.astype(complex), frame, 0.0, lam, 1e-3, dw)
    assert real[0].dtype == np.dtype(float) and full[0].dtype == np.dtype(complex)
    assert not full[0].imag.any()
    assert np.abs(real[0] - full[0].real).max() <= 1e-15
    for got, want in zip(real[1:], full[1:]):
        assert np.abs(got - want).max() <= 1e-15


def _step_with_y_kick(rho, frame, v, lam, delta_v, dw):
    """conditioned_step with the kick written as -1j (L dY) Y, not with K:
    the form the step had before it took K = -iY."""
    at = frame.at(v)
    z, z2 = at.z, at.z2
    mz = expect_real(z, rho)
    zr = z @ rho
    half = z2 @ rho
    mid = rho + delta_v * (zr @ z - 0.5 * (half + half.conj().T))
    mid += dw * (zr + zr.conj().T - 2.0 * mz * rho)
    kick = lam * (2.0 * mz * delta_v + dw)
    u = -1j * kick * at.y - 0.5 * kick * kick * at.y2
    u.reshape(-1)[:: u.shape[-1] + 1] += 1.0
    mid = u @ mid @ u.conj().T
    mid /= np.trace(mid).real
    return 0.5 * (mid + mid.conj().T)


@pytest.mark.parametrize("omega, v", ((math.pi / 2e-3, 0.003), (7.3, 0.123)), ids=("node", "off-node"))
def test_two_mode_kick_through_k_keeps_the_y_form_bits(omega, v):
    # K = -iY is exact, so the two-mode conditioned bytes do not move
    frame = two_mode_frame(2, omega=omega)
    rho = random_density(frame.dim, seed=9)
    out, _, _ = conditioned_step(rho, frame, v, 0.7, 1e-3, -0.03)
    want = _step_with_y_kick(rho, frame, v, 0.7, 1e-3, -0.03)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def _step_with_transposed_adjoint(rho, frame, v, lam, delta_v, dw):
    """conditioned_step with its kick as u @ mid @ u^dag, u^dag read off u as
    a transposed view: the form the step had before it built U^dag."""
    at = frame.at(v)
    z, z2 = at.z, at.z2
    mz = expect_real(z, rho)
    dy = 2.0 * mz * delta_v + dw
    zr = z @ rho
    half = z2 @ rho
    mid = rho + delta_v * (zr @ z - 0.5 * (half + half.conj().swapaxes(-1, -2)))
    mid += dw[:, None, None] * (zr + zr.conj().swapaxes(-1, -2) - (2.0 * mz)[:, None, None] * rho)
    kick = (lam * dy)[:, None, None]
    u = kick * at.k - 0.5 * kick * kick * at.y2
    u.reshape(u.shape[:-2] + (-1,))[..., :: u.shape[-1] + 1] += 1.0
    mid = np.where((lam != 0.0)[:, None, None], u @ mid @ u.conj().swapaxes(-1, -2), mid)
    mid /= np.trace(mid, axis1=-2, axis2=-1).real[:, None, None]
    return 0.5 * (mid + mid.conj().swapaxes(-1, -2))


@pytest.mark.parametrize(
    "frame, v",
    ((single_mode_frame(4), 0.0), (two_mode_frame(2, omega=math.pi / 2e-3), 0.003), (two_mode_frame(2, omega=7.3), 0.123)),
    ids=("static-real", "node", "off-node"),
)
def test_built_adjoint_keeps_the_transposed_kick_bits(frame, v):
    # U^dag = 1 - kick K - kick^2 Y^2 / 2 is the array u.conj().T, so the
    # contiguous operand moves no conditioned byte
    real = frame.mode == "single"
    stack = np.stack([random_density(frame.dim, seed=s) for s in range(4)])
    stack = stack.real.copy() if real else stack
    lam = np.array([0.7, 0.0, -1.3, 4.0])
    dw = np.random.default_rng(8).normal(scale=0.03, size=4)
    out, _, _ = conditioned_step(stack, frame, v, lam, 1e-3, dw)
    want = _step_with_transposed_adjoint(stack, frame, v, lam, 1e-3, dw)
    assert out.dtype == want.dtype == (float if real else complex)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


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
    spec = _spec(frame, generator="countertwist", v_max=0.1)
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


def test_trajectory_diagnostics_match_a_replay(monkeypatch):
    monkeypatch.setattr(dynamics, "AUDIT_STRIDE", 7)
    frame = two_mode_frame(1, omega=math.pi / 2e-3)
    spec = _spec(frame, delta_v=1e-3, v_max=0.05)
    controller = FeedbackScheme("simple-conditioned")
    rho0 = css_rho("two", 1)
    rec = trajectory_run(rho0, spec, controller, seed=13, traj_index=2)
    assert rec.ok

    stream = WienerStream(13, 2)
    rho, drift, low = rho0.astype(complex), 0.0, 0.0
    for n in range(spec.n_steps + 1):
        if n % dynamics.AUDIT_STRIDE == 0:
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


def test_trajectory_reports_a_negative_eigenvalue(monkeypatch):
    # a diagonal start is a fixed point of the unfed J_z measurement up to
    # its weights; the audit at v = 0 reads the constructed eigenvalue
    monkeypatch.setattr(dynamics, "AUDIT_STRIDE", 1000)
    frame = single_mode_frame(2)
    rho0 = np.diag([0.75, 0.5, -0.25]).astype(complex)
    spec = _spec(frame, delta_v=1e-3, v_max=0.01)
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



def test_fan_out_starts_no_more_workers_than_tasks(monkeypatch):
    # a stand-in pool records each worker count and maps in this process,
    # so no process starts, whatever jobs asks for
    from spinlab import stochastic

    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(stochastic, "ProcessPoolExecutor", InProcessPool)
    assert stochastic.fan_out(abs, [-1], jobs=3) == [1]
    assert made == []  # one task runs in this process
    assert stochastic.fan_out(abs, [-1, 2, -3], jobs=64) == [1, 2, 3]
    assert stochastic.fan_out(abs, [-1, 2, -3], jobs=2) == [1, 2, 3]
    assert stochastic.fan_out(abs, [], jobs=4) == []
    assert made == [3, 2]

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


# ----------------------------------------------------------------- stacks
# A batch of trajectories is integrated as one (B, n, n) stack; every
# member must come out bit for bit as the trajectory run alone.


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _assert_same_record(a, b):
    assert sorted(a.columns) == sorted(b.columns)
    for name in a.columns:
        assert np.array_equal(_bits(a.column(name)), _bits(b.column(name))), name
    assert (a.status, a.abort_v, a.abort_reason) == (b.status, b.abort_v, b.abort_reason)
    assert a.clamp_events == b.clamp_events
    assert _bits(a.min_eig_floor) == _bits(b.min_eig_floor)
    assert _bits(a.max_trace_drift) == _bits(b.max_trace_drift)
    assert a.meta == b.meta


def _assert_matches_singles(records, rho0, spec, controller, seed):
    assert [r.meta["traj_index"] for r in records] == list(range(len(records)))
    for i, rec in enumerate(records):
        _assert_same_record(rec, trajectory_run(rho0, spec, controller, seed=seed, traj_index=i))


@pytest.mark.parametrize(
    "frame",
    (single_mode_frame(2), two_mode_frame(2, omega=math.pi / 2e-3)),
    ids=("spin-1", "two-mode-quarter-period"),
)
def test_batch_equals_single_trajectories(frame, monkeypatch):
    monkeypatch.setattr(dynamics, "AUDIT_STRIDE", 7)
    mode = frame.mode
    rho0 = css_rho(mode, 2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.06, record_stride=2)
    controller = FeedbackScheme("simple-conditioned")
    records = run_trajectories(rho0, spec, controller, seed=8, n_trajectories=5)
    assert all(r.ok for r in records) and records[0].n_rows == 31
    _assert_matches_singles(records, rho0, spec, controller, seed=8)


class _Threshold(FeedbackScheme):
    """A state-dependent controller: an enormous gain once the conditional
    mean of Z passes a threshold, a mild one before."""

    def __init__(self):
        super().__init__("simple", clamp=1e12)

    def gain(self, rho, frame, v):
        mz = moments_of(rho)(frame.at(v).z)
        return np.where(np.asarray(mz) > 0.15, 1e9, 0.3)[()], False


def test_mixed_batch_keeps_each_status():
    frame = single_mode_frame(2)
    rho0 = css_rho("single", 2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.3)
    controller = _Threshold()
    records = run_trajectories(rho0, spec, controller, seed=4, n_trajectories=8)
    statuses = {r.status for r in records}
    assert statuses == {"ok", "aborted-norm"}
    ended = [r for r in records if not r.ok]
    assert all(r.n_rows < spec.n_steps + 1 for r in ended)
    _assert_matches_singles(records, rho0, spec, controller, seed=4)


class _Refuse(FeedbackScheme):
    """A controller that has no gain for a state whose conditional mean of
    Z passes a threshold, naming each such member of a stack."""

    def __init__(self):
        super().__init__("simple", clamp=1e12)

    def gain(self, rho, frame, v):
        mz = np.atleast_1d(moments_of(rho)(frame.at(v).z))
        members = {int(k): f"no gain at <Z> = {mz[k]:.6g}" for k in np.flatnonzero(mz > 0.15)}
        if members:
            raise GainError(next(iter(members.values())), members)
        return 0.3, False


def test_gain_errors_end_only_their_members():
    frame = single_mode_frame(2)
    rho0 = css_rho("single", 2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.3)
    records = run_trajectories(rho0, spec, _Refuse(), seed=4, n_trajectories=8)
    assert {r.status for r in records} == {"ok", "aborted-gain"}
    _assert_matches_singles(records, rho0, spec, _Refuse(), seed=4)


def test_batching_does_not_change_the_records(monkeypatch):
    from spinlab import stochastic

    frame = single_mode_frame(2)
    rho0 = css_rho("single", 2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.04)
    controller = FeedbackScheme("simple-conditioned")
    whole = run_trajectories(rho0, spec, controller, seed=6, n_trajectories=7)
    pooled = run_trajectories(rho0, spec, controller, seed=6, n_trajectories=7, jobs=3)
    # an element budget of two spin-1 states forces batches of two
    monkeypatch.setattr(stochastic, "BATCH_ELEMENTS", 2 * frame.dim**2)
    split = run_trajectories(rho0, spec, controller, seed=6, n_trajectories=7)
    for a, b, c in zip(whole, pooled, split):
        _assert_same_record(a, b)
        _assert_same_record(a, c)


def test_noise_blocks_equal_single_increments():
    dv = 1e-3
    blocks = WienerStream(7, 3)
    draws = np.concatenate([blocks.increments(dv, NOISE_BLOCK), blocks.increments(dv, 5)])
    single = WienerStream(7, 3)
    assert np.array_equal(draws, [single.increment(dv) for _ in range(NOISE_BLOCK + 5)])


def test_trajectory_replays_across_a_noise_block_boundary(monkeypatch):
    frame = single_mode_frame(2)
    dv = 1e-3
    spec = _spec(frame, delta_v=dv, v_max=(NOISE_BLOCK + 3) * dv)
    assert spec.n_steps == NOISE_BLOCK + 3
    # one audit, of the start: the replay reads no audit
    monkeypatch.setattr(dynamics, "AUDIT_STRIDE", spec.n_steps + 1)
    controller = FeedbackScheme("simple-conditioned")
    rho0 = css_rho("single", 2)
    rec = trajectory_run(rho0, spec, controller, seed=2, traj_index=1)
    stream = WienerStream(2, 1)
    rho = rho0.real  # the run steps this real start as float64
    for n in range(spec.n_steps):
        lam, _ = controller.gain(rho, frame, n * dv)
        rho, _, _ = conditioned_step(rho, frame, n * dv, lam, dv, stream.increment(dv))
    assert rec.ok and rec.n_rows == spec.n_steps + 1
    last = compute_metrics(rho, frame, v=spec.n_steps * dv, conditioned=True)
    assert _bits(rec.column("zeta")[-1]) == _bits(last.zeta)
    assert _bits(rec.column("zc_mean")[-1]) == _bits(last.zc_mean)


class _Constant(FeedbackScheme):
    """One scalar gain for every state, as a hand-written controller returns."""

    def __init__(self, lam, clamped):
        super().__init__("simple", clamp=1e12)
        self.lam, self.clamped = lam, clamped

    def gain(self, rho, frame, v):
        return self.lam, self.clamped


@pytest.mark.parametrize("lam,clamped", ((0.4, False), (0.25, True), (1e6, False)))
def test_scalar_controller_gain_is_broadcast(lam, clamped):
    frame = single_mode_frame(2)
    rho0 = css_rho("single", 2)
    spec = _spec(frame, delta_v=1e-3, v_max=0.05)
    controller = _Constant(lam, clamped)
    records = run_trajectories(rho0, spec, controller, seed=12, n_trajectories=4)
    assert all(np.all(r.column("lam") == lam) for r in records)
    if clamped:
        assert all(r.clamp_events == r.n_rows for r in records)
    if lam > 1e3:
        assert not any(r.ok for r in records)
    _assert_matches_singles(records, rho0, spec, controller, seed=12)


def test_stacked_step_equals_single_steps():
    frame = two_mode_frame(2, omega=math.pi / 0.002)
    rng = np.random.default_rng(3)
    stack = np.stack([random_density(frame.dim, seed=s) for s in range(4)])
    lam = np.array([0.7, 0.0, -1.3, 0.2])
    dw = rng.normal(scale=0.03, size=4)
    out, dy, trace = conditioned_step(stack, frame, 0.123, lam, 1e-3, dw)
    for k in range(4):
        one = conditioned_step(stack[k], frame, 0.123, lam[k], 1e-3, dw[k])
        assert np.array_equal(out[k].view(np.uint64), one[0].view(np.uint64))
        assert _bits(dy[k]) == _bits(one[1]) and _bits(trace[k]) == _bits(one[2])
