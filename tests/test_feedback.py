"""Gain laws: values on known states, root equivalence, clamping."""

import math

import numpy as np
import pytest
from conftest import css_rho, random_density

from spinlab.algebra import expect_real, single_mode_frame, two_mode_frame
from spinlab.dynamics import feedback_rate, unconditioned_step
from spinlab.feedback import (
    FeedbackScheme,
    GainError,
    lambda_analytic,
    lambda_optimal,
    lambda_simple,
    lambda_simple_conditioned,
    lambda_spin1,
    moment_block,
)


def locus_slope(lam: float, moments) -> float:
    """d(zeta)/d(chi) along the deterministic flow, from the same moment
    block the optimal law uses: (lam^2 d - lam e) / (lam g - f (1 + lam^2));
    the optimal law's oracle."""
    d, e, f, g = moments
    return (lam * lam * d - lam * e) / (lam * g - f * (1.0 + lam * lam))


def test_coherent_state_moment_block():
    fr = two_mode_frame(1, omega=1.0)
    d, e, f, g = moment_block(css_rho("two", 1), fr, 0.0)
    assert (d, e, f, g) == pytest.approx((0.5, 1.0, 0.5, 1.0), abs=1e-12)


@pytest.mark.parametrize("mode,twice_j", (("two", 1), ("two", 4), ("single", 2), ("single", 10)))
def test_all_state_laws_start_at_unit_gain(mode, twice_j):
    fr = two_mode_frame(twice_j, omega=1.0) if mode == "two" else single_mode_frame(twice_j)
    rho = css_rho(mode, twice_j)
    assert lambda_simple(rho, fr, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert lambda_optimal(rho, fr, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_analytic_law_values():
    assert lambda_analytic(0.0, 5.0, "two") == 1.0
    assert lambda_analytic(0.0, 1.0, "single") == 1.0
    assert lambda_analytic(2.0, 5.0, "two") == pytest.approx(math.exp(0.5) / 21.0, rel=1e-14)
    assert lambda_analytic(2.0, 1.0, "single") == pytest.approx(math.exp(1.0) / 5.0, rel=1e-14)


def test_spin1_law_values():
    assert lambda_spin1(0.0) == 1.0
    assert lambda_spin1(1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.e - 1.0), rel=1e-14)
    # monotone decay toward zero
    vs = np.linspace(0.0, 6.0, 30)
    gains = [lambda_spin1(v) for v in vs]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def _states_along_flow(frame, twice_j, mode, v_stop, dv=1e-3):
    """Integrate simple feedback and return (v, rho) snapshots."""
    rho = css_rho(mode, twice_j)
    scheme = FeedbackScheme("simple")
    out = []
    v = 0.0
    n = round(v_stop / dv)
    for k in range(n):
        v = k * dv
        if k % 100 == 0:
            out.append((v, rho.copy()))
        lam, _ = scheme.gain(rho, frame, v)
        rho = unconditioned_step(rho, feedback_rate(frame, rho, v, lam), dv)
    return out


def test_optimal_equals_closed_form_on_spin1_flow():
    """At the smallest nontrivial spin the variance-ratio law, the
    stationary-slope law, and the closed-form schedule all agree."""
    fr = single_mode_frame(2)
    for v, rho in _states_along_flow(fr, 2, "single", v_stop=2.0):
        want = lambda_spin1(v)
        assert lambda_simple(rho, fr, v) == pytest.approx(want, abs=2e-3)
        assert lambda_optimal(rho, fr, v) == pytest.approx(want, abs=2e-3)


def test_optimal_root_matches_quadratic_solution():
    """The rationalised expression must solve the stationarity quadratic
    (dg - ef) L^2 - 2 df L + ef = 0 whenever that quadratic is regular."""
    fr = two_mode_frame(2, omega=math.pi / (2e-3))
    for seed in range(6):
        rho = random_density(9, seed=seed)
        d, e, f, g = moment_block(rho, fr, 0.0)
        try:
            lam = lambda_optimal(rho, fr, 0.0)
        except GainError:
            continue
        residual = (d * g - e * f) * lam * lam - 2.0 * d * f * lam + e * f
        scale = max(abs(d * g - e * f), abs(d * f), abs(e * f), 1.0)
        assert abs(residual) / scale < 1e-9


def test_optimal_gain_maximises_descent_slope():
    fr = single_mode_frame(2)
    v, rho = _states_along_flow(fr, 2, "single", v_stop=1.0)[-1]
    moments = moment_block(rho, fr, v)
    lam = lambda_optimal(rho, fr, v)
    best = locus_slope(lam, moments)
    for eps in (1e-3, -1e-3, 0.05, -0.05):
        assert locus_slope(lam + eps, moments) <= best + 1e-12


def test_optimal_rejects_structureless_state():
    fr = two_mode_frame(1, omega=1.0)
    mixed = np.eye(4) / 4.0
    with pytest.raises(GainError):
        lambda_optimal(mixed, fr, 0.0)


def test_conditioned_variant_subtracts_mean():
    fr = single_mode_frame(2)
    rng = np.random.default_rng(5)
    vec = rng.normal(size=3) + 1j * rng.normal(size=3)
    vec /= np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    mz = expect_real(fr.at(0.0).z, rho)
    mz2 = expect_real(fr.at(0.0).z2, rho)
    mx = expect_real(fr.x_op, rho)
    assert abs(mz) > 1e-3  # displaced state, else the test is vacuous
    assert lambda_simple(rho, fr, 0.0) == pytest.approx(2 * mz2 / mx, rel=1e-12)
    assert lambda_simple_conditioned(rho, fr, 0.0) == pytest.approx(
        2 * (mz2 - mz * mz) / mx, rel=1e-12
    )


def test_state_laws_read_node_averaged_moments():
    dv = 1e-3
    fr = two_mode_frame(2, omega=math.pi / (2 * dv))
    rho = random_density(9, seed=21)
    nodes = (0.0, dv)
    mean = lambda name: 0.5 * sum(expect_real(getattr(fr.at(t), name), rho) for t in nodes)
    mz2 = mean("z2")
    mx = expect_real(fr.x_op, rho)
    mz_sq = 0.5 * sum(expect_real(fr.at(t).z, rho) ** 2 for t in nodes)
    assert abs(expect_real(fr.at(0.0).z, rho)) > 1e-3  # else the mean of squares is vacuous
    assert lambda_simple(rho, fr, nodes) == pytest.approx(2 * mz2 / mx, rel=1e-12)
    assert lambda_simple_conditioned(rho, fr, nodes) == pytest.approx(2 * (mz2 - mz_sq) / mx, rel=1e-12)
    d = expect_real(fr.x2_op, rho) - mz2
    e = 4.0 * mean("zxz") + mx
    assert moment_block(rho, fr, nodes) == pytest.approx((d, e, 0.5 * mx, 2.0 * mz2), rel=1e-12)
    # the node moments differ, so the averaged gains are not the node-0 gains
    assert lambda_simple(rho, fr, nodes) != pytest.approx(lambda_simple(rho, fr, 0.0), rel=1e-6)
    for kind, law in (("simple", lambda_simple), ("simple-conditioned", lambda_simple_conditioned)):
        assert FeedbackScheme(kind).gain(rho, fr, nodes) == (law(rho, fr, nodes), False)
    # schedules read only the current time
    assert FeedbackScheme("analytic").gain(rho, fr, (0.4, 0.4 + dv))[0] == lambda_analytic(0.4, 1.0, "two")


def test_scheme_none_is_inert():
    fr = single_mode_frame(2)
    assert FeedbackScheme("none").gain(css_rho("single", 2), fr, 0.3) == (0.0, False)


def test_scheme_validation():
    with pytest.raises(ValueError):
        FeedbackScheme("bogus")
    with pytest.raises(ValueError):
        FeedbackScheme("simple", clamp=0.0)
    # an infinite bound would hand a diverging gain to the step as +-inf
    with pytest.raises(ValueError, match="clamp"):
        FeedbackScheme("simple", clamp=math.inf)


def test_clamp_flags_and_signs():
    fr = single_mode_frame(2)
    rho = css_rho("single", 2)
    lam, clamped = FeedbackScheme("simple", clamp=0.25).gain(rho, fr, 0.0)
    assert clamped and lam == 0.25
    # depolarised state drives the simple law to infinity: clamp, keep sign
    mixed = np.eye(3) / 3.0
    lam, clamped = FeedbackScheme("simple", clamp=10.0).gain(mixed, fr, 0.0)
    assert clamped and abs(lam) == 10.0


def test_locus_slope_formula():
    moments = (0.3, 1.1, 0.4, 0.9)
    lam = 0.7
    d, e, f, g = moments
    want = (lam * lam * d - lam * e) / (lam * g - f * (1 + lam * lam))
    assert locus_slope(lam, moments) == pytest.approx(want, rel=1e-14)


def _stack_of_states(dim):
    """Random states, plus the maximally mixed one where the simple laws diverge."""
    return np.stack([random_density(dim, seed=s) for s in range(4)] + [np.eye(dim) / dim])


@pytest.mark.parametrize("kind", ("none", "simple", "simple-conditioned", "analytic", "optimal", "spin1-analytic"))
def test_stacked_gain_equals_per_state_gains(kind):
    dv = 1e-3
    fr = two_mode_frame(2, omega=math.pi / (2 * dv))
    stack = _stack_of_states(fr.dim)
    scheme = FeedbackScheme(kind, clamp=5.0)
    for t in (0.3, (0.3, 0.3 + dv)):
        singles, failed = [], {}
        for k, rho in enumerate(stack):
            try:
                singles.append(scheme.gain(rho, fr, t))
            except GainError as err:
                failed[k] = str(err)
        if failed:
            with pytest.raises(GainError) as caught:
                scheme.gain(stack, fr, t)
            assert caught.value.members == failed
            continue
        lam, clamped = scheme.gain(stack, fr, t)
        want = np.array([g for g, _ in singles])
        assert np.array_equal(np.broadcast_to(lam, want.shape).view(np.uint64), want.view(np.uint64))
        assert np.count_nonzero(clamped) == sum(c for _, c in singles)
        if clamped is not False and np.ndim(clamped):
            assert list(clamped) == [c for _, c in singles]


def test_stacked_optimal_law_names_each_failed_member():
    fr = two_mode_frame(1, omega=1.0)
    stack = np.stack([css_rho("two", 1), np.eye(4) / 4.0, css_rho("two", 1)])
    with pytest.raises(GainError) as caught:
        lambda_optimal(stack, fr, 0.0)
    with pytest.raises(GainError) as alone:
        lambda_optimal(stack[1], fr, 0.0)
    assert caught.value.members == {1: str(alone.value)}
    assert lambda_optimal(stack[::2], fr, 0.0).tolist() == [lambda_optimal(css_rho("two", 1), fr, 0.0)] * 2
