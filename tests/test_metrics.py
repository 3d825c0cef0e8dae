"""Figures of merit: squeezing ratio, conditional variants, scheme sweeps."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from spinlab import dynamics, metrics
from spinlab.algebra import Moments, single_mode_frame, spin_matrices, stack_members, two_mode_frame
from spinlab.dynamics import EvolutionSpec, evolve
from spinlab.feedback import FeedbackScheme
from spinlab.harness import SimConfig
from spinlab.metrics import (
    BRACKET_RATIO,
    CHI_FLOOR,
    METRIC_COLUMNS,
    PLAIN_COLUMNS,
    STACK_MAX_DIM,
    SWEEP_COLUMNS,
    ZETA_RESOLUTION_STEPS,
    SweepPoint,
    _xi2_minimum,
    compute_metrics,
    min_squeezing_sweep,
    parabolic_min,
    squeezing_xi2,
    sweep_stop,
)
from spinlab.trajectory import STATUS_OK

from conftest import RecordedMoments, css_rho, random_density, random_pure


def test_css_rows_two_mode():
    frame = two_mode_frame(10, omega=50.0)
    rho = css_rho("two", 10)
    row = compute_metrics(rho, frame, v=0.25, lam=1.5)
    assert abs(row.zeta - 1.0) < 1e-12
    assert abs(row.chi - 1.0) < 1e-12
    assert abs(row.purity - 1.0) < 1e-12
    assert abs(row.xi2 - 1.0) < 1e-11
    assert row.v == 0.25 and row.lam == 1.5
    assert row.zc_mean is None and row.yc_mean is None
    # raw variance of the rotating quadrature: j/2 per sample at phase zero
    assert abs(row.mz2 - 5.0) < 1e-10


def test_css_rows_single_mode():
    frame = single_mode_frame(2)
    row = compute_metrics(css_rho("single", 2), frame)
    assert abs(row.zeta - 1.0) < 1e-12
    assert abs(row.chi - 1.0) < 1e-12
    assert abs(row.mz2 - 0.5) < 1e-12


def test_maximally_mixed_sentinels():
    frame = two_mode_frame(2, omega=10.0)
    dim = frame.dim
    rho = np.eye(dim, dtype=complex) / dim
    row = compute_metrics(rho, frame)
    assert abs(row.purity - 1.0 / dim) < 1e-14
    assert abs(row.chi) < 1e-14
    assert math.isnan(row.xi2)
    assert not row.entangled  # zeta > 0 = chi, no strict inequality


def test_xi2_sentinel_values():
    assert squeezing_xi2(0.5, 1.0) == 0.5
    assert math.isnan(squeezing_xi2(0.5, CHI_FLOOR / 2))
    assert math.isnan(squeezing_xi2(0.0, 1.0))
    # a variance that rounded below zero is noise, not perfect squeezing
    assert math.isnan(squeezing_xi2(-1e-9, 1.0))


def test_xi2_of_arrays_is_each_members_xi2():
    # valid members keep the bits of zeta / (chi * chi); a chi at or below
    # the floor, a zeta at or below zero and NaN in either give NaN
    zeta = np.array([0.5, 0.3, 0.5, 0.5, 0.0, -0.0, -1e-9, math.nan, 0.4, math.inf, 0.2])
    chi = np.array([1.0, 0.7, CHI_FLOOR, CHI_FLOOR / 2, 1.0, 1.0, 1.0, 1.0, math.nan, 0.9, -0.5])
    got = squeezing_xi2(zeta, chi)
    want = np.array([squeezing_xi2(float(z), float(c)) for z, c in zip(zeta, chi)])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(got[:2].view(np.uint64), (zeta[:2] / (chi[:2] * chi[:2])).view(np.uint64))
    assert np.isnan(got[2:9]).all() and got[9] == math.inf and math.isnan(got[10])


def test_entangled_flag_on_frontier_state():
    from spinlab.optimal_states import optimal_curve

    points = [p for p in optimal_curve("two", 2, n_mu=40) if p.mu > 0 and not p.degenerate]
    best = min(points, key=lambda p: p.xi2 if math.isfinite(p.xi2) else math.inf)
    assert best.zeta < best.chi
    assert best.xi2 < 1.0


def test_conditioned_subtracts_single_mode_mean(rng):
    frame = single_mode_frame(2)
    rho = np.outer(*(lambda p: (p, p.conj()))(random_pure(3, rng)))
    plain = compute_metrics(rho, frame)
    cond = compute_metrics(rho, frame, conditioned=True)
    jz = spin_matrices(2).jz
    jy = spin_matrices(2).jy
    zc = float(np.trace(jz @ rho).real)
    assert abs(cond.zc_mean - zc) < 1e-12
    assert abs(cond.yc_mean - float(np.trace(jy @ rho).real)) < 1e-12
    # plain zeta is reconstructable from the mean-subtracted one
    assert abs(plain.zeta - (cond.zeta + 2.0 * zc**2 / frame.zeta_norm)) < 1e-12
    assert cond.zeta <= plain.zeta + 1e-15


def test_conditioned_subtracts_two_mode_means(rng):
    frame = two_mode_frame(2, omega=10.0)
    psi = random_pure(frame.dim, rng)
    rho = np.outer(psi, psi.conj())
    plain = compute_metrics(rho, frame)
    cond = compute_metrics(rho, frame, conditioned=True)
    back = cond.zeta + (cond.zc_mean**2 + cond.yc_mean**2) / frame.zeta_norm
    assert abs(plain.zeta - back) < 1e-12


def test_parabolic_min_recovers_vertex():
    f = lambda x: 3.0 + 0.7 * (x - 2.0) ** 2
    xs = np.array([1.0, 2.5, 4.0])
    xv, yv = parabolic_min(xs, f(xs))
    assert abs(xv - 2.0) < 1e-12
    assert abs(yv - 3.0) < 1e-12


def test_parabolic_min_fallbacks():
    xs = np.array([0.0, 1.0, 2.0])
    # flat: no curvature to refine with
    assert parabolic_min(xs, np.array([1.0, 1.0, 1.0])) == (1.0, 1.0)
    # concave triple
    assert parabolic_min(xs, np.array([0.0, 1.0, 0.0])) == (1.0, 1.0)


def test_xi2_minimum_resolution_cut():
    v = np.arange(6.0)
    xi2 = np.array([5.0, 3.0, 2.0, 1.0, 0.1, 0.01])
    zeta = np.array([1.0, 0.5, 0.2, 0.05, 1e-9, -1e-9])
    # without the cut the dust rows win; with it the search stops early
    val, v_at, interior = _xi2_minimum(v, xi2, zeta=zeta, zeta_floor=1e-3)
    assert val == 1.0 and v_at == 3.0 and not interior
    val, _, _ = _xi2_minimum(v, xi2)
    assert val == 0.01
    val, v_at, interior = _xi2_minimum(v, np.full(4, math.nan))
    assert math.isnan(val) and math.isnan(v_at) and not interior


def test_xi2_minimum_interior_refinement():
    v = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    xi2 = 2.0 + (v - 2.2) ** 2
    val, v_at, interior = _xi2_minimum(v, xi2)
    assert interior
    assert abs(v_at - 2.2) < 1e-12
    assert abs(val - 2.0) < 1e-12


def test_sweep_smallest_two_mode_feedback_near_frontier():
    point = min_squeezing_sweep("two", [1], "simple")[0]
    assert point.status == "ok"
    # asymptote only: the resolved prefix ends about a percent high
    assert abs(point.scaled - 0.75) < 0.015
    assert not point.interior


def test_sweep_stop_matches_uncut_run():
    # spin 1's xi2 falls until the resolution floor, so the sweep's stop
    # ends its run there; an uncut run of the same scenario, cut only by
    # _xi2_minimum, gives the same point
    v_max, delta_v = 8.0, 1e-3
    point = min_squeezing_sweep("single", [2], "simple", v_max=v_max)[0]
    spec = EvolutionSpec(frame=single_mode_frame(2), delta_v=delta_v, v_max=v_max)
    record = evolve(css_rho("single", 2), spec, FeedbackScheme("simple"))
    zeta = record.column("zeta")
    floor = ZETA_RESOLUTION_STEPS * delta_v
    assert record.ok and zeta[-1] < floor  # the uncut run goes past the floor
    xi2_min, v_min, interior = _xi2_minimum(record.column("v"), record.column("xi2"), zeta, floor)
    assert point == SweepPoint("single", 2, "simple", xi2_min, v_min, 2.0 * xi2_min, "ok", interior)
    # the stopped run is the uncut run's prefix through the first row at the floor
    cut = evolve(css_rho("single", 2), spec, FeedbackScheme("simple"), sweep_stop(floor))
    n = cut.n_rows
    assert cut.ok and n < record.n_rows
    assert np.array_equal(cut.column("zeta"), zeta[:n])
    assert (zeta[: n - 1] > floor).all() and zeta[n - 1] <= floor


class _GainBySpin:
    """A controller that gives each member of a stack the gain listed for
    its spin j."""

    kind = "none"

    def __init__(self, gains):
        self.gains = gains

    def gain(self, read, frame, v):
        return np.array([self.gains[j] for j in frame.spin_j.tolist()]), False


def _floor_stop(zeta_floor):
    """A per-row stop that ends a run only at the zeta floor, by the
    sweep's rule: ok while zeta is positive, else aborted-zeta."""

    def stop(v, row, live):
        return {
            k: (STATUS_OK,) if z > 0 else ("aborted-zeta", v, f"zeta {z:.3e} is not positive")
            for k, z in enumerate(row["zeta"].tolist())
            if not z > zeta_floor
        }

    return stop


def test_a_diverged_run_never_ends_ok():
    # a gain far too large for the step drives spin 2's zeta negative in
    # two steps; the floor stops it there, keeps the row and names why,
    # while spin 1 beside it stops on a positive zeta, status ok (the
    # sweep's stop would end spin 2 a row earlier, at its bracket)
    spec = EvolutionSpec(frame=single_mode_frame((2, 4)), delta_v=0.1, v_max=5.0)
    rho0 = stack_members([css_rho("single", 2), css_rho("single", 4)])
    stopped, diverged = evolve(rho0, spec, _GainBySpin({1.0: 0.5, 2.0: 5.0}), _floor_stop(0.5))
    assert stopped.ok and 0 < stopped.column("zeta")[-1] <= 0.5
    zeta = diverged.column("zeta")
    assert diverged.n_rows == 3 and zeta[-1] <= 0 < zeta[:-1].min()
    assert (diverged.status, diverged.abort_v) == ("aborted-zeta", 0.2)
    assert diverged.abort_reason == f"zeta {zeta[-1]:.3e} is not positive"


def test_sweep_stops_an_analytic_run_at_its_bracket_before_it_diverges():
    # the analytic schedule grows as exp(v/2) and drives spin 1 past
    # positivity near v = 13.8; the sweep stops the run ok once its
    # minimum, near v = 1.3, is bracketed, long before that
    point = min_squeezing_sweep("single", [2], "analytic")[0]
    assert point.status == "ok" and point.interior
    assert abs(point.scaled - 1.188) < 1e-3 and point.v_at_min < 2.0


def test_sweep_horizon_defaults_to_the_schemes(monkeypatch):
    # countertwisting passes its best squeezing well before v = 5, the
    # feedback laws need up to v = 20; an explicit v_max is kept
    horizons = []

    def group(task):
        horizons.append(task[-1])
        return [None] * len(task[1])

    monkeypatch.setattr(metrics, "_sweep_group", group)
    for scheme in ("countertwist", "simple", "optimal"):
        min_squeezing_sweep("single", (2, 4), scheme)
    min_squeezing_sweep("two", (1,), "countertwist", v_max=1.5)
    assert horizons == [5.0, 20.0, 20.0, 1.5]


def test_sweep_single_spin1_feedback_near_frontier():
    point = min_squeezing_sweep("single", [2], "simple")[0]
    assert abs(point.scaled - 1.0) < 0.02


def test_sweep_optimal_states_shortcircuit():
    point = min_squeezing_sweep("two", [1], "optimal-states")[0]
    assert point.scheme == "optimal-states"
    assert abs(point.scaled - 0.75) < 1e-4
    assert math.isnan(point.v_at_min)
    assert point.interior


def test_sweep_interior_flag_unconverged():
    point = min_squeezing_sweep("single", [2], "countertwist", v_max=0.1)[0]
    assert not point.interior
    assert point.v_at_min == pytest.approx(0.1)


@pytest.mark.parametrize("scheme, v_max", (("simple", 20.0), ("optimal", 20.0), ("countertwist", 1.0)))
def test_stacked_sweep_matches_each_spin_swept_alone(scheme, v_max):
    # a single-mode sweep steps its spins as one zero-padded stack; each
    # point agrees with the spin swept alone to rounding
    stacked = min_squeezing_sweep("single", (2, 4, 10), scheme, v_max=v_max)
    for point in stacked:
        (alone,) = min_squeezing_sweep("single", (point.twice_j,), scheme, v_max=v_max)
        assert (point.status, point.interior, point.twice_j) == (alone.status, alone.interior, alone.twice_j)
        for name in ("xi2_min", "scaled"):
            got, want = getattr(point, name), getattr(alone, name)
            assert abs(got - want) <= 1e-12 * abs(want), (point.twice_j, name)


def test_sweep_stacks_only_the_spins_up_to_stack_max_dim(monkeypatch):
    # a padded member's products cost the largest spin's dimension, so a
    # spin above STACK_MAX_DIM runs alone, and the points keep the order
    # the spins were given in
    shapes, run = [], dynamics.evolve
    monkeypatch.setattr(dynamics, "evolve", lambda rho0, *a, **k: shapes.append(rho0.shape) or run(rho0, *a, **k))
    spins = (STACK_MAX_DIM, 2, STACK_MAX_DIM - 1, 4)
    points = min_squeezing_sweep("single", spins, "simple", v_max=0.05)
    assert [p.twice_j for p in points] == list(spins)
    assert shapes == [(3, STACK_MAX_DIM, STACK_MAX_DIM), (STACK_MAX_DIM + 1, STACK_MAX_DIM + 1)]
    # the spin run alone is, bit for bit, its own sweep
    assert points[0] == min_squeezing_sweep("single", (STACK_MAX_DIM,), "simple", v_max=0.05)[0]


def test_two_mode_sweep_fans_out_one_spin_per_group():
    points = min_squeezing_sweep("two", (1, 2), "simple", v_max=0.05)
    assert min_squeezing_sweep("two", (1, 2), "simple", v_max=0.05, jobs=2) == points
    assert [p.twice_j for p in points] == [1, 2]


def _stacked_run(group, v_max, stop=None):
    """The records of the single-mode simple-law spins group, run as one
    stack on their member-stacked frame under stop, by default the floor
    of the sweep's zeta alone."""
    configs = [SimConfig(mode="single", twice_j=tj, v_max=v_max) for tj in group]
    spec = replace(configs[0].spec(), frame=single_mode_frame(group))
    rho0 = stack_members([c.initial_state() for c in configs])
    return evolve(rho0, spec, configs[0].controller(), stop or _floor_stop(ZETA_RESOLUTION_STEPS * 1e-3))


def test_stacked_members_do_not_interact():
    # (2, 10) and (4, 10) pad spin 10 alike; 2j = 2 leaves its stack at the
    # zeta floor after 4582 steps, so the frame is narrowed with the stack
    # while 2j = 4 stays, and spin 10's rows must not notice either way
    (short, ten), (four, other_ten) = _stacked_run((2, 10), 6.0), _stacked_run((4, 10), 6.0)
    assert short.ok and short.n_rows == 4583 and four.n_rows == ten.n_rows == 6001
    for name in PLAIN_COLUMNS:
        assert np.array_equal(ten.column(name).view(np.uint64), other_ten.column(name).view(np.uint64)), name


@pytest.mark.parametrize("mode, spins", (("single", (2, 4, 10)), ("two", (1, 2))))
def test_a_stopped_sweep_keeps_the_points_of_runs_to_the_floor(mode, spins):
    # the oracle: the same runs, stacked as the sweep stacks them, ended
    # only at the zeta floor; the bracket stop keeps every row up to the
    # minimum and its right-hand neighbour, and no later row comes back
    # below the minimum, so the points are the same to the last bit
    floor = ZETA_RESOLUTION_STEPS * 1e-3
    stopped = min_squeezing_sweep(mode, spins, "simple")
    configs = [SimConfig(mode=mode, twice_j=tj) for tj in spins]
    if mode == "single":
        spec = replace(configs[0].spec(), frame=single_mode_frame(spins))
        records = evolve(stack_members([c.initial_state() for c in configs]), spec, configs[0].controller(),
                         _floor_stop(floor), SWEEP_COLUMNS)
    else:
        records = [evolve(c.initial_state(), c.spec(), c.controller(), _floor_stop(floor), SWEEP_COLUMNS) for c in configs]
    for point, record in zip(stopped, records):
        xi2_min, v_min, interior = _xi2_minimum(record.column("v"), record.column("xi2"), record.column("zeta"), floor)
        want = SweepPoint(mode, point.twice_j, "simple", xi2_min, v_min, (point.twice_j / 2 + 1) * xi2_min,
                          record.status, interior)
        assert point == want and point.xi2_min.hex() == xi2_min.hex(), point.twice_j


def _row(zeta, xi2):
    return {"zeta": np.array(zeta, dtype=float), "xi2": np.array(xi2, dtype=float)}


def test_a_nan_xi2_neither_ends_a_run_nor_enters_its_minimum():
    # chi below CHI_FLOOR makes xi2 NaN; a minimum taken with min() can
    # take that NaN (min(nan, x) is nan) and then either stay NaN, which
    # never brackets, or give way to the next row, which brackets late
    stop, live = sweep_stop(0.01), np.arange(2)
    assert stop(0.0, _row([1.0, 1.0], [1.0, math.nan]), live) == {}
    assert stop(0.1, _row([1.0, 1.0], [0.5, 0.8]), live) == {}
    assert stop(0.2, _row([1.0, 1.0], [math.nan, 0.7]), live) == {}
    # run 0's minimum is still 0.5: 0.59 stays, and 0.61 brackets it
    assert stop(0.3, _row([1.0, 1.0], [BRACKET_RATIO * 0.5 - 0.01, 0.75]), live) == {}
    assert stop(0.4, _row([1.0, 1.0], [BRACKET_RATIO * 0.5 + 0.01, BRACKET_RATIO * 0.7]), live) == {0: (STATUS_OK,)}
    # run 1 alone at stack position 0 keeps its own minimum 0.7 through the
    # narrowing, not run 0's 0.5, which 0.8 would bracket
    assert stop(0.5, _row([1.0], [math.nan]), live[1:]) == {}
    assert stop(0.6, _row([1.0], [0.8]), live[1:]) == {}
    assert stop(0.7, _row([1.0], [BRACKET_RATIO * 0.7 + 0.01]), live[1:]) == {0: (STATUS_OK,)}


def test_the_floor_ends_a_run_before_its_bracket():
    # a row at the zeta floor ends the run by the floor's rule whatever its
    # xi2: ok while zeta is positive, else aborted-zeta
    stop, live = sweep_stop(0.01), np.arange(3)
    assert stop(0.0, _row([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]), live) == {}
    assert stop(0.1, _row([0.01, -1e-3, 0.5], [5.0, math.nan, 2.0]), live) == {
        0: (STATUS_OK,),
        1: ("aborted-zeta", 0.1, "zeta -1.000e-03 is not positive"),
        2: (STATUS_OK,),
    }


def test_a_member_dropped_for_a_non_finite_row_leaves_the_stop_the_others_rows():
    # member 0's moments are non-finite from the first row, which ends it
    # and drops the row; the stop then sees member 1's values at its new
    # stack position 0, so member 1 runs as it does alone
    frame, floor = single_mode_frame(2), ZETA_RESOLUTION_STEPS * 1e-3
    bad = css_rho("single", 2).real
    bad[0, 2] = bad[2, 0] = math.inf
    spec = EvolutionSpec(frame=frame, delta_v=1e-3, v_max=6.0)
    with np.errstate(invalid="ignore"):
        dropped, kept = evolve(np.stack([bad, css_rho("single", 2).real]), spec, FeedbackScheme("simple"),
                               sweep_stop(floor), SWEEP_COLUMNS)
    alone = evolve(css_rho("single", 2), spec, FeedbackScheme("simple"), sweep_stop(floor), SWEEP_COLUMNS)
    assert (dropped.status, dropped.n_rows) == ("aborted-nonfinite", 0)
    assert kept.ok and kept.n_rows == alone.n_rows < 6001
    for name in SWEEP_COLUMNS:
        assert np.array_equal(kept.column(name), alone.column(name)), name


def test_stacked_members_bracket_at_their_own_rows():
    # spins 10, 4 and 6 bracket their minima at different rows, the first
    # member first, so the stack narrows twice and the survivors move up;
    # each survivor's columns are, bit for bit, those of its member stepped
    # alone on the narrowed frame (a solo run of the padded member, which
    # the stack's narrowing must not disturb)
    group, floor = (10, 4, 6), ZETA_RESOLUTION_STEPS * 1e-3
    runs = _stacked_run(group, 3.0, sweep_stop(floor))
    assert all(run.ok for run in runs) and len({run.n_rows for run in runs}) == len(group)
    assert max(run.n_rows for run in runs) < 3001
    configs = [SimConfig(mode="single", twice_j=tj, v_max=3.0) for tj in group]
    spec = replace(configs[0].spec(), frame=single_mode_frame(group))
    rho0 = stack_members([c.initial_state() for c in configs])
    for k, run in enumerate(runs):
        (solo,) = evolve(rho0[k : k + 1], replace(spec, frame=spec.frame.members([k])), configs[0].controller(),
                         sweep_stop(floor))
        assert solo.n_rows == run.n_rows and solo.status == run.status
        for name in PLAIN_COLUMNS:
            assert np.array_equal(run.column(name).view(np.uint64), solo.column(name).view(np.uint64)), (k, name)
        # the last row is the first past the bracket
        xi2 = run.column("xi2")
        assert xi2[-1] > BRACKET_RATIO * xi2[:-1].min() and xi2[-2] <= BRACKET_RATIO * xi2[:-2].min()


@pytest.mark.parametrize("conditioned", (False, True))
@pytest.mark.parametrize("mode", ("single", "two"))
def test_stacked_metrics_equal_per_state_rows(mode, conditioned):
    frame = two_mode_frame(2, omega=10.0) if mode == "two" else single_mode_frame(4)
    stack = np.stack([random_density(frame.dim, seed=s) for s in range(4)] + [np.eye(frame.dim) / frame.dim])
    lam = np.linspace(-1.0, 2.0, len(stack))
    rows = compute_metrics(stack, frame, v=0.3, lam=lam, conditioned=conditioned)
    assert rows.values.shape == (10 if conditioned else 8, len(stack))
    for k in range(len(stack)):
        one = compute_metrics(stack[k], frame, v=0.3, lam=lam[k], conditioned=conditioned)
        assert np.array_equal(rows.values[:, k].view(np.uint64), one.values.view(np.uint64))
    assert math.isnan(rows.xi2[-1]) and not rows.entangled[-1]


def _scored_members(mode, twice_j, frame) -> list:
    """States of frame's dimension, one for each branch of the xi2 rule: a
    polarised state, a random one, chi = 0 (below CHI_FLOOR), zeta < 0
    (not a state: the coherent state less a multiple of the identity, which
    moves zeta and not chi) and NaN entries (NaN zeta)."""
    css, n = css_rho(mode, twice_j), frame.dim
    below = css - 2.0 * (np.vdot(css, frame.zeta_op).real / np.trace(frame.zeta_op)) * np.eye(n)
    return [css, random_density(n, seed=5), np.eye(n) / n, below, np.full((n, n), math.nan)]


def _subset_cases():
    """{case: (a factory of the state or its Moments, frame, v, lam, conditioned)}."""
    single, two = single_mode_frame(4), two_mode_frame(2, omega=10.0)
    spins = (2, 4, 6)
    stacked = single_mode_frame(spins)
    padded = stack_members([css_rho("single", spins[0]), np.eye(5) / 5, css_rho("single", spins[2])])
    node = two_mode_frame(2, omega=math.pi / 2e-3)
    even = css_rho("two", 2) + random_density(9, seed=2)
    even = 0.5 * (even + even[::-1, ::-1])
    single_stack = np.stack(_scored_members("single", 4, single))
    two_stack = np.stack(_scored_members("two", 2, two))
    lam = np.linspace(-1.0, 2.0, 5)
    return {
        "one-state": (lambda: css_rho("single", 4), single, 0.0, 0.7, False),
        "stack-of-one": (lambda: Moments(single_stack[:1]), single, 0.0, 0.7, False),
        "shared-stack": (lambda: single_stack, single, 0.0, lam, False),
        "member-stack": (lambda: padded, stacked, 0.0, np.array([0.3, -0.2, 1.1]), False),
        "parity-half": (lambda: Moments(even[None], even=True), node, 2e-3, 0.4, False),
        "two-mode-stack": (lambda: two_stack, two, 0.3, lam, False),
        "conditioned-single": (lambda: single_stack, single, 0.0, lam, True),
        "conditioned-two": (lambda: two_stack, two, 0.3, lam, True),
    }


@pytest.mark.parametrize("case", list(_subset_cases()))
def test_every_column_subset_equals_the_full_rows_columns(case):
    # a column has one formula, so a row of any columns, in any order,
    # holds the full row's bits for each; each row reads a fresh state
    state, frame, v, lam, conditioned = _subset_cases()[case]
    full = compute_metrics(state(), frame, v=v, lam=lam, conditioned=conditioned)
    names = full.columns
    assert names == (METRIC_COLUMNS if conditioned else PLAIN_COLUMNS)
    shuffled = tuple(np.random.default_rng(3).permutation(names))
    choices = [SWEEP_COLUMNS, shuffled] + [c for k in range(1, len(names) + 1) for c in itertools.combinations(names, k)]
    for columns in choices:
        row = compute_metrics(state(), frame, v=v, lam=lam, conditioned=conditioned, columns=columns)
        assert row.columns == columns and row.values.shape == (len(columns),) + full.values.shape[1:]
        for name, got in zip(columns, row.values):
            want = full.values[names.index(name)]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (columns, name)
    if case in ("shared-stack", "two-mode-stack"):
        # the xi2 rule's branches: valid, valid, chi below the floor, zeta < 0, NaN zeta
        assert np.isfinite(full.xi2[0]) and np.isnan(full.xi2[2:]).all()
        assert full.chi[3] > CHI_FLOOR and full.zeta[3] < 0 and np.isnan(full.zeta[4])


def test_a_row_refuses_a_column_it_does_not_offer():
    frame = single_mode_frame(2)
    for columns, name in ((("v", "foo"), "foo"), (("zc_mean",), "zc_mean")):
        with pytest.raises(ValueError, match=repr(name)):
            compute_metrics(css_rho("single", 2), frame, columns=columns)


class _Unscored(np.ndarray):
    """A stack whose square, and the order of the moments read from it, fail:
    the purity and entangled columns are their only users in a row."""

    def __pow__(self, other):
        raise AssertionError("purity computed")

    def __lt__(self, other):
        raise AssertionError("entangled computed")


def test_a_sweep_row_computes_only_zeta_and_xi2():
    # besides the gain's reads a sweep row reads zeta_op and X alone, so it
    # builds no mz2, and it squares no state and compares no moments, so
    # it builds no purity or entangled value
    frame = single_mode_frame((2, 4, 6))
    read = RecordedMoments(stack_members([css_rho("single", tj) for tj in (2, 4, 6)]).view(_Unscored))
    lam, _ = FeedbackScheme("simple").gain(read, frame, 0.0)
    gain_reads = len(read.ops)
    row = compute_metrics(read, frame, v=0.0, lam=lam, columns=SWEEP_COLUMNS)
    assert {id(op) for op in read.ops[gain_reads:]} == {id(frame.zeta_op), id(frame.x_op)}
    assert row.columns == SWEEP_COLUMNS and row.purity is None and row.mz2 is None and row.entangled is None
