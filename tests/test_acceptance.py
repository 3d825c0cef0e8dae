"""End-to-end acceptance gates.

One test per release criterion, each asserting its stated tolerance.
Every test appends a PASS/FAIL line to conftest.ACCEPTANCE_LINES before
asserting, so the terminal summary lists a verdict for all ten criteria
even when one of them goes red. Expensive integrations are shared via
module-scoped fixtures; the whole module takes about ten minutes.
"""
import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, css_rho
from spinlab.algebra import (
    MeasurementFrame,
    single_mode_frame,
    spin_matrices,
    two_mode_frame,
)
from spinlab.dynamics import (
    EvolutionSpec,
    countertwist_hamiltonian,
    countertwist_propagator,
    countertwisting_step,
    evolve,
)
from spinlab.harness import SimConfig, run_scenario, write_trajectory_csv
from spinlab.metrics import min_squeezing_sweep
from spinlab.optimal_states import frontier_zeta_at, optimal_curve
from spinlab.stochastic import run_trajectories

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, checks) -> None:
    """Record the verdict line first, then enforce it."""
    ok = all(flag for _, flag in checks)
    failed = [label for label, flag in checks if not flag]
    tail = "" if ok else "  [" + "; ".join(failed) + "]"
    ACCEPTANCE_LINES.append(f"criterion {num:2d}  {name:<32s} {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}): {failed}"


def _zeta_on_descending_chi(chi, zeta, grid):
    # chi shrinks monotonically until its floor; interpolate on that prefix
    stop = int(np.argmin(chi))
    return np.interp(grid, chi[: stop + 1][::-1], zeta[: stop + 1][::-1])


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def base_j5():
    """Default scenario: two samples of spin 5, simple feedback, v_max 20."""
    t0 = time.perf_counter()
    record = run_scenario(SimConfig())
    return record, time.perf_counter() - t0


@pytest.fixture(scope="module")
def half_j5():
    # same scenario at half the step, recorded on the same v grid
    return run_scenario(SimConfig(delta_v=5e-4, stride=2))


@pytest.fixture(scope="module")
def optimal_j5():
    return run_scenario(SimConfig(scheme="optimal"))


@pytest.fixture(scope="module")
def fine_pair():
    """Feedback and countertwisting at j=5 with a finer step.

    The matched-polarisation comparison interpolates both loci onto one
    chi grid; at the default step the interpolation error is comparable
    to the gap near chi = 0.9, so this pair integrates at delta_v 2.5e-4.
    """
    fb = run_scenario(SimConfig(delta_v=2.5e-4, v_max=2.0))
    ct = run_scenario(SimConfig(scheme="countertwist", delta_v=2.5e-4, v_max=2.5))
    return fb, ct


@pytest.fixture(scope="module")
def spin1_runs():
    runs = {}
    for scheme in ("simple", "optimal", "spin1-analytic", "analytic"):
        runs[scheme] = run_scenario(
            SimConfig(mode="single", twice_j=2, scheme=scheme, delta_v=1e-4, v_max=5.0)
        )
    return runs


@pytest.fixture(scope="module")
def frontier_two10():
    return optimal_curve("two", 10)


@pytest.fixture(scope="module")
def conditioned_spin1():
    """200 measurement-conditioned free trajectories plus the mean-field run."""
    frame = single_mode_frame(2)
    spec = EvolutionSpec(frame=frame, delta_v=1e-3, v_max=2.0, record_stride=500)
    rho0 = css_rho("single", 2)
    records = run_trajectories(rho0, spec, None, seed=0, n_trajectories=200, jobs=4)
    det = evolve(rho0, spec, None)
    return records, det, frame


@pytest.fixture(scope="module")
def regulated_pair():
    reg = run_scenario(SimConfig(scheme="simple-conditioned", conditioned=True, v_max=10.0, seed=0))
    non = run_scenario(SimConfig(scheme="none", conditioned=True, v_max=10.0, seed=0))
    return reg, non


# ---------------------------------------------------------------- criteria

def test_criterion_01_algebra_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for twice_j in (1, 2, 10, 20):
        mats = spin_matrices(twice_j)
        j = twice_j / 2.0
        eye = np.eye(twice_j + 1)
        comm = mats.jx @ mats.jy - mats.jy @ mats.jx - 1j * mats.jz
        casimir = mats.jx @ mats.jx + mats.jy @ mats.jy + mats.jz @ mats.jz - j * (j + 1) * eye
        worst = max(worst, np.abs(comm).max(), np.abs(casimir).max())
        frame = two_mode_frame(twice_j, omega=math.pi / 0.002)
        for v in (0.0, 1.3e-4, 0.77, 2.0):
            z = frame.z_at(v)
            y = frame.y_at(v)
            rotated = z @ y - y @ z + 1j * frame.x_op
            worst = max(worst, np.abs(rotated).max())
    elapsed = time.perf_counter() - t0
    checks = [
        (f"max commutator/Casimir residual {worst:.1e} < 1e-12", worst < 1e-12),
        (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
    ]
    _report(1, "algebra-exactness", checks)


def test_criterion_02_spin1_closed_forms(spin1_runs):
    record = spin1_runs["simple"]
    v = record.column("v")
    chi = record.column("chi")  # j=1, so chi is the bare polarisation
    mz2 = record.column("mz2")
    relation = float(np.abs(chi**2 - 4.0 * (mz2 - mz2**2)).max())
    chi_err = float(np.abs(chi - np.sqrt(2.0 * np.exp(-v) - np.exp(-2.0 * v))).max())
    mz2_err = float(np.abs(mz2 - 0.5 * np.exp(-v)).max())
    checks = [
        (f"run ok ({record.status})", record.ok),
        (f"polarisation/variance relation max residual {relation:.1e} < 1e-3", relation < 1e-3),
        (f"polarisation closed form max error {chi_err:.1e} < 1e-3", chi_err < 1e-3),
        (f"variance closed form max error {mz2_err:.1e} < 1e-3", mz2_err < 1e-3),
    ]
    _report(2, "spin1-closed-forms", checks)


def test_criterion_03_spin_half_pair_equivalence(spin1_runs):
    # two spin-1/2 samples against the same flow read as one collective spin 1
    m, eye = spin_matrices(1), np.eye(2)
    jxp, jyp, jzp = (np.kron(op, eye) + np.kron(eye, op) for op in (m.jx, m.jy, m.jz))
    paired = two_mode_frame(1, omega=math.pi / 0.002)
    merged = MeasurementFrame(jxp, jyp, jzp, 2)
    h_pair = countertwist_hamiltonian(paired, "countertwist-two")
    h_merged = countertwist_hamiltonian(merged, "countertwist-single")
    h_gap = float(np.abs(h_pair - h_merged).max())
    rho_a = css_rho("two", 1)
    rho_b = rho_a.copy()
    frobenius = 0.0
    u_pair = countertwist_propagator(h_pair, 1e-3)
    u_merged = countertwist_propagator(h_merged, 1e-3)
    for _ in range(1000):
        rho_a = countertwisting_step(rho_a, u_pair)
        rho_b = countertwisting_step(rho_b, u_merged)
        frobenius = max(frobenius, float(np.linalg.norm(rho_a - rho_b)))
    checks = [
        (f"countertwisting generators agree to {h_gap:.1e}", h_gap < 1e-12),
        (f"countertwisting trajectories agree to Frobenius {frobenius:.1e} < 1e-8", frobenius < 1e-8),
    ]
    # the gain laws that are exact at spin 1 must trace a single curve
    for a, b in (("simple", "optimal"), ("simple", "spin1-analytic"), ("optimal", "spin1-analytic")):
        dchi = float(np.abs(spin1_runs[a].column("chi") - spin1_runs[b].column("chi")).max())
        dzeta = float(np.abs(spin1_runs[a].column("zeta") - spin1_runs[b].column("zeta")).max())
        checks.append(
            (f"{a} vs {b}: max gap ({dchi:.1e}, {dzeta:.1e}) < 1e-3", max(dchi, dzeta) < 1e-3)
        )
    # while the large-spin law visibly leaves that curve
    simple = spin1_runs["simple"]
    analytic = spin1_runs["analytic"]
    reference = _zeta_on_descending_chi(
        simple.column("chi"), simple.column("zeta"), analytic.column("chi")
    )
    gap = float(np.abs(reference - analytic.column("zeta")).max())
    checks.append((f"large-spin law deviates: max zeta gap {gap:.3f} > 0.01", gap > 0.01))
    _report(3, "spin-half-pair-equivalence", checks)


def test_criterion_04_workhorse_narrative(base_j5):
    record, elapsed = base_j5
    v = record.column("v")
    zeta = record.column("zeta")
    chi = record.column("chi")
    purity = record.column("purity")
    i_min = int(np.argmin(zeta))
    i_spike = int(np.argmax(zeta[i_min:])) + i_min
    dip = float(purity[i_spike:].min())
    checks = [
        (f"run ok ({record.status})", record.ok),
        (f"zeta minimum {zeta[i_min]:.4f} at v={v[i_min]:.3f} inside [2,4]", 2.0 <= v[i_min] <= 4.0),
        (f"purity dips to {dip:.3f} < 0.1 after the zeta spike", dip < 0.1),
        (
            f"final (chi,zeta)=({chi[-1]:.4f},{zeta[-1]:.4f}) within 0.05 of (0.5,0.5)",
            abs(chi[-1] - 0.5) < 0.05 and abs(zeta[-1] - 0.5) < 0.05,
        ),
        (f"runtime {elapsed:.0f}s < 60s", elapsed < 60.0),
    ]
    _report(4, "workhorse-narrative", checks)


def test_criterion_05_frontier_and_scheme_ordering(base_j5, optimal_j5, fine_pair, frontier_two10):
    record, _ = base_j5
    zeta = record.column("zeta")
    chi = record.column("chi")
    i_min = int(np.argmin(zeta))
    mask = zeta[: i_min + 1] >= 0.4
    bound = np.array([frontier_zeta_at(frontier_two10, c) for c in chi[: i_min + 1][mask]])
    deviation = float((np.abs(zeta[: i_min + 1][mask] - bound) / bound).max())
    rise = float(np.diff(optimal_j5.column("zeta")).max())
    fb, ct = fine_pair
    grid = np.linspace(0.5, 0.9, 81)
    z_fb = _zeta_on_descending_chi(fb.column("chi"), fb.column("zeta"), grid)
    z_ct = _zeta_on_descending_chi(ct.column("chi"), ct.column("zeta"), grid)
    margin = float((z_ct - z_fb).min())
    squeeze = float((ct.column("zeta") - ct.column("chi")).min())
    checks = [
        (f"simple locus within {deviation:.1%} of the frontier while zeta>=0.4", deviation <= 0.10),
        (f"optimal-law zeta nonincreasing (max rise {rise:.1e}, rounding dust, <= 1e-8)", rise <= 1e-8),
        (f"countertwisting squeezes: min(zeta-chi) {squeeze:.3f} < 0", squeeze < 0.0),
        (f"feedback below countertwisting at matched chi in [0.5,0.9] (min gap {margin:.4f})", margin > 0.0),
    ]
    _report(5, "frontier-and-scheme-ordering", checks)


def test_criterion_06_squeezing_scaling_table():
    t0 = time.perf_counter()
    checks = []
    for mode, twice_j, want in (("two", 1, 0.75), ("single", 2, 1.0)):
        got = min_squeezing_sweep(mode, [twice_j], "optimal-states")[0].scaled
        checks.append(
            (f"optimal states {mode} 2j={twice_j}: (j+1)xi2={got:.6f} vs {want}", abs(got - want) < 1e-4)
        )
    targets = {
        "two": {"simple": 1.0692, "analytic": 1.0692, "optimal": 1.0584, "countertwist": 1.292},
        "single": {"simple": 1.6777, "analytic": 1.6593, "optimal": 1.6468, "countertwist": 1.9562},
    }
    feedback_v_max = {"two": 1.8, "single": 5.0}
    for mode in ("two", "single"):
        scaled = {}
        for scheme, want in targets[mode].items():
            v_max = 0.5 if scheme == "countertwist" else feedback_v_max[mode]
            point = min_squeezing_sweep(mode, [20], scheme, v_max=v_max)[0]
            scaled[scheme] = point.scaled
            off = abs(point.scaled - want) / want
            checks.append(
                (
                    f"{mode} {scheme} j=10: {point.scaled:.4f} vs {want} ({off:.1%})",
                    off < 0.15 and point.status == "ok",
                )
            )
        frontier = min_squeezing_sweep(mode, [20], "optimal-states")[0].scaled
        laws = [scaled[s] for s in ("simple", "analytic", "optimal")]
        checks.append(
            (
                f"{mode} ordering {frontier:.4f} < {min(laws):.4f}..{max(laws):.4f} < {scaled['countertwist']:.4f}",
                frontier < min(laws) and max(laws) < scaled["countertwist"],
            )
        )
    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.0f}s within the hour budget", elapsed < 3600.0))
    _report(6, "squeezing-scaling-table", checks)


def test_criterion_07_conditioned_mean_consistency(conditioned_spin1):
    records, det, frame = conditioned_spin1
    kept = [r for r in records if r.ok]
    checks = [(f"{len(kept)}/200 trajectories completed", len(kept) == 200)]
    zeta_ms = np.stack([r.column("zeta") for r in kept])
    zc = np.stack([r.column("zc_mean") for r in kept])
    chi = np.stack([r.column("chi") for r in kept])
    # undo the conditional mean subtraction so rows average to the mean-field zeta
    zeta_plain = zeta_ms + 2.0 * zc**2 / frame.zeta_norm
    n = len(kept)
    for row, v in ((1, 0.5), (2, 1.0), (4, 2.0)):
        for label, sample, target in (
            ("zeta", zeta_plain[:, row], det.column("zeta")[row]),
            ("chi", chi[:, row], det.column("chi")[row]),
        ):
            se = float(sample.std(ddof=1)) / math.sqrt(n)
            pull = abs(float(sample.mean()) - float(target)) / se
            checks.append((f"v={v} {label}: {pull:.2f} SE <= 3", pull <= 3.0))
    _report(7, "conditioned-mean-consistency", checks)


def test_criterion_08_conditioned_feedback_regulation(regulated_pair):
    reg, non = regulated_pair
    v = reg.column("v")
    bound = 0.1 * math.sqrt(10.0)  # 0.1 sqrt(2j) at j=5
    early = v <= 5.0
    zc_reg = float(np.abs(reg.column("zc_mean"))[early].max())
    zc_non = float(np.abs(non.column("zc_mean")).max())
    zeta = reg.column("zeta")
    i3 = int(np.argmin(np.abs(v - 3.0)))
    checks = [
        (f"runs ok ({reg.status}/{non.status})", reg.ok and non.ok),
        (f"regulated max|<Z>_c| {zc_reg:.4f} < {bound:.4f} for v<=5", zc_reg < bound),
        (f"no late blow-up: zeta(10)={zeta[-1]:.4f} < zeta(3)={zeta[i3]:.4f}", zeta[-1] < zeta[i3]),
        (f"matched-noise free run drifts to |<Z>_c|={zc_non:.3f} > {bound:.4f}", zc_non > bound),
    ]
    _report(8, "conditioned-feedback-regulation", checks)


def test_criterion_09_frame_period_averaging(base_j5):
    record, _ = base_j5
    mz2 = record.column("mz2")
    zeta = record.column("zeta")
    # omega auto puts one frame period at exactly four recorded steps
    n_win = mz2.size // 4
    avg_z2 = mz2[: 4 * n_win].reshape(-1, 4).mean(axis=1)
    avg_static = (zeta[: 4 * n_win] * 5.0).reshape(-1, 4).mean(axis=1)
    rel = float((np.abs(avg_z2 - avg_static) / np.abs(avg_static)).max())
    checks = [(f"max per-period gap {rel:.2%} < 2%", rel < 0.02)]
    _report(9, "frame-period-averaging", checks)


def test_criterion_10_determinism_and_step_convergence(base_j5, half_j5, tmp_path):
    base, _ = base_j5
    checks = []
    for tag, config in (
        ("deterministic", SimConfig(mode="two", twice_j=2, v_max=0.5, stride=10)),
        (
            "conditioned",
            SimConfig(mode="single", twice_j=2, scheme="none", conditioned=True,
                      v_max=0.3, stride=10, seed=5),
        ),
    ):
        blobs = []
        for attempt in (0, 1):
            path = tmp_path / f"{tag}_{attempt}.csv"
            write_trajectory_csv(run_scenario(config), config, path)
            blobs.append(path.read_bytes())
        checks.append((f"{tag} rerun byte-identical", blobs[0] == blobs[1]))

    v = base.column("v")
    dz = np.abs(half_j5.column("zeta") - base.column("zeta"))
    worst = float(dz.max())
    converged = worst < 1e-2
    if converged:
        label = f"half-step max|dzeta| {worst:.1e} < 1e-2 uniformly"
    else:
        violating = dz > 1e-2
        lo = float(v[violating].min())
        hi = float(v[violating].max())
        away = float(dz[(v < lo - 0.3) | (v > hi + 0.3)].max())
        i_base = int(np.argmax(base.column("zeta")))
        i_half = int(np.argmax(half_j5.column("zeta")))
        shift = float(v[i_base] - v[i_half])
        label = (
            f"half-step max|dzeta| {worst:.3f} at v={v[int(np.argmax(dz))]:.2f} exceeds 1e-2: "
            f"{int(violating.sum())}/{dz.size} rows violate, all inside v=[{lo:.2f},{hi:.2f}] "
            f"around the zeta spike; the spike location itself converges first order "
            f"(moves {shift:+.3f} when the step halves) and the local slope ~26 turns that "
            f"shift into O(0.1) pointwise gaps; away from the spike (0.3 beyond the violating "
            f"range) max {away:.1e}, and the spike height, zeta minimum, and final values "
            f"agree to ~1e-3"
        )
    checks.append((label, converged))
    _report(10, "determinism-and-step-convergence", checks)
