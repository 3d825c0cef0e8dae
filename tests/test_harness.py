"""Config plumbing, CSV artifacts, scenario execution, bundles, units."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spinlab.harness import (
    CSV_FORMAT,
    ConfigError,
    FIGURE_BUNDLES,
    SimConfig,
    gamma_from_experiment,
    load_config,
    parse_config_text,
    read_csv,
    run_ensemble,
    run_figure,
    run_scenario,
    write_frontier_csv,
    write_sweep_csv,
    write_trajectory_csv,
)


# ------------------------------------------------------------------ config


@pytest.mark.parametrize(
    "kw,token",
    [
        (dict(mode="three"), "mode"),
        (dict(twice_j=0), "twice-j"),
        (dict(scheme="magic"), "scheme"),
        (dict(delta_v=0.5), "delta-v"),
        (dict(delta_v=2e-3, v_max=1e-3), "v-max"),
        (dict(omega="fast"), "omega"),
        (dict(seed=-1), "seed"),
        (dict(ensemble=0), "ensemble"),
        (dict(stride=0), "stride"),
        (dict(clamp=0.0), "clamp"),
        (dict(jobs=0), "jobs"),
        (dict(conditioned=True, scheme="countertwist"), "scheme"),
        (dict(clamp=math.inf), "clamp"),
    ],
)
def test_config_validation_names_the_field(kw, token):
    with pytest.raises(ConfigError, match=token):
        SimConfig(**kw)


@pytest.mark.parametrize("name", ("twice_j", "seed", "ensemble", "stride", "jobs"))
def test_config_refuses_a_bool_for_an_integer_field(name):
    # True passes isinstance(x, int) and would run as 1, but its header
    # cell reads "True", which the config parser cannot read back
    for flag in (True, False):
        with pytest.raises(ConfigError, match=name.replace("_", "-")):
            SimConfig(**{name: flag})


def test_omega_auto_lands_on_quarter_period_nodes():
    config = SimConfig(delta_v=1e-3)
    assert config.omega_value == math.pi / (2 * 1e-3)
    assert config.frame().omega == config.omega_value
    assert SimConfig(omega=7.5).omega_value == 7.5


def test_config_hash_tracks_physics_not_plumbing():
    base = SimConfig()
    assert len(base.canonical_hash()) == 12
    assert int(base.canonical_hash(), 16) >= 0
    assert base.canonical_hash() == SimConfig().canonical_hash()
    assert base.canonical_hash() != replace(base, delta_v=2e-3).canonical_hash()
    assert base.canonical_hash() != replace(base, seed=1).canonical_hash()
    # output destination and worker count don't change the physics
    assert base.canonical_hash() == replace(base, out="x.csv", jobs=4).canonical_hash()


def test_parse_config_text_types_and_comments():
    text = """
    # scenario for the workhorse case
    mode = single
    twice-j = 4   # inline comment
    delta_v = 0.002
    omega = auto
    conditioned = yes
    """
    got = parse_config_text(text)
    assert got == {
        "mode": "single",
        "twice_j": 4,
        "delta_v": 0.002,
        "omega": "auto",
        "conditioned": True,
    }


def test_parse_config_text_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("mode = two\nwibble = 3\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="twice-j"):
        parse_config_text("twice-j = lots\n")


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("delta-v = 0.002\nseed = 5\n")
    config = load_config(path, cli_overrides={"seed": 9, "stride": None, "mode": None})
    assert config.delta_v == 0.002  # file beats default
    assert config.seed == 9  # CLI beats file
    assert config.stride == 1  # None CLI entries fall through


def test_header_items_round_trip_through_parser():
    config = SimConfig(mode="single", twice_j=6, delta_v=2e-3, omega=3.25, conditioned=True,
                       scheme="simple-conditioned", seed=11)
    text = "\n".join(f"{k} = {v}" for k, v in config.header_items())
    rebuilt = SimConfig(**parse_config_text(text))
    assert rebuilt.canonical_hash() == config.canonical_hash()


# ---------------------------------------------------------------- CSV files


def _tiny(**kw) -> SimConfig:
    kw.setdefault("mode", "single")
    kw.setdefault("twice_j", 2)
    kw.setdefault("v_max", 0.2)
    kw.setdefault("stride", 10)
    return SimConfig(**kw)


def test_scenario_csv_rerun_is_byte_identical(tmp_path):
    a = run_scenario(_tiny(out=str(tmp_path / "a.csv")))
    b = run_scenario(_tiny(out=str(tmp_path / "b.csv")))
    assert a.status == b.status == "ok"
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_explicit_quarter_period_omega_writes_auto_bytes(tmp_path):
    auto = _tiny(mode="two", out=str(tmp_path / "auto.csv"))
    explicit = replace(auto, omega=math.pi / (2 * auto.delta_v), out=str(tmp_path / "explicit.csv"))
    assert explicit.canonical_hash() == auto.canonical_hash()
    run_scenario(auto)
    run_scenario(explicit)
    assert (tmp_path / "auto.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()


def test_csv_round_trip_is_bit_exact(tmp_path):
    config = _tiny(out=str(tmp_path / "run.csv"))
    record = run_scenario(config)
    header, cols = read_csv(tmp_path / "run.csv")
    assert header["spinlab-csv"] == CSV_FORMAT.split()[1]
    assert header["config-hash"] == config.canonical_hash()
    assert header["status"] == "ok"
    assert header["mode"] == "single"
    assert list(cols) == ["v", "zeta", "chi", "purity", "lambda"]
    assert np.array_equal(cols["zeta"], record.column("zeta"))
    assert np.array_equal(cols["lambda"], record.column("lam"))
    # row contract: every stride-th step plus the initial row
    assert len(cols["v"]) == int(round(0.2 / 1e-3)) // 10 + 1


def test_conditioned_csv_gets_the_tail_columns(tmp_path):
    config = _tiny(scheme="none", conditioned=True, v_max=0.1, out=str(tmp_path / "c.csv"))
    run_scenario(config)
    header, cols = read_csv(tmp_path / "c.csv")
    assert list(cols) == ["v", "zeta", "chi", "purity", "lambda",
                          "zc_mean", "yc_mean", "entangled"]
    assert header["conditioned"] == "true"
    assert header["traj-index"] == "0"
    assert set(np.unique(cols["entangled"])) <= {0.0, 1.0}


def test_aborted_record_header_survives_round_trip(tmp_path):
    config = _tiny()
    record = run_scenario(config)
    record.status = "aborted-trace"
    record.abort_v = 0.17
    record.abort_reason = "trace drift 2.0e-05 beyond budget"
    path = write_trajectory_csv(record, config, tmp_path / "abort.csv")
    header, cols = read_csv(path)
    assert header["status"] == "aborted-trace"
    assert float(header["abort-v"]) == 0.17
    assert header["abort-reason"] == record.abort_reason
    assert len(cols["v"]) == record.n_rows


def test_run_ensemble_writes_members_and_mean(tmp_path):
    config = _tiny(scheme="none", conditioned=True, v_max=0.1, ensemble=3,
                   out=str(tmp_path / "ens.csv"))
    ensemble, records = run_ensemble(config)
    assert ensemble.n_trajectories == 3 and len(records) == 3
    member_zetas = []
    for i in range(3):
        header, cols = read_csv(tmp_path / f"ens_t{i}.csv")
        assert header["traj-index"] == str(i)
        member_zetas.append(cols["zeta"])
    header, cols = read_csv(tmp_path / "ens_mean.csv")
    assert header["trajectories"] == "3"
    assert np.allclose(cols["zeta"], np.stack(member_zetas).mean(axis=0), atol=1e-15)


def test_frontier_csv_round_trip(tmp_path):
    from spinlab.optimal_states import optimal_curve

    curve = optimal_curve("single", 2, n_mu=12)
    path = write_frontier_csv(curve, tmp_path / "front.csv")
    _, cols = read_csv(path)
    assert np.array_equal(cols["mu"], np.array([p.mu for p in curve]))
    assert np.array_equal(cols["zeta"], np.array([p.zeta for p in curve]))


def test_csv_rows_match_cell_by_cell_formatting(tmp_path):
    # every table is formatted by one % over a row template; its bytes are
    # those of "%.17g" on each numeric cell, special values included, and of
    # each text cell as it is
    from spinlab.optimal_states import FrontierPoint

    values = [0.0, -0.0, 0.1, 1 / 3, 5e-324, -2.5e300, math.inf, -math.inf, math.nan, np.float64(7)]
    points = [FrontierPoint(x, -x, 2 * x, 0.0, False) for x in values]
    path = write_frontier_csv(points, tmp_path / "front.csv")
    rows = ["%.17g,%.17g,%.17g" % (p.mu, p.chi, p.zeta) for p in points]
    lines = [f"# {CSV_FORMAT}", "# columns = mu,chi,zeta", *rows]
    assert path.read_text() == "\n".join(lines) + "\n"
    assert write_frontier_csv([], tmp_path / "empty.csv").read_text() == "\n".join(lines[:2]) + "\n"

    from spinlab.metrics import SweepPoint

    sweep = [SweepPoint("two", 2 * k + 1, "simple", x, 0.5, -x, "ok", False) for k, x in enumerate(values)]
    path = write_sweep_csv(sweep, tmp_path / "sweep.csv")
    rows = ["two,simple,%d,%.17g,%.17g" % (p.twice_j, p.xi2_min, p.scaled) for p in sweep]
    lines = [f"# {CSV_FORMAT}", "# columns = mode,scheme,twice_j,xi2_min,scaled", *rows]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_sweep_csv_keeps_string_columns(tmp_path):
    from spinlab.metrics import SweepPoint

    points = [
        SweepPoint("two", 1, "simple", 0.5, 4.0, 0.75, "ok", False),
        SweepPoint("two", 4, "simple", 0.4, 2.0, 1.2, "ok", True),
    ]
    path = write_sweep_csv(points, tmp_path / "sweep.csv")
    _, cols = read_csv(path)
    # mixed rows stay strings; numbers still parse on demand
    assert cols["mode"] == ["two", "two"]
    assert cols["scheme"] == ["simple", "simple"]
    assert [float(x) for x in cols["scaled"]] == [0.75, 1.2]


def test_read_csv_requires_columns_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# spinlab-csv 1\n1.0,2.0\n")
    with pytest.raises(ConfigError, match="columns"):
        read_csv(path)


# ------------------------------------------------------------ units helper


def test_measurement_rate_from_apparatus_defaults():
    rates = gamma_from_experiment()
    assert rates.rate == pytest.approx(1.25e-9, rel=1e-12)
    assert rates.timescale == pytest.approx(8e8, rel=1e-12)


def test_measurement_rate_scales_quadratically_in_coupling():
    base = gamma_from_experiment(coupling=1e-13)
    double = gamma_from_experiment(coupling=2e-13)
    assert double.rate == pytest.approx(4 * base.rate, rel=1e-12)


@pytest.mark.parametrize("kw", [dict(coupling=0.0), dict(photon_flux=-1.0)])
def test_measurement_rate_rejects_nonpositive(kw):
    with pytest.raises(ConfigError):
        gamma_from_experiment(**kw)


# ------------------------------------------------------------------ bundles


def test_figure_bundles_are_well_formed():
    assert set(FIGURE_BUNDLES) == {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b"}
    for figure_id, items in FIGURE_BUNDLES.items():
        for kind, name, payload in items:
            assert kind in ("run", "frontier", "sweep"), (figure_id, name)
            if kind == "run":
                assert isinstance(payload, SimConfig)
                assert payload.out is None  # destination is chosen at run time


def test_run_figure_rejects_unknown_id(tmp_path):
    with pytest.raises(ConfigError, match="figure"):
        run_figure("fig99", out_dir=tmp_path)
