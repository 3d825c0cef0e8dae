"""Exit codes, flag plumbing, and artifact wiring for the console entry."""

import subprocess
import sys
from types import SimpleNamespace

import pytest

from spinlab.cli import EXIT_ABORT, EXIT_OK, EXIT_USAGE, main
from spinlab.harness import FIGURE_BUNDLES, read_csv, write_sweep_csv
from spinlab.metrics import min_squeezing_sweep


def test_run_happy_path_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["run", "--mode", "single", "--twice-j", "2", "--v-max", "0.2",
                 "--stride", "10", "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    assert "status ok" in capsys.readouterr().out


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["run", "--no-such-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["frontier", "--mode", "sideways", "--twice-j", "2"])


def test_config_errors_exit_two(capsys):
    assert main(["run", "--twice-j", "0", "--v-max", "0.1"]) == EXIT_USAGE
    assert "twice-j" in capsys.readouterr().err
    assert main(["run", "--omega", "fast"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--mode", "two", "--scheme", "simple", "--twice-j", "1", "--delta-v", "0.5"], "delta-v"),
        (["sweep", "--mode", "two", "--scheme", "simple", "--twice-j", "0"], "twice-j"),
        (["sweep", "--mode", "single", "--scheme", "optimal-states", "--twice-j", "2,0"], "twice-j"),
        (["frontier", "--mode", "two", "--twice-j", "0"], "twice-j"),
        (["frontier", "--mode", "two", "--twice-j", "2", "--n-mu", "0"], "n-mu"),
        (["frontier", "--mode", "two", "--twice-j", "2", "--n-mu", "-3"], "n-mu"),
        (["sweep", "--mode", "two", "--scheme", "simple", "--twice-j", "1", "--jobs", "0"], "jobs"),
        (["figure", "fig5", "--jobs", "-2"], "jobs"),
        (["run", "--v-max", "inf"], "v-max"),
        (["run", "--omega", "nan"], "omega"),
        (["run", "--clamp", "inf"], "clamp"),
    ],
    ids=[
        "sweep-delta-v", "sweep-twice-j", "optimal-states-twice-j", "frontier-twice-j",
        "frontier-n-mu-zero", "frontier-n-mu-negative", "sweep-jobs", "figure-jobs",
        "run-v-max-inf", "run-omega-nan", "run-clamp-inf",
    ],
)
def test_bad_input_exits_two(argv, field, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_aborted_run_exits_three(monkeypatch, capsys):
    fake = SimpleNamespace(n_rows=3, status="aborted-trace", ok=False,
                           abort_v=0.5, abort_reason="synthetic")
    monkeypatch.setattr("spinlab.cli.run_scenario", lambda config: fake)
    assert main(["run", "--v-max", "0.1"]) == EXIT_ABORT
    err = capsys.readouterr().err
    assert "aborted at v=0.5000" in err and "synthetic" in err


def test_seed_env_fallback_and_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINLAB_SEED", "42")
    out = tmp_path / "a.csv"
    main(["run", "--mode", "single", "--twice-j", "2", "--v-max", "0.1",
          "--stride", "10", "--out", str(out)])
    header, _ = read_csv(out)
    assert header["seed"] == "42"

    out2 = tmp_path / "b.csv"
    main(["run", "--mode", "single", "--twice-j", "2", "--v-max", "0.1",
          "--stride", "10", "--seed", "3", "--out", str(out2)])
    header, _ = read_csv(out2)
    assert header["seed"] == "3"

    monkeypatch.setenv("SPINLAB_SEED", "nope")
    assert main(["run", "--v-max", "0.1"]) == EXIT_USAGE


def test_config_file_flag(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("mode = single\ntwice-j = 2\nv-max = 0.1\nstride = 10\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert "single/2j=2" in capsys.readouterr().out


def test_ensemble_command(tmp_path, capsys):
    out = tmp_path / "ens.csv"
    code = main(["ensemble", "--mode", "single", "--twice-j", "2", "--scheme", "none",
                 "--conditioned", "--v-max", "0.1", "--stride", "10",
                 "--ensemble", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert "2/2 trajectories ok" in capsys.readouterr().out
    assert (tmp_path / "ens_mean.csv").exists()
    assert (tmp_path / "ens_t0.csv").exists() and (tmp_path / "ens_t1.csv").exists()


def test_ensemble_with_every_trajectory_aborted_exits_three(tmp_path, capsys):
    # the analytic gain at this coarse step throws every trajectory out of
    # the renormalisation window; there is nothing to average, but each
    # trajectory's partial CSV is written and each abort is named
    out = tmp_path / "e.csv"
    code = main(["ensemble", "--mode", "single", "--twice-j", "2", "--scheme", "analytic",
                 "--delta-v", "0.1", "--v-max", "20", "--ensemble", "4", "--out", str(out)])
    assert code == EXIT_ABORT
    captured = capsys.readouterr()
    assert "0/4 trajectories ok" in captured.out
    assert [line.split(" aborted")[0] for line in captured.err.splitlines()] == [
        f"trajectory {i}" for i in range(4)
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"e_t{i}.csv" for i in range(4)]
    for i in range(4):
        _, columns = read_csv(tmp_path / f"e_t{i}.csv")
        assert 0 < len(columns["v"]) < 201


def test_frontier_command(tmp_path, capsys):
    out = tmp_path / "front.csv"
    code = main(["frontier", "--mode", "two", "--twice-j", "1",
                 "--n-mu", "40", "--out", str(out)])
    assert code == EXIT_OK
    assert "0.7500" in capsys.readouterr().out
    assert out.exists()


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--mode", "two", "--scheme", "optimal-states",
                 "--twice-j", "1,2", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "2j=1" in stdout and "2j=2" in stdout
    _, cols = read_csv(out)
    assert cols["mode"] == ["two", "two"]


def test_single_mode_sweep_is_one_stack_at_any_jobs(tmp_path):
    # the sweep is one stack whatever the worker cap, so its bytes do not
    # depend on it, and they are the library sweep's
    args = ["sweep", "--mode", "single", "--scheme", "simple", "--twice-j", "2,4", "--v-max", "0.05"]
    for jobs in (1, 2):
        assert main(args + ["--jobs", str(jobs), "--out", str(tmp_path / f"jobs{jobs}.csv")]) == EXIT_OK
    want = write_sweep_csv(min_squeezing_sweep("single", (2, 4), "simple", v_max=0.05), tmp_path / "lib.csv")
    assert (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs2.csv").read_bytes() == want.read_bytes()


def test_sweep_rejects_bad_spin_list(capsys):
    assert main(["sweep", "--mode", "two", "--scheme", "simple",
                 "--twice-j", "2,x"]) == EXIT_USAGE
    assert "twice-j" in capsys.readouterr().err


def test_figure_command_with_injected_bundle(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(FIGURE_BUNDLES, "figtest", (("frontier", "mini", ("single", 2)),))
    code = main(["figure", "figtest", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "figtest/mini: ok" in capsys.readouterr().out
    assert (tmp_path / "mini.csv").exists()


def test_figure_command_reports_a_sweep_point_that_did_not_finish(tmp_path, monkeypatch, capsys):
    # forward Euler's stable step is too short for the simple law's gain
    # spike at 2j = 80: the run's trace drifts off before its minimum is
    # bracketed, near v = 0.52
    monkeypatch.setitem(FIGURE_BUNDLES, "figtest", (("sweep", "mini", ("single", (80,), "simple")),))
    code = main(["figure", "figtest", "--out-dir", str(tmp_path)])
    assert code == EXIT_ABORT
    assert "figtest/mini: aborted-trace" in capsys.readouterr().out
    assert (tmp_path / "mini.csv").exists()


def test_sweep_command_exits_three_when_a_point_did_not_finish(tmp_path, capsys):
    # as figure does: every point is printed and written, and the one that
    # did not finish is flagged and sets the exit code
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--mode", "single", "--scheme", "simple", "--twice-j", "2,80", "--out", str(out)])
    assert code == EXIT_ABORT
    lines = capsys.readouterr().out.splitlines()
    assert "[" not in lines[0] and lines[1].endswith("[aborted-trace]")
    _, cols = read_csv(out)
    assert cols["twice_j"] == ["2", "80"]


def test_gamma_command(capsys):
    assert main(["gamma"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1.25e-09" in out and "8e+08" in out


def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "spinlab.cli", "gamma", "--coupling", "1e-12"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "measurement rate" in proc.stdout
