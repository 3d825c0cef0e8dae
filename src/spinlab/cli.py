"""Command-line front end.

One verb per artifact class: run (single scenario), ensemble
(conditioned trajectories plus their mean), figure (bundled scenario
sets), sweep (best squeezing vs size), frontier (extremal-state curve),
gamma (physical-units helper). Exit codes: 0 success, 2 bad usage or
configuration, 3 evolution aborted (partial CSV still written).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .harness import (
    FIGURE_BUNDLES,
    MODES,
    SCHEMES,
    SWEEP_SCHEMES,
    ConfigError,
    SimConfig,
    coerce,
    gamma_from_experiment,
    load_config,
    run_ensemble,
    run_figure,
    run_scenario,
    sweep_v_max,
    write_frontier_csv,
    write_sweep_csv,
)
from .metrics import min_squeezing_sweep
from .optimal_states import min_xi2_on_curve, optimal_curve
from .stochastic import fan_out

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ABORT = 3

def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="flat 'key = value' scenario file; flags override it")
    p.add_argument("--mode", choices=MODES, help="one sample or two co-polarised samples")
    p.add_argument("--twice-j", type=int, dest="twice_j", help="2j per sample (integer)")
    p.add_argument("--scheme", choices=SCHEMES, help="gain law, countertwisting, or none")
    p.add_argument("--delta-v", type=float, dest="delta_v", help="scaled step (default 1e-3)")
    p.add_argument("--v-max", type=float, dest="v_max", help="scaled horizon (default 20)")
    p.add_argument("--omega", help="frame rotation rate, or 'auto' for pi/(2 delta_v)")
    p.add_argument("--seed", type=int, help="noise seed (default: $SPINLAB_SEED, then 0)")
    p.add_argument("--ensemble", type=int, help="trajectory count for ensemble runs")
    p.add_argument("--stride", type=int, help="record every N steps")
    p.add_argument("--conditioned", action="store_true", default=None,
                   help="single record-conditioned trajectory instead of the averaged equation")
    p.add_argument("--clamp", type=float, help="gain magnitude bound (default 1e3)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--jobs", type=int, help="parallel worker cap for fan-out commands")


def _scenario_config(args: argparse.Namespace):
    overrides = {f.name: getattr(args, f.name, None) for f in fields(SimConfig)}
    env = os.environ.get("SPINLAB_SEED")
    if overrides["seed"] is None and env is not None:
        overrides["seed"] = coerce("seed", env, source="SPINLAB_SEED")
    return load_config(getattr(args, "config", None), overrides)


def _cmd_run(args) -> int:
    config = _scenario_config(args)
    record = run_scenario(config)
    dest = f" -> {config.out}" if config.out else ""
    print(f"run {config.mode}/2j={config.twice_j}/{config.scheme}: "
          f"{record.n_rows} rows, status {record.status}{dest}")
    if not record.ok:
        print(f"aborted at v={record.abort_v:.4f}: {record.abort_reason}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    config = _scenario_config(args)
    ensemble, records = run_ensemble(config)
    bad = [r for r in records if not r.ok]
    dest = f" -> {config.out}" if config.out else ""
    print(f"ensemble {config.mode}/2j={config.twice_j}/{config.scheme}: "
          f"{ensemble.n_trajectories}/{len(records)} trajectories ok{dest}")
    for rec in bad:
        print(f"trajectory {rec.meta['traj_index']} aborted at v={rec.abort_v:.4f}: "
              f"{rec.abort_reason}", file=sys.stderr)
    return EXIT_ABORT if bad else EXIT_OK


def _cmd_figure(args) -> int:
    statuses = run_figure(args.figure_id, out_dir=args.out_dir, jobs=_positive("jobs", args.jobs))
    for name, status in sorted(statuses.items()):
        print(f"{args.figure_id}/{name}: {status}")
    return EXIT_OK if all(s == "ok" for s in statuses.values()) else EXIT_ABORT


def _sweep_one(task):
    mode, twice_j, scheme, delta_v, v_max = task
    return min_squeezing_sweep(mode, (twice_j,), scheme, delta_v=delta_v, v_max=v_max)


def _positive(flag: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{flag}: need a positive integer, got {value!r}")
    return value


def _cmd_sweep(args) -> int:
    try:
        twice_j_values = [int(tok) for tok in args.twice_j.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"twice-j: expected comma-separated integers, got {args.twice_j!r}") from None
    if not twice_j_values:
        raise ConfigError("twice-j: need at least one value")
    v_max = args.v_max if args.v_max is not None else sweep_v_max(args.scheme)
    delta_v = args.delta_v if args.delta_v is not None else 1e-3
    jobs = _positive("jobs", args.jobs)
    tasks = [(args.mode, _positive("twice-j", tj), args.scheme, delta_v, v_max) for tj in twice_j_values]
    points = [p for chunk in fan_out(_sweep_one, tasks, jobs) for p in chunk]
    for p in points:
        note = "" if p.status == "ok" else f"  [{p.status}]"
        print(f"{p.mode:6s} {p.scheme:16s} 2j={p.twice_j:<3d} "
              f"(j+1)*xi2_min = {p.scaled:.6f}{note}")
    if args.out:
        write_sweep_csv(points, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_frontier(args) -> int:
    points = optimal_curve(args.mode, _positive("twice-j", args.twice_j), n_mu=_positive("n-mu", args.n_mu))
    best = min_xi2_on_curve(points)
    j = args.twice_j / 2.0
    print(f"frontier {args.mode}/2j={args.twice_j}: {len(points)} points, "
          f"(j+1)*xi2_min = {(j + 1) * best.xi2:.6f} at chi = {best.chi:.4f}")
    if args.out:
        write_frontier_csv(points, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_gamma(args) -> int:
    rates = gamma_from_experiment(coupling=args.coupling, photon_flux=args.flux)
    print(f"measurement rate = {rates.rate:.6g} /s")
    print(f"scaled-unit timescale = {rates.timescale:.6g} s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlab",
        description="Spin squeezing by continuous measurement and feedback: "
                    "deterministic and conditioned simulations, extremal-state "
                    "curves, and reproducible CSV artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario and write its CSV")
    _add_scenario_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_ens = sub.add_parser("ensemble", help="conditioned trajectories plus their average")
    _add_scenario_flags(p_ens)
    p_ens.set_defaults(handler=_cmd_ensemble)

    p_fig = sub.add_parser("figure", help="regenerate a bundled scenario set")
    p_fig.add_argument("figure_id", choices=sorted(FIGURE_BUNDLES))
    p_fig.add_argument("--out-dir", dest="out_dir", help="directory for the curve CSVs")
    p_fig.add_argument("--jobs", type=int, default=1, help="parallel worker cap")
    p_fig.set_defaults(handler=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="best squeezing versus sample size")
    p_sweep.add_argument("--mode", choices=MODES, required=True)
    p_sweep.add_argument("--scheme", choices=SWEEP_SCHEMES, required=True)
    p_sweep.add_argument("--twice-j", dest="twice_j", required=True,
                         help="comma-separated 2j values, e.g. 2,4,10")
    p_sweep.add_argument("--delta-v", type=float, dest="delta_v")
    p_sweep.add_argument("--v-max", type=float, dest="v_max")
    p_sweep.add_argument("--out", help="sweep table CSV path")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_front = sub.add_parser("frontier", help="extremal (polarisation, variance) curve")
    p_front.add_argument("--mode", choices=MODES, required=True)
    p_front.add_argument("--twice-j", type=int, dest="twice_j", required=True)
    p_front.add_argument("--n-mu", type=int, dest="n_mu", default=200)
    p_front.add_argument("--out", help="frontier CSV path")
    p_front.set_defaults(handler=_cmd_frontier)

    p_gamma = sub.add_parser("gamma", help="physical measurement rate from apparatus numbers")
    p_gamma.add_argument("--coupling", type=float, default=5e-13,
                         help="dimensionless probe coupling (default 5e-13)")
    p_gamma.add_argument("--flux", type=float, default=2e16,
                         help="probe photon flux per second (default 2e16)")
    p_gamma.set_defaults(handler=_cmd_gamma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
