"""Scenario configuration, reproducible CSV artifacts, bundled scenario
sets, and the physical-units helper.

Everything downstream of a SimConfig is deterministic: the resolved
config (plus seed) fixes the trajectory bit for bit, and the CSV writer
emits 17-significant-digit decimals so a parse/write round trip loses
nothing. The config hash in each file header ties the artifact back to
the settings that produced it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .algebra import coherent_spin_state, single_mode_frame, two_mode_coherent_state, two_mode_frame
from .dynamics import EvolutionSpec, evolve
from .feedback import LAMBDA_CLAMP_DEFAULT, SCHEME_KINDS, FeedbackScheme
from .metrics import SweepPoint, min_squeezing_sweep
from .optimal_states import FrontierPoint, optimal_curve
from .stochastic import average_records, fan_out, run_trajectories, trajectory_run
from .trajectory import EnsembleRecord, TrajectoryRecord

CSV_FORMAT = "spinlab-csv 1"
MODES = ("single", "two")
# a scenario runs a gain law or, instead of feedback, countertwisting
SCHEMES = SCHEME_KINDS + ("countertwist",)
# a sweep can also read the best squeezing off the extremal-state frontier
SWEEP_SCHEMES = SCHEMES + ("optimal-states",)

# columns the artifact contract exposes, in order; conditioned runs get the tail
_BASE_COLUMNS = ("v", "zeta", "chi", "purity", "lambda")
_COND_TAIL = ("zc_mean", "yc_mean", "entangled")
_INTERNAL_NAME = {"lambda": "lam"}  # CSV name -> record column name


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the field."""


def _about(default, help: str, **flag):
    """A SimConfig field: its default, with its CLI help and choices as metadata."""
    return field(default=default, metadata={"help": help, **flag})


def _is_count(x) -> bool:
    """x is an int and not a bool: Python counts True and False as ints,
    but no spin size, seed, count or stride is spelled as one."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class SimConfig:
    """One scenario. Defaults give the workhorse case: two samples of
    spin 5, simple feedback, unit-mean-squeezing horizon of 20."""

    mode: str = _about("two", "one sample or two co-polarised samples", choices=MODES)
    twice_j: int = _about(10, "2j per sample (integer)")
    scheme: str = _about("simple", "gain law, countertwisting, or none", choices=SCHEMES)
    delta_v: float = _about(1e-3, "scaled step (default 1e-3)")
    v_max: float = _about(20.0, "scaled horizon (default 20)")
    # auto resolves to pi/(2 delta_v): a quarter frame period per step, which
    # evolve integrates as the period-averaged generator at second order
    omega: float | str = _about("auto", "frame rotation rate, or 'auto' for pi/(2 delta_v)")
    seed: int = _about(0, "noise seed (default: $SPINLAB_SEED, then 0)")
    ensemble: int = _about(1, "trajectory count for ensemble runs")
    stride: int = _about(1, "record every N steps")
    conditioned: bool = _about(False, "single record-conditioned trajectory instead of the averaged equation")
    clamp: float = _about(LAMBDA_CLAMP_DEFAULT, "gain magnitude bound (default 1e3)")
    out: str | None = _about(None, "CSV output path")
    jobs: int = _about(1, "parallel worker cap for fan-out commands")

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode: expected one of {MODES}, got {self.mode!r}")
        if not _is_count(self.twice_j) or self.twice_j < 1:
            raise ConfigError(f"twice-j: need a positive integer, got {self.twice_j!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme: expected one of {SCHEMES}, got {self.scheme!r}")
        if not (0 < self.delta_v <= 0.1):
            raise ConfigError(f"delta-v: need 0 < delta_v <= 0.1, got {self.delta_v!r}")
        if not 0 < self.v_max < math.inf or self.delta_v > self.v_max:
            raise ConfigError(f"v-max: need a finite v_max >= delta_v > 0, got {self.v_max!r}")
        if self.omega != "auto":
            try:
                omega = float(self.omega)
            except (TypeError, ValueError):
                raise ConfigError(f"omega: need a number or 'auto', got {self.omega!r}") from None
            if not 0 <= omega < math.inf:
                raise ConfigError(f"omega: need a finite non-negative value, got {omega!r}")
        if not _is_count(self.seed) or self.seed < 0 or self.seed >= 2**64:
            raise ConfigError(f"seed: need a 64-bit non-negative integer, got {self.seed!r}")
        if not _is_count(self.ensemble) or self.ensemble < 1:
            raise ConfigError(f"ensemble: need a positive integer, got {self.ensemble!r}")
        if not _is_count(self.stride) or self.stride < 1:
            raise ConfigError(f"stride: need a positive integer, got {self.stride!r}")
        if not 0 < self.clamp < math.inf:
            raise ConfigError(f"clamp: need a finite positive gain bound, got {self.clamp!r}")
        if not _is_count(self.jobs) or self.jobs < 1:
            raise ConfigError(f"jobs: need a positive integer, got {self.jobs!r}")
        if self.conditioned and self.scheme == "countertwist":
            raise ConfigError("scheme: countertwisting has no record to condition on")

    @property
    def omega_value(self) -> float:
        if self.omega == "auto":
            return math.pi / (2.0 * self.delta_v)
        return float(self.omega)

    def frame(self):
        if self.mode == "two":
            return two_mode_frame(self.twice_j, omega=self.omega_value)
        return single_mode_frame(self.twice_j)

    def initial_state(self):
        vec = (
            two_mode_coherent_state(self.twice_j)
            if self.mode == "two"
            else coherent_spin_state(self.twice_j)
        )
        return np.outer(vec, vec.conj())

    def controller(self) -> FeedbackScheme | None:
        """The gain law; None for countertwisting, which feeds nothing back."""
        if self.scheme == "countertwist":
            return None
        return FeedbackScheme(self.scheme, clamp=self.clamp)

    def spec(self) -> EvolutionSpec:
        """What to integrate, on a freshly built frame."""
        return EvolutionSpec(
            frame=self.frame(),
            generator="countertwist" if self.scheme == "countertwist" else "feedback",
            delta_v=self.delta_v,
            v_max=self.v_max,
            record_stride=self.stride,
        )

    def header_items(self) -> list[tuple[str, str]]:
        """Flat key/value view of what the run computes, omega resolved;
        same spelling the config-file parser accepts."""
        values = {**vars(self), "omega": self.omega_value}
        return [
            (name.replace("_", "-"), _header_cell(values[name], kind))
            for name, kind in _FIELD_TYPES.items()
            if name not in _RUN_ONLY
        ]

    def canonical_hash(self) -> str:
        payload = "\n".join(f"{k}={v}" for k, v in self.header_items())
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


def _fmt(x) -> str:
    """A CSV cell: 17 significant digits for a number, a string as it is."""
    return x if isinstance(x, str) else "%.17g" % float(x)


# each SimConfig field's declared type, as written in the class
_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}
# where the artifacts go and how many workers make them: not in the header
_RUN_ONLY = ("out", "jobs")
_BOOLEANS = dict.fromkeys(("true", "1", "yes", "on"), True) | dict.fromkeys(("false", "0", "no", "off"), False)
# declared field type -> (parser, what a refusal says it wanted); omega's
# "float | str" keeps a non-number as it is, for SimConfig to take or refuse
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (lambda raw: _BOOLEANS[raw.lower()], "a boolean"),
    "float | str": (float, None),
}


def _header_cell(value, kind: str) -> str:
    if kind == "bool":
        return "true" if value else "false"
    return str(value) if kind == "int" else _fmt(value)


def coerce(key: str, raw: str, source: str | None = None):
    """raw, a config-file, flag or environment string, as field key's
    declared type; errors name source, by default the field."""
    parse, wanted = _PARSERS.get(_FIELD_TYPES[key], (str, None))
    try:
        return parse(raw)
    except (ValueError, KeyError):
        if wanted is None:
            return raw
        raise ConfigError(f"{source or key.replace('_', '-')}: not {wanted}: {raw!r}") from None


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines into typed overrides. '#' starts a comment."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        name = key.replace("-", "_")
        if name not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        overrides[name] = coerce(name, raw)
    return overrides


def load_config(path=None, cli_overrides: dict | None = None) -> SimConfig:
    """Defaults, then config file, then CLI values; later layers win. A
    CLI value given as a string is coerced as a config file value is."""
    merged: dict = {}
    if path is not None:
        merged.update(parse_config_text(Path(path).read_text()))
    if cli_overrides:
        merged.update(
            {k: coerce(k, v) if isinstance(v, str) else v for k, v in cli_overrides.items() if v is not None}
        )
    try:
        return SimConfig(**merged)
    except TypeError as err:
        raise ConfigError(str(err)) from None


# ---------------------------------------------------------------------------
# CSV artifacts


def _rows(columns) -> str:
    """The CSV rows, each ending in a newline, given one sequence per
    column: one % over a row template whose cell is "%s" for a text column
    and "%.17g" for a numeric one, the bytes _fmt gives cell by cell."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    row = ",".join("%s" if c and isinstance(c[0], str) else "%.17g" for c in columns) + "\n"
    return row * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


def _write_csv(path, header, names, columns) -> Path:
    """Write one artifact: the format line, the given header lines, the
    column list, then one line of cells per row, given one sequence per
    column."""
    lines = [f"# {CSV_FORMAT}", *header, "# columns = " + ",".join(names)]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n" + _rows(columns))
    return path


def _config_header(config: SimConfig) -> list[str]:
    return [f"# config-hash {config.canonical_hash()}"] + [
        f"# {k} = {v}" for k, v in config.header_items()
    ]


def write_trajectory_csv(record: TrajectoryRecord, config: SimConfig, path) -> Path:
    names = _BASE_COLUMNS + (_COND_TAIL if config.conditioned else ())
    header = _config_header(config)
    if "traj_index" in record.meta and record.meta["traj_index"] is not None:
        header.append(f"# traj-index = {record.meta['traj_index']}")
    header.append(f"# status = {record.status}")
    if record.abort_v is not None:
        header.append(f"# abort-v = {_fmt(record.abort_v)}")
        header.append(f"# abort-reason = {record.abort_reason}")
    cols = [record.column(_INTERNAL_NAME.get(n, n)) for n in names]
    return _write_csv(path, header, names, cols)


def write_ensemble_csv(ensemble: EnsembleRecord, config: SimConfig, path) -> Path:
    """Mean columns across the ensemble, same layout as a single run."""
    names = _BASE_COLUMNS + _COND_TAIL
    header = _config_header(config) + [f"# trajectories = {ensemble.n_trajectories}"]
    cols = [ensemble.columns[_INTERNAL_NAME.get(n, n)] for n in names]
    return _write_csv(path, header, names, cols)


def write_frontier_csv(points: list[FrontierPoint], path) -> Path:
    columns = ([p.mu for p in points], [p.chi for p in points], [p.zeta for p in points])
    return _write_csv(path, [], ("mu", "chi", "zeta"), columns)


def write_sweep_csv(points: list[SweepPoint], path) -> Path:
    names = ("mode", "scheme", "twice_j", "xi2_min", "scaled")
    columns = [[p.mode for p in points], [p.scheme for p in points], [str(p.twice_j) for p in points]]
    columns += [[p.xi2_min for p in points], [p.scaled for p in points]]
    return _write_csv(path, [], names, columns)


def read_csv(path) -> tuple[dict, dict]:
    """Parse an emitted artifact back into (header, columns).

    Floats round-trip bit-exactly: 17 significant decimal digits pin an
    IEEE double uniquely.
    """
    header: dict = {}
    names: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("columns"):
                names = body.split("=", 1)[1].strip().split(",")
            elif " = " in body:
                key, val = body.split(" = ", 1)
                header[key.strip()] = val.strip()
            elif " " in body:
                key, val = body.split(" ", 1)
                header[key.strip()] = val.strip()
            else:
                header.setdefault("format", body)
            continue
        if line.strip():
            rows.append(line.split(","))
    if not names:
        raise ConfigError(f"{path}: missing '# columns =' header line")
    numeric = all(_is_float(cell) for cell in (rows[0] if rows else []))
    columns = {}
    for i, name in enumerate(names):
        cells = [r[i] for r in rows]
        columns[name] = np.array([float(c) for c in cells]) if numeric else cells
    return header, columns


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Scenario execution


def run_scenario(config: SimConfig) -> TrajectoryRecord:
    """Integrate one scenario and, when config.out is set, persist it.

    Conditioned scenarios run a single trajectory (index 0); use
    run_ensemble for averages. Aborted runs still write their partial
    rows so the failure is inspectable.
    """
    rho0 = config.initial_state()
    if config.conditioned:
        record = trajectory_run(rho0, config.spec(), config.controller(), seed=config.seed, traj_index=0)
    else:
        record = evolve(rho0, config.spec(), config.controller())
    if config.out:
        write_trajectory_csv(record, config, config.out)
    return record


def run_ensemble(config: SimConfig) -> tuple[EnsembleRecord | None, list[TrajectoryRecord]]:
    """config.ensemble conditioned trajectories plus their average.

    Per-trajectory files land next to config.out with a _t<i> suffix,
    written before the average; the averaged columns get _mean. With no
    surviving trajectory there is no average: the ensemble is None and no
    _mean file is written. No two workers share a file.
    """
    config = replace(config, conditioned=True)
    records = run_trajectories(
        config.initial_state(),
        config.spec(),
        config.controller(),
        seed=config.seed,
        n_trajectories=config.ensemble,
        jobs=config.jobs,
    )
    out = Path(config.out or "")

    def path(tag):
        return out.with_name(f"{out.stem}_{tag}{out.suffix or '.csv'}")

    if config.out:
        for rec in records:
            write_trajectory_csv(rec, config, path(f"t{rec.meta['traj_index']}"))
    ensemble = average_records(records) if any(r.ok for r in records) else None
    if config.out and ensemble:
        write_ensemble_csv(ensemble, config, path("mean"))
    return ensemble, records


@dataclass(frozen=True)
class ExperimentRates:
    """Physical measurement rate implied by an apparatus coupling."""

    rate: float  # 1/s
    timescale: float  # s, time to integrate one scaled unit


def gamma_from_experiment(coupling: float = 5e-13, photon_flux: float = 2e16) -> ExperimentRates:
    """rate = coupling^2 * flux / 4, with the implied scaled-unit time.

    Defaults describe a dispersive optical readout of two atomic
    ensembles at realistic probe power.
    """
    if not coupling > 0:
        raise ConfigError(f"coupling: need a positive value, got {coupling!r}")
    if not photon_flux > 0:
        raise ConfigError(f"flux: need a positive value, got {photon_flux!r}")
    rate = coupling * coupling * photon_flux / 4.0
    return ExperimentRates(rate=rate, timescale=1.0 / rate)


# ---------------------------------------------------------------------------
# Bundled scenario sets: canonical curve families, one CSV per curve


_FIG6_SCHEMES = ("simple", "analytic", "optimal", "countertwist", "optimal-states")


def _bundle_runs(**named_configs: SimConfig):
    return tuple(("run", name, cfg) for name, cfg in named_configs.items())


FIGURE_BUNDLES: dict[str, tuple] = {
    # workhorse trajectory: variance dip, purity excursion, late-time plateau
    "fig1": _bundle_runs(
        simple=SimConfig(mode="two", twice_j=10, scheme="simple", stride=10),
    ),
    # gain-law shoot-out against the reachable frontier at the same size
    "fig2": _bundle_runs(
        simple=SimConfig(mode="two", twice_j=10, scheme="simple", stride=10),
        analytic=SimConfig(mode="two", twice_j=10, scheme="analytic", stride=10),
        optimal=SimConfig(mode="two", twice_j=10, scheme="optimal", stride=10),
        countertwist=SimConfig(mode="two", twice_j=10, scheme="countertwist", v_max=5.0, stride=10),
    )
    + (("frontier", "optimal-states", ("two", 10)),),
    # matched-noise conditioned pair: regulation on vs off, same record noise
    "fig3": _bundle_runs(
        regulated=SimConfig(
            mode="two", twice_j=10, scheme="simple-conditioned",
            conditioned=True, v_max=10.0, seed=7, stride=10,
        ),
        unregulated=SimConfig(
            mode="two", twice_j=10, scheme="none",
            conditioned=True, v_max=10.0, seed=7, stride=10,
        ),
    ),
    # smallest nontrivial spin: feedback laws collapse onto the frontier
    "fig4": _bundle_runs(
        simple=SimConfig(mode="single", twice_j=2, scheme="simple", stride=10),
        analytic=SimConfig(mode="single", twice_j=2, scheme="analytic", stride=10),
        optimal=SimConfig(mode="single", twice_j=2, scheme="optimal", stride=10),
        closed_form=SimConfig(mode="single", twice_j=2, scheme="spin1-analytic", stride=10),
        countertwist=SimConfig(mode="single", twice_j=2, scheme="countertwist", v_max=5.0, stride=10),
    )
    + (("frontier", "optimal-states", ("single", 2)),),
    # reachable frontiers at two total spins
    "fig5": (
        ("frontier", "total-spin-2", ("single", 4)),
        ("frontier", "total-spin-10", ("single", 20)),
    ),
    # scaling of the best squeezing with size, one sweep per scheme
    "fig6a": tuple(("sweep", scheme, ("single", (2, 4, 6, 10, 14, 20), scheme)) for scheme in _FIG6_SCHEMES),
    "fig6b": tuple(("sweep", scheme, ("two", (1, 2, 4, 6, 10), scheme)) for scheme in _FIG6_SCHEMES),
}


def _figure_item(args):
    kind, name, payload, out_dir = args
    out = Path(out_dir) / f"{name.replace('_', '-')}.csv"
    if kind == "run":
        record = run_scenario(replace(payload, out=str(out)))
        return name, record.status
    if kind == "frontier":
        mode, twice_j = payload
        write_frontier_csv(optimal_curve(mode, twice_j), out)
        return name, "ok"
    if kind == "sweep":
        mode, twice_j_values, scheme = payload
        points = min_squeezing_sweep(mode, twice_j_values, scheme)
        write_sweep_csv(points, out)
        return name, next((p.status for p in points if p.status != "ok"), "ok")
    raise ValueError(f"unknown bundle item kind {kind!r}")


def run_figure(figure_id: str, out_dir=None, jobs: int = 1) -> dict[str, str]:
    """Regenerate every curve of one bundled scenario set.

    Returns {curve name: final status}. Curves are independent, so they
    fan out across processes when jobs > 1; each writes only its own file.
    """
    if figure_id not in FIGURE_BUNDLES:
        raise ConfigError(f"figure: unknown id {figure_id!r}; have {sorted(FIGURE_BUNDLES)}")
    out_dir = Path(out_dir) if out_dir is not None else Path("figures") / figure_id
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(kind, name, payload, str(out_dir)) for kind, name, payload in FIGURE_BUNDLES[figure_id]]
    return dict(fan_out(_figure_item, tasks, jobs))
