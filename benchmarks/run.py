"""spinlab benchmark: four user workloads timed end to end, every output
checked, and a separate traced run that times each package layer.

Run from the repository root:

    python3 benchmarks/run.py --workload workhorse --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload all`` runs each workload in its own child process, one after
another, so one workload's peak memory never carries into another's.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (the
median, over repetitions, of the time from the first call until the
artifacts are written), ``setup_s`` (the median of several fresh imports of
spinlab plus building the workload's frames and initial state),
``peak_rss_mb`` (this process's peak resident memory through set-up and the
first repetition) and ``ok_share`` (repetitions that passed every check over
repetitions attempted). The failure share is ``failed``/``attempted`` in the result line; it is not a
metric because a metric must never read 0. Set-up is sampled again before
every repetition, and repetitions continue while another one, with its
set-up, still fits in ``--seconds``; there is always at least one.

With ``--trace 1`` the run makes one untraced and one traced repetition and
reports the per-layer metrics of ``tracing.PER_LAYER``, including the
tracing overhead (traced minus untraced wall time).

Everything runs in this one process with ``jobs=1``, and BLAS is pinned to
one thread before numpy loads: process or thread fan-out on a small shared
machine would measure the scheduler. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it describe the machine, each repetition, the headline physics
numbers against their references, exact counts and artifact sha256 sums.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, check_headline  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

MODULES = ("algebra", "dynamics", "feedback", "metrics", "stochastic", "optimal_states", "harness")
# before each repetition, set-up is sampled at least SETUP_MIN_SAMPLES times
# and for at least SETUP_MIN_S seconds, so a cheap set-up gets enough samples
# for a steady median
SETUP_MIN_SAMPLES = 3
SETUP_MIN_S = 0.5
CHILD_TIMEOUT_S = 600

# (metric, unit, better) reported with --trace 0
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_share", "ratio", "higher"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_spinlab() -> SimpleNamespace:
    """Import spinlab afresh and return its modules by short name."""
    if not (SRC / "spinlab" / "__init__.py").is_file():
        raise BenchError(f"spinlab sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "spinlab" or m.startswith("spinlab.")]:
        del sys.modules[name]
    importlib.import_module("spinlab")
    return SimpleNamespace(**{m: sys.modules[f"spinlab.{m}"] for m in MODULES})


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads_requested": BLAS_THREADS}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = None  # this BLAS does not report its thread count
    return info


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split(" ", 1)[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "commit": _commit(),  # None outside a git checkout
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _repetition(sl, workload, plan, out_dir: Path, refs, tracer=None):
    """One timed repetition: run, then check. Returns (wall seconds, Outcome)."""
    out_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(sl, plan, out_dir)
        else:
            with tracer:
                result = workload.run(sl, plan, out_dir)
        wall = time.perf_counter() - t0
        outcome = workload.verify(sl, result, out_dir)
        if refs is not None:
            check_headline(outcome, refs)
    except Exception as err:  # a raising run is a failed repetition, not a crash
        wall = time.perf_counter() - t0
        outcome = Outcome(failures=[f"raised {type(err).__name__}: {err}", traceback.format_exc()])
    outcome.digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outcome.artifacts if p.is_file()
    }
    shutil.rmtree(out_dir)
    return wall, outcome


def _report(kind: str, payload) -> None:
    print(f"# {kind} " + json.dumps(payload, sort_keys=True), flush=True)


def _set_up(workload, seed: int, times: list):
    """Sample the set-up a user pays once per run: a fresh import of spinlab,
    then the workload's frames and initial state. Appends each sample to
    ``times`` and returns the modules and plan of the last one. What set-up
    built is dropped: the public API builds its own frames, so holding them
    would only inflate peak memory."""
    spent, samples = 0.0, 0
    while samples < SETUP_MIN_SAMPLES or spent < SETUP_MIN_S:
        t0 = time.perf_counter()
        sl = load_spinlab()
        plan, built = workload.setup(sl, seed)
        dt = time.perf_counter() - t0
        del built
        times.append(dt)
        spent, samples = spent + dt, samples + 1
    # each fresh import leaves the previous module copies as cyclic garbage;
    # free them now rather than in a collection inside a timed repetition
    gc.collect()
    return sl, plan


def measure(workload, seed: int, seconds: float, trace: bool, refs=None, out_root: Path = OUT):
    """Set up, run repetitions, and return the result object.

    Set-up is sampled before every repetition, so its median, like the
    repetitions', spans the whole run rather than one moment of it.
    Untraced repetitions continue while another one (with its set-up) still
    fits in ``seconds``; the traced run makes one untraced and one traced.
    """
    out_dir = out_root / f"{workload.name}-{os.getpid()}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    setup_times, walls, outcomes, tracer = [], [], [], None
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        sl, plan = _set_up(workload, seed, setup_times)
        set_up_cost = time.perf_counter() - before
        traced = trace and len(walls) == 1
        if traced:
            tracer = Tracer(sl)
        wall, outcome = _repetition(
            sl, workload, plan, out_dir / str(len(walls)), refs, tracer if traced else None
        )
        walls.append(wall)
        outcomes.append(outcome)
        if len(walls) == 1:
            # peak of set-up plus one repetition, whatever the repetition count
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _report("rep", {"n": len(walls), "traced": traced, "wall_s": wall, "ok": outcome.ok,
                        "failures": outcome.failures[:5]})
        if trace:
            if len(walls) == 2:
                break
        elif time.perf_counter() - start + set_up_cost + statistics.median(walls) > seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        out_root.rmdir()  # leave nothing behind unless another run still uses it
    except OSError:
        pass

    failed = sum(not o.ok for o in outcomes)
    last = outcomes[-1]
    _report("detail", {
        "workload": workload.name,
        "reps": len(walls),
        "walls_s": walls,
        "setup_samples_s": setup_times,
        "headline": last.headline,
        "reference": refs,
        "counts": last.counts,
        "counts_repeat": all(o.counts == last.counts for o in outcomes),
        "artifacts": len(last.digests),
        "sha256": last.digests,
    })
    if trace:
        values = tracer.metrics(traced_wall=walls[1], untraced_wall=walls[0])
        spec = PER_LAYER
    else:
        ok_walls = [w for w, o in zip(walls, outcomes) if o.ok] or walls
        values = {
            "wall_s": statistics.median(ok_walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kib / 1024.0,
            "ok_share": (len(walls) - failed) / len(walls),
        }
        spec = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }


def _run_all(args) -> dict:
    """Each workload in a child process; the combined result names metrics
    ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True, help="feeds only cond_ensemble's noise")
    parser.add_argument("--seconds", type=float, required=True, help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.workload == "all":
            result = _run_all(args)
        else:
            load_spinlab()  # fail before printing anything when the sources are missing
            _report("env", environment(args.seed))
            refs = json.loads(REFERENCE.read_text())[args.workload]
            result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), refs)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
