"""Per-layer timing for the traced run, from the benchmark's own files.

The tracer replaces, for the duration of one workload repetition, the
module (or class) attribute each caller looks up with a timing wrapper,
and restores every original afterwards. Nothing inside spinlab changes.

Each wrapped call is a span. Spans nest: a span's child time is the time
covered by the spans it caused, and its self time is its duration minus
that. A layer's share of the traced wall time is the sum of the self times
of its spans, so nested layers are not counted twice.

``numpy.linalg.eigvalsh`` is wrapped as the positivity audit: its only
caller in spinlab is the audit in ``dynamics.evolve``.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("algebra", "dynamics", "feedback", "metrics", "stochastic", "optimal_states", "harness")

# (span, owner, attribute): owner is a spinlab module name, "<module>.<Class>",
# or "numpy.linalg". Functions imported into several modules are wrapped at
# every name a workload's callers look up.
SITES = (
    ("algebra.frame", "harness", "two_mode_frame"),
    ("algebra.frame", "harness", "single_mode_frame"),
    ("algebra.frame", "algebra", "two_mode_frame"),
    ("algebra.frame", "algebra", "single_mode_frame"),
    ("algebra.frame", "optimal_states", "two_mode_frame"),
    ("algebra.frame", "optimal_states", "single_mode_frame"),
    ("dynamics.evolve", "harness", "evolve"),
    ("dynamics.evolve", "dynamics", "evolve"),
    ("dynamics.step", "dynamics", "unconditioned_step"),
    ("dynamics.rate", "dynamics", "feedback_rate"),
    ("dynamics.audit", "numpy.linalg", "eigvalsh"),
    ("feedback.gain", "feedback.FeedbackScheme", "gain"),
    ("metrics.compute", "dynamics", "compute_metrics"),
    ("metrics.compute", "stochastic", "compute_metrics"),
    ("metrics.sweep", "metrics", "min_squeezing_sweep"),
    ("stochastic.trajectory", "harness", "trajectory_run"),
    ("stochastic.trajectory", "stochastic", "trajectory_run"),
    ("stochastic.step", "stochastic", "conditioned_step"),
    ("stochastic.noise", "stochastic.WienerStream", "increment"),
    ("stochastic.fan_out", "harness", "run_trajectories"),
    ("stochastic.average", "harness", "average_records"),
    ("optimal_states.curve", "harness", "optimal_curve"),
    ("optimal_states.curve", "optimal_states", "optimal_curve"),
    ("optimal_states.ground_point", "optimal_states", "ground_point"),
    ("harness.scenario", "harness", "run_scenario"),
    ("harness.scenario", "harness", "run_ensemble"),
    ("harness.csv", "harness", "write_trajectory_csv"),
    ("harness.csv", "harness", "write_ensemble_csv"),
    ("harness.csv", "harness", "write_frontier_csv"),
    ("harness.csv", "harness", "write_sweep_csv"),
)

# (metric, unit, better) for every per-layer metric the traced run reports
PER_LAYER = (
    ("algebra.frame_s", "s", "lower"),
    ("algebra.frame_mb", "MiB", "lower"),
    ("dynamics.step_us", "us", "lower"),
    ("dynamics.rate_us", "us", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.audit_us", "us", "lower"),
    ("dynamics.audits", "count", "lower"),
    ("dynamics.loop_self_s", "s", "lower"),
    ("dynamics.min_eig", "eigenvalue", "higher"),
    ("dynamics.max_trace_drift", "trace", "lower"),
    ("feedback.gain_us", "us", "lower"),
    ("feedback.gain_calls", "count", "lower"),
    ("feedback.clamp_events", "count", "lower"),
    ("metrics.compute_us", "us", "lower"),
    ("metrics.compute_calls", "count", "lower"),
    ("stochastic.step_us", "us", "lower"),
    ("stochastic.steps", "count", "lower"),
    ("stochastic.noise_us", "us", "lower"),
    ("stochastic.loop_self_s", "s", "lower"),
    ("stochastic.average_s", "s", "lower"),
    ("stochastic.kept_ratio", "ratio", "higher"),
    ("stochastic.attempted", "count", "lower"),
    ("optimal_states.ground_point_us", "us", "lower"),
    ("optimal_states.points", "count", "lower"),
    ("harness.csv_s", "s", "lower"),
    ("harness.csv_bytes", "bytes", "lower"),
    ("harness.csv_files", "count", "lower"),
    ("trace_overhead_s", "s", "lower"),
) + tuple((f"{layer}.share", "ratio", "lower") for layer in LAYERS)


def _frame_bytes(frame) -> int:
    """Bytes held in the frame's ndarray attributes, each array counted once."""
    seen = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            seen[id(obj)] = obj.nbytes
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                visit(getattr(obj, name))

    for value in vars(frame).values():
        visit(value)
    return sum(seen.values())


class Tracer:
    """Spans and counts for one traced repetition.

    Use as a context manager around the repetition: entering installs the
    wrappers, leaving restores every original attribute.
    """

    def __init__(self, sl):
        self._sl = sl
        self._saved = []  # (owner, attribute, original, owner had its own attribute)
        self._stack = []  # child time accumulated by each open span
        self.durations = defaultdict(lambda: array("d"))
        self.child = defaultdict(float)
        self.frame_bytes = 0
        self.min_eig = 0.0
        self.max_trace_drift = 0.0
        self.clamp_events = 0
        self.kept = 0
        self.attempted = 0
        self.csv_bytes = 0
        # span -> hook that reads a count off the call's arguments and result;
        # it runs after the span closes, so its cost lands in the caller's self time
        self._observers = {
            "algebra.frame": self._observe_frame,
            "dynamics.evolve": self._observe_evolve,
            "feedback.gain": self._observe_gain,
            "stochastic.average": self._observe_average,
            "harness.csv": self._observe_csv,
        }

    def _owner(self, path: str):
        if path == "numpy.linalg":
            return np.linalg
        module, _, cls = path.partition(".")
        owner = getattr(self._sl, module)
        return getattr(owner, cls) if cls else owner

    def sites(self):
        """(owner, attribute) for every wrapped name."""
        return [(self._owner(path), attr) for _, path, attr in SITES]

    def _wrap(self, span: str, fn):
        stack, durations, child = self._stack, self.durations[span], self.child
        observe = self._observers.get(span)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                durations.append(dt)
                child[span] += inner
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_frame(self, args, frame):
        self.frame_bytes = max(self.frame_bytes, _frame_bytes(frame))

    def _observe_evolve(self, args, record):
        self.min_eig = min(self.min_eig, record.min_eig_floor)
        self.max_trace_drift = max(self.max_trace_drift, record.max_trace_drift)

    def _observe_gain(self, args, result):
        self.clamp_events += int(result[1])

    def _observe_average(self, args, ensemble):
        self.kept += ensemble.n_trajectories
        self.attempted += len(args[0])

    def _observe_csv(self, args, path):
        self.csv_bytes += path.stat().st_size

    def __enter__(self):
        try:
            for span, path, attr in SITES:
                owner = self._owner(path)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self._wrap(span, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results ---------------------------------------------------------

    def calls(self, span: str) -> int:
        return len(self.durations.get(span, ()))

    def total(self, span: str) -> float:
        return float(sum(self.durations.get(span, ())))

    def self_time(self, span: str) -> float:
        return self.total(span) - self.child.get(span, 0.0)

    def median_us(self, span: str) -> float:
        values = self.durations.get(span)
        return statistics.median(values) * 1e6 if values else 0.0

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every per-layer metric; a layer that did not run reads 0."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for span in self.durations:
            layer_self[span.split(".", 1)[0]] += self.self_time(span)
        values = {
            "algebra.frame_s": self.total("algebra.frame"),
            "algebra.frame_mb": self.frame_bytes / 2**20,
            "dynamics.step_us": self.median_us("dynamics.step"),
            "dynamics.rate_us": self.median_us("dynamics.rate"),
            "dynamics.steps": self.calls("dynamics.step"),
            "dynamics.audit_us": self.median_us("dynamics.audit"),
            "dynamics.audits": self.calls("dynamics.audit"),
            "dynamics.loop_self_s": self.self_time("dynamics.evolve"),
            "dynamics.min_eig": self.min_eig,
            "dynamics.max_trace_drift": self.max_trace_drift,
            "feedback.gain_us": self.median_us("feedback.gain"),
            "feedback.gain_calls": self.calls("feedback.gain"),
            "feedback.clamp_events": self.clamp_events,
            "metrics.compute_us": self.median_us("metrics.compute"),
            "metrics.compute_calls": self.calls("metrics.compute"),
            "stochastic.step_us": self.median_us("stochastic.step"),
            "stochastic.steps": self.calls("stochastic.step"),
            "stochastic.noise_us": self.median_us("stochastic.noise"),
            "stochastic.loop_self_s": self.self_time("stochastic.trajectory"),
            "stochastic.average_s": self.total("stochastic.average"),
            # nothing attempted means nothing was dropped
            "stochastic.kept_ratio": self.kept / self.attempted if self.attempted else 1.0,
            "stochastic.attempted": self.attempted,
            "optimal_states.ground_point_us": self.median_us("optimal_states.ground_point"),
            "optimal_states.points": self.calls("optimal_states.ground_point"),
            "harness.csv_s": self.total("harness.csv"),
            "harness.csv_bytes": self.csv_bytes,
            "harness.csv_files": self.calls("harness.csv"),
            "trace_overhead_s": traced_wall - untraced_wall,
        }
        for layer in LAYERS:
            values[f"{layer}.share"] = layer_self[layer] / traced_wall
        return values
