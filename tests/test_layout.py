"""Package layout rules, checked on the source: each module reaches the
others only through their public names, the frame's operators are read
only through its public methods and at a time only through frame.at(v),
one module owns process fan-out, one function loops over the steps, its
keyword options are conditioned and one per-row stop, one
site inside it builds the records of its runs, only dynamics reads the
renormalisation window, one function decides whether a stack is stepped
as float64, one function spells the parity mirror, every name the benchmark tracer wraps or its
workloads read exists, and every function, class, method and cached
property of the package has a caller in the package or is a listed entry
point. Also that a run on frame nodes builds none of the frame's cross
terms."""

import ast
import importlib
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import spinlab
from spinlab.algebra import two_mode_coherent_state, two_mode_frame
from spinlab.dynamics import EvolutionSpec, evolve
from spinlab.feedback import FeedbackScheme

SOURCES = {path.stem: ast.parse(path.read_text()) for path in Path(spinlab.__file__).parent.glob("*.py")}
BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


def _is_frame(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "frame") or (
        isinstance(node, ast.Attribute) and node.attr == "frame"
    )


def test_no_private_names_imported_across_modules():
    found = [
        f"{module}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("spinlab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found


def test_frame_internals_stay_in_algebra():
    found = [
        f"{module}:{node.lineno} frame.{node.attr}"
        for module, tree in SOURCES.items()
        if module != "algebra"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and _is_frame(node.value)
    ]
    assert not found



def test_frame_is_read_at_a_time_only_through_at():
    # one read per time: a per-operator *_at read or a read of the phase
    # would be a second way to the operators at v, beside the held bundle
    found = [
        f"{module}:{node.lineno} frame.{node.attr}"
        for module, tree in SOURCES.items()
        if module != "algebra"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _is_frame(node.value)
        and (node.attr.endswith("_at") or node.attr == "phase")
    ]
    assert not found

def test_one_module_owns_the_process_pool():
    owners = [
        module
        for module, tree in SOURCES.items()
        if any(
            (isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor")
            or (isinstance(node, ast.alias) and node.name == "ProcessPoolExecutor")
            for node in ast.walk(tree)
        )
    ]
    assert len(owners) == 1, owners


def test_every_exported_name_resolves():
    missing = [name for name in spinlab.__all__ if not hasattr(spinlab, name)]
    assert not missing


def _functions_holding(match) -> list[str]:
    """module.function for each node of the package source that match
    accepts, each named by its innermost enclosing function."""
    found = []

    def visit(node, where):
        if match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            inner = isinstance(child, ast.FunctionDef)
            visit(child, f"{where.partition('.')[0]}.{child.name}" if inner else where)

    for module, tree in SOURCES.items():
        visit(tree, module)
    return found


def _steps_loop(node) -> bool:
    head = node.iter if isinstance(node, ast.For) else node.test if isinstance(node, ast.While) else None
    return head is not None and any(isinstance(x, ast.Attribute) and x.attr == "n_steps" for x in ast.walk(head))


def test_one_function_loops_over_the_steps():
    # integrate steps every run, one state or a stack; a second loop over
    # the steps would be a second integrator to keep in line with it
    assert _functions_holding(_steps_loop) == ["dynamics.integrate"]


def test_integrate_ends_runs_early_only_through_its_stop():
    # a sweep's zeta floor and its bracket are one per-row stop; an option
    # beside it, such as a floor, would be a second early exit to keep in
    # line with the stop
    (loop,) = (
        node for node in ast.walk(SOURCES["dynamics"]) if isinstance(node, ast.FunctionDef) and node.name == "integrate"
    )
    assert [arg.arg for arg in loop.args.kwonlyargs] == ["conditioned", "stop"]


def test_one_site_inside_integrate_builds_run_records():
    # every run finishes through integrate's one exit, which records it
    # from the rows so far; a second site would be a second way to finish
    # a run, and a second set of per-member values to keep in line
    sites = [
        (module, node.lineno)
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "TrajectoryRecord"
    ]
    assert len(sites) == 1, sites
    ((module, line),) = sites
    loop = next(
        node for node in ast.walk(SOURCES["dynamics"]) if isinstance(node, ast.FunctionDef) and node.name == "integrate"
    )
    assert module == "dynamics" and loop.lineno <= line <= loop.end_lineno


def test_only_dynamics_reads_the_trace_window():
    # the conditioned step renormalises every state and integrate alone
    # decides which raw traces end a run
    readers = {
        module
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "TRACE_WINDOW")
        or (isinstance(node, ast.Attribute) and node.attr == "TRACE_WINDOW")
        or (isinstance(node, ast.alias) and node.name == "TRACE_WINDOW")
    }
    assert readers == {"dynamics"}


def _asks_if_a_state_is_real(node) -> bool:
    """rho<...>.imag.any(): the test that a start state is exactly real."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "any"
        and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "imag"
        and isinstance(node.func.value.value, ast.Name) and node.func.value.value.id.startswith("rho")
    )


def test_one_function_decides_the_stack_dtype():
    # "the step keeps a real state real and rho0 is exactly real, so step
    # float64" is one rule; a second site would be a second rule to keep
    # in line with it, as evolve's and the conditioned path's once were
    found = _functions_holding(_asks_if_a_state_is_real)
    assert len(set(found)) == 1, found


def _reverses(node) -> bool:
    """A slice with step -1, as in x[::-1, ::-1]: an index reversal."""
    step = node.step if isinstance(node, ast.Slice) else None
    return (
        isinstance(step, ast.UnaryOp) and isinstance(step.op, ast.USub)
        and isinstance(step.operand, ast.Constant) and step.operand.value == 1
    ) or (isinstance(step, ast.Constant) and step.value == -1)


def test_one_function_reflects_the_parity_half():
    # the joint x-parity is the index reversal a -> n - 1 - a; the averaged
    # rate and step fill half their rows by it and evolve checks a start
    # against it, all through one function, so a second spelling of the
    # mirror cannot drift from the first
    found = _functions_holding(_reverses)
    assert len(set(found)) == 1, found


def _traced_sites() -> list[tuple[str, str, str]]:
    """The benchmark tracer's SITES table, (span, owner, attr) per wrapped
    name, read without running the tracer."""
    (table,) = (
        node.value
        for node in ast.parse((BENCHMARKS / "tracing.py").read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SITES"]
    )
    return ast.literal_eval(table)


def test_every_traced_site_resolves():
    # a renamed function must fail here, not only in the benchmark's own tests
    sites = _traced_sites()
    assert sites
    missing = []
    for _, owner, attr in sites:
        # an owner is numpy.linalg, a spinlab module or <module>.<Class>
        if owner == "numpy.linalg":
            found = np.linalg
        else:
            module, _, cls = owner.partition(".")
            found = importlib.import_module(f"spinlab.{module}")
            found = getattr(found, cls, None) if cls else found
        if not hasattr(found, attr):
            missing.append(f"{owner}.{attr}")
    assert not missing


def _benchmark_reads() -> set[tuple[str, str]]:
    """(module, name) for every sl.<module>.<name> the benchmark's
    workloads and runner read, sl being the spinlab modules by short name."""
    return {
        (node.value.attr, node.attr)
        for path in (BENCHMARKS / "workloads.py", BENCHMARKS / "run.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name) and node.value.value.id == "sl"
    }


def test_every_benchmark_entry_point_resolves():
    # a renamed harness.read_csv or optimal_states.min_xi2_on_curve must
    # fail here, not only when the benchmark runs
    reads = _benchmark_reads()
    assert ("harness", "read_csv") in reads
    missing = [f"{m}.{name}" for m, name in reads if not hasattr(importlib.import_module(f"spinlab.{m}"), name)]
    assert not missing


def _referenced(node) -> str | None:
    """The name a Name or Attribute node reads, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _definitions():
    """(qualified name, node) for every module-level function and class of
    the package and every method and cached property of its classes;
    dunder methods, which Python calls, are left out."""
    for module, tree in SOURCES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{module}.{node.name}", node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{module}.{node.name}.{member.name}", member
                elif isinstance(member, ast.Assign) and isinstance(member.value, ast.Call) and (
                    _referenced(member.value.func) == "cached_property"
                ):
                    for target in member.targets:
                        yield f"{module}.{node.name}.{target.id}", member


def _read_by_string() -> set[str]:
    """Names the package reads by string: the constant arguments of getattr
    and of FrameAt._blend, which reads the frame's products by name."""
    return {
        arg.value
        for tree in SOURCES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _referenced(node.func) in ("getattr", "_blend")
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }


# public API outside spinlab.__all__: the reader of every CSV the package
# writes, and the frontier's zeta at a given chi
PUBLIC = {"read_csv", "frontier_zeta_at"}


def test_every_definition_has_a_caller_in_the_package():
    # a path only tests take is code no run checks; an import or an
    # __all__ entry is not a caller, and neither is the definition itself.
    # Entry points need none: the exported names, the names read by string,
    # the names the benchmark wraps or reads, and PUBLIC
    entry = (
        set(spinlab.__all__) | _read_by_string() | PUBLIC
        | {attr for _, _, attr in _traced_sites()} | {name for _, name in _benchmark_reads()}
    )
    readers = defaultdict(set)
    for tree in SOURCES.values():
        for node in ast.walk(tree):
            readers[_referenced(node)].add(id(node))
    uncalled = []
    for name, definition in _definitions():
        short = name.rpartition(".")[2]
        if short not in entry and readers[short] <= {id(node) for node in ast.walk(definition)}:
            uncalled.append(name)
    assert not uncalled


def test_node_run_builds_no_cross_term():
    # with a quarter period per step every read lands on a frame node
    dv = 1e-3
    frame = two_mode_frame(2, omega=math.pi / (2 * dv))
    vec = two_mode_coherent_state(2)
    spec = EvolutionSpec(frame=frame, delta_v=dv, v_max=0.02)
    assert evolve(vec[:, None] * vec.conj(), spec, FeedbackScheme("simple")).ok
    built = set(vars(frame))
    assert {"_z2_c", "_z2_s"} <= built
    assert not {name for name in built if name.endswith("_cs")}
    # J_y^+ and -J_z^- enter only the generator, through per-sample factors
    assert not built & {"_yc", "_ys"}
