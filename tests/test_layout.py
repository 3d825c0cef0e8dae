"""Package layout rules, checked on the source: each module reaches the
others only through their public names, the frame's operators are read
only through its public methods and at a time only through frame.at(v),
one module owns process fan-out, one function loops over the steps, one
function decides whether a stack is stepped as float64, one function
spells the parity mirror, every name the benchmark tracer wraps exists,
and every function and class of dynamics has a caller in the package.
Also that a run on frame nodes builds none of the frame's cross terms."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np

import spinlab
from spinlab.algebra import two_mode_coherent_state, two_mode_frame
from spinlab.dynamics import EvolutionSpec, evolve
from spinlab.feedback import FeedbackScheme

SOURCES = {path.stem: ast.parse(path.read_text()) for path in Path(spinlab.__file__).parent.glob("*.py")}


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


def test_every_traced_site_resolves():
    # read the tracer's table without running the tracer: a renamed
    # function must fail here, not only in the benchmark's own tests
    path = Path(__file__).parents[1] / "benchmarks" / "tracing.py"
    (table,) = (
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SITES"]
    )
    sites = ast.literal_eval(table)
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


def _referenced(node) -> str | None:
    """The name a Name or Attribute node reads, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_every_dynamics_definition_has_a_caller_in_the_package():
    # a path only tests take is code no run checks; an import or an
    # __all__ entry is not a caller, and neither is the definition itself
    uncalled = []
    for definition in SOURCES["dynamics"].body:
        if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(
            _referenced(node) == definition.name and id(node) not in inside
            for tree in SOURCES.values()
            for node in ast.walk(tree)
        ):
            uncalled.append(definition.name)
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
