"""Package layout rules, checked on the source: each module reaches the
others only through their public names, the frame's operators are read
only through its public methods, one module owns process fan-out, one
function loops over the steps, and every name the benchmark tracer wraps
exists. Also that a run on frame nodes builds none of the frame's cross
terms."""

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


class _StepLoops(ast.NodeVisitor):
    """Names of the functions holding a loop over spec.n_steps, each loop
    counted in its innermost function."""

    def __init__(self, module):
        self.module, self.functions, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def _loop(self, node, head):
        if any(isinstance(x, ast.Attribute) and x.attr == "n_steps" for x in ast.walk(head)):
            self.found.append(".".join([self.module] + self.functions[-1:]))
        self.generic_visit(node)

    def visit_For(self, node):
        self._loop(node, node.iter)

    def visit_While(self, node):
        self._loop(node, node.test)


def test_one_function_loops_over_the_steps():
    # integrate steps every run, one state or a stack; a second loop over
    # the steps would be a second integrator to keep in line with it
    found = []
    for module, tree in SOURCES.items():
        visitor = _StepLoops(module)
        visitor.visit(tree)
        found += visitor.found
    assert found == ["dynamics.integrate"]


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
