"""Package layout rules, checked on the source: each module reaches the
others only through their public names, the frame's operators are read
only through its public methods, one module owns process fan-out, and
one function loops over the steps."""

import ast
from pathlib import Path

import spinlab

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
