"""Every binding the benchmark's traced run expects is one the tracer wraps.

``perfbench/tracer.py`` wraps each layer function at every module attribute
of the package that refers to it, and each workload in
``perfbench/workloads.py`` lists the bindings a traced run must see called.
A moved import (say ``agent.env`` calling ``qsim.sample_shots`` through the
module) leaves an expected binding unwrapped, which otherwise shows only
after a full traced benchmark run. These tests resolve each binding
directly. They load the two benchmark files and change nothing in them.

The package's top level and ``rlansatz.agent`` re-export only what README's
library example and ``perfbench/*.py`` import from them, so each of those
names is checked too, read from the files as they stand.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while it executes
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

BINDINGS = sorted({b for w in workloads.WORKLOADS.values() for b in w.expected_bindings})


def _split(binding):
    """(module, attribute path) for the longest module prefix the tracer searches."""
    prefixes = [m for m in tracer.PACKAGE_MODULES if binding.startswith(m + ".")]
    assert prefixes, f"{binding} is in no module the tracer searches"
    module_name = max(prefixes, key=len)
    return importlib.import_module(module_name), binding[len(module_name) + 1 :].split(".")


# What the tracer wraps: functions wherever a searched module binds them,
# methods on their class only, under "module.Class.method".
WRAPPED_FUNCTIONS = [
    getattr(importlib.import_module(module_name), attr)
    for targets in tracer.LAYER_FUNCTIONS.values()
    for module_name, attr in targets
    if "." not in attr
]
WRAPPED_METHODS = {
    f"{module_name}.{attr}" for targets in tracer.LAYER_FUNCTIONS.values() for module_name, attr in targets if "." in attr
}


@pytest.mark.parametrize("binding", BINDINGS)
def test_expected_binding_is_wrapped_by_the_tracer(binding):
    module, attrs = _split(binding)
    assert hasattr(module, attrs[0]), f"{module.__name__} has no attribute {attrs[0]!r}"
    if len(attrs) > 1:
        assert binding in WRAPPED_METHODS, f"{binding} is not a method the tracer wraps"
        assert attrs[1] in vars(getattr(module, attrs[0])), f"{binding} is not defined on its class"
        return
    value = getattr(module, attrs[0])
    assert any(value is fn for fn in WRAPPED_FUNCTIONS), f"{binding} is not a function the tracer wraps"


def _package_imports(source: str, where: str) -> list[tuple[str, str, str]]:
    """(file, module, name) for each name a ``from rlansatz[.agent] import`` takes."""
    return [
        (where, node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in ("rlansatz", "rlansatz.agent")
        for alias in node.names
    ]


README_CODE = "\n".join(re.findall(r"```python\n(.*?)```", (PERFBENCH.parent / "README.md").read_text(), re.S))
PACKAGE_IMPORTS = sorted(
    set(_package_imports(README_CODE, "README.md")).union(
        *(_package_imports(path.read_text(), f"perfbench/{path.name}") for path in PERFBENCH.glob("*.py"))
    )
)


def test_the_readme_and_benchmark_imports_are_found():
    names = {(module, name) for _, module, name in PACKAGE_IMPORTS}
    assert {("rlansatz", "action_space"), ("rlansatz", "build_baseline"), ("rlansatz", "build_qaoa")} <= names
    assert {("rlansatz.agent", "TrainConfig"), ("rlansatz.agent", "train")} <= names


@pytest.mark.parametrize("where,module,name", PACKAGE_IMPORTS)
def test_name_imported_from_the_package_resolves(where, module, name):
    assert hasattr(importlib.import_module(module), name), f"{where} imports {name} from {module}, which lacks it"
