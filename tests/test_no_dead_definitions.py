"""Every definition in the package has a caller outside the tests.

A definition is a module-level function or class, or a method of a
module-level class (dunders excluded, since Python calls them). A reference
is a name, an attribute, an imported name or a string constant spelling a
dotted path (``perfbench/tracer.py`` names the functions it wraps that way),
anywhere in ``src/``, ``tools/`` or ``perfbench/``. Test files do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rlansatz"

# kept without a caller on purpose (ROADMAP.md, Floors)
KEPT = {
    "agent.networks.Mlp.get_flat": "criterion 5's gradient check reads it; the checkpoint of resumable runs will",
    "agent.networks.Mlp.set_flat": "criterion 5's gradient check writes it; resuming from a checkpoint will",
    "metrics.solution_distribution": "criterion 11 compares the chain's and QAOA's mass on the ground states",
    "ansatz.is_ryz_connected": "ROADMAP item 2 will apply it to the agent's best circuits",
    "qsim.apply_gate": "the kernel tests' entry point: it checks the vector before the unchecked kernel runs",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _sources():
    for folder in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _definitions(path: Path):
    """(qualified name, bare name) of each definition in a package module."""
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    referenced = set().union(*(_references(path) for path in _sources()))
    unused = {
        qualified
        for path in sorted(PACKAGE.rglob("*.py"))
        for qualified, name in _definitions(path)
        if name not in referenced
    }
    assert unused == set(KEPT)
