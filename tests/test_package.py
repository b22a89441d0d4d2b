"""advplan's modules use one another through public names only, so that a
module's private names can change without a search through the others."""

import ast
from pathlib import Path

import pytest

import advplan

MODULES = sorted(Path(advplan.__file__).parent.glob("*.py"))


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list[str]:
    """Each ``from .x import _y`` and each ``x._y`` where ``x`` names a module
    of the package, in one module's source."""
    tree = ast.parse(source)
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "advplan"):
            source_name = "." * node.level + (node.module or "")
            for alias in node.names:
                if private(alias.name):
                    uses.append(f"from {source_name} import {alias.name}")
                if node.module in (None, "advplan"):  # from . import harness
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("advplan."))
    uses.extend(
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and private(node.attr)
    )
    return uses


def test_the_scan_finds_both_forms():
    source = (
        "from .costs import _kind, scale_vector\n"
        "from . import harness\n"
        "import advplan.plans as plans\n"
        "harness._run_task(harness.__name__, plans._text, scale_vector._x)\n"
    )
    assert sorted(private_uses(source)) == [
        "from .costs import _kind", "harness._run_task", "plans._text"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_no_module_uses_another_modules_private_names(module):
    assert private_uses(module.read_text(encoding="utf-8")) == []
