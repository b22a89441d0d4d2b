"""advplan's modules use one another through public names only, so that a
module's private names can change without a search through the others, and
take each name from the module that defines it, so that no module serves as
a shim for names that have moved elsewhere."""

import ast
from pathlib import Path

import pytest

import advplan

MODULES = sorted(Path(advplan.__file__).parent.glob("*.py"))


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uses(source: str) -> list[tuple[str, str, str]]:
    """``(form, x, y)`` for each ``from .x import y`` and each ``x.y`` where
    ``x`` names a module of the package, in one module's source; ``x`` is
    ``""`` for the package itself."""
    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "advplan"):
            source_name = "." * node.level + (node.module or "")
            module = (node.module or "").removeprefix("advplan").lstrip(".")
            for alias in node.names:
                found.append((f"from {source_name} import {alias.name}", module, alias.name))
                if node.module in (None, "advplan"):  # from . import harness
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.removeprefix("advplan."))
                           for alias in node.names
                           if alias.asname and alias.name.startswith("advplan."))
    found.extend(
        (f"{node.value.id}.{node.attr}", modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    )
    return found


def private_uses(source: str) -> list[str]:
    """Each ``from .x import _y`` and each ``x._y`` where ``x`` names a module
    of the package, in one module's source."""
    return [form for form, _, name in uses(source) if private(name)]


def defined(source: str) -> set[str]:
    """The names a module's top-level code binds other than by an import."""
    names, todo = set(), list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, (ast.Import, ast.ImportFrom, ast.Lambda, ast.comprehension)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def borrowed_uses(source: str, definitions: dict[str, set[str]]) -> list[str]:
    """Each use in one module's source of a name that module ``x`` only
    imports, where ``definitions[x]`` holds the names ``x`` defines; the
    package defines its modules."""
    return [form for form, module, name in uses(source)
            if not dunder(name) and name not in definitions[module]]


def test_the_scan_finds_both_forms():
    source = (
        "from .costs import _kind, scale_vector\n"
        "from . import harness\n"
        "import advplan.plans as plans\n"
        "harness._run_task(harness.__name__, plans._text, scale_vector._x)\n"
    )
    assert sorted(private_uses(source)) == [
        "from .costs import _kind", "harness._run_task", "plans._text"]


def test_the_scan_finds_names_taken_from_a_module_that_only_imports_them():
    definitions = {
        "": {"harness", "plans"},
        "costs": defined("from .plans import PlanSet\n\ndef scale_vector(v):\n    return v\n"),
        "harness": defined("from .config import SweepConfig\nif True:\n    CELLS, (a, b) = 1, (2, 3)\n"),
        "plans": defined("import numpy as np\n\nclass PlanSet:\n    pass\n"),
    }
    source = (
        "from .costs import PlanSet, scale_vector\n"
        "from . import harness\n"
        "import advplan.plans as plans\n"
        "harness.SweepConfig(harness.CELLS, harness.b, harness.__name__, plans.PlanSet, plans.np)\n"
    )
    assert sorted(borrowed_uses(source, definitions)) == [
        "from .costs import PlanSet", "harness.SweepConfig", "plans.np"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_no_module_uses_another_modules_private_names(module):
    assert private_uses(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_each_module_takes_a_name_from_the_module_that_defines_it(module):
    definitions = {path.stem: defined(path.read_text(encoding="utf-8")) for path in MODULES}
    definitions[""] = definitions.pop("__init__") | {path.stem for path in MODULES}
    assert borrowed_uses(module.read_text(encoding="utf-8"), definitions) == []
