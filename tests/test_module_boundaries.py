"""Static checks on how the package's modules use one another.

Modules talk through public names only: no module imports an underscore
name from a sibling, and the package ``__init__``'s export table holds only
names a module lists in its ``__all__``.  No module imports scipy, at load or
inside a function, so the package runs on numpy alone.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphon_lab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _sibling_imports(path):
    """``(module, name, line)`` for each name imported from a package module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:
            module = node.module
        elif node.level == 0 and (node.module or "").startswith("graphon_lab."):
            module = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            yield module, alias.name, node.lineno


def _declared_all(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


def _imports(path):
    """``(module, line)`` for each import in ``path``, at any level."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"__init__", "core", "estimation", "experiments"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_sibling_imports(path):
    private = [
        f"{path.name}:{line} imports {name} from {module}"
        for module, name, line in _sibling_imports(path)
        if name.startswith("_")
    ]
    assert not private


def _export_table(path):
    """The ``_EXPORTS`` table of ``path``: owning module -> the names it re-exports."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_init_reexports_only_declared_names():
    table = _export_table(PACKAGE / "__init__.py")
    assert table and all(table.values()), "__init__.py has no _EXPORTS table to check"
    undeclared = []
    for module, names in table.items():
        declared = _declared_all(PACKAGE / f"{module}.py")
        undeclared += [f"__init__.py: {name} is not in {module}.__all__"
                       for name in names if declared is None or name not in declared]
    assert not undeclared


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_scipy_import_at_load(path):
    # nor anywhere else: a deferred import inside a function counts too
    found = [
        f"{path.name}:{line} imports {module}"
        for module, line in _imports(path)
        if module == "scipy" or module.startswith("scipy.")
    ]
    assert not found


def test_aggregation_imports_core_only():
    # the grids and their rules live in estimation, beside FitConfig; the
    # EWA code needs neither
    def siblings(stem):
        return {module for module, _, _ in _sibling_imports(PACKAGE / f"{stem}.py")}

    assert siblings("aggregation") == {"core"}
    assert "aggregation" not in siblings("estimation")
