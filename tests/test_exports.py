import ast
import importlib
import inspect
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tensorwave"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller_outside_its_module(name):
    # a name in `__all__` must be used by another module, a demo, the bench
    # or the README; tests import what they check by name without it
    texts = [
        path.read_text()
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                     *(ROOT / "bench").glob("*"), ROOT / "README.md"]
        if path.is_file() and path != PACKAGE / f"{name}.py"
    ]
    module = importlib.import_module(f"tensorwave.{name}")
    unused = [export for export in getattr(module, "__all__", [])
              if not any(re.search(rf"\b{export}\b", text) for text in texts)]
    assert unused == []


def _private_definitions(tree):
    """Names of the module-level private functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_private_definition_is_used_in_the_package():
    # a module-level `_name` must be read somewhere in src/ besides its
    # definition: as a name or an attribute in code, not in a docstring or
    # an import alone; tests do not count
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    dead = [
        f"{stem}.{name}" for stem, tree in sorted(trees.items())
        for name in _private_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert dead == []


def test_every_readme_signature_lists_the_parameters_of_its_function():
    # a `name(args)` the README shows for a package function must list that
    # function's parameters, in order
    functions = {
        name: f
        for module in MODULES
        for name, f in vars(importlib.import_module(f"tensorwave.{module}")).items()
        if inspect.isfunction(f) and f.__module__.startswith("tensorwave")
    }
    shown = [
        (name, [arg.strip() for arg in args.split(",") if arg.strip()])
        for name, args in re.findall(r"`(\w+)\(([^`()]*)\)`",
                                     (ROOT / "README.md").read_text())
        if name in functions
    ]
    assert shown
    wrong = [(name, args) for name, args in shown
             if args != list(inspect.signature(functions[name]).parameters)]
    assert wrong == []
