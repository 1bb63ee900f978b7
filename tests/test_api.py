"""Package surface: every export resolves and no module-level import is unused."""
import ast
import importlib
import pathlib

import pytest

import heisurf

SRC = pathlib.Path(heisurf.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(stem: str) -> ast.Module:
    return ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))


def test_init_reexports_resolve():
    for node in _tree("__init__").body:
        if not isinstance(node, ast.ImportFrom):
            continue
        source = importlib.import_module(f"heisurf.{node.module}")
        for alias in node.names:
            bound = alias.asname or alias.name
            assert hasattr(source, alias.name), \
                f"heisurf.{node.module} has no {alias.name}"
            assert getattr(heisurf, bound) is getattr(source, alias.name)


@pytest.mark.parametrize("stem", ["__init__", *MODULES])
def test_all_entries_resolve(stem):
    module = heisurf if stem == "__init__" else \
        importlib.import_module(f"heisurf.{stem}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"heisurf.{stem}.__all__ names missing {missing}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("stem", MODULES)
def test_no_unused_module_imports(stem):
    tree = _tree(stem)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"heisurf/{stem}.py imports unused names: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Private module-level names and private methods of a module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found += [(target.id, node.lineno) for target in targets
                      if isinstance(target, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(name, line) for name, line in found if _private(name)]


def test_every_private_definition_is_used_in_the_package():
    trees = {stem: _tree(stem) for stem in ["__init__", *MODULES]}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(f"{stem}.py:{line} {name}"
                    for stem, tree in trees.items()
                    for name, line in _private_definitions(tree)
                    if name not in used)
    assert not unused, f"private names no code in heisurf uses: {unused}"
