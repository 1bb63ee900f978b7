"""Package surface: every export resolves and no module-level import is unused."""
import ast
import importlib
import inspect
import pathlib

import pytest

import heisurf

SRC = pathlib.Path(heisurf.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(stem: str) -> ast.Module:
    return ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))


#: The names the package namespace exports.
EXPORTS = [
    "CompareReport", "CompetitorSurface", "MeshObj", "ProfileSpec",
    "ProfileSpecError", "RuledEntireGraph", "ScalingLimitReport",
    "broken_plane_area", "broken_plane_energy", "broken_plane_mesh",
    "build_competitor", "chord_obstruction_check", "competitor_compare",
    "competitor_mesh", "merge_meshes", "mesh_from_graph",
    "mesh_from_mapped_grid", "mesh_from_ruled", "parse_profile",
    "profile_from_string", "scaling_limit", "sigma_rho_area",
    "sigma_rho_membership", "sigma_rho_surface", "strip_mesh", "write_obj",
]


def test_init_reexports_resolve():
    assert sorted(heisurf.__all__) == EXPORTS
    assert sorted(heisurf._EXPORTS) == EXPORTS
    for name, module in heisurf._EXPORTS.items():
        source = importlib.import_module(f"heisurf.{module}")
        assert getattr(heisurf, name) is getattr(source, name), name
    assert set(EXPORTS) <= set(dir(heisurf))
    namespace = {}
    exec("from heisurf import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    with pytest.raises(AttributeError):
        heisurf.no_such_name


def test_numeric_errors_are_arithmetic_errors_and_keep_their_base():
    from heisurf.lines import CalibrationError
    from heisurf.meshes import DegenerateMeshError
    from heisurf.quadrature import QuadratureError
    from heisurf.strips import SolverError
    for error, base in ((QuadratureError, RuntimeError),
                        (CalibrationError, ValueError),
                        (DegenerateMeshError, ValueError),
                        (SolverError, ArithmeticError)):
        assert issubclass(error, ArithmeticError), error
        assert issubclass(error, base), error


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


def test_no_module_imports_a_private_name_of_another():
    # each rule has one owner module; the others call its public names
    found = [f"heisurf/{stem}.py line {node.lineno}: {alias.name}"
             for stem in ["__init__", *MODULES]
             for node in ast.walk(_tree(stem))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if _private(alias.name)]
    assert not found, found


def test_only_reports_spells_the_seventeen_digit_format():
    # `reports.fmt17` defines how every number is written; the OBJ writer
    # computes the same digits exactly where it writes fixed notation and
    # hands it the rest
    found = [f"heisurf/{stem}.py line {number}"
             for stem in ["__init__", *MODULES] if stem != "reports"
             for number, line in enumerate(
                 (SRC / f"{stem}.py").read_text(encoding="utf-8")
                 .splitlines(), 1)
             if ".17g" in line]
    assert not found, found


#: The concrete profile kinds; only their owner module tells them apart.
PROFILE_KINDS = {"PwlProfile", "ArctanProfile", "CallableProfile"}


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_strips_tests_the_kind_of_a_profile():
    # a profile answers for itself through the `Profile` protocol, which
    # another module may still test for (as `lines.monotonicity_check` does)
    found = [f"heisurf/{stem}.py line {node.lineno}"
             for stem in ["__init__", *MODULES] if stem != "strips"
             for node in ast.walk(_tree(stem))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id in ("isinstance", "issubclass")
             and PROFILE_KINDS & {name for arg in node.args[1:]
                                  for name in _names(arg)}]
    assert not found, found


def test_every_profile_kind_solves_with_the_protocol_signature():
    # a narrowing of `Profile.solve` that misses one override fails here
    from heisurf.strips import CallableProfile, Profile, PwlProfile
    want = inspect.signature(Profile.solve)
    for cls in (PwlProfile, CallableProfile):
        assert inspect.signature(cls.solve) == want, cls.__name__


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


TESTS = pathlib.Path(__file__).parent


def _heisurf_modules(tree: ast.Module) -> dict[str, str]:
    """The names a test module binds to heisurf modules, with their paths."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "heisurf":
                    bound[alias.asname or "heisurf"] = \
                        alias.name if alias.asname else "heisurf"
        elif isinstance(node, ast.ImportFrom) and node.module == "heisurf":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"heisurf.{alias.name}"
    return bound


def _constant(name: str) -> bool:
    bare = name.lstrip("_")
    return bool(bare) and bare == bare.upper() and bare != bare.lower()


#: The calls that set an attribute: ``setattr`` on any receiver or none
#: (``monkeypatch.setattr``, the ``patch`` of ``MonkeyPatch.context()``, the
#: builtin) and ``mock.patch`` or ``mock.patch.object``.
_PATCHERS = ("setattr", "patch", "patch.object")


def _constant_patches(source: str) -> list[str]:
    """The patching calls (`_PATCHERS`) of a test source that set an
    upper-case module constant of heisurf, as ``line: module.NAME``."""
    tree = ast.parse(source)
    bound = _heisurf_modules(tree)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and f".{ast.unparse(node.func)}".endswith(
                    tuple(f".{p}" for p in _PATCHERS))):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            module, _, name = first.value.rpartition(".")
        elif len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            head, *rest = ast.unparse(first).split(".")
            module = ".".join([bound.get(head, head), *rest])
            name = str(node.args[1].value)
        else:
            continue
        if module.split(".")[0] == "heisurf" and _constant(name):
            found.append((node.lineno, f"{node.lineno}: {module}.{name}"))
    return [text for _, text in sorted(found)]


def test_the_constant_patch_lint_sees_both_forms():
    # a module and a name, or one dotted string, through every patcher
    source = ("import heisurf.strips as strips\n"
              "from heisurf import lines\n"
              "def test(monkeypatch):\n"
              "    monkeypatch.setattr(strips, '_MAX_STEPS', 0)\n"
              "    monkeypatch.setattr('heisurf.lines._REACH', 1.0)\n"
              "    monkeypatch.setattr(strips, 'strip_surface', None)\n"
              "    with pytest.MonkeyPatch.context() as patch:\n"
              "        patch.setattr(lines, '_REACH', 100.0)\n"
              "    setattr(lines, '_CHUNK', 1)\n"
              "    with mock.patch.object(lines, '_NEAR', 0.0), \\\n"
              "            mock.patch('heisurf.lines._CHUNK', 2):\n"
              "        pass\n")
    assert _constant_patches(source) == [
        "4: heisurf.strips._MAX_STEPS", "5: heisurf.lines._REACH",
        "8: heisurf.lines._REACH", "9: heisurf.lines._CHUNK",
        "10: heisurf.lines._NEAR", "11: heisurf.lines._CHUNK"]


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")),
                         ids=lambda p: p.stem)
def test_no_test_sets_a_module_constant(path):
    # a module constant that only a test tunes is an option no caller needs
    found = _constant_patches(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} patches module constants: {found}"
