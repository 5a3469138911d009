import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_dependencies_import():
    import tomllib

    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert deps
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0).replace("-", "_")
        importlib.import_module(name)


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    root = PYPROJECT.parent
    paths = sorted((root / "src" / "ist").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    unused = [hit for path in paths if path.name != "__init__.py"
              for hit in _unused_imports(path)]
    assert unused == []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private_name(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_private(node: ast.AST) -> bool:
    return isinstance(node, _DEFINITIONS) and _is_private_name(node.name)


def _unused_private_definitions(paths: list[Path]) -> list[str]:
    """Module-level _-prefixed functions and classes, and _-prefixed methods
    of module-level classes (dunders aside), that no code in paths names
    outside the definition itself."""
    defined, used = [], set()

    def scan(node: ast.AST, owners: frozenset) -> None:
        for child in ast.iter_child_nodes(node):
            name = child.id if isinstance(child, ast.Name) else \
                child.attr if isinstance(child, ast.Attribute) else None
            if name is not None and name not in owners:
                used.add(name)
            scan(child, owners | {child.name} if isinstance(child, _DEFINITIONS) else owners)

    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if _is_private(stmt):
                defined.append((path.name, stmt.name, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                defined += [(path.name, f"{stmt.name}.{m.name}", m.name)
                            for m in stmt.body if _is_private(m)]
        scan(tree, frozenset())
    return [f"{module}: {label}" for module, label, name in defined if name not in used]


def test_no_unused_private_definitions():
    paths = sorted((PYPROJECT.parent / "src" / "ist").glob("*.py"))
    assert _unused_private_definitions(paths) == []


def test_the_private_guard_sees_methods(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class Joint:\n"
        "    def __init__(self):\n"
        "        self._used()\n"
        "    def _used(self):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def _orphan(cls):\n"
        "        return cls._orphan()\n"
        "def _helper():\n"
        "    return Joint()\n", encoding="utf-8")
    assert _unused_private_definitions([module]) == ["m.py: Joint._orphan", "m.py: _helper"]


def _private_imports(path: Path) -> list[str]:
    """_-prefixed names (dunders aside) that a module of the package
    imports from another, or reads as an attribute of a module it
    imported; a private module itself, such as _kernels, is a module
    and not a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "ist"):
            for alias in node.names:
                if node.module in (None, "ist"):  # from . import module
                    modules.add(alias.asname or alias.name)
                elif _is_private_name(alias.name):
                    hits.append(f"{path.name}:{node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and _is_private_name(node.attr):
            hits.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return hits


def test_the_dense_oracle_imports_no_private_name():
    # infotheory stands alone: what it shares with the battery and the
    # world rules is their public API
    path = PYPROJECT.parent / "src" / "ist" / "infotheory.py"
    assert _private_imports(path) == []


def test_the_private_import_guard_sees_names_and_attributes(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import _kernels, rng\n"
        "from .tiil import SUM_TOL, _Channel\n"
        "from ist.worlds import _argmax as argmax\n"
        "from .errors import __doc__\n"
        "a = _kernels.entropy_bits(rng._mix, _kernels._cap)\n", encoding="utf-8")
    assert _private_imports(module) == ["m.py:2: _Channel", "m.py:3: _argmax",
                                        "m.py:5: rng._mix", "m.py:5: _kernels._cap"]


def _world_type_tests(path: Path) -> list[str]:
    """isinstance calls on a parameter named world, in the functions of a
    module that take one."""
    hits = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or "world" not in {
                a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}:
            continue
        hits += [f"{path.name}:{node.lineno}: {fn.name}" for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "isinstance" and node.args
                 and isinstance(node.args[0], ast.Name) and node.args[0].id == "world"]
    return hits


def test_no_function_branches_on_the_world_form():
    # a built SyntheticWorld and a checked WorldConfig share their field
    # names, so whatever takes a world reads world.tasks alike
    paths = sorted((PYPROJECT.parent / "src" / "ist").glob("*.py"))
    assert [hit for path in paths for hit in _world_type_tests(path)] == []


def test_the_world_form_guard_sees_parameters(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(world, task_id):\n"
        "    if isinstance(world, list):\n"
        "        return world\n"
        "def g(*, world=None):\n"
        "    return isinstance(world, dict) or isinstance(task, list)\n"
        "def h(config):\n"
        "    return isinstance(world, list)\n", encoding="utf-8")
    assert _world_type_tests(module) == ["m.py:2: f", "m.py:5: g"]


def _float_sums(path: Path) -> list[str]:
    """Calls of builtin sum in a module, but for counts: sum over a
    generator or list whose element is an int literal."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            continue
        arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)) \
                and isinstance(arg.elt, ast.Constant) and type(arg.elt.value) is int:
            continue
        hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_floats_are_not_added_by_builtin_sum():
    # builtin sum adds floats with compensation from Python 3.12 on, so a
    # float it returns would depend on the interpreter; src/ist adds in
    # order (functools.reduce(operator.add)) or exactly (math.fsum)
    paths = sorted((PYPROJECT.parent / "src" / "ist").glob("*.py"))
    assert [hit for path in paths for hit in _float_sums(path)] == []


def test_the_sum_guard_allows_only_counts(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "a = sum(1 for x in xs if x)\n"
        "b = sum([1 for x in xs])\n"
        "c = sum(x for x in xs)\n"
        "d = sum(xs)\n"
        "e = sum((1 for x in xs), 0.0)\n"
        "f = sum(1.0 for x in xs)\n"
        "g = sum(True for x in xs)\n"
        "h = xs.sum()\n", encoding="utf-8")
    assert _float_sums(module) == ["m.py:3", "m.py:4", "m.py:5", "m.py:6", "m.py:7"]


def _scalar_checks(path: Path) -> list[str]:
    """Functions of a module that test one name with isinstance against
    bool and against int (alone or in a tuple): an integer or number
    check that refuses True and False."""
    hits = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tested: dict[str, set] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2 \
                    and isinstance(node.args[0], ast.Name):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                tested.setdefault(node.args[0].id, set()).update(
                    k.id for k in kinds if isinstance(k, ast.Name))
        if any({"bool", "int"} <= kinds for kinds in tested.values()):
            hits.append(f"{path.name}: {fn.name}")
    return hits


# the checkers of library arguments, which no document field reaches
LIBRARY_ARGUMENT_CHECKS = {"rng.py: check_uint64", "worlds.py: _check_count",
                           "experiments.py: _check_budget"}


def test_only_jsonio_reads_a_document_integer_or_number():
    # every integer and number field of a document is read by jsonio's
    # _get_int or _get_number, so no other module writes the check again
    paths = sorted((PYPROJECT.parent / "src" / "ist").glob("*.py"))
    hits = [hit for path in paths for hit in _scalar_checks(path)]
    assert {"jsonio.py: _get_int", "jsonio.py: _get_number"} <= set(hits)
    assert [hit for hit in hits if not hit.startswith("jsonio.py: ")
            and hit not in LIBRARY_ARGUMENT_CHECKS] == []


def test_the_scalar_guard_sees_bool_excluding_checks(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(v):\n"
        "    return isinstance(v, bool) or not isinstance(v, int)\n"
        "def g(n):\n"
        "    return not isinstance(n, (int, float)) or isinstance(n, bool)\n"
        "def h(v, w):\n"
        "    return isinstance(v, bool) and isinstance(w, int)\n"
        "def k(v):\n"
        "    return isinstance(v, int) or isinstance(v, float)\n"
        "def m(split):\n"
        "    return isinstance(split, bool)\n", encoding="utf-8")
    assert _scalar_checks(module) == ["m.py: f", "m.py: g"]


def _imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module, at any
    depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_no_module_imports_dataclasses():
    # the record types are named tuples: importing dataclasses (with
    # inspect) and generating each type's methods cost every command
    paths = sorted((PYPROJECT.parent / "src" / "ist").glob("*.py"))
    assert [path.name for path in paths if "dataclasses" in _imported_packages(path)] == []


def test_the_dataclasses_guard_sees_local_and_aliased_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import jsonio\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "    import dataclasses as dc, os.path\n", encoding="utf-8")
    assert _imported_packages(module) == {"dataclasses", "os"}
