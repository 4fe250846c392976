"""The package namespace loads lazily, and the CLI process runs BLAS on one thread."""

import ast
import importlib
import os
import re
import sys
from pathlib import Path

import pytest

import fmtree
from conftest import python_child

ROOT = Path(__file__).resolve().parents[1]
# The BLAS variable that fmtree.cli sets when it is unset, removed from each child.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS",)

# Prints the thread count of the OpenBLAS bundled with numpy, read through its
# getter, else the process's thread count, else nothing.
BLAS_PROBE = """
import ctypes, os, pathlib
import fmtree.cli
import numpy
for lib in sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
    getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
        print(getter())
        break
else:
    if os.path.isdir("/proc/self/task"):
        print(len(os.listdir("/proc/self/task")))
"""


def test_import_loads_no_numpy_and_leaves_the_environment():
    probe = ("import os, sys, fmtree; "
             "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)")
    result = python_child("-c", probe, drop=BLAS_THREADS, check=True)
    assert result.stdout.strip() == "False False"


def test_every_name_is_its_modules_object():
    for name in fmtree.__all__:
        module = importlib.import_module(f"fmtree.{fmtree._SOURCES[name]}")
        assert getattr(fmtree, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from fmtree import *", namespace)
    assert set(fmtree.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(fmtree, name) for name in fmtree.__all__)


def test_submodules_resolve_as_attributes():
    """In a fresh interpreter every module file but cli, which is imported explicitly
    because it sets OPENBLAS_NUM_THREADS, is the package attribute of its name."""
    names = sorted(path.stem for path in Path(fmtree.__file__).parent.glob("*.py")
                   if path.stem not in ("__init__", "cli"))
    assert {"fcm", "svgplot", "ucp"} <= set(names)
    for name in names:
        probe = f"import sys, fmtree; print(fmtree.{name} is sys.modules['fmtree.{name}'])"
        result = python_child("-c", probe, drop=BLAS_THREADS, check=True)
        assert result.stdout.strip() == "True", name


def module_trees():
    """(file name, syntax tree) of each module of the package."""
    for path in sorted(Path(fmtree.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_imports_a_name_it_never_uses():
    """Every name that a module of the package imports is read in that module."""
    for name, tree in module_trees():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{name} never uses {sorted(imported - used)}"


def defined_names(statement: ast.stmt) -> set[str]:
    """The names that a module-level statement binds by def, class or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else []
    )
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def names_read(statement: ast.stmt) -> set[str]:
    """The names and attribute names that a module-level statement reads, less those it
    defines: a definition that reads only itself, as a recursive function does, is unused."""
    reads = {node.id for node in ast.walk(statement)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    reads.update(node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute))
    return reads - defined_names(statement)


def test_every_private_name_is_used_in_the_package():
    """Every module-level `_name` that the package defines is read somewhere in the
    package outside its own definition: a name that only the tests read is dead code."""
    defined, used = {}, set()
    for module, tree in module_trees():
        for statement in tree.body:
            defined.update((name, module) for name in defined_names(statement)
                           if name.startswith("_") and not name.startswith("__"))
            used |= names_read(statement)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"private names nothing in the package reads: {unused}"


def test_every_public_function_and_class_is_used_in_the_package():
    """Every public module-level function and class is read somewhere in the package
    outside its own definition, exported by fmtree's _MODULES or named in a string of
    cli.KINDS, which looks its functions up by name: one that only the tests read is
    dead code."""
    defined, used = {}, {name for names in fmtree._MODULES.values() for name in names.split()}
    for module, tree in module_trees():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if not statement.name.startswith("_"):
                    defined[statement.name] = module
            elif module == "cli.py" and "KINDS" in defined_names(statement):
                used.update(word for node in ast.walk(statement)
                            if isinstance(node, ast.Constant) and isinstance(node.value, str)
                            for word in node.value.split())
            used |= names_read(statement)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"public functions and classes nothing in the package reads: {unused}"


def test_every_import_is_the_standard_library_numpy_or_fmtree():
    """numpy is the one runtime dependency: every import statement of the package,
    those inside functions too, names a standard-library module, numpy or fmtree."""
    allowed = sys.stdlib_module_names | {"numpy", "fmtree"}
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # not an import, or a relative one, which stays in fmtree
            outside = [m for m in modules if m.split(".")[0] not in allowed]
            assert not outside, f"{name} imports {outside}"


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        fmtree.no_such_name  # noqa: B018


def test_dir_lists_every_name():
    assert set(fmtree.__all__) <= set(dir(fmtree))
    assert "__version__" in dir(fmtree)


def test_cli_defaults_blas_to_one_thread():
    threads = python_child("-c", BLAS_PROBE, drop=BLAS_THREADS, check=True).stdout.strip()
    if not threads:
        pytest.skip("no OpenBLAS getter and no /proc/self/task to count threads")
    assert int(threads) == 1


def test_cli_keeps_a_blas_thread_count_the_user_set():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its threads at the CPU count")
    threads = python_child("-c", BLAS_PROBE, drop=BLAS_THREADS, check=True,
                           OPENBLAS_NUM_THREADS="2").stdout.strip()
    if not threads:
        pytest.skip("no OpenBLAS getter and no /proc/self/task to count threads")
    assert int(threads) == 2


def test_console_script_and_module_run_the_same_entry():
    """The `fmtree` console script and `python -m fmtree.cli` call one function."""
    scripts = re.search(r"^\[project\.scripts\]\n(?:[^\[].*\n)*?fmtree = \"fmtree\.cli:(\w+)\"$",
                        (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    assert scripts, "pyproject.toml names no fmtree console script in fmtree.cli"
    tree = ast.parse(Path(fmtree.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [statement] = block.body
    assert ast.unparse(statement) == f"{scripts[1]}()"


FALSIFIED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(value):
    assert value < 10
"""


def test_a_falsified_hypothesis_test_is_reported(tmp_path):
    """Under this repository's pytest configuration, where warnings are errors, a failing
    property test fails with its falsifying example instead of an internal error."""
    (tmp_path / "test_falsified.py").write_text(FALSIFIED, encoding="utf-8")
    result = python_child("-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                          "-p", "no:cacheprovider", "test_falsified.py", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example: test_below_ten(" in result.stdout
