"""The package namespace loads lazily, and the CLI process runs BLAS on one thread."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmtree

SRC = str(Path(fmtree.__file__).resolve().parents[1])

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


def run_python(code: str, **env: str) -> str:
    """Standard output of `python -c code` in a fresh interpreter, BLAS variables as given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**base, "PYTHONPATH": SRC, **env},
    )
    return result.stdout.strip()


def test_import_loads_no_numpy_and_leaves_the_environment():
    probe = ("import os, sys, fmtree; "
             "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert run_python(probe) == "False False"


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
    assert fmtree.fcm is sys.modules["fmtree.fcm"]


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        fmtree.no_such_name  # noqa: B018


def test_dir_lists_every_name():
    assert set(fmtree.__all__) <= set(dir(fmtree))
    assert "__version__" in dir(fmtree)


def test_cli_defaults_blas_to_one_thread():
    threads = run_python(BLAS_PROBE)
    if not threads:
        pytest.skip("no OpenBLAS getter and no /proc/self/task to count threads")
    assert int(threads) == 1


def test_cli_keeps_a_blas_thread_count_the_user_set():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its threads at the CPU count")
    threads = run_python(BLAS_PROBE, OPENBLAS_NUM_THREADS="2")
    if not threads:
        pytest.skip("no OpenBLAS getter and no /proc/self/task to count threads")
    assert int(threads) == 2
