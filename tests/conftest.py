"""Shared test fixtures: deterministic synthetic benchmarks, and a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fmtree
from fmtree.data import Dataset

SRC = str(Path(fmtree.__file__).resolve().parents[1])

BENCHMARK_SEED = 2014
BENCHMARK_SIZE = 84
BENCHMARK_TRAIN = 59


def piecewise_dataset(n: int = BENCHMARK_SIZE, seed: int = BENCHMARK_SEED) -> Dataset:
    """Effort is piecewise-linear in size (slope break at 220 UCP) plus 3% noise.

    A single global linear or log-linear fit cannot follow both regimes, while
    a tree that can separate them recovers each side almost exactly.  The
    implied PH/UCP ratio drifts far from 20 on both ends, so the fixed-ratio
    baseline is systematically biased.
    """
    rng = np.random.default_rng(seed)
    size = rng.uniform(60.0, 420.0, n)
    productivity = rng.uniform(10.0, 35.0, n)
    complexity = rng.integers(1, 6, n).astype(float)
    low = size <= 220.0
    effort = np.where(
        low,
        11.0 * size + 150.0 * complexity,
        34.0 * size - 5060.0 + 150.0 * complexity,
    )
    effort = effort * np.exp(rng.normal(0.0, 0.03, n))
    ids = tuple(f"p{i + 1:03d}" for i in range(n))
    return Dataset(ids, np.column_stack([size, productivity, complexity]), effort)


def linear_dataset(n: int = 80, seed: int = 11) -> Dataset:
    """Noise-free effort, exactly linear in the three raw features."""
    rng = np.random.default_rng(seed)
    size = rng.uniform(40.0, 300.0, n)
    productivity = rng.uniform(10.0, 35.0, n)
    complexity = rng.integers(1, 6, n).astype(float)
    effort = 25.0 + 12.0 * size + 6.0 * productivity + 90.0 * complexity
    ids = tuple(f"lin{i:03d}" for i in range(n))
    return Dataset(ids, np.column_stack([size, productivity, complexity]), effort)


@pytest.fixture
def benchmark() -> Dataset:
    return piecewise_dataset()


def python_child(*args: str, drop=(), stdout=subprocess.PIPE, check=False, cwd=None,
                 **env: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports this fmtree, with this
    process's environment less the variables in `drop`, plus `env`.  Its stderr, and
    its stdout unless `stdout` says otherwise, are captured as text."""
    kept = {key: value for key, value in os.environ.items() if key not in drop}
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, check=check, cwd=cwd, env={**kept, "PYTHONPATH": SRC, **env})
