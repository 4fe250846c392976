"""Workload inputs, CLI call sequences and output checks for the fmtree benchmark.

Inputs follow the `tests/conftest.py::piecewise_dataset` formula and are
rendered the way `fmtree.data.render_dataset` renders a dataset, so this
module needs numpy but never imports fmtree: the benchmark measures the
package from outside, through its command line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PINNED_SEED = 2014
PINNED_SIZE = 84
PINNED_TRAIN = 59
# References are recorded for SLOTS input seeds (PINNED_SEED onwards); every
# `--seed` value folds onto one of them, so a run with any seed can be checked.
SLOTS = 10
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Predictions are compared in full through exact sums and on this many rows.
SAMPLE_ROWS = 100

CSV_COLUMNS = ("id", "size_ucp", "productivity", "complexity", "effort_ph")
REFERENCES = Path(__file__).resolve().parent / "references.json"

WORKLOAD_NAMES = ("compare-pinned", "compare-2000", "fmt-flow-20k")


def data_seed(seed: int) -> int:
    """The input seed that `--seed` folds onto."""
    return PINNED_SEED + (seed - PINNED_SEED) % SLOTS


def piecewise_columns(n: int, seed: int) -> tuple[np.ndarray, ...]:
    """The `piecewise_dataset` formula: size, productivity, complexity, effort."""
    rng = np.random.default_rng(seed)
    size = rng.uniform(60.0, 420.0, n)
    productivity = rng.uniform(10.0, 35.0, n)
    complexity = rng.integers(1, 6, n).astype(float)
    effort = np.where(
        size <= 220.0,
        11.0 * size + 150.0 * complexity,
        34.0 * size - 5060.0 + 150.0 * complexity,
    )
    effort = effort * np.exp(rng.normal(0.0, 0.03, n))
    return size, productivity, complexity, effort


def piecewise_csv(n: int, seed: int) -> str:
    """Render `piecewise_dataset(n, seed)` as CSV text."""
    size, productivity, complexity, effort = piecewise_columns(n, seed)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for i in range(n):
        writer.writerow([
            f"p{i + 1:03d}",
            repr(float(size[i])),
            repr(float(productivity[i])),
            repr(float(complexity[i])),
            repr(float(effort[i])),
        ])
    return buffer.getvalue()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- summaries
# A summary is the part of an output file that is compared with a reference.
# record.py stores summaries of outputs made at the recorded commit; the
# checks below summarize each new output the same way and compare.


def _read_csv_rows(path: Path) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(path.read_text(encoding="utf-8"))) if row]


def read_predictions(path: Path) -> tuple[list[str], list[float]]:
    rows = _read_csv_rows(path)
    if not rows or rows[0] != ["id", "predicted_ph"]:
        raise ValueError("missing header id,predicted_ph")
    return [r[0] for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def read_efforts(path: Path) -> tuple[list[str], list[float]]:
    rows = _read_csv_rows(path)
    col = rows[0].index("effort_ph")
    return [r[0] for r in rows[1:]], [float(r[col]) for r in rows[1:]]


def summarize_predictions(path: Path) -> dict:
    ids, values = read_predictions(path)
    every = max(1, len(values) // SAMPLE_ROWS)
    return {
        "rows": len(values),
        "ids_sha256": sha256_text("\n".join(ids)),
        "sample_every": every,
        "sample": values[::every],
        "sum": math.fsum(values),
        "sum_squares": math.fsum(v * v for v in values),
    }


def summarize_report(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    box = doc["boxplot"]
    return {
        **{key: doc[key] for key in ("mmre", "mdmre", "pred25", "pred50")},
        "boxplot": {
            key: box[key]
            for key in ("minimum", "q1", "median", "q3", "maximum", "whisker_low", "whisker_high")
        },
        "outliers": len(box["outliers"]),
        "outliers_sum": math.fsum(box["outliers"]),
        "abs_residuals_sum": math.fsum(doc["abs_residuals"]),
    }


def summarize_compare(out_dir: Path) -> dict:
    return {
        "metrics": json.loads((out_dir / "metrics.json").read_text(encoding="utf-8")),
        "win_tie_loss": json.loads((out_dir / "win_tie_loss.json").read_text(encoding="utf-8")),
        "win_tie_loss_txt": (out_dir / "win_tie_loss.txt").read_text(encoding="utf-8"),
    }


def diff(got, want, where: str = "") -> list[str]:
    """Differences between a summary and its reference; numbers to REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            found = sorted(got) if isinstance(got, dict) else got
            return [f"{where or 'top level'}: keys {found!r} != {sorted(want)}"]
        return [d for key in want for d in diff(got[key], want[key], f"{where}.{key}".lstrip("."))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from reference"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in diff(g, w, f"{where}[{i}]")]
    numeric = (int, float)
    if isinstance(want, numeric) and not isinstance(want, bool):
        if isinstance(got, numeric) and not isinstance(got, bool) and math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL
        ):
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]


# -------------------------------------------------------------------- checks
# A check takes the workload directory and returns problems, each naming the
# file it found them in; an empty list means the call's outputs are correct.

Check = Callable[[Path], list[str]]


def _guard(name: str, body: Callable[[Path], list[str]]) -> Check:
    def check(workdir: Path) -> list[str]:
        try:
            return [f"{name}: {problem}" for problem in body(workdir / name)]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{name}: unreadable ({type(exc).__name__}: {exc})"]
    return check


def check_model(name: str, kind: str) -> Check:
    def body(path: Path) -> list[str]:
        doc = json.loads(path.read_text(encoding="utf-8"))
        found = doc.get("kind") if isinstance(doc, dict) else None
        return [] if found == kind else [f"model kind {found!r}, expected {kind!r}"]
    return _guard(name, body)


def check_compare(name: str, reference: dict) -> Check:
    return _guard(name, lambda path: diff(summarize_compare(path), reference))


def check_predictions(name: str, reference: dict) -> Check:
    return _guard(name, lambda path: diff(summarize_predictions(path), reference))


def check_report(name: str, predictions: str, data: str, reference: dict) -> Check:
    """Compare the report with its reference and every residual with its row."""
    def body(path: Path) -> list[str]:
        problems = diff(summarize_report(path), reference)
        residuals = json.loads(path.read_text(encoding="utf-8"))["abs_residuals"]
        ids, predicted = read_predictions(path.parent / predictions)
        data_ids, actual = read_efforts(path.parent / data)
        if ids != data_ids or len(residuals) != len(actual):
            return problems + ["rows do not line up with the dataset"]
        bad = [
            i for i, (r, p, a) in enumerate(zip(residuals, predicted, actual))
            if not math.isclose(r, abs(p - a), rel_tol=REL_TOL, abs_tol=REL_TOL * a)
        ]
        if bad:
            problems.append(f"{len(bad)} abs_residuals differ from |predicted - actual|, "
                            f"first at row {bad[0] + 1}")
        return problems
    return _guard(name, body)


# ----------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Call:
    """One `python -m fmtree.cli` invocation, the outputs it writes, and their check."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Check


@dataclass
class Workload:
    name: str
    inputs: dict[str, str]  # file name -> content, written before anything runs
    input_sha256: dict[str, str]  # file name -> recorded digest; checked on every run
    timed: list[Call]  # one iteration of wall_s


def _compare_call(data: str, train_count: int, seed: int, reference: dict) -> Call:
    argv = ("compare", "--data", data, "--train-count", str(train_count),
            "--seed", str(seed), "--out-dir", "compare")
    return Call(argv, ("compare",), check_compare("compare", reference))


def build(name: str, seed: int, refs: dict) -> Workload:
    """The workload `name` for `--seed` `seed`, checked against `refs`."""
    slot = str(data_seed(seed))
    digests = refs["inputs"]
    if name == "compare-pinned":
        return Workload(
            name,
            {"pinned84.csv": piecewise_csv(PINNED_SIZE, PINNED_SEED)},
            {"pinned84.csv": digests["pinned84.csv"]},
            timed=[_compare_call("pinned84.csv", PINNED_TRAIN, PINNED_SEED, refs[name])],
        )
    if name == "compare-2000":
        return Workload(
            name,
            {"data2000.csv": piecewise_csv(2000, int(slot))},
            {"data2000.csv": digests["data2000.csv"][slot]},
            timed=[_compare_call("data2000.csv", 1500, int(slot), refs[name][slot])],
        )
    if name == "fmt-flow-20k":
        ref = refs[name][slot]
        data = "data20000.csv"
        return Workload(
            name,
            {data: piecewise_csv(20000, int(slot))},
            {data: digests[data][slot]},
            timed=[
                Call(("train", "--model", "fmt", "--data", data, "--seed", slot,
                      "--out", "fmt.json"),
                     ("fmt.json",), check_model("fmt.json", "fmt")),
                Call(("predict", "--model-file", "fmt.json", "--data", data,
                      "--out", "predictions.csv"),
                     ("predictions.csv",),
                     check_predictions("predictions.csv", ref["predictions"])),
                Call(("evaluate", "--predictions", "predictions.csv", "--data", data,
                      "--out", "report.json"),
                     ("report.json",),
                     check_report("report.json", "predictions.csv", data, ref["report"])),
            ],
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
