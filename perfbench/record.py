"""Record the references the benchmark checks every output against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py --commit <hash>

Inputs are rendered here through `tests/conftest.py::piecewise_dataset` and
`fmtree.data.render_dataset`, not through the benchmark's own generator, and
the generator must reproduce them byte for byte.  Every workload's CLI calls
run in-process through `fmtree.cli.main` for each of the SLOTS input seeds.
The compare-pinned metrics are stored as `LOCKED_COMPARE_METRICS` from the
acceptance test, after checking that this commit reproduces them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


class _Unrecorded(dict):
    """Stands in for references not recorded yet; any key yields another one."""

    def __missing__(self, key):
        return _Unrecorded()


def _conftest_inputs(names, seed: int) -> dict[str, str]:
    from conftest import piecewise_dataset
    from fmtree.data import render_dataset

    pinned = piecewise_dataset()
    known = {
        "pinned84.csv": lambda: pinned,
        "data2000.csv": lambda: piecewise_dataset(2000, seed),
        "data20000.csv": lambda: piecewise_dataset(20000, seed),
    }
    return {name: render_dataset(known[name]()) for name in names}


def _run(workload: wl.Workload, workdir: Path) -> None:
    from fmtree.cli import main as cli_main

    for call in workload.timed:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(list(call.argv))
        if code != 0:
            raise SystemExit(f"{workload.name}: {' '.join(call.argv)} exited {code}")


def record(name: str, seed: int, workdir: Path, digests: dict) -> dict:
    workload = wl.build(name, seed, _Unrecorded())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for file, text in _conftest_inputs(workload.inputs, seed).items():
        if workload.inputs[file] != text:
            raise SystemExit(f"{name}: benchmark generator differs from conftest for {file}")
        (workdir / file).write_text(text, encoding="utf-8")
        digest = wl.sha256_text(text)
        if file == "pinned84.csv":
            digests[file] = digest
        else:
            digests.setdefault(file, {})[str(seed)] = digest
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _run(workload, workdir)
    finally:
        os.chdir(cwd)
    if name.startswith("compare"):
        return wl.summarize_compare(workdir / "compare")
    return {
        "predictions": wl.summarize_predictions(workdir / "predictions.csv"),
        "report": wl.summarize_report(workdir / "report.json"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the references come from")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_acceptance import LOCKED_COMPARE_METRICS

    workdir = ROOT / ".perfbench_runs" / "record"
    digests: dict = {}
    refs: dict = {"recorded_at": args.commit, "rel_tol": wl.REL_TOL, "inputs": digests}
    pinned = record("compare-pinned", wl.PINNED_SEED, workdir, digests)
    problems = wl.diff(pinned["metrics"], LOCKED_COMPARE_METRICS)
    if problems:
        raise SystemExit("compare-pinned does not reproduce LOCKED_COMPARE_METRICS: "
                         + "; ".join(problems))
    refs["compare-pinned"] = {**pinned, "metrics": LOCKED_COMPARE_METRICS}
    for name in wl.WORKLOAD_NAMES[1:]:
        refs[name] = {}
        for seed in range(wl.PINNED_SEED, wl.PINNED_SEED + wl.SLOTS):
            print(f"recording {name} seed {seed}", file=sys.stderr)
            refs[name][str(seed)] = record(name, seed, workdir, digests)
    shutil.rmtree(workdir, ignore_errors=True)
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
