"""Smoke test of the benchmark harness at tiny sizes; runs in about twenty seconds.

    python3 perfbench/smoke.py

It checks that:
  1. the input generator reproduces `tests/conftest.py::piecewise_dataset`
     byte for byte: the pinned 84 rows and a tiny set;
  2. the recorded compare-pinned reference is the acceptance test's
     LOCKED_COMPARE_METRICS, this commit's compare output passes the check,
     and the same output with one locked metric perturbed by 1e-6 fails it;
  3. a cold call whose output matches its reference counts as attempted and
     passed, and one whose output differs counts as failed;
  4. a traced run reports every per-layer metric in BENCHMARK.json, and its
     spans nest as the CLI calls nest;
  5. the calibration task runs without importing fmtree, so no change to the
     package can change the speed it gauges;
  6. without the package sources the benchmark exits non-zero, printing nothing.
Exits 0 when all hold and 1 naming the first that does not.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import signal
import subprocess
import sys

import run
import workloads as wl

sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]

from conftest import piecewise_dataset  # noqa: E402
from fmtree.cli import main as cli_main  # noqa: E402
from fmtree.data import render_dataset  # noqa: E402
from test_acceptance import LOCKED_COMPARE_METRICS  # noqa: E402

WORKDIR = run.RUNS / "smoke"
TINY = ("tiny.csv", 60, 7)
# Spans other than these sit directly under cli.main, which sits at the top.
PARENTS = {
    "fcm.fcm_cluster": "fmt.train_fmt",
    "fcm.build_fuzzy_model": "fmt.train_fmt",
    "fcm.membership_matrix": "fmt.train_fmt",
    "mtree.build_tree": "fmt.train_fmt",
    "mtree.prune": "fmt.train_fmt",
}


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL {what}")
    print(f"smoke: ok {what}")


def in_process(argv: list[str]) -> None:
    cwd = os.getcwd()
    os.chdir(WORKDIR)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
    finally:
        os.chdir(cwd)
    expect(code == 0, f"`fmtree {' '.join(argv)}` exits 0 in-process")


def check_generator() -> None:
    expect(wl.piecewise_csv(84, 2014) == render_dataset(piecewise_dataset()),
           "pinned 84-row CSV is byte-identical")
    expect(wl.piecewise_csv(60, 7) == render_dataset(piecewise_dataset(60, 7)),
           "tiny CSV is byte-identical")


def check_oracle(refs: dict) -> None:
    reference = refs["compare-pinned"]
    expect(reference["metrics"] == LOCKED_COMPARE_METRICS, "reference is LOCKED_COMPARE_METRICS")
    (WORKDIR / "pinned84.csv").write_text(wl.piecewise_csv(84, 2014), encoding="utf-8")
    in_process(["compare", "--data", "pinned84.csv", "--train-count", "59", "--seed", "2014",
                "--out-dir", "compare"])
    check = wl.check_compare("compare", reference)
    expect(check(WORKDIR) == [], "compare-pinned output matches the locked metrics")
    metrics_file = WORKDIR / "compare" / "metrics.json"
    metrics = json.loads(metrics_file.read_text(encoding="utf-8"))
    metrics["FMT"]["mmre"] *= 1 + 1e-6
    metrics_file.write_text(json.dumps(metrics), encoding="utf-8")
    problems = check(WORKDIR)
    expect(len(problems) == 1 and "compare" in problems[0] and "metrics.FMT.mmre" in problems[0],
           "one perturbed locked metric is caught and named")


def tiny_workload(reference: dict) -> wl.Workload:
    name, n, seed = TINY
    compare = ("compare", "--data", name, "--train-count", "40", "--seed", str(seed),
               "--trees", "20", "--out-dir", "compare")
    return wl.Workload(
        "tiny", {name: wl.piecewise_csv(n, seed)},
        {name: wl.sha256_text(wl.piecewise_csv(n, seed))},
        timed=[wl.Call(compare, ("compare",), wl.check_compare("compare", reference))],
    )


def check_counting() -> None:
    name, n, seed = TINY
    (WORKDIR / name).write_text(wl.piecewise_csv(n, seed), encoding="utf-8")
    argv = list(tiny_workload({}).timed[0].argv)
    in_process(argv)
    reference = wl.summarize_compare(WORKDIR / "compare")
    run.SETUP_REPEATS = 1
    good = run.Runner(tiny_workload(reference), WORKDIR).measure(seconds=0)
    expect((good.attempted, good.failed) == (1, 0) and set(good.metrics) ==
           set(run.declared_metrics(0)), "a matching cold call counts as passed")
    perturbed = copy.deepcopy(reference)
    perturbed["metrics"]["Treeboost"]["mdmre"] *= 1 - 1e-6
    bad = run.Runner(tiny_workload(perturbed), WORKDIR).measure(seconds=0)
    expect((bad.attempted, bad.failed) == (1, 1) and "metrics.Treeboost.mdmre" in bad.problems[0],
           "a differing cold call counts as failed")


def check_trace() -> None:
    name, n, seed = TINY
    no_check = lambda workdir: []  # noqa: E731
    calls = [
        ("compare", "--data", name, "--train-count", "40", "--seed", "7", "--trees", "20",
         "--out-dir", "compare"),
        ("train", "--model", "fmt", "--data", name, "--out", "fmt.json"),
        ("train", "--model", "treeboost", "--data", name, "--trees", "20", "--out", "tb.json"),
        ("predict", "--model-file", "fmt.json", "--data", name, "--out", "fmt.csv"),
        ("predict", "--model-file", "tb.json", "--data", name, "--out", "tb.csv"),
        ("evaluate", "--predictions", "fmt.csv", "--data", name, "--out", "report.json"),
    ]
    workload = wl.Workload("tiny-trace", {}, {}, timed=[wl.Call(c, (), no_check) for c in calls])
    result = run.Runner(workload, WORKDIR).trace()
    declared = set(run.declared_metrics(1))
    expect(set(result.metrics) == declared and result.failed == 0,
           "traced run reports every per-layer metric")
    spans = json.loads((WORKDIR / "trace.json").read_text(encoding="utf-8"))["spans"]
    untouched = sorted(k for k in declared if k.endswith(".s") and result.metrics[k] <= 0)
    expect(not untouched, f"every layer has a span ({untouched or 'all'})")
    for span in spans:
        parent = spans[span["parent"]] if span["parent"] is not None else None
        want = None if span["name"] == "cli.main" else PARENTS.get(span["name"], "cli.main")
        if (parent["name"] if parent else None) != want or (
                parent and not parent["start"] <= span["start"] <= span["end"] <= parent["end"]):
            expect(False, f"span {span['name']} nests under {want}")
    expect(result.metrics["cli.main.self_s"] > 0 and result.metrics["fcm.iterations"] > 0
           and result.metrics["mtree.leaves_grown"] >= result.metrics["mtree.leaves_kept"] > 0
           and result.metrics["baselines.trees_fitted"] == 40
           and result.metrics["fmt.predict_fmt_dataset.rows"] == 20 + 60,
           "spans nest as the CLI calls nest, and counts come from return values")


def check_calibration() -> None:
    probe = (f"import runpy, sys; runpy.run_path({str(run.CALIBRATE)!r}, run_name='__main__'); "
             "sys.exit(any(m.split('.')[0] == 'fmtree' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=WORKDIR, env=run.child_env(run.ROOT),
                          capture_output=True, text=True, timeout=60)
    expect(proc.returncode == 0 and proc.stdout.strip() != "",
           "the calibration task runs and never imports fmtree")


def check_bare_directory() -> None:
    bare = WORKDIR / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-pinned", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and proc.stdout == "",
           "without sources the benchmark exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    signal.signal(signal.SIGALRM, run._on_alarm)
    check_generator()
    check_oracle(wl.load_references())
    check_counting()
    check_trace()
    check_calibration()
    check_bare_directory()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
