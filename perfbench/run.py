"""The fmtree benchmark: cold `python -m fmtree.cli` workloads, checked and timed.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from its `src/`.
Workloads are listed in BENCHMARK.json, which also names every metric and
its unit.  With `--trace 0` the run measures end to end: iterations of the
workload's CLI calls as cold processes, one at a time, for `--seconds`
seconds (at least one iteration), and five set-ups (a cold
`import fmtree.cli`) spread among them.  After each timed call a cold
`calibrate.py` gauges the machine's speed, and the reported times are scaled
to a reference speed with it.
With `--trace 1` a single traced process makes the same calls in-process and
reports where the time went, layer by layer.  Every output is checked
against references recorded by `record.py`.

The last line printed is the JSON result.  Exit status: 0 when every output
is correct, 1 when some output differs (the workload and file are named on
stderr), 2 when the benchmark cannot run at all (no result is printed).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
CALIBRATE = HERE / "calibrate.py"
# The median time of a cold `calibrate.py` on the machine of the first point in
# trajectory.json (2-vCPU Intel Xeon VM on a shared host).  A time measured
# while a calibration takes c seconds is reported as time * CALIBRATION_REF_S / c.
CALIBRATION_REF_S = 2.1
# A call that runs this long is killed and counted as failed, so a run ends
# well inside its 180 s limit.
CALL_TIMEOUT_S = 120.0
TRACE_TIMEOUT_S = 170.0
# numpy 2 wheels bundle scipy-openblas, whose symbols carry this prefix.
_BLAS_THREADS_SYMBOL = "scipy_openblas_get_num_threads64_"


class HarnessError(Exception):
    """The benchmark cannot produce a result."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _on_term(signum, frame):
    # Unwind through run_child, which kills and reaps the running child.
    sys.exit(128 + signum)


@dataclass
class Outcome:
    wall_s: float
    exit_code: int
    max_rss_mb: float
    log_tail: str


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    unscaled: dict[str, float] = field(default_factory=dict)  # times before scaling, in s


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FMT_LOG")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd: list[str], cwd: Path, env: dict[str, str], log: Path,
              timeout: float = CALL_TIMEOUT_S) -> Outcome:
    """Run one child to completion; its wall time and max-RSS come from wait4."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        timed_out = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    tail = f"killed after {timeout:g} s" if timed_out else (lines[-1] if lines else "")
    return Outcome(wall, proc.returncode, usage.ru_maxrss / 1024.0, tail)


class Runner:
    """Runs one workload's calls as cold processes in its directory."""

    def __init__(self, workload: wl.Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.env = child_env(ROOT)

    def child(self, cmd: list[str], log: str, timeout: float = CALL_TIMEOUT_S) -> Outcome:
        return run_child(cmd, self.workdir, self.env, self.workdir / log, timeout)

    def cli(self, call: wl.Call) -> tuple[Outcome, list[str]]:
        for name in call.outputs:
            path = self.workdir / name
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        outcome = self.child([sys.executable, "-m", "fmtree.cli", *call.argv], "call.log")
        if outcome.exit_code != 0:
            problems = [f"`fmtree {call.argv[0]}` exited {outcome.exit_code}: {outcome.log_tail}"]
        else:
            problems = call.check(self.workdir)
        return outcome, [f"{self.workload.name}: {p}" for p in problems]

    def import_cold(self) -> Outcome:
        outcome = self.child([sys.executable, "-c", "import fmtree.cli"], "import.log")
        if outcome.exit_code != 0:
            raise HarnessError(f"`import fmtree.cli` failed: {outcome.log_tail}")
        return outcome

    def calibrate(self) -> float:
        outcome = self.child([sys.executable, str(CALIBRATE)], "calibrate.log")
        if outcome.exit_code != 0:
            raise HarnessError(f"calibrate.py exited {outcome.exit_code}: {outcome.log_tail}")
        return outcome.wall_s

    def set_up(self) -> tuple[float, float]:
        """One set-up and the calibration just before it, so it is scaled by the speed then."""
        calibration = self.calibrate()
        return self.import_cold().wall_s, calibration

    def measure(self, seconds: float) -> Result:
        """Run iterations that fit in `seconds`; a calibration follows each call.

        The SETUP_REPEATS set-ups are spread over the run: one follows each of
        the first calibrations, and their time does not count against
        `seconds`.  A run too short for that sets up the rest at its end.  An
        untimed import first writes fmtree's bytecode cache.
        """
        self.import_cold()
        setups: list[tuple[float, float]] = []
        walls: list[float] = []
        calibrations: list[float] = []
        spans: list[float] = []
        attempted = failed = 0
        peak = 0.0
        problems: list[str] = []
        start = time.perf_counter()
        # The next iteration starts only if one of median length still fits.
        while not walls or time.perf_counter() - start + statistics.median(spans) <= seconds:
            began = time.perf_counter()
            setting_up = 0.0
            wall = 0.0
            calibration: list[float] = []
            for call in self.workload.timed:
                outcome, found = self.cli(call)
                attempted += 1
                failed += bool(found)
                problems += found
                wall += outcome.wall_s
                peak = max(peak, outcome.max_rss_mb)
                calibration.append(self.calibrate())
                if len(setups) < SETUP_REPEATS:
                    setups.append((self.import_cold().wall_s, calibration[-1]))
                    setting_up += setups[-1][0]
            walls.append(wall)
            calibrations.append(statistics.fmean(calibration))
            start += setting_up
            spans.append(time.perf_counter() - began - setting_up)
        while len(setups) < SETUP_REPEATS:
            setups.append(self.set_up())
        metrics = {
            "wall_s": statistics.median(
                w * CALIBRATION_REF_S / c for w, c in zip(walls, calibrations)),
            "setup_s": statistics.median(s * CALIBRATION_REF_S / c for s, c in setups),
            "peak_rss_mb": peak,
        }
        unscaled = {
            "raw_wall_s": statistics.median(walls),
            "raw_setup_s": statistics.median(s for s, _ in setups),
            "calibration_s": statistics.median(calibrations),
        }
        samples = {"wall_s": walls, "calibration_s": calibrations,
                   "setup_s": [s for s, _ in setups],
                   "setup_calibration_s": [c for _, c in setups]}
        return Result(metrics, attempted, failed, problems, samples, unscaled)

    def trace(self) -> Result:
        calls = self.workload.timed
        spec = {"calls": [list(c.argv) for c in calls], "out": "trace.json"}
        (self.workdir / "trace_spec.json").write_text(json.dumps(spec), encoding="utf-8")
        outcome = self.child([sys.executable, str(HERE / "tracer.py"), "trace_spec.json"],
                             "trace.log", TRACE_TIMEOUT_S)
        if outcome.exit_code != 0:
            raise HarnessError(f"traced run exited {outcome.exit_code}: {outcome.log_tail}")
        doc = json.loads((self.workdir / "trace.json").read_text(encoding="utf-8"))
        problems: list[str] = []
        failed = 0
        for i, call in enumerate(calls):
            bad = sorted({codes[i] for codes in doc["exit_codes"].values()} - {0})
            found = ([f"{self.workload.name}: `fmtree {call.argv[0]}` returned {bad}"]
                     if bad else
                     [f"{self.workload.name}: {p}" for p in call.check(self.workdir)])
            failed += bool(found)
            problems += found
        return Result(doc["metrics"], len(calls), failed, problems)


def write_inputs(workload: wl.Workload, workdir: Path) -> None:
    """Write the inputs and check each against its recorded digest."""
    for name, text in workload.inputs.items():
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        digest = wl.sha256_text(path.read_text(encoding="utf-8"))
        if digest != workload.input_sha256[name]:
            raise HarnessError(f"input {name} is not byte-identical to the recorded input")


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy (already loaded here), if any."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        if hasattr(handle, _BLAS_THREADS_SYMBOL):
            getter = getattr(handle, _BLAS_THREADS_SYMBOL)
            getter.restype = ctypes.c_int
            getter.argtypes = []
            return int(getter())
    return None


def environment() -> dict:
    """What the children run on; the same interpreter and packages as this process."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads(),
    }


def run(name: str, seed: int, seconds: float, trace: int, units: dict[str, str]
        ) -> tuple[Result, dict]:
    """Run one workload; return the result with exactly `units`' metrics, and the environment."""
    if not (ROOT / "src" / "fmtree" / "cli.py").is_file():
        raise HarnessError(f"no fmtree sources under {ROOT / 'src'}")
    workload = wl.build(name, seed, wl.load_references())
    workdir = RUNS / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    write_inputs(workload, workdir)
    runner = Runner(workload, workdir)
    env = environment()
    result = runner.trace() if trace else runner.measure(seconds)
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise HarnessError(f"metrics not measured: {', '.join(missing)}")
    result.metrics = {key: result.metrics[key] for key in units}
    record = {
        "workload": name, "seed": seed, "data_seed": wl.data_seed(seed), "trace": trace,
        "seconds": seconds, "env": env, "metrics": result.metrics, "unscaled": result.unscaled,
        "samples": result.samples,
        "attempted": result.attempted, "failed": result.failed, "problems": result.problems,
    }
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=wl.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    try:
        units = declared_metrics(args.trace)
        result, env = run(args.workload, args.seed, args.seconds, args.trace, units)
    except (HarnessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {args.workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for problem in result.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in result.metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    for key, value in result.unscaled.items():
        print(f"{key} {value:.6g} s (unscaled)")
    print(f"failed_ratio {result.failed}/{result.attempted} calls")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
