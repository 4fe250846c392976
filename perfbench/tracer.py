"""Traced in-process run of one workload's CLI calls.

    PYTHONPATH=src python3 perfbench/tracer.py SPEC.json

SPEC.json holds {"calls": [[arg, ...], ...], "out": "trace.json"}; paths in
the calls are relative to the working directory.  The run times a cold
`import fmtree.cli`, then makes the calls through `fmtree.cli.main` three
times.  The first pass is traced: a `perf_counter` span (name, start, end,
parent) goes around every dataset-level public function of each layer, and
the per-layer metrics come from it.  It runs first so that, like a cold CLI
process, it pays every first-call cost.  Each function is patched where its
caller looks it up; per-row functions are not wrapped.  Counts are read from
the wrapped functions' return values.  The second pass is untraced and the
third traced again; their difference is the tracing overhead, measured with
both passes warm.  Spans stay in memory and are written to the out file at
exit.
"""

import sys
import time

_IMPORT_START = time.perf_counter()
import fmtree.cli  # noqa: E402  (the import is what is being timed)

_IMPORT_S = time.perf_counter() - _IMPORT_START

import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402


def _fcm_counts(result, bound) -> dict:
    iterations = len(result.objective_trace)
    converged = iterations < bound.arguments["config"].max_iterations
    return {"fcm.iterations": iterations, "fcm.converged": int(converged)}


def _leaves(key: str):
    return lambda result, bound: {key: result.leaf_count()}


def _rows(key: str):
    return lambda result, bound: {key: len(result)}


# (module, attribute looked up by the caller, span name, counts from the
# return value, required parent span).  membership_matrix is dataset-level in
# train_fmt but per-row in predict_fmt, so it is only traced under train_fmt.
LAYERS = (
    ("fmtree.cli", "parse_dataset", "data.parse_dataset", None, None),
    ("fmtree.cli", "split_holdout", "data.split_holdout", None, None),
    ("fmtree.fmt", "train_fmt", "fmt.train_fmt", None, None),
    ("fmtree.fmt", "fcm_cluster", "fcm.fcm_cluster", _fcm_counts, None),
    ("fmtree.fmt", "build_fuzzy_model", "fcm.build_fuzzy_model", None, None),
    ("fmtree.fmt", "membership_matrix", "fcm.membership_matrix", None, "fmt.train_fmt"),
    ("fmtree.fmt", "build_tree", "mtree.build_tree", _leaves("mtree.leaves_grown"), None),
    ("fmtree.fmt", "prune", "mtree.prune", _leaves("mtree.leaves_kept"), None),
    ("fmtree.fmt", "predict_fmt_dataset", "fmt.predict_fmt_dataset",
     _rows("fmt.predict_fmt_dataset.rows"), None),
    ("fmtree.fmt", "fmt_from_json", "fmt.fmt_from_json", None, None),
    ("fmtree.baselines", "fit_treeboost", "baselines.fit_treeboost",
     lambda result, bound: {"baselines.trees_fitted": len(result.trees)}, None),
    ("fmtree.baselines", "predict_treeboost_dataset", "baselines.predict_treeboost_dataset",
     _rows("baselines.predict_treeboost_dataset.rows"), None),
    ("fmtree.baselines", "fit_mlr", "baselines.fit_mlr", None, None),
    ("fmtree.baselines", "predict_mlr_dataset", "baselines.predict_mlr_dataset", None, None),
    ("fmtree.evaluation", "evaluate", "evaluation.evaluate", None, None),
    ("fmtree.evaluation", "win_tie_loss", "evaluation.win_tie_loss", None, None),
    ("fmtree.svgplot", "render_boxplot_svg", "svgplot.render_boxplot_svg", None, None),
)
COUNTS = (
    "fcm.iterations", "fcm.converged", "mtree.leaves_grown", "mtree.leaves_kept",
    "fmt.predict_fmt_dataset.rows", "baselines.trees_fitted",
    "baselines.predict_treeboost_dataset.rows",
)
SELF_TIMES = ("cli.main", "fmt.train_fmt")


class Tracer:
    """Spans and counts recorded by the functions it wraps."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, counts=None, within: str | None = None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if within is not None and (parent is None or self.spans[parent]["name"] != within):
                return fn(*args, **kwargs)
            span = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(counts(result, bound))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr, name, counts, within in LAYERS:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), counts, within))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_time(self, name: str) -> float:
        covered = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return sum(
            span["end"] - span["start"] - covered[i]
            for i, span in enumerate(self.spans) if span["name"] == name
        )

    def layer_metrics(self) -> dict:
        metrics = {f"{name}.s": 0.0 for _, _, name, _, _ in LAYERS}
        for span in self.spans:
            if span["name"] != "cli.main":
                metrics[f"{span['name']}.s"] += span["end"] - span["start"]
        for name in SELF_TIMES:
            metrics[f"{name}.self_s"] = self.self_time(name)
        metrics.update({key: self.counts[key] for key in COUNTS})
        return metrics


def run_pass(main, calls) -> tuple[float, list[int]]:
    """Make every call through `main`; return the wall time and the exit codes."""
    codes = []
    start = time.perf_counter()
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(list(argv)))
    return time.perf_counter() - start, codes


def traced_pass(calls) -> tuple[float, list[int], Tracer]:
    tracer = Tracer()
    with tracer.patched():
        wall, codes = run_pass(tracer.wrap("cli.main", fmtree.cli.main), calls)
    return wall, codes, tracer


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    _, codes, tracer = traced_pass(spec["calls"])
    untraced_s, untraced_codes = run_pass(fmtree.cli.main, spec["calls"])
    traced_s, retraced_codes, _ = traced_pass(spec["calls"])
    metrics = {
        "cli.import.s": _IMPORT_S,
        **tracer.layer_metrics(),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
    }
    doc = {
        "metrics": metrics,
        "exit_codes": {"traced": codes, "untraced": untraced_codes, "retraced": retraced_codes},
        "spans": tracer.spans,
    }
    Path(spec["out"]).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
