"""Command-line interface: synth, compare, train, predict, evaluate, ucp."""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, NoReturn

# Before numpy loads: every matrix product fmtree makes is at most n x 4, too
# narrow to gain from OpenBLAS's worker threads, whose start-up each process
# would pay.  One thread also keeps the bits of the longest products (a node
# model's x.T @ y over 115,200 or more rows) the same on any number of cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

# Every command needs numpy and the data module.  The estimator, evaluation,
# plot and UCP modules each load as a package attribute the first time a
# command uses them (see __init__), so `evaluate` loads none of the estimators.
import fmtree
from .data import (
    PREDICTION_COLUMNS,
    PROFILES,
    Dataset,
    parse_dataset,
    read_numbers,
    render_dataset,
    render_table,
    generate_synthetic,
    split_holdout,
)

logger = logging.getLogger("fmtree")


def _log_level() -> int:
    level = getattr(logging, os.environ.get("FMT_LOG", "WARNING").upper(), None)
    return level if isinstance(level, int) else logging.WARNING


def _setup_logging() -> None:
    level = _log_level()
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")
    logger.setLevel(level)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _dataclass_fields(obj) -> dict:
    """json.dumps' `default`: a dataclass instance is written as the dict of its fields.

    Unlike dataclasses.asdict this copies no field value; json encodes each in turn.
    """
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True, default=_dataclass_fields) + "\n")


def _load(path: str, parse: Callable[[str], Any]) -> Any:
    """parse() the file's UTF-8 text, a BOM dropped; a ValueError's message starts with the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to read") from None


class Kind(NamedTuple):
    """One model kind: `fit(train, config(args))` gives a model for `predict(model, dataset)`.

    `knobs` names the parsed arguments of its own flags, which `config` reads with --seed."""

    label: str
    knobs: tuple[str, ...]
    config: Callable[[argparse.Namespace], Any]
    fit: Callable[[Dataset | None, Any], Any]
    predict: Callable[[Any, Dataset], np.ndarray]
    to_json: Callable[[Any], dict]
    from_json: Callable[[dict], Any]


def _given(**knobs: Any) -> dict[str, Any]:
    """The knobs whose flags were given; the config class supplies the others' defaults."""
    return {name: value for name, value in knobs.items() if value is not None}


def _kind(label: str, module: str, names: str, knobs: str,
          config: Callable[[argparse.Namespace], Any]) -> Kind:
    """The kind whose fit, predict, to_json and from_json are fmtree.<module>'s `names`,
    looked up at each call: the module loads the first time the kind is used, and a
    wrapper installed on its attribute (a tracer, a test double) is the one called."""
    def late(name: str) -> Callable:
        def call(*args):
            return getattr(getattr(fmtree, module), name)(*args)
        return call

    return Kind(label, tuple(knobs.split()), config, *map(late, names.split()))


KINDS: dict[str, Kind] = {
    "fmt": _kind("FMT", "fmt", "train_fmt predict_fmt_dataset fmt_to_json fmt_from_json",
                 "clusters fuzzifier",
                 lambda args: fmtree.fcm.FcmConfig(
                     **_given(k=args.clusters, fuzzifier_m=args.fuzzifier), seed=args.seed)),
    "treeboost": _kind(
        "Treeboost", "baselines",
        "fit_treeboost predict_treeboost_dataset treeboost_to_json treeboost_from_json",
        "trees shrinkage",
        lambda args: fmtree.baselines.TreeboostConfig(
            **_given(n_trees=args.trees, shrinkage=args.shrinkage), seed=args.seed)),
    "mlr": _kind("MLR", "baselines", "fit_mlr predict_mlr_dataset mlr_to_json mlr_from_json",
                 "", lambda args: None),
    "ucp": _kind("UCP", "ucp", "fit_ucp predict_ucp_dataset ucp_to_json ucp_from_json",
                 "ratio", lambda args: fmtree.ucp.effort_ratio(args.ratio)),
}


def _predict(kind: Kind, model, dataset: Dataset) -> np.ndarray:
    """kind.predict(model, dataset); ValueError at the first prediction that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = kind.predict(model, dataset)
    finite = np.isfinite(predictions)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{kind.label} prediction for project {dataset.ids[i]!r} is not "
                         f"finite: {predictions[i]}")
    return predictions


def _configs(args: argparse.Namespace, names: Iterable[str] = KINDS) -> dict[str, Any]:
    """The configuration of each kind in `names`, every kind by default: built before
    data is read, so that its knobs are checked first.  Each loads its kind's module."""
    return {name: KINDS[name].config(args) for name in names}


def cmd_synth(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    dataset = generate_synthetic(profile, args.count, args.seed)
    text = render_dataset(dataset)
    _write_text(Path(args.out), text)
    efforts = dataset.efforts
    centered = efforts - efforts.mean()
    variance = float(np.mean(centered**2))
    skewness = float(np.mean(centered**3)) / variance**1.5 if variance > 0 else math.nan
    logger.info("wrote %d synthetic projects to %s", len(dataset), args.out)
    print(f"wrote {len(dataset)} projects to {args.out}")
    print(
        f"effort mean {efforts.mean():.1f} (target {profile.mean_effort:.1f}), "
        f"sd {efforts.std():.1f} (target {profile.sd_effort:.1f}), "
        f"skewness {skewness:.2f} (target {profile.skewness:.2f})"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    configs = _configs(args)
    evaluation = fmtree.evaluation
    dataset = _load(args.data, parse_dataset)
    train, test = split_holdout(dataset, args.train_count, args.seed)
    if len(test) < evaluation.MIN_PAIRS:
        raise ValueError(
            f"--train-count {args.train_count} leaves {len(test)} project(s) for the test"
            f" split; the Wilcoxon test needs at least {evaluation.MIN_PAIRS}"
        )
    logger.info("split %d projects into %d train / %d test", len(dataset), len(train), len(test))

    models = {name: kind.fit(train, configs[name]) for name, kind in KINDS.items()}
    predictions = {
        kind.label: _predict(kind, models[name], test) for name, kind in KINDS.items()
    }
    reports, wtl = evaluation.compare(test.efforts, predictions)

    out_dir = Path(args.out_dir)
    metrics_json = {name: report.scores() for name, report in reports.items()}
    metrics_text = evaluation.render_metrics_table(reports)
    wtl_text = evaluation.render_wtl_table(wtl)
    _write_json(out_dir / "metrics.json", metrics_json)
    _write_text(out_dir / "metrics.txt", metrics_text)
    _write_json(out_dir / "win_tie_loss.json", wtl)
    _write_text(out_dir / "win_tie_loss.txt", wtl_text)
    boxes = {name: report.boxplot for name, report in reports.items()}
    _write_text(out_dir / "residuals.svg", fmtree.svgplot.render_boxplot_svg(boxes))

    print(metrics_text)
    print(wtl_text, end="")
    print(f"\nreports written to {out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    kind = KINDS[args.model]
    # The configs of the kind trained and of each kind a knob was given for: every
    # knob given is checked before data is read, and a knob left out has a valid default.
    needed = [name for name, other in KINDS.items() if name == args.model
              or any(getattr(args, knob) is not None for knob in other.knobs)]
    config = _configs(args, needed)[args.model]
    train = _load(args.data, parse_dataset) if args.data else None
    _write_json(Path(args.out), kind.to_json(kind.fit(train, config)))
    print(f"wrote {args.model} model to {args.out}")
    return 0


def _parse_model(text: str, expected: str | None) -> tuple[Kind, Any]:
    """The kind and the model in a model file's JSON text; `expected`, if given, must match."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(doc).__name__}")
    name = doc.get("kind")
    if expected is not None and name != expected:
        raise ValueError(f"model file kind {name!r} does not match requested {expected!r}")
    if not isinstance(name, str) or name not in KINDS:
        raise ValueError(f"unknown model kind {name!r} in model file")
    kind = KINDS[name]
    return kind, kind.from_json(doc)


def cmd_predict(args: argparse.Namespace) -> int:
    kind, model = _load(args.model_file, lambda text: _parse_model(text, args.model))
    dataset = _load(args.data, parse_dataset)
    predictions = _predict(kind, model, dataset)
    rows = zip(dataset.ids, map(repr, predictions.tolist()))
    _write_text(Path(args.out), render_table(PREDICTION_COLUMNS, rows))
    print(f"wrote {len(dataset)} predictions to {args.out}")
    return 0


def _parse_predictions(text: str) -> dict[str, float]:
    """Parse a predictions CSV with the columns PREDICTION_COLUMNS (see data.read_numbers)."""
    rows, values = read_numbers(text, PREDICTION_COLUMNS)
    return dict(zip(rows, values[:, 0].tolist()))


def _first_ids(ids: list[str]) -> str:
    """The first 5 of `ids`, then the count of the rest: a message stays short."""
    rest = len(ids) - 5
    return ", ".join(ids[:5]) + (f" and {rest} more" if rest > 0 else "")


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _load(args.data, parse_dataset)
    predicted = _load(args.predictions, _parse_predictions)
    dataset_ids = set(dataset.ids)
    missing = sorted(dataset_ids - predicted.keys())
    extra = sorted(predicted.keys() - dataset_ids)
    if missing or extra:
        raise ValueError(
            "prediction ids do not match dataset ids"
            + (f"; missing: {_first_ids(missing)}" if missing else "")
            + (f"; unmatched: {_first_ids(extra)}" if extra else "")
        )
    predictions = [predicted[pid] for pid in dataset.ids]
    report = fmtree.evaluation.evaluate(dataset.efforts, predictions)
    _write_json(Path(args.out), report)
    print(fmtree.evaluation.render_metrics_table({"model": report}))
    print(f"report written to {args.out}")
    return 0


def cmd_ucp(args: argparse.Namespace) -> int:
    ucp = fmtree.ucp
    ratio = ucp.effort_ratio(args.ratio)
    model = _load(args.model_json, lambda text: ucp.use_case_model_from_json(json.loads(text)))
    breakdown = ucp.compute_ucp(model)
    effort = ucp.classical_effort(breakdown.ucp, ratio)
    for key, value in _dataclass_fields(breakdown).items():
        print(f"{key:>6}: {value:.4f}")
    print(f"effort: {effort:.2f} PH (at {ratio:g} PH/UCP)")
    return 0


def _seed(text: str) -> int:
    """The --seed type: numpy's generators take only non-negative integer seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmtree",
        description="Use-case-point effort estimation: fuzzy model tree and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_seed, default=0, help="RNG seed, >= 0 (default 0)")

    # A knob left out stays None, and its kind's config class supplies the
    # default (see _given and ucp.effort_ratio), so the parser loads no estimator.
    def add_model_knobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--clusters", type=int, help="FCM cluster count")
        p.add_argument("--fuzzifier", type=float, help="FCM fuzzifier m")
        p.add_argument("--trees", type=int, help="boosting rounds")
        p.add_argument("--shrinkage", type=float, help="boosting shrinkage")
        p.add_argument("--ratio", type=float, help="PH per UCP for the classical baseline")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("profile", choices=sorted(PROFILES), help="source profile")
    p_synth.add_argument("count", type=int, help="number of projects")
    add_seed(p_synth)
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=cmd_synth)

    p_compare = sub.add_parser("compare", help="train all models and compare on a holdout")
    p_compare.add_argument("--data", required=True, help="dataset CSV")
    p_compare.add_argument("--train-count", type=int, default=59, help="training rows")
    add_seed(p_compare)
    add_model_knobs(p_compare)
    p_compare.add_argument("--out-dir", required=True, help="report directory")
    p_compare.set_defaults(func=cmd_compare)

    p_train = sub.add_parser("train", help="train one model and write it as JSON")
    p_train.add_argument("--model", required=True, choices=tuple(KINDS))
    p_train.add_argument("--data", help="dataset CSV (not needed for ucp)")
    add_seed(p_train)
    add_model_knobs(p_train)
    p_train.add_argument("--out", required=True, help="model JSON path")
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="apply a model JSON to a dataset")
    p_predict.add_argument("--model-file", required=True)
    p_predict.add_argument("--model", choices=tuple(KINDS), help="expected model kind")
    p_predict.add_argument("--data", required=True, help="dataset CSV")
    p_predict.add_argument("--out", required=True, help="predictions CSV path")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="score predictions against actual efforts")
    p_eval.add_argument("--predictions", required=True, help="CSV of id,predicted_ph")
    p_eval.add_argument("--data", required=True, help="dataset CSV with actuals")
    p_eval.add_argument("--out", required=True, help="report JSON path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_ucp = sub.add_parser("ucp", help="compute a UCP breakdown from a use-case JSON")
    p_ucp.add_argument("model_json", help="use-case model JSON")
    p_ucp.add_argument("--ratio", type=float)
    p_ucp.set_defaults(func=cmd_ucp)

    return parser


# The C modules that hashlib falls back to when OpenSSL's _hashlib cannot be
# imported: one per algorithm family that hashlib builds at import.
_BUILTIN_HASHES = (("_md5", "_sha1", "_sha256", "_sha512", "_blake2", "_sha3")
                   if sys.version_info < (3, 12) else ("_md5", "_sha1", "_sha2", "_blake2", "_sha3"))


def _keep_openssl_out() -> None:
    """Make `import _hashlib` fail, so that this process never maps OpenSSL's libcrypto.

    numpy.random, which loads on the first default_rng, imports `secrets` and so
    hashlib and hmac, which fall back to CPython's built-in hash modules: the same
    digests, without libcrypto's ~3.3 MB.  fmtree always seeds its generators and
    hashes nothing.  Applied only where every built-in fallback exists (else hashlib
    logs an error for each missing one) and where _hashlib is not yet imported.
    """
    if "_hashlib" not in sys.modules and all(map(importlib.util.find_spec, _BUILTIN_HASHES)):
        sys.modules["_hashlib"] = None


def main(argv: list[str] | None = None) -> int:
    _keep_openssl_out()
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train" and args.model != "ucp" and not args.data:
        parser.error("--data is required unless --model ucp")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The program entry: main() on sys.argv, then end the process with its status.

    Once logging is shut down (the one atexit hook a run registers) and both streams
    are flushed, os._exit skips the interpreter's teardown, which costs a cold process
    about 25 ms after its output is written; no other atexit hook runs.  A flush that
    fails leaves through sys.exit, so Python reports it as it always has (exit 120).
    main's SystemExit (--help, usage errors) and uncaught exceptions pass through.
    """
    status = main()
    logging.shutdown()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
