"""Command-line interface: synth, compare, train, predict, evaluate, ucp."""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines, evaluation, fmt, svgplot, ucp
from .data import (
    PROFILES,
    Dataset,
    parse_dataset,
    parse_number,
    render_dataset,
    effort_vector,
    finite_number,
    generate_synthetic,
    split_holdout,
)
from .fcm import FcmConfig
from .mtree import TreeConfig

logger = logging.getLogger("fmtree")

MODEL_KINDS = ("fmt", "treeboost", "mlr", "ucp")


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


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_dataset(path: str) -> Dataset:
    return parse_dataset(Path(path).read_text(encoding="utf-8"))


def _fcm_config(args: argparse.Namespace) -> FcmConfig:
    return FcmConfig(k=args.clusters, fuzzifier_m=args.fuzzifier, seed=args.seed)


def _treeboost_config(args: argparse.Namespace) -> baselines.TreeboostConfig:
    return baselines.TreeboostConfig(
        n_trees=args.trees, shrinkage=args.shrinkage, seed=args.seed
    )


def cmd_synth(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile.lower()]
    dataset = generate_synthetic(profile, args.count, args.seed)
    text = render_dataset(dataset)
    _write_text(Path(args.out), text)
    efforts = effort_vector(dataset)
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
    fcm_config = _fcm_config(args)
    boost_config = _treeboost_config(args)
    dataset = _load_dataset(args.data)
    train, test = split_holdout(dataset, args.train_count, args.seed)
    logger.info("split %d projects into %d train / %d test", len(dataset), len(train), len(test))

    fmt_model = fmt.train_fmt(train, fcm_config, TreeConfig())
    boost_model = baselines.fit_treeboost(train, boost_config)
    mlr_model = baselines.fit_mlr(train)

    actuals = effort_vector(test)
    predictions = {
        "FMT": fmt.predict_fmt_dataset(fmt_model, test),
        "Treeboost": baselines.predict_treeboost_dataset(boost_model, test),
        "MLR": baselines.predict_mlr_dataset(mlr_model, test),
        "UCP": np.array([ucp.classical_effort(p.size_ucp, args.ratio) for p in test]),
    }
    reports = {name: evaluation.evaluate(actuals, preds) for name, preds in predictions.items()}
    mres = {name: evaluation.mre_vector(actuals, preds) for name, preds in predictions.items()}
    wtl = evaluation.win_tie_loss(mres)

    out_dir = Path(args.out_dir)
    metrics_json = {
        name: {
            "mmre": report.mmre,
            "mdmre": report.mdmre,
            "pred25": report.pred25,
            "pred50": report.pred50,
        }
        for name, report in reports.items()
    }
    metrics_text = evaluation.render_metrics_table(reports)
    wtl_text = evaluation.render_wtl_table(wtl)
    _write_json(out_dir / "metrics.json", metrics_json)
    _write_text(out_dir / "metrics.txt", metrics_text)
    _write_json(out_dir / "win_tie_loss.json", wtl.to_json())
    _write_text(out_dir / "win_tie_loss.txt", wtl_text)
    boxes = {name: report.boxplot for name, report in reports.items()}
    _write_text(out_dir / "residuals.svg", svgplot.render_boxplot_svg(boxes))

    print(metrics_text)
    print(wtl_text, end="")
    print(f"\nreports written to {out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if args.model == "ucp":
        doc = {"kind": "ucp", "ratio": ucp.check_ratio(args.ratio)}
        _write_json(Path(args.out), doc)
        print(f"wrote ucp model to {args.out}")
        return 0
    fcm_config = _fcm_config(args)
    boost_config = _treeboost_config(args)
    train = _load_dataset(args.data)
    if args.model == "fmt":
        doc = fmt.fmt_to_json(fmt.train_fmt(train, fcm_config, TreeConfig()))
    elif args.model == "treeboost":
        doc = baselines.treeboost_to_json(baselines.fit_treeboost(train, boost_config))
    else:
        doc = baselines.mlr_to_json(baselines.fit_mlr(train))
    _write_json(Path(args.out), doc)
    print(f"wrote {args.model} model to {args.out}")
    return 0


def _predict_with(doc: dict, dataset: Dataset) -> np.ndarray:
    kind = doc.get("kind")
    if kind == "fmt":
        return fmt.predict_fmt_dataset(fmt.fmt_from_json(doc), dataset)
    if kind == "treeboost":
        return baselines.predict_treeboost_dataset(baselines.treeboost_from_json(doc), dataset)
    if kind == "mlr":
        return baselines.predict_mlr_dataset(baselines.mlr_from_json(doc), dataset)
    if kind == "ucp":
        ratio = finite_number(doc.get("ratio", ucp.DEFAULT_EFFORT_RATIO), "ucp ratio")
        return np.array([ucp.classical_effort(p.size_ucp, ratio) for p in dataset])
    raise ValueError(f"unknown model kind {kind!r} in model file")


def cmd_predict(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.model_file).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(doc).__name__}")
    if args.model is not None and doc.get("kind") != args.model:
        raise ValueError(
            f"model file kind {doc.get('kind')!r} does not match requested {args.model!r}"
        )
    dataset = _load_dataset(args.data)
    predictions = _predict_with(doc, dataset)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "predicted_ph"])
    for project, value in zip(dataset, predictions):
        writer.writerow([project.id, repr(float(value))])
    _write_text(Path(args.out), buffer.getvalue())
    print(f"wrote {len(dataset)} predictions to {args.out}")
    return 0


def _load_predictions(path: str) -> dict[str, float]:
    """Read an id,predicted_ph CSV; rows are numbered from 1 at the header."""
    rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8"))))
    rows = [(i + 1, row) for i, row in enumerate(rows) if row]
    if not rows or [c.strip().lower() for c in rows[0][1]] != ["id", "predicted_ph"]:
        raise ValueError("predictions file must have header id,predicted_ph")
    result: dict[str, float] = {}
    for row_number, row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"malformed prediction row: {row!r}")
        pid = row[0].strip()
        if pid in result:
            raise ValueError(f"duplicate prediction id {pid!r} at row {row_number}")
        result[pid] = parse_number(row[1], "predicted_ph", row_number)
    return result


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.data)
    predicted = _load_predictions(args.predictions)
    dataset_ids = set(dataset.ids())
    missing = sorted(dataset_ids - predicted.keys())
    extra = sorted(predicted.keys() - dataset_ids)
    if missing or extra:
        raise ValueError(
            "prediction ids do not match dataset ids"
            + (f"; missing: {', '.join(missing)}" if missing else "")
            + (f"; unmatched: {', '.join(extra)}" if extra else "")
        )
    actuals = [p.effort_ph for p in dataset]
    predictions = [predicted[p.id] for p in dataset]
    report = evaluation.evaluate(actuals, predictions)
    _write_json(Path(args.out), report.to_json())
    print(evaluation.render_metrics_table({"model": report}))
    print(f"report written to {args.out}")
    return 0


def cmd_ucp(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.model_json).read_text(encoding="utf-8"))
    model = ucp.use_case_model_from_json(doc)
    breakdown = ucp.compute_ucp(model)
    effort = ucp.classical_effort(breakdown.ucp, args.ratio)
    for key, value in breakdown.to_json().items():
        print(f"{key:>6}: {value:.4f}")
    print(f"effort: {effort:.2f} PH (at {args.ratio:g} PH/UCP)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmtree",
        description="Use-case-point effort estimation: fuzzy model tree and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    def add_model_knobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--clusters", type=int, default=3, help="FCM cluster count")
        p.add_argument("--fuzzifier", type=float, default=2.0, help="FCM fuzzifier m")
        p.add_argument("--trees", type=int, default=1000, help="boosting rounds")
        p.add_argument("--shrinkage", type=float, default=0.1, help="boosting shrinkage")

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
    p_compare.add_argument("--ratio", type=float, default=ucp.DEFAULT_EFFORT_RATIO,
                           help="PH per UCP for the classical baseline")
    p_compare.add_argument("--out-dir", required=True, help="report directory")
    p_compare.set_defaults(func=cmd_compare)

    p_train = sub.add_parser("train", help="train one model and write it as JSON")
    p_train.add_argument("--model", required=True, choices=MODEL_KINDS)
    p_train.add_argument("--data", help="dataset CSV (unused for ucp)")
    add_seed(p_train)
    add_model_knobs(p_train)
    p_train.add_argument("--ratio", type=float, default=ucp.DEFAULT_EFFORT_RATIO)
    p_train.add_argument("--out", required=True, help="model JSON path")
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="apply a model JSON to a dataset")
    p_predict.add_argument("--model-file", required=True)
    p_predict.add_argument("--model", choices=MODEL_KINDS, help="expected model kind")
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
    p_ucp.add_argument("--ratio", type=float, default=ucp.DEFAULT_EFFORT_RATIO)
    p_ucp.set_defaults(func=cmd_ucp)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train" and args.model != "ucp" and not args.data:
        parser.error("--data is required unless --model ucp")
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
