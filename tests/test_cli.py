import contextlib
import csv
import importlib.util
import io
import json
import logging
import math
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmtree
import fmtree.cli
import fmtree.data
from conftest import piecewise_dataset, python_child
from fmtree.cli import KINDS, _log_level, _parse_model, _parse_predictions, build_parser, main
from fmtree.data import (
    CSV_COLUMNS,
    PREDICTION_COLUMNS,
    Dataset,
    parse_dataset,
    render_dataset,
    split_holdout,
)
from fmtree.baselines import TreeboostConfig
from fmtree.evaluation import MIN_PAIRS
from fmtree.fcm import FcmConfig
from fmtree.ucp import DEFAULT_EFFORT_RATIO, compute_ucp, use_case_model_from_json

UCP_MODEL = {
    "actors": ["simple", "simple", "complex"],
    "use_cases": ["average", "average", "average"],
    "technical": [3] * 13,
    "environmental": [3] * 8,
}


# The keys of model-file weights: the ucp ratio, mlr coefficients, tree leaf values and models.
WEIGHT_KEYS = {"ratio", "f0", "value", "intercept", "coefficients"}
# Parts of hand-written model files. An FMT reader reaches its configs last, so a case that
# fails earlier gives them as empty objects; the MLR diagnostics are complete and valid.
FMT_CONFIGS = '"fcm_config": {}, "tree_config": {}'
MLR_DIAGNOSTICS = (
    '{"adjusted_r2": 0, "vif": {"ln_size": 1, "productivity": 1, "complexity": 1},'
    ' "vif_alarm_threshold": 4.0, "vif_alarms": {"ln_size": false, "productivity": false,'
    ' "complexity": false}, "t_stats": {"intercept": 0, "ln_size": 0, "productivity": 0,'
    ' "complexity": 0}, "p_values": {"intercept": 1, "ln_size": 1, "productivity": 1,'
    ' "complexity": 1}, "alpha": 0.05, "significant": {"intercept": false, "ln_size": false,'
    ' "productivity": false, "complexity": false}}'
)


def overflowing(doc, value=1e308, weight=False):
    """A copy of model file `doc` with every weight set to `value`; at the default, 1e308,
    its predictions overflow."""
    if isinstance(doc, dict):
        return {k: overflowing(v, value, weight or k in WEIGHT_KEYS) for k, v in doc.items()}
    if isinstance(doc, list):
        return [overflowing(v, value, weight) for v in doc]
    return value if weight else doc


def deep_stage_model(depth):
    """A treeboost model file of one stage, a chain of `depth` splits."""
    node = {"value": 1.0}
    for _ in range(depth):
        node = {"feature": 0, "threshold": 0.5, "left": node, "right": {"value": 2.0}}
    return json.dumps({"kind": "treeboost", "f0": 100.0, "shrinkage": 0.1, "trees": [node]})


def deep_tree_model(depth):
    """An fmt model file whose tree is a chain of `depth` splits, too deep to read."""
    node = {"count": 5, "mae": 0.0, "model": {"intercept": 1.0, "coefficients": [0, 0, 0]}}
    split = json.dumps(dict(node, feature=0, threshold=0.5, right=node))[:-1]
    return (
        '{"kind": "fmt", "feature_names": ["size_ucp", "productivity", "complexity"],'
        ' "tree": {"routing_dim": 3, "regression_dim": 3, "root": '
        + (split + ', "left": ') * depth + json.dumps(node) + "}" * depth + "}}"
    )


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "projects.csv"
    path.write_text(render_dataset(piecewise_dataset()), encoding="utf-8")
    return path


def read_predictions(path):
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    assert rows[0] == ["id", "predicted_ph"]
    return {row[0]: float(row[1]) for row in rows[1:]}


class TestSynth:
    def test_writes_requested_rows(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "ind1", "40", "--seed", "3", "--out", str(out)]) == 0
        dataset = parse_dataset(out.read_text(encoding="utf-8"))
        assert len(dataset) == 40
        captured = capsys.readouterr().out
        assert "wrote 40 projects" in captured
        assert "effort mean" in captured and "target" in captured

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["synth", "edu", "30", "--seed", "9", "--out", str(first)])
        main(["synth", "edu", "30", "--seed", "9", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_running_out_of_memory_exits_2_with_a_message(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        # Stands in for the allocation, which is never made.
        monkeypatch.setattr(fmtree.cli, "generate_synthetic", exhausted)
        out = tmp_path / "s.csv"
        assert main(["synth", "edu", "100000000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 745. GiB for an array\n"
        )
        assert not out.exists()

    def test_unknown_profile_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "nope", "10", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["synth", "compare", "train"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_bad_seed_is_rejected_before_any_file_is_touched(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    data = tmp_path / "absent.csv"
    argv = {
        "synth": ["synth", "edu", "10", "--out", str(out)],
        "compare": ["compare", "--data", str(data), "--out-dir", str(out)],
        "train": ["train", "--model", "fmt", "--data", str(data), "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--seed", seed])
    assert excinfo.value.code == 2
    assert f"argument --seed: must be an integer >= 0, got '{seed}'" in capsys.readouterr().err
    assert not out.exists()


class TestUcpCommand:
    def test_worked_example(self, tmp_path, capsys):
        model = tmp_path / "usecases.json"
        model.write_text(json.dumps(UCP_MODEL), encoding="utf-8")
        assert main(["ucp", str(model)]) == 0
        out = capsys.readouterr().out
        assert "uucp: 35.0000" in out
        assert "ucp: 35.5215" in out
        assert "effort: 710.43 PH (at 20 PH/UCP)" in out

    def test_ratio_left_out_is_the_default_ratio(self, tmp_path, capsys, monkeypatch):
        """Without --ratio, the command reads ucp.DEFAULT_EFFORT_RATIO when it runs."""
        monkeypatch.setattr(fmtree.ucp, "DEFAULT_EFFORT_RATIO", 25.0)
        model = tmp_path / "usecases.json"
        model.write_text(json.dumps(UCP_MODEL), encoding="utf-8")
        assert main(["ucp", str(model)]) == 0
        effort = compute_ucp(use_case_model_from_json(UCP_MODEL)).ucp * 25.0
        assert capsys.readouterr().out.endswith(f"effort: {effort:.2f} PH (at 25 PH/UCP)\n")

    def test_missing_key_exits_2(self, tmp_path, capsys):
        model = tmp_path / "usecases.json"
        model.write_text(json.dumps({"actors": []}), encoding="utf-8")
        assert main(["ucp", str(model)]) == 2
        assert ("use-case model must hold the keys ['actors', 'environmental', 'technical',"
                " 'use_cases'], got ['actors']") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (5, "use-case model must be a JSON object, got 5"),
            pytest.param(dict(UCP_MODEL, enviromental=[5] * 8),
                         "use-case model must hold the keys ['actors', 'environmental',"
                         " 'technical', 'use_cases'], got ['actors', 'enviromental',"
                         " 'environmental', 'technical', 'use_cases']", id="misspelled-extra-key"),
            (dict(UCP_MODEL, actors=5), "actors must be JSON list(s)"),
            (dict(UCP_MODEL, technical=None, environmental="3"),
             "technical, environmental must be JSON list(s)"),
            (dict(UCP_MODEL, technical=[math.inf] * 13),
             "technical ratings must be integers, got inf"),
            (dict(UCP_MODEL, technical=[True] + [3] * 12),
             "technical ratings must be integers, got True"),
            (dict(UCP_MODEL, technical=["3"] + [3] * 12),
             "technical ratings must be integers, got '3'"),
            (dict(UCP_MODEL, environmental=[3.0] + [3] * 7),
             "environmental ratings must be integers, got 3.0"),
        ],
    )
    def test_malformed_use_case_file_exits_2(self, tmp_path, capsys, doc, message):
        model = tmp_path / "usecases.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ucp", str(model)]) == 2
        assert f"error: {model}: {message}" in capsys.readouterr().err


class TestTrainPredictEvaluate:
    def test_fmt_round_trip(self, tmp_path, dataset_csv, capsys):
        model = tmp_path / "fmt.json"
        predictions = tmp_path / "pred.csv"
        report = tmp_path / "report.json"
        assert main(["train", "--model", "fmt", "--data", str(dataset_csv),
                     "--out", str(model)]) == 0
        assert json.loads(model.read_text(encoding="utf-8"))["kind"] == "fmt"
        assert main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                     "--out", str(predictions)]) == 0
        values = read_predictions(predictions)
        assert len(values) == 84
        assert all(v >= 1.0 for v in values.values())
        assert main(["evaluate", "--predictions", str(predictions),
                     "--data", str(dataset_csv), "--out", str(report)]) == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert set(doc) >= {"mmre", "mdmre", "pred25", "pred50", "boxplot"}
        assert "report written" in capsys.readouterr().out

    def test_treeboost_and_mlr_kinds(self, tmp_path, dataset_csv):
        for kind, extra in (("treeboost", ["--trees", "20"]), ("mlr", [])):
            model = tmp_path / f"{kind}.json"
            assert main(["train", "--model", kind, "--data", str(dataset_csv),
                         "--out", str(model), *extra]) == 0
            assert json.loads(model.read_text(encoding="utf-8"))["kind"] == kind

    def test_treeboost_splits_between_values_whose_midpoint_overflows(self, tmp_path, capsys):
        # The midpoint of 1.6e308 and 1.7e308 overflows to inf; the threshold is then 1.6e308.
        data = tmp_path / "huge.csv"
        lines = ["id,size_ucp,productivity,complexity,effort_ph"]
        lines += [f"h{i},100,{1.7e308 if i % 2 else 1.6e308},3,{5000 if i % 2 else 1000}"
                  for i in range(30)]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = tmp_path / "tb.json"
        assert main(["train", "--model", "treeboost", "--data", str(data), "--trees", "5",
                     "--out", str(model)]) == 0
        assert capsys.readouterr().err == ""
        stages = json.loads(model.read_text(encoding="utf-8"))["trees"]
        assert [stage["threshold"] for stage in stages] == [1.6e308] * 5

    def test_ucp_model_multiplies_size_by_ratio(self, tmp_path, dataset_csv):
        model = tmp_path / "ucp.json"
        predictions = tmp_path / "pred.csv"
        assert main(["train", "--model", "ucp", "--ratio", "25", "--out", str(model)]) == 0
        assert main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                     "--out", str(predictions)]) == 0
        values = read_predictions(predictions)
        data = piecewise_dataset()
        for pid, size in zip(data.ids, data.features[:, 0]):
            assert values[pid] == pytest.approx(25.0 * size)

    def test_train_requires_data_except_ucp(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--model", "fmt", "--out", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2

    def test_non_positive_ucp_ratio_exits_2(self, tmp_path, capsys):
        code = main(["train", "--model", "ucp", "--ratio", "0", "--out",
                     str(tmp_path / "m.json")])
        assert code == 2
        assert "ratio must be positive" in capsys.readouterr().err

    def test_non_finite_ucp_ratio_exits_2(self, tmp_path, capsys):
        code = main(["train", "--model", "ucp", "--ratio", "nan", "--out",
                     str(tmp_path / "m.json")])
        assert code == 2
        assert "ratio must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("kind, label, weight", [
        ("ucp", "UCP", 1e308), ("fmt", "FMT", 1e308), ("treeboost", "Treeboost", 1e308),
        ("mlr", "MLR", 1e308), ("fmt", "FMT", -1e308), ("treeboost", "Treeboost", -1e308),
    ], ids=["ucp-UCP", "fmt-FMT", "treeboost-Treeboost", "mlr-MLR", "fmt-FMT-negative",
            "treeboost-Treeboost-negative"])
    def test_predictions_that_are_not_finite_exit_2(self, tmp_path, dataset_csv, capsys,
                                                    kind, label, weight):
        model = tmp_path / "model.json"
        out = tmp_path / "p.csv"
        assert main(["train", "--model", kind, "--data", str(dataset_csv), "--trees", "5",
                     "--out", str(model)]) == 0
        doc = overflowing(json.loads(model.read_text(encoding="utf-8")), weight)
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                         "--out", str(out)])
        assert code == 2
        shown = "inf" if weight > 0 else "-inf"
        assert capsys.readouterr().err == (
            f"error: {label} prediction for project 'p001' is not finite: {shown}\n"
        )
        assert not out.exists()

    def test_byte_order_mark_in_dataset_is_read(self, tmp_path, dataset_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + dataset_csv.read_bytes())
        for name, data in (("plain", dataset_csv), ("bom", bom)):
            assert main(["train", "--model", "mlr", "--data", str(data),
                         "--out", str(tmp_path / f"{name}.json")]) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_byte_order_mark_in_model_file_is_read(self, tmp_path, dataset_csv):
        model = tmp_path / "plain.json"
        assert main(["train", "--model", "ucp", "--out", str(model)]) == 0
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        for name in ("plain", "bom"):
            assert main(["predict", "--model-file", str(tmp_path / f"{name}.json"),
                         "--data", str(dataset_csv), "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_predict_kind_mismatch_exits_2(self, tmp_path, dataset_csv, capsys):
        model = tmp_path / "ucp.json"
        main(["train", "--model", "ucp", "--out", str(model)])
        code = main(["predict", "--model-file", str(model), "--model", "fmt",
                     "--data", str(dataset_csv), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_predict_unknown_kind_exits_2(self, tmp_path, dataset_csv, capsys):
        model = tmp_path / "weird.json"
        model.write_text(json.dumps({"kind": "bogus"}), encoding="utf-8")
        code = main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "unknown model kind" in capsys.readouterr().err

    def test_evaluate_reports_mismatched_ids(self, tmp_path, dataset_csv, capsys):
        predictions = tmp_path / "pred.csv"
        predictions.write_text("id,predicted_ph\np001,100.0\nghost,50.0\n", encoding="utf-8")
        code = main(["evaluate", "--predictions", str(predictions),
                     "--data", str(dataset_csv), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing: " in err and "p002" in err
        assert "unmatched: ghost" in err

    def test_evaluate_names_only_the_first_mismatched_ids(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text(render_dataset(piecewise_dataset(1200)), encoding="utf-8")
        predictions = tmp_path / "pred.csv"
        ghosts = "".join(f"ghost{i},50.0\n" for i in range(7))
        predictions.write_text("id,predicted_ph\np001,100.0\n" + ghosts, encoding="utf-8")
        code = main(["evaluate", "--predictions", str(predictions),
                     "--data", str(data), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: prediction ids do not match dataset ids; missing: p002, p003,"
                       " p004, p005, p006 and 1194 more; unmatched: ghost0, ghost1, ghost2,"
                       " ghost3, ghost4 and 2 more\n")
        assert len(err.encode()) < 300

    def test_evaluate_rejects_wrong_header(self, tmp_path, dataset_csv, capsys):
        predictions = tmp_path / "pred.csv"
        predictions.write_text("name,value\np001,100.0\n", encoding="utf-8")
        code = main(["evaluate", "--predictions", str(predictions),
                     "--data", str(dataset_csv), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "missing column(s): id, predicted_ph" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "value, message",
        [
            ("nan", "non-numeric predicted_ph"),
            ("inf", "non-numeric predicted_ph"),
            ("1_000", "non-numeric predicted_ph"),
            ("1e3x", "non-numeric predicted_ph"),
            ("", "non-numeric predicted_ph"),
            ("1e999", "non-finite predicted_ph '1e999' at row 2"),
        ],
    )
    def test_evaluate_rejects_bad_prediction_numbers(self, tmp_path, dataset_csv, capsys,
                                                     value, message):
        predictions = tmp_path / "pred.csv"
        predictions.write_text(f"id,predicted_ph\np001,{value}\n", encoding="utf-8")
        code = main(["evaluate", "--predictions", str(predictions),
                     "--data", str(dataset_csv), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_evaluate_rejects_duplicate_prediction_ids(self, tmp_path, dataset_csv, capsys):
        data = piecewise_dataset()
        rows = [f"{pid},{effort!r}" for pid, effort in zip(data.ids, data.efforts.tolist())]
        predictions = tmp_path / "pred.csv"
        predictions.write_text(
            "id,predicted_ph\n" + "\n".join(rows) + "\np002,1e9\n", encoding="utf-8"
        )
        code = main(["evaluate", "--predictions", str(predictions),
                     "--data", str(dataset_csv), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"pred.csv: duplicate id 'p002' at row {len(rows) + 2}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "must hold a JSON object"),
            ('{"kind": "treeboost", "f0": 1.0, "shrinkage": 0.1, "trees": null}', "trees"),
            ('{"kind": "treeboost", "f0": 1.0, "shrinkage": 0.1, "trees": [{"feature": 7,'
             ' "threshold": 1.0, "left": {"value": 1.0}, "right": {"value": 2.0}}]}', "feature"),
            ('{"kind": "treeboost", "f0": 1.0, "shrinkage": 0.1, "trees": [{"feature": 0,'
             ' "threshold": Infinity, "left": {"value": 1.0}, "right": {"value": 2.0}}]}',
             "threshold must be finite"),
            ('{"kind": "treeboost", "f0": 1.0, "shrinkage": -5, "trees": []}',
             "treeboost shrinkage must be in (0, 1], got -5.0"),
            ('{"kind": []}', "unknown model kind []"),
            ('{"kind": "ucp", "ratio": "nan"}', "ucp ratio must be a number"),
            ('{"kind": "ucp", "ratio": NaN}', "ucp ratio must be finite"),
            ('{"kind": "ucp", "ratio": null}', "ucp ratio must be a number"),
            ('{"kind": "ucp", "ratio": -2}', "ratio must be positive"),
            ('{"kind": "ucp"}', "ucp model must hold the keys ['kind', 'ratio'], got ['kind']"),
            ('{"kind": "mlr", "coefficients": null, "diagnostics": {}}', "mlr coefficients"),
            ('{"kind": "mlr", "coefficients": {"intercept": 1, "ln_size": 1, "productivity":'
             ' "x", "complexity": 1}, "diagnostics": ' + MLR_DIAGNOSTICS + '}',
             "productivity must be a number"),
            ('{"kind": "mlr", "coefficients": {"intercept": 1, "ln_size": 1, "productivity":'
             ' 0, "complexity": 1}, "diagnostics": '
             + MLR_DIAGNOSTICS.replace('"adjusted_r2": 0', '"adjusted_r2": null') + '}',
             "adjusted_r2 must be a number"),
            ('{"kind": "mlr", "coefficients": {"intercept": 0, "ln_size": 1000, "productivity":'
             ' 0, "complexity": 0}, "diagnostics": ' + MLR_DIAGNOSTICS + '}',
             "MLR prediction for project 'p001' is not finite: inf"),
            pytest.param('{"kind": "ucp", "ratio": 1' + "0" * 400 + "}",
                         "ucp ratio does not fit a float: 401 digits", id="ucp-ratio-401-digits"),
            pytest.param(deep_stage_model(600), "treeboost trees[0] is 600 deep: 1 stages x "
                         "2^600 leaves exceed 4194304", id="treeboost-stage-600-deep"),
            ('{"kind": "fmt", "feature_names": null, ' + FMT_CONFIGS + ', "fuzzy": {},'
             ' "tree": {}}', "fmt feature_names must be"),
            ('{"kind": "fmt", "feature_names": ["size_ucp", "productivity", "complexity"],'
             ' ' + FMT_CONFIGS + ', "fuzzy": {"centers": [[0], [0], [0]], "sigmas":'
             ' [[1], [1], [0]], "standardization": {"mean": [0, 0, 0], "scale": [1, 1, 1]}},'
             ' "tree": {}}',
             "sigmas must be positive"),
            ('{"kind": "fmt", "feature_names": ["size_ucp", "productivity", "complexity"],'
             ' ' + FMT_CONFIGS + ', "fuzzy": {"centers": [[0], [0], [0]], "sigmas":'
             ' [[1], [1], [1]], "standardization": null}, "tree": {}}',
             "standardization must be a JSON object, got None"),
            ('{"kind": "fmt", "feature_names": ["size_ucp", "productivity", "complexity"],'
             ' ' + FMT_CONFIGS + ', "fuzzy": {"centers": [[0], [0], [0]], "sigmas":'
             ' [[1], [1], [1]], "standardization": {"mean": [0, 0, 0], "scale": [1, 1, 1]}},'
             ' "tree": {"routing_dim": 3, "regression_dim": 3, "root": {"count": 5,'
             ' "mae": 0.0, "model": {"intercept": 1.0, "coefficients": [0, 0, 0]},'
             ' "feature": 3, "threshold": 0.5, "left": {}, "right": {}}}}',
             "tree.root.feature must be an integer in [0, 3)"),
            ('{"kind": "fmt", "feature_names": ["size_ucp", "productivity", "complexity"],'
             ' ' + FMT_CONFIGS + ', "fuzzy": {"centers": [[0], [0], [0]], "sigmas":'
             ' [[1], [1], [1]], "standardization": {"mean": [0, 0, 0], "scale": [1, 1, 1]}},'
             ' "tree": {"routing_dim": 3, "regression_dim": 3, "root": {"count": 5,'
             ' "mae": 0.0, "model": {"intercept": 1.0, "coefficients": [0, 0, 0]},'
             ' "bogus": 1}}}',
             "tree.root must hold the keys ['count', 'mae', 'model'], "
             "got ['bogus', 'count', 'mae', 'model']"),
            pytest.param('{"kind": "fmt", "feature_names": ["size_ucp", "productivity",'
                         ' "complexity"], ' + FMT_CONFIGS + ', "fuzzy": {"centers": [[0], [0],'
                         ' [0]], "sigmas": [[1], [1], [1]], "standardization": {"mean":'
                         ' [0, 0, 0], "scale": [1, 1, 1]}}, "tree": {"routing_dim": 3,'
                         ' "regression_dim": 3, "root": {"count": 1' + "0" * 400 + ', "mae":'
                         ' 0.0, "model": {"intercept": 1.0, "coefficients": [0, 0, 0]}}}}',
                         "tree.root.count must be an integer in [1, 9007199254740992)",
                         id="fmt-count-401-digits"),
        ],
    )
    def test_predict_rejects_malformed_model_json(self, tmp_path, dataset_csv, capsys,
                                                  text, message):
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        code = main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command", ["predict", "ucp"])
    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "",
            '{"kind": "fmt", "feature_names": null}',
            pytest.param("[" * 5000 + "]" * 5000, id="deep-arrays"),
            pytest.param(deep_tree_model(5000), id="deep-tree"),
        ],
    )
    def test_undecodable_json_file_is_named(self, tmp_path, dataset_csv, capsys, command, text):
        path = tmp_path / "in.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "p.csv"
        argv = {
            "predict": ["predict", "--model-file", str(path), "--data", str(dataset_csv),
                        "--out", str(out)],
            "ucp": ["ucp", str(path)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("others_vary", [True, False])
    def test_sizes_whose_spread_underflows_are_named(self, tmp_path, capsys, others_vary):
        """Thirty sizes (i + 1) * 1e-300 differ, but their squared deviations underflow:
        taken as constant, size would be left out of the routing where the other features
        vary, and where they are constant every membership would underflow."""
        i = np.arange(30.0)
        features = np.column_stack([(i + 1) * 1e-300, 10 + i % 7 * others_vary,
                                    1 + i % 3 * others_vary])
        data = tmp_path / "tiny.csv"
        data.write_text(render_dataset(Dataset(tuple(f"p{k:02d}" for k in range(30)), features,
                                               100 + 10 * i)), encoding="utf-8")
        out = tmp_path / "model.json"
        assert main(["train", "--model", "fmt", "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot standardize size_ucp: its standard deviation is 0 although its "
            "values differ; its values are too small in magnitude\n"
        )
        assert not out.exists()


def csv_lines(*rows):
    return "".join(",".join(row) + "\n" for row in rows)


# Cells longer than the csv module reads: one that float() reads as inf, one as 1.0.
LONG_CELL = "9" * (csv.field_size_limit() + 1)
LONG_NUMBER = "0" * csv.field_size_limit() + "1"


# Each case makes a bad table from a valid header h and data rows r (lists of
# cells).  In the message, {last} is the last column's name, {width} the
# column count, {short} one less and {long} one more.
TABLE_ERRORS = [
    pytest.param(lambda h, r: "\n\n", "empty input", id="empty-input"),
    pytest.param(lambda h, r: csv_lines(h[:-1], *(row[:-1] for row in r)),
                 "missing column(s): {last}", id="missing-column"),
    pytest.param(lambda h, r: csv_lines(h + ["notes"], *(row + ["x"] for row in r)),
                 "unexpected column(s): notes", id="unexpected-column"),
    pytest.param(lambda h, r: csv_lines(h + ["ID"], *(row + [row[0]] for row in r)),
                 "repeated column in header", id="repeated-column"),
    pytest.param(lambda h, r: csv_lines(h, r[0], r[1][:-1], *r[2:]),
                 "expected {width} fields, found {short} at row 3", id="wrong-field-count"),
    pytest.param(lambda h, r: csv_lines(h, r[0], r[1] + ["1"], *r[2:]),
                 "expected {width} fields, found {long} at row 3", id="extra-field"),
    pytest.param(lambda h, r: csv_lines(h, r[0], [""] + r[1][1:], *r[2:]),
                 "empty id at row 3", id="empty-id"),
    pytest.param(lambda h, r: csv_lines(h, r[0], r[0], *r[2:]),
                 "duplicate id 'p001' at row 3", id="duplicate-id"),
    pytest.param(lambda h, r: csv_lines(h, r[0], r[1][:-1] + ["abc"], *r[2:]),
                 "non-numeric {last} 'abc' at row 3", id="bad-number"),
    pytest.param(lambda h, r: csv_lines(h, r[0], r[1][:-1] + [LONG_CELL], *r[2:]),
                 f"field larger than field limit ({csv.field_size_limit()}) at row 3",
                 id="long-cell"),
    pytest.param(lambda h, r: csv_lines(h, r[0], r[1][:-1] + [LONG_NUMBER], *r[2:]),
                 f"field larger than field limit ({csv.field_size_limit()}) at row 3",
                 id="long-finite-cell"),
    pytest.param(lambda h, r: csv_lines(h, r[0], [LONG_CELL] + r[1][1:], *r[2:]),
                 f"field larger than field limit ({csv.field_size_limit()}) at row 3",
                 id="long-id"),
    pytest.param(lambda h, r: "\n\n" + csv_lines(h) + "\n" + csv_lines(r[0]) + "\n\n"
                 + csv_lines(r[1][:-1] + ["abc"], *r[2:]),
                 "non-numeric {last} 'abc' at row 8", id="blank-lines"),
]


def valid_tables():
    """The pinned dataset and its exact efforts as predictions: name -> (header, rows)."""
    dataset = piecewise_dataset()
    return {
        "projects.csv": (list(CSV_COLUMNS), [
            line.split(",") for line in render_dataset(dataset).splitlines()[1:]
        ]),
        "pred.csv": (list(PREDICTION_COLUMNS), [
            [pid, repr(effort)] for pid, effort in zip(dataset.ids, dataset.efforts.tolist())
        ]),
    }


@pytest.mark.parametrize("bad_file", ["projects.csv", "pred.csv"])
@pytest.mark.parametrize("make, message", TABLE_ERRORS)
def test_evaluate_reports_table_errors_in_either_file(tmp_path, capsys, bad_file, make, message):
    tables = valid_tables()
    for name, (header, rows) in tables.items():
        text = make(header, rows) if name == bad_file else csv_lines(header, *rows)
        (tmp_path / name).write_text(text, encoding="utf-8")
    header = tables[bad_file][0]
    expected = message.format(last=header[-1], width=len(header), short=len(header) - 1,
                              long=len(header) + 1)
    report = tmp_path / "report.json"
    code = main(["evaluate", "--predictions", str(tmp_path / "pred.csv"),
                 "--data", str(tmp_path / "projects.csv"), "--out", str(report)])
    assert code == 2
    assert f"{bad_file}: {expected}" in capsys.readouterr().err
    assert not report.exists()


def test_only_quoted_carriage_return_or_faulty_tables_are_read_row_by_row(tmp_path, monkeypatch):
    entered = []
    read_rows = fmtree.data._read_rows

    def spy(text, columns):
        entered.append(text)
        return read_rows(text, columns)

    monkeypatch.setattr(fmtree.data, "_read_rows", spy)
    data, model, pred = tmp_path / "projects.csv", tmp_path / "mlr.json", tmp_path / "pred.csv"
    data.write_text(render_dataset(piecewise_dataset(2000, 2019)), encoding="utf-8")
    assert main(["train", "--model", "mlr", "--data", str(data), "--out", str(model)]) == 0
    assert main(["predict", "--model-file", str(model), "--data", str(data),
                 "--out", str(pred)]) == 0
    assert len(_parse_predictions(pred.read_text(encoding="utf-8"))) == 2000
    assert main(["evaluate", "--predictions", str(pred), "--data", str(data),
                 "--out", str(tmp_path / "report.json")]) == 0
    pinned = tmp_path / "pinned.csv"
    pinned.write_text(render_dataset(piecewise_dataset()), encoding="utf-8")
    assert main(["compare", "--data", str(pinned), "--trees", "5",
                 "--out-dir", str(tmp_path / "compare")]) == 0
    assert entered == []
    header = ",".join(CSV_COLUMNS)
    for text in (f'{header}\n"p1",1,2,3,4\n', f"{header}\r\np1,1,2,3,4\r\n"):
        entered.clear()
        assert parse_dataset(text).ids == ("p1",)
        assert entered == [text]
    for text, message in [
        (f"{header}\np1,1,2,3,4\rp2,1,2,3,4\n", "^new-line character seen in unquoted field"),
        (f"{header}\np1,1,2,3,4\np2,1,2,3,x\n", "^non-numeric effort_ph 'x' at row 3$"),
    ]:
        entered.clear()
        with pytest.raises(ValueError, match=message):
            parse_dataset(text)
        assert entered == [text]


# Flag values outside what each option accepts, written as `--flag=value` so
# that a leading minus is read as a value.  `compare` and `train` check every
# model's flags before they read any data.
BAD_FLAGS = {
    "--clusters": st.integers(max_value=0).map(str) | st.sampled_from(["1.5", "x", ""]),
    "--fuzzifier": st.floats(max_value=1.0).map(repr) | st.just("nan"),
    "--trees": st.integers(max_value=0).map(str) | st.sampled_from(["2.5", "x", ""]),
    "--shrinkage": st.floats(max_value=0.0).map(repr)
    | st.floats(min_value=1.0, exclude_min=True).map(repr) | st.just("nan"),
    "--ratio": st.floats(max_value=0.0).map(repr) | st.sampled_from(["inf", "nan"]),
    "--seed": st.integers(max_value=-1).map(str) | st.sampled_from(["1.5", "x", ""]),
}
DATA_COMMANDS = {
    "compare": ["compare", "--data", "@projects.csv", "--out-dir", "@out"],
    "train": ["train", "--model", "fmt", "--data", "@projects.csv", "--out", "@out"],
    "predict": ["predict", "--model-file", "@model.json", "--data", "@projects.csv",
                "--out", "@out"],
    "evaluate": ["evaluate", "--predictions", "@pred.csv", "--data", "@projects.csv",
                 "--out", "@out"],
}
# Cell text with no digit, comma, quote or line break: never a number, always one cell.
NOT_A_NUMBER = st.text(st.characters(codec="ascii", categories=["L", "P", "S", "Zs"],
                                     exclude_characters=',"'), max_size=6)
NOT_JSON_OBJECT = st.none() | st.booleans() | st.integers() | st.text() | st.lists(st.integers())


@pytest.fixture(scope="module")
def valid_inputs():
    """Input files that every command accepts; each bad case breaks one part of them."""
    train, _ = split_holdout(piecewise_dataset(), 59, seed=2014)
    args = build_parser().parse_args(["compare", "--data", "-", "--out-dir", "-", "--trees", "30"])
    models = {name: kind.to_json(kind.fit(train, kind.config(args)))
              for name, kind in KINDS.items()}
    return valid_tables(), models


@st.composite
def bad_table(draw, header, rows, faults):
    """CSV text of the table with one of `faults` drawn in it."""
    rows = [list(row) for row in rows]
    fault = draw(st.sampled_from(["layout", "not-a-number", "long-cell", *faults]))
    if fault == "layout":
        make = draw(st.sampled_from([case.values[0] for case in TABLE_ERRORS]))
        return make(header, rows)
    row = draw(st.sampled_from(rows))
    if fault == "not-a-number":
        row[draw(st.integers(1, len(header) - 1))] = draw(NOT_A_NUMBER)
    elif fault == "long-cell":
        row[draw(st.integers(0, len(header) - 1))] = LONG_CELL
    elif fault == "not-positive":
        row[draw(st.sampled_from([1, len(header) - 1]))] = repr(draw(st.floats(max_value=0.0)))
    elif fault == "unknown-id":
        row[0] = "zz" + draw(NOT_A_NUMBER)
    else:
        rows.remove(row)
    return csv_lines(header, *rows)


@st.composite
def bad_cli_case(draw, tables, models):
    """(argv, files): a command line whose flags or input files hold one fault.

    argv names files as "@name"; files maps names to text.  Valid files are
    given for every input the command reads but the broken one.
    """
    files = {name: csv_lines(header, *rows) for name, (header, rows) in tables.items()}
    model_kind = draw(st.sampled_from(sorted(models)))
    files["model.json"] = json.dumps(models[model_kind])
    files["usecases.json"] = json.dumps(UCP_MODEL)
    target = draw(st.sampled_from(["flag", "projects.csv", "pred.csv", "model.json",
                                   "usecases.json"]))
    if target == "flag":
        command = draw(st.sampled_from(["compare", "train", "synth"]))
        if command == "synth":
            argv = ["synth", "edu", "20", "--out", "@out"]
            if draw(st.booleans()):
                argv[2] = draw(st.integers(max_value=1).map(str) | st.just("x"))
                return argv, files
            flags = {"--seed": BAD_FLAGS["--seed"]}
        else:
            argv = DATA_COMMANDS[command]
            flags = dict(BAD_FLAGS)
            if command == "compare":
                too_many = len(tables["projects.csv"][1]) - MIN_PAIRS + 1
                flags["--train-count"] = (st.integers(max_value=0)
                                          | st.integers(min_value=too_many)).map(str)
        flag = draw(st.sampled_from(sorted(flags)))
        return argv + [f"{flag}={draw(flags[flag])}"], files
    if target == "usecases.json":
        files[target] = draw(bad_use_case())
        return ["ucp", "@usecases.json"], files
    if target == "model.json":
        argv = DATA_COMMANDS["predict"]
        if draw(st.booleans()):
            other = draw(st.sampled_from(sorted(set(KINDS) - {model_kind})))
            return argv + ["--model", other], files
        files[target] = draw(bad_model(models[model_kind]))
        return argv, files
    header, rows = tables[target]
    if target == "pred.csv":
        files[target] = draw(bad_table(header, rows, ["unknown-id", "missing-id"]))
        return DATA_COMMANDS["evaluate"], files
    if draw(st.integers(0, 4)) == 0:
        # Ten sizes whose spread, or ten efforts whose squares, overflow a float:
        # training FMT must refuse both, and training Treeboost the efforts.  Any
        # ten rows put some in the split that compare trains on.  The squares of
        # ten 4e153 efforts sum to a float, but wherever the ten rows are, squared
        # partial sums in Treeboost's split scans overflow: training it must refuse them.
        start = draw(st.integers(0, len(rows) - 10))
        column, value = draw(st.sampled_from(
            [(1, "1e160"), (len(header) - 1, "1e200"), (len(header) - 1, "4e153")]
        ))
        rows = [[*row[:column], value, *row[column + 1:]] if start <= i < start + 10 else row
                for i, row in enumerate(rows)]
        files[target] = csv_lines(header, *rows)
        command = "train" if value == "4e153" else draw(st.sampled_from(["compare", "train"]))
        argv = DATA_COMMANDS[command]
        if value == "4e153" or argv[0] == "train" and value == "1e200" and draw(st.booleans()):
            argv = argv[:2] + ["treeboost"] + argv[3:]
        return argv, files
    files[target] = draw(bad_table(header, rows, ["not-positive"]))
    argv = DATA_COMMANDS[draw(st.sampled_from(sorted(DATA_COMMANDS)))]
    if argv[0] == "train":
        argv = argv[:2] + [draw(st.sampled_from(["fmt", "mlr", "treeboost"]))] + argv[3:]
    return argv, files


@st.composite
def bad_model(draw, doc):
    """Model file text with one fault: kind, a wrong-typed field, truncation, not an object,
    weights whose predictions overflow, or weights too large for a float."""
    fault = draw(st.sampled_from(["kind", "field", "truncated", "not-an-object", "overflow",
                                  "huge-integer"]))
    doc = dict(doc)
    if fault == "overflow":
        doc = overflowing(doc)
    elif fault == "huge-integer":
        doc = overflowing(doc, 10**400)
    elif fault == "kind":
        doc["kind"] = draw(st.text().filter(lambda name: name not in KINDS))
    elif fault == "field":
        key = draw(st.sampled_from(sorted(set(doc) - {"kind"})))
        doc[key] = draw(st.none() | st.booleans() | st.text())
    elif fault == "truncated":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))]
    else:
        return json.dumps(draw(NOT_JSON_OBJECT))
    return json.dumps(doc)


@st.composite
def bad_use_case(draw):
    """Use-case file text with one fault in a class, a rating, a list or the whole file."""
    doc = json.loads(json.dumps(UCP_MODEL))
    fault = draw(st.sampled_from(["class", "rating", "count", "key", "not-a-list",
                                  "no-use-case", "truncated", "not-an-object"]))
    if fault == "class":
        key = draw(st.sampled_from(["actors", "use_cases"]))
        doc[key][0] = draw(st.text().filter(
            lambda c: c.strip().lower() not in ("simple", "average", "complex")))
    elif fault == "rating":
        key = draw(st.sampled_from(["technical", "environmental"]))
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(
            st.none() | st.booleans() | st.text() | st.floats()
            | st.integers(max_value=-1) | st.integers(min_value=6))
    elif fault == "count":
        key = draw(st.sampled_from(["technical", "environmental"]))
        doc[key] = doc[key][1:] if draw(st.booleans()) else doc[key] + [3]
    elif fault == "key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "not-a-list":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(
            st.none() | st.text() | st.integers() | st.dictionaries(st.text(), st.integers()))
    elif fault == "no-use-case":
        doc["use_cases"] = []
    elif fault == "truncated":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))]
    else:
        return json.dumps(draw(NOT_JSON_OBJECT))
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_bad_input_exits_2_and_writes_nothing(valid_inputs, data):
    """A bad flag value or input file exits 2 with an error line and no output file."""
    argv, files = data.draw(bad_cli_case(*valid_inputs))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp, a[1:])) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code == 2, err.getvalue()
        assert "error: " in err.getvalue()
        assert out.getvalue() == ""
        assert sorted(os.listdir(tmp)) == sorted(files)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**16), st.integers(20, 60))
def test_every_kind_predicts_each_row_alike(seed, train_count):
    """A JSON round trip, a one-row call and a shuffled batch give the same bits."""
    train, test = split_holdout(piecewise_dataset(train_count + 15, seed), train_count, seed)
    args = build_parser().parse_args(
        ["compare", "--data", "-", "--out-dir", "-", "--seed", str(seed), "--trees", "30"]
    )
    order = np.random.default_rng(seed).permutation(len(test))
    shuffled = test.take(order)
    for name, kind in KINDS.items():
        model = kind.fit(train, kind.config(args))
        batch = kind.predict(model, test)
        restored = kind.from_json(json.loads(json.dumps(kind.to_json(model))))
        assert kind.predict(restored, test).tolist() == batch.tolist(), name
        rows = [kind.predict(model, test.take([i]))[0] for i in range(len(test))]
        assert rows == batch.tolist(), name
        assert kind.predict(model, shuffled).tolist() == batch[order].tolist(), name


@pytest.fixture(scope="module")
def model_files():
    """The JSON text of a model file of each kind, trained on the pinned 84 projects."""
    args = build_parser().parse_args(["compare", "--data", "-", "--out-dir", "-", "--trees", "3"])
    return {
        name: json.dumps(kind.to_json(kind.fit(piecewise_dataset(), kind.config(args))))
        for name, kind in KINDS.items()
    }


def object_paths(doc, path=()):
    """The key path of every JSON object in `doc`, in preorder."""
    if isinstance(doc, dict):
        yield path
        for key, value in doc.items():
            yield from object_paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from object_paths(value, (*path, i))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


OBJECT_NAMES = {
    ("fcm_config",): "fmt fcm_config",
    ("tree_config",): "fmt tree_config",
    ("fuzzy",): "fuzzy model",
    ("fuzzy", "standardization"): "standardization",
    ("tree",): "tree",
}


def object_name(kind, path):
    """The name that a reader's message gives the object at `path` of a `kind` model file."""
    if not path:
        return f"{kind} model"
    if kind == "mlr":
        return f"mlr {path[-1]}"
    steps = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path[1:])
    return OBJECT_NAMES.get(path, f"{path[0]}{steps}")


@pytest.mark.parametrize("name", list(KINDS))
def test_every_model_file_object_holds_exactly_its_keys(model_files, name):
    """An unknown or a missing key in any object of a model file is refused, and names the
    object; the file as written reads back to itself."""
    text = model_files[name]
    doc = json.loads(text)
    kind, model = _parse_model(text, name)
    assert kind.to_json(model) == doc
    paths = list(object_paths(doc))
    assert len(paths) > {"ucp": 0, "mlr": 7, "treeboost": 6, "fmt": 9}[name]
    for path in paths:
        for key in ["bogus", *at(doc, path)]:
            changed = json.loads(text)
            target = at(changed, path)
            if key == "bogus":
                target[key] = 1
            else:
                del target[key]
            message = "unknown model kind None" if path == () and key == "kind" else (
                f"^{re.escape(object_name(name, path))} must hold the keys "
            )
            with pytest.raises(ValueError, match=message):
                _parse_model(json.dumps(changed), None)


@pytest.mark.parametrize("name", list(KINDS))
def test_predict_refuses_an_unknown_key_and_writes_nothing(tmp_path, dataset_csv, capsys,
                                                           model_files, name):
    model = tmp_path / "model.json"
    model.write_text(model_files[name][:-1] + ', "bogus": null}', encoding="utf-8")
    out = tmp_path / "p.csv"
    code = main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                 "--out", str(out)])
    assert code == 2
    assert f"{name} model must hold the keys" in capsys.readouterr().err
    assert not out.exists()


# Each kind's module and its fit, predict, to_json and from_json: the attributes
# that perfbench/tracer.py and test doubles replace.
KIND_FUNCTIONS = {
    "fmt": ("fmt", "train_fmt", "predict_fmt_dataset", "fmt_to_json", "fmt_from_json"),
    "treeboost": ("baselines", "fit_treeboost", "predict_treeboost_dataset",
                  "treeboost_to_json", "treeboost_from_json"),
    "mlr": ("baselines", "fit_mlr", "predict_mlr_dataset", "mlr_to_json", "mlr_from_json"),
    "ucp": ("ucp", "fit_ucp", "predict_ucp_dataset", "ucp_to_json", "ucp_from_json"),
}


@pytest.mark.parametrize("name", list(KINDS))
@pytest.mark.parametrize("doc", [5, [], None, "x", "other-kind"])
def test_each_reader_refuses_what_is_not_a_model_of_its_kind(model_files, name, doc):
    """A kind's public reader raises ValueError on a JSON value that is not an object,
    and on a file of its own shape whose "kind" names another kind."""
    module, *_, reader = KIND_FUNCTIONS[name]
    if doc == "other-kind":
        doc = json.loads(model_files[name])
        doc["kind"] = "ucp" if name == "fmt" else "fmt"
        message = f"^expected model kind '{name}', got '{doc['kind']}'$"
    else:
        message = f"^{name} model must be a JSON object, got {re.escape(repr(doc))}$"
    with pytest.raises(ValueError, match=message):
        getattr(getattr(fmtree, module), reader)(doc)


@pytest.mark.parametrize("name", list(KINDS))
def test_train_and_predict_call_the_module_functions_at_call_time(tmp_path, dataset_csv,
                                                                  monkeypatch, name):
    """cli.KINDS looks each kind's functions up on its module at every call, so a
    wrapper installed after `import fmtree.cli` is the one that runs."""
    module, fit, predict, to_json, from_json = KIND_FUNCTIONS[name]
    calls = []
    for function in fit, predict, to_json, from_json:
        original = getattr(getattr(fmtree, module), function)

        def wrapper(*args, original=original, function=function):
            calls.append(function)
            return original(*args)

        monkeypatch.setattr(getattr(fmtree, module), function, wrapper)
    model = tmp_path / "model.json"
    assert main(["train", "--model", name, "--trees", "5", "--data", str(dataset_csv),
                 "--out", str(model)]) == 0
    assert main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                 "--out", str(tmp_path / "predictions.csv")]) == 0
    assert calls == [fit, to_json, from_json, predict]


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out.strip()


# Imports fmtree.cli in a fresh interpreter, runs main on the arguments if there
# are any, and prints as its last line the fmtree modules loaded, with numpy.ma,
# any scipy module and OpenSSL's _hashlib if it was loaded.
FOOTPRINT_PROBE = """
import json, sys
import fmtree.cli
if sys.argv[1:] and fmtree.cli.main(sys.argv[1:]) != 0:
    raise SystemExit("the command failed")
print(json.dumps(sorted(m for m, module in sys.modules.items() if module is not None and (
    m.split(".")[0] in ("fmtree", "scipy") or m in ("numpy.ma", "_hashlib")))))
"""
EVERY_MODULE = {"fmtree"} | {f"fmtree.{path.stem}" for path in
                             Path(fmtree.__file__).parent.glob("*.py") if path.stem != "__init__"}
# Whether this Python has every built-in hash module that main needs before it
# keeps OpenSSL out of the process (see cli._keep_openssl_out).
BUILTIN_HASHES = all(importlib.util.find_spec(name) for name in fmtree.cli._BUILTIN_HASHES)


@pytest.mark.parametrize("command, added", [
    ("import", set()),
    ("synth", set()),
    ("evaluate", {"evaluation"}),
    ("predict", {"fcm", "mtree", "fmt"}),
    ("predict-treeboost", {"mtree", "evaluation", "baselines"}),
    ("ucp", {"ucp"}),
    # `train` builds the config of the kind it trains, and of each kind whose knob
    # flag was given, so that every knob given is checked before data is read
    # (pinned by BAD_FLAGS): an FMT model alone loads only the FMT modules, and a
    # Treeboost knob adds the Treeboost modules.
    ("train", {"fcm", "mtree", "fmt"}),
    ("train-knob", {"fcm", "mtree", "fmt", "baselines", "evaluation"}),
    ("compare", None),
], ids=["import", "synth", "evaluate", "predict", "predict-treeboost", "ucp", "train",
        "train-knob", "compare"])
def test_each_command_loads_only_the_modules_it_uses(tmp_path, dataset_csv, command, added):
    """`import fmtree.cli` loads fmtree and its cli and data modules; each command adds
    the modules it calls into (`compare` all of them).  None loads numpy.ma, which
    np.median's NaN check imports, or scipy, nor, where this Python has the built-in
    hashes, OpenSSL's _hashlib, which numpy.random's import of `secrets` would load."""
    model, predictions, use_cases = (tmp_path / name for name in
                                     ("fmt.json", "predictions.csv", "usecases.json"))
    assert main(["train", "--model", "fmt", "--data", str(dataset_csv), "--out", str(model)]) == 0
    assert main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                 "--out", str(predictions)]) == 0
    use_cases.write_text(json.dumps(UCP_MODEL), encoding="utf-8")
    boosted = tmp_path / "treeboost.json"
    if command == "predict-treeboost":
        assert main(["train", "--model", "treeboost", "--trees", "5", "--data", str(dataset_csv),
                     "--out", str(boosted)]) == 0
    argv = {
        "import": [],
        "synth": ["synth", "ind2", "50", "--out", str(tmp_path / "synth.csv")],
        "evaluate": ["evaluate", "--predictions", str(predictions), "--data", str(dataset_csv),
                     "--out", str(tmp_path / "report.json")],
        "predict": ["predict", "--model-file", str(model), "--data", str(dataset_csv),
                    "--out", str(tmp_path / "again.csv")],
        "predict-treeboost": ["predict", "--model-file", str(boosted), "--data", str(dataset_csv),
                              "--out", str(tmp_path / "boosted.csv")],
        "ucp": ["ucp", str(use_cases)],
        "train": ["train", "--model", "fmt", "--data", str(dataset_csv),
                  "--out", str(tmp_path / "again.json")],
        "train-knob": ["train", "--model", "fmt", "--trees", "5", "--data", str(dataset_csv),
                       "--out", str(tmp_path / "again.json")],
        "compare": ["compare", "--data", str(dataset_csv), "--trees", "5",
                    "--out-dir", str(tmp_path / "reports")],
    }[command]
    result = python_child("-c", FOOTPRINT_PROBE, *argv, check=True)
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    if not BUILTIN_HASHES:
        loaded.discard("_hashlib")
    expected = EVERY_MODULE if added is None else (
        {"fmtree", "fmtree.cli", "fmtree.data"} | {f"fmtree.{name}" for name in added})
    assert loaded == expected


# Runs main on argv[2:] in a fresh interpreter, which has loaded no hashlib yet, then
# prints whether OpenSSL's libcrypto is mapped and _hashlib loaded, and two digests.
# argv[1] sets the scene: "plain"; "openssl-first", which imports _hashlib before main;
# or "no-sha3", where find_spec finds no built-in _sha3.
OPENSSL_PROBE = """
import importlib.util, json, sys
import fmtree.cli
if sys.argv[1] == "openssl-first":
    import _hashlib
elif sys.argv[1] == "no-sha3":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, *a: None if name == "_sha3" else find_spec(name, *a)
if fmtree.cli.main(sys.argv[2:]) != 0:
    raise SystemExit("the command failed")
import hashlib, hmac, pathlib
maps = pathlib.Path("/proc/self/maps")
libcrypto = maps.exists() and "libcrypto" in maps.read_text(encoding="utf-8")
print(json.dumps([libcrypto, sys.modules.get("_hashlib") is not None,
                  hashlib.sha256(b"abc").hexdigest(), hmac.new(b"k", b"m", "sha256").hexdigest()]))
"""
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
HMAC_SHA256_K_M = "b60090e3052297aeb5a080889ce2fc4bca957e756faeb4df7d31800ca1e771ec"


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
@pytest.mark.skipif(not BUILTIN_HASHES, reason="this Python lacks a built-in hash module")
def test_compare_maps_no_openssl_and_hashes_alike(tmp_path, dataset_csv):
    """`compare` draws from numpy.random, whose import of `secrets` loads hashlib and
    hmac, yet maps no libcrypto; their digests, the reports and stderr are the same as
    in a process that loaded OpenSSL's _hashlib first."""
    runs = {}
    for scene in ("plain", "openssl-first"):
        result = python_child("-c", OPENSSL_PROBE, scene, "compare", "--data", str(dataset_csv),
                              "--trees", "5", "--out-dir", str(tmp_path / scene),
                              drop=("FMT_LOG",), check=True)
        runs[scene] = json.loads(result.stdout.splitlines()[-1]), result.stderr
    (libcrypto, openssl, sha256, mac), stderr = runs["plain"]
    assert not libcrypto and not openssl
    assert (sha256, mac) == (SHA256_ABC, HMAC_SHA256_K_M)
    assert runs["openssl-first"][0][2:] == [sha256, mac]
    assert runs["openssl-first"][1] == stderr
    for path in (tmp_path / "plain").iterdir():
        assert path.read_bytes() == (tmp_path / "openssl-first" / path.name).read_bytes()


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None, reason="no OpenSSL _hashlib")
def test_without_a_built_in_hash_main_leaves_openssl_importable(tmp_path):
    """Where a built-in hash module is missing, hashlib needs OpenSSL, so main leaves
    `_hashlib` importable and nothing is logged."""
    result = python_child("-c", OPENSSL_PROBE, "no-sha3", "synth", "ind2", "20",
                          "--out", str(tmp_path / "synth.csv"), drop=("FMT_LOG",), check=True)
    libcrypto, openssl, sha256, mac = json.loads(result.stdout.splitlines()[-1])
    assert openssl
    assert (sha256, mac) == (SHA256_ABC, HMAC_SHA256_K_M)
    assert result.stderr == ""


def test_main_leaves_an_imported_openssl_as_it_is(tmp_path, capsys):
    """A `_hashlib` that is already imported, as pytest's is, stays in sys.modules."""
    openssl = pytest.importorskip("_hashlib")
    assert main(["synth", "ind2", "20", "--out", str(tmp_path / "synth.csv")]) == 0
    assert sys.modules["_hashlib"] is openssl


# main() in a process that Python ends as it ends any other, with its full teardown:
# what `python -m fmtree.cli`, which ends through cli.run's os._exit, must match.
PLAIN_EXIT = ("-c", "import sys; from fmtree.cli import main; sys.exit(main())")


def test_the_cli_process_prints_and_writes_what_main_does(tmp_path, dataset_csv, capsys):
    """A `compare` process exits 0 with the stdout text and the five report files of an
    in-process main run, and its stderr holds the warning of FCM's iteration cap."""
    argv = ["compare", "--data", str(dataset_csv), "--seed", "11", "--trees", "5", "--out-dir"]
    expected, reports = tmp_path / "in-process", tmp_path / "process"
    assert main([*argv, str(expected)]) == 0
    printed = capsys.readouterr().out
    result = python_child("-m", "fmtree.cli", *argv, str(reports), drop=("FMT_LOG",))
    assert result.returncode == 0
    assert result.stdout.replace(str(reports), str(expected)) == printed
    assert "WARNING FCM stopped at max_iterations=300 without converging" in result.stderr
    names = sorted(path.name for path in expected.iterdir())
    assert len(names) == 5
    assert sorted(path.name for path in reports.iterdir()) == names
    for name in names:
        assert (reports / name).read_bytes() == (expected / name).read_bytes(), name


def test_the_cli_process_exits_2_on_a_missing_data_file(tmp_path):
    result = python_child("-m", "fmtree.cli", "compare", "--data", str(tmp_path / "missing.csv"),
                          "--out-dir", str(tmp_path / "reports"), drop=("FMT_LOG",))
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert not (tmp_path / "reports").exists()


def test_a_failed_stdout_flush_ends_the_process_as_python_does(tmp_path):
    """On a read-only stdout the buffered output cannot be written, so run() leaves
    through sys.exit: Python reports the failed flush and exits 120, as after
    `sys.exit(main())`.  Unbuffered, print itself would fail inside main."""
    use_cases = tmp_path / "usecases.json"
    use_cases.write_text(json.dumps(UCP_MODEL), encoding="utf-8")
    results = []
    for launcher in (("-m", "fmtree.cli"), PLAIN_EXIT):
        with use_cases.open("rb") as read_only:
            results.append(python_child(*launcher, "ucp", str(use_cases), stdout=read_only,
                                        drop=("FMT_LOG", "PYTHONUNBUFFERED")))
    for result in results:
        assert result.returncode == 120
        assert "Exception ignored in: <_io.TextIOWrapper name='<stdout>'" in result.stderr
    assert results[0].stderr == results[1].stderr


class TestCompare:
    def run_compare(self, tmp_path, dataset_csv, name):
        out_dir = tmp_path / name
        code = main(["compare", "--data", str(dataset_csv), "--train-count", "59",
                     "--seed", "0", "--trees", "60", "--out-dir", str(out_dir)])
        assert code == 0
        return out_dir

    def test_writes_all_reports(self, tmp_path, dataset_csv, capsys):
        out_dir = self.run_compare(tmp_path, dataset_csv, "reports")
        for name in ("metrics.json", "metrics.txt", "win_tie_loss.json",
                     "win_tie_loss.txt", "residuals.svg"):
            assert (out_dir / name).is_file(), name
        metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        assert set(metrics) == {"FMT", "Treeboost", "MLR", "UCP"}
        for row in metrics.values():
            assert set(row) == {"mmre", "mdmre", "pred25", "pred50"}
        svg = (out_dir / "residuals.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "FMT" in svg
        out = capsys.readouterr().out
        assert "MMRE%" in out and "Rank" in out

    def test_rerun_is_byte_identical(self, tmp_path, dataset_csv):
        first = self.run_compare(tmp_path, dataset_csv, "one")
        second = self.run_compare(tmp_path, dataset_csv, "two")
        for name in ("metrics.json", "metrics.txt", "win_tie_loss.json",
                     "win_tie_loss.txt", "residuals.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("required", [
        ["compare", "--data", "projects.csv", "--out-dir", "reports"],
        ["train", "--model", "fmt", "--data", "projects.csv", "--out", "model.json"],
    ], ids=["compare", "train"])
    def test_knobs_left_out_take_the_config_classes_defaults(self, required):
        """The parser holds no knob default; each kind's config class supplies its own."""
        args = build_parser().parse_args(required)
        assert {name: kind.config(args) for name, kind in KINDS.items()} == {
            "fmt": FcmConfig(), "treeboost": TreeboostConfig(), "mlr": None,
            "ucp": DEFAULT_EFFORT_RATIO,
        }
        args = build_parser().parse_args(required + [
            "--clusters", "4", "--fuzzifier", "1.5", "--trees", "9", "--shrinkage", "0.2",
            "--ratio", "30", "--seed", "7"])
        assert {name: kind.config(args) for name, kind in KINDS.items()} == {
            "fmt": FcmConfig(k=4, fuzzifier_m=1.5, seed=7),
            "treeboost": TreeboostConfig(n_trees=9, shrinkage=0.2, seed=7), "mlr": None,
            "ucp": 30.0,
        }

    def test_bad_clusters_fails_before_reading_data(self, tmp_path, capsys):
        code = main(["compare", "--data", str(tmp_path / "absent.csv"),
                     "--clusters", "0", "--out-dir", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "k must be at least 1" in err

    def test_bad_shrinkage_fails_before_reading_data(self, tmp_path, capsys):
        code = main(["compare", "--data", str(tmp_path / "absent.csv"),
                     "--shrinkage", "0", "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "shrinkage" in capsys.readouterr().err

    def test_bad_ratio_fails_before_reading_data(self, tmp_path, capsys):
        code = main(["compare", "--data", str(tmp_path / "absent.csv"),
                     "--ratio", "nan", "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "ratio must be positive and finite" in capsys.readouterr().err

    def test_small_test_split_fails_before_any_fit(self, tmp_path, dataset_csv, capsys,
                                                   monkeypatch):
        fits = []
        for name, kind in KINDS.items():
            monkeypatch.setitem(KINDS, name, kind._replace(fit=lambda *a, n=name: fits.append(n)))
        code = main(["compare", "--data", str(dataset_csv), "--train-count", "83",
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "--train-count 83 leaves 1 project(s) for the test split" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "r").exists()

    def test_huge_fuzzifier_is_named_without_numpy_warning(self, tmp_path, dataset_csv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["compare", "--data", str(dataset_csv), "--fuzzifier", "1e308",
                         "--trees", "5", "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "fuzzifier_m=1e+308 is too large" in capsys.readouterr().err

    def test_prediction_that_is_not_finite_is_named(self, tmp_path, dataset_csv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["compare", "--data", str(dataset_csv), "--ratio", "1e308",
                         "--trees", "5", "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "error: UCP prediction for project " in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_each_method_is_scored_once_through_the_tracers_patch_points(
            self, tmp_path, dataset_csv, monkeypatch):
        """compare reaches evaluate and win_tie_loss through fmtree.evaluation's
        attributes, where the tracer wraps them, and each MRE vector is computed once,
        inside evaluate."""
        evaluation = fmtree.evaluation
        calls = []
        depth = [0]

        def counted(name, original):
            def wrapper(*args):
                calls.append((name, depth[0]))
                depth[0] += 1
                try:
                    return original(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in ("evaluate", "win_tie_loss", "mre_vector"):
            monkeypatch.setattr(evaluation, name, counted(name, getattr(evaluation, name)))
        assert main(["compare", "--data", str(dataset_csv), "--train-count", "59",
                     "--seed", "2014", "--out-dir", str(tmp_path / "r")]) == 0
        assert calls == [("evaluate", 0), ("mre_vector", 1)] * 4 + [("win_tie_loss", 0)]

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        code = main(["compare", "--data", str(tmp_path / "absent.csv"),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestLogging:
    def test_level_from_environment(self, monkeypatch):
        monkeypatch.setenv("FMT_LOG", "debug")
        assert _log_level() == logging.DEBUG
        monkeypatch.setenv("FMT_LOG", "INFO")
        assert _log_level() == logging.INFO
        monkeypatch.setenv("FMT_LOG", "garbage")
        assert _log_level() == logging.WARNING
        monkeypatch.delenv("FMT_LOG")
        assert _log_level() == logging.WARNING
