import csv
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmtree
from conftest import piecewise_dataset
from fmtree.cli import _log_level, main
from fmtree.data import parse_dataset, render_dataset

UCP_MODEL = {
    "actors": ["simple", "simple", "complex"],
    "use_cases": ["average", "average", "average"],
    "technical": [3] * 13,
    "environmental": [3] * 8,
}


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

    def test_unknown_profile_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "nope", "10", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2


class TestUcpCommand:
    def test_worked_example(self, tmp_path, capsys):
        model = tmp_path / "usecases.json"
        model.write_text(json.dumps(UCP_MODEL), encoding="utf-8")
        assert main(["ucp", str(model)]) == 0
        out = capsys.readouterr().out
        assert "uucp: 35.0000" in out
        assert "ucp: 35.5215" in out
        assert "effort: 710.43 PH (at 20 PH/UCP)" in out

    def test_missing_key_exits_2(self, tmp_path, capsys):
        model = tmp_path / "usecases.json"
        model.write_text(json.dumps({"actors": []}), encoding="utf-8")
        assert main(["ucp", str(model)]) == 2
        assert "missing key(s)" in capsys.readouterr().err


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

    def test_ucp_model_multiplies_size_by_ratio(self, tmp_path, dataset_csv):
        model = tmp_path / "ucp.json"
        predictions = tmp_path / "pred.csv"
        assert main(["train", "--model", "ucp", "--ratio", "25", "--out", str(model)]) == 0
        assert main(["predict", "--model-file", str(model), "--data", str(dataset_csv),
                     "--out", str(predictions)]) == 0
        values = read_predictions(predictions)
        for project in piecewise_dataset():
            assert values[project.id] == pytest.approx(25.0 * project.size_ucp)

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

    def test_evaluate_rejects_wrong_header(self, tmp_path, dataset_csv, capsys):
        predictions = tmp_path / "pred.csv"
        predictions.write_text("name,value\np001,100.0\n", encoding="utf-8")
        code = main(["evaluate", "--predictions", str(predictions),
                     "--data", str(dataset_csv), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "must have header" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "inf", "1_000", "1e3x", ""])
    def test_evaluate_rejects_bad_prediction_numbers(self, tmp_path, dataset_csv, capsys, value):
        predictions = tmp_path / "pred.csv"
        predictions.write_text(f"id,predicted_ph\np001,{value}\n", encoding="utf-8")
        code = main(["evaluate", "--predictions", str(predictions),
                     "--data", str(dataset_csv), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "non-numeric predicted_ph" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_evaluate_rejects_duplicate_prediction_ids(self, tmp_path, dataset_csv, capsys):
        rows = [f"{p.id},{p.effort_ph!r}" for p in piecewise_dataset()]
        predictions = tmp_path / "pred.csv"
        predictions.write_text(
            "id,predicted_ph\n" + "\n".join(rows) + "\np002,1e9\n", encoding="utf-8"
        )
        code = main(["evaluate", "--predictions", str(predictions),
                     "--data", str(dataset_csv), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"duplicate prediction id 'p002' at row {len(rows) + 2}" in capsys.readouterr().err
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
            ('{"kind": "ucp", "ratio": "nan"}', "ucp ratio must be a number"),
            ('{"kind": "ucp", "ratio": NaN}', "ucp ratio must be finite"),
            ('{"kind": "ucp", "ratio": null}', "ucp ratio must be a number"),
            ('{"kind": "ucp", "ratio": -2}', "ratio must be positive"),
            ('{"kind": "mlr", "coefficients": null, "diagnostics": {}}', "mlr coefficients"),
            ('{"kind": "mlr", "coefficients": {"intercept": 1, "ln_size": 1, "productivity":'
             ' "x", "complexity": 1}, "diagnostics": {}}', "productivity must be a number"),
            ('{"kind": "mlr", "coefficients": {"intercept": 1, "ln_size": 1, "productivity":'
             ' 0, "complexity": 1}, "diagnostics": {}}', "adjusted_r2 must be a number"),
            ('{"kind": "fmt", "feature_names": null}', "feature_names"),
            ('{"kind": "fmt", "feature_names": ["size_ucp", "productivity", "complexity"],'
             ' "fuzzy": {"centers": [[0], [0], [0]], "sigmas": [[1], [1], [0]]}}',
             "sigmas must be positive"),
            ('{"kind": "fmt", "feature_names": ["size_ucp", "productivity", "complexity"],'
             ' "fuzzy": {"centers": [[0], [0], [0]], "sigmas": [[1], [1], [1]]},'
             ' "tree": {"routing_dim": 3, "regression_dim": 3, "root": {"count": 5,'
             ' "mae": 0.0, "model": {"intercept": 1.0, "coefficients": [0, 0, 0]},'
             ' "feature": 3, "threshold": 0.5, "left": {}, "right": {}}}}',
             "tree.root.feature must be an integer in [0, 3)"),
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


def test_cli_import_does_not_load_scipy():
    src = str(Path(fmtree.__file__).resolve().parents[1])
    probe = "import sys, fmtree.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


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
