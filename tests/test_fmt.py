import hashlib
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import linear_dataset, piecewise_dataset
from fmtree.data import Dataset, Project, effort_vector, feature_matrix, split_holdout
from fmtree.fcm import FcmConfig, FuzzyInferenceModel, membership_matrix
from fmtree.fmt import (
    EFFORT_FLOOR_PH,
    fmt_from_json,
    fmt_to_json,
    predict_fmt,
    predict_fmt_dataset,
    train_fmt,
)
from fmtree.mtree import TreeConfig, build_tree, predict_tree, prune

FMT_REFERENCE = json.loads(
    (Path(__file__).parent / "fixtures" / "fmt_reference.json").read_text(encoding="utf-8")
)


def flat_dataset(effort_fn, n=40, seed=3):
    rng = np.random.default_rng(seed)
    size = rng.uniform(60.0, 200.0, n)
    projects = tuple(
        Project(f"d{i:02d}", float(size[i]), 20.0, 3.0, float(effort_fn(size[i])))
        for i in range(n)
    )
    return Dataset(projects, "synthetic")


def test_routing_uses_one_column_per_feature_and_cluster():
    model = train_fmt(piecewise_dataset())
    assert model.tree.routing_dim == 9
    assert model.tree.regression_dim == 3


def test_cluster_count_drives_routing_width():
    model = train_fmt(piecewise_dataset(), fcm_config=FcmConfig(k=2))
    assert model.tree.routing_dim == 6


def test_constant_effort_predicts_constant():
    data = flat_dataset(lambda size: 500.0)
    model = train_fmt(data)
    assert_allclose(predict_fmt_dataset(model, data), 500.0, atol=1e-6)


def test_recovers_exact_linear_relation():
    data = linear_dataset()
    model = train_fmt(data)
    predictions = predict_fmt_dataset(model, data)
    assert_allclose(predictions, effort_vector(data), rtol=1e-6)
    assert model.tree.leaf_count() == 1


def test_predictions_floored_at_one_hour():
    data = flat_dataset(lambda size: 3000.0 - 10.0 * size)
    model = train_fmt(data)
    probe = Project("probe", 400.0, 20.0, 3.0, 1.0)
    assert predict_fmt(model, probe) == EFFORT_FLOOR_PH


def test_test_split_rows_never_touch_the_model():
    data = piecewise_dataset()
    train, test = split_holdout(data, 59, seed=7)
    victim = test.projects[0].id
    tampered = tuple(
        Project(p.id, p.size_ucp, p.productivity, p.complexity, p.effort_ph * 3.0)
        if p.id == victim
        else p
        for p in data
    )
    train2, _ = split_holdout(Dataset(tampered, data.source_label), 59, seed=7)
    first = json.dumps(fmt_to_json(train_fmt(train)), sort_keys=True)
    second = json.dumps(fmt_to_json(train_fmt(train2)), sort_keys=True)
    assert first == second


def test_cluster_relabeling_leaves_predictions_unchanged():
    data = piecewise_dataset()
    train, test = split_holdout(data, 59, seed=7)
    model = train_fmt(train)
    permuted = FuzzyInferenceModel(
        model.fuzzy.centers[:, [2, 0, 1]],
        model.fuzzy.sigmas[:, [2, 0, 1]],
        model.fuzzy.standardization,
    )
    features = feature_matrix(train)
    efforts = effort_vector(train)
    config = model.tree_config
    tree = prune(build_tree(membership_matrix(permuted, features), features, efforts, config), config)
    test_features = feature_matrix(test)
    got = predict_tree(tree, membership_matrix(permuted, test_features), test_features, config)
    want = predict_tree(
        model.tree, membership_matrix(model.fuzzy, test_features), test_features, config
    )
    assert_allclose(got, want, atol=1e-9)


def test_serialization_round_trip():
    data = piecewise_dataset()
    train, test = split_holdout(data, 59, seed=7)
    model = train_fmt(train)
    restored = fmt_from_json(json.loads(json.dumps(fmt_to_json(model))))
    assert restored.fcm_config == model.fcm_config
    assert restored.tree_config == model.tree_config
    assert restored.feature_names == model.feature_names
    assert_allclose(
        predict_fmt_dataset(restored, test), predict_fmt_dataset(model, test), rtol=0
    )


def test_training_set_size_guard():
    data = flat_dataset(lambda size: 10.0 * size, n=3)
    with pytest.raises(ValueError, match="smaller than required"):
        train_fmt(data)
    with pytest.raises(ValueError, match="smaller than required"):
        train_fmt(flat_dataset(lambda size: 10.0 * size, n=5), tree_config=TreeConfig(min_instances=6))


def test_from_json_rejects_other_kinds():
    with pytest.raises(ValueError, match="expected model kind 'fmt'"):
        fmt_from_json({"kind": "treeboost"})


@pytest.mark.parametrize("name", sorted(FMT_REFERENCE["fits"]))
def test_fit_matches_recorded_reference(name):
    reference = FMT_REFERENCE["fits"][name]
    n, seed = reference["n"], reference["seed"]
    data = piecewise_dataset() if n == 84 else piecewise_dataset(n, seed)
    train, test = split_holdout(data, reference["train_count"], seed)
    model = train_fmt(train, FcmConfig(seed=seed))
    text = json.dumps(fmt_to_json(model), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == reference["model_json_sha256"]
    total = math.fsum(predict_fmt_dataset(model, test).tolist())
    assert total == pytest.approx(reference["test_prediction_sum"], rel=1e-12)


def test_batch_predict_equals_per_row_predict():
    train, test = split_holdout(piecewise_dataset(600, 3), 400, 3)
    model = train_fmt(train, FcmConfig(seed=3), TreeConfig(min_instances=2))
    assert model.tree.leaf_count() > 2
    batch = predict_fmt_dataset(model, test)
    assert_allclose(batch, [predict_fmt(model, p) for p in test], rtol=1e-12)
    reversed_test = Dataset(test.projects[::-1], test.source_label)
    assert np.array_equal(predict_fmt_dataset(model, reversed_test), batch[::-1])


def test_unconverged_fcm_logs_one_warning(caplog):
    data = piecewise_dataset()
    with caplog.at_level(logging.WARNING, logger="fmtree"):
        train_fmt(data, FcmConfig(max_iterations=5))
    assert len(caplog.records) == 1
    assert "FCM stopped at max_iterations=5 without converging" in caplog.records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fmtree"):
        train_fmt(data)
    assert caplog.records == []


def model_doc():
    return json.loads(json.dumps(fmt_to_json(train_fmt(piecewise_dataset()))))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d.update(feature_names=["a", "b", "c"]), "feature_names"),
        (lambda d: d["fuzzy"].update(centers=None), "fuzzy centers must be a list"),
        (lambda d: d["fuzzy"]["centers"][1].append(0.5), r"fuzzy centers\[1\] must be a list of 3"),
        (lambda d: d["fuzzy"]["sigmas"][0].__setitem__(1, 0.0), "sigmas must be positive"),
        (lambda d: d["fuzzy"]["sigmas"][2].__setitem__(0, float("nan")), "must be finite"),
        (lambda d: d["fuzzy"].update(sigmas=d["fuzzy"]["sigmas"][:2]), "sigmas have shape"),
        (lambda d: d["fuzzy"].update(centers=d["fuzzy"]["centers"][:2],
                                     sigmas=d["fuzzy"]["sigmas"][:2], standardization=None),
         "must have 3 rows"),
        (lambda d: d["fuzzy"]["standardization"].update(scale=[1.0, -1.0, 1.0]),
         "scale must be positive"),
        (lambda d: d["tree"].update(routing_dim=6), "routing 9 / regression 3"),
        (lambda d: d["tree"]["root"].update(count=None), "count must be an integer"),
        (lambda d: d["fcm_config"].update(bogus=1), "malformed fmt fcm_config"),
        (lambda d: d.update(tree_config=[]), "tree_config must be a JSON object"),
        (lambda d: d["tree_config"].update(smoothing_k=float("nan")), "smoothing_k"),
    ],
)
def test_from_json_rejects_malformed_models(change, message):
    doc = model_doc()
    change(doc)
    with pytest.raises(ValueError, match=message):
        fmt_from_json(doc)
