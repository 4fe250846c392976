import ast
import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import linear_dataset, piecewise_dataset
from fmtree import fmt
from fmtree.data import Dataset, split_holdout
from fmtree.fcm import FcmConfig, FuzzyInferenceModel, membership_matrix
from fmtree.fmt import (
    EFFORT_FLOOR_PH,
    fmt_from_json,
    fmt_to_json,
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
    features = np.column_stack([size, np.full(n, 20.0), np.full(n, 3.0)])
    return Dataset(tuple(f"d{i:02d}" for i in range(n)), features, [effort_fn(s) for s in size])


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
    assert_allclose(predictions, data.efforts, rtol=1e-6)
    assert model.tree.leaf_count() == 1


def test_predictions_floored_at_one_hour():
    data = flat_dataset(lambda size: 3000.0 - 10.0 * size)
    model = train_fmt(data)
    probe = Dataset(("probe",), [[400.0, 20.0, 3.0]], [1.0])
    assert predict_fmt_dataset(model, probe)[0] == EFFORT_FLOOR_PH


def test_test_split_rows_never_touch_the_model():
    data = piecewise_dataset()
    train, test = split_holdout(data, 59, seed=7)
    victim = test.ids[0]
    efforts = np.where(np.array(data.ids) == victim, data.efforts * 3.0, data.efforts)
    train2, _ = split_holdout(Dataset(data.ids, data.features, efforts), 59, seed=7)
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
    features = train.features
    efforts = train.efforts
    config = model.tree_config
    memberships = membership_matrix(permuted, features)
    grown = build_tree(memberships, features, efforts, config)
    tree = prune(grown, memberships, features, efforts, config)
    test_features = test.features
    got = predict_tree(tree, membership_matrix(permuted, test_features), test_features, config)
    want = predict_tree(
        model.tree, membership_matrix(model.fuzzy, test_features), test_features, config
    )
    assert_allclose(got, want, atol=1e-9)


@functools.cache
def relabel_fit():
    train, test = split_holdout(piecewise_dataset(600, 3), 400, 3)
    return train_fmt(train, FcmConfig(k=4, seed=3), TreeConfig(min_instances=2)), test


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(4)))
def test_relabeled_clusters_and_remapped_routing_predict_identically(order):
    model, test = relabel_fit()
    k = model.fuzzy.cluster_count
    # New cluster c is old cluster order[c], so old routing column j*k + c
    # becomes j*k + relabel[c].
    relabel = np.argsort(order)
    fuzzy = FuzzyInferenceModel(
        model.fuzzy.centers[:, order], model.fuzzy.sigmas[:, order], model.fuzzy.standardization
    )
    feature = model.tree.feature
    remapped = np.where(feature >= 0, feature // k * k + relabel[feature % k], feature)
    tree = dataclasses.replace(model.tree, feature=remapped)
    relabeled = dataclasses.replace(model, fuzzy=fuzzy, tree=tree)
    assert model.tree.leaf_count() > 2
    got = predict_fmt_dataset(relabeled, test)
    assert got.tobytes() == predict_fmt_dataset(model, test).tobytes()


def test_tracer_hooks_see_one_build_and_one_prune(monkeypatch):
    """The benchmark's tracer wraps fmt.build_tree and fmt.prune where train_fmt
    looks them up, binds each call to the wrapped function's signature, and
    counts leaves with the results' leaf_count()."""
    calls = {"build_tree": [], "prune": []}

    def counting(name):
        original = getattr(fmt, name)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            result = original(*args, **kwargs)
            calls[name].append((bound.arguments, result))
            return result

        monkeypatch.setattr(fmt, name, wrapper)

    counting("build_tree")
    counting("prune")
    train, _ = split_holdout(piecewise_dataset(), 59, seed=2014)
    model = train_fmt(train)
    assert [len(results) for results in calls.values()] == [1, 1]
    [(grow_args, grown)], [(prune_args, pruned)] = calls.values()
    assert pruned is model.tree
    assert prune_args["tree"] is grown
    assert prune_args["config"] is grow_args["config"] is model.tree_config
    for tree in grown, pruned:
        assert tree.leaf_count() == int(np.count_nonzero(tree.feature < 0))
    assert grown.leaf_count() >= pruned.leaf_count() > 0


def test_tracer_layers_name_existing_attributes():
    """Every (module, attribute) the benchmark's tracer wraps exists.  LAYERS is
    read with ast: importing perfbench/tracer.py would run its timed import."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (layers,) = [
        node.value
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["LAYERS"]
    ]
    pairs = [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
             for entry in layers.elts]
    assert ("fmtree.evaluation", "win_tie_loss") in pairs
    for module, attribute in pairs:
        assert callable(getattr(importlib.import_module(module), attribute, None)), attribute


def test_serialization_round_trip():
    data = piecewise_dataset()
    train, test = split_holdout(data, 59, seed=7)
    model = train_fmt(train)
    restored = fmt_from_json(json.loads(json.dumps(fmt_to_json(model))))
    assert restored.fcm_config == model.fcm_config
    assert restored.tree_config == model.tree_config
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
    predictions = predict_fmt_dataset(model, test)
    total = math.fsum(predictions.tolist())
    assert total == pytest.approx(reference["test_prediction_sum"], rel=1e-12)
    # The float64 bytes of the holdout predictions, recorded with the
    # recursive-node tree code that preceded the flat-array one.
    digest = hashlib.sha256(predictions.tobytes()).hexdigest()
    assert digest == reference["test_predictions_sha256"]


def test_batch_predict_equals_per_row_predict():
    train, test = split_holdout(piecewise_dataset(600, 3), 400, 3)
    model = train_fmt(train, FcmConfig(seed=3), TreeConfig(min_instances=2))
    assert model.tree.leaf_count() > 2
    batch = predict_fmt_dataset(model, test)
    rows = [predict_fmt_dataset(model, test.take([i]))[0] for i in range(len(test))]
    assert batch.tolist() == rows
    reversed_test = test.take(range(len(test) - 1, -1, -1))
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
                                     sigmas=d["fuzzy"]["sigmas"][:2],
                                     standardization={"mean": [0, 0], "scale": [1, 1]}),
         "must have 3 rows"),
        (lambda d: d["fuzzy"].update(standardization=None),
         "standardization must be a JSON object, got None"),
        (lambda d: d["fuzzy"].pop("standardization"),
         r"fuzzy model must hold the keys \['centers', 'sigmas', 'standardization'\], "
         r"got \['centers', 'sigmas'\]"),
        (lambda d: d["fuzzy"]["standardization"].update(scale=[1.0, -1.0, 1.0]),
         "scale must be positive"),
        (lambda d: d["tree"].update(routing_dim=6), "routing 9 / regression 3"),
        (lambda d: d["tree"]["root"].update(count=None), "count must be an integer"),
        (lambda d: d["tree"]["root"].update(bogus=1), r"tree.root must hold the keys \['count', "
         r"'feature', 'left', 'mae', 'model', 'right', 'threshold'\], got \['bogus', 'count', "),
        (lambda d: d["fcm_config"].update(bogus=1),
         r"fmt fcm_config must hold the keys \['fuzzifier_m', 'k', 'max_iterations', 'seed', "
         r"'tolerance'\], got \['bogus', 'fuzzifier_m', "),
        (lambda d: d.update(fcm_config={}),
         r"fmt fcm_config must hold the keys \['fuzzifier_m', 'k', 'max_iterations', 'seed', "
         r"'tolerance'\], got \[\]"),
        (lambda d: d.update(tree_config=[]), "tree_config must be a JSON object"),
        (lambda d: d["tree_config"].update(smoothing_k=float("nan")), "smoothing_k"),
        (lambda d: d["tree_config"].update(smoothing_k=True),
         "smoothing_k must be a number, got True"),
        (lambda d: d["tree_config"].update(min_instances=4.5),
         "min_instances must be an integer, got 4.5"),
        (lambda d: d["fcm_config"].update(max_iterations=2.5),
         "max_iterations must be an integer, got 2.5"),
        (lambda d: d["fcm_config"].update(seed="x"), "seed must be an integer, got 'x'"),
        (lambda d: d["fcm_config"].update(k=True), "k must be an integer, got True"),
        (lambda d: d["fcm_config"].update(k=7), "k=7 does not match the 3 fuzzy clusters"),
    ],
)
def test_from_json_rejects_malformed_models(change, message):
    doc = model_doc()
    change(doc)
    with pytest.raises(ValueError, match=message):
        fmt_from_json(doc)


def test_from_json_refuses_a_missing_config_key():
    """A config key left out is refused, not given its default: at smoothing_k=0.0 the
    default of 15.0 would move nearly every holdout prediction."""
    train, test = split_holdout(piecewise_dataset(2000, 1), 1500, 1)
    model = train_fmt(train, tree_config=TreeConfig(smoothing_k=0.0))
    defaulted = dataclasses.replace(model, tree_config=TreeConfig())
    moved = predict_fmt_dataset(defaulted, test) != predict_fmt_dataset(model, test)
    assert moved.sum() > 0.9 * len(test)
    doc = json.loads(json.dumps(fmt_to_json(model)))
    del doc["tree_config"]["smoothing_k"]
    with pytest.raises(ValueError, match=r"fmt tree_config must hold the keys \['min_instances', "
                       r"'pruning_factor', 'sd_fraction', 'smoothing_k'\], got \['min_instances', "
                       r"'pruning_factor', 'sd_fraction'\]"):
        fmt_from_json(doc)
