import hashlib
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.special import stdtr

from conftest import BENCHMARK_TRAIN, piecewise_dataset
from fmtree import baselines
from fmtree.baselines import (
    _MAX_LEAVES,
    _PREDICT_CELLS,
    MLR_TERMS,
    MlrModel,
    TreeboostConfig,
    TreeboostModel,
    _best_split,
    _grow_stage_tree,
    _leaves,
    _mean_huber,
    _quantile,
    _stage_leaf_value,
    _stage_tables,
    fit_mlr,
    fit_treeboost,
    mlr_from_json,
    mlr_to_json,
    predict_mlr_dataset,
    predict_treeboost_dataset,
    t_two_sided_p,
    treeboost_from_json,
    treeboost_to_json,
)
from fmtree.data import Dataset, split_holdout

TREEBOOST_REFERENCE = json.loads(
    (Path(__file__).parent / "fixtures" / "treeboost_reference.json").read_text(encoding="utf-8")
)


def step_dataset():
    size = np.arange(1.0, 11.0)
    features = np.column_stack([size, np.full(10, 20.0), np.full(10, 3.0)])
    return Dataset(tuple(f"s{i}" for i in range(10)), features, np.where(size <= 5, 100.0, 200.0))


def log_linear_dataset(n=60, seed=2, noise_sd=0.0, coef_complexity=0.08):
    rng = np.random.default_rng(seed)
    size = rng.uniform(50.0, 400.0, n)
    productivity = rng.uniform(10.0, 35.0, n)
    complexity = rng.integers(1, 6, n).astype(float)
    log_effort = (
        1.2
        + 0.9 * np.log(size)
        + 0.015 * productivity
        + coef_complexity * complexity
        + rng.normal(0.0, noise_sd, n) * (noise_sd > 0)
    )
    ids = tuple(f"m{i}" for i in range(n))
    return Dataset(ids, np.column_stack([size, productivity, complexity]), np.exp(log_effort))


def stage_doc_values(node: dict, x: np.ndarray) -> np.ndarray:
    """Each row of x's value under one stage's JSON node object, by the `<=` rule."""
    if "value" in node:
        return np.full(len(x), node["value"])
    go_left = x[:, node["feature"]] <= node["threshold"]
    values = np.empty(len(x))
    values[go_left] = stage_doc_values(node["left"], x[go_left])
    values[~go_left] = stage_doc_values(node["right"], x[~go_left])
    return values


def whole_forest_prediction(model: TreeboostModel, dataset: Dataset) -> np.ndarray:
    """Every row through each stage's JSON node objects, the stages added in a Python loop."""
    doc, x = treeboost_to_json(model), dataset.features
    total = np.zeros(len(x))
    for stage in doc["trees"]:
        total += stage_doc_values(stage, x)
    return np.maximum(doc["f0"] + doc["shrinkage"] * total, 1.0)


def traced(call, *args):
    """call(*args)'s result and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        got = call(*args)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTreeboostConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_trees": 0}, "n_trees"),
            ({"huber_quantile": 0.0}, "huber_quantile"),
            ({"huber_quantile": 1.5}, "huber_quantile"),
            ({"shrinkage": 0.0}, "shrinkage"),
            ({"shrinkage": 1.5}, "shrinkage"),
            ({"stochastic_fraction": 0.0}, "stochastic_fraction"),
            ({"influence_trimming": 1.0}, "influence_trimming"),
            ({"influence_trimming": -0.1}, "influence_trimming"),
            ({"max_depth": 0}, "max_depth"),
            ({"n_trees": 2.5}, "n_trees must be an integer"),
            ({"shrinkage": True}, "shrinkage must be a number"),
            ({"n_trees": 2**20}, r"n_trees=1048576 at max_depth=3: 1048576 stages x 2\^3 "
                                 r"leaves exceed 4194304"),
            ({"n_trees": 1, "max_depth": 23}, r"1 stages x 2\^23 leaves exceed"),
            ({"max_depth": 10**9}, r"1000 stages x 2\^1000000000 leaves exceed"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TreeboostConfig(**kwargs)

    def test_stages_may_pad_to_exactly_the_leaf_cap(self):
        assert _MAX_LEAVES == 2**22
        TreeboostConfig(n_trees=2**19)  # 2^19 stages x 2^3 leaves
        TreeboostConfig(n_trees=1, max_depth=22)


def huber(targets, predictions, delta):
    """The mean Huber loss of predictions against targets, as fit_treeboost computes it."""
    return _mean_huber(np.abs(np.array(targets) - np.array(predictions)), delta)


class TestHuberLoss:
    def test_hand_values(self):
        assert huber([0.0], [1.0], 2.0) == 0.5
        assert huber([0.0], [3.0], 2.0) == 4.0
        assert huber([0.0, 0.0], [1.0, 3.0], 2.0) == 2.25
        # boundary counts as quadratic: 0.5 * 2^2 == 2 * (2 - 1)
        assert huber([0.0], [2.0], 2.0) == 2.0

    def test_zero_delta_degrades_to_mean_absolute(self):
        assert huber([0.0, 0.0], [1.0, 3.0], 0.0) == 2.0


class TestQuantile:
    @given(
        arrays(np.float64, st.integers(1, 80), elements=st.floats(-1e6, 1e6)),
        st.floats(0.0, 1.0),
    )
    def test_matches_numpy_bit_for_bit(self, values, q):
        assert _quantile(values, q).hex() == float(np.quantile(values, q)).hex()


def reference_split(x, residuals):
    """The per-feature split scan of the nested-node grower, kept as the oracle."""
    n = len(residuals)
    if n < 2 or float(np.ptp(residuals)) == 0.0:
        return None
    best = None
    parent_sse = float(np.sum(residuals**2)) - n * float(np.mean(residuals)) ** 2
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        vs, rs = x[order, f], residuals[order]
        cum, cum2 = np.cumsum(rs), np.cumsum(rs * rs)
        cuts = np.arange(1, n)
        nl = cuts.astype(float)
        nr = n - nl
        sse = (cum2[cuts - 1] - cum[cuts - 1] ** 2 / nl) + (
            (cum2[-1] - cum2[cuts - 1]) - (cum[-1] - cum[cuts - 1]) ** 2 / nr
        )
        gain = parent_sse - sse
        gain[vs[cuts] == vs[cuts - 1]] = -np.inf
        j = int(np.argmax(gain))
        if np.isfinite(gain[j]) and gain[j] > 0.0 and (best is None or gain[j] > best[0]):
            best = (float(gain[j]), f, float((vs[cuts[j] - 1] + vs[cuts[j]]) / 2.0))
    return None if best is None else best[1:]


def best_split(x, residuals, rows):
    order = np.argsort(x, axis=0, kind="stable").T
    sorted_x = np.take_along_axis(x.T, order, axis=1)
    cuts = np.arange(1.0, len(residuals))
    return _best_split(order, sorted_x, residuals[order], residuals, rows, cuts)


class TestBestSplit:
    @given(st.data())
    def test_matches_per_feature_scan_on_any_node(self, data):
        n = data.draw(st.integers(1, 30))
        x = data.draw(arrays(np.float64, (n, 3), elements=st.integers(0, 6).map(float)))
        residuals = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
        member = data.draw(arrays(np.bool_, n))
        rows = np.flatnonzero(member)
        assert best_split(x, residuals, rows) == reference_split(x[rows], residuals[rows])

    @given(st.data())
    def test_node_of_every_row_reads_the_sorted_arrays_unmasked(self, data):
        n = data.draw(st.integers(1, 30))
        x = data.draw(arrays(np.float64, (n, 3), elements=st.integers(0, 6).map(float)))
        residuals = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
        assert best_split(x, residuals, np.arange(n)) == reference_split(x, residuals)

    @pytest.mark.parametrize(
        "a, b", [(1 - 2**-53, 1.0), (1.6e308, 1.7e308), (-1.7e308, -1.6e308)]
    )
    def test_threshold_whose_midpoint_is_not_below_b_is_a(self, a, b):
        # (a + b) / 2 rounds to b, overflows to inf or overflows to -inf.
        x = np.column_stack([np.repeat([a, b], 3), np.zeros(6), np.zeros(6)])
        residuals = np.repeat([-1.0, 1.0], 3)
        with np.errstate(over="raise"):
            assert best_split(x, residuals, np.arange(6)) == (0, a)


def grown_stage(x, sub, diff, delta, depth):
    """The tables of one stage of depth `depth` grown on the rows `sub` of x."""
    pseudo = np.where(np.abs(diff) <= delta, diff, delta * np.sign(diff))
    feature, threshold, value = _stage_tables(1, depth)
    _grow_stage_tree(x, sub, pseudo, diff, delta, feature[0], threshold[0], value[0])
    return feature, threshold, value


class TestStageGrowth:
    @given(st.data())
    def test_leaves_hold_the_steps_of_the_rows_that_walk_to_them(self, data):
        # Integer features tie often, and a training row outside the subsample
        # can sit exactly on a threshold halfway between two subsample values.
        n = data.draw(st.integers(2, 40))
        x = data.draw(arrays(np.float64, (n, 3), elements=st.integers(0, 4).map(float)))
        diff = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
        sub = np.flatnonzero(data.draw(arrays(np.bool_, n).filter(np.any)))
        delta = data.draw(st.floats(0.0, 1e3))
        feature, threshold, value = grown_stage(x, sub, diff, delta, data.draw(st.integers(1, 4)))
        leaves = _leaves(x[sub], feature, threshold)[0]
        for leaf in np.unique(leaves):
            assert value[0, leaf] == _stage_leaf_value(diff[sub[leaves == leaf]], delta)
        walked = value[0][_leaves(x, feature, threshold)[0]]
        doc = treeboost_to_json(TreeboostModel(0.0, 1.0, feature, threshold, value))
        assert walked.tobytes() == stage_doc_values(doc["trees"][0], x).tobytes()

    def test_row_on_a_threshold_goes_left(self):
        x = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        diff = np.array([-1.0, 1.0, 5.0])
        feature, threshold, value = grown_stage(x, np.array([0, 1]), diff, 10.0, 1)
        assert threshold.tolist() == [[1.0]]
        assert value[0][_leaves(x, feature, threshold)[0]].tolist() == [-1.0, 1.0, -1.0]

    def test_leaf_above_the_depth_passes_every_row_to_its_leftmost_leaf(self):
        x = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        diff = np.array([3.0, 3.0, 5.0])
        feature, threshold, value = grown_stage(x, np.array([0, 1]), diff, 10.0, 3)
        assert threshold.tolist() == [[math.inf] * 7]
        assert value.tolist() == [[3.0] + [0.0] * 7]
        assert _leaves(x, feature, threshold).tolist() == [[0, 0, 0]]


class TestStageLeafValue:
    @given(
        arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e6, 1e6)),
        st.floats(0.0, 1e6),
    )
    def test_matches_numpy_median_and_mean(self, diff, delta):
        med = float(np.median(diff))
        centered = diff - med
        expected = med + float(np.mean(np.sign(centered) * np.minimum(np.abs(centered), delta)))
        assert _stage_leaf_value(diff, delta).hex() == expected.hex()

    def test_symmetric_values_give_median(self):
        assert _stage_leaf_value(np.array([1.0, 2.0, 3.0, 4.0]), 100.0) == 2.5

    def test_outlier_contribution_clipped_at_delta(self):
        assert _stage_leaf_value(np.array([0.0, 0.0, 0.0, 100.0]), 1.0) == 0.25

    def test_wide_delta_recovers_plain_mean(self):
        assert _stage_leaf_value(np.array([0.0, 0.0, 0.0, 100.0]), 200.0) == 25.0


class TestTreeboost:
    def test_single_stump_fits_step_exactly(self):
        config = TreeboostConfig(
            n_trees=5, shrinkage=1.0, stochastic_fraction=1.0,
            influence_trimming=0.0, max_depth=1,
        )
        data = step_dataset()
        model = fit_treeboost(data, config)
        assert model.f0 == 150.0
        assert len(model.trees) == 1
        assert model.loss_trace == [0.0]
        assert_allclose(predict_treeboost_dataset(model, data), data.efforts)

    def test_constant_efforts_need_no_trees(self):
        features = np.column_stack([np.arange(1.0, 13.0), np.full(12, 20.0), np.full(12, 3.0)])
        data = Dataset(tuple(f"c{i}" for i in range(12)), features, np.full(12, 500.0))
        model = fit_treeboost(data, TreeboostConfig(n_trees=50))
        assert len(model.trees) == 0
        assert model.f0 == 500.0
        assert predict_treeboost_dataset(model, data.take([0]))[0] == 500.0

    def test_vanishing_shrinkage_stays_at_median(self):
        data = piecewise_dataset()
        median = float(np.median(data.efforts))
        model = fit_treeboost(data, TreeboostConfig(n_trees=1, shrinkage=1e-12))
        assert_allclose(predict_treeboost_dataset(model, data), median, rtol=1e-6)
        model = fit_treeboost(data, TreeboostConfig(n_trees=50, shrinkage=1e-9))
        assert_allclose(predict_treeboost_dataset(model, data), median, rtol=1e-6)

    def test_single_leaf_series_arithmetic(self):
        feature, threshold = np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0))
        model = TreeboostModel(100.0, 0.1, feature, threshold, np.array([[5.0]]))
        probe = Dataset(("p",), [[100.0, 20.0, 3.0]], [1.0])
        assert predict_treeboost_dataset(model, probe)[0] == 100.5

    def test_loss_trace_non_increasing(self):
        train, _ = split_holdout(piecewise_dataset(), 59, seed=2014)
        config = TreeboostConfig(n_trees=200, stochastic_fraction=1.0, influence_trimming=0.0)
        trace = np.array(fit_treeboost(train, config).loss_trace)
        assert len(trace) == 200
        assert np.all(np.diff(trace) <= 1e-9 * trace[:-1])

    def test_same_seed_same_model(self):
        train, _ = split_holdout(piecewise_dataset(), 59, seed=2014)
        config = TreeboostConfig(n_trees=40, seed=17)
        first = treeboost_to_json(fit_treeboost(train, config))
        second = treeboost_to_json(fit_treeboost(train, config))
        assert first == second

    def test_influence_trimming_drops_smallest_residuals(self):
        train, test = split_holdout(piecewise_dataset(), 59, seed=2014)
        config = TreeboostConfig(n_trees=60, influence_trimming=0.2)
        model = fit_treeboost(train, config)
        assert len(model.trees) == 60
        predictions = predict_treeboost_dataset(model, test)
        assert np.all(np.isfinite(predictions))

    def test_prediction_floor(self):
        model = TreeboostModel(0.25, 0.1, *_stage_tables(0, 1))
        probe = Dataset(("p",), [[100.0, 20.0, 3.0]], [1.0])
        assert predict_treeboost_dataset(model, probe)[0] == 1.0
        # Only finite values are floored: -inf is returned for the caller to refuse.
        doc = {"kind": "treeboost", "f0": -1e308, "shrinkage": 1.0,
               "trees": [{"feature": 0, "threshold": 1.0, "left": {"value": -1e308},
                          "right": {"value": -1e308}}]}
        with np.errstate(over="ignore"):
            assert predict_treeboost_dataset(treeboost_from_json(doc), probe)[0] == -math.inf

    def test_too_few_projects(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_treeboost(step_dataset().take(range(9)))

    def test_targets_whose_squares_overflow_are_refused(self):
        data = piecewise_dataset()
        efforts = data.efforts.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            efforts[:10] = 1e200
            with pytest.raises(ValueError, match="targets' sum of squares overflows"):
                fit_treeboost(Dataset(data.ids, data.features, efforts))
            # The efforts' sum of squares fits a float, but a split scan's squared
            # partial sums of the pseudo-residuals do not.
            for value in (3e153, 4e153):
                efforts[:10] = value
                with pytest.raises(ValueError, match="targets' sum of squares overflows"):
                    fit_treeboost(Dataset(data.ids, data.features, efforts))
            # Squares of ten 1e150 or 2e153 efforts, and every sum of them, still fit a float.
            for value in (1e150, 2e153):
                efforts[:10] = value
                model = fit_treeboost(Dataset(data.ids, data.features, efforts),
                                      TreeboostConfig(n_trees=50))
                assert np.isfinite(predict_treeboost_dataset(model, data)).all()

    def test_json_round_trip(self):
        train, test = split_holdout(piecewise_dataset(), 59, seed=2014)
        model = fit_treeboost(train, TreeboostConfig(n_trees=50))
        restored = treeboost_from_json(json.loads(json.dumps(treeboost_to_json(model))))
        assert restored.f0 == model.f0
        assert restored.loss_trace == []
        assert_allclose(
            predict_treeboost_dataset(restored, test),
            predict_treeboost_dataset(model, test),
            rtol=0,
        )

    def test_from_json_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="expected model kind 'treeboost'"):
            treeboost_from_json({"kind": "mlr"})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"trees": None}, "'trees' must be a list"),
            ({"f0": None}, "f0 must be a number"),
            ({"shrinkage": float("nan")}, "shrinkage must be finite"),
            ({"trees": [3]}, r"trees\[0\] must be a JSON object"),
            ({"trees": [{"value": "5"}]}, r"trees\[0\].value must be a number"),
            ({"trees": [{"feature": 0, "threshold": 1.0, "left": {"value": 1.0}}]},
             r"trees\[0\] must hold the keys \['feature', 'left', 'right', 'threshold'\], "
             r"got \['feature', 'left', 'threshold'\]"),
            ({"trees": [{"value": 1.0, "bogus": 2.0}]}, r"trees\[0\] must hold the keys"),
            ({"trees": [{"feature": 0, "threshold": 1.0, "left": {"value": 1.0},
                         "right": {"value": 2.0}, "value": 3.0}]},
             r"trees\[0\] must hold the keys .* got \['feature', 'left', 'right', 'threshold', "
             r"'value'\]"),
            ({"trees": [{"feature": 7, "threshold": 1.0, "left": {"value": 1.0},
                         "right": {"value": 2.0}}]}, r"trees\[0\].feature must be an integer"),
            ({"trees": [{"feature": True, "threshold": 1.0, "left": {"value": 1.0},
                         "right": {"value": 2.0}}]}, "feature must be an integer"),
            ({"trees": [{"feature": 0, "threshold": float("inf"), "left": {"value": 1.0},
                         "right": {"value": 2.0}}]}, r"trees\[0\].threshold must be finite"),
            ({"trees": [{"feature": 0, "threshold": 1.0, "left": {"value": 1.0},
                         "right": {"value": float("nan")}}]}, r"trees\[0\].right.value"),
        ],
    )
    def test_from_json_rejects_malformed_models(self, change, message):
        doc = {"kind": "treeboost", "f0": 100.0, "shrinkage": 0.1, "trees": [], **change}
        with pytest.raises(ValueError, match=message):
            treeboost_from_json(doc)

    def test_from_json_refuses_stages_that_pad_past_the_leaf_cap(self):
        def chain(depth):
            node = {"value": 1.0}
            for _ in range(depth):
                node = {"feature": 0, "threshold": 0.5, "left": node, "right": {"value": 2.0}}
            return node

        doc = {"kind": "treeboost", "f0": 100.0, "shrinkage": 0.1}
        with pytest.raises(ValueError, match=r"treeboost trees\[0\] is 600 deep: 1 stages x "
                                             r"2\^600 leaves exceed 4194304"):
            treeboost_from_json({**doc, "trees": [chain(600)]})
        with pytest.raises(ValueError, match=r"treeboost 'trees': 4194305 stages x 2\^0 leaves"):
            treeboost_from_json({**doc, "trees": [{"value": 1.0}] * (_MAX_LEAVES + 1)})
        # The stage that first takes the padding past the cap is named.
        with pytest.raises(ValueError, match=r"treeboost trees\[2\] is 21 deep: 3 stages x "
                                             r"2\^21 leaves exceed"):
            treeboost_from_json({**doc, "trees": [chain(2), {"value": 1.0}, chain(21)]})

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5), st.integers(1, 30), st.floats(0.05, 1.0), st.floats(0.0, 0.5),
        st.integers(0, 2**32 - 1),
    )
    def test_fit_round_trips_through_json_to_the_same_bytes_and_bits(
        self, max_depth, n_trees, stochastic_fraction, influence_trimming, seed
    ):
        train, test = split_holdout(piecewise_dataset(), BENCHMARK_TRAIN, seed % 1000)
        config = TreeboostConfig(
            n_trees=n_trees, max_depth=max_depth, stochastic_fraction=stochastic_fraction,
            influence_trimming=influence_trimming, seed=seed,
        )
        model = fit_treeboost(train, config)
        text = json.dumps(treeboost_to_json(model))
        restored = treeboost_from_json(json.loads(text))
        assert json.dumps(treeboost_to_json(restored)) == text
        # A stage stops above max_depth where a node has no split; a model read
        # back has the depth of its deepest stage.
        assert restored.value.shape[1] <= model.value.shape[1] == 2**max_depth
        assert predict_treeboost_dataset(restored, test).tobytes() == (
            predict_treeboost_dataset(model, test).tobytes()
        )

    def test_batch_predict_equals_per_row_walk(self):
        train, test = split_holdout(piecewise_dataset(), 59, seed=2014)
        model = fit_treeboost(train, TreeboostConfig(n_trees=150, max_depth=4, seed=3))
        doc = treeboost_to_json(model)
        expected = []
        for row in test.features:
            total = 0
            for node in doc["trees"]:
                while "value" not in node:
                    node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
                total += node["value"]
            expected.append(max(doc["f0"] + doc["shrinkage"] * total, 1.0))
        batch = predict_treeboost_dataset(model, test)
        assert batch.tolist() == expected
        assert [
            predict_treeboost_dataset(model, test.take([i]))[0] for i in range(len(test))
        ] == expected

    def test_predict_in_row_blocks_equals_the_whole_forest_in_bounded_memory(self):
        # The stages are joined in chunks, and the rows go through each chunk in blocks.
        train, test = split_holdout(piecewise_dataset(), BENCHMARK_TRAIN, seed=2014)
        model = fit_treeboost(train, TreeboostConfig(n_trees=200, max_depth=4, seed=3))
        rows = piecewise_dataset(4000, seed=7)
        assert len(model.trees) > _PREDICT_CELLS // 64
        assert len(model.trees) * len(rows) > 10 * _PREDICT_CELLS
        expected = whole_forest_prediction(model, rows)
        got, peak = traced(predict_treeboost_dataset, model, rows)
        assert got.tobytes() == expected.tobytes()
        # Whole, the (stage, row) arrays would take 6.4 MB each.
        assert peak < 16 * 8 * _PREDICT_CELLS
        # The pinned compare's holdout under its 1000-stage model: the whole forest
        # and its (stage, row) arrays took 1569 KB.
        pinned = fit_treeboost(train, TreeboostConfig(seed=2014))
        assert len(pinned.trees) == 1000
        got, peak = traced(predict_treeboost_dataset, pinned, test)
        assert got.tobytes() == whole_forest_prediction(pinned, test).tobytes()
        assert peak < 512 * 1024

    @pytest.mark.parametrize("cells", [1, 7, _PREDICT_CELLS, 2**20])
    def test_predict_equals_the_whole_forest_for_any_cell_budget(self, monkeypatch, cells):
        train, test = split_holdout(piecewise_dataset(), BENCHMARK_TRAIN, seed=2014)
        model = fit_treeboost(train, TreeboostConfig(n_trees=150, max_depth=4, seed=3))
        assert len(model.trees) == 150
        expected = whole_forest_prediction(model, test)
        monkeypatch.setattr(baselines, "_PREDICT_CELLS", cells)
        assert predict_treeboost_dataset(model, test).tobytes() == expected.tobytes()
        singles = [predict_treeboost_dataset(model, test.take([i])) for i in range(len(test))]
        assert np.concatenate(singles).tobytes() == expected.tobytes()
        if cells < _PREDICT_CELLS:
            return
        # More stages than the default budget has cells: the working set still
        # depends on the cells only.
        repeats = _PREDICT_CELLS // len(model.trees) + 1
        doc = treeboost_to_json(model)
        long = treeboost_from_json({**doc, "trees": doc["trees"] * repeats})
        assert len(long.trees) == len(model.trees) * repeats
        expected = whole_forest_prediction(long, test)
        got, peak = traced(predict_treeboost_dataset, long, test)
        assert got.tobytes() == expected.tobytes()
        if cells == _PREDICT_CELLS:
            assert peak < 16 * 8 * _PREDICT_CELLS

    def test_pinned_fit_in_bounded_memory(self):
        # The 1000 stages' tables take 176 KB; as one node table they took about
        # 550 KB, and as one node-table object per stage 1416 KB, when the fit
        # peaked at 879 and 1557 KB.
        train, _ = split_holdout(piecewise_dataset(), BENCHMARK_TRAIN, seed=2014)
        model, peak = traced(fit_treeboost, train, TreeboostConfig(seed=2014))
        assert len(model.trees) == 1000
        assert peak < 1152 * 1024

    def test_pinned_model_reads_in_bounded_memory(self):
        # Read into one node table the pinned model's document peaked at 640 KB,
        # and into one node-table object per stage at 1222 KB.
        train, _ = split_holdout(piecewise_dataset(), BENCHMARK_TRAIN, seed=2014)
        model = fit_treeboost(train, TreeboostConfig(seed=2014))
        doc = json.loads(json.dumps(treeboost_to_json(model)))
        restored, peak = traced(treeboost_from_json, doc)
        assert treeboost_to_json(restored) == doc
        assert peak < 800 * 1024

    @pytest.mark.parametrize("seed", sorted(TREEBOOST_REFERENCE["fits"]))
    def test_fit_matches_recorded_reference(self, seed):
        reference = TREEBOOST_REFERENCE["fits"][seed]
        train, test = split_holdout(piecewise_dataset(), BENCHMARK_TRAIN, int(seed))
        model = fit_treeboost(train, TreeboostConfig(seed=int(seed)))
        text = json.dumps(treeboost_to_json(model), indent=2, sort_keys=True) + "\n"
        trace = np.array(model.loss_trace).tobytes()
        assert len(model.trees) == 1000
        assert [float(v).hex() for v in predict_treeboost_dataset(model, test)] == (
            reference["test_predictions"]
        )
        assert hashlib.sha256(trace).hexdigest() == reference["loss_trace_sha256"]
        assert hashlib.sha256(text.encode()).hexdigest() == reference["model_json_sha256"]


class TestTTail:
    def test_matches_scipy_stdtr(self):
        # scipy itself loses digits near t = 0 for small dof, so the grid starts at 0.01.
        smallest = 1.0
        for dof in (1, 2, 3, 5, 10, 55, 300, 1496):
            for t in np.geomspace(1e-2, 1e5, 120):
                reference = 2.0 * stdtr(dof, -t)
                got = t_two_sided_p(float(t), dof)
                if reference == 0.0:
                    assert got < 1e-300
                    continue
                smallest = min(smallest, reference)
                assert got == pytest.approx(reference, rel=1e-10, abs=0.0), (dof, t)
        assert smallest < 1e-200

    def test_edges(self):
        assert t_two_sided_p(0.0, 4) == 1.0
        assert t_two_sided_p(1e-300, 4) == 1.0
        assert t_two_sided_p(math.inf, 4) == 0.0
        assert t_two_sided_p(-2.5, 7) == t_two_sided_p(2.5, 7)
        assert math.isnan(t_two_sided_p(math.nan, 4))


class TestMlr:
    def test_recovers_exact_log_linear_coefficients(self):
        model = fit_mlr(log_linear_dataset())
        assert model.coefficients["intercept"] == pytest.approx(1.2, abs=1e-6)
        assert model.coefficients["ln_size"] == pytest.approx(0.9, abs=1e-6)
        assert model.coefficients["productivity"] == pytest.approx(0.015, abs=1e-6)
        assert model.coefficients["complexity"] == pytest.approx(0.08, abs=1e-6)
        assert model.adjusted_r2 == pytest.approx(1.0, abs=1e-9)

    def test_prediction_is_exp_of_score(self):
        model = fit_mlr(log_linear_dataset())
        project = Dataset(("q",), [[180.0, 22.0, 4.0]], [1.0])
        score = (
            model.coefficients["intercept"]
            + model.coefficients["ln_size"] * math.log(180.0)
            + model.coefficients["productivity"] * 22.0
            + model.coefficients["complexity"] * 4.0
        )
        assert predict_mlr_dataset(model, project)[0] == math.exp(score)

    def test_overflowing_score_predicts_inf(self):
        model = MlrModel(dict(zip(MLR_TERMS, (0.0, 1000.0, 0.0, 0.0))), 0.0, {}, {}, {})
        probe = Dataset(("q", "r"), [[50.0, 15.0, 2.0], [1.0, 15.0, 2.0]], [1.0, 1.0])
        assert predict_mlr_dataset(model, probe).tolist() == [math.inf, 1.0]

    def test_intercept_only_model(self):
        model = MlrModel(dict(zip(MLR_TERMS, (1.8, 0.0, 0.0, 0.0))), 0.0, {}, {}, {})
        probe = Dataset(("q",), [[50.0, 15.0, 2.0]], [1.0])
        assert predict_mlr_dataset(model, probe)[0] == 6.0496474644129465

    def test_hand_coefficients_evaluated(self):
        model = MlrModel(dict(zip(MLR_TERMS, (1.8, 1.24, 0.007, 0.12))), 0.0, {}, {}, {})
        probe = Dataset(("q",), [[100.0, 10.0, 2.0]], [1.0])
        assert predict_mlr_dataset(model, probe)[0] == pytest.approx(2490.929045779924)

    def test_residuals_orthogonal_to_design(self):
        data = log_linear_dataset(noise_sd=0.3)
        model = fit_mlr(data)
        features = data.features
        x = np.column_stack(
            [np.ones(len(data)), np.log(features[:, 0]), features[:, 1], features[:, 2]]
        )
        beta = np.array([model.coefficients[name] for name in MLR_TERMS])
        residuals = np.log(data.efforts) - x @ beta
        assert_allclose(x.T @ residuals, 0.0, atol=1e-8)

    def test_vif_near_one_for_independent_predictors(self):
        model = fit_mlr(log_linear_dataset(n=1000, seed=4, noise_sd=0.2))
        assert all(v < 1.1 for v in model.vif.values())

    def test_collinear_predictors_rejected(self):
        rng = np.random.default_rng(5)
        complexity = rng.integers(1, 6, 30).astype(float)
        size = rng.uniform(50.0, 400.0, 30)
        effort = rng.uniform(100.0, 5000.0, 30)
        data = Dataset(
            tuple(f"c{i}" for i in range(30)),
            np.column_stack([size, 2.0 * complexity, complexity]),
            effort,
        )
        with pytest.raises(ValueError, match="collinear"):
            fit_mlr(data)

    def test_p_values_flag_the_null_predictor(self):
        data = log_linear_dataset(n=400, seed=1, noise_sd=0.2, coef_complexity=0.0)
        model = fit_mlr(data)
        assert model.p_values["ln_size"] < 1e-10
        assert model.p_values["productivity"] < 1e-10
        assert model.p_values["complexity"] > 0.05
        doc = mlr_to_json(model)
        assert doc["diagnostics"]["significant"]["ln_size"] is True
        assert doc["diagnostics"]["significant"]["complexity"] is False
        assert doc["diagnostics"]["vif_alarms"] == {
            "ln_size": False, "productivity": False, "complexity": False,
        }

    def test_too_few_projects(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_mlr(log_linear_dataset().take(range(4)))

    def test_json_round_trip(self):
        data = log_linear_dataset(noise_sd=0.25)
        model = fit_mlr(data)
        restored = mlr_from_json(json.loads(json.dumps(mlr_to_json(model))))
        assert restored == model
        assert_allclose(predict_mlr_dataset(restored, data), predict_mlr_dataset(model, data), rtol=0)

    def test_from_json_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="expected model kind 'mlr'"):
            mlr_from_json({"kind": "fmt"})
