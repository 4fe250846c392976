import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fmtree import mtree
from fmtree.baselines import _leaves, treeboost_from_json, treeboost_to_json
from fmtree.mtree import (
    _BLOCK_CELLS,
    ModelTree,
    TreeConfig,
    _best_splits,
    _mean,
    _popsd,
    build_tree,
    predict_tree,
    prune,
    tree_from_json,
    tree_to_json,
)


def predict_one(tree, routing_row, regression_row, config=TreeConfig()):
    """predict_tree on a batch of one row."""
    return float(predict_tree(tree, [routing_row], [regression_row], config)[0])


def pop_sd(values):
    values = list(values)
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def presorted(routing):
    """Each routing column's stable argsort, one row per column: a node's `order`."""
    return np.argsort(routing.T, axis=1, kind="stable")


def best_split(routing, y, min_instances):
    """_best_splits' (gain, feature, threshold) for one node of every row; gain -inf if none."""
    (found,) = _best_splits(routing, y, [(presorted(routing), float(np.std(y)))], min_instances)
    return found


def oracle_best_split(routing, y, min_instances):
    """Plain-loop SDR search over midpoints of distinct consecutive values."""
    n = len(y)
    parent = pop_sd(y)
    best = None
    for f in range(routing.shape[1]):
        vals = sorted(set(routing[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            left = [y[i] for i in range(n) if routing[i, f] <= thr]
            right = [y[i] for i in range(n) if routing[i, f] > thr]
            if len(left) < min_instances or len(right) < min_instances:
                continue
            sdr = parent - len(left) / n * pop_sd(left) - len(right) / n * pop_sd(right)
            if best is None or sdr > best[0]:
                best = (sdr, f, thr)
    return best


class TestConfig:
    def test_defaults(self):
        config = TreeConfig()
        assert config.min_instances == 4
        assert config.smoothing_k == 15.0
        assert config.pruning_factor == 1.0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"min_instances": 1}, "min_instances"),
            ({"sd_fraction": 0.0}, "sd_fraction"),
            ({"sd_fraction": 1.0}, "sd_fraction"),
            ({"smoothing_k": -1.0}, "smoothing_k"),
            ({"pruning_factor": -0.5}, "pruning_factor"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TreeConfig(**kwargs)


class TestBestSplit:
    def test_step_function_hand_example(self):
        # y jumps from 1 to 9 between x=3 and x=4; all five candidate cuts:
        #   1.5 -> 4 - (5/6)*sd([1,1,9,9,9])   = 0.734
        #   2.5 -> 4 - (4/6)*sd([1,9,9,9])     = 1.691
        #   3.5 -> 4 - 0 - 0                   = 4.000
        #   4.5, 5.5 mirror 2.5, 1.5
        routing = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        sdr, feature, threshold = best_split(routing, y, 1)
        assert feature == 0
        assert threshold == 3.5
        assert_allclose(sdr, 4.0)

    def test_threshold_tie_takes_lowest(self):
        routing = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        # cuts at 1.5 and 3.5 give identical SDR by symmetry
        sdr, feature, threshold = best_split(routing, y, 1)
        assert threshold == 1.5
        assert_allclose(sdr, 0.5 - 0.75 * pop_sd([1.0, 1.0, 0.0]))

    def test_feature_tie_takes_lowest(self):
        column = np.arange(1.0, 7.0)
        routing = np.column_stack([column, column])
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        _, feature, threshold = best_split(routing, y, 1)
        assert feature == 0
        assert threshold == 3.5

    def test_matches_oracle_on_random_data(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            routing = rng.uniform(0.0, 10.0, size=(30, 3))
            y = rng.uniform(0.0, 100.0, size=30)
            got = best_split(routing, y, 3)
            want = oracle_best_split(routing, y, 3)
            assert got[1] == want[1]
            assert_allclose(got[2], want[2])
            assert_allclose(got[0], want[0], atol=1e-9)

    def test_respects_min_instances(self):
        # The best cut, at 2.5, leaves 2 rows on the left; min_instances=4 allows only 4.5.
        routing = np.arange(1.0, 9.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0])
        assert best_split(routing, y, 1)[2] == 2.5
        assert best_split(routing, y, 4)[2] == 4.5

    def test_no_cut_between_equal_values(self):
        routing = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert best_split(routing, y, 1)[0] == -np.inf

    @pytest.mark.parametrize(
        "a, b", [(1 - 2**-53, 1.0), (1.6e308, 1.7e308), (-1.7e308, -1.6e308)]
    )
    def test_threshold_whose_midpoint_is_not_below_b_is_a(self, a, b):
        # (a + b) / 2 rounds to b, overflows to inf or overflows to -inf.
        routing = np.repeat([a, b], 3)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert best_split(routing, np.repeat([0.0, 1.0], 3), 1)[1:] == (0, a)


class TestBuildTree:
    def test_constant_targets_single_leaf(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, size=(20, 2))
        y = np.full(20, 7.5)
        tree = build_tree(x, x, y, TreeConfig(min_instances=2))
        assert tree.leaf_count() == 1
        assert_allclose(predict_tree(tree, x, x), y, atol=1e-9)

    def test_step_function_exact_leaves(self):
        x = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        config = TreeConfig(min_instances=2, smoothing_k=0.0)
        tree = build_tree(x, x, y, config)
        assert tree.leaf_count() == 2
        assert tree.threshold[0] == 3.5
        assert predict_one(tree, [2.0], [2.0], config) == pytest.approx(1.0)
        assert predict_one(tree, [5.0], [5.0], config) == pytest.approx(9.0)

    def test_split_survives_pruning_when_signal_is_real(self):
        x = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        config = TreeConfig(min_instances=2, smoothing_k=0.0)
        pruned = prune(build_tree(x, x, y, config), x, x, y, config)
        assert pruned.leaf_count() == 2

    def test_separate_routing_and_regression_spaces(self):
        rng = np.random.default_rng(3)
        routing = rng.uniform(0.0, 1.0, size=(40, 3))
        regression = rng.uniform(0.0, 1.0, size=(40, 2))
        y = 100.0 * (routing[:, 1] > 0.5) + regression[:, 0]
        tree = build_tree(routing, regression, y, TreeConfig(min_instances=2))
        assert tree.routing_dim == 3
        assert tree.regression_dim == 2

        def check(node):
            assert len(node["model"]["coefficients"]) == 2
            if "feature" in node:
                check(node["left"])
                check(node["right"])

        check(tree_to_json(tree)["root"])

    def test_rejects_bad_inputs(self):
        x = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        with pytest.raises(ValueError, match="2-D"):
            build_tree(x.ravel(), x, y)
        with pytest.raises(ValueError, match="equal row counts"):
            build_tree(x, x[:-1], y)
        with pytest.raises(ValueError, match="one value per routing row"):
            build_tree(x, x, y.reshape(-1, 1))
        with pytest.raises(ValueError, match="one value per routing row"):
            build_tree(x, x, y[:-1])
        with pytest.raises(ValueError, match="non-finite targets"):
            build_tree(x, x, np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0]))
        with pytest.raises(ValueError, match="non-finite features"):
            build_tree(np.array([[np.inf]] * 6), x, y)
        with pytest.raises(ValueError, match="at least min_instances"):
            build_tree(x[:3], x[:3], y[:3])
        with pytest.raises(ValueError, match="normal equations overflow"):
            build_tree(x, x * 1e300, y)

    def test_targets_whose_squares_overflow_are_refused(self):
        x = np.arange(1.0, 13.0).reshape(-1, 1)
        y = np.where(x[:, 0] <= 6.0, 1.0, 9.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="targets' sum of squares overflows"):
                build_tree(x, x, y * 1e200)
            # Squares of 9e150 and their sum still fit a float: the step is found.
            assert build_tree(x, x, y * 1e150).leaf_count() == 2

    @pytest.mark.parametrize("a, b", [(1 - 2**-53, 1.0), (1.6e308, 1.7e308)])
    def test_cut_whose_midpoint_is_not_below_b_parts_the_rows(self, monkeypatch, a, b):
        # A threshold of b (or inf) would send all twelve rows left, and the
        # same split would recur under the left child at every level.
        levels = []

        def counted(*args):
            levels.append(args)
            assert len(levels) < 10, "build_tree keeps growing"
            return _best_splits(*args)

        monkeypatch.setattr(mtree, "_best_splits", counted)
        routing = np.repeat([a, b], 6)[:, None]
        tree = build_tree(routing, np.zeros((12, 0)), np.arange(12.0), TreeConfig(min_instances=2))
        assert tree.threshold[0] == a
        assert tree.count.tolist() == [12, 6, 6]

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 10.0, size=(60, 2))
        y = 3.0 * x[:, 0] + rng.normal(0.0, 1.0, size=60)
        first = tree_to_json(build_tree(x, x, y))
        second = tree_to_json(build_tree(x, x, y))
        assert first == second


class TestPrune:
    def test_linear_data_collapses_to_one_leaf(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 10.0, size=(40, 2))
        y = 3.0 + 2.0 * x[:, 0] - 1.0 * x[:, 1]
        config = TreeConfig(min_instances=2, smoothing_k=0.0)
        tree = prune(build_tree(x, x, y, config), x, x, y, config)
        assert tree.leaf_count() == 1
        assert_allclose(predict_tree(tree, x, x, config), y, rtol=1e-6)

    def test_never_grows_and_survivors_beat_their_node_model(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0.0, 10.0, size=(80, 2))
            y = np.where(x[:, 0] <= 5.0, 10.0 * x[:, 0], 80.0 - 4.0 * x[:, 0])
            y = y + rng.normal(0.0, 2.0, size=80)
            config = TreeConfig(min_instances=2)
            raw = build_tree(x, x, y, config)
            pruned = prune(raw, x, x, y, config)
            assert pruned.leaf_count() <= raw.leaf_count()
            self.assert_no_prunable_node_left(pruned, (x, x, y), config)

    def test_rows_on_a_threshold_go_left_as_in_growth(self):
        # The midpoint of two adjacent floats rounds onto the lower one, so the
        # lower rows sit on the threshold, and growth sent them left.
        low = 1.0
        r = np.repeat([low, np.nextafter(low, 2.0)], 4).reshape(-1, 1)
        g = np.arange(8.0).reshape(-1, 1)
        y = np.repeat([1.0, 9.0], 4)
        config = TreeConfig(min_instances=2)
        tree = build_tree(r, g, y, config)
        assert tree.threshold[0] == low
        assert tree.count[tree.left[0]] == 4
        assert prune(tree, r, g, y, config).leaf_count() == 2

    @staticmethod
    def assert_no_prunable_node_left(tree, training, config):
        r, g, y = training
        v_model = tree.regression_dim + 1
        near_zero = 1e-5 * pop_sd(y)

        def factor(n, v):
            if n <= v:
                return 10.0
            return (n + config.pruning_factor * v) / (n - v)

        def walk(node, idx):
            if "feature" not in node:
                return v_model
            mask = r[idx, node["feature"]] <= node["threshold"]
            v = walk(node["left"], idx[mask]) + walk(node["right"], idx[~mask]) + 1
            errors = [abs(y[i] - reference_leaf_value(node, r[i], g[i])) for i in idx]
            adjusted_subtree = (sum(errors) / len(idx)) * factor(len(idx), v)
            adjusted_node = node["mae"] * factor(len(idx), v_model)
            assert adjusted_node > adjusted_subtree
            assert adjusted_node > near_zero
            return v

        walk(tree_to_json(tree)["root"], np.arange(len(y)))


def m5_node(intercept, count, **split):
    """A nested-doc M5 node with a constant model; `split` holds a split's four keys."""
    model = {"intercept": intercept, "coefficients": [0.0]}
    return {"count": count, "mae": 0.0, "model": model, **split}


def manual_two_level_tree():
    root = m5_node(
        20.0, 10, feature=0, threshold=0.5, left=m5_node(10.0, 4), right=m5_node(50.0, 6)
    )
    return tree_from_json({"routing_dim": 1, "regression_dim": 1, "root": root})


class TestSmoothing:
    def test_blend_matches_hand_value(self):
        tree = manual_two_level_tree()
        got = predict_one(tree, [0.0], [0.0], TreeConfig(smoothing_k=15.0))
        assert got == pytest.approx((4 * 10.0 + 15 * 20.0) / 19.0)

    def test_zero_k_returns_raw_leaf(self):
        tree = manual_two_level_tree()
        assert predict_one(tree, [0.0], [0.0], TreeConfig(smoothing_k=0.0)) == 10.0
        assert predict_one(tree, [1.0], [0.0], TreeConfig(smoothing_k=0.0)) == 50.0

    def test_value_equal_to_threshold_routes_left(self):
        tree = manual_two_level_tree()
        config = TreeConfig(smoothing_k=0.0)
        assert predict_one(tree, [0.5], [0.0], config) == 10.0
        assert predict_one(tree, [0.5 + 1e-9], [0.0], config) == 50.0

    def test_three_level_blend(self):
        mid = m5_node(2.0, 5, feature=0, threshold=0.5, left=m5_node(1.0, 2), right=m5_node(9.0, 3))
        root = m5_node(3.0, 12, feature=1, threshold=0.5, left=mid, right=m5_node(0.0, 7))
        tree = tree_from_json({"routing_dim": 2, "regression_dim": 1, "root": root})
        # leaf 1 -> (2*1 + 15*2)/17 -> (5*(32/17) + 15*3)/20 = 925/340
        got = predict_one(tree, [0.0, 0.0], [0.0], TreeConfig(smoothing_k=15.0))
        assert got == pytest.approx(925.0 / 340.0)

    def test_dimension_mismatch(self):
        tree = manual_two_level_tree()
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_one(tree, [0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_one(tree, [0.0], [0.0, 1.0])

    def test_non_finite_features(self):
        tree = manual_two_level_tree()
        with pytest.raises(ValueError, match="non-finite features"):
            predict_one(tree, [np.nan], [0.0])
        with pytest.raises(ValueError, match="non-finite features"):
            predict_one(tree, [0.0], [np.inf])


def shifted_root_column(r, g, y):
    """The rows with the root's routing column moved down one row."""
    shifted = r.copy()
    shifted[:, 0] = np.roll(r[:, 0], 1)
    return shifted, g, y


@pytest.mark.parametrize("change, message", [
    (lambda r, g, y: (r[:, :1], g, y), "dimension mismatch"),
    (lambda r, g, y: (r, np.hstack([g, g]), y), "dimension mismatch"),
    (lambda r, g, y: (r, g[:-1], y), "equal row counts"),
    (lambda r, g, y: (r, g, y[:-1]), "one value per routing row"),
    (lambda r, g, y: (r, g, np.where(y == y.max(), np.nan, y)), "non-finite targets"),
    (lambda r, g, y: (np.where(r == r.max(), np.inf, r), g, y), "non-finite features"),
    (lambda r, g, y: (r, np.where(g == g.max(), np.nan, g), y), "non-finite features"),
    (lambda r, g, y: (r[1:], g[1:], y[1:]), "node 0 receives 119 rows but was grown on 120"),
    (shifted_root_column, "not the tree's training rows"),
], ids=["routing-width", "regression-width", "regression-rows", "target-rows",
        "non-finite-target", "non-finite-routing", "non-finite-regression", "row-dropped",
        "column-shifted"])
def test_prune_rejects_rows_that_are_not_the_training_rows(change, message):
    r, g, y = random_tree_data(3, 120, 2, 1, 1.0)
    config = TreeConfig(min_instances=2)
    tree = build_tree(r, g, y, config)
    assert tree.feature[0] == 0
    with pytest.raises(ValueError, match=message):
        prune(tree, *change(r, g, y), config)


class TestSerialization:
    def build_sample(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 10.0, size=(60, 2))
        y = np.where(x[:, 0] <= 5.0, 10.0 * x[:, 0], 80.0 - 4.0 * x[:, 0])
        y = y + rng.normal(0.0, 1.0, size=60)
        config = TreeConfig(min_instances=2)
        return prune(build_tree(x, x, y, config), x, x, y, config), x

    def test_round_trip_predictions_identical(self):
        tree, x = self.build_sample()
        doc = json.loads(json.dumps(tree_to_json(tree)))
        restored = tree_from_json(doc)
        assert restored.routing_dim == tree.routing_dim
        assert restored.regression_dim == tree.regression_dim
        assert_allclose(predict_tree(restored, x, x), predict_tree(tree, x, x), rtol=0)


def route(node, routing_row):
    """The nodes of a nested tree doc (either kind) from `node` down to routing_row's leaf."""
    path = [node]
    while "feature" in path[-1]:
        node = path[-1]
        goes_left = routing_row[node["feature"]] <= node["threshold"]
        path.append(node["left"] if goes_left else node["right"])
    return path


def model_value(node, regression_row):
    """A doc node's model on one row, its terms added in column order."""
    total = 0.0
    for coefficient, x in zip(node["model"]["coefficients"], regression_row):
        total += coefficient * x
    return node["model"]["intercept"] + total


def reference_leaf_value(node, routing_row, regression_row):
    return model_value(route(node, routing_row)[-1], regression_row)


def reference_prune(tree, training, config):
    """The per-row pruning pass that preceded the batch one, kept as the oracle.

    It walks the nested doc of `tree`, routing the (routing, regression,
    targets) rows of `training`, and returns the pruned tree's doc.
    """
    doc = tree_to_json(tree)
    r, g, y = training
    v_model = tree.regression_dim + 1
    near_zero = 1e-5 * float(np.std(y))

    def factor(n, v):
        if n <= v:
            return 10.0
        return (n + config.pruning_factor * v) / (n - v)

    def walk(node, idx):
        own = {key: node[key] for key in ("count", "mae", "model")}
        if "feature" not in node:
            return own, v_model
        mask = r[idx, node["feature"]] <= node["threshold"]
        left, v_left = walk(node["left"], idx[mask])
        right, v_right = walk(node["right"], idx[~mask])
        v_subtree = v_left + v_right + 1
        rebuilt = dict(
            own, feature=node["feature"], threshold=node["threshold"], left=left, right=right
        )
        predictions = np.array([reference_leaf_value(rebuilt, r[i], g[i]) for i in idx])
        subtree_err = float(np.mean(np.abs(y[idx] - predictions)))
        adjusted_node = node["mae"] * factor(len(idx), v_model)
        adjusted_subtree = subtree_err * factor(len(idx), v_subtree)
        if adjusted_node <= adjusted_subtree or adjusted_node <= near_zero:
            return own, v_model
        return rebuilt, v_subtree

    root, _ = walk(doc["root"], np.arange(len(y)))
    return dict(doc, root=root)


def reference_smooth_predict(doc, routing_row, regression_row, config):
    """The per-row smoothing walk over a nested tree doc, kept as the oracle."""
    path = route(doc["root"], routing_row)
    p = model_value(path[-1], regression_row)
    for parent, child in zip(path[-2::-1], path[::-1]):
        p = (child["count"] * p + config.smoothing_k * model_value(parent, regression_row)) / (
            child["count"] + config.smoothing_k
        )
    return p


def random_tree_data(seed, n, routing_dim, regression_dim, noise):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 10.0, size=(n, routing_dim))
    g = rng.uniform(0.0, 10.0, size=(n, regression_dim))
    y = np.where(r[:, 0] <= 5.0, 3.0 * g[:, 0] + 7.0, 40.0 - 2.0 * g[:, 0])
    return r, g, y + noise * rng.normal(size=n)


tree_data = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(8, 160),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.01, 1.0, 10.0]),
)


class TestBatchPaths:
    @settings(max_examples=60, deadline=None)
    @given(tree_data, st.integers(2, 6), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def test_prune_matches_per_row_reference(self, data, min_instances, pruning_factor):
        r, g, y = random_tree_data(*data)
        config = TreeConfig(min_instances=min_instances, pruning_factor=pruning_factor)
        tree = build_tree(r, g, y, config)
        got = json.dumps(tree_to_json(prune(tree, r, g, y, config)), sort_keys=True)
        assert got == json.dumps(reference_prune(tree, (r, g, y), config), sort_keys=True)

    @settings(max_examples=40, deadline=None)
    @given(tree_data, st.sampled_from([0.0, 1.0, 15.0]))
    def test_predict_matches_per_row_reference(self, data, smoothing_k):
        r, g, y = random_tree_data(*data)
        config = TreeConfig(min_instances=2, smoothing_k=smoothing_k)
        tree = prune(build_tree(r, g, y, config), r, g, y, config)
        got = predict_tree(tree, r, g, config)
        doc = tree_to_json(tree)
        want = [reference_smooth_predict(doc, r[i], g[i], config) for i in range(len(r))]
        assert got.tolist() == want
        # a row's prediction does not depend on the rows it is batched with
        order = np.random.default_rng(data[0]).permutation(len(r))
        assert np.array_equal(predict_tree(tree, r[order], g[order], config), got[order])
        assert [predict_one(tree, r[i], g[i], config) for i in range(3)] == list(got[:3])

    def test_empty_batch(self):
        tree = manual_two_level_tree()
        assert predict_tree(tree, np.empty((0, 1)), np.empty((0, 1))).shape == (0,)


def walk_to_leaf(tree, routing_row):
    """The leaf a ModelTree sends one row to, one node at a time from the root; <= goes left."""
    node = 0
    while tree.feature[node] >= 0:
        goes_left = routing_row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if goes_left else tree.right[node]
    return int(node)


def node_row(feature, threshold, left, right):
    """A from_rows node row with a constant model; a leaf's feature and links are -1."""
    return [feature, threshold, left, right, 1, 0.0, [0.0, 0.0]]


LEAF_ROW = node_row(-1, 0.0, -1, -1)


class TestApply:
    @settings(max_examples=40, deadline=None)
    @given(tree_data, st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_matches_a_per_row_walk(self, data, min_instances, seed):
        r, g, y = random_tree_data(*data)
        tree = build_tree(r, g, y, TreeConfig(min_instances=min_instances))
        # Fresh rows besides the training ones, about half their cells on a threshold.
        rng = np.random.default_rng(seed)
        fresh = rng.uniform(0.0, 10.0, size=r.shape)
        thresholds = tree.threshold[tree.feature >= 0]
        if len(thresholds):
            on = rng.random(r.shape) < 0.5
            fresh[on] = rng.choice(thresholds, size=np.count_nonzero(on))
        x = np.vstack([r, fresh])
        got = tree.apply(x)
        assert got.dtype == np.intp
        assert got.tolist() == [walk_to_leaf(tree, row) for row in x]

    def test_single_leaf_sends_every_row_to_the_root(self):
        tree = ModelTree.from_rows([LEAF_ROW], 2, 1)
        x = np.random.default_rng(0).uniform(size=(5, 2))
        assert tree.apply(x).tolist() == [0] * 5

    def test_unbalanced_chain(self):
        # Each split's left child is a leaf and its right child the next split.
        rows = [
            node_row(0, 1.0, 1, 2), LEAF_ROW, node_row(1, 2.0, 3, 4), LEAF_ROW,
            node_row(0, 3.0, 5, 6), LEAF_ROW, LEAF_ROW,
        ]
        tree = ModelTree.from_rows(rows, 2, 1)
        x = np.array([[0.5, 9.0], [1.5, 1.5], [2.5, 2.5], [3.5, 2.5], [0.5, 0.5]])
        assert tree.apply(x).tolist() == [1, 3, 5, 6, 1]
        with pytest.raises(IndexError):
            tree.apply(np.full((2, 1), 5.0))

    def test_rows_on_a_threshold_go_left(self):
        tree = ModelTree.from_rows(
            [node_row(1, 0.5, 1, 2), node_row(0, -2.0, 3, 4), LEAF_ROW, LEAF_ROW, LEAF_ROW], 2, 1
        )
        x = np.array([[-2.0, 0.5], [-2.0, 0.6], [np.nextafter(-2.0, 0.0), 0.5], [9.0, -1.0]])
        assert tree.apply(x).tolist() == [3, 2, 4, 4]


def reference_fit_linear(g, y, jittered):
    """The per-node fit that preceded the batched one, kept as the oracle.

    Appends to `jittered` whether the node's diagonal was jittered.
    """
    x = np.hstack([np.ones((len(y), 1)), g])
    a = x.T @ x
    b = x.T @ y
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError:
        cond = np.inf
    jittered.append(not np.isfinite(cond) or cond > 1e12)
    if jittered[-1]:
        a = a + 1e-8 * np.eye(a.shape[0])
    beta = np.linalg.solve(a, b)
    mae = float(np.mean(np.abs(y - (float(beta[0]) + g @ beta[1:]))))
    return beta, mae


def reference_best_split(routing, y, min_instances, parent_sd):
    """The split search that sorted each column at each node, kept as the oracle."""
    n = len(y)
    cuts = np.arange(min_instances, n - min_instances + 1)
    if cuts.size == 0:
        return None
    best = None
    for f in range(routing.shape[1]):
        values = routing[:, f]
        order = np.argsort(values, kind="stable")
        vs = values[order]
        ys = y[order]
        cum = np.cumsum(ys)
        cum2 = np.cumsum(ys * ys)
        total, total2 = cum[-1], cum2[-1]
        nl = cuts.astype(float)
        nr = n - nl
        sl, sl2 = cum[cuts - 1], cum2[cuts - 1]
        var_l = np.maximum(sl2 / nl - (sl / nl) ** 2, 0.0)
        var_r = np.maximum((total2 - sl2) / nr - ((total - sl) / nr) ** 2, 0.0)
        sdr = parent_sd - (nl / n) * np.sqrt(var_l) - (nr / n) * np.sqrt(var_r)
        sdr[vs[cuts] == vs[cuts - 1]] = -np.inf
        j = int(np.argmax(sdr))
        if not np.isfinite(sdr[j]):
            continue
        if best is None or sdr[j] > best[0]:
            threshold = float((vs[cuts[j] - 1] + vs[cuts[j]]) / 2.0)
            best = (float(sdr[j]), f, threshold)
    return best


def reference_build_tree(r, g, y, config):
    """The growth that fitted each node as it went, kept as the oracle.

    Returns the tree and, per node, whether its model was jittered.
    """
    global_sd = float(np.std(y))
    rows, jittered = [], []

    def grow(idx):
        beta, mae = reference_fit_linear(g[idx], y[idx], jittered)
        node = len(rows)
        row = [-1, 0.0, -1, -1, len(idx), mae, beta]
        rows.append(row)
        node_sd = float(np.std(y[idx]))
        if (
            len(idx) < 2 * config.min_instances
            or node_sd == 0.0
            or node_sd < config.sd_fraction * global_sd
        ):
            return node
        found = reference_best_split(r[idx], y[idx], config.min_instances, node_sd)
        if found is None or found[0] <= 0.0:
            return node
        _, feature, threshold = found
        left_mask = r[idx, feature] <= threshold
        row[:4] = feature, threshold, grow(idx[left_mask]), grow(idx[~left_mask])
        return node

    grow(np.arange(len(y)))
    return ModelTree.from_rows(rows, r.shape[1], g.shape[1]), jittered


def tie_heavy_data(seed, n, routing_dim, regression_dim, levels, collinear):
    """Routing values on a grid of `levels` steps, integer regression columns and
    targets rounded to 0.1; `collinear` makes the last regression column
    dependent on the first (constant if it is the only one)."""
    rng = np.random.default_rng(seed)
    r = rng.integers(0, levels, size=(n, routing_dim)) / levels
    g = rng.integers(0, 10, size=(n, regression_dim)).astype(float)
    if collinear:
        g[:, -1] = 2.0 * g[:, 0] if regression_dim > 1 else 3.0
    y = np.where(r[:, 0] < 0.5, 3.0 * g[:, 0] + 7.0, 40.0 - 2.0 * g[:, 0])
    return r, g, np.round(y + rng.normal(0.0, 2.0, size=n), 1)


def tree_text(tree):
    """The tree's JSON, one value a line, so that pytest's diff of two trees stays quick."""
    return json.dumps(tree_to_json(tree), indent=1)


class TestGrowthMatchesReference:
    """Presorted growth with batched fits gives the trees of the per-node reference, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(8, 240),
        st.integers(1, 9),
        st.integers(1, 3),
        st.sampled_from([2, 5, 20, 1000]),
        st.booleans(),
        st.integers(2, 6),
    )
    def test_raw_and_pruned_trees_match(
        self, seed, n, routing_dim, regression_dim, levels, collinear, min_instances
    ):
        r, g, y = tie_heavy_data(seed, n, routing_dim, regression_dim, levels, collinear)
        config = TreeConfig(min_instances=min_instances)
        want, _ = reference_build_tree(r, g, y, config)
        got = build_tree(r, g, y, config)
        assert tree_text(got) == tree_text(want)
        assert tree_text(prune(got, r, g, y, config)) == tree_text(prune(want, r, g, y, config))

    def test_wide_lanes_sharing_a_block_and_jittered_models(self):
        r, g, y = tie_heavy_data(7, 3000, 4, 2, 50, collinear=True)
        # The root's four lanes of 3000 rows fill one block.
        assert r.shape[1] * len(y) <= _BLOCK_CELLS
        config = TreeConfig(min_instances=3)
        want, jittered = reference_build_tree(r, g, y, config)
        assert any(jittered)
        got = build_tree(r, g, y, config)
        assert tree_text(got) == tree_text(want)
        assert tree_text(prune(got, r, g, y, config)) == tree_text(prune(want, r, g, y, config))

    def test_levels_that_span_several_padded_blocks(self, monkeypatch):
        r, g, y = tie_heavy_data(11, 6000, 9, 2, 1000, collinear=False)
        config = TreeConfig(min_instances=3)
        want, _ = reference_build_tree(r, g, y, config)
        # The root's lanes are scanned two to a block, and the lanes of some
        # level below it already fill more than one padded block.
        assert 2 * len(y) <= _BLOCK_CELLS < 3 * len(y)
        assert any(
            len(widths) * max(widths) > _BLOCK_CELLS
            for depth, widths in lane_widths_by_depth(want).items() if depth > 0
        )
        blocks, scan = [], mtree._scan

        def spy(routing, targets, lanes, *rest):
            blocks.append(lanes.shape)
            return scan(routing, targets, lanes, *rest)

        monkeypatch.setattr(mtree, "_scan", spy)
        got = build_tree(r, g, y, config)
        assert all(c * w <= _BLOCK_CELLS or c == 1 for c, w in blocks)
        assert tree_text(got) == tree_text(want)
        assert tree_text(prune(got, r, g, y, config)) == tree_text(prune(want, r, g, y, config))


def lane_widths_by_depth(tree):
    """Depth -> the widths of the lanes of that depth's internal nodes of at most
    _BLOCK_CELLS / 2 rows, whose lanes may share a block: each such node gives
    one lane per routing column."""
    widths, stack = {}, [(0, 0)]
    while stack:
        node, depth = stack.pop()
        if tree.feature[node] >= 0:
            if 2 * tree.count[node] <= _BLOCK_CELLS:
                widths.setdefault(depth, []).extend([int(tree.count[node])] * tree.routing_dim)
            stack += (tree.left[node], depth + 1), (tree.right[node], depth + 1)
    return widths


class TestLanePacking:
    """_best_splits packs a level's lanes into blocks as documented, and each
    node's split is the one the per-node reference finds."""

    @pytest.mark.parametrize("d, widths, scans", [
        # 27 lanes, at most 16 of 1000 rows to a block: the boundary falls after
        # the second node's seventh lane, and the first node's lanes are padded.
        (9, (990, 1000, 1010), [(16, 1000, [*range(9), *range(7)]), (11, 1010, [7, 8, *range(9)])]),
        # A lane wider than _BLOCK_CELLS / 2 shares no block: it is scanned alone,
        # after a block of narrower ones.
        (1, (30, 500, 8200), [(2, 500, [0, 0]), (1, 8200, [0])]),
        # Lanes of 2100 rows share a block, with a narrower node's lanes padded to them.
        (3, (50, 2100), [(6, 2100, [0, 1, 2, 0, 1, 2])]),
    ], ids=["boundary-inside-a-node", "wide-lane-beside-narrow", "wide-node-in-one-block"])
    def test_blocks_and_splits_match_reference(self, monkeypatch, d, widths, scans):
        rng = np.random.default_rng(5)
        r = np.round(rng.uniform(size=(sum(widths) + 100, d)), 2)
        y = np.round(3.0 * r[:, 0] + rng.normal(size=len(r)), 1)
        row_sets = [np.sort(rng.choice(len(r), width, replace=False)) for width in widths]
        nodes = [
            (idx[np.argsort(r[idx].T, axis=1, kind="stable")], float(np.std(y[idx])))
            for idx in row_sets
        ]
        seen, scan = [], mtree._scan

        def spy(routing, targets, lanes, columns, *rest):
            seen.append((*lanes.shape, columns.tolist()))
            return scan(routing, targets, lanes, columns, *rest)

        monkeypatch.setattr(mtree, "_scan", spy)
        found = _best_splits(r, y, nodes, 3)
        assert seen == scans
        for split, idx, (_, sd) in zip(found, row_sets, nodes, strict=True):
            assert split == reference_best_split(r[idx], y[idx], 3, sd)


def renumbered(tree, seed):
    """A grown tree with its non-root nodes renumbered at random: child links
    and node fields follow the new numbers."""
    new = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(len(tree.feature) - 1)])
    old = np.argsort(new)  # the old number of each new node

    def links(child):
        return np.where(child >= 0, new[child], -1)

    return ModelTree(
        tree.feature[old], tree.threshold[old], links(tree.left[old]), links(tree.right[old]),
        tree.count[old], tree.mae[old], tree.beta[old], tree.routing_dim, tree.regression_dim,
    )


@settings(max_examples=30, deadline=None)
@given(tree_data, st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_outputs_do_not_depend_on_how_a_grown_tree_numbers_its_nodes(data, min_instances, seed):
    """A grown tree keeps growth order, with only the root fixed at 0.  It prunes
    from its training rows alone: renumbered, or read back from its JSON, it
    prunes to the same tree."""
    r, g, y = random_tree_data(*data)
    config = TreeConfig(min_instances=min_instances)
    tree = build_tree(r, g, y, config)
    moved = renumbered(tree, seed)
    restored = tree_from_json(json.loads(json.dumps(tree_to_json(tree))))
    assert tree_text(moved) == tree_text(restored) == tree_text(tree)
    want = tree_text(prune(tree, r, g, y, config))
    assert tree_text(prune(moved, r, g, y, config)) == want
    assert tree_text(prune(restored, r, g, y, config)) == want
    assert_same_bits(predict_tree(moved, r, g, config), predict_tree(tree, r, g, config))


def assert_same_bits(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def float_bits(value):
    return np.float64(value).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9) | st.integers(127, 129) | st.integers(1, 5000),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 1e6, 1e150]),
    st.booleans(),
)
def test_reductions_equal_numpys_bit_for_bit(n, seed, scale, repeated):
    """_popsd and _mean skip np.std's and np.mean's wrappers, not their pairwise sums.

    Lengths 1-9 and 127-129 sit at the edges of numpy's pairwise-sum blocks.
    """
    rng = np.random.default_rng(seed)
    if repeated:
        y = rng.choice(rng.normal(100.0, 1.0, size=3), size=n) * scale
    else:
        y = rng.normal(100.0, 1.0, size=n) * scale
    assert float_bits(_popsd(y)) == float_bits(np.std(y))
    assert float_bits(_mean(y)) == float_bits(np.mean(y))


def sample_tree_doc():
    tree = manual_two_level_tree()
    return json.loads(json.dumps(tree_to_json(tree)))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d.update(routing_dim="1"), "routing_dim must be an integer"),
        (lambda d: d.update(root=None), "tree.root must be a JSON object"),
        (lambda d: d["root"].update(count=0),
         r"tree.root.count must be an integer in \[1, 9007199254740992\)"),
        (lambda d: d["root"].update(mae=float("nan")), "tree.root.mae must be finite"),
        (lambda d: d["root"].pop("model"),
         r"tree.root must hold the keys \['count', 'feature', 'left', 'mae', 'model', 'right', "
         r"'threshold'\], got \['count', 'feature', 'left', 'mae', 'right', 'threshold'\]"),
        (lambda d: d["root"].update(model=None), "tree.root.model must be a JSON object, got None"),
        (lambda d: d["root"]["model"].update(coefficients=[1.0, 2.0]), "list of 1 numbers"),
        (lambda d: d["root"]["model"].update(intercept="3"), "intercept must be a number"),
        (lambda d: d["root"].update(feature=1), r"feature must be an integer in \[0, 1\)"),
        (lambda d: d["root"].pop("right"),
         r"tree.root must hold the keys \['count', 'feature', 'left', 'mae', 'model', 'right', "
         r"'threshold'\], got \['count', 'feature', 'left', 'mae', 'model', 'threshold'\]"),
        (lambda d: d["root"].update(threshold=float("inf")), "threshold must be finite"),
        (lambda d: d["root"]["left"].update(left={}),
         r"tree.root.left must hold the keys .* got \['count', 'left', 'mae', 'model'\]"),
        (lambda d: d["root"].update(bogus=1), r"tree.root must hold the keys .* got \['bogus', "),
        (lambda d: d["root"]["right"].update(bogus=None),
         r"tree.root.right must hold the keys \['count', 'mae', 'model'\], "
         r"got \['bogus', 'count', 'mae', 'model'\]"),
    ],
)
def test_from_json_rejects_malformed_trees(change, message):
    doc = sample_tree_doc()
    change(doc)
    with pytest.raises(ValueError, match=message):
        tree_from_json(doc)


# Thresholds and routing values on a half-unit grid, so rows often sit exactly on a threshold.
half_units = st.integers(-10, 10).map(lambda v: v / 2.0)
small = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def m5_tree_docs(draw):
    routing_dim = draw(st.integers(1, 3))
    regression_dim = draw(st.integers(0, 2))
    own = st.fixed_dictionaries(
        {
            "count": st.integers(1, 50),
            "mae": small,
            "model": st.fixed_dictionaries(
                {
                    "intercept": small,
                    "coefficients": st.lists(
                        small, min_size=regression_dim, max_size=regression_dim
                    ),
                }
            ),
        }
    )

    def splits(children):
        return st.builds(
            lambda node, feature, threshold, left, right: dict(
                node, feature=feature, threshold=threshold, left=left, right=right
            ),
            own,
            st.integers(0, routing_dim - 1),
            half_units,
            children,
            children,
        )

    root = draw(st.recursive(own, splits, max_leaves=10))
    return {"routing_dim": routing_dim, "regression_dim": regression_dim, "root": root}


stage_docs = st.recursive(
    st.builds(lambda value: {"value": value}, small),
    lambda children: st.builds(
        lambda feature, threshold, left, right: {
            "feature": feature, "threshold": threshold, "left": left, "right": right
        },
        st.integers(0, 2),
        half_units,
        children,
        children,
    ),
    max_leaves=10,
)


def doc_depth(node):
    """The depth of a nested tree doc's deepest leaf."""
    return 1 + max(doc_depth(node["left"]), doc_depth(node["right"])) if "feature" in node else 0


class TestCodecProperties:
    @settings(max_examples=80, deadline=None)
    @given(m5_tree_docs(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 15.0]))
    def test_m5_docs_round_trip_and_predict_like_the_doc(self, doc, seed, smoothing_k):
        tree = tree_from_json(doc)
        assert json.dumps(tree_to_json(tree), sort_keys=True) == json.dumps(doc, sort_keys=True)
        rng = np.random.default_rng(seed)
        r = rng.integers(-12, 13, size=(16, doc["routing_dim"])) / 2.0
        g = rng.uniform(-10.0, 10.0, size=(16, doc["regression_dim"]))
        config = TreeConfig(smoothing_k=smoothing_k)
        want = [reference_smooth_predict(doc, r[i], g[i], config) for i in range(len(r))]
        assert predict_tree(tree, r, g, config).tolist() == want

    @settings(max_examples=80, deadline=None)
    @given(st.lists(stage_docs, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
    def test_stage_docs_round_trip_and_predict_like_the_doc(self, trees, seed):
        doc = {"kind": "treeboost", "f0": 1.0, "shrinkage": 0.5, "trees": trees}
        model = treeboost_from_json(doc)
        got = treeboost_to_json(model)
        assert json.dumps(got, sort_keys=True) == json.dumps(doc, sort_keys=True)
        x = np.random.default_rng(seed).integers(-12, 13, size=(16, 3)) / 2.0
        values = model.value.ravel()[_leaves(x, model.feature, model.threshold)]
        for got, stage_doc in zip(values, trees):
            assert got.tolist() == [route(stage_doc, row)[-1]["value"] for row in x]

    @settings(max_examples=80, deadline=None)
    @given(stage_docs, st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_a_shallow_leaf_in_a_deeper_model_routes_every_row_to_its_value(
        self, stage_doc, extra, seed
    ):
        # A second stage, a chain, makes the model deeper than stage_doc.
        depth = doc_depth(stage_doc) + extra
        deep = {"value": 0.0}
        for _ in range(depth):
            deep = {"feature": 1, "threshold": 0.0, "left": deep, "right": {"value": 1.0}}
        model = treeboost_from_json(
            {"kind": "treeboost", "f0": 1.0, "shrinkage": 0.5, "trees": [stage_doc, deep]}
        )
        assert model.value.shape == (2, 2**depth)
        x = np.random.default_rng(seed).integers(-12, 13, size=(64, 3)) / 2.0
        leaves = _leaves(x, model.feature[:1], model.threshold[:1])[0]
        for row, leaf in zip(x, leaves.tolist()):
            node, slot = stage_doc, 0
            while "feature" in node:
                right = bool(row[node["feature"]] > node["threshold"])
                node, slot = node["right" if right else "left"], 2 * slot + 1 + right
            assert model.value[0, leaf] == node["value"]
            # The row ends at the leftmost leaf under its doc leaf's slot.
            below = depth - ((slot + 1).bit_length() - 1)
            assert leaf == ((slot + 1) << below) - 2**depth
