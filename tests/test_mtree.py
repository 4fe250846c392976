import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fmtree.mtree import (
    LinearModel,
    ModelTree,
    Node,
    TreeConfig,
    _best_split,
    build_tree,
    predict_tree,
    prune,
    render_tree,
    smooth_predict,
    tree_from_json,
    tree_to_json,
)


def pop_sd(values):
    values = list(values)
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


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
        sdr, feature, threshold = _best_split(routing, y, 1)
        assert feature == 0
        assert threshold == 3.5
        assert_allclose(sdr, 4.0)

    def test_threshold_tie_takes_lowest(self):
        routing = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        # cuts at 1.5 and 3.5 give identical SDR by symmetry
        sdr, feature, threshold = _best_split(routing, y, 1)
        assert threshold == 1.5
        assert_allclose(sdr, 0.5 - 0.75 * pop_sd([1.0, 1.0, 0.0]))

    def test_feature_tie_takes_lowest(self):
        column = np.arange(1.0, 7.0)
        routing = np.column_stack([column, column])
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        _, feature, threshold = _best_split(routing, y, 1)
        assert feature == 0
        assert threshold == 3.5

    def test_matches_oracle_on_random_data(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            routing = rng.uniform(0.0, 10.0, size=(30, 3))
            y = rng.uniform(0.0, 100.0, size=30)
            got = _best_split(routing, y, 3)
            want = oracle_best_split(routing, y, 3)
            assert got is not None
            assert got[1] == want[1]
            assert_allclose(got[2], want[2])
            assert_allclose(got[0], want[0], atol=1e-9)

    def test_respects_min_instances(self):
        routing = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        assert _best_split(routing, y, 4) is None

    def test_no_cut_between_equal_values(self):
        routing = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert _best_split(routing, y, 1) is None


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
        assert tree.root.threshold == 3.5
        assert smooth_predict(tree, [2.0], [2.0], config) == pytest.approx(1.0)
        assert smooth_predict(tree, [5.0], [5.0], config) == pytest.approx(9.0)

    def test_split_survives_pruning_when_signal_is_real(self):
        x = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        config = TreeConfig(min_instances=2, smoothing_k=0.0)
        pruned = prune(build_tree(x, x, y, config), config)
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
            assert len(node.model.coefficients) == 2
            if not node.is_leaf:
                check(node.left)
                check(node.right)

        check(tree.root)

    def test_rejects_bad_inputs(self):
        x = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])
        with pytest.raises(ValueError, match="2-D"):
            build_tree(x.ravel(), x, y)
        with pytest.raises(ValueError, match="equal row counts"):
            build_tree(x, x[:-1], y)
        with pytest.raises(ValueError, match="non-finite targets"):
            build_tree(x, x, np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0]))
        with pytest.raises(ValueError, match="non-finite features"):
            build_tree(np.array([[np.inf]] * 6), x, y)
        with pytest.raises(ValueError, match="at least min_instances"):
            build_tree(x[:3], x[:3], y[:3])

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
        tree = prune(build_tree(x, x, y, config), config)
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
            pruned = prune(raw, config)
            assert pruned.leaf_count() <= raw.leaf_count()
            self.assert_no_prunable_node_left(pruned, config)

    @staticmethod
    def assert_no_prunable_node_left(tree, config):
        r, g, y = tree.training
        v_model = tree.regression_dim + 1
        near_zero = 1e-5 * pop_sd(y)

        def factor(n, v):
            if n <= v:
                return 10.0
            return (n + config.pruning_factor * v) / (n - v)

        def leaf_prediction(node, i):
            while not node.is_leaf:
                node = node.left if r[i, node.feature] <= node.threshold else node.right
            return node.model.intercept + float(np.dot(node.model.coefficients, g[i]))

        def walk(node, idx):
            if node.is_leaf:
                return v_model
            mask = r[idx, node.feature] <= node.threshold
            v = walk(node.left, idx[mask]) + walk(node.right, idx[~mask]) + 1
            errors = [abs(y[i] - leaf_prediction(node, i)) for i in idx]
            adjusted_subtree = (sum(errors) / len(idx)) * factor(len(idx), v)
            adjusted_node = node.mae * factor(len(idx), v_model)
            assert adjusted_node > adjusted_subtree
            assert adjusted_node > near_zero
            return v

        walk(tree.root, np.arange(len(y)))


def manual_two_level_tree():
    leaf = Node(LinearModel(10.0, (0.0,)), count=4, mae=0.0)
    right = Node(LinearModel(50.0, (0.0,)), count=6, mae=0.0)
    root = Node(
        LinearModel(20.0, (0.0,)),
        count=10,
        mae=0.0,
        feature=0,
        threshold=0.5,
        left=leaf,
        right=right,
    )
    return ModelTree(root, routing_dim=1, regression_dim=1)


class TestSmoothing:
    def test_blend_matches_hand_value(self):
        tree = manual_two_level_tree()
        got = smooth_predict(tree, [0.0], [0.0], TreeConfig(smoothing_k=15.0))
        assert got == pytest.approx((4 * 10.0 + 15 * 20.0) / 19.0)

    def test_zero_k_returns_raw_leaf(self):
        tree = manual_two_level_tree()
        assert smooth_predict(tree, [0.0], [0.0], TreeConfig(smoothing_k=0.0)) == 10.0
        assert smooth_predict(tree, [1.0], [0.0], TreeConfig(smoothing_k=0.0)) == 50.0

    def test_value_equal_to_threshold_routes_left(self):
        tree = manual_two_level_tree()
        config = TreeConfig(smoothing_k=0.0)
        assert smooth_predict(tree, [0.5], [0.0], config) == 10.0
        assert smooth_predict(tree, [0.5 + 1e-9], [0.0], config) == 50.0

    def test_three_level_blend(self):
        leaf = Node(LinearModel(1.0, (0.0,)), count=2, mae=0.0)
        sibling = Node(LinearModel(9.0, (0.0,)), count=3, mae=0.0)
        mid = Node(
            LinearModel(2.0, (0.0,)),
            count=5,
            mae=0.0,
            feature=0,
            threshold=0.5,
            left=leaf,
            right=sibling,
        )
        other = Node(LinearModel(0.0, (0.0,)), count=7, mae=0.0)
        root = Node(
            LinearModel(3.0, (0.0,)),
            count=12,
            mae=0.0,
            feature=1,
            threshold=0.5,
            left=mid,
            right=other,
        )
        tree = ModelTree(root, routing_dim=2, regression_dim=1)
        # leaf 1 -> (2*1 + 15*2)/17 -> (5*(32/17) + 15*3)/20 = 925/340
        got = smooth_predict(tree, [0.0, 0.0], [0.0], TreeConfig(smoothing_k=15.0))
        assert got == pytest.approx(925.0 / 340.0)

    def test_dimension_mismatch(self):
        tree = manual_two_level_tree()
        with pytest.raises(ValueError, match="dimension mismatch"):
            smooth_predict(tree, [0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            smooth_predict(tree, [0.0], [0.0, 1.0])


class TestSerialization:
    def build_sample(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 10.0, size=(60, 2))
        y = np.where(x[:, 0] <= 5.0, 10.0 * x[:, 0], 80.0 - 4.0 * x[:, 0])
        y = y + rng.normal(0.0, 1.0, size=60)
        config = TreeConfig(min_instances=2)
        return prune(build_tree(x, x, y, config), config), x

    def test_round_trip_predictions_identical(self):
        tree, x = self.build_sample()
        doc = json.loads(json.dumps(tree_to_json(tree)))
        restored = tree_from_json(doc)
        assert restored.routing_dim == tree.routing_dim
        assert restored.regression_dim == tree.regression_dim
        assert_allclose(predict_tree(restored, x, x), predict_tree(tree, x, x), rtol=0)

    def test_deserialized_tree_cannot_be_pruned(self):
        tree, _ = self.build_sample()
        restored = tree_from_json(tree_to_json(tree))
        with pytest.raises(ValueError, match="deserialized"):
            prune(restored)

    def test_render_smoke(self):
        tree, _ = self.build_sample()
        text = render_tree(tree)
        assert "route[" in text
        assert "leaf (n=" in text
        assert text.endswith("\n")


def reference_leaf_value(node, routing_row, regression_row):
    while not node.is_leaf:
        node = node.left if routing_row[node.feature] <= node.threshold else node.right
    return node.model.intercept + float(np.dot(node.model.coefficients, regression_row))


def reference_prune(tree, config):
    """The per-row pruning pass that preceded the batch one, kept as the oracle."""
    r, g, y = tree.training
    v_model = tree.regression_dim + 1
    near_zero = 1e-5 * float(np.std(y))

    def factor(n, v):
        if n <= v:
            return 10.0
        return (n + config.pruning_factor * v) / (n - v)

    def walk(node, idx):
        if node.is_leaf:
            return Node(node.model, node.count, node.mae), v_model
        mask = r[idx, node.feature] <= node.threshold
        left, v_left = walk(node.left, idx[mask])
        right, v_right = walk(node.right, idx[~mask])
        v_subtree = v_left + v_right + 1
        rebuilt = Node(node.model, node.count, node.mae, node.feature, node.threshold, left, right)
        predictions = np.array([reference_leaf_value(rebuilt, r[i], g[i]) for i in idx])
        subtree_err = float(np.mean(np.abs(y[idx] - predictions)))
        adjusted_node = node.mae * factor(len(idx), v_model)
        adjusted_subtree = subtree_err * factor(len(idx), v_subtree)
        if adjusted_node <= adjusted_subtree or adjusted_node <= near_zero:
            return Node(node.model, node.count, node.mae), v_model
        return rebuilt, v_subtree

    root, _ = walk(tree.root, np.arange(len(y)))
    return ModelTree(root, tree.routing_dim, tree.regression_dim, tree.training)


def reference_smooth_predict(tree, routing_row, regression_row, config):
    """The per-row smoothing walk that preceded the batch one, kept as the oracle."""
    path = [tree.root]
    while not path[-1].is_leaf:
        node = path[-1]
        path.append(node.left if routing_row[node.feature] <= node.threshold else node.right)

    def value(node):
        return node.model.intercept + float(np.dot(node.model.coefficients, regression_row))

    p = value(path[-1])
    for parent, child in zip(path[-2::-1], path[::-1]):
        p = (child.count * p + config.smoothing_k * value(parent)) / (
            child.count + config.smoothing_k
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
        got = json.dumps(tree_to_json(prune(tree, config)))
        assert got == json.dumps(tree_to_json(reference_prune(tree, config)))

    @settings(max_examples=40, deadline=None)
    @given(tree_data, st.sampled_from([0.0, 1.0, 15.0]))
    def test_predict_matches_per_row_reference(self, data, smoothing_k):
        r, g, y = random_tree_data(*data)
        config = TreeConfig(min_instances=2, smoothing_k=smoothing_k)
        tree = prune(build_tree(r, g, y, config), config)
        got = predict_tree(tree, r, g, config)
        want = [reference_smooth_predict(tree, r[i], g[i], config) for i in range(len(r))]
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # a row's prediction does not depend on the rows it is batched with
        order = np.random.default_rng(data[0]).permutation(len(r))
        assert np.array_equal(predict_tree(tree, r[order], g[order], config), got[order])
        assert [smooth_predict(tree, r[i], g[i], config) for i in range(3)] == list(got[:3])

    def test_empty_batch(self):
        tree = manual_two_level_tree()
        assert predict_tree(tree, np.empty((0, 1)), np.empty((0, 1))).shape == (0,)


def sample_tree_doc():
    tree = manual_two_level_tree()
    return json.loads(json.dumps(tree_to_json(tree)))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d.update(routing_dim="1"), "routing_dim must be an integer"),
        (lambda d: d.update(root=None), "tree.root must be a JSON object"),
        (lambda d: d["root"].update(count=0), "tree.root.count must be an integer >= 1"),
        (lambda d: d["root"].update(mae=float("nan")), "tree.root.mae must be finite"),
        (lambda d: d["root"].pop("model"), "tree.root.model must be a JSON object"),
        (lambda d: d["root"]["model"].update(coefficients=[1.0, 2.0]), "list of 1 numbers"),
        (lambda d: d["root"]["model"].update(intercept="3"), "intercept must be a number"),
        (lambda d: d["root"].update(feature=1), r"feature must be an integer in \[0, 1\)"),
        (lambda d: d["root"].pop("right"), "all or none"),
        (lambda d: d["root"].update(threshold=float("inf")), "threshold must be finite"),
        (lambda d: d["root"]["left"].update(left={}), "all or none"),
    ],
)
def test_from_json_rejects_malformed_trees(change, message):
    doc = sample_tree_doc()
    change(doc)
    with pytest.raises(ValueError, match=message):
        tree_from_json(doc)
