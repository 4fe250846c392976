"""M5-style model tree with separate routing and regression feature spaces.

Splits are chosen on the routing matrix by standard-deviation reduction while
every node also carries a linear model over the regression features; this lets
the tree route on derived columns (e.g. fuzzy memberships) yet keep leaves
expressed in the original units.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .data import check_field_types, finite_number, finite_numbers, json_int

# Error-inflation fallback for nodes with no spare degrees of freedom (n <= v).
_SMALL_NODE_FACTOR = 10.0
# Collapse a subtree outright once the node model is this close to exact.
_NEAR_ZERO_ERROR_FRACTION = 1e-5
_RIDGE_JITTER = 1e-8
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class TreeConfig:
    min_instances: int = 4
    sd_fraction: float = 0.05
    smoothing_k: float = 15.0
    pruning_factor: float = 1.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.min_instances < 2:
            raise ValueError(f"min_instances must be at least 2, got {self.min_instances}")
        if not 0.0 < self.sd_fraction < 1.0:
            raise ValueError(f"sd_fraction must be in (0, 1), got {self.sd_fraction}")
        if self.smoothing_k < 0:
            raise ValueError(f"smoothing_k must be non-negative, got {self.smoothing_k}")
        if self.pruning_factor < 0:
            raise ValueError(f"pruning_factor must be non-negative, got {self.pruning_factor}")


@dataclass(frozen=True)
class LinearModel:
    """Affine model over the regression features."""

    intercept: float
    coefficients: tuple[float, ...]

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Evaluate on each row of a 2-D array.

        Terms are added column by column, so a row's value does not depend on
        which other rows share the call (a BLAS matrix-vector product would
        round differently by position).
        """
        total = np.zeros(len(rows))
        for coefficient, column in zip(self.coefficients, np.asarray(rows, dtype=float).T):
            total += coefficient * column
        return self.intercept + total


@dataclass
class Node:
    model: LinearModel
    count: int
    mae: float
    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class ModelTree:
    root: Node
    routing_dim: int
    regression_dim: int
    # (routing, regression, targets) retained from build_tree; prune needs them.
    training: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def leaf_count(self) -> int:
        def walk(node: Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root)


def _fit_linear(g: np.ndarray, y: np.ndarray) -> tuple[LinearModel, float]:
    """Least squares via normal equations; jitter the diagonal when singular."""
    x = np.hstack([np.ones((len(y), 1)), g])
    a = x.T @ x
    b = x.T @ y
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        a = a + _RIDGE_JITTER * np.eye(a.shape[0])
    beta = np.linalg.solve(a, b)
    model = LinearModel(float(beta[0]), tuple(float(c) for c in beta[1:]))
    # The stored mae keeps the bits of this matrix product, not LinearModel.predict's.
    mae = float(np.mean(np.abs(y - (model.intercept + g @ np.asarray(model.coefficients)))))
    return model, mae


def _popsd(y: np.ndarray) -> float:
    return float(np.std(y))


def _best_split(
    routing: np.ndarray, y: np.ndarray, min_instances: int, parent_sd: float
) -> tuple[float, int, float] | None:
    """Maximize SDR over midpoints of consecutive distinct routing values.

    parent_sd is the population sd of y.  Ties break toward the lowest
    feature index, then the lowest threshold.  Both children must keep at
    least min_instances rows.
    """
    n = len(y)
    cuts = np.arange(min_instances, n - min_instances + 1)
    if cuts.size == 0:
        return None
    best: tuple[float, int, float] | None = None
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


def build_tree(
    routing: np.ndarray,
    regression: np.ndarray,
    targets: np.ndarray,
    config: TreeConfig = TreeConfig(),
) -> ModelTree:
    """Grow an unpruned model tree.

    Growth stops when a node's target standard deviation falls below
    sd_fraction of the whole sample's, when fewer than 2*min_instances rows
    remain, or when no split improves SDR.
    """
    r = np.asarray(routing, dtype=float)
    g = np.asarray(regression, dtype=float)
    y = np.asarray(targets, dtype=float)
    if r.ndim != 2 or g.ndim != 2:
        raise ValueError("routing and regression must be 2-D matrices")
    if not (len(r) == len(g) == len(y)):
        raise ValueError("routing, regression and targets must have equal row counts")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite targets")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(g))):
        raise ValueError("non-finite features")
    if len(y) < config.min_instances:
        raise ValueError(
            f"need at least min_instances={config.min_instances} rows, got {len(y)}"
        )
    global_sd = _popsd(y)

    def grow(idx: np.ndarray) -> Node:
        model, mae = _fit_linear(g[idx], y[idx])
        node = Node(model, len(idx), mae)
        node_sd = _popsd(y[idx])
        if (
            len(idx) < 2 * config.min_instances
            or node_sd == 0.0
            or node_sd < config.sd_fraction * global_sd
        ):
            return node
        found = _best_split(r[idx], y[idx], config.min_instances, node_sd)
        if found is None or found[0] <= 0.0:
            return node
        _, node.feature, node.threshold = found
        left_mask = r[idx, node.feature] <= node.threshold
        node.left = grow(idx[left_mask])
        node.right = grow(idx[~left_mask])
        return node

    root = grow(np.arange(len(y)))
    return ModelTree(root, r.shape[1], g.shape[1], (r, g, y))


def _adjust_factor(n: int, v: int, config: TreeConfig) -> float:
    if n <= v:
        return _SMALL_NODE_FACTOR
    return (n + config.pruning_factor * v) / (n - v)


def prune(tree: ModelTree, config: TreeConfig = TreeConfig()) -> ModelTree:
    """Collapse subtrees whose complexity-adjusted error beats their node model.

    Mean absolute error is inflated by (n + pruning_factor*v) / (n - v), with v
    the parameter count (per model: regression width + 1; per subtree: leaf
    models plus one per split).  Works bottom-up on the retained training rows.
    """
    if tree.training is None:
        raise ValueError("tree has no retained training data (deserialized trees cannot be pruned)")
    r, g, y = tree.training
    v_model = tree.regression_dim + 1
    near_zero = _NEAR_ZERO_ERROR_FRACTION * _popsd(y)
    # Each training row's raw prediction by the pruned subtree walked last.
    predictions = np.empty(len(y))

    def walk(node: Node, idx: np.ndarray) -> tuple[Node, int]:
        collapsed = Node(node.model, node.count, node.mae)
        if node.is_leaf:
            predictions[idx] = node.model.predict(g[idx])
            return collapsed, v_model
        left_mask = r[idx, node.feature] <= node.threshold
        left, v_left = walk(node.left, idx[left_mask])
        right, v_right = walk(node.right, idx[~left_mask])
        v_subtree = v_left + v_right + 1
        subtree_err = float(np.mean(np.abs(y[idx] - predictions[idx])))
        adjusted_node = node.mae * _adjust_factor(len(idx), v_model, config)
        adjusted_subtree = subtree_err * _adjust_factor(len(idx), v_subtree, config)
        if adjusted_node <= adjusted_subtree or adjusted_node <= near_zero:
            predictions[idx] = node.model.predict(g[idx])
            return collapsed, v_model
        return Node(
            node.model, node.count, node.mae, node.feature, node.threshold, left, right
        ), v_subtree

    new_root, _ = walk(tree.root, np.arange(len(y)))
    return ModelTree(new_root, tree.routing_dim, tree.regression_dim, tree.training)


def predict_tree(
    tree: ModelTree,
    routing: np.ndarray,
    regression: np.ndarray,
    config: TreeConfig = TreeConfig(),
) -> np.ndarray:
    """Predict each row, blending its leaf value with the ancestor models.

    Walking from the leaf to the root, the running prediction p becomes
    (n_child*p + smoothing_k*node_model(x)) / (n_child + smoothing_k) at each
    ancestor, n_child being the row count of the child just left behind.
    With smoothing_k = 0 this is the raw leaf prediction.  Rows travel down
    the tree in blocks, and each node's model is evaluated once per block.
    """
    r = np.asarray(routing, dtype=float)
    g = np.asarray(regression, dtype=float)
    if r.ndim != 2 or g.ndim != 2 or len(r) != len(g):
        raise ValueError("routing and regression must be 2-D matrices with equal row counts")
    if r.shape[1] != tree.routing_dim or g.shape[1] != tree.regression_dim:
        raise ValueError(
            f"dimension mismatch: expected routing {tree.routing_dim} / "
            f"regression {tree.regression_dim}, got {r.shape[1]} / {g.shape[1]}"
        )
    k = config.smoothing_k

    def walk(node: Node, idx: np.ndarray) -> np.ndarray:
        own = node.model.predict(g[idx])
        if node.is_leaf:
            return own
        p = np.empty(len(idx))
        goes_left = r[idx, node.feature] <= node.threshold
        for child, mask in ((node.left, goes_left), (node.right, ~goes_left)):
            if mask.any():
                p[mask] = (child.count * walk(child, idx[mask]) + k * own[mask]) / (
                    child.count + k
                )
        return p

    return walk(tree.root, np.arange(len(r)))


def _node_to_json(node: Node) -> dict:
    doc = {
        "count": node.count,
        "mae": node.mae,
        "model": {"intercept": node.model.intercept, "coefficients": list(node.model.coefficients)},
    }
    if not node.is_leaf:
        doc.update(
            feature=node.feature,
            threshold=node.threshold,
            left=_node_to_json(node.left),
            right=_node_to_json(node.right),
        )
    return doc


_SPLIT_KEYS = {"feature", "threshold", "left", "right"}


def _node_from_json(doc, path: str, routing_dim: int, regression_dim: int) -> Node:
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must be a JSON object, got {doc!r}")
    model = doc.get("model")
    if not isinstance(model, dict):
        raise ValueError(f"{path}.model must be a JSON object, got {model!r}")
    node = Node(
        LinearModel(
            finite_number(model.get("intercept"), f"{path}.model.intercept"),
            tuple(
                finite_numbers(
                    model.get("coefficients"), f"{path}.model.coefficients", regression_dim
                )
            ),
        ),
        json_int(doc.get("count"), f"{path}.count", 1),
        finite_number(doc.get("mae"), f"{path}.mae"),
    )
    split = _SPLIT_KEYS & set(doc)
    if not split:
        return node
    if split != _SPLIT_KEYS:
        raise ValueError(
            f"{path} must hold all or none of 'feature', 'threshold', 'left' and 'right', "
            f"got keys {sorted(doc)}"
        )
    node.feature = json_int(doc["feature"], f"{path}.feature", 0, routing_dim)
    node.threshold = finite_number(doc["threshold"], f"{path}.threshold")
    node.left = _node_from_json(doc["left"], f"{path}.left", routing_dim, regression_dim)
    node.right = _node_from_json(doc["right"], f"{path}.right", routing_dim, regression_dim)
    return node


def tree_to_json(tree: ModelTree) -> dict:
    return {
        "routing_dim": tree.routing_dim,
        "regression_dim": tree.regression_dim,
        "root": _node_to_json(tree.root),
    }


def tree_from_json(doc: dict) -> ModelTree:
    """Rebuild a tree from tree_to_json output; ValueError on any malformed part."""
    if not isinstance(doc, dict):
        raise ValueError(f"tree must be a JSON object, got {doc!r}")
    routing_dim = json_int(doc.get("routing_dim"), "tree routing_dim", 0)
    regression_dim = json_int(doc.get("regression_dim"), "tree regression_dim", 0)
    root = _node_from_json(doc.get("root"), "tree.root", routing_dim, regression_dim)
    return ModelTree(root, routing_dim, regression_dim)

