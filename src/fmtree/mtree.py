"""M5-style model tree with separate routing and regression feature spaces.

Splits are chosen on the routing matrix by standard-deviation reduction while
every node also carries a linear model over the regression features; this lets
the tree route on derived columns (e.g. fuzzy memberships) yet keep leaves
expressed in the original units.  Its nodes, like the boosting stages', are a
`FlatTree` of preorder arrays, written as nested JSON by one shared codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import check_field_types, finite_number, finite_numbers, json_int, json_object

# Error-inflation fallback for nodes with no spare degrees of freedom (n <= v).
_SMALL_NODE_FACTOR = 10.0
# Collapse a subtree outright once the node model is this close to exact.
_NEAR_ZERO_ERROR_FRACTION = 1e-5
_RIDGE_JITTER = 1e-8
_COND_LIMIT = 1e12
# Nodes of at most this many rows scan all routing columns in one 2-D pass;
# larger ones scan a column at a time, which bounds the scan's temporaries.
_SCAN_WIDTH = 2048


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


@dataclass(eq=False)
class FlatTree:
    """Binary tree nodes as parallel arrays in preorder, the layout of scikit-learn's Tree.

    Node 0 is the root.  An internal node i sends a row to left[i] when
    row[feature[i]] <= threshold[i] and to right[i] otherwise.  A leaf has
    feature == left == right == -1.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[list], *args):
        """A tree from preorder node rows [feature, threshold, left, right, *payload];
        `args` fill the fields that follow the payload arrays."""
        return cls(*map(np.array, zip(*rows)), *args)

    def apply(self, x: np.ndarray, node: np.ndarray) -> np.ndarray:
        """Walk the rows of x from start nodes to leaves.

        `node` has shape (n,) or (k, n): one start node per row, or k of them.
        """
        rows = np.arange(len(x))
        while True:
            feature = self.feature[node]
            inner = feature >= 0
            if not inner.any():
                return node
            go_left = x[rows, np.where(inner, feature, 0)] <= self.threshold[node]
            node = np.where(inner, np.where(go_left, self.left[node], self.right[node]), node)

    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.feature < 0))


@dataclass(eq=False)
class ModelTree(FlatTree):
    """A FlatTree whose every node has a training row count, a mean absolute
    error and an affine model: beta[i, 0] + beta[i, 1:] . regression_row."""

    count: np.ndarray
    mae: np.ndarray
    beta: np.ndarray
    routing_dim: int
    regression_dim: int
    # (regression, targets, each node's rows), kept by build_tree alone; prune needs them.
    training: tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None = None

    def node_values(self, node: np.ndarray | int, g: np.ndarray) -> np.ndarray:
        """Evaluate node[i]'s model on row i of g (or one node's on every row).

        Terms are added column by column, so a row's value does not depend on
        which other rows share the call (a BLAS matrix-vector product would
        round differently by position).
        """
        beta = self.beta[node]
        total = np.zeros(len(g))
        for j in range(g.shape[1]):
            total += beta[..., j + 1] * g[:, j]
        return beta[..., 0] + total


def _fit_nodes(
    g: np.ndarray, y: np.ndarray, members: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's least-squares model of y on g over its rows `members[i]`, and its mae.

    The normal equations are solved together; a node's diagonal is jittered
    when its matrix is singular or ill-conditioned.  ValueError if any normal
    equation overflows.
    """
    p = g.shape[1] + 1
    a = np.empty((len(members), p, p))
    b = np.empty((len(members), p))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a ValueError
        for i, idx in enumerate(members):
            x = np.hstack([np.ones((len(idx), 1)), g[idx]])
            a[i] = x.T @ x
            b[i] = x.T @ y[idx]
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(
            "the node models' normal equations overflow: regression features and targets "
            "are too large in magnitude"
        )
    cond = np.linalg.cond(a)
    jitter = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    # np.where, not a boolean index: that would run numpy indexing code that nothing
    # else here does, about 0.1 MB more resident memory in every process.
    a = np.where(jitter[:, None, None], a + _RIDGE_JITTER * np.eye(p), a)
    beta = np.linalg.solve(a, b[..., None])[..., 0]
    # The stored mae keeps the bits of this matrix product, not node_values'.
    mae = np.array([
        float(np.mean(np.abs(y[idx] - (float(beta[i, 0]) + g[idx] @ beta[i, 1:]))))
        for i, idx in enumerate(members)
    ])
    return beta, mae


def _popsd(y: np.ndarray) -> float:
    return float(np.std(y))


def _best_split(
    routing: np.ndarray, y: np.ndarray, order: np.ndarray, min_instances: int, parent_sd: float
) -> tuple[float, int, float] | None:
    """Maximize SDR over midpoints of consecutive distinct routing values.

    order[f] lists the node's rows (indices into routing and y) sorted by
    routing column f, equal values in ascending row order.  parent_sd is the
    population sd of the node's y.  Ties break toward the lowest feature
    index, then the lowest threshold.  Both children must keep at least
    min_instances rows.
    """
    d, n = order.shape
    # A cut after the first c sorted rows, for c in [lo, hi).
    lo, hi = min_instances, n - min_instances + 1
    if hi <= lo:
        return None
    nl = np.arange(lo, hi, dtype=float)
    nr = n - nl
    gains = np.empty(d)
    cuts = np.empty(d, dtype=np.intp)
    # Values are gathered through one flat index array: indexing with a pair of
    # arrays runs numpy code that nothing else here does, about 0.1 MB more
    # resident memory in every process.
    flat = routing.ravel()
    step = d if n <= _SCAN_WIDTH else 1
    for first in range(0, d, step):
        columns = slice(first, first + step)
        block = order[columns]
        vs = flat[block * d + np.arange(d)[columns, None]]
        ys = y[block]
        cum = np.cumsum(ys, axis=1)
        cum2 = np.cumsum(ys * ys, axis=1)
        total, total2 = cum[:, -1:], cum2[:, -1:]
        sl, sl2 = cum[:, lo - 1 : hi - 1], cum2[:, lo - 1 : hi - 1]
        var_l = np.maximum(sl2 / nl - (sl / nl) ** 2, 0.0)
        var_r = np.maximum((total2 - sl2) / nr - ((total - sl) / nr) ** 2, 0.0)
        sdr = parent_sd - (nl / n) * np.sqrt(var_l) - (nr / n) * np.sqrt(var_r)
        sdr[vs[:, lo:hi] == vs[:, lo - 1 : hi - 1]] = -np.inf
        cut = sdr.argmax(axis=1)
        cuts[columns] = cut
        gains[columns] = sdr.ravel()[np.arange(len(cut)) * sdr.shape[1] + cut]
    usable = np.isfinite(gains)
    if not usable.any():
        return None
    feature = int(np.where(usable, gains, -np.inf).argmax())
    c = lo + cuts[feature]
    below, above = flat[order[feature, c - 1 : c + 1] * d + feature]
    return float(gains[feature]), feature, float((below + above) / 2.0)


def check_target_squares(y: np.ndarray) -> None:
    """ValueError if the targets' sum of squares, which the split searches accumulate, overflows."""
    with np.errstate(over="ignore"):  # reported as a ValueError
        if not np.isfinite((y * y).sum()):
            raise ValueError("the targets' sum of squares overflows: targets are too large in magnitude")


def build_tree(
    routing: np.ndarray,
    regression: np.ndarray,
    targets: np.ndarray,
    config: TreeConfig = TreeConfig(),
) -> ModelTree:
    """Grow an unpruned model tree.

    Growth stops when a node's target standard deviation falls below
    sd_fraction of the whole sample's, when fewer than 2*min_instances rows
    remain, or when no split improves SDR.  The routing columns are sorted
    once; each node's split search reads its rows' slice of those orders, and
    every node's model is fitted after growth, in one batched solve.
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
    check_target_squares(y)
    if len(y) < config.min_instances:
        raise ValueError(
            f"need at least min_instances={config.min_instances} rows, got {len(y)}"
        )
    global_sd = _popsd(y)
    d = r.shape[1]
    # Preorder node rows [feature, threshold, left, right, count], and each node's rows.
    rows: list[list] = []
    members: list[np.ndarray] = []
    in_child = np.zeros(len(y), dtype=bool)

    def child_order(order: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The rows `idx` of `order`, each column keeping its sorted order."""
        in_child[idx] = True
        kept = order[in_child[order]].reshape(d, -1)
        in_child[idx] = False
        return kept

    def grow(idx: np.ndarray, order: np.ndarray) -> int:
        """Grow the subtree of the rows `idx` (ascending), sorted per column in `order`."""
        node = len(rows)
        row = [-1, 0.0, -1, -1, len(idx)]
        rows.append(row)
        members.append(idx)
        node_sd = _popsd(y[idx])
        if (
            len(idx) < 2 * config.min_instances
            or node_sd == 0.0
            or node_sd < config.sd_fraction * global_sd
        ):
            return node
        found = _best_split(r, y, order, config.min_instances, node_sd)
        if found is None or found[0] <= 0.0:
            return node
        _, feature, threshold = found
        go_left = r[idx, feature] <= threshold
        left, right = idx[go_left], idx[~go_left]
        # The right child's orders are built once the left subtree is grown,
        # so that a level holds one child's orders at a time.
        row[:4] = (
            feature,
            threshold,
            grow(left, child_order(order, left)),
            grow(right, child_order(order, right)),
        )
        return node

    # Stable sorts: equal routing values keep ascending row order, as each node's own would.
    # Row indices stay intp: int32 would halve the orders and row sets, but its
    # index casts add numpy code pages to the resident set of every fit, however small.
    grow(np.arange(len(y)), np.argsort(r.T, axis=1, kind="stable"))
    # grow refers to itself: dropping it frees its closure on return, not at the
    # next garbage collection.
    del grow
    beta, mae = _fit_nodes(g, y, members)
    return ModelTree.from_rows(rows, mae, beta, d, g.shape[1], (g, y, members))


def _adjust_factor(n: int, v: int, config: TreeConfig) -> float:
    if n <= v:
        return _SMALL_NODE_FACTOR
    return (n + config.pruning_factor * v) / (n - v)


def prune(tree: ModelTree, config: TreeConfig = TreeConfig()) -> ModelTree:
    """Collapse subtrees whose complexity-adjusted error beats their node model.

    Mean absolute error is inflated by (n + pruning_factor*v) / (n - v), with v
    the parameter count (per model: regression width + 1; per subtree: leaf
    models plus one per split).  Works bottom-up on the node row sets that
    build_tree recorded, re-emitting the kept nodes in preorder; the result keeps no rows.
    """
    if tree.training is None:
        raise ValueError("only a tree returned by build_tree can be pruned, not a deserialized one")
    g, y, members = tree.training
    v_model = tree.regression_dim + 1
    near_zero = _NEAR_ZERO_ERROR_FRACTION * _popsd(y)
    # Each training row's raw prediction by the pruned subtree walked last.
    predictions = np.empty(len(y))
    rows: list[list] = []

    def walk(node: int) -> int:
        """Emit node's kept subtree and return its parameter count."""
        kept = len(rows)
        rows.append([-1, 0.0, -1, -1, tree.count[node], tree.mae[node], tree.beta[node]])
        idx = members[node]
        feature, threshold = tree.feature[node], tree.threshold[node]
        if feature >= 0:
            v_left = walk(tree.left[node])
            right = len(rows)
            v_subtree = v_left + walk(tree.right[node]) + 1
            subtree_err = float(np.mean(np.abs(y[idx] - predictions[idx])))
            adjusted_node = tree.mae[node] * _adjust_factor(len(idx), v_model, config)
            adjusted_subtree = subtree_err * _adjust_factor(len(idx), v_subtree, config)
            if not (adjusted_node <= adjusted_subtree or adjusted_node <= near_zero):
                rows[kept][:4] = feature, threshold, kept + 1, right
                return v_subtree
            del rows[kept + 1 :]
        predictions[idx] = tree.node_values(node, g[idx])
        return v_model

    walk(0)
    return ModelTree.from_rows(rows, tree.routing_dim, tree.regression_dim)


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
    With smoothing_k = 0 this is the raw leaf prediction.  All rows are routed
    to their leaves at once and then climb the parent links together.
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
    parent = np.full(len(tree.feature), -1)
    inner = np.flatnonzero(tree.feature >= 0)
    parent[tree.left[inner]] = parent[tree.right[inner]] = inner
    node = tree.apply(r, np.zeros(len(r), dtype=np.intp))
    p = tree.node_values(node, g)
    rows = np.flatnonzero(parent[node] >= 0)
    while rows.size:
        child = node[rows]
        node[rows] = parent[child]
        own = tree.node_values(node[rows], g[rows])
        p[rows] = (tree.count[child] * p[rows] + k * own) / (tree.count[child] + k)
        rows = rows[parent[node[rows]] >= 0]
    return p


def nodes_to_json(tree: FlatTree, payload: Callable[[int], dict], node: int = 0) -> dict:
    """The nested JSON object of `node`'s subtree: payload(node) plus, at a
    split, 'feature', 'threshold', 'left' and 'right'."""
    doc = payload(node)
    if tree.feature[node] >= 0:
        doc.update(
            feature=int(tree.feature[node]),
            threshold=float(tree.threshold[node]),
            left=nodes_to_json(tree, payload, int(tree.left[node])),
            right=nodes_to_json(tree, payload, int(tree.right[node])),
        )
    return doc


SPLIT_KEYS = {"feature", "threshold", "left", "right"}


def nodes_from_json(
    doc, path: str, feature_bound: int, read_payload: Callable[[dict, str, bool], tuple]
) -> list[list]:
    """Preorder node rows of a nested JSON tree; ValueError on any malformed node.

    A node that holds any of SPLIT_KEYS splits, and must then hold all four;
    its feature must lie in [0, feature_bound).  read_payload(node, path,
    splits) checks the node's own keys and returns its payload.
    """
    rows: list[list] = []

    def add(node, where: str) -> int:
        splits = SPLIT_KEYS & json_object(node, where).keys()
        if splits and splits != SPLIT_KEYS:
            raise ValueError(
                f"{where} must hold all or none of 'feature', 'threshold', 'left' and 'right', "
                f"got keys {sorted(node)}"
            )
        index = len(rows)
        row = [-1, 0.0, -1, -1]
        rows.append(row)
        row.extend(read_payload(node, where, bool(splits)))
        if splits:
            row[0] = json_int(node["feature"], f"{where}.feature", 0, feature_bound)
            row[1] = finite_number(node["threshold"], f"{where}.threshold")
            row[2] = add(node["left"], f"{where}.left")
            row[3] = add(node["right"], f"{where}.right")
        return index

    add(doc, path)
    return rows


def tree_to_json(tree: ModelTree) -> dict:
    def payload(node: int) -> dict:
        return {
            "count": int(tree.count[node]),
            "mae": float(tree.mae[node]),
            "model": {
                "intercept": float(tree.beta[node, 0]),
                "coefficients": tree.beta[node, 1:].tolist(),
            },
        }

    return {
        "routing_dim": tree.routing_dim,
        "regression_dim": tree.regression_dim,
        "root": nodes_to_json(tree, payload),
    }


def tree_from_json(doc: dict) -> ModelTree:
    """Rebuild a tree from tree_to_json output; ValueError on any malformed part."""
    json_object(doc, "tree")
    routing_dim = json_int(doc.get("routing_dim"), "tree routing_dim", 0)
    regression_dim = json_int(doc.get("regression_dim"), "tree regression_dim", 0)

    def read_payload(node: dict, path: str, splits: bool) -> tuple:
        model = json_object(node.get("model"), f"{path}.model")
        intercept = finite_number(model.get("intercept"), f"{path}.model.intercept")
        coefficients = finite_numbers(
            model.get("coefficients"), f"{path}.model.coefficients", regression_dim
        )
        count = json_int(node.get("count"), f"{path}.count", 1, 2**53)  # exact as a float
        mae = finite_number(node.get("mae"), f"{path}.mae")
        return count, mae, [intercept, *coefficients]

    rows = nodes_from_json(doc.get("root"), "tree.root", routing_dim, read_payload)
    return ModelTree.from_rows(rows, routing_dim, regression_dim)
