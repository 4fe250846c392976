"""M5-style model tree with separate routing and regression feature spaces.

Splits are chosen on the routing matrix by standard-deviation reduction while
every node also carries a linear model over the regression features; this lets
the tree route on derived columns (e.g. fuzzy memberships) yet keep leaves
expressed in the original units.  Its nodes, like the boosting stages', are a
`FlatTree` of parallel arrays, written as nested JSON by one shared codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import check_field_types, finite_number, finite_numbers, json_fields, json_int

# Error-inflation fallback for nodes with no spare degrees of freedom (n <= v).
_SMALL_NODE_FACTOR = 10.0
# Collapse a subtree outright once the node model is this close to exact.
_NEAR_ZERO_ERROR_FRACTION = 1e-5
_RIDGE_JITTER = 1e-8
_COND_LIMIT = 1e12
# A level's lanes, one per (node, routing column) pair, are scanned in padded
# blocks of at most this many (lane, row) cells, which bounds the scan's
# temporaries; a lane too wide to share a block is a block of its own.
_BLOCK_CELLS = 2**14


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
    """Binary tree nodes as parallel arrays, the layout of scikit-learn's Tree.

    Node 0 is the root of a single tree; a table of Treeboost stages records
    each stage's root beside it.  An internal node i sends a row to left[i]
    when row[feature[i]] <= threshold[i] and to right[i] otherwise.  A leaf
    has feature == left == right == -1.  Boosting stages, pruned trees and
    trees read from JSON number their nodes in preorder; build_tree numbers
    them in the breadth-first order of growth.  Nothing reads more into the
    numbering than where the roots are.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[list], *args):
        """A tree from node rows [feature, threshold, left, right, *payload], row i
        being node i; `args` fill the fields that follow the payload arrays."""
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
    error and an affine model: beta[i, 0] + beta[i, 1:] . regression_row.

    It holds no rows: prune takes the rows it was grown on, as predict_tree
    takes the rows it predicts.
    """

    count: np.ndarray
    mae: np.ndarray
    beta: np.ndarray
    routing_dim: int
    regression_dim: int

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
    # Each node's [1, g] rows are built for it alone, and the equations are stacked
    # after the loop: a whole-sample [1, g] copy, or the stacked arrays, held
    # through the loop would raise the fit's peak memory.
    a, b = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a ValueError
        for idx in members:
            x = np.empty((len(idx), p))
            x[:, 0], x[:, 1:] = 1.0, g[idx]
            a.append(x.T @ x)
            b.append(x.T @ y[idx])
    a, b = np.array(a), np.array(b)
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
        _mean(np.abs(y[idx] - (intercept + g[idx] @ coefficients)))
        for idx, intercept, coefficients in zip(members, beta[:, 0].tolist(), beta[:, 1:])
    ])
    return beta, mae


def _mean(x: np.ndarray) -> float:
    """np.mean of a 1-D array, bit for bit, without its Python wrapper."""
    return float(np.add.reduce(x) / len(x))


def _popsd(y: np.ndarray) -> float:
    """np.std of a 1-D array, bit for bit: the same pairwise sums, without its Python wrapper."""
    deviation = y - _mean(y)
    return float(np.sqrt(_mean(deviation * deviation)))


def _scan(
    routing: np.ndarray,
    y: np.ndarray,
    lanes: np.ndarray,
    columns: np.ndarray,
    sizes: np.ndarray,
    parent_sd: np.ndarray,
    min_instances: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The SDR gain (-inf if none) and threshold of each lane's best cut.

    A lane is one (node, routing column) pair: lanes[i] holds its node's
    sizes[i] rows sorted by routing column columns[i], then padding, which
    may be any row index.  parent_sd[i] is the population sd of the node's y.
    A cut falls between consecutive distinct values and leaves both sides at
    least min_instances rows; ties break toward the lowest threshold.
    """
    c, w = lanes.shape
    d = routing.shape[1]
    # A cut after the first nl sorted rows, for nl in [lo, hi); a lane's own cuts
    # end at its size - lo.  Prefix sums are sequential, so padding after a lane's rows
    # never changes them, and its totals are read at its own last row.
    lo, hi = min_instances, w - min_instances + 1
    size = sizes[:, None]
    nl = np.arange(lo, hi, dtype=float)
    nr = size - nl
    # Values are gathered through one flat index array: indexing with a pair of
    # arrays runs numpy code that nothing else here does, about 0.1 MB more
    # resident memory in every process.
    vs = routing.ravel()[lanes * d + columns[:, None]]
    ys = y[lanes]
    lane = np.arange(c)
    last = lane * w + sizes - 1
    with np.errstate(all="ignore"):  # padded cuts may overflow or divide by zero; masked below
        cum = np.cumsum(ys, axis=1)
        cum2 = np.cumsum(ys * ys, axis=1)
        total, total2 = cum.ravel()[last][:, None], cum2.ravel()[last][:, None]
        sl, sl2 = cum[:, lo - 1 : hi - 1], cum2[:, lo - 1 : hi - 1]
        var_l = np.maximum(sl2 / nl - (sl / nl) ** 2, 0.0)
        var_r = np.maximum((total2 - sl2) / nr - ((total - sl) / nr) ** 2, 0.0)
        sdr = parent_sd[:, None] - (nl / size) * np.sqrt(var_l) - (nr / size) * np.sqrt(var_r)
    sdr[(vs[:, lo:hi] == vs[:, lo - 1 : hi - 1]) | (nl > size - lo)] = -np.inf
    cut = sdr.argmax(axis=1)
    at = lane * w + lo + cut
    values = vs.ravel()
    return sdr.ravel()[lane * (hi - lo) + cut], (values[at - 1] + values[at]) / 2.0


def _best_splits(
    routing: np.ndarray, y: np.ndarray, nodes: list[tuple[np.ndarray, float]], min_instances: int
) -> list[tuple[float, int, float]]:
    """The best split (gain, feature, threshold) of each node; gain is -inf if it has none.

    `nodes` lists the (order, parent_sd) of nodes of at least 2*min_instances
    rows, smallest first.  A node's order[f] lists its rows (indices into
    routing and y) sorted by routing column f, equal values in ascending row
    order; parent_sd is the population sd of its y.  Splits cut between
    distinct values, and both children keep at least min_instances rows.
    Each node gives one lane per routing column.  The lanes go through _scan
    in that order, consecutive lanes sharing one block, each padded to the
    widest, while lane count x widest lane <= _BLOCK_CELLS; a block may part
    a node's lanes, and a lane too wide to share one is a block of its own.
    A node's split is the best of its lanes' cuts, ties breaking toward the
    lowest feature, then the lowest threshold.
    """
    d = routing.shape[1]
    widths = [order.shape[1] for order, _ in nodes]
    # Lane i is column i % d of node i // d.
    columns, sizes = np.empty((2, len(nodes), d), dtype=np.intp)
    sds = np.empty((len(nodes), d))
    columns[:] = range(d)
    sizes.T[:], sds.T[:] = widths, [sd for _, sd in nodes]
    columns, sizes, sds = columns.ravel(), sizes.ravel(), sds.ravel()
    count = len(columns)
    gain, threshold = np.empty(count), np.empty(count)
    start = 0
    while start < count:
        stop = start + 1
        while stop < count and (stop + 1 - start) * widths[stop // d] <= _BLOCK_CELLS:
            stop += 1
        # Lanes come narrowest first, so a block's last lane is its widest; the
        # others are padded with row 0.
        lanes = np.zeros((stop - start, widths[(stop - 1) // d]), dtype=np.intp)
        for node in range(start // d, (stop - 1) // d + 1):
            first = node * d
            a, b = max(start, first), min(stop, first + d)
            lanes[a - start : b - start, : widths[node]] = nodes[node][0][a - first : b - first]
        block = slice(start, stop)
        gain[block], threshold[block] = _scan(
            routing, y, lanes, columns[block], sizes[block], sds[block], min_instances
        )
        start = stop
    # Each node's best column, ties toward the lowest; a non-finite gain is unusable.
    gain = np.where(np.isfinite(gain), gain, -np.inf).reshape(len(nodes), d)
    feature = gain.argmax(axis=1)
    at = np.arange(len(feature)) * d + feature
    return list(zip(gain.ravel()[at].tolist(), feature.tolist(), threshold[at].tolist()))


TARGET_SQUARES_OVERFLOW = (
    "the targets' sum of squares overflows: targets are too large in magnitude"
)


def check_target_squares(y: np.ndarray) -> None:
    """ValueError if the targets' sum of squares, which the split searches accumulate, overflows."""
    with np.errstate(over="ignore"):  # reported as a ValueError
        if not np.isfinite((y * y).sum()):
            raise ValueError(TARGET_SQUARES_OVERFLOW)


def _tree_data(routing, regression, targets=None, tree: ModelTree | None = None) -> tuple:
    """The tree-data contract of build_tree, prune and predict_tree: ValueError unless
    routing and regression are finite 2-D matrices with equal row counts, of the
    tree's widths if a tree is given, and targets, if given, hold one finite value
    per row.  Returns them as float arrays, routing in C order (targets None if not given).
    """
    # C order, so that each scan's raveled routing matrix is a view, not a copy.
    r = np.ascontiguousarray(routing, dtype=float)
    g = np.asarray(regression, dtype=float)
    if r.ndim != 2 or g.ndim != 2 or len(r) != len(g):
        raise ValueError("routing and regression must be 2-D matrices with equal row counts")
    if tree is not None and (r.shape[1], g.shape[1]) != (tree.routing_dim, tree.regression_dim):
        raise ValueError(
            f"dimension mismatch: expected routing {tree.routing_dim} / "
            f"regression {tree.regression_dim}, got {r.shape[1]} / {g.shape[1]}"
        )
    if not (np.isfinite(r).all() and np.isfinite(g).all()):
        raise ValueError("non-finite features")
    if targets is None:
        return r, g, None
    y = np.asarray(targets, dtype=float)
    if y.shape != (len(r),):
        raise ValueError("targets must be a vector with one value per routing row")
    if not np.isfinite(y).all():
        raise ValueError("non-finite targets")
    return r, g, y


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
    once, and the tree grows a level at a time: the lanes of the level's
    nodes that may split, one per (node, routing column), are scanned
    together, smallest node first (see _best_splits).  Nodes are numbered as
    they are grown, breadth first from the root, 0.  Every node's model is
    fitted after growth, in one batched solve.  ValueError on rows that break
    _tree_data's contract, on targets whose squares overflow
    (check_target_squares) and on fewer than min_instances rows.
    """
    r, g, y = _tree_data(routing, regression, targets)
    check_target_squares(y)
    if len(y) < config.min_instances:
        raise ValueError(
            f"need at least min_instances={config.min_instances} rows, got {len(y)}"
        )
    global_sd = _popsd(y)
    d = r.shape[1]
    m = config.min_instances
    # Node rows [feature, threshold, left, right, count] in growth order, and each node's rows.
    nodes: list[list] = []
    members: list[np.ndarray] = []
    in_left = np.zeros(len(y), dtype=bool)

    def add(idx: np.ndarray) -> int:
        nodes.append([-1, 0.0, -1, -1, len(idx)])
        members.append(idx)
        return len(nodes) - 1

    # Each node of the level: (node, its rows ascending, those rows sorted per column).
    # Stable sorts: equal routing values keep ascending row order, as each node's own would.
    # Row indices stay intp: int32 would halve the orders and row sets, but its
    # index casts add numpy code pages to the resident set of every fit, however small.
    root = np.arange(len(y))
    level = [(add(root), root, np.argsort(r.T, axis=1, kind="stable"))]
    while level:
        # The nodes that may split, smallest first: (node, rows, orders, target sd).
        open_nodes = []
        for node, idx, order in level:
            if len(idx) < 2 * m:
                continue
            sd = _popsd(y[idx])
            if sd > 0.0 and sd >= config.sd_fraction * global_sd:
                open_nodes.append((node, idx, order, sd))
        open_nodes.sort(key=lambda entry: len(entry[1]))
        found = _best_splits(r, y, [(order, sd) for _, _, order, sd in open_nodes], m)
        level = []
        while open_nodes:
            # Taken off the list, a node's orders are freed once its children's are built.
            (node, idx, order, _), (gain, feature, threshold) = open_nodes.pop(), found.pop()
            if gain <= 0.0:
                continue
            go_left = r[idx, feature] <= threshold
            left, right = idx[go_left], idx[~go_left]
            # One mask gives both children's orders, each column keeping its sorted order.
            in_left[idx] = go_left
            to_left = in_left[order]
            nodes[node][:4] = feature, threshold, add(left), add(right)
            level.append((nodes[node][2], left, order[to_left].reshape(d, -1)))
            level.append((nodes[node][3], right, order[~to_left].reshape(d, -1)))
    beta, mae = _fit_nodes(g, y, members)
    return ModelTree.from_rows(nodes, mae, beta, d, g.shape[1])


def _adjust_factor(n: int, v: int, config: TreeConfig) -> float:
    if n <= v:
        return _SMALL_NODE_FACTOR
    return (n + config.pruning_factor * v) / (n - v)


def prune(
    tree: ModelTree,
    routing: np.ndarray,
    regression: np.ndarray,
    targets: np.ndarray,
    config: TreeConfig = TreeConfig(),
) -> ModelTree:
    """Collapse subtrees whose complexity-adjusted error beats their node model.

    Mean absolute error is inflated by (n + pruning_factor*v) / (n - v), with v
    the parameter count (per model: regression width + 1; per subtree: leaf
    models plus one per split).  The rows must be the ones the tree was grown
    on: routed from the root, they give each node the row set of growth, and
    ValueError is raised where a node's row count differs from its recorded
    count, and on rows that break _tree_data's contract, such as non-finite
    features or targets.  Works bottom-up on those row sets, re-emitting the
    kept nodes in preorder.
    """
    r, g, y = _tree_data(routing, regression, targets, tree)
    v_model = tree.regression_dim + 1
    near_zero = _NEAR_ZERO_ERROR_FRACTION * _popsd(y)
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    count, node_mae = tree.count.tolist(), tree.mae.tolist()
    # Each training row's raw prediction by the pruned subtree walked last, starting
    # from its raw leaf's: node_values gives a row the same bits in any batch.
    predictions = tree.node_values(tree.apply(r, np.zeros(len(r), dtype=np.intp)), g)
    rows: list[list] = []

    def walk(node: int, idx: np.ndarray) -> int:
        """Emit node's kept subtree, given its rows idx, and return its parameter count."""
        if len(idx) != count[node]:
            raise ValueError(
                f"node {node} receives {len(idx)} rows but was grown on {count[node]}: "
                "these are not the tree's training rows"
            )
        kept = len(rows)
        rows.append([-1, 0.0, -1, -1, count[node], node_mae[node], tree.beta[node]])
        if feature[node] < 0:
            return v_model
        # build_tree's own partition, so each child gets the rows it was grown on, ascending.
        go_left = r[idx, feature[node]] <= threshold[node]
        v_left = walk(left[node], idx[go_left])
        right_kept = len(rows)
        v_subtree = v_left + walk(right[node], idx[~go_left]) + 1
        subtree_err = _mean(np.abs(y[idx] - predictions[idx]))
        adjusted_node = node_mae[node] * _adjust_factor(len(idx), v_model, config)
        adjusted_subtree = subtree_err * _adjust_factor(len(idx), v_subtree, config)
        if not (adjusted_node <= adjusted_subtree or adjusted_node <= near_zero):
            rows[kept][:4] = feature[node], threshold[node], kept + 1, right_kept
            return v_subtree
        del rows[kept + 1 :]
        predictions[idx] = tree.node_values(node, g[idx])
        return v_model

    walk(0, np.arange(len(y)))
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
    ValueError unless routing and regression are finite 2-D matrices of the
    tree's widths with equal row counts.
    """
    r, g, _ = _tree_data(routing, regression, tree=tree)
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


SPLIT_KEYS = ("feature", "threshold", "left", "right")


def nodes_from_json(
    doc,
    path: str,
    feature_bound: int,
    leaf_keys: tuple[str, ...],
    split_keys: tuple[str, ...],
    read_payload: Callable[[list, str, bool], tuple],
) -> list[list]:
    """Preorder node rows of a nested JSON tree; ValueError on any malformed node.

    A node that holds any of SPLIT_KEYS splits.  A leaf holds exactly the
    payload keys leaf_keys, and a split exactly split_keys plus all four
    SPLIT_KEYS; its feature must lie in [0, feature_bound).
    read_payload(values, path, splits) reads the node's values, in leaf_keys
    or split_keys + SPLIT_KEYS order, and returns the node's payload.
    """
    rows: list[list] = []
    split_shape = split_keys + SPLIT_KEYS

    def add(node, where: str) -> int:
        splits = isinstance(node, dict) and not node.keys().isdisjoint(SPLIT_KEYS)
        values = json_fields(node, where, split_shape if splits else leaf_keys)
        index = len(rows)
        row = [-1, 0.0, -1, -1]
        rows.append(row)
        row.extend(read_payload(values, where, splits))
        if splits:
            feature, threshold, left, right = values[len(split_keys) :]
            row[0] = json_int(feature, f"{where}.feature", 0, feature_bound)
            row[1] = finite_number(threshold, f"{where}.threshold")
            row[2] = add(left, f"{where}.left")
            row[3] = add(right, f"{where}.right")
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
    routing, regression, root = json_fields(doc, "tree", ("routing_dim", "regression_dim", "root"))
    routing_dim = json_int(routing, "tree routing_dim", 0)
    regression_dim = json_int(regression, "tree regression_dim", 0)

    def read_payload(values: list, path: str, splits: bool) -> tuple:
        count, mae, model = values[:3]
        intercept, coefficients = json_fields(model, f"{path}.model", ("intercept", "coefficients"))
        intercept = finite_number(intercept, f"{path}.model.intercept")
        coefficients = finite_numbers(coefficients, f"{path}.model.coefficients", regression_dim)
        count = json_int(count, f"{path}.count", 1, 2**53)  # exact as a float
        mae = finite_number(mae, f"{path}.mae")
        return count, mae, [intercept, *coefficients]

    payload_keys = ("count", "mae", "model")
    rows = nodes_from_json(root, "tree.root", routing_dim, payload_keys, payload_keys, read_payload)
    return ModelTree.from_rows(rows, routing_dim, regression_dim)
