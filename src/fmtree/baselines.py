"""Reference estimators: Huber-loss stochastic gradient boosting and log-space MLR.

A Treeboost model holds its boosting stages in one `mtree.FlatTree` with one
value per leaf, and writes and reads each stage by the same nested-JSON node
codec as the model tree.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .data import (
    EFFORT_FLOOR_PH,
    FEATURE_NAMES,
    Dataset,
    check_field_types,
    finite_number,
    json_fields,
    json_number,
    model_fields,
)
from .evaluation import median_of_sorted
from .mtree import (
    TARGET_SQUARES_OVERFLOW,
    FlatTree,
    check_target_squares,
    nodes_from_json,
    nodes_to_json,
)

MLR_PREDICTORS = ("ln_size", "productivity", "complexity")
# The names of MlrModel.coefficients, in the order of the design matrix's columns.
MLR_TERMS = ("intercept",) + MLR_PREDICTORS
VIF_ALARM = 4.0
# The p-value at or below which mlr_to_json marks a coefficient significant.
MLR_ALPHA = 0.05
# The largest log-space MLR score whose exp is a finite float.
_MAX_LOG_EFFORT = math.log(np.finfo(float).max)
# Treeboost predict walks the rows in blocks of at most this many (stage, row)
# cells, which bounds its working set whatever the row and stage counts. It walks
# _PREDICT_CELLS // 64 stages at a time, so a block has room for 64 rows.
_PREDICT_CELLS = 2**13


@dataclass(frozen=True)
class TreeboostConfig:
    n_trees: int = 1000
    huber_quantile: float = 0.95
    shrinkage: float = 0.1
    stochastic_fraction: float = 0.5
    influence_trimming: float = 0.01
    max_depth: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, got {self.n_trees}")
        if not 0.0 < self.huber_quantile <= 1.0:
            raise ValueError(f"huber_quantile must be in (0, 1], got {self.huber_quantile}")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError(f"shrinkage must be in (0, 1], got {self.shrinkage}")
        if not 0.0 < self.stochastic_fraction <= 1.0:
            raise ValueError(
                f"stochastic_fraction must be in (0, 1], got {self.stochastic_fraction}"
            )
        if not 0.0 <= self.influence_trimming < 1.0:
            raise ValueError(
                f"influence_trimming must be in [0, 1), got {self.influence_trimming}"
            )
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {self.max_depth}")


@dataclass(eq=False)
class StageTree(FlatTree):
    """Boosting stages' nodes: a FlatTree whose leaf i predicts value[i]."""

    value: np.ndarray


class _StageTable:
    """A Treeboost node table being built, each column an array.array that grows in place."""

    def __init__(self) -> None:
        # feature, threshold, left, right and value, as StageTree holds them.
        self.columns = tuple(array(code) for code in "qdqqd")
        self.roots = array("q")

    def append(self, rows: list[list]) -> None:
        """Add one stage's preorder node rows [feature, threshold, left, right, value],
        its links shifted from stage to table indices."""
        feature, threshold, left, right, value = self.columns
        first = len(feature)
        self.roots.append(first)
        for f, t, low, high, v in rows:
            feature.append(f)
            threshold.append(t)
            left.append(low + first if low >= 0 else -1)
            right.append(high + first if high >= 0 else -1)
            value.append(v)

    def nodes(self) -> StageTree:
        return StageTree(*(np.frombuffer(c, c.typecode) for c in self.columns))

    def trees(self) -> np.ndarray:
        return np.frombuffer(self.roots, self.roots.typecode)


@dataclass
class TreeboostModel:
    """f0 plus a series of shallow trees; shrinkage scales every tree output.

    `nodes` holds every stage's nodes, stage after stage and each stage in
    preorder, with links that index `nodes`; `trees` holds each stage's root.
    """

    f0: float
    shrinkage: float
    nodes: StageTree = field(default_factory=lambda: _StageTable().nodes())
    trees: np.ndarray = field(default_factory=lambda: _StageTable().trees())
    loss_trace: list[float] = field(default_factory=list)


def huber_loss(targets: np.ndarray, predictions: np.ndarray, delta: float) -> float:
    """Mean Huber loss: quadratic within delta of zero, linear beyond."""
    return _mean_huber(np.abs(np.asarray(targets, float) - np.asarray(predictions, float)), delta)


def _mean_huber(residuals: np.ndarray, delta: float) -> float:
    """huber_loss of absolute residuals; np.add.reduce over the count is np.mean's sum."""
    if delta > 0:
        quad = residuals <= delta
        residuals = np.where(quad, 0.5 * residuals**2, delta * (residuals - 0.5 * delta))
    return float(np.add.reduce(residuals) / len(residuals))


def _quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) with the default linear method, bit for bit.

    Sorts instead of partitioning and repeats numpy's own interpolation
    (`_lerp`), which is much cheaper than np.quantile on small arrays.
    """
    ordered = np.sort(values)
    index = (len(ordered) - 1) * q
    low = math.floor(index)
    high = min(low + 1, len(ordered) - 1)
    t = index - low
    a, b = float(ordered[low]), float(ordered[high])
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _stage_leaf_value(diff: np.ndarray, delta: float) -> float:
    """Huber location step: median plus a clipped mean offset around it.

    The offset is summed in the order of `diff`, so only a copy is sorted.
    Clipping to [-delta, delta] gives the values of sign * min(|centered|,
    delta), and np.add.reduce over the count equals np.mean bit for bit, which
    costs several times more on the few rows of a leaf.
    """
    ordered = diff.copy()
    ordered.sort()
    med = median_of_sorted(ordered)
    clipped = np.minimum(np.maximum(diff - med, -delta), delta)
    return med + float(np.add.reduce(clipped) / len(clipped))


def _best_split(
    order: np.ndarray,
    sorted_x: np.ndarray,
    sorted_residuals: np.ndarray,
    residuals: np.ndarray,
    rows: np.ndarray,
    cuts: np.ndarray,
) -> tuple[int, float] | None:
    """Least-squares split of the node holding `rows`, or None.

    `order` holds the stable argsort of each feature over all rows (one row
    of `order` per feature); `sorted_x` and `sorted_residuals` are the
    feature values and residuals in that order.  Masked to the node, `order`
    equals the node's own stable argsort; a node of every row needs no mask.
    `cuts` is [1.0, ..., len(residuals) - 1.0].  All features are scanned in
    one pass; ties go to the lowest feature, then the lowest threshold.
    """
    n = len(rows)
    if n < 2:
        return None
    if n == len(residuals):
        node_residuals, vs, rs = residuals, sorted_x, sorted_residuals
    else:
        node_residuals = residuals[rows]
        member = np.zeros(len(residuals), dtype=bool)
        member[rows] = True
        in_node = member[order]
        vs = sorted_x[in_node].reshape(-1, n)
        rs = sorted_residuals[in_node].reshape(-1, n)
    if np.maximum.reduce(node_residuals) == np.minimum.reduce(node_residuals):
        return None
    # np.add.reduce sums in np.sum's order, so these equal np.sum and np.mean.
    parent_sse = float(np.add.reduce(node_residuals**2)) - n * float(
        np.add.reduce(node_residuals) / n
    ) ** 2
    cum = rs.cumsum(axis=1)
    cum2 = (rs * rs).cumsum(axis=1)
    total, total2 = cum[:, -1:], cum2[:, -1:]
    left, left2 = cum[:, :-1], cum2[:, :-1]
    # Views of cuts: nl = 1, ..., n - 1 rows go left, and nr = n - nl right.
    nl, nr = cuts[: n - 1], cuts[n - 2 :: -1]
    sse = (left2 - left**2 / nl) + ((total2 - left2) - (total - left) ** 2 / nr)
    gain = parent_sse - sse
    gain[vs[:, 1:] == vs[:, :-1]] = -np.inf
    # The lowest feature of the highest finite, positive best gain; NaN never wins.
    feature, top = -1, 0.0
    for f, best in enumerate(np.maximum.reduce(gain, axis=1).tolist()):
        if top < best < math.inf:
            feature, top = f, best
    if feature < 0:
        return None
    j = int(gain[feature].argmax())
    return feature, float((vs[feature, j] + vs[feature, j + 1]) / 2.0)


def _grow_stage_tree(
    x: np.ndarray, sub: np.ndarray, pseudo: np.ndarray, diff: np.ndarray, delta: float, depth: int
) -> tuple[list[list], np.ndarray]:
    """Grow one stage depth first on the rows `sub` of x: splits fit the
    pseudo-residuals, and each leaf takes the Huber location step of its rows'
    raw residuals `diff`.  Each split also routes every row of x by the same
    `<=` test, so the stage's value for each row comes back with its preorder
    node rows [feature, threshold, left, right, value].
    """
    xs, ps, ds = x[sub], pseudo[sub], diff[sub]
    d = xs.shape[1]
    order = np.argsort(xs, axis=0, kind="stable").T
    # Gathered through one flat index, as mtree's scan does.
    sorted_x = xs.ravel()[order * d + np.arange(d)[:, None]]
    sorted_pseudo = ps[order]
    cuts = np.arange(1.0, len(sub))
    step = np.empty(len(x))
    # Preorder node rows [feature, threshold, left, right, value].
    nodes: list[list] = []

    def grow(rows: np.ndarray, routed: np.ndarray, depth_left: int) -> int:
        """Grow the node of subsample positions `rows` and rows `routed` of x."""
        node = len(nodes)
        row = [-1, 0.0, -1, -1, 0.0]
        nodes.append(row)
        split = depth_left > 0 and _best_split(order, sorted_x, sorted_pseudo, ps, rows, cuts)
        if not split:
            if len(rows):
                row[4] = _stage_leaf_value(ds[rows], delta)
            step[routed] = row[4]
            return node
        feature, threshold = split
        # One column's rows index faster than xs[rows, feature].
        go_left = xs.T[feature][rows] <= threshold
        send_left = x.T[feature][routed] <= threshold
        row[:4] = (
            feature,
            threshold,
            grow(rows[go_left], routed[send_left], depth_left - 1),
            grow(rows[~go_left], routed[~send_left], depth_left - 1),
        )
        return node

    grow(np.arange(len(sub)), np.arange(len(x)), depth)
    return nodes, step


def fit_treeboost(train: Dataset, config: TreeboostConfig = TreeboostConfig()) -> TreeboostModel:
    """Stochastic gradient boosting of shallow trees under Huber loss.

    Each round: residuals against the current fit are clipped at delta (the
    huber_quantile of their magnitudes) to form pseudo-residuals; the
    influence_trimming fraction of rows with the smallest pseudo-residual
    magnitudes is dropped; a stochastic_fraction subsample of the remainder
    grows a depth-bounded tree; leaf values are robust Huber location steps of
    the in-leaf residuals.  Predictions accumulate shrinkage-scaled tree
    outputs on top of the median starting value f0.
    """
    if len(train) < 10:
        raise ValueError(f"need at least 10 training projects, got {len(train)}")
    x = train.features
    y = train.efforts
    check_target_squares(y)
    f0 = median_of_sorted(np.sort(y))
    current = np.full(len(y), f0)
    rng = np.random.default_rng(config.seed)
    trim = int(config.influence_trimming * len(y))
    # Each round's residuals and delta, which also give the previous round's loss.
    diff = y - current
    abs_diff = np.abs(diff)
    delta = _quantile(abs_diff, config.huber_quantile)
    table, loss_trace = _StageTable(), []
    for _ in range(config.n_trees):
        if np.maximum.reduce(abs_diff) == 0.0:
            break
        pseudo = np.where(abs_diff <= delta, diff, delta * np.sign(diff))
        keep = np.arange(len(y))
        if trim > 0:
            keep = np.argsort(np.abs(pseudo), kind="stable")[trim:]
            keep.sort()
        size = max(1, int(config.stochastic_fraction * len(keep)))
        sub = rng.choice(keep, size=size, replace=False)
        sub.sort()
        # The split scans square partial sums of the pseudo-residuals, which can
        # overflow while the targets' own sum of squares does not.
        try:
            with np.errstate(over="raise"):
                rows, step = _grow_stage_tree(x, sub, pseudo, diff, delta, config.max_depth)
        except FloatingPointError:
            raise ValueError(TARGET_SQUARES_OVERFLOW) from None
        table.append(rows)
        current = current + config.shrinkage * step
        diff = y - current
        abs_diff = np.abs(diff)
        delta = _quantile(abs_diff, config.huber_quantile)
        loss_trace.append(_mean_huber(abs_diff, delta))
    return TreeboostModel(f0, config.shrinkage, table.nodes(), table.trees(), loss_trace)


def predict_treeboost_dataset(model: TreeboostModel, dataset: Dataset) -> np.ndarray:
    """Predict every project, adding stages in tree order; finite outputs are floored at 1 PH.

    The stages are walked a chunk at a time and the rows go through each chunk
    in blocks of at most _PREDICT_CELLS (stage, row) cells. Each block's stage
    values are added to its rows' running totals by one ordered accumulate, so
    every row's sum is ((0 + v0) + v1) + ... in tree order, whatever the blocks.
    """
    x = dataset.features
    nodes = model.nodes
    total = np.zeros(len(x))
    chunk = max(1, _PREDICT_CELLS // 64)
    for first in range(0, len(model.trees), chunk):
        roots = model.trees[first : first + chunk]
        block = _PREDICT_CELLS // len(roots)
        for start in range(0, len(x), block):
            rows, part = x[start : start + block], total[start : start + block]
            leaves = nodes.apply(rows, np.broadcast_to(roots[:, None], (len(roots), len(rows))))
            # An accumulate adds in order along the stages; a reduce may sum pairwise.
            part[:] = np.add.accumulate(np.vstack((part, nodes.value[leaves])))[-1]
    predictions = model.f0 + model.shrinkage * total
    return np.maximum(predictions, EFFORT_FLOOR_PH, out=predictions, where=np.isfinite(predictions))


def _stage_payload(values: list, path: str, splits: bool) -> tuple:
    return (0.0,) if splits else (finite_number(values[0], f"{path}.value"),)


def treeboost_to_json(model: TreeboostModel) -> dict:
    nodes = model.nodes

    def payload(i: int) -> dict:
        return {"value": float(nodes.value[i])} if nodes.feature[i] < 0 else {}

    return {
        "kind": "treeboost",
        "f0": model.f0,
        "shrinkage": model.shrinkage,
        "trees": [nodes_to_json(nodes, payload, root) for root in model.trees.tolist()],
    }


def treeboost_from_json(doc: dict) -> TreeboostModel:
    """Rebuild a model from treeboost_to_json output; ValueError on any malformed part."""
    f0, shrinkage, trees = model_fields(doc, "treeboost", ("f0", "shrinkage", "trees"))
    if not isinstance(trees, list):
        raise ValueError(f"treeboost 'trees' must be a list, got {trees!r}")
    f0 = finite_number(f0, "treeboost f0")
    shrinkage = finite_number(shrinkage, "treeboost shrinkage")
    if not 0.0 < shrinkage <= 1.0:
        raise ValueError(f"treeboost shrinkage must be in (0, 1], got {shrinkage!r}")
    table = _StageTable()
    for i, t in enumerate(trees):
        table.append(
            nodes_from_json(t, f"trees[{i}]", len(FEATURE_NAMES), ("value",), (), _stage_payload)
        )
    return TreeboostModel(f0, shrinkage, table.nodes(), table.trees())


@dataclass
class MlrModel:
    """Log-space linear regression with collinearity and significance diagnostics."""

    coefficients: dict[str, float]  # keyed by MLR_TERMS
    adjusted_r2: float
    vif: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b); y = 1 - x is passed to keep its digits.

    Lentz's evaluation of the continued fraction (Numerical Recipes 6.4), on
    I_x(a, b) itself or on 1 - I_y(b, a), whichever converges quickly.
    """
    if x == 0.0:
        return 0.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(b, a, y, x)
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for numerator in (even, odd):
            d = 1.0 / guard(1.0 + numerator * d)
            c = guard(1.0 + numerator / c)
            fraction *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    log_front = (
        a * math.log(x) + b * math.log(y) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    return math.exp(log_front) * fraction / a


def t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided tail 2 P(T > |t|) of Student's t with dof degrees of freedom.

    The tail is I_x(dof/2, 1/2) at x = dof / (dof + t^2).
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    return _incomplete_beta(dof / 2.0, 0.5, 1.0 / (1.0 + t2 / dof), 1.0 / (1.0 + dof / t2))


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (beta, R^2); raises on rank deficiency."""
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise ValueError("collinear design: predictors are linearly dependent")
    residuals = y - x @ beta
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if tss == 0.0 else 1.0 - float(np.sum(residuals**2)) / tss
    return beta, r2


def fit_mlr(train: Dataset, config: None = None) -> MlrModel:
    """Fit ln(effort) on [1, ln(size), productivity, complexity] by OLS; MLR has no config."""
    if len(train) < 5:
        raise ValueError(f"need at least 5 training projects, got {len(train)}")
    y = np.log(train.efforts)
    n = len(y)
    x = np.column_stack([np.ones(n), np.log(train.features[:, 0]), train.features[:, 1:]])
    beta, r2 = _ols(x, y)
    p = x.shape[1] - 1
    adjusted_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)

    residuals = y - x @ beta
    dof = n - x.shape[1]
    sigma2 = float(np.sum(residuals**2)) / dof
    covariance = sigma2 * np.linalg.inv(x.T @ x)
    se = np.sqrt(np.diag(covariance))
    t_all = beta / se
    coefficients = {name: float(beta[i]) for i, name in enumerate(MLR_TERMS)}
    t_stats = {name: float(t_all[i]) for i, name in enumerate(MLR_TERMS)}
    p_values = {name: t_two_sided_p(float(t_all[i]), dof) for i, name in enumerate(MLR_TERMS)}

    vif: dict[str, float] = {}
    for i, name in enumerate(MLR_PREDICTORS, start=1):
        others = [j for j in range(1, x.shape[1]) if j != i]
        aux = np.column_stack([np.ones(n)] + [x[:, j] for j in others])
        _, aux_r2 = _ols(aux, x[:, i])
        vif[name] = float("inf") if aux_r2 >= 1.0 else 1.0 / (1.0 - aux_r2)

    return MlrModel(coefficients, float(adjusted_r2), vif, t_stats, p_values)


def predict_mlr_dataset(model: MlrModel, dataset: Dataset) -> np.ndarray:
    """exp of each project's log-space score; inf where that overflows.

    math.log and math.exp run row by row: numpy's vectorized exp and log can
    round differently in the last bit.
    """
    b0, b1, b2, b3 = (model.coefficients[name] for name in MLR_TERMS)
    predictions = []
    for size, productivity, complexity in dataset.features.tolist():
        score = b0 + b1 * math.log(size) + b2 * productivity + b3 * complexity
        predictions.append(math.inf if score > _MAX_LOG_EFFORT else math.exp(score))
    return np.array(predictions)


def mlr_to_json(model: MlrModel) -> dict:
    return {
        "kind": "mlr",
        "coefficients": dict(model.coefficients),
        "diagnostics": {
            "adjusted_r2": model.adjusted_r2,
            "vif": dict(model.vif),
            "vif_alarm_threshold": VIF_ALARM,
            "vif_alarms": {k: v > VIF_ALARM for k, v in model.vif.items()},
            "t_stats": dict(model.t_stats),
            "p_values": dict(model.p_values),
            "alpha": MLR_ALPHA,
            "significant": {k: v <= MLR_ALPHA for k, v in model.p_values.items()},
        },
    }


def _number_map(value, what: str, names: tuple[str, ...]) -> dict[str, float]:
    """A JSON object of exactly `names` -> number; diagnostics may be infinite or NaN."""
    values = json_fields(value, what, names)
    return {name: json_number(v, f"{what} {name}") for name, v in zip(names, values)}


def mlr_from_json(doc: dict) -> MlrModel:
    """Rebuild a model from mlr_to_json output; ValueError on any malformed part."""
    coef, diag = model_fields(doc, "mlr", ("coefficients", "diagnostics"))
    coef = json_fields(coef, "mlr coefficients", MLR_TERMS)
    r2, vif, _, vif_alarms, t_stats, p_values, _, significant = json_fields(
        diag, "mlr diagnostics", ("adjusted_r2", "vif", "vif_alarm_threshold", "vif_alarms",
                                  "t_stats", "p_values", "alpha", "significant")
    )
    # The writer derives these two from vif and p_values; only their keys are read.
    json_fields(vif_alarms, "mlr vif_alarms", MLR_PREDICTORS)
    json_fields(significant, "mlr significant", MLR_TERMS)
    return MlrModel(
        {name: finite_number(v, f"mlr coefficient {name}") for name, v in zip(MLR_TERMS, coef)},
        json_number(r2, "mlr adjusted_r2"),
        _number_map(vif, "mlr vif", MLR_PREDICTORS),
        _number_map(t_stats, "mlr t_stats", MLR_TERMS),
        _number_map(p_values, "mlr p_values", MLR_TERMS),
    )
