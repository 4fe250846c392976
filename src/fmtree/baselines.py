"""Reference estimators: Huber-loss stochastic gradient boosting and log-space MLR."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    FEATURE_NAMES,
    Dataset,
    Project,
    effort_vector,
    feature_matrix,
    finite_number,
    json_int,
)
from .fmt import EFFORT_FLOOR_PH

MLR_PREDICTORS = ("ln_size", "productivity", "complexity")
VIF_ALARM = 4.0


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
class StageTree:
    """One boosting stage as parallel node arrays, the layout of scikit-learn's Tree.

    Node 0 is the root.  An internal node i sends a row to left[i] when
    row[feature[i]] <= threshold[i] and to right[i] otherwise.  A leaf has
    feature == left == right == -1 and predicts value[i].
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        for name in ("feature", "left", "right"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.intp))
        for name in ("threshold", "value"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

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


@dataclass
class TreeboostModel:
    """f0 plus a series of shallow trees; shrinkage scales every tree output."""

    f0: float
    shrinkage: float
    trees: list[StageTree] = field(default_factory=list)
    loss_trace: list[float] = field(default_factory=list)


def huber_loss(targets: np.ndarray, predictions: np.ndarray, delta: float) -> float:
    """Mean Huber loss: quadratic within delta of zero, linear beyond."""
    residuals = np.abs(np.asarray(targets, float) - np.asarray(predictions, float))
    if delta <= 0:
        return float(np.mean(residuals))
    quad = residuals <= delta
    out = np.where(quad, 0.5 * residuals**2, delta * (residuals - 0.5 * delta))
    return float(np.mean(out))


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

    Equal, bit for bit, to np.median and np.mean, which cost several times
    more on the few rows of a leaf.
    """
    ordered = np.sort(diff)
    mid = len(ordered) // 2
    med = float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)
    centered = diff - med
    clipped = np.sign(centered) * np.minimum(np.abs(centered), delta)
    return med + float(np.add.reduce(clipped) / len(clipped))


def _best_split(
    order: np.ndarray,
    sorted_x: np.ndarray,
    sorted_residuals: np.ndarray,
    residuals: np.ndarray,
    rows: np.ndarray,
) -> tuple[int, float] | None:
    """Least-squares split of the node holding `rows`, or None.

    `order` holds the stable argsort of each feature over all rows (one row
    of `order` per feature); `sorted_x` and `sorted_residuals` are the
    feature values and residuals in that order.  Masked to the node, `order`
    equals the node's own stable argsort.  All features are scanned in one
    pass; ties go to the lowest feature, then the lowest threshold.
    """
    n = len(rows)
    node_residuals = residuals[rows]
    if n < 2 or node_residuals.max() == node_residuals.min():
        return None
    # np.add.reduce sums in np.sum's order, so these equal np.sum and np.mean.
    parent_sse = float(np.add.reduce(node_residuals**2)) - n * float(
        np.add.reduce(node_residuals) / n
    ) ** 2
    member = np.zeros(len(residuals), dtype=bool)
    member[rows] = True
    in_node = member[order]
    vs = sorted_x[in_node].reshape(-1, n)
    rs = sorted_residuals[in_node].reshape(-1, n)
    cum = rs.cumsum(axis=1)
    cum2 = (rs * rs).cumsum(axis=1)
    total, total2 = cum[:, -1:], cum2[:, -1:]
    left, left2 = cum[:, :-1], cum2[:, :-1]
    nl = np.arange(1, n, dtype=float)
    nr = n - nl
    sse = (left2 - left**2 / nl) + ((total2 - left2) - (total - left) ** 2 / nr)
    gain = parent_sse - sse
    gain[vs[:, 1:] == vs[:, :-1]] = -np.inf
    cut = gain.argmax(axis=1)
    best = gain[np.arange(len(cut)), cut]
    usable = np.isfinite(best) & (best > 0.0)
    if not usable.any():
        return None
    feature = int(np.where(usable, best, -np.inf).argmax())
    j = cut[feature]
    return feature, float((vs[feature, j] + vs[feature, j + 1]) / 2.0)


def _grow_stage_tree(
    xs: np.ndarray, pseudo: np.ndarray, diff: np.ndarray, delta: float, max_depth: int
) -> StageTree:
    """Grow one stage depth first: splits fit the pseudo-residuals, and each
    leaf takes the Huber location step of its rows' raw residuals `diff`."""
    order = np.argsort(xs, axis=0, kind="stable").T
    sorted_x = np.take_along_axis(xs.T, order, axis=1)
    sorted_pseudo = pseudo[order]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def grow(rows: np.ndarray, depth_left: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        split = None
        if depth_left > 0:
            split = _best_split(order, sorted_x, sorted_pseudo, pseudo, rows)
        if split is None:
            if len(rows):
                value[node] = _stage_leaf_value(diff[rows], delta)
            return node
        feature[node], threshold[node] = split
        go_left = xs[rows, feature[node]] <= threshold[node]
        left[node] = grow(rows[go_left], depth_left - 1)
        right[node] = grow(rows[~go_left], depth_left - 1)
        return node

    grow(np.arange(len(pseudo)), max_depth)
    return StageTree(feature, threshold, left, right, value)


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
    x = feature_matrix(train)
    y = effort_vector(train)
    f0 = float(np.median(y))
    model = TreeboostModel(f0, config.shrinkage)
    if float(np.ptp(y)) == 0.0:
        return model
    current = np.full(len(y), f0)
    root = np.zeros(len(y), dtype=np.intp)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.n_trees):
        diff = y - current
        abs_diff = np.abs(diff)
        if float(abs_diff.max()) == 0.0:
            break
        delta = _quantile(abs_diff, config.huber_quantile)
        pseudo = np.where(abs_diff <= delta, diff, delta * np.sign(diff))
        keep = np.arange(len(y))
        trim = int(config.influence_trimming * len(y))
        if trim > 0:
            keep = np.argsort(np.abs(pseudo), kind="stable")[trim:]
            keep.sort()
        size = max(1, int(config.stochastic_fraction * len(keep)))
        sub = rng.choice(keep, size=size, replace=False)
        sub.sort()
        tree = _grow_stage_tree(x[sub], pseudo[sub], diff[sub], delta, config.max_depth)
        model.trees.append(tree)
        current = current + config.shrinkage * tree.value[tree.apply(x, root)]
        post_delta = _quantile(np.abs(y - current), config.huber_quantile)
        model.loss_trace.append(huber_loss(y, current, post_delta))
    return model


def _forest(trees: list[StageTree]) -> tuple[StageTree, np.ndarray]:
    """All stages joined into one StageTree, and the index of each stage's root."""
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(t, name) for t in trees])

    def links(name: str) -> np.ndarray:
        child = joined(name)
        return np.where(child >= 0, child + shift, -1)

    forest = StageTree(
        joined("feature"), joined("threshold"), links("left"), links("right"), joined("value")
    )
    return forest, roots


def _predict_rows(model: TreeboostModel, x: np.ndarray) -> np.ndarray:
    """Predict every row of x; the stages are added one at a time, in tree order."""
    total = np.zeros(len(x))
    if model.trees:
        forest, roots = _forest(model.trees)
        leaves = forest.apply(x, np.broadcast_to(roots[:, None], (len(roots), len(x))))
        for stage_values in forest.value[leaves]:
            total += stage_values
    return np.maximum(model.f0 + model.shrinkage * total, EFFORT_FLOOR_PH)


def predict_treeboost(model: TreeboostModel, project: Project) -> float:
    return float(_predict_rows(model, np.array([project.features()], dtype=float))[0])


def predict_treeboost_dataset(model: TreeboostModel, dataset: Dataset) -> np.ndarray:
    return _predict_rows(model, feature_matrix(dataset))


def _stage_to_json(tree: StageTree, node: int = 0) -> dict:
    if tree.feature[node] < 0:
        return {"value": float(tree.value[node])}
    return {
        "feature": int(tree.feature[node]),
        "threshold": float(tree.threshold[node]),
        "left": _stage_to_json(tree, int(tree.left[node])),
        "right": _stage_to_json(tree, int(tree.right[node])),
    }


def _stage_from_json(doc, where: str) -> StageTree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def add(node, path: str) -> int:
        if not isinstance(node, dict):
            raise ValueError(f"{path} must be a JSON object, got {node!r}")
        index = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        if set(node) == {"value"}:
            value[index] = finite_number(node["value"], f"{path}.value")
            return index
        if set(node) != {"feature", "threshold", "left", "right"}:
            raise ValueError(
                f"{path} must hold either 'value' or 'feature', 'threshold', 'left' "
                f"and 'right', got keys {sorted(node)}"
            )
        feature[index] = json_int(node["feature"], f"{path}.feature", 0, len(FEATURE_NAMES))
        threshold[index] = finite_number(node["threshold"], f"{path}.threshold")
        left[index] = add(node["left"], f"{path}.left")
        right[index] = add(node["right"], f"{path}.right")
        return index

    add(doc, where)
    return StageTree(feature, threshold, left, right, value)


def treeboost_to_json(model: TreeboostModel) -> dict:
    return {
        "kind": "treeboost",
        "f0": model.f0,
        "shrinkage": model.shrinkage,
        "trees": [_stage_to_json(t) for t in model.trees],
    }


def treeboost_from_json(doc: dict) -> TreeboostModel:
    """Rebuild a model from treeboost_to_json output; ValueError on any malformed part."""
    if doc.get("kind") != "treeboost":
        raise ValueError(f"expected model kind 'treeboost', got {doc.get('kind')!r}")
    trees = doc.get("trees")
    if not isinstance(trees, list):
        raise ValueError(f"treeboost 'trees' must be a list, got {trees!r}")
    return TreeboostModel(
        finite_number(doc.get("f0"), "treeboost f0"),
        finite_number(doc.get("shrinkage"), "treeboost shrinkage"),
        [_stage_from_json(t, f"trees[{i}]") for i, t in enumerate(trees)],
    )


@dataclass
class MlrModel:
    """Log-space linear regression with collinearity and significance diagnostics."""

    intercept: float
    coef_ln_size: float
    coef_productivity: float
    coef_complexity: float
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


def fit_mlr(train: Dataset) -> MlrModel:
    """Fit ln(effort) on [1, ln(size), productivity, complexity] by OLS."""
    if len(train) < 5:
        raise ValueError(f"need at least 5 training projects, got {len(train)}")
    features = feature_matrix(train)
    y = np.log(effort_vector(train))
    n = len(y)
    x = np.column_stack(
        [np.ones(n), np.log(features[:, 0]), features[:, 1], features[:, 2]]
    )
    beta, r2 = _ols(x, y)
    p = x.shape[1] - 1
    adjusted_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)

    residuals = y - x @ beta
    dof = n - x.shape[1]
    sigma2 = float(np.sum(residuals**2)) / dof
    covariance = sigma2 * np.linalg.inv(x.T @ x)
    se = np.sqrt(np.diag(covariance))
    t_all = beta / se
    names = ("intercept",) + MLR_PREDICTORS
    t_stats = {name: float(t_all[i]) for i, name in enumerate(names)}
    p_values = {name: t_two_sided_p(float(t_all[i]), dof) for i, name in enumerate(names)}

    vif: dict[str, float] = {}
    for i, name in enumerate(MLR_PREDICTORS, start=1):
        others = [j for j in range(1, x.shape[1]) if j != i]
        aux = np.column_stack([np.ones(n)] + [x[:, j] for j in others])
        _, aux_r2 = _ols(aux, x[:, i])
        vif[name] = float("inf") if aux_r2 >= 1.0 else 1.0 / (1.0 - aux_r2)

    return MlrModel(
        float(beta[0]),
        float(beta[1]),
        float(beta[2]),
        float(beta[3]),
        float(adjusted_r2),
        vif,
        t_stats,
        p_values,
    )


def predict_mlr(model: MlrModel, project: Project) -> float:
    """exp of the log-space score; positive by construction."""
    score = (
        model.intercept
        + model.coef_ln_size * math.log(project.size_ucp)
        + model.coef_productivity * project.productivity
        + model.coef_complexity * project.complexity
    )
    return math.exp(score)


def predict_mlr_dataset(model: MlrModel, dataset: Dataset) -> np.ndarray:
    return np.array([predict_mlr(model, p) for p in dataset])


def mlr_to_json(model: MlrModel, alpha: float = 0.05) -> dict:
    return {
        "kind": "mlr",
        "coefficients": {
            "intercept": model.intercept,
            "ln_size": model.coef_ln_size,
            "productivity": model.coef_productivity,
            "complexity": model.coef_complexity,
        },
        "diagnostics": {
            "adjusted_r2": model.adjusted_r2,
            "vif": dict(model.vif),
            "vif_alarm_threshold": VIF_ALARM,
            "vif_alarms": {k: v > VIF_ALARM for k, v in model.vif.items()},
            "t_stats": dict(model.t_stats),
            "p_values": dict(model.p_values),
            "alpha": alpha,
            "significant": {k: v <= alpha for k, v in model.p_values.items()},
        },
    }


def _number_map(value, what: str) -> dict[str, float]:
    """A JSON object of name -> number; diagnostics may be infinite or NaN."""
    if not isinstance(value, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value.values()
    ):
        raise ValueError(f"{what} must map names to numbers, got {value!r}")
    return {k: float(v) for k, v in value.items()}


def mlr_from_json(doc: dict) -> MlrModel:
    """Rebuild a model from mlr_to_json output; ValueError on any malformed part."""
    if doc.get("kind") != "mlr":
        raise ValueError(f"expected model kind 'mlr', got {doc.get('kind')!r}")
    coef = doc.get("coefficients")
    names = ("intercept",) + MLR_PREDICTORS
    if not isinstance(coef, dict) or sorted(coef) != sorted(names):
        raise ValueError(f"mlr coefficients must name exactly {', '.join(names)}, got {coef!r}")
    coefficients = [finite_number(coef[name], f"mlr coefficient {name}") for name in names]
    diag = doc.get("diagnostics")
    if not isinstance(diag, dict):
        raise ValueError(f"mlr diagnostics must be a JSON object, got {diag!r}")
    adjusted_r2 = diag.get("adjusted_r2")
    if isinstance(adjusted_r2, bool) or not isinstance(adjusted_r2, (int, float)):
        raise ValueError(f"mlr adjusted_r2 must be a number, got {adjusted_r2!r}")
    return MlrModel(
        *coefficients,
        float(adjusted_r2),
        _number_map(diag.get("vif"), "mlr vif"),
        _number_map(diag.get("t_stats"), "mlr t_stats"),
        _number_map(diag.get("p_values"), "mlr p_values"),
    )
