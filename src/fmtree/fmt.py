"""Hybrid pipeline: fuzzy memberships route a model tree over raw features."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import EFFORT_FLOOR_PH, FEATURE_NAMES, Dataset, json_fields, model_fields
from .fcm import (
    FcmConfig,
    FuzzyInferenceModel,
    Standardization,
    build_fuzzy_model,
    fcm_cluster,
    membership_matrix,
)
from .mtree import ModelTree, TreeConfig, build_tree, predict_tree, prune, tree_from_json, tree_to_json

logger = logging.getLogger("fmtree")


@dataclass
class FmtModel:
    """Trained estimator: fuzzy membership model plus the tree routed on it."""

    fuzzy: FuzzyInferenceModel
    tree: ModelTree
    fcm_config: FcmConfig
    tree_config: TreeConfig


def train_fmt(
    train: Dataset,
    fcm_config: FcmConfig = FcmConfig(),
    tree_config: TreeConfig = TreeConfig(),
) -> FmtModel:
    """Fit the full pipeline on a training dataset.

    Features are z-scored, clustered with FCM, and turned into Gaussian
    membership functions; the model tree then routes on the resulting
    membership columns while leaf models regress effort on the raw features.
    """
    if len(train) < max(fcm_config.k, tree_config.min_instances):
        raise ValueError(
            f"training set of {len(train)} is smaller than required by "
            f"k={fcm_config.k} / min_instances={tree_config.min_instances}"
        )
    features = train.features
    standardization = Standardization.fit(features, FEATURE_NAMES)
    z = standardization.apply(features)
    partition = fcm_cluster(z, fcm_config)
    if not partition.converged:
        logger.warning(
            "FCM stopped at max_iterations=%d without converging: last membership change "
            "%.3g, tolerance %g",
            len(partition.objective_trace),
            partition.final_shift,
            fcm_config.tolerance,
        )
    fuzzy = build_fuzzy_model(partition, z, standardization)
    memberships = membership_matrix(fuzzy, features)
    efforts = train.efforts
    grown = build_tree(memberships, features, efforts, tree_config)
    tree = prune(grown, memberships, features, efforts, tree_config)
    return FmtModel(fuzzy, tree, fcm_config, tree_config)


def predict_fmt_dataset(model: FmtModel, dataset: Dataset) -> np.ndarray:
    """Estimate effort (PH) for every project; finite outputs are floored at 1 PH."""
    features = dataset.features
    memberships = membership_matrix(model.fuzzy, features)
    predictions = predict_tree(model.tree, memberships, features, model.tree_config)
    return np.maximum(predictions, EFFORT_FLOOR_PH, out=predictions, where=np.isfinite(predictions))


def fmt_to_json(model: FmtModel) -> dict:
    return {
        "kind": "fmt",
        "feature_names": list(FEATURE_NAMES),
        "fcm_config": asdict(model.fcm_config),
        "tree_config": asdict(model.tree_config),
        "fuzzy": model.fuzzy.to_json(),
        "tree": tree_to_json(model.tree),
    }


def _config_from_json(cls, doc, what: str):
    return cls(*json_fields(doc, what, tuple(field.name for field in fields(cls))))


def fmt_from_json(doc: dict) -> FmtModel:
    """Rebuild a model from fmt_to_json output; ValueError on any malformed part."""
    names, fcm_config, tree_config, fuzzy, tree = model_fields(
        doc, "fmt", ("feature_names", "fcm_config", "tree_config", "fuzzy", "tree")
    )
    if names != list(FEATURE_NAMES):
        raise ValueError(f"fmt feature_names must be {list(FEATURE_NAMES)}, got {names!r}")
    fuzzy = FuzzyInferenceModel.from_json(fuzzy)
    tree = tree_from_json(tree)
    d, k = len(FEATURE_NAMES), fuzzy.cluster_count
    if fuzzy.feature_count != d:
        raise ValueError(f"fmt fuzzy centers must have {d} rows, got {fuzzy.feature_count}")
    if tree.routing_dim != d * k or tree.regression_dim != d:
        raise ValueError(
            f"fmt tree dimensions must be routing {d * k} / regression {d} for k={k}, "
            f"got {tree.routing_dim} / {tree.regression_dim}"
        )
    fcm_config = _config_from_json(FcmConfig, fcm_config, "fmt fcm_config")
    if fcm_config.k != k:
        raise ValueError(f"fmt fcm_config k={fcm_config.k} does not match the {k} fuzzy clusters")
    tree_config = _config_from_json(TreeConfig, tree_config, "fmt tree_config")
    return FmtModel(fuzzy, tree, fcm_config, tree_config)
