"""Hybrid pipeline: fuzzy memberships route a model tree over raw features."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import FEATURE_NAMES, Dataset, Project, effort_vector, feature_matrix
from .fcm import (
    FcmConfig,
    FuzzyInferenceModel,
    Standardization,
    build_fuzzy_model,
    fcm_cluster,
    membership_matrix,
)
from .mtree import ModelTree, TreeConfig, build_tree, predict_tree, prune, tree_from_json, tree_to_json

EFFORT_FLOOR_PH = 1.0

logger = logging.getLogger("fmtree")


@dataclass
class FmtModel:
    """Trained estimator: fuzzy membership model plus the tree routed on it."""

    fuzzy: FuzzyInferenceModel
    tree: ModelTree
    fcm_config: FcmConfig
    tree_config: TreeConfig
    feature_names: tuple[str, ...] = FEATURE_NAMES

    @property
    def standardization(self) -> Standardization | None:
        return self.fuzzy.standardization


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
    features = feature_matrix(train)
    efforts = effort_vector(train)
    standardization = Standardization.fit(features)
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
    tree = prune(build_tree(memberships, features, efforts, tree_config), tree_config)
    return FmtModel(fuzzy, tree, fcm_config, tree_config)


def _predict_features(model: FmtModel, features: np.ndarray) -> np.ndarray:
    memberships = membership_matrix(model.fuzzy, features)
    predictions = predict_tree(model.tree, memberships, features, model.tree_config)
    return np.maximum(predictions, EFFORT_FLOOR_PH)


def predict_fmt(model: FmtModel, project: Project) -> float:
    """Estimate effort (PH) for one project; outputs are floored at 1 PH."""
    return float(_predict_features(model, np.array([project.features()], dtype=float))[0])


def predict_fmt_dataset(model: FmtModel, dataset: Dataset) -> np.ndarray:
    return _predict_features(model, feature_matrix(dataset))


def fmt_to_json(model: FmtModel) -> dict:
    return {
        "kind": "fmt",
        "feature_names": list(model.feature_names),
        "fcm_config": {
            "k": model.fcm_config.k,
            "fuzzifier_m": model.fcm_config.fuzzifier_m,
            "tolerance": model.fcm_config.tolerance,
            "max_iterations": model.fcm_config.max_iterations,
            "seed": model.fcm_config.seed,
        },
        "tree_config": {
            "min_instances": model.tree_config.min_instances,
            "sd_fraction": model.tree_config.sd_fraction,
            "smoothing_k": model.tree_config.smoothing_k,
            "pruning_factor": model.tree_config.pruning_factor,
        },
        "fuzzy": model.fuzzy.to_json(),
        "tree": tree_to_json(model.tree),
    }


def _config_from_json(cls, doc, what: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


def fmt_from_json(doc: dict) -> FmtModel:
    """Rebuild a model from fmt_to_json output; ValueError on any malformed part."""
    if doc.get("kind") != "fmt":
        raise ValueError(f"expected model kind 'fmt', got {doc.get('kind')!r}")
    names = doc.get("feature_names")
    if names != list(FEATURE_NAMES):
        raise ValueError(f"fmt feature_names must be {list(FEATURE_NAMES)}, got {names!r}")
    fuzzy = FuzzyInferenceModel.from_json(doc.get("fuzzy"))
    tree = tree_from_json(doc.get("tree"))
    d, k = len(FEATURE_NAMES), fuzzy.cluster_count
    if fuzzy.feature_count != d:
        raise ValueError(f"fmt fuzzy centers must have {d} rows, got {fuzzy.feature_count}")
    if tree.routing_dim != d * k or tree.regression_dim != d:
        raise ValueError(
            f"fmt tree dimensions must be routing {d * k} / regression {d} for k={k}, "
            f"got {tree.routing_dim} / {tree.regression_dim}"
        )
    return FmtModel(
        fuzzy,
        tree,
        _config_from_json(FcmConfig, doc.get("fcm_config"), "fmt fcm_config"),
        _config_from_json(TreeConfig, doc.get("tree_config"), "fmt tree_config"),
    )
