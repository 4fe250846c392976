"""Fuzzy c-means clustering and the Gaussian fuzzy inference model built from it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import finite_numbers

_SIGMA_FLOOR_SCALE = 1e-6


@dataclass(frozen=True)
class FcmConfig:
    """Knobs for fuzzy c-means.

    k: number of clusters (k=1 degenerates to a single all-ones partition).
    fuzzifier_m: membership exponent, strictly greater than 1.
    tolerance: stop once the largest membership change falls below it.
    """

    k: int = 3
    fuzzifier_m: float = 2.0
    tolerance: float = 1e-6
    max_iterations: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not self.fuzzifier_m > 1.0:
            raise ValueError(f"fuzzifier_m must exceed 1, got {self.fuzzifier_m}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass
class FuzzyPartition:
    """FCM output: cluster centers, membership matrix, objective history.

    converged is False when the loop stopped at max_iterations with the
    largest membership change, final_shift, still at or above the tolerance.
    """

    centers: np.ndarray  # (k, d)
    memberships: np.ndarray  # (n, k), rows sum to 1
    objective_trace: list[float]
    fuzzifier_m: float
    converged: bool
    final_shift: float


@dataclass
class Standardization:
    """Per-feature z-score parameters learned on training data."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardization":
        x = np.asarray(features, dtype=float)
        sd = x.std(axis=0)
        return cls(x.mean(axis=0), np.where(sd > 0, sd, 1.0))

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self.mean) / self.scale

    def to_json(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_json(cls, doc: dict, features: int) -> "Standardization":
        """Rebuild from to_json output for `features` features; ValueError if malformed."""
        if not isinstance(doc, dict):
            raise ValueError(f"standardization must be a JSON object, got {doc!r}")
        mean = finite_numbers(doc.get("mean"), "standardization mean", features)
        scale = finite_numbers(doc.get("scale"), "standardization scale", features)
        if min(scale) <= 0:
            raise ValueError(f"standardization scale must be positive, got {scale}")
        return cls(np.array(mean), np.array(scale))


@dataclass
class FuzzyInferenceModel:
    """One Gaussian membership function per (feature, cluster) pair.

    centers and sigmas are (d, k) arrays in the model's own feature space; if a
    standardization is attached, inputs are z-scored with it before evaluation.
    """

    centers: np.ndarray
    sigmas: np.ndarray
    standardization: Standardization | None = None

    @property
    def feature_count(self) -> int:
        return self.centers.shape[0]

    @property
    def cluster_count(self) -> int:
        return self.centers.shape[1]

    def to_json(self) -> dict:
        return {
            "centers": self.centers.tolist(),
            "sigmas": self.sigmas.tolist(),
            "standardization": None
            if self.standardization is None
            else self.standardization.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FuzzyInferenceModel":
        """Rebuild from to_json output; ValueError on any malformed part."""
        if not isinstance(doc, dict):
            raise ValueError(f"fuzzy model must be a JSON object, got {doc!r}")
        centers = _matrix_from_json(doc.get("centers"), "fuzzy centers")
        sigmas = _matrix_from_json(doc.get("sigmas"), "fuzzy sigmas")
        if sigmas.shape != centers.shape:
            raise ValueError(
                f"fuzzy sigmas have shape {sigmas.shape} but centers {centers.shape}"
            )
        if not np.all(sigmas > 0):
            raise ValueError("fuzzy sigmas must be positive")
        std = doc.get("standardization")
        return cls(
            centers,
            sigmas,
            None if std is None else Standardization.from_json(std, len(centers)),
        )


def _matrix_from_json(value, what: str) -> np.ndarray:
    """A non-empty JSON list of equally long, non-empty lists of finite numbers."""
    if not (isinstance(value, list) and value and isinstance(value[0], list) and value[0]):
        raise ValueError(f"{what} must be a list of lists of numbers, got {value!r}")
    width = len(value[0])
    return np.array([finite_numbers(row, f"{what}[{i}]", width) for i, row in enumerate(value)])


def _as_feature_matrix(features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x


# fcm_cluster keeps squared distances and memberships cluster-major, as (k, n)
# arrays, so that each elementwise step runs over n contiguous values instead
# of n rows of k.  Every sum over clusters is still taken in the order the
# (n, k) layout gives it.  Squared distances add the features one after
# another, as numpy's broadcast sum does for fewer than 8 features (numpy sums
# pairwise from 8 terms on), so for such inputs, the 3 features of an FMT
# included, the results are the same to the last bit as the broadcast loop's.


def _row_major(at: np.ndarray) -> np.ndarray:
    """(n, k) C-ordered copy of a (k, n) array, filled one column at a time."""
    a = np.empty(at.shape[::-1])
    for c, row in enumerate(at):
        a[:, c] = row
    return a


def _squared_distances_t(xt: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(k, n) squared distances from each center to each column of the (d, n) xt."""
    d2t = (xt[0] - centers[:, :1]) ** 2
    for j in range(1, len(xt)):
        d2t += (xt[j] - centers[:, j : j + 1]) ** 2
    return d2t


def _memberships_from_sqdist(d2: np.ndarray, fuzzifier_m: float) -> np.ndarray:
    """(n, k) memberships from (n, k) squared distances."""
    u = np.empty_like(d2)
    zero_rows = d2.min(axis=1) == 0.0
    if np.any(zero_rows):
        # A point sitting exactly on a center gets full membership there.
        u[zero_rows] = 0.0
        rows = np.nonzero(zero_rows)[0]
        u[rows, np.argmax(d2[rows] == 0.0, axis=1)] = 1.0
    regular = ~zero_rows
    if np.any(regular):
        d2r = d2[regular]
        ratio = d2r / d2r.min(axis=1, keepdims=True)
        w = ratio ** (-1.0 / (fuzzifier_m - 1.0))
        u[regular] = w / w.sum(axis=1, keepdims=True)
    return u


def _memberships_t(d2t: np.ndarray, fuzzifier_m: float) -> np.ndarray:
    """_memberships_from_sqdist on the (k, n) layout."""
    nearest = d2t.min(axis=0)
    if not nearest.all():
        return _memberships_from_sqdist(_row_major(d2t), fuzzifier_m).T
    w = (d2t / nearest) ** (-1.0 / (fuzzifier_m - 1.0))
    w /= _row_major(w).sum(axis=1)
    return w


def fcm_cluster(features: np.ndarray, config: FcmConfig = FcmConfig()) -> FuzzyPartition:
    """Cluster rows of `features` with Bezdek's fuzzy c-means.

    Memberships are initialized from a seeded uniform draw (rows normalized),
    then centers and memberships alternate until the largest membership change
    drops below `config.tolerance` or `config.max_iterations` is hit.  The
    recorded objective J_m = sum_i sum_c u_ic^m ||x_i - v_c||^2 is
    non-increasing across iterations.
    """
    x = _as_feature_matrix(features)
    n, d = x.shape
    if n < config.k:
        raise ValueError(f"need at least k={config.k} points, got {n}")
    if config.k >= 2 and bool(np.all(x == x[0])):
        raise ValueError("degenerate geometry: all points identical")

    rng = np.random.default_rng(config.seed)
    u = rng.random((n, config.k))
    u /= u.sum(axis=1, keepdims=True)

    m = config.fuzzifier_m
    xt = np.ascontiguousarray(x.T)
    ut = u.T
    umt = ut**m
    centers = np.zeros((config.k, d))
    trace: list[float] = []
    for _ in range(config.max_iterations):
        weights = _row_major(umt).sum(axis=0)
        fresh = weights > 0
        centers[fresh] = (umt[fresh] @ x) / weights[fresh, None]
        d2t = _squared_distances_t(xt, centers)
        ut_next = _memberships_t(d2t, m)
        umt = ut_next**m
        trace.append(float(_row_major(umt * d2t).sum()))
        shift = float(np.abs(ut_next - ut).max())
        ut = ut_next
        if shift < config.tolerance:
            break
    converged = shift < config.tolerance
    return FuzzyPartition(centers.copy(), _row_major(ut), trace, m, converged, shift)


def build_fuzzy_model(
    partition: FuzzyPartition,
    features: np.ndarray,
    standardization: Standardization | None = None,
) -> FuzzyInferenceModel:
    """Derive Gaussian membership functions from an FCM partition.

    Per (feature j, cluster c): the Gaussian center is the cluster center's
    j-th coordinate and the width is the membership-weighted standard
    deviation sqrt(sum_i u_ic^m (x_ij - c_jc)^2 / sum_i u_ic^m), floored at
    1e-6 of the feature's range so no function collapses to a spike.
    """
    x = _as_feature_matrix(features)
    n, d = x.shape
    if partition.memberships.shape[0] != n or partition.centers.shape[1] != d:
        raise ValueError("dimension mismatch between partition and features")
    um = partition.memberships ** partition.fuzzifier_m
    centers = partition.centers.T.copy()  # (d, k)
    dev2 = (x[:, :, None] - centers[None, :, :]) ** 2
    var = np.einsum("ic,ijc->jc", um, dev2) / um.sum(axis=0)[None, :]
    ranges = x.max(axis=0) - x.min(axis=0)
    floor = np.where(ranges > 0, _SIGMA_FLOOR_SCALE * ranges, _SIGMA_FLOOR_SCALE)
    sigmas = np.maximum(np.sqrt(var), floor[:, None])
    return FuzzyInferenceModel(centers, sigmas, standardization)


def membership_matrix(model: FuzzyInferenceModel, features: np.ndarray) -> np.ndarray:
    """Evaluate all Gaussian functions on each row.

    Returns an (m, d*k) matrix, columns ordered feature-major: all clusters of
    feature 0, then all clusters of feature 1, and so on.
    """
    x = _as_feature_matrix(features)
    if x.shape[1] != model.feature_count:
        raise ValueError(
            f"dimension mismatch: model expects {model.feature_count} features, got {x.shape[1]}"
        )
    if model.standardization is not None:
        x = model.standardization.apply(x)
    z = (x[:, :, None] - model.centers[None, :, :]) / model.sigmas[None, :, :]
    values = np.exp(-0.5 * z * z)
    return values.reshape(x.shape[0], model.feature_count * model.cluster_count)
