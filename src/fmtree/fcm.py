"""Fuzzy c-means clustering and the Gaussian fuzzy inference model built from it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import check_field_types, finite_numbers, json_fields

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
        check_field_types(self)
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
    def fit(cls, features: np.ndarray, names: Sequence[str] = ()) -> "Standardization":
        """Column means and population sds, 1 for a constant column.

        ValueError if a column's sd is not finite, or is 0 although its values
        differ (their squared deviations underflow), naming it by `names`, if
        given, or else by its index.
        """
        x = np.asarray(features, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a ValueError
            sd = x.std(axis=0)
        finite = np.isfinite(sd)
        underflow = (sd == 0.0) & (x != x[:1]).any(axis=0)
        if not finite.all() or underflow.any():
            j = int(np.argmax(~finite | underflow))
            name = names[j] if names else f"feature {j}"
            if finite[j]:
                raise ValueError(
                    f"cannot standardize {name}: its standard deviation is 0 although its "
                    "values differ; its values are too small in magnitude"
                )
            raise ValueError(
                f"cannot standardize {name}: its standard deviation is not finite ({sd[j]}); "
                "its values are too large in magnitude"
            )
        return cls(x.mean(axis=0), np.where(sd > 0, sd, 1.0))

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self.mean) / self.scale

    def to_json(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_json(cls, doc: dict, features: int) -> "Standardization":
        """Rebuild from to_json output for `features` features; ValueError if malformed."""
        mean, scale = json_fields(doc, "standardization", ("mean", "scale"))
        mean = finite_numbers(mean, "standardization mean", features)
        scale = finite_numbers(scale, "standardization scale", features)
        if min(scale) <= 0:
            raise ValueError(f"standardization scale must be positive, got {scale}")
        return cls(np.array(mean), np.array(scale))


@dataclass
class FuzzyInferenceModel:
    """One Gaussian membership function per (feature, cluster) pair.

    centers and sigmas are (d, k) arrays in the z-scored feature space; inputs
    are z-scored with the standardization before evaluation.
    """

    centers: np.ndarray
    sigmas: np.ndarray
    standardization: Standardization

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
            "standardization": self.standardization.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FuzzyInferenceModel":
        """Rebuild from to_json output; ValueError on any malformed part."""
        centers, sigmas, standardization = json_fields(
            doc, "fuzzy model", ("centers", "sigmas", "standardization")
        )
        centers = _matrix_from_json(centers, "fuzzy centers")
        sigmas = _matrix_from_json(sigmas, "fuzzy sigmas")
        if sigmas.shape != centers.shape:
            raise ValueError(
                f"fuzzy sigmas have shape {sigmas.shape} but centers {centers.shape}"
            )
        if not np.all(sigmas > 0):
            raise ValueError("fuzzy sigmas must be positive")
        return cls(centers, sigmas, Standardization.from_json(standardization, len(centers)))


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
# arrays reused by every iteration, so that each elementwise step runs over n
# contiguous values instead of n rows of k.  Every sum is still taken in the
# order numpy gives it over the (n, k) layout, so the bits are those of the
# row-major loop:
# - Over the k clusters of a point, numpy adds a contiguous row from left to
#   right below 8 terms and pairwise from 8 on.  The clusters are added one
#   after another below 8, and a row-major copy is summed from 8 on.  Squared
#   distances add the features one after another, as numpy's broadcast sum
#   does below 8 features (the 3 of an FMT included).
# - Over the n points of a cluster, numpy adds a strided column from top to
#   bottom, which is the last entry of np.add.accumulate along the row.  (At
#   k = 1 the column is contiguous and summed pairwise, but every membership
#   is then exactly 1.0, so any order gives n.)
# - The objective's products are written into an (n, k) array through its
#   transpose and summed whole: the same values in the same layout.


def _power(a: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """a ** p, bit for bit, written into `out`.

    numpy's `**` takes its square and reciprocal shortcuts only for the
    Python ints 2 and -1, and runs the slower generic pow kernel for the
    floats 2.0 and -1.0 that fuzzifiers give.  pow(x, 2.0) equals x * x and
    pow(x, -1.0) equals 1 / x, so those two take np.square and np.reciprocal.
    """
    if p == 2.0:
        return np.square(a, out=out)
    if p == -1.0:
        return np.reciprocal(a, out=out)
    return np.power(a, p, out=out)


def _row_major(at: np.ndarray) -> np.ndarray:
    """(n, k) C-ordered copy of a (k, n) array, filled one column at a time."""
    a = np.empty(at.shape[::-1])
    for c, row in enumerate(at):
        a[:, c] = row
    return a


def _squared_distances_t(xt: np.ndarray, centers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(k, n) squared distances from each center to each column of the (d, n) xt, into `out`."""
    d2t = np.subtract(xt[0], centers[:, :1], out=out)
    d2t **= 2
    term = np.empty_like(d2t)
    for j in range(1, len(xt)):
        np.subtract(xt[j], centers[:, j : j + 1], out=term)
        term **= 2
        d2t += term
    return d2t


def _memberships_t(d2t: np.ndarray, fuzzifier_m: float, out: np.ndarray) -> np.ndarray:
    """(k, n) memberships from (k, n) squared distances, written into `out`.

    A point sitting exactly on a center gets full membership at the first such
    center; its column then sums to exactly 1.0 in the normalization.
    """
    nearest = d2t.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(d2t, nearest, out=out)
        _power(w, -1.0 / (fuzzifier_m - 1.0), out=w)
    on_center = np.flatnonzero(nearest == 0.0)
    w[:, on_center] = 0.0
    w[np.argmax(d2t[:, on_center] == 0.0, axis=0), on_center] = 1.0
    if len(w) < 8:
        total = nearest  # no longer needed; its memory takes the sum
        total[:] = w[0]
        for row in w[1:]:
            total += row
    else:
        total = _row_major(w).sum(axis=1)
    w /= total
    return w


def fcm_cluster(features: np.ndarray, config: FcmConfig = FcmConfig()) -> FuzzyPartition:
    """Cluster rows of `features` with Bezdek's fuzzy c-means.

    Memberships are initialized from a seeded uniform draw (rows normalized),
    then centers and memberships alternate until the largest membership change
    drops below `config.tolerance` or `config.max_iterations` is hit.  The
    recorded objective J_m = sum_i sum_c u_ic^m ||x_i - v_c||^2 is
    non-increasing across iterations.  A cluster whose memberships raised to m
    all underflow to 0 has no weight: it keeps its last center (at first the
    origin).
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
    # (k, n) work arrays, reused by every iteration; ut and ut_next swap.
    ut = np.ascontiguousarray(u.T)
    ut_next, umt, d2t, work = (np.empty_like(ut) for _ in range(4))
    terms = work.reshape(n, config.k)  # the objective's (n, k) products, in work's memory
    _power(ut, m, out=umt)
    centers = np.zeros((config.k, d))
    trace: list[float] = []
    for _ in range(config.max_iterations):
        weights = np.add.accumulate(umt, axis=1, out=work)[:, -1]
        np.divide(umt @ x, weights[:, None], out=centers, where=weights[:, None] > 0)
        _squared_distances_t(xt, centers, out=d2t)
        _memberships_t(d2t, m, out=ut_next)
        _power(ut_next, m, out=umt)
        np.multiply(umt, d2t, out=terms.T)
        trace.append(float(terms.sum()))
        np.subtract(ut_next, ut, out=work)
        shift = float(np.abs(work, out=work).max())
        ut, ut_next = ut_next, ut
        if shift < config.tolerance:
            break
    converged = shift < config.tolerance
    return FuzzyPartition(centers, _row_major(ut), trace, m, converged, shift)


def build_fuzzy_model(
    partition: FuzzyPartition,
    features: np.ndarray,
    standardization: Standardization,
) -> FuzzyInferenceModel:
    """Derive Gaussian membership functions from an FCM partition of `features`,
    which are z-scores under `standardization`.

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
    weights = um.sum(axis=0)
    if not np.all(weights > 0):
        raise ValueError(
            f"fuzzifier_m={partition.fuzzifier_m!r} is too large: memberships raised to it "
            "underflow to 0, leaving a cluster with no weight"
        )
    var = np.einsum("ic,ijc->jc", um, dev2) / weights[None, :]
    ranges = x.max(axis=0) - x.min(axis=0)
    floor = np.where(ranges > 0, _SIGMA_FLOOR_SCALE * ranges, _SIGMA_FLOOR_SCALE)
    sigmas = np.maximum(np.sqrt(var), floor[:, None])
    return FuzzyInferenceModel(centers, sigmas, standardization)


def membership_matrix(model: FuzzyInferenceModel, features: np.ndarray) -> np.ndarray:
    """Evaluate all Gaussian functions on each row, z-scored by the model's standardization.

    Returns an (m, d*k) matrix, columns ordered feature-major: all clusters of
    feature 0, then all clusters of feature 1, and so on.
    """
    x = _as_feature_matrix(features)
    if x.shape[1] != model.feature_count:
        raise ValueError(
            f"dimension mismatch: model expects {model.feature_count} features, got {x.shape[1]}"
        )
    x = model.standardization.apply(x)
    z = (x[:, :, None] - model.centers[None, :, :]) / model.sigmas[None, :, :]
    values = np.exp(-0.5 * z * z)
    return values.reshape(x.shape[0], model.feature_count * model.cluster_count)
