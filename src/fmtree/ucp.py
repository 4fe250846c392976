"""Use Case Points: actor/use-case weighting, adjustment factors, ratio-based effort."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, finite_number, json_fields, model_fields

ACTOR_WEIGHTS = {"simple": 1.0, "average": 2.0, "complex": 3.0}
USE_CASE_WEIGHTS = {"simple": 5.0, "average": 10.0, "complex": 15.0}

# 13 technical and 8 environmental factor weights (Karner's scheme).
TECHNICAL_WEIGHTS = (2.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
ENVIRONMENTAL_WEIGHTS = (1.5, 0.5, 1.0, 0.5, 1.0, 2.0, -1.0, -1.0)

DEFAULT_EFFORT_RATIO = 20.0

RATING_RANGE = (0, 5)


def _check_classes(kind: str, classes: Sequence[str], weights: dict[str, float]) -> None:
    for cls in classes:
        if cls not in weights:
            raise ValueError(
                f"unknown {kind} class {cls!r}; expected one of {sorted(weights)}"
            )


def _check_ratings(kind: str, ratings: Sequence[int], expected: int) -> None:
    if len(ratings) != expected:
        raise ValueError(f"expected {expected} {kind} ratings, got {len(ratings)}")
    for r in ratings:
        if not isinstance(r, int) or isinstance(r, bool):
            raise ValueError(f"{kind} ratings must be integers, got {r!r}")
        if not RATING_RANGE[0] <= r <= RATING_RANGE[1]:
            raise ValueError(f"{kind} rating {r} outside {RATING_RANGE}")


@dataclass(frozen=True)
class UseCaseModel:
    """Actor/use-case classifications plus the 13+8 factor ratings."""

    actors: tuple[str, ...]
    use_cases: tuple[str, ...]
    technical_ratings: tuple[int, ...]
    environmental_ratings: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actors", tuple(self.actors))
        object.__setattr__(self, "use_cases", tuple(self.use_cases))
        object.__setattr__(self, "technical_ratings", tuple(self.technical_ratings))
        object.__setattr__(self, "environmental_ratings", tuple(self.environmental_ratings))
        if not self.use_cases:
            raise ValueError("at least one use case is required")
        _check_classes("actor", self.actors, ACTOR_WEIGHTS)
        _check_classes("use case", self.use_cases, USE_CASE_WEIGHTS)
        _check_ratings("technical", self.technical_ratings, len(TECHNICAL_WEIGHTS))
        _check_ratings("environmental", self.environmental_ratings, len(ENVIRONMENTAL_WEIGHTS))


@dataclass(frozen=True)
class UcpBreakdown:
    uwa: float
    uuc: float
    uucp: float
    tcf: float
    ef: float
    ucp: float


def compute_ucp(model: UseCaseModel) -> UcpBreakdown:
    """Full breakdown: UUCP = UWA + UUC, then UCP = UUCP * TCF * EF."""
    uwa = sum(ACTOR_WEIGHTS[a] for a in model.actors)
    uuc = sum(USE_CASE_WEIGHTS[u] for u in model.use_cases)
    uucp = uwa + uuc
    tfactor = sum(w * r for w, r in zip(TECHNICAL_WEIGHTS, model.technical_ratings))
    efactor = sum(w * r for w, r in zip(ENVIRONMENTAL_WEIGHTS, model.environmental_ratings))
    tcf = 0.6 + 0.01 * tfactor
    ef = 1.4 - 0.03 * efactor
    return UcpBreakdown(uwa, uuc, uucp, tcf, ef, uucp * tcf * ef)


def effort_ratio(ratio: float | None) -> float:
    """The checked PH/UCP ratio to use: `ratio`, or DEFAULT_EFFORT_RATIO (read now) if None."""
    ratio = DEFAULT_EFFORT_RATIO if ratio is None else ratio
    if not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be positive and finite, got {ratio}")
    return ratio


def classical_effort(ucp: float, ratio: float | None = None) -> float:
    """Effort in person-hours as UCP times a fixed PH/UCP ratio (see effort_ratio)."""
    if ucp <= 0:
        raise ValueError(f"ucp must be positive, got {ucp}")
    return ucp * effort_ratio(ratio)


def fit_ucp(train: Dataset | None, ratio: float) -> float:
    """The classical estimator's model: the checked PH/UCP ratio.  It reads no training data."""
    return effort_ratio(ratio)


def predict_ucp_dataset(ratio: float, dataset: Dataset) -> np.ndarray:
    """Effort (PH) for every project: its size in UCP times the ratio."""
    return dataset.features[:, 0] * ratio


def ucp_to_json(ratio: float) -> dict:
    return {"kind": "ucp", "ratio": ratio}


def ucp_from_json(doc: dict) -> float:
    """Read a ratio back from ucp_to_json output; ValueError on any malformed part."""
    (ratio,) = model_fields(doc, "ucp", ("ratio",))
    return effort_ratio(finite_number(ratio, "ucp ratio"))


def use_case_model_from_json(doc: dict) -> UseCaseModel:
    """Build a UseCaseModel from {actors, use_cases, technical, environmental}."""
    keys = ("actors", "use_cases", "technical", "environmental")
    json_fields(doc, "use-case model", keys)
    not_lists = [key for key in keys if not isinstance(doc[key], list)]
    if not_lists:
        raise ValueError(f"{', '.join(not_lists)} must be JSON list(s)")
    return UseCaseModel(
        tuple(str(a).strip().lower() for a in doc["actors"]),
        tuple(str(u).strip().lower() for u in doc["use_cases"]),
        doc["technical"],
        doc["environmental"],
    )
