"""Project dataset schema, CSV/JSON ingestion, holdout splitting, synthetic data."""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

FEATURE_NAMES = ("size_ucp", "productivity", "complexity")
CSV_COLUMNS = ("id", "size_ucp", "productivity", "complexity", "effort_ph")
SOURCE_LABELS = ("Ind1", "Ind2", "Edu", "mixed", "synthetic")

# Strict decimal syntax: no thousands separators, no underscores, no inf/nan.
_NUMBER = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


@dataclass(frozen=True)
class Project:
    """One observed project: UCP size, two context features, actual effort."""

    id: str
    size_ucp: float
    productivity: float
    complexity: float
    effort_ph: float

    def __post_init__(self) -> None:
        for name in FEATURE_NAMES + ("effort_ph",):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.size_ucp <= 0:
            raise ValueError(f"size_ucp must be positive, got {self.size_ucp}")
        if self.effort_ph <= 0:
            raise ValueError(f"effort_ph must be positive, got {self.effort_ph}")

    def features(self) -> tuple[float, float, float]:
        return (self.size_ucp, self.productivity, self.complexity)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of projects with unique ids."""

    projects: tuple[Project, ...]
    source_label: str = "mixed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "projects", tuple(self.projects))
        if not self.projects:
            raise ValueError("dataset must contain at least one project")
        if self.source_label not in SOURCE_LABELS:
            raise ValueError(
                f"unknown source_label {self.source_label!r}; expected one of {SOURCE_LABELS}"
            )
        seen: set[str] = set()
        for project in self.projects:
            if project.id in seen:
                raise ValueError(f"duplicate id {project.id!r}")
            seen.add(project.id)

    def __len__(self) -> int:
        return len(self.projects)

    def __iter__(self) -> Iterator[Project]:
        return iter(self.projects)

    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.projects)


def feature_matrix(dataset: Dataset) -> np.ndarray:
    """Return the (n, 3) matrix of (size_ucp, productivity, complexity) rows."""
    return np.array([p.features() for p in dataset], dtype=float)


def effort_vector(dataset: Dataset) -> np.ndarray:
    return np.array([p.effort_ph for p in dataset], dtype=float)


def finite_number(value, what: str) -> float:
    """A number read from JSON: an int or float (not a bool) that is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


def json_int(value, what: str, low: int, high: int | None = None) -> int:
    """An integer read from JSON (not a bool) in [low, high), or at least low."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value >= high)
    ):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")
    return value


def finite_numbers(value, what: str, length: int) -> list[float]:
    """A JSON list of exactly `length` finite numbers."""
    if not isinstance(value, list) or len(value) != length:
        raise ValueError(f"{what} must be a list of {length} numbers, got {value!r}")
    return [finite_number(v, f"{what}[{i}]") for i, v in enumerate(value)]


def parse_number(text: str, column: str, row: int) -> float:
    token = text.strip()
    if not _NUMBER.match(token):
        raise ValueError(f"non-numeric {column} {text!r} at row {row}")
    return float(token)


def parse_dataset(csv_text: str, source_label: str = "mixed") -> Dataset:
    """Parse a project CSV into a Dataset.

    The header must name exactly the columns id, size_ucp, productivity,
    complexity, effort_ph (any order, case-insensitive).  Rows are numbered
    from 1 at the header so error messages match editor line numbers.
    """
    records = enumerate(csv.reader(io.StringIO(csv_text)), 1)
    rows = ((number, row) for number, row in records if row)
    first = next(rows, None)
    if first is None:
        raise ValueError("empty input: missing header row")
    names = [cell.strip().lower() for cell in first[1]]
    missing = [c for c in CSV_COLUMNS if c not in names]
    if missing:
        raise ValueError(f"missing column(s): {', '.join(missing)}")
    unexpected = [c for c in names if c not in CSV_COLUMNS]
    if unexpected:
        raise ValueError(f"unexpected column(s): {', '.join(unexpected)}")
    if len(names) != len(set(names)):
        raise ValueError("repeated column in header")
    index = {name: names.index(name) for name in CSV_COLUMNS}

    projects: list[Project] = []
    seen: set[str] = set()
    for row_number, row in rows:
        if len(row) != len(names):
            raise ValueError(
                f"expected {len(names)} fields, found {len(row)} at row {row_number}"
            )
        pid = row[index["id"]].strip()
        if not pid:
            raise ValueError(f"empty id at row {row_number}")
        if pid in seen:
            raise ValueError(f"duplicate id {pid!r} at row {row_number}")
        values = {
            name: parse_number(row[index[name]], name, row_number)
            for name in CSV_COLUMNS[1:]
        }
        if values["effort_ph"] <= 0:
            raise ValueError(f"non-positive effort at row {row_number}")
        if values["size_ucp"] <= 0:
            raise ValueError(f"non-positive size_ucp at row {row_number}")
        seen.add(pid)
        projects.append(Project(pid, **values))
    if not projects:
        raise ValueError("no data rows")
    return Dataset(tuple(projects), source_label)


def render_dataset(dataset: Dataset) -> str:
    """Render a Dataset back to CSV text; parse(render(d)) round-trips exactly."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in dataset:
        writer.writerow(
            [p.id, repr(p.size_ucp), repr(p.productivity), repr(p.complexity), repr(p.effort_ph)]
        )
    return buffer.getvalue()


def split_holdout(dataset: Dataset, train_count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministically split into (train, test) of sizes (train_count, rest).

    The shuffle is seeded; within each side the original dataset order is kept.
    """
    n = len(dataset)
    if not 0 < train_count < n:
        raise ValueError(f"train_count must be in (0, {n}), got {train_count}")
    order = np.random.default_rng(seed).permutation(n)
    train_idx = sorted(order[:train_count].tolist())
    test_idx = sorted(order[train_count:].tolist())
    train = Dataset(tuple(dataset.projects[i] for i in train_idx), dataset.source_label)
    test = Dataset(tuple(dataset.projects[i] for i in test_idx), dataset.source_label)
    return train, test


@dataclass(frozen=True)
class SourceProfile:
    """Effort distribution summary used to synthesize datasets."""

    min_effort: float
    max_effort: float
    mean_effort: float
    sd_effort: float
    skewness: float

    def __post_init__(self) -> None:
        for name in ("min_effort", "max_effort", "mean_effort", "sd_effort"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.skewness):
            raise ValueError("skewness must be finite")
        if not self.min_effort <= self.mean_effort <= self.max_effort:
            raise ValueError("mean_effort must lie within [min_effort, max_effort]")


IND1 = SourceProfile(4648.0, 129350.0, 36849.0, 39350.0, 1.37)
IND2 = SourceProfile(570.0, 224890.0, 20573.0, 47327.0, 3.26)
EDU = SourceProfile(850.0, 2380.0, 1689.0, 496.0, -0.24)

PROFILES = {"ind1": IND1, "ind2": IND2, "edu": EDU}

PRODUCTIVITY_RANGE = (10.0, 35.0)
COMPLEXITY_RANGE = (1, 5)

_CAL_GRID_SIZE = 8192
_SKEW_EPS = 1e-8


def _lognormal_shape(skewness: float) -> tuple[float, float]:
    """Solve for the log-sd s (and w = exp(s^2)) matching a positive skewness."""
    g = skewness
    h = math.sqrt(g * g / 4.0 + 1.0)
    t = np.cbrt(g / 2.0 + h) + np.cbrt(g / 2.0 - h)
    w = 1.0 + t * t
    return math.sqrt(math.log(w)), w


def _shape_transform(z: np.ndarray, mean: float, sd: float, skewness: float) -> np.ndarray:
    """Map standard-normal draws to the target three-moment shape (pre-clamp)."""
    if skewness > _SKEW_EPS:
        s, w = _lognormal_shape(skewness)
        scale = sd / math.sqrt(w * (w - 1.0))
        loc = mean - scale * math.sqrt(w)
        return loc + scale * np.exp(s * z)
    # Cornish-Fisher first-order skew adjustment of a normal.
    return mean + sd * (z + skewness / 6.0 * (z * z - 1.0))


def _calibrate(profile: SourceProfile) -> tuple[float, float]:
    """Pick pre-clamp (mean, sd) so the clamped distribution matches the profile.

    Clamping to [min_effort, max_effort] shifts the raw moments, badly so for
    heavy-tailed profiles, hence this deterministic fixed-point correction over
    a quantile grid.
    """
    # Imported here so that only the synthetic generator pays scipy's import.
    from scipy.special import ndtri

    grid = ndtri((np.arange(_CAL_GRID_SIZE) + 0.5) / _CAL_GRID_SIZE)
    mean, sd = profile.mean_effort, profile.sd_effort
    for _ in range(300):
        x = np.clip(
            _shape_transform(grid, mean, sd, profile.skewness),
            profile.min_effort,
            profile.max_effort,
        )
        got_mean = float(x.mean())
        got_sd = float(x.std())
        if got_sd <= 0:
            sd *= 0.5
            continue
        mean_err = abs(got_mean - profile.mean_effort) / profile.mean_effort
        sd_err = abs(got_sd - profile.sd_effort) / profile.sd_effort
        if mean_err < 1e-10 and sd_err < 1e-10:
            break
        mean += profile.mean_effort - got_mean
        ratio = profile.sd_effort / got_sd
        sd *= min(max(ratio, 0.5), 2.0)
    return mean, sd


def generate_synthetic(profile: SourceProfile, n: int, seed: int) -> Dataset:
    """Generate n synthetic projects whose efforts match the profile's moments.

    Efforts come from a shifted log-normal (positive skew) or a Cornish-Fisher
    skew-adjusted normal, calibrated so the values clamped to the profile's
    [min, max] range reproduce its mean and standard deviation.  Size is tied
    to effort through a productivity ratio drawn uniformly from 10-35 PH/UCP,
    so effort/size always lands in that band.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    mean, sd = _calibrate(profile)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    efforts = np.clip(
        _shape_transform(z, mean, sd, profile.skewness),
        profile.min_effort,
        profile.max_effort,
    )
    productivity = rng.uniform(*PRODUCTIVITY_RANGE, size=n)
    complexity = rng.integers(COMPLEXITY_RANGE[0], COMPLEXITY_RANGE[1] + 1, size=n)
    projects = tuple(
        Project(
            f"syn-{i + 1:04d}",
            float(efforts[i] / productivity[i]),
            float(productivity[i]),
            float(complexity[i]),
            float(efforts[i]),
        )
        for i in range(n)
    )
    return Dataset(projects, "synthetic")
