"""The project Dataset, the CSV table format, JSON value checks, holdout splits, synthetic data."""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

FEATURE_NAMES = ("size_ucp", "productivity", "complexity")
CSV_COLUMNS = ("id", "size_ucp", "productivity", "complexity", "effort_ph")
PREDICTION_COLUMNS = ("id", "predicted_ph")
# FMT and Treeboost floor their finite predictions at this effort (PH).
EFFORT_FLOOR_PH = 1.0

# Strict decimal syntax: no thousands separators, no underscores, no inf/nan.
_NUMBER = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


class _ProjectError(ValueError):
    """A bad value in one project; `index` is the project's position in the dataset."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def _project_fault(values: list[float]) -> str:
    """The first fault in one project's (size_ucp, productivity, complexity, effort_ph)."""
    for name, value in zip(CSV_COLUMNS[1:], values):
        if not math.isfinite(value):
            return f"{name} must be finite, got {value!r}"
    name, value = ("size_ucp", values[0]) if values[0] <= 0 else ("effort_ph", values[3])
    return f"{name} must be positive, got {value}"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Projects as columns: unique ids, an (n, 3) FEATURE_NAMES matrix and n efforts.

    Both arrays are read-only float copies, `features` C-contiguous.  Every value
    is checked once, here: all finite, sizes and efforts positive.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    efforts: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        features = np.array(self.features, dtype=float, order="C")
        efforts = np.array(self.efforts, dtype=float)
        n = len(ids)
        if n == 0:
            raise ValueError("dataset must contain at least one project")
        if features.shape != (n, 3) or efforts.shape != (n,):
            raise ValueError(f"{n} ids need features of shape ({n}, 3) and efforts of shape "
                             f"({n},), got {features.shape} and {efforts.shape}")
        if len(set(ids)) != n:
            seen: set[str] = set()
            for pid in ids:
                if pid in seen:
                    raise ValueError(f"duplicate id {pid!r}")
                seen.add(pid)
        valid = np.isfinite(features).all(axis=1) & np.isfinite(efforts)
        valid &= (features[:, 0] > 0) & (efforts > 0)
        if not valid.all():
            i = int(np.argmin(valid))
            raise _ProjectError(_project_fault([*features[i].tolist(), float(efforts[i])]), i)
        features.flags.writeable = False
        efforts.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "efforts", efforts)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> Dataset:
        """The projects at positions `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        ids = tuple(self.ids[i] for i in rows.tolist())
        return Dataset(ids, self.features[rows], self.efforts[rows])


def json_number(value, what: str) -> float:
    """A number read from JSON: an int or float, not a bool, that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} does not fit a float: {len(str(abs(value)))} digits") from None


def finite_number(value, what: str) -> float:
    """A json_number that is finite."""
    number = json_number(value, what)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def json_fields(value, what: str, keys: tuple[str, ...]) -> list:
    """The values, in `keys` order, of a JSON object that must hold exactly `keys`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    if value.keys() != set(keys):
        raise ValueError(f"{what} must hold the keys {sorted(keys)}, got {sorted(value)}")
    return [value[key] for key in keys]


def model_fields(doc, kind: str, keys: tuple[str, ...]) -> list:
    """The values, in `keys` order, of a `kind` model file's object: exactly "kind" and `keys`."""
    if isinstance(doc, dict) and doc.get("kind") != kind:
        raise ValueError(f"expected model kind {kind!r}, got {doc.get('kind')!r}")
    return json_fields(doc, f"{kind} model", ("kind", *keys))[1:]


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


def check_field_types(config) -> None:
    """Check a config dataclass: int fields hold ints, float fields finite numbers (no bools).

    The field types are read from the string annotations that
    `from __future__ import annotations` leaves on the dataclass.
    """
    for field in fields(config):
        value = getattr(config, field.name)
        if field.type == "float":
            finite_number(value, field.name)
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{field.name} must be an integer, got {value!r}")


def finite_numbers(value, what: str, length: int) -> list[float]:
    """A JSON list of exactly `length` finite numbers."""
    if not isinstance(value, list) or len(value) != length:
        raise ValueError(f"{what} must be a list of {length} numbers, got {value!r}")
    return [finite_number(v, f"{what}[{i}]") for i, v in enumerate(value)]


def parse_number(text: str, column: str, row: int) -> float:
    token = text.strip()
    if not _NUMBER.match(token):
        raise ValueError(f"non-numeric {column} {text!r} at row {row}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {column} {text!r} at row {row}")
    return value


def render_table(columns: tuple[str, ...], rows: Iterable[Iterable[str]]) -> str:
    """CSV text of a header row and `rows`, one line each, ending in a newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def read_numbers(text: str, columns: tuple[str, ...]) -> tuple[dict[str, int], np.ndarray]:
    """The ids of a CSV table's data rows, each mapped to its row number, and the
    (rows, len(columns) - 1) array of the other cells in `columns` order.

    The header names exactly `columns` (id first) in any order and case.  Rows
    are numbered from 1 at the first line, blank lines included, so errors
    match editor line numbers.  Ids must be non-empty and unique, and each
    cell must pass parse_number.

    A table whose text holds no '"' and no '\\r' is read whole: each line is
    one record, and one numpy loadtxt call (its C parser, numpy >= 1.23) reads
    the value columns.  Any fault there, and every other table, goes to the
    row reader _read_rows, which names the first fault in row order, so both
    paths accept the same tables, give the same bits and raise the same
    messages.
    """
    if '"' not in text and "\r" not in text:
        try:
            return _read_table(text, columns)
        except ValueError:
            pass  # _read_rows names the fault, or reads what loadtxt does not
    return _read_rows(text, columns)


def _column_positions(header: list[str], columns: tuple[str, ...]) -> list[int]:
    """The positions of `columns` in a header that names exactly them, in any order and case."""
    names = [cell.strip().lower() for cell in header]
    missing = [c for c in columns if c not in names]
    if missing:
        raise ValueError(f"missing column(s): {', '.join(missing)}")
    unexpected = [c for c in names if c not in columns]
    if unexpected:
        raise ValueError(f"unexpected column(s): {', '.join(unexpected)}")
    if len(names) != len(set(names)):
        raise ValueError("repeated column in header")
    return [names.index(c) for c in columns]


def _read_table(text: str, columns: tuple[str, ...]) -> tuple[dict[str, int], np.ndarray]:
    """read_numbers of a text with no '"' or '\\r' at once; a ValueError on any fault.

    Without quotes or carriage returns each non-empty line is one csv record
    and its cells are the text between commas.  loadtxt with usecols checks
    neither the field count nor the csv module's field size limit, so both are
    checked here, the limit on whole lines.  Every finite value loadtxt reads
    from a cell is the one parse_number reads from it, to the bit; loadtxt also
    reads 'inf' and 'nan', which parse_number rejects.
    """
    lines = text.split("\n")
    numbers = [number for number, line in enumerate(lines, 1) if line]
    lines = [line for line in lines if line]
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        raise ValueError
    at, *positions = _column_positions(lines[0].split(","), columns)
    data = lines[1:]
    commas = len(positions)
    if any(line.count(",") != commas for line in data):
        raise ValueError
    rows = dict(zip([line.split(",", at + 1)[at].strip() for line in data], numbers[1:]))
    if len(rows) != len(data) or "" in rows:
        raise ValueError
    values = np.loadtxt(data, delimiter=",", usecols=positions, comments=None, dtype=float,
                        ndmin=2)
    if not np.isfinite(values).all():
        raise ValueError
    return rows, values


def _read_rows(text: str, columns: tuple[str, ...]) -> tuple[dict[str, int], np.ndarray]:
    """read_numbers one csv record at a time, raising the first fault in row order.

    Each value cell goes through parse_number.  A row that the csv module
    cannot read, such as one with a cell longer than its field size limit, is
    a ValueError naming the row.
    """
    records = enumerate(csv.reader(io.StringIO(text)), 1)
    number = 0
    rows: dict[str, int] = {}
    values: list[float] = []
    try:
        for number, header in records:
            if header:
                break
        else:
            raise ValueError("empty input: missing header row")
        at, *positions = _column_positions(header, columns)
        for number, row in records:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"expected {len(header)} fields, found {len(row)} at row {number}")
            row_id = row[at].strip()
            if not row_id:
                raise ValueError(f"empty id at row {number}")
            if row_id in rows:
                raise ValueError(f"duplicate id {row_id!r} at row {number}")
            rows[row_id] = number
            values += [parse_number(row[p], name, number) for name, p in zip(columns[1:], positions)]
    except csv.Error as exc:
        # The row that failed is the one after the last row read.
        raise ValueError(f"{exc} at row {number + 1}") from None
    if not rows:
        raise ValueError("no data rows")
    return rows, np.array(values).reshape(len(rows), -1)


def parse_dataset(csv_text: str) -> Dataset:
    """Parse a project CSV with the columns CSV_COLUMNS into a Dataset (see read_numbers)."""
    rows, table = read_numbers(csv_text, CSV_COLUMNS)
    try:
        return Dataset(tuple(rows), table[:, :3], table[:, 3])
    except _ProjectError as exc:
        raise ValueError(f"{exc} at row {list(rows.values())[exc.index]}") from None


def render_dataset(dataset: Dataset) -> str:
    """Render a Dataset back to CSV text; parse(render(d)) round-trips exactly."""
    table = np.column_stack([dataset.features, dataset.efforts]).tolist()
    rows = ((pid, *map(repr, values)) for pid, values in zip(dataset.ids, table))
    return render_table(CSV_COLUMNS, rows)


def split_holdout(dataset: Dataset, train_count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministically split into (train, test) of sizes (train_count, rest).

    The shuffle is seeded; within each side the original dataset order is kept.
    """
    n = len(dataset)
    if not 0 < train_count < n:
        raise ValueError(f"train_count must be in (0, {n}), got {train_count}")
    order = np.random.default_rng(seed).permutation(n)
    return dataset.take(np.sort(order[:train_count])), dataset.take(np.sort(order[train_count:]))


@dataclass(frozen=True)
class SourceProfile:
    """Effort distribution summary used to synthesize datasets.

    `draw_mean` and `draw_sd` are the pre-clamp mean and sd generate_synthetic
    draws with.  Clamping to [min_effort, max_effort] shifts the raw moments,
    badly so for heavy-tailed profiles, so they are the values whose clamped
    draws reproduce mean_effort and sd_effort: the result of a fixed-point
    search over a normal quantile grid that the tests re-run.
    """

    min_effort: float
    max_effort: float
    mean_effort: float
    sd_effort: float
    skewness: float
    draw_mean: float
    draw_sd: float

    def __post_init__(self) -> None:
        for name in ("min_effort", "max_effort", "mean_effort", "sd_effort", "draw_sd"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.skewness):
            raise ValueError("skewness must be finite")
        if not self.min_effort <= self.mean_effort <= self.max_effort:
            raise ValueError("mean_effort must lie within [min_effort, max_effort]")


IND1 = SourceProfile(4648.0, 129350.0, 36849.0, 39350.0, 1.37,
                     30573.145994664388, 57047.893397005144)
IND2 = SourceProfile(570.0, 224890.0, 20573.0, 47327.0, 3.26,
                     -15450.298918837849, 81341.92703062587)
EDU = SourceProfile(850.0, 2380.0, 1689.0, 496.0, -0.24,
                    1694.7386015542036, 608.1111214965782)

PROFILES = {"ind1": IND1, "ind2": IND2, "edu": EDU}

PRODUCTIVITY_RANGE = (10.0, 35.0)
COMPLEXITY_RANGE = (1, 5)

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


def generate_synthetic(profile: SourceProfile, n: int, seed: int) -> Dataset:
    """Generate n synthetic projects whose efforts match the profile's moments.

    Efforts come from a shifted log-normal (positive skew) or a Cornish-Fisher
    skew-adjusted normal with the profile's draw_mean and draw_sd, so the
    values clamped to its [min, max] range reproduce its mean and standard
    deviation.  Size is tied to effort through a productivity ratio drawn
    uniformly from 10-35 PH/UCP, so effort/size always lands in that band.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    efforts = np.clip(
        _shape_transform(z, profile.draw_mean, profile.draw_sd, profile.skewness),
        profile.min_effort,
        profile.max_effort,
    )
    productivity = rng.uniform(*PRODUCTIVITY_RANGE, size=n)
    complexity = rng.integers(COMPLEXITY_RANGE[0], COMPLEXITY_RANGE[1] + 1, size=n)
    ids = tuple(f"syn-{i + 1:04d}" for i in range(n))
    features = np.column_stack([efforts / productivity, productivity, complexity])
    return Dataset(ids, features, efforts)
