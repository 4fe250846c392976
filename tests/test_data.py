import csv
import hashlib
import io
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fmtree.data
from fmtree.cli import _parse_predictions
from fmtree.data import (
    CSV_COLUMNS,
    EDU,
    IND1,
    IND2,
    PREDICTION_COLUMNS,
    PROFILES,
    Dataset,
    SourceProfile,
    _ProjectError,
    generate_synthetic,
    parse_dataset,
    parse_number,
    render_dataset,
    render_table,
    split_holdout,
)

CSV_ONE = "id,size_ucp,productivity,complexity,effort_ph\np1,120,20,3,2400"


def test_parse_single_row():
    ds = parse_dataset(CSV_ONE)
    assert len(ds) == 1
    assert ds.ids == ("p1",)
    assert ds.efforts.tolist() == [2400.0]
    assert ds.features.tolist() == [[120.0, 20.0, 3.0]]


def test_parse_header_order_and_case_insensitive():
    text = "Effort_PH,ID,Complexity,Productivity,Size_UCP\n10,a,1,2,3\n"
    ds = parse_dataset(text)
    assert ds.ids == ("a",)
    assert ds.features.tolist() == [[3.0, 2.0, 1.0]]
    assert ds.efforts.tolist() == [10.0]


def test_parse_missing_column_named():
    with pytest.raises(ValueError, match="missing column.*effort_ph"):
        parse_dataset("id,size_ucp,productivity,complexity\np1,1,2,3")


def test_parse_unexpected_column_rejected():
    with pytest.raises(ValueError, match="unexpected column"):
        parse_dataset("id,size_ucp,productivity,complexity,effort_ph,notes\np1,1,2,3,4,x")


def test_parse_non_positive_effort_reports_row():
    text = "id,size_ucp,productivity,complexity,effort_ph\np1,1,2,3,4\np2,1,2,3,0\n"
    with pytest.raises(ValueError, match="effort_ph must be positive, got 0.0 at row 3"):
        parse_dataset(text)


def test_parse_non_numeric_reports_row_and_column():
    text = "id,size_ucp,productivity,complexity,effort_ph\np1,abc,2,3,4\n"
    with pytest.raises(ValueError, match="non-numeric size_ucp 'abc' at row 2"):
        parse_dataset(text)


def test_parse_rejects_overflowing_number_with_row_and_column():
    text = "id,size_ucp,productivity,complexity,effort_ph\np1,1,2,3,4\np2,1,-1e999,3,4\n"
    with pytest.raises(ValueError, match="non-finite productivity '-1e999' at row 3"):
        parse_dataset(text)


def test_parse_counts_blank_lines_in_row_numbers():
    text = "\n\nid,size_ucp,productivity,complexity,effort_ph\n\np1,1,2,3,4\n\n\np2,abc,2,3,4\n"
    with pytest.raises(ValueError, match="non-numeric size_ucp 'abc' at row 8"):
        parse_dataset(text)
    with pytest.raises(ValueError, match="empty input"):
        parse_dataset("\n\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        parse_dataset("id,size_ucp,productivity,complexity,effort_ph\n\n\n")


def test_parse_rejects_thousands_separators_and_underscores():
    quoted = 'id,size_ucp,productivity,complexity,effort_ph\np1,"1,234",2,3,4\n'
    with pytest.raises(ValueError, match="non-numeric"):
        parse_dataset(quoted)
    with pytest.raises(ValueError, match="non-numeric"):
        parse_dataset("id,size_ucp,productivity,complexity,effort_ph\np1,1_000,2,3,4\n")


def test_parse_duplicate_id_reports_row():
    text = "id,size_ucp,productivity,complexity,effort_ph\np1,1,2,3,4\np1,1,2,3,4\n"
    with pytest.raises(ValueError, match="duplicate id 'p1' at row 3"):
        parse_dataset(text)


def test_parse_wrong_field_count():
    with pytest.raises(ValueError, match="at row 2"):
        parse_dataset("id,size_ucp,productivity,complexity,effort_ph\np1,1,2,3\n")


def test_render_parse_round_trip_exact():
    i = np.arange(1, 20)
    features = np.column_stack([0.1 * i + 0.3, 1.0 / 3.0 * i + 1.0, i % 5 + 1.0])
    ds = Dataset(tuple(f"p{k}" for k in i), features, 7.0 / 11.0 + i)
    again = parse_dataset(render_dataset(ds))
    assert again.ids == ds.ids
    assert again.features.tolist() == ds.features.tolist()
    assert again.efforts.tolist() == ds.efforts.tolist()


def one_project(size, productivity, complexity, effort):
    return Dataset(("p",), [[size, productivity, complexity]], [effort])


def test_project_validation():
    with pytest.raises(ValueError, match="effort_ph must be positive"):
        one_project(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="size_ucp must be positive"):
        one_project(0.0, 1.0, 1.0, 10.0)
    with pytest.raises(ValueError, match="must be finite"):
        one_project(1.0, math.nan, 1.0, 10.0)


def test_dataset_validation():
    with pytest.raises(ValueError, match="duplicate id"):
        Dataset(("a", "a"), np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="at least one project"):
        Dataset((), np.ones((0, 3)), np.ones(0))


def test_dataset_columns_are_read_only_copies():
    features = np.array([[120.0, 20.0, 3.0]])
    ds = Dataset(["p1"], features, [2400.0])
    features[0, 0] = 1.0
    assert ds.ids == ("p1",)
    assert_allclose(ds.features, [[120.0, 20.0, 3.0]])
    assert_allclose(ds.efforts, [2400.0])
    with pytest.raises(ValueError, match="read-only"):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.efforts[0] = 1.0


def test_dataset_rejects_misshapen_columns():
    with pytest.raises(ValueError, match=r"shape \(2, 3\).*got \(2, 2\)"):
        Dataset(("a", "b"), np.ones((2, 2)), np.ones(2))
    with pytest.raises(ValueError, match=r"shape \(2,\), got \(2, 3\) and \(3,\)"):
        Dataset(("a", "b"), np.ones((2, 3)), np.ones(3))


def test_dataset_names_the_first_fault_of_the_first_bad_project():
    features = [[1.0, 1.0, 1.0], [0.0, math.nan, 1.0], [-1.0, 1.0, 1.0]]
    with pytest.raises(ValueError, match="^productivity must be finite, got nan$"):
        Dataset(("a", "b", "c"), features, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="^effort_ph must be finite, got inf$"):
        Dataset(("a",), [[0.0, 1.0, 1.0]], [math.inf])
    with pytest.raises(ValueError, match="^size_ucp must be positive, got -0.0$"):
        Dataset(("a",), [[-0.0, 1.0, 1.0]], [0.0])


FIELDS = CSV_COLUMNS[1:]
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Ids as the reader gives them back: stripped, non-empty, no line breaks or controls.
project_id = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1, max_size=8
).map(str.strip).filter(bool)


@st.composite
def columns(draw):
    """Valid (ids, rows) with rows of (size_ucp, productivity, complexity, effort_ph)."""
    ids = draw(st.lists(project_id, min_size=1, max_size=12, unique=True))
    rows = draw(st.lists(st.tuples(positive, finite, finite, positive),
                         min_size=len(ids), max_size=len(ids)))
    return tuple(ids), rows


def build(ids, rows, fortran=False):
    features = np.array([row[:3] for row in rows])
    return Dataset(ids, np.asfortranarray(features) if fortran else features,
                   [row[3] for row in rows])


non_positive = st.floats(max_value=0.0, allow_infinity=False)
NON_POSITIVE = [pytest.param(column, non_positive, id=f"{FIELDS[column]}-non-positive")
                for column in (0, 3)]
NON_FINITE = [pytest.param(column, st.just(value), id=f"{FIELDS[column]}-{value}")
              for column in range(4) for value in (math.nan, math.inf, -math.inf)]


@st.composite
def one_fault(draw, column, bad):
    """Valid columns whose row `i` has a `bad` value in `column`, and the expected message."""
    ids, rows = draw(columns())
    i = draw(st.integers(0, len(rows) - 1))
    value = draw(bad)
    rows[i] = rows[i][:column] + (value,) + rows[i][column + 1:]
    if math.isfinite(value):
        message = f"{FIELDS[column]} must be positive, got {value}"
    else:
        message = f"{FIELDS[column]} must be finite, got {value!r}"
    return ids, rows, i, message


@settings(deadline=None)
@given(columns(), st.booleans())
def test_dataset_round_trips_through_csv_bit_for_bit(data, fortran):
    dataset = build(*data, fortran=fortran)
    for array in (dataset.features, dataset.efforts):
        assert array.dtype == np.float64 and not array.flags.writeable
    assert dataset.features.flags.c_contiguous
    assert dataset.features.shape == (len(dataset), 3)
    again = parse_dataset(render_dataset(dataset))
    assert again.ids == dataset.ids
    assert again.features.tobytes() == dataset.features.tobytes()
    assert again.efforts.tobytes() == dataset.efforts.tobytes()


@pytest.mark.parametrize("column, bad", NON_POSITIVE + NON_FINITE)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_dataset_names_a_bad_cell_by_field(column, bad, data):
    ids, rows, _, message = data.draw(one_fault(column, bad))
    with pytest.raises(ValueError) as excinfo:
        build(ids, rows)
    assert str(excinfo.value) == message


# A non-finite cell never reaches Dataset from a CSV: parse_number rejects it first.
@pytest.mark.parametrize("column, bad", NON_POSITIVE)
@settings(deadline=None)
@given(data=st.data())
def test_parse_names_a_bad_cell_with_its_row(column, bad, data):
    ids, rows, i, message = data.draw(one_fault(column, bad))
    table = render_table(CSV_COLUMNS, [(pid, *map(repr, row)) for pid, row in zip(ids, rows)])
    lines = table.splitlines()
    blanks = data.draw(st.lists(st.integers(0, 2), min_size=len(lines), max_size=len(lines)))
    text = "".join("\n" * gap + line + "\n" for gap, line in zip(blanks, lines))
    row_number = i + 2 + sum(blanks[: i + 2])
    with pytest.raises(ValueError) as excinfo:
        parse_dataset(text)
    assert str(excinfo.value) == f"{message} at row {row_number}"


def reference_read_table(text, columns):
    """The row reader that read_numbers folded in, kept as the oracle's own copy.

    Yields (row number, id, other cells in `columns` order) for each data row.
    """
    records = enumerate(csv.reader(io.StringIO(text)), 1)
    number = 0
    try:
        for number, header in records:
            if header:
                break
        else:
            raise ValueError("empty input: missing header row")
        names = [cell.strip().lower() for cell in header]
        missing = [c for c in columns if c not in names]
        if missing:
            raise ValueError(f"missing column(s): {', '.join(missing)}")
        unexpected = [c for c in names if c not in columns]
        if unexpected:
            raise ValueError(f"unexpected column(s): {', '.join(unexpected)}")
        if len(names) != len(set(names)):
            raise ValueError("repeated column in header")
        pick = operator.itemgetter(*(names.index(c) for c in columns))
        seen = set()
        for number, row in records:
            if not row:
                continue
            if len(row) != len(names):
                raise ValueError(f"expected {len(names)} fields, found {len(row)} at row {number}")
            raw_id, *cells = pick(row)
            row_id = raw_id.strip()
            if not row_id:
                raise ValueError(f"empty id at row {number}")
            if row_id in seen:
                raise ValueError(f"duplicate id {row_id!r} at row {number}")
            seen.add(row_id)
            yield number, row_id, cells
    except csv.Error as exc:
        raise ValueError(f"{exc} at row {number + 1}") from None
    if not seen:
        raise ValueError("no data rows")


def reference_parse_dataset(csv_text):
    """The parse that read each cell as its row came, kept as the oracle."""
    names = CSV_COLUMNS[1:]
    numbers, ids, values = [], [], []
    for number, pid, cells in reference_read_table(csv_text, CSV_COLUMNS):
        numbers.append(number)
        ids.append(pid)
        values.append([parse_number(cell, name, number) for name, cell in zip(names, cells)])
    table = np.array(values)
    try:
        return Dataset(tuple(ids), table[:, :3], table[:, 3])
    except _ProjectError as exc:
        raise ValueError(f"{exc} at row {numbers[exc.index]}") from None


def reference_parse_predictions(text):
    """The predictions parse that read each cell as its row came, kept as the oracle."""
    rows = reference_read_table(text, PREDICTION_COLUMNS)
    return {pid: parse_number(value, "predicted_ph", number) for number, pid, (value,) in rows}


# Pieces of cell text that float() and parse_number may read differently: signs,
# exponents, overflow, underscores, inf and nan, non-ASCII digits and spaces.
NUMBER_PIECES = ["", "+", "-", "0", "7", "12", ".", ".5", "e", "E-", "e+3", "e999", "_",
                 "inf", "nan", "Infinity", " ", "\t", "\r", "\x1c", "\u00a0", "\u2003", "\u0663",
                 "\u0d6c", "\uff11", "x"]
cell_text = st.one_of(
    positive.map(repr),
    st.floats().map(repr),
    st.sampled_from(["1_000", "1e999", "-1e-999", " 2\u2003", "\u0663.5", "+.5E+3", "nan",
                     "#", "1#", "\x00", "1\x00", "\x002"]),
    st.lists(st.sampled_from(NUMBER_PIECES), max_size=5).map("".join),
    st.text(max_size=4),
)
# Only the csv module's row reader reads quoted cells and carriage returns.
QUOTED_CELLS = st.sampled_from(['"1,234"', '"p""1"', '""', '"7"', '"a"'])


@st.composite
def table_texts(draw, columns):
    """CSV text of a header and up to 6 rows of drawn cells, with blank and whitespace-only
    lines and repeated ids; half the tables also draw quoted cells and \\r\\n or \\r line ends.
    """
    cells_of, ids = cell_text, st.sampled_from(["a", "b", " c ", "", "#", "d\x00"]) | project_id
    ends = st.just("\n")
    if draw(st.booleans()):
        cells_of, ids = cells_of | QUOTED_CELLS, ids | QUOTED_CELLS
        ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(1, 6))):
        cells = draw(st.lists(cells_of, min_size=len(columns) - 1, max_size=len(columns) - 1))
        blanks = draw(st.lists(st.sampled_from(["", "", " ", "\t"]), max_size=1))
        lines.extend(blanks + [",".join([draw(ids), *cells])])
    return "".join(line + draw(ends) for line in lines)


def outcome(parse, text):
    """What parse(text) gives, in bits: ids and values, or the error's type and message."""
    try:
        result = parse(text)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    if isinstance(result, Dataset):
        return result.ids, result.features.tobytes(), result.efforts.tobytes()
    return [(pid, value.hex()) for pid, value in result.items()]


@pytest.mark.parametrize("parse, reference, columns", [
    (parse_dataset, reference_parse_dataset, CSV_COLUMNS),
    (_parse_predictions, reference_parse_predictions, PREDICTION_COLUMNS),
], ids=["dataset", "predictions"])
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parse_matches_per_cell_reference(parse, reference, columns, data):
    text = data.draw(table_texts(columns))
    assert outcome(parse, text) == outcome(reference, text)


# Cells and ids of tables that the whole-table reader takes: finite decimals with
# signs, exponents and surrounding spaces, and ids with no comma or quote.
clean_cell = st.from_regex(
    r"\A {0,2}[+-]?([0-9]{1,7}(\.[0-9]{0,7})?|\.[0-9]{1,7})"
    r"([eE]([+-]?[0-9]{1,2}|[+-]?[12][0-9]{2}|-3[0-2][0-9]))? {0,2}\Z"
)
clean_id = project_id.filter(lambda pid: "," not in pid and '"' not in pid)


@st.composite
def clean_table_texts(draw, columns):
    """CSV text with no '"' and no '\\r': a header naming `columns` in any order,
    then rows of distinct ids and clean cells, with blank lines between some."""
    header = draw(st.permutations(columns))
    lines = [",".join(header)]
    for pid in draw(st.lists(clean_id, min_size=1, max_size=6, unique=True)):
        cells = {name: draw(clean_cell) for name in columns[1:]}
        cells[columns[0]] = draw(st.sampled_from(["", " "])) + pid + draw(st.sampled_from(["", " "]))
        lines.extend(draw(st.lists(st.just(""), max_size=1)) + [",".join(map(cells.get, header))])
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.mark.parametrize("parse, reference, columns", [
    (parse_dataset, reference_parse_dataset, CSV_COLUMNS),
    (_parse_predictions, reference_parse_predictions, PREDICTION_COLUMNS),
], ids=["dataset", "predictions"])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_clean_tables_are_read_whole_and_match_per_cell_reference(parse, reference, columns, data):
    text = data.draw(clean_table_texts(columns))
    calls = []

    def spy(text, columns):
        calls.append(text)
        return read_rows(text, columns)

    read_rows = fmtree.data._read_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fmtree.data, "_read_rows", spy)
        got = outcome(parse, text)
    assert got == outcome(reference, text)
    assert calls == []


def table(*rows):
    return "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"


def test_only_a_faulty_row_goes_through_parse_number(monkeypatch):
    calls = []

    def spy(text, column, row):
        calls.append(row)
        return parse_number(text, column, row)

    monkeypatch.setattr(fmtree.data, "parse_number", spy)
    text = table(*(f"p{i},1,2,3,4" for i in range(999)), "last,1,2,3,1_0")
    with pytest.raises(ValueError, match="^non-numeric effort_ph '1_0' at row 1001$"):
        parse_dataset(text)
    assert calls == [1001] * 4


def test_a_row_whose_sum_overflows_is_read_cell_by_cell():
    ds = parse_dataset(table("p1,1e308,1e308,3,1e308"))
    assert ds.features.tolist() == [[1e308, 1e308, 3.0]] and ds.efforts.tolist() == [1e308]


@pytest.mark.parametrize("rows, message", [
    (("p1,1,2,3,4", "p2,1,-inf,3,4", "p3,1,2,3,4", "p4,1,2,3"),
     "non-numeric productivity '-inf' at row 3"),
    (("p1,1,2,3,4", "p2,1,1e999,3,4", "p3,1,2,3,4", "p4,1,2,3"),
     "non-finite productivity '1e999' at row 3"),
    (("p1,1,2,3,4", "p2,1,2,3", "p3,1,2,3,4", "p4,1,nan,3,4"),
     "expected 5 fields, found 4 at row 3"),
    (("p1,1,2,3,4", "p2,1,2,3,4", "p3,1,2,3,4", "p2,1,1e999,3,4"),
     "duplicate id 'p2' at row 5"),
], ids=["non-finite-before-short-row", "overflow-before-short-row",
        "short-row-before-non-finite", "duplicate-id-before-overflow"])
def test_the_first_fault_in_row_order_is_named(rows, message):
    with pytest.raises(ValueError) as excinfo:
        parse_dataset(table(*rows))
    assert str(excinfo.value) == message


def test_split_holdout_partitions():
    ds = generate_synthetic(EDU, 84, seed=3)
    train, test = split_holdout(ds, 59, seed=5)
    assert len(train) == 59 and len(test) == 25
    assert set(train.ids) | set(test.ids) == set(ds.ids)
    assert set(train.ids) & set(test.ids) == set()


def test_split_holdout_deterministic_and_seed_sensitive():
    ds = generate_synthetic(EDU, 40, seed=3)
    a1 = split_holdout(ds, 30, seed=1)
    a2 = split_holdout(ds, 30, seed=1)
    b = split_holdout(ds, 30, seed=2)
    assert a1[0].ids == a2[0].ids and a1[1].ids == a2[1].ids
    assert a1[0].ids != b[0].ids


def test_split_holdout_range_errors():
    ds = generate_synthetic(EDU, 10, seed=3)
    for count in (0, 10, 11):
        with pytest.raises(ValueError, match="train_count"):
            split_holdout(ds, count, seed=0)


def test_profile_validation():
    with pytest.raises(ValueError, match="sd_effort"):
        SourceProfile(1.0, 10.0, 5.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="mean_effort"):
        SourceProfile(6.0, 10.0, 5.0, 1.0, 0.5)


def test_generate_synthetic_ranges_and_determinism():
    for profile in (IND1, IND2, EDU):
        ds1 = generate_synthetic(profile, 200, seed=7)
        ds2 = generate_synthetic(profile, 200, seed=7)
        assert render_dataset(ds1) == render_dataset(ds2)
        efforts = ds1.efforts
        assert efforts.min() >= profile.min_effort
        assert efforts.max() <= profile.max_effort
        features = ds1.features
        ratio = efforts / features[:, 0]
        assert ratio.min() >= 10.0 - 1e-9 and ratio.max() <= 35.0 + 1e-9
        assert np.all(features[:, 2] == np.round(features[:, 2]))
        assert features[:, 2].min() >= 1 and features[:, 2].max() <= 5

    assert render_dataset(generate_synthetic(EDU, 200, seed=8)) != render_dataset(
        generate_synthetic(EDU, 200, seed=9)
    )


def test_generate_synthetic_moments_pinned_seed():
    for profile in PROFILES.values():
        efforts = generate_synthetic(profile, 1000, seed=5).efforts
        assert abs(efforts.mean() - profile.mean_effort) / profile.mean_effort < 0.10
        assert abs(efforts.std() - profile.sd_effort) / profile.sd_effort < 0.15


@pytest.mark.parametrize(
    "name, digest",
    [
        ("ind1", "a109979db7bee449e9fc0d152adac3d9ac69d83cbabb555a5eb05a7d30618e18"),
        ("ind2", "657d84bd8232c59ea95b47bcd688f9124bbfbc253aa13f3e5ed6e5d5d73ab758"),
        ("edu", "feff2fe2bdac18e753c7766dbbdcdc2ac00ad3dab99243b04158282f8d08613b"),
    ],
)
def test_generate_synthetic_bytes_are_pinned(name, digest):
    # Digests of the CSVs written when the calibration grid came from scipy.stats.norm.ppf.
    text = render_dataset(generate_synthetic(PROFILES[name], 64, seed=4))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generate_synthetic_rejects_tiny_n():
    with pytest.raises(ValueError, match="at least 2"):
        generate_synthetic(EDU, 1, seed=0)
