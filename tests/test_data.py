import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fmtree.data import (
    EDU,
    IND1,
    IND2,
    PROFILES,
    Dataset,
    Project,
    SourceProfile,
    effort_vector,
    feature_matrix,
    generate_synthetic,
    parse_dataset,
    render_dataset,
    split_holdout,
)

CSV_ONE = "id,size_ucp,productivity,complexity,effort_ph\np1,120,20,3,2400"


def test_parse_single_row():
    ds = parse_dataset(CSV_ONE)
    assert len(ds) == 1
    p = ds.projects[0]
    assert p.id == "p1"
    assert p.effort_ph == 2400.0
    assert p.features() == (120.0, 20.0, 3.0)


def test_parse_header_order_and_case_insensitive():
    text = "Effort_PH,ID,Complexity,Productivity,Size_UCP\n10,a,1,2,3\n"
    ds = parse_dataset(text)
    p = ds.projects[0]
    assert (p.id, p.size_ucp, p.productivity, p.complexity, p.effort_ph) == (
        "a", 3.0, 2.0, 1.0, 10.0,
    )


def test_parse_missing_column_named():
    with pytest.raises(ValueError, match="missing column.*effort_ph"):
        parse_dataset("id,size_ucp,productivity,complexity\np1,1,2,3")


def test_parse_unexpected_column_rejected():
    with pytest.raises(ValueError, match="unexpected column"):
        parse_dataset("id,size_ucp,productivity,complexity,effort_ph,notes\np1,1,2,3,4,x")


def test_parse_non_positive_effort_reports_row():
    text = "id,size_ucp,productivity,complexity,effort_ph\np1,1,2,3,4\np2,1,2,3,0\n"
    with pytest.raises(ValueError, match="non-positive effort at row 3"):
        parse_dataset(text)


def test_parse_non_numeric_reports_row_and_column():
    text = "id,size_ucp,productivity,complexity,effort_ph\np1,abc,2,3,4\n"
    with pytest.raises(ValueError, match="non-numeric size_ucp 'abc' at row 2"):
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
    projects = tuple(
        Project(f"p{i}", 0.1 * i + 0.3, 1.0 / 3.0 * i + 1.0, float(i % 5 + 1), 7.0 / 11.0 + i)
        for i in range(1, 20)
    )
    ds = Dataset(projects, "Edu")
    again = parse_dataset(render_dataset(ds), "Edu")
    assert again == ds


def test_project_validation():
    with pytest.raises(ValueError, match="effort_ph must be positive"):
        Project("p", 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="size_ucp must be positive"):
        Project("p", 0.0, 1.0, 1.0, 10.0)
    with pytest.raises(ValueError, match="must be finite"):
        Project("p", 1.0, math.nan, 1.0, 10.0)


def test_dataset_validation():
    p = Project("a", 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="duplicate id"):
        Dataset((p, p))
    with pytest.raises(ValueError, match="at least one project"):
        Dataset(())
    with pytest.raises(ValueError, match="source_label"):
        Dataset((p,), "bogus")


def test_feature_matrix_and_effort_vector():
    ds = parse_dataset(CSV_ONE)
    assert_allclose(feature_matrix(ds), [[120.0, 20.0, 3.0]])
    assert_allclose(effort_vector(ds), [2400.0])


def test_split_holdout_partitions():
    ds = generate_synthetic(EDU, 84, seed=3)
    train, test = split_holdout(ds, 59, seed=5)
    assert len(train) == 59 and len(test) == 25
    assert set(train.ids()) | set(test.ids()) == set(ds.ids())
    assert set(train.ids()) & set(test.ids()) == set()


def test_split_holdout_deterministic_and_seed_sensitive():
    ds = generate_synthetic(EDU, 40, seed=3)
    a1 = split_holdout(ds, 30, seed=1)
    a2 = split_holdout(ds, 30, seed=1)
    b = split_holdout(ds, 30, seed=2)
    assert a1[0].ids() == a2[0].ids() and a1[1].ids() == a2[1].ids()
    assert a1[0].ids() != b[0].ids()


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
        assert ds1 == ds2
        assert render_dataset(ds1) == render_dataset(ds2)
        efforts = effort_vector(ds1)
        assert efforts.min() >= profile.min_effort
        assert efforts.max() <= profile.max_effort
        features = feature_matrix(ds1)
        ratio = efforts / features[:, 0]
        assert ratio.min() >= 10.0 - 1e-9 and ratio.max() <= 35.0 + 1e-9
        assert np.all(features[:, 2] == np.round(features[:, 2]))
        assert features[:, 2].min() >= 1 and features[:, 2].max() <= 5

    assert generate_synthetic(EDU, 200, seed=8) != generate_synthetic(EDU, 200, seed=9)


def test_generate_synthetic_moments_pinned_seed():
    for profile in PROFILES.values():
        efforts = effort_vector(generate_synthetic(profile, 1000, seed=5))
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
