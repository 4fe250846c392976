import json
import math

import pytest

import fmtree.ucp
from fmtree.data import Dataset
from fmtree.ucp import (
    ENVIRONMENTAL_WEIGHTS,
    TECHNICAL_WEIGHTS,
    UseCaseModel,
    classical_effort,
    compute_adjustment_factors,
    compute_ucp,
    compute_uucp,
    effort_ratio,
    fit_ucp,
    predict_ucp_dataset,
    ucp_from_json,
    ucp_to_json,
    use_case_model_from_json,
)

ALL_THREES = UseCaseModel(
    actors=("simple", "simple", "complex"),
    use_cases=("average", "average", "average"),
    technical_ratings=(3,) * 13,
    environmental_ratings=(3,) * 8,
)


def test_unadjusted_points_worked_example():
    uwa, uuc, uucp = compute_uucp(ALL_THREES)
    assert uwa == 5.0
    assert uuc == 30.0
    assert uucp == 35.0


def test_adjustment_factors_at_all_threes():
    tcf, ef = compute_adjustment_factors(ALL_THREES)
    assert tcf == pytest.approx(1.02, abs=1e-12)
    assert ef == pytest.approx(0.995, abs=1e-12)


def test_ucp_product():
    breakdown = compute_ucp(ALL_THREES)
    assert breakdown.ucp == pytest.approx(35.0 * 1.02 * 0.995, rel=1e-12)
    assert breakdown.ucp == pytest.approx(35.5215, abs=1e-4)


def test_zero_ratings_boundary_factors():
    model = UseCaseModel(("simple",), ("simple",), (0,) * 13, (0,) * 8)
    tcf, ef = compute_adjustment_factors(model)
    assert tcf == 0.6
    assert ef == 1.4


def test_factor_formulas_match_manual_dot_product():
    import random

    rng = random.Random(99)
    for _ in range(50):
        tech = tuple(rng.randint(0, 5) for _ in range(13))
        env = tuple(rng.randint(0, 5) for _ in range(8))
        model = UseCaseModel(("average",), ("complex",), tech, env)
        tcf, ef = compute_adjustment_factors(model)
        assert tcf == pytest.approx(
            0.6 + 0.01 * sum(w * r for w, r in zip(TECHNICAL_WEIGHTS, tech)), abs=1e-12
        )
        assert ef == pytest.approx(
            1.4 - 0.03 * sum(w * r for w, r in zip(ENVIRONMENTAL_WEIGHTS, env)), abs=1e-12
        )


def test_adding_actor_monotone():
    base = compute_ucp(ALL_THREES)
    grown = compute_ucp(
        UseCaseModel(
            ALL_THREES.actors + ("average",),
            ALL_THREES.use_cases,
            ALL_THREES.technical_ratings,
            ALL_THREES.environmental_ratings,
        )
    )
    assert grown.ucp > base.ucp


def test_classical_effort():
    assert classical_effort(35.5215) == pytest.approx(710.43)
    assert classical_effort(10.0, 15.0) == 150.0
    assert classical_effort(2400.0 / 20.0) == 2400.0
    for bad_ratio in (0.0, -1.0):
        with pytest.raises(ValueError, match="ratio"):
            classical_effort(10.0, bad_ratio)
    for bad_ucp in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            classical_effort(bad_ucp)


def test_classical_effort_linear_in_ratio():
    assert classical_effort(12.0, 30.0) == pytest.approx(2 * classical_effort(12.0, 15.0))


def test_model_validation():
    with pytest.raises(ValueError, match="at least one use case"):
        UseCaseModel(("simple",), (), (0,) * 13, (0,) * 8)
    with pytest.raises(ValueError, match="unknown actor class"):
        UseCaseModel(("heroic",), ("simple",), (0,) * 13, (0,) * 8)
    with pytest.raises(ValueError, match="rating 6 outside"):
        UseCaseModel(("simple",), ("simple",), (6,) + (0,) * 12, (0,) * 8)
    with pytest.raises(ValueError, match="expected 13 technical"):
        UseCaseModel(("simple",), ("simple",), (0,) * 12, (0,) * 8)
    with pytest.raises(ValueError, match="expected 8 environmental"):
        UseCaseModel(("simple",), ("simple",), (0,) * 13, (0,) * 9)
    with pytest.raises(ValueError, match="must be integers"):
        UseCaseModel(("simple",), ("simple",), (0.5,) + (0,) * 12, (0,) * 8)


def test_from_json():
    doc = {
        "actors": ["Simple", "simple", "COMPLEX"],
        "use_cases": ["average", "average", "average"],
        "technical": [3] * 13,
        "environmental": [3] * 8,
    }
    model = use_case_model_from_json(doc)
    assert compute_ucp(model).ucp == pytest.approx(35.5215, abs=1e-4)
    missing = r"use-case model must hold the keys .*, got \['actors', 'use_cases'\]"
    with pytest.raises(ValueError, match=missing):
        use_case_model_from_json({"actors": [], "use_cases": ["simple"]})
    doc_bad = dict(doc, technical=[3.5] + [3] * 12)
    with pytest.raises(ValueError, match="integers"):
        use_case_model_from_json(doc_bad)


def test_effort_ratio_reads_the_default_when_called(monkeypatch):
    assert effort_ratio(None) == 20.0
    assert effort_ratio(30.0) == 30.0
    monkeypatch.setattr(fmtree.ucp, "DEFAULT_EFFORT_RATIO", 25.0)
    assert effort_ratio(None) == 25.0
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="ratio must be positive and finite"):
            effort_ratio(bad)


def test_ucp_kind_predicts_size_times_ratio_and_reads_back_its_file():
    dataset = Dataset(("a", "b"), [[10.0, 1.0, 1.0], [2.5, 2.0, 3.0]], [100.0, 40.0])
    ratio = fit_ucp(None, 18.0)
    assert predict_ucp_dataset(ratio, dataset).tolist() == [180.0, 45.0]
    doc = json.loads(json.dumps(ucp_to_json(ratio)))
    assert doc == {"kind": "ucp", "ratio": 18.0}
    assert ucp_from_json(doc) == ratio
    with pytest.raises(ValueError, match="ratio must be positive and finite"):
        fit_ucp(None, 0.0)
