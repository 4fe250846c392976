import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from fmtree.evaluation import (
    average_ranks,
    boxplot_summary,
    evaluate,
    mdmre,
    mmre,
    mre,
    mre_vector,
    pred,
    render_metrics_table,
    render_wtl_table,
    wilcoxon_signed_rank,
    win_tie_loss,
)

SAMPLE_ERRORS = [0.1, 0.2, 0.3, 0.6]


class TestPointMetrics:
    def test_mre_hand_values(self):
        assert mre(100.0, 50.0) == 0.5
        assert mre(100.0, 125.0) == 0.25
        assert mre(100.0, 100.0) == 0.0

    def test_mre_requires_positive_actual(self):
        with pytest.raises(ValueError, match="positive"):
            mre(0.0, 10.0)
        with pytest.raises(ValueError, match="positive"):
            mre(-5.0, 10.0)

    def test_mre_vector_matches_scalar(self):
        got = mre_vector([100.0, 200.0], [50.0, 250.0])
        assert_allclose(got, [0.5, 0.25])

    def test_mre_vector_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mre_vector([100.0, 200.0], [50.0])
        with pytest.raises(ValueError, match="positive"):
            mre_vector([100.0, 0.0], [50.0, 50.0])
        with pytest.raises(ValueError, match="finite"):
            mre_vector([100.0, np.nan], [50.0, 50.0])

    def test_summary_hand_values(self):
        assert mmre(SAMPLE_ERRORS) == pytest.approx(0.3)
        assert mdmre(SAMPLE_ERRORS) == pytest.approx(0.25)
        assert pred(SAMPLE_ERRORS, 0.25) == 50.0
        assert pred(SAMPLE_ERRORS, 0.50) == 75.0

    def test_pred_boundary_is_inclusive(self):
        assert pred([0.25], 0.25) == 100.0
        assert pred([0.25 + 1e-12], 0.25) == 0.0

    def test_pred_level_range(self):
        assert pred(SAMPLE_ERRORS, 1.0) == 100.0
        with pytest.raises(ValueError, match="level"):
            pred(SAMPLE_ERRORS, 0.0)
        with pytest.raises(ValueError, match="level"):
            pred(SAMPLE_ERRORS, 1.2)

    def test_against_plain_loop_oracles(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            values = rng.uniform(0.0, 2.0, rng.integers(1, 40)).tolist()
            assert mmre(values) == pytest.approx(math.fsum(values) / len(values), abs=1e-12)
            s = sorted(values)
            n = len(s)
            middle = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0
            assert mdmre(values) == pytest.approx(middle, abs=1e-12)
            want = 100.0 * sum(1 for v in values if v <= 0.25) / n
            assert pred(values, 0.25) == pytest.approx(want, abs=1e-12)


class TestBoxplot:
    def test_odd_count(self):
        box = boxplot_summary([5.0, 1.0, 3.0, 2.0, 4.0])
        assert (box.q1, box.median, box.q3) == (2.0, 3.0, 4.0)
        assert (box.whisker_low, box.whisker_high) == (1.0, 5.0)
        assert box.outliers == ()

    def test_even_count_hinges(self):
        box = boxplot_summary([1.0, 2.0, 3.0, 4.0])
        assert (box.q1, box.median, box.q3) == (1.5, 2.5, 3.5)

    def test_outlier_beyond_fence(self):
        box = boxplot_summary([1.0, 2.0, 3.0, 4.0, 100.0])
        assert (box.q1, box.q3) == (2.0, 4.0)
        assert box.whisker_high == 4.0
        assert box.maximum == 100.0
        assert box.outliers == (100.0,)

    def test_singleton(self):
        box = boxplot_summary([5.0])
        assert box.minimum == box.q1 == box.median == box.q3 == box.maximum == 5.0
        assert box.outliers == ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            boxplot_summary([])

    def test_json_fields(self):
        doc = boxplot_summary([1.0, 2.0, 3.0]).to_json()
        assert set(doc) == {
            "minimum", "q1", "median", "q3", "maximum",
            "whisker_low", "whisker_high", "outliers",
        }


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
def test_average_ranks_match_scipy(values):
    v = np.array(values, dtype=float) / 4.0
    assert np.array_equal(average_ranks(v), stats.rankdata(v, method="average"))


def brute_force_two_sided_p(a, b):
    """Enumerate every sign assignment over the ranked non-zero differences."""
    d = np.asarray(a, float) - np.asarray(b, float)
    d = d[d != 0.0]
    ranks = stats.rankdata(np.abs(d))
    total = ranks.sum()
    w = ranks[d > 0].sum()
    lo, hi = min(w, total - w), max(w, total - w)
    count = 0
    for signs in itertools.product((0, 1), repeat=len(d)):
        wsum = sum(r for s, r in zip(signs, ranks) if s)
        if wsum <= lo + 1e-9 or wsum >= hi - 1e-9:
            count += 1
    return count / 2 ** len(d)


class TestWilcoxon:
    def test_one_sided_dominance_exact_p(self):
        b = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        a = b + np.arange(1.0, 9.0) / 10.0
        result = wilcoxon_signed_rank(a, b)
        assert result.w_statistic == 36.0
        assert result.p_value == 2.0 / 2.0**8
        assert not result.same

    def test_identical_vectors_are_same(self):
        a = [0.1, 0.2, 0.3, 0.4, 0.5]
        result = wilcoxon_signed_rank(a, a)
        assert result.same
        assert result.p_value == 1.0
        assert result.w_statistic == 0.0

    def test_common_shift_changes_nothing(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.0, 1.0, 10)
        b = rng.uniform(0.0, 1.0, 10)
        assert wilcoxon_signed_rank(a + 10.0, b + 10.0) == wilcoxon_signed_rank(a, b)

    def test_swapping_sides_keeps_p(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.0, 1.0, 15)
        b = rng.uniform(0.0, 1.0, 15)
        ab = wilcoxon_signed_rank(a, b)
        ba = wilcoxon_signed_rank(b, a)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
        assert ab.same == ba.same

    def test_exact_branch_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            # rounding forces tied magnitudes and zero differences
            a = np.round(rng.uniform(0.0, 1.0, 9), 1)
            b = np.round(rng.uniform(0.0, 1.0, 9), 1)
            if np.all(a - b == 0.0):
                continue
            result = wilcoxon_signed_rank(a, b)
            assert result.p_value == pytest.approx(brute_force_two_sided_p(a, b), abs=1e-12)

    def test_approx_branch_matches_scipy(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 5:
            a = np.round(rng.uniform(0.0, 1.0, 30), 1)
            b = np.round(rng.uniform(0.0, 1.0, 30), 1)
            if np.count_nonzero(a - b) <= 12:
                continue
            result = wilcoxon_signed_rank(a, b)
            reference = stats.wilcoxon(
                a, b, zero_method="wilcox", correction=True,
                alternative="two-sided", method="approx",
            )
            assert result.p_value == pytest.approx(reference.pvalue, abs=1e-12)
            checked += 1

    def test_input_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            wilcoxon_signed_rank([1.0] * 6, [1.0] * 5)
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_signed_rank([1.0] * 4, [2.0] * 4)
        with pytest.raises(ValueError, match="alpha"):
            wilcoxon_signed_rank([1.0] * 5, [2.0] * 5, alpha=1.0)


class TestEvaluate:
    def test_report_values(self):
        actuals = [100.0, 200.0, 400.0]
        predictions = [110.0, 150.0, 400.0]
        report = evaluate(actuals, predictions)
        assert report.mmre == pytest.approx((0.1 + 0.25 + 0.0) / 3)
        assert report.mdmre == pytest.approx(0.1)
        assert report.pred25 == 100.0
        assert report.abs_residuals == (10.0, 50.0, 0.0)
        assert report.boxplot.median == 10.0

    def test_json_round_trip_fields(self):
        doc = evaluate([100.0, 200.0], [110.0, 150.0]).to_json()
        assert set(doc) == {"mmre", "mdmre", "pred25", "pred50", "abs_residuals", "boxplot"}


class TestWinTieLoss:
    def test_clear_dominance(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.01, 0.05, 20)
        table = win_tie_loss({"good": a, "bad": a * 20.0})
        assert table.records["good"].win == 4
        assert table.records["good"].loss == 0
        assert table.records["good"].rank == 1
        assert table.records["bad"].win == 0
        assert table.records["bad"].loss == 4
        assert table.records["bad"].rank == 2

    def test_identical_methods_all_tie(self):
        a = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        table = win_tie_loss({"one": a, "two": list(a)})
        for record in table.records.values():
            assert (record.win, record.tie, record.loss) == (0, 4, 0)
            assert record.rank == 1

    def test_distinguishable_but_equal_measures_tie(self):
        a = np.linspace(0.01, 0.1, 12)
        b = a + 0.01
        # both stay under the pred cutoffs, so pred25/pred50 match exactly
        table = win_tie_loss({"a": a, "b": b})
        assert table.records["a"].win == 2
        assert table.records["a"].tie == 2
        assert table.records["b"].loss == 2
        assert table.records["b"].tie == 2

    def test_three_way_chain_ranks(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(0.01, 0.04, 25)
        table = win_tie_loss({"best": base, "mid": base * 15.0, "worst": base * 100.0})
        assert [table.records[m].rank for m in ("best", "mid", "worst")] == [1, 2, 3]
        assert table.records["best"].win == 8
        assert table.records["mid"].win == table.records["mid"].loss == 4
        assert table.records["worst"].loss == 8

    def test_bookkeeping_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_methods = int(rng.integers(2, 5))
            n = int(rng.integers(8, 30))
            vectors = {
                f"m{k}": rng.uniform(0.0, 1.0, n) * rng.uniform(0.2, 3.0)
                for k in range(n_methods)
            }
            table = win_tie_loss(vectors)
            assert table.methods == tuple(vectors)
            records = table.records
            per_pair = 4 * (n_methods - 1)
            assert all(r.win + r.tie + r.loss == per_pair for r in records.values())
            assert sum(r.win for r in records.values()) == sum(r.loss for r in records.values())
            assert sum(r.tie for r in records.values()) % 2 == 0
            assert min(r.rank for r in records.values()) == 1
            by_delta = sorted(records.values(), key=lambda r: r.loss - r.win)
            assert [r.rank for r in by_delta] == sorted(r.rank for r in records.values())

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            win_tie_loss({"only": [0.1] * 6})
        with pytest.raises(ValueError, match="unknown measure"):
            win_tie_loss({"a": [0.1] * 6, "b": [0.2] * 6}, measures=("mmre", "rmse"))
        with pytest.raises(ValueError, match="equal length"):
            win_tie_loss({"a": [0.1] * 6, "b": [0.2] * 7})


class TestRendering:
    def test_metrics_table(self):
        reports = {"fmt": evaluate([100.0, 200.0], [110.0, 150.0])}
        text = render_metrics_table(reports)
        assert "MMRE%" in text
        assert "fmt" in text
        assert text.endswith("\n")

    def test_wtl_table(self):
        table = win_tie_loss({"a": [0.1] * 8, "b": [0.1] * 8})
        text = render_wtl_table(table)
        assert "Win" in text and "Rank" in text
        assert text.endswith("\n")
