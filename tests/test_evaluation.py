import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from conftest import piecewise_dataset
from fmtree.baselines import (
    TreeboostConfig,
    fit_mlr,
    fit_treeboost,
    predict_mlr_dataset,
    predict_treeboost_dataset,
)
from fmtree.data import split_holdout
from fmtree.evaluation import (
    average_ranks,
    boxplot_summary,
    compare,
    evaluate,
    mdmre,
    median_of_sorted,
    mmre,
    mre_vector,
    pred,
    render_metrics_table,
    render_wtl_table,
    WilcoxonResult,
    scores,
    wilcoxon_signed_rank,
    win_tie_loss,
)
from fmtree.fcm import FcmConfig
from fmtree.fmt import predict_fmt_dataset, train_fmt
from fmtree.ucp import UseCaseModel, classical_effort, compute_ucp

SAMPLE_ERRORS = [0.1, 0.2, 0.3, 0.6]
BOXPLOT_KEYS = {
    "minimum", "q1", "median", "q3", "maximum", "whisker_low", "whisker_high", "outliers",
}


def encoded(obj):
    """obj as the CLI writes it to a JSON file, read back."""
    return json.loads(json.dumps(obj, default=vars))


class TestPointMetrics:
    def test_mre_vector_hand_values(self):
        got = mre_vector([100.0, 200.0, 100.0, 100.0, 100.0], [50.0, 250.0, 50.0, 125.0, 100.0])
        assert got.tolist() == [0.5, 0.25, 0.5, 0.25, 0.0]

    def test_mre_vector_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mre_vector([100.0, 200.0], [50.0])
        with pytest.raises(ValueError, match="positive"):
            mre_vector([100.0, 0.0], [50.0, 50.0])
        with pytest.raises(ValueError, match="positive"):
            mre_vector([-5.0], [10.0])
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
        doc = encoded(boxplot_summary([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert set(doc) == BOXPLOT_KEYS
        assert doc["outliers"] == [100.0]


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


# Finite floats >= 0 (min_value=0.0 draws no -0.0), often from a few values so that ties are common.
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([0.0, 0.5, 1.0, 3e5])


@given(st.lists(NON_NEGATIVE, min_size=1, max_size=199), st.booleans())
def test_median_of_sorted_equals_numpy_median_bit_for_bit(values, odd):
    """On the values it is given (MREs, residuals and efforts: finite, never -0.0), the
    helper is np.median, for odd and even lengths, with ties and with sums that overflow."""
    if len(values) % 2 != odd:
        values = values + values[:1]
    v = np.array(values)
    with np.errstate(over="ignore"):
        expected = np.median(v)
        got = median_of_sorted(np.sort(v))
    assert type(got) is float
    assert np.float64(got).tobytes() == expected.tobytes()


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

    def test_normal_approximation_at_the_null_mean_gives_p_1(self):
        # 14 differences of magnitude 1 share rank 7.5, and the 7 positive ones give
        # W+ = 52.5 = n(n+1)/4: no shift at all, which the continuity correction
        # would turn into a z below 0.
        result = wilcoxon_signed_rank(np.zeros(14), [1.0, -1.0] * 7)
        assert result == WilcoxonResult(True, 1.0, 52.5)

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


# Paired MRE-like rows for the comparison layer's properties: 5-40 rows of values in
# [0, 5], often from a few values so that ties and zero differences are common.
PAIRED_VALUE = st.floats(min_value=0.0, max_value=5.0) | st.sampled_from([0.0, 0.5, 1.0, 5.0])


@st.composite
def mre_columns(draw, min_methods=2, max_methods=2):
    """A list of equal-length value lists, one per method."""
    n = draw(st.integers(5, 40))
    count = draw(st.integers(min_methods, max_methods))
    column = st.lists(PAIRED_VALUE, min_size=n, max_size=n)
    return [draw(column) for _ in range(count)]


class TestComparisonProperties:
    @given(mre_columns())
    def test_wilcoxon_is_symmetric_in_its_sides(self, columns):
        a, b = columns
        ab, ba = wilcoxon_signed_rank(a, b), wilcoxon_signed_rank(b, a)
        assert (ab.p_value, ab.same) == (ba.p_value, ba.same)

    @given(mre_columns(), st.randoms(use_true_random=False))
    def test_wilcoxon_p_ignores_the_order_of_the_pairs(self, columns, random):
        a, b = columns
        order = list(range(len(a)))
        random.shuffle(order)
        shuffled = wilcoxon_signed_rank([a[i] for i in order], [b[i] for i in order])
        assert shuffled.p_value == wilcoxon_signed_rank(a, b).p_value

    @given(mre_columns(2, 4), st.randoms(use_true_random=False))
    def test_win_tie_loss_ignores_the_order_of_the_methods(self, columns, random):
        methods = {f"m{k}": column for k, column in enumerate(columns)}
        names = list(methods)
        random.shuffle(names)
        assert win_tie_loss({name: methods[name] for name in names}) == win_tie_loss(methods)

    @given(mre_columns(2, 4))
    def test_win_tie_loss_wins_equal_losses(self, columns):
        records = win_tie_loss({f"m{k}": column for k, column in enumerate(columns)}).values()
        assert sum(r.win for r in records) == sum(r.loss for r in records)


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
        assert report.scores() == scores(mre_vector(actuals, predictions))

    def test_json_round_trip_fields(self):
        report = evaluate([100.0, 200.0], [110.0, 150.0])
        doc = encoded(report)
        assert set(doc) == {"mmre", "mdmre", "pred25", "pred50", "abs_residuals", "boxplot"}
        assert doc["abs_residuals"] == [10.0, 50.0]
        assert set(doc["boxplot"]) == BOXPLOT_KEYS
        assert doc["boxplot"]["outliers"] == []

    @pytest.mark.parametrize("make", [
        lambda: evaluate([100.0, 200.0, 400.0, 90.0], [110.0, 150.0, 400.0, 300.0]),
        lambda: evaluate([100.0, 200.0, 400.0, 90.0], [110.0, 150.0, 400.0, 300.0]).boxplot,
        lambda: win_tie_loss({"a": [0.1] * 6, "b": [0.5] * 6})["a"],
        lambda: compute_ucp(UseCaseModel(("average",), ("complex",), (3,) * 13, (3,) * 8)),
    ], ids=["EvalReport", "BoxplotSummary", "MethodRecord", "UcpBreakdown"])
    def test_the_cli_writes_each_result_as_its_fields(self, make):
        """vars(obj) is the CLI's encoding: exactly the fields, in field order, as asdict gives."""
        obj = make()
        assert list(vars(obj)) == [f.name for f in dataclasses.fields(obj)]
        assert encoded(obj) == encoded(dataclasses.asdict(obj))

    def test_length_mismatch_is_reported_before_residuals(self):
        with pytest.raises(ValueError, match="length mismatch: 3 actuals vs 2 predictions"):
            evaluate([1.0, 2.0, 3.0], [1.0, 2.0])


class TestWinTieLoss:
    def test_clear_dominance(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.01, 0.05, 20)
        table = win_tie_loss({"good": a, "bad": a * 20.0})
        assert table["good"].win == 4
        assert table["good"].loss == 0
        assert table["good"].rank == 1
        assert table["bad"].win == 0
        assert table["bad"].loss == 4
        assert table["bad"].rank == 2

    def test_identical_methods_all_tie(self):
        a = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        table = win_tie_loss({"one": a, "two": list(a)})
        for record in table.values():
            assert (record.win, record.tie, record.loss) == (0, 4, 0)
            assert record.rank == 1

    def test_distinguishable_but_equal_measures_tie(self):
        a = np.linspace(0.01, 0.1, 12)
        b = a + 0.01
        # both stay under the pred cutoffs, so pred25/pred50 match exactly
        table = win_tie_loss({"a": a, "b": b})
        assert table["a"].win == 2
        assert table["a"].tie == 2
        assert table["b"].loss == 2
        assert table["b"].tie == 2

    def test_three_way_chain_ranks(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(0.01, 0.04, 25)
        table = win_tie_loss({"best": base, "mid": base * 15.0, "worst": base * 100.0})
        assert [table[m].rank for m in ("best", "mid", "worst")] == [1, 2, 3]
        assert table["best"].win == 8
        assert table["mid"].win == table["mid"].loss == 4
        assert table["worst"].loss == 8

    def test_bookkeeping_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_methods = int(rng.integers(2, 5))
            n = int(rng.integers(8, 30))
            vectors = {
                f"m{k}": rng.uniform(0.0, 1.0, n) * rng.uniform(0.2, 3.0)
                for k in range(n_methods)
            }
            records = win_tie_loss(vectors)
            assert tuple(records) == tuple(vectors)
            per_pair = 4 * (n_methods - 1)
            assert all(r.win + r.tie + r.loss == per_pair for r in records.values())
            assert sum(r.win for r in records.values()) == sum(r.loss for r in records.values())
            assert sum(r.tie for r in records.values()) % 2 == 0
            assert min(r.rank for r in records.values()) == 1
            by_delta = sorted(records.values(), key=lambda r: r.loss - r.win)
            deltas = [r.win - r.loss for r in by_delta]
            # Competition ranking: equal differences share the first position they hold.
            assert [r.rank for r in by_delta] == [1 + deltas.index(d) for d in deltas]

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            win_tie_loss({"only": [0.1] * 6})
        with pytest.raises(ValueError, match="equal length"):
            win_tie_loss({"a": [0.1] * 6, "b": [0.2] * 7})


@pytest.fixture(scope="module")
def pinned_predictions():
    """The test efforts of the pinned 59/25 split and the four models' predictions of
    them, built as test_acceptance.py::test_end_to_end_nonlinearity builds them."""
    train, test = split_holdout(piecewise_dataset(), 59, seed=2014)
    return test.efforts, {
        "FMT": predict_fmt_dataset(train_fmt(train, FcmConfig(seed=2014)), test),
        "Treeboost": predict_treeboost_dataset(
            fit_treeboost(train, TreeboostConfig(seed=2014)), test),
        "MLR": predict_mlr_dataset(fit_mlr(train), test),
        "UCP": np.array([classical_effort(size) for size in test.features[:, 0].tolist()]),
    }


@st.composite
def actuals_and_predictions(draw):
    """5-40 positive actuals and 2-4 methods' predictions of them, ties common."""
    n = draw(st.integers(5, 40))
    value = st.floats(min_value=0.5, max_value=1e4) | st.sampled_from([1.0, 100.0, 250.5])
    actuals = draw(st.lists(value, min_size=n, max_size=n))
    count = draw(st.integers(2, 4))
    column = st.lists(value | st.just(0.0), min_size=n, max_size=n)
    return actuals, {f"m{k}": draw(column) for k in range(count)}


def assert_compare_is_the_separate_calls(actuals, predictions):
    reports, records = compare(actuals, predictions)
    assert reports == {name: evaluate(actuals, p) for name, p in predictions.items()}
    assert tuple(reports) == tuple(records) == tuple(predictions)
    mres = {name: mre_vector(actuals, p) for name, p in predictions.items()}
    assert records == win_tie_loss(mres)
    for name, report in reports.items():
        assert np.array_equal(np.divide(report.abs_residuals, actuals), mres[name])


def raised(call, *args):
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


class TestCompare:
    def test_pinned_split_is_the_separate_calls(self, pinned_predictions):
        assert_compare_is_the_separate_calls(*pinned_predictions)

    @given(actuals_and_predictions())
    def test_drawn_inputs_are_the_separate_calls(self, drawn):
        assert_compare_is_the_separate_calls(*drawn)

    def test_errors_are_the_separate_calls_errors(self):
        actuals = [100.0, 200.0, 300.0, 400.0, 500.0]
        good = [110.0, 190.0, 300.0, 420.0, 480.0]
        short = {"a": good, "b": good[:4]}
        assert raised(compare, actuals, short) == raised(evaluate, actuals, good[:4])
        not_positive = [100.0, 0.0, 300.0, 400.0, 500.0]
        assert raised(compare, not_positive, {"a": good, "b": good}) == raised(
            evaluate, not_positive, good)
        for methods in ({"a": good}, {}):
            mres = {name: mre_vector(actuals, p) for name, p in methods.items()}
            assert raised(compare, actuals, methods) == raised(win_tie_loss, mres)


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
