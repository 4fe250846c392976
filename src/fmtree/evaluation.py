"""Accuracy metrics, residual boxplots, Wilcoxon signed-rank, win-tie-loss ranking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# The significance level of the signed-rank test that gates win_tie_loss.
ALPHA = 0.05
# The fewest pairs wilcoxon_signed_rank accepts, so the fewest test rows `compare` can use.
MIN_PAIRS = 5
_EXACT_LIMIT = 12


def _as_vector(values: Sequence[float], name: str = "values") -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def mre_vector(actuals: Sequence[float], predictions: Sequence[float]) -> np.ndarray:
    """Magnitude of relative error |actual - predicted| / actual of each pair."""
    a = _as_vector(actuals, "actuals")
    p = _as_vector(predictions, "predictions")
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: {a.size} actuals vs {p.size} predictions")
    if np.any(a <= 0):
        raise ValueError("actuals must be positive")
    return np.abs(a - p) / a


def median_of_sorted(ordered: np.ndarray) -> float:
    """The median of the ascending values `ordered`: the middle one, or the mean of the two.

    Equal, bit for bit, to np.median of the same values, which imports numpy.ma
    for its NaN check.  The one exception is a zero median among signed zeros:
    neither sort orders -0.0 against 0.0, so its sign can differ.
    """
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


def mmre(values: Sequence[float]) -> float:
    return float(np.mean(_as_vector(values)))


def mdmre(values: Sequence[float]) -> float:
    return median_of_sorted(np.sort(_as_vector(values)))


def pred(values: Sequence[float], level: float) -> float:
    """Percentage of entries with MRE <= level (the boundary counts)."""
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level}")
    v = _as_vector(values)
    return float(100.0 * np.count_nonzero(v <= level) / v.size)


# The four accuracy scores, each mapped to whether a higher value is better.
SCORES = {"mmre": False, "mdmre": False, "pred25": True, "pred50": True}


def scores(mres: Sequence[float]) -> dict[str, float]:
    """The SCORES of one method's MRE vector."""
    return {
        "mmre": mmre(mres),
        "mdmre": mdmre(mres),
        "pred25": pred(mres, 0.25),
        "pred50": pred(mres, 0.50),
    }


@dataclass(frozen=True)
class BoxplotSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def boxplot_summary(values: Sequence[float]) -> BoxplotSummary:
    """Five-number summary with Tukey hinges and 1.5*IQR whiskers.

    Hinges are medians of the lower/upper halves, each half including the
    middle point when the count is odd.  Whiskers reach the most extreme
    points within 1.5*IQR of the hinges; everything beyond is an outlier.
    """
    v = np.sort(_as_vector(values))
    n = v.size
    median = median_of_sorted(v)
    half = (n + 1) // 2
    q1 = median_of_sorted(v[:half])
    q3 = median_of_sorted(v[-half:])
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = v[(v >= low_fence) & (v <= high_fence)]
    return BoxplotSummary(
        minimum=float(v[0]),
        q1=q1,
        median=median,
        q3=q3,
        maximum=float(v[-1]),
        whisker_low=float(inside[0]),
        whisker_high=float(inside[-1]),
        outliers=tuple(v[(v < low_fence) | (v > high_fence)].tolist()),
    )


@dataclass(frozen=True)
class WilcoxonResult:
    same: bool
    p_value: float
    w_statistic: float


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of values; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, w_pos: float) -> float:
    # Work in doubled-rank integers so tied (x.5) ranks stay exact.
    r2 = np.rint(ranks * 2.0).astype(int)
    total = int(r2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    w2 = int(round(w_pos * 2.0))
    lo, hi = min(w2, total - w2), max(w2, total - w2)
    p = (counts[: lo + 1].sum() + counts[hi:].sum()) / 2.0 ** len(r2)
    return min(float(p), 1.0)


def _normal_two_sided_p(ranks: np.ndarray, abs_diffs: np.ndarray, w_pos: float) -> float:
    n = len(ranks)
    mu = n * (n + 1) / 4.0
    _, tie_sizes = np.unique(abs_diffs, return_counts=True)
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - float((tie_sizes**3 - tie_sizes).sum()) / 48.0
    offset = abs(w_pos - mu)
    if offset == 0.0 or sigma2 <= 0.0:
        return 1.0
    z = (offset - 0.5) / np.sqrt(sigma2)
    return min(math.erfc(z / math.sqrt(2.0)), 1.0)


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """Two-sided paired signed-rank test on a - b.

    Zero differences are dropped and tied magnitudes share averaged ranks.
    Up to 12 effective pairs the p-value comes from full enumeration of the
    2^n sign assignments; beyond that a normal approximation with continuity
    and tie corrections is used.  `same` means p > ALPHA.
    """
    av = _as_vector(a, "a")
    bv = _as_vector(b, "b")
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    if av.size < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs, got {av.size}")
    d = av - bv
    d = d[d != 0.0]
    if d.size == 0:
        return WilcoxonResult(True, 1.0, 0.0)
    abs_d = np.abs(d)
    ranks = average_ranks(abs_d)
    w_pos = float(ranks[d > 0].sum())
    if d.size <= _EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w_pos)
    else:
        p = _normal_two_sided_p(ranks, abs_d, w_pos)
    return WilcoxonResult(same=bool(p > ALPHA), p_value=p, w_statistic=w_pos)


@dataclass(frozen=True)
class EvalReport:
    mmre: float
    mdmre: float
    pred25: float
    pred50: float
    abs_residuals: tuple[float, ...]
    boxplot: BoxplotSummary

    def scores(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in SCORES}


def evaluate(actuals: Sequence[float], predictions: Sequence[float]) -> EvalReport:
    """Summarize prediction accuracy for one model on one test set."""
    accuracy = scores(mre_vector(actuals, predictions))  # checks both inputs first
    residuals = np.abs(np.asarray(actuals, float) - np.asarray(predictions, float))
    return EvalReport(
        **accuracy,
        abs_residuals=tuple(residuals.tolist()),
        boxplot=boxplot_summary(residuals),
    )


@dataclass(frozen=True)
class MethodRecord:
    win: int
    tie: int
    loss: int
    rank: int


def win_tie_loss(mre_by_method: Mapping[str, Sequence[float]]) -> dict[str, MethodRecord]:
    """Pairwise scoreboard over the SCORES, gated by the signed-rank test.

    For each method pair the Wilcoxon test runs once on the MRE vectors; if it
    cannot distinguish them every score is a tie for both.  Otherwise each
    score awards a win and a loss (or a tie when the values are exactly
    equal).  A method's rank is 1 plus the number of methods with a larger
    win - loss, so equal differences share a rank.  The records are keyed by
    method, in the input's order.
    """
    methods = list(mre_by_method)
    if len(methods) < 2:
        raise ValueError("need at least 2 methods")
    vectors = {name: _as_vector(mre_by_method[name], name) for name in methods}
    if len({v.size for v in vectors.values()}) != 1:
        raise ValueError("all MRE vectors must have equal length")

    values = {name: scores(vec) for name, vec in vectors.items()}
    win = dict.fromkeys(methods, 0)
    tie = dict.fromkeys(methods, 0)
    loss = dict.fromkeys(methods, 0)
    for i, mi in enumerate(methods):
        for mj in methods[i + 1 :]:
            same = wilcoxon_signed_rank(vectors[mi], vectors[mj]).same
            for score, higher_better in SCORES.items():
                vi, vj = values[mi][score], values[mj][score]
                if same or vi == vj:
                    tie[mi] += 1
                    tie[mj] += 1
                elif (vi > vj) == higher_better:
                    win[mi] += 1
                    loss[mj] += 1
                else:
                    win[mj] += 1
                    loss[mi] += 1

    delta = {name: win[name] - loss[name] for name in methods}
    return {
        name: MethodRecord(
            win[name], tie[name], loss[name], 1 + sum(d > delta[name] for d in delta.values())
        )
        for name in methods
    }


def render_metrics_table(reports: Mapping[str, EvalReport]) -> str:
    """Fixed-width table of MMRE/MdMRE (as percentages) and pred levels."""
    header = f"{'Model':<12} {'MMRE%':>8} {'MdMRE%':>8} {'Pred(0.25)':>11} {'Pred(0.5)':>10}"
    lines = [header, "-" * len(header)]
    for name, report in reports.items():
        lines.append(
            f"{name:<12} {100 * report.mmre:>8.1f} {100 * report.mdmre:>8.1f} "
            f"{report.pred25:>10.1f}% {report.pred50:>9.1f}%"
        )
    return "\n".join(lines) + "\n"


def render_wtl_table(records: Mapping[str, MethodRecord]) -> str:
    header = f"{'Model':<12} {'Win':>5} {'Tie':>5} {'Loss':>5} {'Rank':>5}"
    lines = [header, "-" * len(header)]
    for name, rec in records.items():
        lines.append(f"{name:<12} {rec.win:>5} {rec.tie:>5} {rec.loss:>5} {rec.rank:>5}")
    return "\n".join(lines) + "\n"
