"""Accuracy metrics, residual boxplots, Wilcoxon signed-rank, win-tie-loss ranking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

DEFAULT_ALPHA = 0.05
_EXACT_LIMIT = 12


def _as_vector(values: Sequence[float], name: str = "values") -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def mre(actual: float, predicted: float) -> float:
    """Magnitude of relative error |actual - predicted| / actual."""
    if actual <= 0:
        raise ValueError(f"actual must be positive, got {actual}")
    return abs(actual - predicted) / actual


def mre_vector(actuals: Sequence[float], predictions: Sequence[float]) -> np.ndarray:
    a = _as_vector(actuals, "actuals")
    p = _as_vector(predictions, "predictions")
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: {a.size} actuals vs {p.size} predictions")
    if np.any(a <= 0):
        raise ValueError("actuals must be positive")
    return np.abs(a - p) / a


def mmre(values: Sequence[float]) -> float:
    return float(np.mean(_as_vector(values)))


def mdmre(values: Sequence[float]) -> float:
    return float(np.median(_as_vector(values)))


def pred(values: Sequence[float], level: float) -> float:
    """Percentage of entries with MRE <= level (the boundary counts)."""
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level}")
    v = _as_vector(values)
    return float(100.0 * np.count_nonzero(v <= level) / v.size)


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

    def to_json(self) -> dict:
        return {
            "minimum": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "maximum": self.maximum,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
            "outliers": list(self.outliers),
        }


def boxplot_summary(values: Sequence[float]) -> BoxplotSummary:
    """Five-number summary with Tukey hinges and 1.5*IQR whiskers.

    Hinges are medians of the lower/upper halves, each half including the
    middle point when the count is odd.  Whiskers reach the most extreme
    points within 1.5*IQR of the hinges; everything beyond is an outlier.
    """
    v = np.sort(_as_vector(values))
    n = v.size
    median = float(np.median(v))
    half = (n + 1) // 2
    q1 = float(np.median(v[:half]))
    q3 = float(np.median(v[-half:]))
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
        outliers=tuple(float(x) for x in v[(v < low_fence) | (v > high_fence)]),
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


def wilcoxon_signed_rank(
    a: Sequence[float], b: Sequence[float], alpha: float = DEFAULT_ALPHA
) -> WilcoxonResult:
    """Two-sided paired signed-rank test on a - b.

    Zero differences are dropped and tied magnitudes share averaged ranks.
    Up to 12 effective pairs the p-value comes from full enumeration of the
    2^n sign assignments; beyond that a normal approximation with continuity
    and tie corrections is used.  `same` means p > alpha.
    """
    av = _as_vector(a, "a")
    bv = _as_vector(b, "b")
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    if av.size < 5:
        raise ValueError(f"need at least 5 pairs, got {av.size}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
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
    return WilcoxonResult(same=bool(p > alpha), p_value=p, w_statistic=w_pos)


@dataclass(frozen=True)
class EvalReport:
    mmre: float
    mdmre: float
    pred25: float
    pred50: float
    abs_residuals: tuple[float, ...]
    boxplot: BoxplotSummary

    def to_json(self) -> dict:
        return {
            "mmre": self.mmre,
            "mdmre": self.mdmre,
            "pred25": self.pred25,
            "pred50": self.pred50,
            "abs_residuals": list(self.abs_residuals),
            "boxplot": self.boxplot.to_json(),
        }


def evaluate(actuals: Sequence[float], predictions: Sequence[float]) -> EvalReport:
    """Summarize prediction accuracy for one model on one test set."""
    errors = mre_vector(actuals, predictions)
    residuals = np.abs(np.asarray(actuals, float) - np.asarray(predictions, float))
    return EvalReport(
        mmre=mmre(errors),
        mdmre=mdmre(errors),
        pred25=pred(errors, 0.25),
        pred50=pred(errors, 0.50),
        abs_residuals=tuple(float(r) for r in residuals),
        boxplot=boxplot_summary(residuals),
    )


# Scalar measures compared in win_tie_loss: (function, higher-is-better).
MEASURES: dict[str, tuple[Callable[[np.ndarray], float], bool]] = {
    "mmre": (mmre, False),
    "mdmre": (mdmre, False),
    "pred25": (lambda v: pred(v, 0.25), True),
    "pred50": (lambda v: pred(v, 0.50), True),
}
DEFAULT_MEASURES = ("mmre", "mdmre", "pred25", "pred50")


@dataclass(frozen=True)
class MethodRecord:
    win: int
    tie: int
    loss: int
    rank: int


@dataclass(frozen=True)
class WtlTable:
    methods: tuple[str, ...]
    records: dict[str, MethodRecord]

    def to_json(self) -> dict:
        return {
            name: {
                "win": rec.win,
                "tie": rec.tie,
                "loss": rec.loss,
                "rank": rec.rank,
            }
            for name, rec in self.records.items()
        }


def win_tie_loss(
    mre_by_method: Mapping[str, Sequence[float]],
    measures: Sequence[str] = DEFAULT_MEASURES,
    alpha: float = DEFAULT_ALPHA,
) -> WtlTable:
    """Pairwise scoreboard over scalar measures, gated by the signed-rank test.

    For each method pair the Wilcoxon test runs once on the MRE vectors; if it
    cannot distinguish them every measure is a tie for both.  Otherwise each
    measure awards a win and a loss (or a tie when the values are exactly
    equal).  Ranks order methods by descending win - loss, equal differences
    sharing a rank.
    """
    methods = list(mre_by_method)
    if len(methods) < 2:
        raise ValueError("need at least 2 methods")
    unknown = [m for m in measures if m not in MEASURES]
    if unknown:
        raise ValueError(f"unknown measure(s): {', '.join(unknown)}")
    vectors = {name: _as_vector(mre_by_method[name], name) for name in methods}
    sizes = {v.size for v in vectors.values()}
    if len(sizes) != 1:
        raise ValueError("all MRE vectors must have equal length")

    scores = {
        name: {meas: MEASURES[meas][0](vec) for meas in measures}
        for name, vec in vectors.items()
    }
    win = dict.fromkeys(methods, 0)
    tie = dict.fromkeys(methods, 0)
    loss = dict.fromkeys(methods, 0)
    for i, mi in enumerate(methods):
        for mj in methods[i + 1 :]:
            verdict = wilcoxon_signed_rank(vectors[mi], vectors[mj], alpha)
            for meas in measures:
                vi, vj = scores[mi][meas], scores[mj][meas]
                if verdict.same or vi == vj:
                    tie[mi] += 1
                    tie[mj] += 1
                    continue
                higher_better = MEASURES[meas][1]
                i_better = (vi > vj) if higher_better else (vi < vj)
                if i_better:
                    win[mi] += 1
                    loss[mj] += 1
                else:
                    win[mj] += 1
                    loss[mi] += 1

    ordered = sorted(methods, key=lambda m: loss[m] - win[m])
    ranks: dict[str, int] = {}
    for position, name in enumerate(ordered, start=1):
        delta = win[name] - loss[name]
        previous = ordered[position - 2] if position > 1 else None
        if previous is not None and win[previous] - loss[previous] == delta:
            ranks[name] = ranks[previous]
        else:
            ranks[name] = position
    records = {
        name: MethodRecord(win[name], tie[name], loss[name], ranks[name])
        for name in methods
    }
    return WtlTable(tuple(methods), records)


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


def render_wtl_table(table: WtlTable) -> str:
    header = f"{'Model':<12} {'Win':>5} {'Tie':>5} {'Loss':>5} {'Rank':>5}"
    lines = [header, "-" * len(header)]
    for name in table.methods:
        rec = table.records[name]
        lines.append(f"{name:<12} {rec.win:>5} {rec.tie:>5} {rec.loss:>5} {rec.rank:>5}")
    return "\n".join(lines) + "\n"
