import pytest

from fmtree.evaluation import boxplot_summary
from fmtree.svgplot import render_boxplot_svg


def test_renders_one_box_per_model_with_outlier_dots():
    summaries = {
        "FMT": boxplot_summary([1.0, 2.0, 3.0, 4.0, 100.0]),
        "MLR": boxplot_summary([5.0, 6.0, 7.0]),
    }
    svg = render_boxplot_svg(summaries)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "FMT" in svg and "MLR" in svg
    assert svg.count("<rect") >= 2
    assert "<circle" in svg  # the 100.0 outlier


def test_output_is_deterministic():
    summaries = {"only": boxplot_summary([1.0, 2.0, 3.0])}
    assert render_boxplot_svg(summaries) == render_boxplot_svg(summaries)


def test_empty_rejected():
    with pytest.raises(ValueError, match="nothing to plot"):
        render_boxplot_svg({})
