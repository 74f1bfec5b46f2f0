import numpy as np
import pytest

from spinpair.plotting import Series, render_decay_plot


def sample_series():
    t = np.linspace(0.0, 2.0, 9)
    return [
        Series("ZQ data", list(t), list(np.exp(-0.5 * t)), style="points"),
        Series("ZQ fit", list(t), list(np.exp(-0.5 * t)), style="line"),
    ]


def test_render_produces_svg_document():
    svg = render_decay_plot(sample_series())
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 9
    assert svg.count("<polyline") == 1
    assert "decay fits" in svg
    assert "time (s)" in svg
    assert "signal (log)" in svg


def test_render_is_deterministic():
    assert render_decay_plot(sample_series()) == render_decay_plot(sample_series())


def test_render_drops_non_positive_values_on_log_axis():
    t = [0.0, 1.0, 2.0, 3.0]
    series = [Series("mixed", t, [1.0, 0.1, -0.5, 0.01], style="points")]
    svg = render_decay_plot(series)
    assert svg.count("<circle") == 3


def test_render_rejects_empty_plot():
    with pytest.raises(ValueError, match="nothing to plot"):
        render_decay_plot([Series("void", [0.0], [-1.0], style="points")])
