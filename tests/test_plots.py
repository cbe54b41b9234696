import pytest

from orthoproj.plots import line_chart, scatter_chart


@pytest.mark.parametrize("draw, message", [
    (lambda: line_chart([], {}, "t", "x", "y"), "line_chart needs at least one series"),
    (lambda: scatter_chart([], "t", "x", "y"), "scatter_chart needs at least one point")],
    ids=["line", "scatter"])
def test_a_chart_of_nothing_raises(draw, message):
    with pytest.raises(ValueError, match=message):
        draw()
