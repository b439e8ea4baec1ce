"""Tests for the ASCII chart renderer."""

from repro.reporting.chart import render_line_chart


class TestRenderLineChart:
    def test_renders_markers_and_legend(self):
        text = render_line_chart(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20,
            height=6,
            title="demo",
        )
        assert text.startswith("demo")
        assert "* a" in text and "o b" in text
        assert "└" in text

    def test_empty_series(self):
        assert render_line_chart({}) == "(no data)"
        assert render_line_chart({"a": []}) == "(no data)"

    def test_flat_series_does_not_crash(self):
        text = render_line_chart({"flat": [(0, 5), (10, 5)]}, width=10, height=4)
        assert "*" in text

    def test_axis_labels_show_extent(self):
        text = render_line_chart({"a": [(2, 10), (8, 42)]}, width=16, height=5)
        assert "42" in text and "10" in text
        assert "2" in text and "8" in text
