"""Reporting: ASCII renderers (tables, charts, log histograms) for the
benchmark harness output."""

from repro.reporting.chart import render_line_chart
from repro.reporting.histogram import HistogramBucket, LogHistogram, render_histogram
from repro.reporting.obs_summary import (
    format_metrics_table,
    format_recent_events,
    format_run_summary,
    format_slow_ops,
    format_span_tree,
    format_top_spans,
)
from repro.reporting.tables import format_kv_block, format_series, format_table

__all__ = [
    "HistogramBucket",
    "LogHistogram",
    "format_kv_block",
    "format_metrics_table",
    "format_recent_events",
    "format_run_summary",
    "format_slow_ops",
    "format_span_tree",
    "format_top_spans",
    "format_series",
    "format_table",
    "render_histogram",
    "render_line_chart",
]
