"""Metrics: partitioning statistics, histograms, and timing helpers."""

from repro.metrics.histogram import HistogramBucket, LogHistogram, render_histogram
from repro.metrics.partition_stats import (
    DistributionSummary,
    PartitioningSummary,
    percentile,
    summarize_catalog,
)
from repro.metrics.telemetry import TelemetryCollector, TelemetrySample
from repro.metrics.timing import Timer, time_call

__all__ = [
    "DistributionSummary",
    "HistogramBucket",
    "LogHistogram",
    "PartitioningSummary",
    "TelemetryCollector",
    "TelemetrySample",
    "Timer",
    "percentile",
    "render_histogram",
    "summarize_catalog",
    "time_call",
]
