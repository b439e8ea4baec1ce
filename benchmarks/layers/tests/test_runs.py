import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads

RUN = Path(__file__).resolve().parent.parent / "run.py"
EXACT = ("core.efficiency", "core.ratings_per_insert", "core.splits", "core.partitions")


def test_time_metrics_scale_every_segment_by_its_own_speed():
    # two segments of the same work: the machine ran the second one at
    # half speed (factor 2), so its second took twice as long — at
    # reference speed both read the same
    timings = workloads.Timings(
        segments=[(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)],
        samples=(
            [(0, True, 0.010)] * 50 + [(1, True, 0.020)] * 50
            + [(0, False, 0.001)] * 50 + [(1, False, 0.002)] * 50
        ),
        busy=1.0, cpu=1.5,
    )
    metrics = workloads.time_metrics(timings)
    assert metrics["ops_per_s"].value == pytest.approx(200 / 2.0)
    assert metrics["read_p50_ms"].value == pytest.approx(10.0)
    assert metrics["read_p95_ms"].value == pytest.approx(10.0)
    assert metrics["write_p95_ms"].value == pytest.approx(1.0)
    assert metrics["read_p50_ms"].samples == 100
    # 1.5 CPU seconds at a time-weighted factor of 5/3, over 200 ops
    assert metrics["cpu_ms_per_op"].value == pytest.approx(1.5 / (5 / 3) / 200 * 1e3)
    assert timings.ratio() == pytest.approx(2.0 / 3.0)


def test_time_metrics_leave_waiting_unscaled():
    # a program busy a quarter of the time: only that quarter stretches
    timings = workloads.Timings(
        segments=[(4.0, 2.0, 0.0)],
        samples=[(0, True, 0.008)] * 10 + [(0, False, 0.008)] * 10,
        busy=0.25, cpu=1.0,
    )
    metrics = workloads.time_metrics(timings)
    assert metrics["ops_per_s"].value == pytest.approx(20 / 3.5)
    assert metrics["write_p50_ms"].value == pytest.approx(7.0)


def test_time_metrics_take_stolen_time_out_first():
    # the hypervisor froze the VM for one of the segment's five seconds:
    # the ops were done in four, and every latency shrinks by a fifth
    timings = workloads.Timings(
        segments=[(5.0, 1.0, 1.0)],
        samples=[(0, True, 0.010)] * 30 + [(0, False, 0.010)] * 10,
        busy=1.0, cpu=4.0,
    )
    metrics = workloads.time_metrics(timings)
    assert metrics["ops_per_s"].value == pytest.approx(10.0)
    assert metrics["read_p50_ms"].value == pytest.approx(8.0)
    assert metrics["cpu_ms_per_op"].value == pytest.approx(100.0)
    # beside a quiet segment, the frozen one's latencies are left out of
    # the percentiles; its ops and its remaining time still count
    timings.segments.append((4.0, 1.0, 0.0))
    timings.samples += [(1, True, 0.002)] * 30 + [(1, False, 0.002)] * 10
    metrics = workloads.time_metrics(timings)
    assert metrics["ops_per_s"].value == pytest.approx(80 / 8.0)
    assert metrics["read_p95_ms"].value == pytest.approx(2.0)
    assert metrics["read_p95_ms"].samples == 30


def test_embedded_counts_repeat_exactly():
    churn = workloads.WORKLOADS["embedded-churn"]
    first = workloads.run_untraced(churn, 42, 1.5, once=True)
    again = workloads.run_untraced(churn, 42, 1.5, once=True)
    assert first.correct and again.correct, first.problems + again.problems
    assert first.sha256 == again.sha256
    for name in EXACT:
        assert first.counts[name].value == again.counts[name].value, name
    assert first.counts["core.partitions"].value > 1


def test_smoke_runs_all_four_workloads_quickly():
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30, f"--smoke took {elapsed:.1f} s"
    for name in workloads.WORKLOADS:
        assert f"== {name} " in done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert not list((RUN.parent / "out").glob("run-*")), "scratch left behind"
