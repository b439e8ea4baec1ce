import json
import os
import socket
import threading

import pytest

import loadgen
from calibrate import Scale, Speed, to_reference
from streams import QUERY, Stream


def test_to_reference_scales_only_the_busy_share():
    assert to_reference(3.0, 1.5) == pytest.approx(2.0)
    assert to_reference(3.0, 1.5, busy=0.0) == 3.0
    assert to_reference(4.0, 2.0, busy=0.5) == pytest.approx(3.0)
    assert to_reference(1.0, 1.0, busy=0.7) == 1.0
    assert to_reference(5.0, 2.0, stolen=1.0) == pytest.approx(2.0)
    assert to_reference(1.0, 2.0, stolen=3.0) == 0.0


def test_factor_uses_the_samples_around_an_interval():
    speed = Speed()
    speed.times = [0.0, 1.0, 2.0, 3.0]
    speed.factors = [1.0, 2.0, 4.0, 8.0]
    speed.stolen = [0.0, 0.25, 0.25, 1.0]
    assert speed.factor(1.2, 1.8) == 3.0          # the one before, the one after
    assert speed.factor(0.5, 2.5) == 15.0 / 4.0   # and every one inside
    assert speed.factor(-1.0, -0.5) == 1.0        # clamped at the ends
    assert speed.factor(3.5, 4.0) == 8.0
    assert speed.stolen_between(1.2, 1.8) == 0.0
    assert speed.stolen_between(0.5, 2.5) == 1.0


def test_samples_are_positive_and_account_for_their_time():
    before = os.sched_getaffinity(0)
    for cores in ((), sorted(os.sched_getaffinity(0))):
        speed = Speed(cores)
        speed.sample()
        speed.sample()
        assert len(speed.times) == 2 and speed.times[0] < speed.times[1]
        assert all(0.2 < factor < 20.0 for factor in speed.factors)
        assert speed.spent > 0.0
        assert 0.0 <= speed.stolen[0] <= speed.stolen[1]
        assert os.sched_getaffinity(0) == before
    with Scale() as scale:
        sum(range(10_000))
    assert scale.seconds > 0.0 and 0.05 < scale.ratio < 5.0


def _echo_server(answer_delay_s=0.0):
    """A one-line-in, one-line-out stand-in for a node."""
    listener = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def serve(conn):
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                if answer_delay_s:
                    stop.wait(answer_delay_s)
                sent = json.loads(line)
                conn.sendall(json.dumps(
                    {"id": sent["id"], "ok": True, "status": "ok", "rows": [],
                     "row_count": 0}, separators=(",", ":"),
                ).encode() + b"\n")

    def accept():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    threading.Thread(target=accept, daemon=True).start()
    return listener, stop


def _query_stream(n):
    line = json.dumps({"id": 0, "op": "query", "attributes": []}).encode() + b"\n"
    return Stream([(QUERY, 0, None)] * n, [line] * n)


class _Shape:
    attributes = ()


def test_closed_loop_answers_every_op_in_segments_with_pauses_between():
    listener, stop = _echo_server()
    try:
        pauses = []
        streams = [_query_stream(300), _query_stream(120)]
        conns = loadgen.run_closed_loop(
            listener.getsockname(), streams, [_Shape()], window=8,
            segment_s=0.02, on_pause=lambda: pauses.append(1),
        )
    finally:
        stop.set()
        listener.close()
    assert [conn.error for conn in conns] == [None, None]
    assert [len(conn.latencies) for conn in conns] == [300, 120]
    assert all(not conn.failed and conn.exhausted for conn in conns)
    # every connection went through the same segments, and a pause ran
    # before the first, between two, and after the last
    assert len(conns[0].segments) == len(conns[1].segments) >= 1
    assert len(pauses) == len(conns[0].segments) + 1
    for conn, stream in zip(conns, streams):
        covered = [op for _s, _e, first, after in conn.segments for op in range(first, after)]
        assert covered == list(range(len(stream)))


def test_closed_loop_stops_at_the_cutoff():
    listener, stop = _echo_server(answer_delay_s=0.005)
    try:
        conns = loadgen.run_closed_loop(
            listener.getsockname(), [_query_stream(100_000)], [_Shape()], window=2,
            segment_s=0.05, cutoff_s=0.2,
        )
    finally:
        stop.set()
        listener.close()
    (conn,) = conns
    assert conn.error is None and not conn.exhausted
    assert 0 < len(conn.latencies) < 100_000
    assert len(conn.latencies) == len(conn.sent_at)  # nothing left in flight
