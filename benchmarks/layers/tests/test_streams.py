import random
import zlib
from collections import Counter

import workloads
from streams import (
    DELETE, INSERT, QUERY, UPDATE, Model, row_multiset, streams_sha256,
    zipf_cum_weights,
)


def _streams(name, seed, n_ops):
    return workloads.prepare(workloads.WORKLOADS[name], seed, n_ops)


def test_same_seed_same_streams_other_seed_other_streams():
    for name in workloads.WORKLOADS:
        _, first = _streams(name, 42, 600)
        _, again = _streams(name, 42, 600)
        _, other = _streams(name, 43, 600)
        assert streams_sha256(first) == streams_sha256(again), name
        assert streams_sha256(first) != streams_sha256(other), name


def test_a_longer_stream_extends_a_shorter_one():
    # the traced run replays a prefix of what the untraced run sent
    _, short = _streams("routed-mixed", 42, 400)
    _, long = _streams("routed-mixed", 42, 1200)
    for a, b in zip(short, long):
        assert b.payloads[:len(a)] == a.payloads


def test_every_generated_write_names_a_live_entity():
    workload = workloads.WORKLOADS["routed-mixed"]
    inputs, streams = _streams("routed-mixed", 7, 2000)
    owners = {}
    live = set(range(workload.preload))
    for conn, stream in enumerate(streams):
        for kind, key, _attributes in stream.ops:
            if kind == QUERY:
                continue
            assert owners.setdefault(key, conn) == conn or key < workload.preload
            assert key % len(streams) == conn  # disjoint ownership
            if kind == INSERT:
                assert key not in live
                live.add(key)
            else:
                assert key in live
                if kind == DELETE:
                    live.remove(key)
    kinds = Counter(op[0] for stream in streams for op in stream.ops)
    assert set(kinds) == {QUERY, INSERT, UPDATE, DELETE}


def test_mixes_follow_their_shares():
    _, streams = _streams("serve-read", 42, 4000)
    kinds = Counter(op[0] for stream in streams for op in stream.ops)
    assert 0.93 < kinds[QUERY] / 4000 < 0.97
    assert kinds[INSERT] == kinds[DELETE] == 0


def test_zipf_weights_and_sampling():
    cum = zipf_cum_weights(4)
    assert cum == [1.0, 1.5, 1.5 + 1 / 3, 1.5 + 1 / 3 + 0.25]
    rng = random.Random(1)
    picks = Counter(rng.choices(range(4), cum_weights=cum, k=20_000))
    assert picks[0] > picks[1] > picks[2] > picks[3]
    assert abs(picks[0] / 20_000 - 1.0 / cum[-1]) < 0.02
    # the hot set is drawn the same way: its first shape is the most asked
    _, streams = _streams("serve-read", 42, 4000)
    asked = Counter(op[1] for s in streams for op in s.ops if op[0] == QUERY)
    assert asked.most_common(1)[0][0] == 0


def test_model_replays_writes_and_scans_naively():
    inputs, _ = _streams("serve-read", 42, 200)
    shape = inputs.hot[0]
    model = Model(inputs.entities[:100])
    assert len(model.rows) == 100
    expected = Counter(
        tuple(e.attributes.get(a) for a in shape.attributes)
        for e in inputs.entities[:100] if shape.matches(e.attributes)
    )
    assert model.expected_rows(shape) == expected
    model.apply((DELETE, 3, None))
    model.apply((UPDATE, 4, {shape.attributes[0]: "x"}))
    model.apply((INSERT, 1000, {"other": 1}))
    assert 3 not in model.rows and model.rows[4] == {shape.attributes[0]: "x"}
    rows = [shape.project(a) for a in model.rows.values() if shape.matches(a)]
    assert row_multiset(shape, rows) == model.expected_rows(shape)
    count, digest = model.count_and_digest(4, (1,))
    eids = sorted(e for e in model.rows if e % 4 == 1)
    assert count == len(eids)
    assert digest == f"{zlib.crc32(','.join(map(str, eids)).encode()):08x}"
