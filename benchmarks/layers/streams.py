"""Seeded inputs of the layer benchmark: data, query sets, op streams,
and the model of acknowledged writes the correctness oracle scans.

Everything here is a pure function of ``(workload, seed, size)``: the
program under test receives only what these functions generate, and the
SHA-256 of the encoded op streams is recorded with every run so two runs
can be shown to have driven identical inputs.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Iterator, Optional, Sequence

from repro.catalog.dictionary import AttributeDictionary
from repro.query.query import AttributeQuery
from repro.server.protocol import encode_request
from repro.storage.entity import Entity
from repro.workloads.dbpedia import generate_dbpedia_persons
from repro.workloads.querygen import build_query_workload, representative_queries

QUERY, INSERT, UPDATE, DELETE = "query", "insert", "update", "delete"
_KINDS = (QUERY, INSERT, UPDATE, DELETE)

#: query shapes are kept when they select at most this share of the data
MAX_SELECTIVITY = 0.25
#: selectivities are estimated on this many leading entities (the data is
#: i.i.d., and scoring 490 shapes against every mask would dominate the
#: generator's own start-up)
SELECTIVITY_SAMPLE = 4000
#: the fixed population every run samples from: this many entities of
#: the DBpedia-person generator at this generator seed (the paper's year)
POPULATION = 48_000
POPULATION_SEED = 2014
#: updates copy their new attributes from one of these leading entities
DONOR_POOL = 1024


@dataclass(frozen=True)
class Mix:
    """Op shares of one workload and the query set its reads draw from."""

    query: float
    insert: float
    update: float
    delete: float
    #: "hot" = representative shapes drawn Zipf(1.0); "wide" = every
    #: selective shape drawn uniformly
    shapes: str

    def weights(self) -> tuple[float, float, float, float]:
        return (self.query, self.insert, self.update, self.delete)


@dataclass
class Inputs:
    """The generated data set and the two query sets over it."""

    entities: list[Entity]
    hot: list[AttributeQuery]
    wide: list[AttributeQuery]

    def shapes(self, which: str) -> list[AttributeQuery]:
        return self.hot if which == "hot" else self.wide


def build_inputs(n_entities: int, seed: int) -> Inputs:
    """DBpedia-person entities plus the hot and wide query sets.

    The *population* is fixed — the generator's own seed, which also
    draws which latent types own which attributes, is a constant — and
    so are the two query sets, which are scored on its first members.
    The run's seed decides which members arrive, in which order, and
    every op drawn from the streams.  Every seed therefore asks the
    same questions of the same schema, as every scale factor of a TPC
    benchmark does; runs at different seeds differ in the sample, in the
    arrival order the online partitioner reacts to, and in the op
    interleaving — not in what a query costs.
    """
    pool = generate_dbpedia_persons(
        max(POPULATION, n_entities), seed=POPULATION_SEED
    ).entities
    dictionary = AttributeDictionary()
    sample = [
        dictionary.encode(entity.attributes)
        for entity in pool[:SELECTIVITY_SAMPLE]
    ]
    random.Random(f"sample/{seed}").shuffle(pool)
    entities = [
        Entity(eid, entity.attributes) for eid, entity in enumerate(pool[:n_entities])
    ]
    specs = [
        spec
        for spec in build_query_workload(
            sample, dictionary, top_k=20, max_triples=200
        )
        if 0.0 < spec.selectivity <= MAX_SELECTIVITY
    ]
    hot = representative_queries(specs, bucket_width=0.05, per_bucket=3)
    return Inputs(
        entities=entities,
        hot=[spec.query for spec in hot],
        wide=[spec.query for spec in specs],
    )


def zipf_cum_weights(n: int, exponent: float = 1.0) -> list[float]:
    """Cumulative Zipf weights over ranks ``1..n``."""
    return list(accumulate(1.0 / (rank ** exponent) for rank in range(1, n + 1)))


@dataclass
class Stream:
    """One connection's ops and their pre-encoded wire lines.

    An op is ``(kind, key, attributes)``: ``key`` is the shape index for
    a query and the entity id for a write; ``attributes`` is ``None``
    for queries and deletes.
    """

    ops: list[tuple[str, int, Optional[dict[str, Any]]]]
    payloads: list[bytes]

    def __len__(self) -> int:
        return len(self.ops)


def make_stream(
    rng: random.Random,
    mix: Mix,
    shapes: Sequence[AttributeQuery],
    fresh: Iterator[Entity],
    donors: Sequence[Entity],
    live: list[int],
    n_ops: int,
) -> Stream:
    """Generate *n_ops* ops for one connection.

    *fresh* yields the entities this connection may insert, *live* the
    entity ids it owns at the start (mutated here as inserts and deletes
    are drawn, so every update and delete names an entity that exists
    when it runs), *donors* the pool an update copies attributes from.
    A write kind that cannot be drawn (nothing live, nothing fresh)
    falls back to a query, so no generated op can fail.
    """
    kind_cum = list(accumulate(mix.weights()))
    shape_cum = zipf_cum_weights(len(shapes)) if mix.shapes == "hot" else None
    query_lines = [
        encode_request(QUERY, index, attributes=list(shape.attributes))
        for index, shape in enumerate(shapes)
    ]
    ops: list[tuple[str, int, Optional[dict[str, Any]]]] = []
    payloads: list[bytes] = []
    # one draw at a time, so a longer stream extends a shorter one: the
    # traced run replays a prefix of exactly the ops the untraced run sent
    for position in range(n_ops):
        kind = _KINDS[bisect(kind_cum, rng.random() * kind_cum[-1], 0, 3)]
        if kind == INSERT:
            entity = next(fresh, None)
            if entity is not None:
                live.append(entity.entity_id)
                ops.append((INSERT, entity.entity_id, entity.attributes))
                payloads.append(encode_request(
                    INSERT, position, eid=entity.entity_id,
                    attributes=entity.attributes,
                ))
                continue
        elif kind == UPDATE and live:
            eid = live[rng.randrange(len(live))]
            attributes = donors[rng.randrange(len(donors))].attributes
            ops.append((UPDATE, eid, attributes))
            payloads.append(encode_request(
                UPDATE, position, eid=eid, attributes=attributes
            ))
            continue
        elif kind == DELETE and live:
            slot = rng.randrange(len(live))
            eid = live[slot]
            live[slot] = live[-1]
            live.pop()
            ops.append((DELETE, eid, None))
            payloads.append(encode_request(DELETE, position, eid=eid))
            continue
        if shape_cum is not None:
            pick = bisect(
                shape_cum, rng.random() * shape_cum[-1], 0, len(shapes) - 1
            )
        else:
            pick = rng.randrange(len(shapes))
        ops.append((QUERY, pick, None))
        payloads.append(query_lines[pick])
    return Stream(ops, payloads)


def make_streams(
    workload: str,
    seed: int,
    mix: Mix,
    inputs: Inputs,
    preload: int,
    n_ops: int,
    connections: int,
) -> list[Stream]:
    """One stream per connection over disjoint entity ownership.

    Connection ``c`` owns the entities whose id is ``c`` modulo the
    connection count — preloaded ones and the ones it inserts — so no
    two connections ever write the same entity and the model's final
    state does not depend on how their ops interleaved.
    """
    shapes = inputs.shapes(mix.shapes)
    streams = []
    for conn in range(connections):
        rng = random.Random(f"{workload}/{seed}/{conn}")
        live = [eid for eid in range(preload) if eid % connections == conn]
        fresh = (
            entity for entity in inputs.entities[preload:]
            if entity.entity_id % connections == conn
        )
        streams.append(make_stream(
            rng, mix, shapes, fresh, inputs.entities[:DONOR_POOL], live,
            n_ops // connections,
        ))
    return streams


def streams_sha256(streams: Sequence[Stream]) -> str:
    """Digest of every wire line of every connection, in order."""
    digest = hashlib.sha256()
    for stream in streams:
        for payload in stream.payloads:
            digest.update(payload)
    return digest.hexdigest()


class Model:
    """The benchmark's own record of acknowledged writes.

    The oracle never asks the program what it holds: expected query
    results are a naive scan of this dictionary.
    """

    def __init__(self, preloaded: Sequence[Entity] = ()) -> None:
        self.rows: dict[int, dict[str, Any]] = {
            entity.entity_id: entity.attributes for entity in preloaded
        }

    def apply(self, op: tuple[str, int, Optional[dict[str, Any]]]) -> None:
        kind, key, attributes = op
        if kind == DELETE:
            del self.rows[key]
        elif kind != QUERY:
            self.rows[key] = attributes

    def expected_rows(self, shape: AttributeQuery) -> Counter:
        """Multiset of projected rows a correct program returns."""
        names = shape.attributes
        return Counter(
            tuple(attributes.get(name) for name in names)
            for attributes in self.rows.values()
            if any(name in attributes for name in names)
        )

    def count_and_digest(self, n_shards: int = 1, shards=(0,)) -> tuple[int, str]:
        """Entity count and id digest of a shard set, in the form the
        ``sync_snapshot`` ``count_only`` verb reports them."""
        wanted = frozenset(shards)
        eids = sorted(eid for eid in self.rows if eid % n_shards in wanted)
        digest = zlib.crc32(",".join(map(str, eids)).encode())
        return len(eids), f"{digest:08x}"


def row_multiset(shape: AttributeQuery, rows: Sequence[dict[str, Any]]) -> Counter:
    """A response's rows in the form :meth:`Model.expected_rows` uses."""
    names = shape.attributes
    return Counter(tuple(row.get(name) for name in names) for row in rows)
