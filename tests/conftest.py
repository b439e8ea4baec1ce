"""Shared test configuration: deterministic randomness.

Every randomized suite in this directory must be reproducible run to
run: the differential and property batteries assert that their shrunk
counterexamples are deterministic, so a failure seen in CI is the same
failure seen locally.  Two knobs enforce that:

* ``WORKLOAD_SEED`` — the fixed seed every test-local ``random.Random``
  and workload-trace generator must use;
* the ``repro-deterministic`` Hypothesis profile — ``derandomize=True``
  fixes Hypothesis's PRNG, so example generation *and shrinking* replay
  identically on every run (no deadline: CI machines vary too much for
  per-example timing).
"""

import json
import time
from collections import Counter

from hypothesis import settings

#: the one seed all randomized tests derive their RNGs from
WORKLOAD_SEED = 42


def served_rows(fragment: bytes) -> list[dict]:
    """The rows of a ``TableSnapshot.serve_query`` wire fragment, decoded
    as a client would decode the response line it is spliced into."""
    return json.loads(b'{"id":0' + fragment)["rows"]


def wait_until(predicate, timeout_s=20.0, interval_s=0.02) -> bool:
    """Poll *predicate* until it holds or *timeout_s* passes; its last
    verdict either way, for the caller to assert on."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return bool(predicate())


def row_multiset(rows) -> Counter:
    """Rows as an order-insensitive multiset of sorted item tuples."""
    return Counter(tuple(sorted(row.items())) for row in rows)


settings.register_profile("repro-deterministic", derandomize=True, deadline=None)
settings.load_profile("repro-deterministic")
