"""Adaptive write admission: queue-based load leveling.

The fixed ``max_pending`` bound the serving layer shipped with was a
blunt instrument — at concurrency 16 it shed 43% of writes while the
batcher was perfectly able to keep up.  This module replaces it with
the *queue-based load leveling* pattern: the admission window tracks
the batcher's measured drain rate, sized so that a full queue drains
within a target latency.  A fast batcher opens the window wide (no
needless shedding); a slow one closes it (queueing cannot hide an
overload — clients are told to back off while the queue still drains
inside the latency target).

``max_pending`` survives as the hard ceiling — a safety bound on queue
memory and on worst-case latency if the rate estimate is ever wrong —
and ``min_window`` keeps the window from collapsing entirely during a
transient stall (the server sets it to one batch, ``batch_max``: what a
single group commit drains, and what one pipelining connection may have
queued).  ``max_pending == 0`` still means "admit nothing"
(used by tests to force the shed path deterministically).
"""

from __future__ import annotations


class AdaptiveAdmission:
    """Target-latency-driven admission window over the write queue.

    The batcher reports each flushed batch via :meth:`observe_batch`;
    the drain rate is smoothed with an EWMA and the window becomes::

        window = min(max_pending, max(min_window, rate * target_latency))

    Before any batch has been observed the window sits at
    ``max_pending`` — admission starts permissive and tightens only on
    evidence the batcher cannot keep up.
    """

    def __init__(
        self,
        max_pending: int,
        target_latency_s: float = 0.05,
        min_window: int = 8,
        alpha: float = 0.3,
    ) -> None:
        if max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {max_pending}")
        if target_latency_s <= 0:
            raise ValueError(
                f"target_latency_s must be positive, got {target_latency_s}"
            )
        if min_window < 1:
            raise ValueError(f"min_window must be >= 1, got {min_window}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.max_pending = max_pending
        self.target_latency_s = target_latency_s
        self.min_window = min(min_window, max_pending) if max_pending else 0
        self.alpha = alpha
        self.rate_ewma = 0.0  # writes/second the batcher drains
        self.window = max_pending
        self.batches_observed = 0

    def admit(self, queued: int) -> bool:
        """Admit one write given the current queue depth?"""
        return queued < self.window

    def observe_batch(self, size: int, duration_s: float) -> None:
        """Fold one flushed batch into the drain-rate estimate."""
        if size <= 0:
            return
        # floor the duration: a sub-microsecond measurement would spike
        # the rate estimate to nonsense
        rate = size / max(duration_s, 1e-6)
        if self.batches_observed == 0:
            self.rate_ewma = rate
        else:
            self.rate_ewma += self.alpha * (rate - self.rate_ewma)
        self.batches_observed += 1
        if self.max_pending == 0:
            self.window = 0
            return
        self.window = min(
            self.max_pending,
            max(self.min_window, int(self.rate_ewma * self.target_latency_s)),
        )
