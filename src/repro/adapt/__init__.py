"""Closed-loop, cost-model-driven adaptive repartitioning.

Cinderella's online rating reacts to *inserts*; this package reacts to
the *workload*.  It closes the observe → predict → decide → act loop
around a running table:

* :mod:`repro.adapt.trace` — **observe**: sample live query/insert
  traffic into a bounded, decayed per-mask profile plus per-partition
  heat, and measure workload shift as a total-variation distance.
* :mod:`repro.cost.calibrate` — **predict** (the model half): fit the
  cost model's scan constants from observed latencies, at startup and
  again when prediction error drifts.
* :mod:`repro.adapt.advisor` — **predict** (the search half): sketch
  candidate layouts (alternative ``B``/``w`` settings replayed through
  the rating machinery, merge plans) and price each against the traced
  profile under the calibrated model, emitting a ranked
  :class:`~repro.adapt.advisor.AdaptationPlan`.
* :mod:`repro.adapt.controller` — **decide + act**: hysteresis and
  cooldown gates around :meth:`~repro.table.partitioned.CinderellaTable
  .reorganize`, with every decision — acted or declined — observable.

The offline grid advisor (``advise``, backing ``python -m repro
advise``) lives here too.
"""

from repro.adapt.advisor import (
    AdaptationPlan,
    AdaptationReport,
    AdvisorReport,
    LayoutSketch,
    Trial,
    advise,
    advise_adaptation,
    predicted_workload_ms,
)
from repro.adapt.controller import (
    AdaptationConfig,
    AdaptationController,
    AdaptationDecision,
)
from repro.adapt.trace import PartitionHeat, WorkloadTraceStore, profile_shift

__all__ = [
    "AdaptationConfig",
    "AdaptationController",
    "AdaptationDecision",
    "AdaptationPlan",
    "AdaptationReport",
    "AdvisorReport",
    "LayoutSketch",
    "PartitionHeat",
    "Trial",
    "WorkloadTraceStore",
    "advise",
    "advise_adaptation",
    "predicted_workload_ms",
    "profile_shift",
]
