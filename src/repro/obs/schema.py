"""The declared trace schema: every span and metric name, in one place.

Telemetry names used to live as string literals at their emit sites
(``obs.span("group")`` in the runner, ``counter("compile_cache.hits")``
in the compile cache) *and*, independently, at their consume sites
(:mod:`repro.obs.analyze` hard-coded the same strings to find scenario
counts and cache efficiency).  Nothing tied the two together: renaming a
span at its emit site silently zeroed the analytics that looked for the
old name.  This module closes that drift gap — it is the single
declaration both sides import, and the ``RPR006`` lint rule
(:mod:`repro.analysis.lint.rules.trace_schema`) statically rejects any
emit site whose name is not declared here (or not derived from this
module, for the few dynamically-built names).

Everything here is pure data: importing this module pulls in no
telemetry machinery, so the linter (and anything else) can read the
schema without side effects.
"""

from __future__ import annotations

__all__ = [
    "CAMPAIGN_EVENTS",
    "CAMPAIGN_EVENT_COUNTERS",
    "COUNTER_AVAILABILITY_EVALS",
    "COUNTER_COMPILE_CACHE_HITS",
    "COUNTER_COMPILE_CACHE_MISSES",
    "COUNTER_NAMES",
    "COUNTER_SUPERVISOR_WAIT_S",
    "COUNTER_TRAFFIC_CACHE_HITS",
    "COUNTER_TRAFFIC_CACHE_MISSES",
    "GAUGE_NAMES",
    "HISTOGRAM_NAMES",
    "SCENARIO_CARRYING_SPANS",
    "SLAB_ROOT_SPANS",
    "SPAN_CAMPAIGN",
    "SPAN_GROUP",
    "SPAN_NAMES",
    "SPAN_RELIABILITY",
    "SPAN_SIMULATE_BATCH",
    "campaign_counter",
]

# -- spans -------------------------------------------------------------------

SPAN_SIMULATE = "simulate"
SPAN_SIMULATE_BATCH = "simulate_batch"
SPAN_RUN_BATCH = "run_batch"
SPAN_TRAFFIC = "traffic"
SPAN_COMPILE = "compile"
SPAN_RUN = "run"
SPAN_COMPILE_NETWORK = "compile_network"
SPAN_WARM_JIT = "warm_jit"
SPAN_GROUP = "group"
SPAN_STORE = "store"
SPAN_CAMPAIGN = "campaign"
SPAN_RELIABILITY = "reliability"

#: Every span name an emit site may open.  The RPR006 rule checks
#: ``obs.span(...)`` literals against this set.
SPAN_NAMES = frozenset({
    SPAN_SIMULATE,
    SPAN_SIMULATE_BATCH,
    SPAN_RUN_BATCH,
    SPAN_TRAFFIC,
    SPAN_COMPILE,
    SPAN_RUN,
    SPAN_COMPILE_NETWORK,
    SPAN_WARM_JIT,
    SPAN_GROUP,
    SPAN_STORE,
    SPAN_CAMPAIGN,
    SPAN_RELIABILITY,
})

#: Root span of one slab run, by manifest kind: ``simulate`` and the
#: engine form of ``simulate_batch`` share one runner and differ only in
#: these names.
SLAB_ROOT_SPANS = {"simulate": SPAN_SIMULATE, "batch": SPAN_RUN_BATCH}

#: Spans whose ``scenarios`` attribute counts simulated scenarios — the
#: outermost one on a chain wins (a ``simulate_batch`` nested inside a
#: ``group`` describes the same work).  ``analyze.worker_timeline``
#: consumes this.
SCENARIO_CARRYING_SPANS = (SPAN_GROUP, SPAN_SIMULATE_BATCH)

# -- counters ----------------------------------------------------------------

COUNTER_COMPILE_CACHE_HITS = "compile_cache.hits"
COUNTER_COMPILE_CACHE_MISSES = "compile_cache.misses"

#: Traffic schedules a spec run took from its
#: :class:`~repro.sim.traffic.ScheduleStore` (hits) or drew and checked
#: (misses).  A store lives for one campaign run (inline) or one pool
#: worker, so misses are at least the distinct (traffic wire form, seed,
#: inputs, cycles) keys each store saw, and hits count the scenarios
#: that reused a draw on another topology or fault sample.
COUNTER_TRAFFIC_CACHE_HITS = "traffic_cache.hits"
COUNTER_TRAFFIC_CACHE_MISSES = "traffic_cache.misses"

#: Structural availability values (one per distinct (topology, fault
#: sample) pair) computed by the reliability aggregates, far below the
#: record count; a (topology, fault seed, link count) group of them
#: shares one bottleneck sweep.
COUNTER_AVAILABILITY_EVALS = "reliability.availability_evals"

#: Seconds the supervisor's parent spends waiting on worker pipes and
#: sentinels (``wait_for_events``): the pooled run's idle time, which
#: has no span of its own.  Recorded only while tracing.
COUNTER_SUPERVISOR_WAIT_S = "supervisor.wait_s"

#: Supervisor recovery events, in stats-dict order.  The supervisor's
#: ``STAT_KEYS`` is this tuple; each event counts into the matching
#: ``campaign.<event>`` counter via :func:`campaign_counter`.
CAMPAIGN_EVENTS = (
    "retries", "bisects", "degraded", "quarantined",
    "timeouts", "crashes", "respawns",
)

CAMPAIGN_EVENT_COUNTERS = {
    event: "campaign." + event for event in CAMPAIGN_EVENTS
}


def campaign_counter(event: str) -> str:
    """The counter name of one supervisor recovery event.

    Raises ``KeyError`` for an undeclared event — a supervisor emitting
    a new event class must declare it in :data:`CAMPAIGN_EVENTS` first.
    """
    return CAMPAIGN_EVENT_COUNTERS[event]


#: Every counter name an emit site may touch.
COUNTER_NAMES = frozenset({
    "sim.runs",
    "sim.batches",
    "sim.cycles",
    "sim.delivered",
    COUNTER_COMPILE_CACHE_HITS,
    COUNTER_COMPILE_CACHE_MISSES,
    COUNTER_TRAFFIC_CACHE_HITS,
    COUNTER_TRAFFIC_CACHE_MISSES,
    "campaign.groups",
    "campaign.scenarios",
    COUNTER_AVAILABILITY_EVALS,
    COUNTER_SUPERVISOR_WAIT_S,
    *CAMPAIGN_EVENT_COUNTERS.values(),
})

# -- histograms / gauges -----------------------------------------------------

#: Every histogram name an emit site may observe into.
HISTOGRAM_NAMES = frozenset({
    "sim.scenarios_per_s",
    "sim.cycles_per_s",
    "campaign.queue_wait_s",
    "campaign.group_busy_s",
})

#: No gauges are emitted today; declare before first use.
GAUGE_NAMES = frozenset()
