"""Campaign engine: parallel scenario sweeps with a persistent store.

One simulation run answers one question; the campaign engine answers
grids of them.  A :class:`~repro.campaign.spec.CampaignSpec` declares a
sweep — topologies × stages × traffic × rates × fault counts × seeds —
which :func:`~repro.campaign.spec.expand_scenarios` unrolls into
digest-keyed :class:`~repro.spec.scenario.ScenarioSpec` values,
:func:`~repro.campaign.runner.run_campaign` fans
out over a ``multiprocessing`` pool into an append-only
:class:`~repro.campaign.store.ResultStore`, and
:mod:`repro.campaign.aggregate` condenses into comparison tables — most
notably the equivalence head-to-head that checks, empirically, that
baseline-equivalent topologies are performance-interchangeable under
identical fault sets (the dynamic face of Theorem 1).  Each store
record holds its scenario's one wire dict
(:meth:`~repro.spec.scenario.ScenarioSpec.to_spec`), and both record
reductions — the aggregate tables and
:mod:`repro.campaign.reliability` — read records through one grouping
that counts a duplicated record once and refuses one run stored under
two hashes.

Quickstart
----------
>>> import tempfile, pathlib
>>> from repro.campaign import CampaignSpec, run_campaign, load_records
>>> from repro.campaign import aggregate_rows
>>> spec = CampaignSpec(topologies=("omega", "baseline"), stages=(4,),
...                     rates=(0.8,), seeds=(0, 1), cycles=50)
>>> store = pathlib.Path(tempfile.mkdtemp()) / "sweep.jsonl"
>>> summary = run_campaign(spec, store)
>>> summary["ran"]
4
>>> len(aggregate_rows(load_records(store)))
2

Faults are survived, not fatal: :mod:`repro.campaign.supervisor` wraps
the worker pool in managed dispatch (timeouts, immediate re-runs of
crashed or hung tasks, crash respawn, numba→numpy degradation), a
raising scenario is isolated by bisection and quarantined without a
re-run, poisonous scenarios land in a
:class:`~repro.campaign.errors.QuarantineStore` sidecar with their full
remote tracebacks, and :mod:`repro.campaign.chaos` injects
deterministic crashes/hangs/raises to prove all of it under test.

On the command line: ``python -m repro campaign run/status/report`` —
plus ``campaign quarantine`` and ``campaign store verify/repair``.
"""

from repro.campaign.aggregate import (
    aggregate_rows,
    aggregate_table,
    dumps_aggregate,
    head_to_head,
    head_to_head_table,
    load_records,
)
from repro.campaign.chaos import ChaosSpec, chaos_from_env, parse_chaos
from repro.campaign.errors import (
    QuarantineStore,
    RemoteTaskError,
    TaskFailure,
    quarantine_path,
)
from repro.campaign.heartbeat import (
    HeartbeatWriter,
    heartbeat_path,
    read_heartbeat,
    watch_campaign,
)
from repro.campaign.reliability import (
    ReliabilitySweepSpec,
    dumps_reliability,
    dumps_sweep,
    loads_sweep,
    reliability_from_store,
    reliability_report,
    reliability_summary_table,
    reliability_table,
)
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, expand_scenarios
from repro.campaign.store import ResultStore, record_crc
from repro.campaign.supervisor import SupervisorConfig

__all__ = [
    "CampaignSpec",
    "ChaosSpec",
    "HeartbeatWriter",
    "QuarantineStore",
    "ReliabilitySweepSpec",
    "RemoteTaskError",
    "ResultStore",
    "SupervisorConfig",
    "TaskFailure",
    "aggregate_rows",
    "aggregate_table",
    "chaos_from_env",
    "dumps_aggregate",
    "dumps_reliability",
    "dumps_sweep",
    "expand_scenarios",
    "head_to_head",
    "head_to_head_table",
    "heartbeat_path",
    "load_records",
    "loads_sweep",
    "parse_chaos",
    "quarantine_path",
    "read_heartbeat",
    "record_crc",
    "reliability_from_store",
    "reliability_report",
    "reliability_summary_table",
    "reliability_table",
    "run_campaign",
    "watch_campaign",
]
