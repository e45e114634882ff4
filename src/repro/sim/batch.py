"""Scenario-axis batched simulation: B runs through one set of kernels.

Every simulation is a *slab*: ``B`` same-shape scenarios — one network,
shared ``(cycles, policy, drain)``, per-scenario traffic, seed, fault
sample and (optionally) port schedule — run as a single pass through one
backend kernel.  A slab carries up to :data:`SLAB_SAMPLES` distinct
fault samples, compiled together into one
:class:`~repro.sim.compiled.CompiledNetwork` whose per-sample tables
have a leading sample axis; every scenario reads the row of its own
sample.  :func:`simulate_batch` runs any ``B``;
:func:`repro.sim.engine.simulate` is a slab of one.  Both go through one
private runner that validates, materializes the traffic, compiles,
calls the backend's ``run_batch``, records the ``sim.*`` metrics and
assembles the reports.

The traffic slab is ``(cycles, B, N)`` in the narrowest signed dtype
that holds ``[-1, N)`` (``int16`` up to ``N = 2**15``, else ``int32``).
Spec runs fill it from a :class:`~repro.sim.traffic.ScheduleStore`:
Theorem 1's comparisons run one ``(traffic, seed)`` on every topology
and fault sample, so a schedule is drawn once per campaign run (the
store rides on the run's :class:`~repro.sim.compiled.CompileCache`) or
per ``simulate_batch(specs)`` call, and copied into each slab that runs
it.  The draws themselves are unchanged, so are the reports.  The engine
forms (bare :class:`~repro.sim.traffic.TrafficPattern` values, no spec)
draw every scenario.

Scenarios never interact: each backend keeps a leading batch axis on
its packet state and accumulates per-scenario counters, and the
regression oracle the test suite pins is the pure-Python fused scalar
loop of :mod:`repro.sim.kernels.numba_backend`, an independent
implementation: every counter, the occupancy and the latency counts of
each scenario are **bit-identical** to it, and a scenario's report is
the same whichever slab it runs in.

The slab kernels live behind the pluggable backend seam of
:mod:`repro.sim.kernels`.  The ``numpy`` reference backend has one
kernel per contention policy:

* ``block`` runs cycle by cycle but *stage-parallel*.  Stage ``j``
  moves before stage ``j - 1`` moves into it, so in each cycle it moves
  what it held at the end of the previous one: one whole-slab pass
  over ``(n, B, 2M)`` arrays does every stage's port lookup, unroutable
  filter and contention.  Only back-pressure runs stage by stage, as a
  chain of boolean gathers (a winner moves iff its target slot was
  empty or is vacated in this cycle), and all moves then apply as one
  gather/scatter.  Draining is per scenario; an empty one is inert.
* ``drop`` runs stage-major.  Under ``drop`` a packet injected at cycle
  ``c`` meets only the other packet of its switch, injected at the same
  cycle, and is delivered exactly ``n_stages`` cycles later or lost.
  Rows of the slab never interact, so each chunk of injection rows goes
  through the network in ``n`` dense passes, and the cycle loop is
  gone.  Nothing on the way changes a packet's route either (no move
  waits, and a ``-2`` port always takes port 0), so the route is a pure
  function of the packet's fault sample, first-stage cell and
  destination.  The kernel gathers it once at injection as a *route
  word*, 2 bits per stage (out-port + 1, or 0 where the packet is
  unroutable, then the eject port + 1; 0 is an empty slot), from the
  compiled value's :meth:`~repro.sim.compiled.CompiledNetwork.route_words`
  table, and each stage pass reads its field with one mask.  The state
  is slot-major, ``(2M, rows, B)``, so a stage move gathers whole
  contiguous rows through the connection's fixed link permutation.

``block`` reads the compiled value's stacked per-sample port tables at
each scenario's sample offset, and both read its source masks; ``drop``
reads the route words, derived on a slab's first ``drop`` run and kept
with the compiled value.  A port-scheduled slab's words come from one
forward walk of the schedules
(:meth:`~repro.sim.compiled.CompiledNetwork.scheduled_words`, which
ends a route at a dead link): ``drop`` gathers them at injection and
``block`` carries each with its packet, so neither kernel reads a link
mask.

The optional ``numba`` backend runs each scenario of the slab through
one fused JIT-compiled cycle loop, for both policies.  Reports are
bit-identical across backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ReproError
from repro.obs import schema
from repro.obs import trace as obs
from repro.obs.manifest import RunManifest
from repro.obs.metrics import metrics
from repro.sim.compiled import _DEFAULT, CompileCache
from repro.sim.faults import FaultMasks, FaultSet, fault_masks, masks_from_counts
from repro.sim.kernels import get_backend, resolve_backend
from repro.sim.metrics import SimReport, latency_summary
from repro.sim.traffic import TrafficPattern, _draw_schedule, _schedule_dtype
from repro.spec.scenario import SimPolicy, canonical_json

__all__ = ["SLAB_SAMPLES", "BatchScenario", "pack_slabs", "simulate_batch"]

#: Most distinct fault samples one slab carries: 16, the default campaign
#: ``batch``, so a reliability sweep (one scenario per fault sample) fills
#: whole slabs and one :func:`~repro.sim.faults.fault_structure` sweep derives
#: all 16.  A slab's compiled value holds ``(K, n-1, M, M)`` int8 port tables
#: and no reachability (the sweep keeps one ``(K, M, M)`` stage at a time), so
#: the cap bounds that memory per compile-cache entry; a campaign's cache holds
#: :data:`repro.campaign.runner.CACHE_SLABS` (4) entries.  A full slab takes
#: longer to run than a small one under either policy, so a campaign cuts
#: its first task after :data:`repro.campaign.runner.FIRST_TASK` (4)
#: scenarios (at most 4 samples): the first stored result waits for a
#: small slab.
SLAB_SAMPLES = 16


def _check_port_schedule(
    port_schedule: np.ndarray | None, n: int, n_in: int
) -> np.ndarray | None:
    """Validate and normalize a per-source port schedule (int8)."""
    if port_schedule is None:
        return None
    sched = np.asarray(port_schedule)
    if sched.shape != (n, n_in):
        raise ReproError(
            f"port_schedule must have shape ({n}, {n_in}), "
            f"got {sched.shape}"
        )
    if sched.dtype != bool and not np.issubdtype(sched.dtype, np.integer):
        raise ReproError(
            f"port_schedule entries must be integers 0 or 1, "
            f"got {sched.dtype}"
        )
    if sched.min() < 0 or sched.max() > 1:
        raise ReproError("port_schedule entries must be 0 or 1")
    return sched.astype(np.int8)


def pack_slabs(specs, batch: int | None = None) -> list[list[int]]:
    """Pack scenario specs into slabs, as lists of indices into ``specs``.

    Specs are grouped by
    :meth:`~repro.spec.scenario.ScenarioSpec.group_key` and, within a
    group, bucketed by fault sample, both in first-appearance order
    (deterministic: expansion order is fixed).  Whole buckets are packed
    into slabs of at most ``batch`` scenarios (unbounded when ``None``)
    and at most :data:`SLAB_SAMPLES` distinct samples; a bucket larger
    than ``batch`` is cut at multiples of ``batch`` only.
    """
    groups: "dict[str, dict]" = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.group_key(), {}).setdefault(
            spec.faults, []
        ).append(i)
    cap = len(specs) if batch is None else batch
    slabs: list[list[int]] = []
    for buckets in groups.values():
        slab: list[int] = []
        n_samples = 0
        for idxs in buckets.values():
            if slab and (
                len(slab) + len(idxs) > cap or n_samples == SLAB_SAMPLES
            ):
                slabs.append(slab)
                slab, n_samples = [], 0
            while len(idxs) > cap:
                slabs.append(idxs[:cap])
                idxs = idxs[cap:]
            slab += idxs
            n_samples += 1
        slabs.append(slab)
    return slabs


def _spec_slab(specs) -> tuple:
    """The :func:`_run_slab` inputs of specs that share one slab.

    Returns ``(net, scenarios, kwargs)``.  The slab's head supplies the
    network, its label and the run parameters; each spec adds its
    resolved traffic and seed; one
    :func:`~repro.sim.faults.masks_from_counts` call masks the distinct
    fault samples, drawing each fault seed's kill ranks once, and
    ``sample`` indexes each spec's row.  The one way from a
    :class:`~repro.spec.scenario.ScenarioSpec` to a slab, for
    :func:`simulate_batch` and :func:`repro.sim.engine.simulate` alike.
    """
    head = specs[0]
    net = head._digraph()
    buckets: dict = {}
    sample = [buckets.setdefault(s.faults, len(buckets)) for s in specs]
    masks = masks_from_counts(
        net.n_stages,
        net.size,
        [(fs.cells, fs.links, fs.seed) for fs in buckets],
    )
    scns = [
        BatchScenario(traffic=s.traffic.resolve(), seed=s.seed) for s in specs
    ]
    return net, scns, dict(
        cycles=head.sim.cycles,
        policy=head.sim.policy,
        drain=head.sim.drain,
        masks=masks,
        sample=np.array(sample, dtype=np.intp),
        network_name=head.label,
    )


def _simulate_spec_batch(
    specs, backend: str, cache: CompileCache | None = None
) -> list[SimReport]:
    """Pack specs into slabs (:func:`pack_slabs`) and run each one.

    Each slab runs the inputs of :func:`_spec_slab` on ``backend``,
    compiling through ``cache`` (a campaign's run-owned one) and drawing
    traffic through its schedule store.  Without ``cache`` the slabs
    compile through the shared default cache and share a schedule store
    that lives for this call only.  Reports return in input order,
    inside one span and, at top level, one manifest.
    """
    top_level = obs.enabled() and obs.current_span() is None
    reports: list[SimReport | None] = [None] * len(specs)
    try:
        with obs.span("simulate_batch", scenarios=len(specs)) as root:
            for idxs in pack_slabs(specs):
                slab = [specs[i] for i in idxs]
                net, scns, kwargs = _spec_slab(slab)
                group_reports = _run_slab(
                    net, scns, **kwargs, backend=backend, cache=cache,
                    traffic_ids=[
                        canonical_json(s.traffic.to_spec()) for s in slab
                    ],
                )
                for i, report in zip(idxs, group_reports):
                    reports[i] = report
    finally:
        if cache is None:
            _DEFAULT.schedules.clear()
    if top_level:
        obs.active().emit_manifest(
            RunManifest.collect(
                "batch",
                [s.digest for s in specs],
                backend=backend,
                timings={"total": root.dur},
            )
        )
    return reports  # type: ignore[return-value]


@dataclass(frozen=True, eq=False)
class BatchScenario:
    """One scenario of a batch: the run inputs that may vary per slab.

    Attributes
    ----------
    traffic:
        The scenario's :class:`~repro.sim.traffic.TrafficPattern`.
    seed:
        Traffic-schedule seed (same semantics as ``simulate``'s).
    port_schedule:
        Optional per-source port override; either every scenario of a
        batch carries one or none does.
    network_name:
        Display name for this scenario's report.
    """

    traffic: TrafficPattern
    seed: int = 0
    port_schedule: np.ndarray | None = None
    network_name: str | None = None


def simulate_batch(
    net,
    scenarios=None,
    *,
    cycles: int | None = None,
    policy: str | None = None,
    faults: FaultSet | None = None,
    drain: bool | None = None,
    network_name: str | None = None,
    backend: str | None = None,
) -> list[SimReport]:
    """Run B scenarios through batched kernels; one report each.

    Two call forms share one implementation:

    * ``simulate_batch(specs)`` — the primary form: a list of
      :class:`~repro.spec.scenario.ScenarioSpec` values.  Specs are
      packed into slabs by :func:`pack_slabs` (same topology, cycles,
      policy and drain; at most :data:`SLAB_SAMPLES` fault samples per
      slab), each slab resolves its network once and runs as one batched
      pass, and the reports come back in input order.  Keywords other than
      ``backend`` are forbidden — every run parameter lives in the
      specs, and how they run is the caller's choice.
    * ``simulate_batch(net, scenarios, **kwargs)`` — the low-level
      engine form: one compiled network, shared
      ``(cycles, policy, faults, drain)``, per-scenario
      :class:`BatchScenario` entries (bare
      :class:`~repro.sim.traffic.TrafficPattern` values are wrapped with
      ``seed=0``).

    Parameters
    ----------
    net:
        A list of :class:`~repro.spec.scenario.ScenarioSpec`, or any
        MI-digraph (engine form).
    scenarios:
        Engine form only: the :class:`BatchScenario` sequence.
    cycles, policy, faults, drain:
        Engine form only; as in :func:`repro.sim.engine.simulate`
        (defaults 1000 / ``"drop"`` / ``None`` / ``False``).
    network_name:
        Engine form only: default report name for scenarios that don't
        set their own.
    backend:
        Kernel backend: ``"numpy"``, ``"numba"`` or ``"auto"``
        (``None``, the default, means ``"auto"``; see
        :mod:`repro.sim.kernels`).  Accepted in both call forms and
        checked before any work — it selects an execution strategy,
        never a different result.

    Returns
    -------
    list[SimReport]
        ``scenarios[i]``'s report at index ``i``, equal to the
        ``simulate`` result of that scenario alone.
    """
    from repro.spec.scenario import ScenarioSpec

    if isinstance(net, (list, tuple)):
        if not all(isinstance(s, ScenarioSpec) for s in net):
            raise ReproError(
                "simulate_batch specs must all be ScenarioSpec values"
            )
        overrides = (scenarios, cycles, policy, faults, drain, network_name)
        if any(v is not None for v in overrides):
            raise ReproError(
                "simulate_batch(list[ScenarioSpec]) takes every run "
                "parameter from the specs; build different specs instead "
                "of passing overrides"
            )
        resolved = resolve_backend(backend)
        if not net:
            return []
        return _simulate_spec_batch(list(net), resolved)
    if scenarios is None:
        raise ReproError(
            "simulate_batch(net, scenarios, ...) needs a scenario "
            "sequence (or pass a list of ScenarioSpec)"
        )
    return _run_slab(
        net,
        [
            s if isinstance(s, BatchScenario) else BatchScenario(traffic=s)
            for s in scenarios
        ],
        cycles=cycles,
        policy=policy,
        masks=fault_masks(net, [faults]),
        drain=drain,
        network_name=network_name,
        backend=backend,
    )


def _run_slab(
    net,
    scns: list[BatchScenario],
    *,
    cycles: int | None,
    policy: str | None,
    masks: FaultMasks,
    drain: bool | None,
    network_name: str | None,
    backend: str | None,
    sample: np.ndarray | None = None,
    kind: str = "batch",
    digests=(),
    cache: CompileCache | None = None,
    traffic_ids: list[str] | None = None,
) -> list[SimReport]:
    """Run one slab of scenarios and assemble a report for each.

    The single path behind ``simulate`` (``kind="simulate"``, a slab of
    one) and both forms of ``simulate_batch`` (``kind="batch"``).
    ``cycles``, ``policy`` and ``drain`` default and validate through
    :class:`~repro.spec.scenario.SimPolicy` (``None`` takes its default).
    ``masks`` holds the slab's distinct fault samples, compiled
    together into one value, and ``sample[i]`` indexes scenario ``i``'s
    (all 0 when ``None``).
    ``kind`` names the top-level manifest and, through
    :data:`repro.obs.schema.SLAB_ROOT_SPANS`, the root span whose
    ``traffic``/``compile``/``run`` children time the phases; the phase
    durations become each report's ``timings``.  ``digests`` are the
    scenario digests the manifest carries.  ``cache`` defaults to
    :func:`~repro.sim.compiled.compile_network`'s.

    The traffic phase fills a ``(cycles, B, N)`` slab in
    :func:`~repro.sim.traffic._schedule_dtype`.  Spec runs pass
    ``traffic_ids``, each scenario's canonical traffic wire JSON: a
    scenario's schedule then comes from the cache's
    :class:`~repro.sim.traffic.ScheduleStore`, drawn and checked only on
    a miss, and a hit copies the stored schedule into the slab.  Without
    them (the engine forms) every scenario draws its own.
    """
    given = {"cycles": cycles, "policy": policy, "drain": drain}
    sim = SimPolicy(**{k: v for k, v in given.items() if v is not None})
    cycles, policy, drain = sim.cycles, sim.policy, sim.drain
    if not scns:
        raise ReproError("simulate_batch needs at least one scenario")
    resolved = resolve_backend(backend)
    for s in scns:
        if not isinstance(s.traffic, TrafficPattern):
            raise ReproError(
                f"scenario traffic must be a TrafficPattern, "
                f"got {type(s.traffic)!r}"
            )
    B = len(scns)
    n = net.n_stages
    size = net.size
    n_in = net.n_inputs

    n_scheduled = sum(1 for s in scns if s.port_schedule is not None)
    scheds = None
    if n_scheduled:
        if n_scheduled != B:
            raise ReproError(
                "either every batch scenario carries a port_schedule or "
                f"none does ({n_scheduled} of {B} given)"
            )
        # (B, n, N) — each backend lays this out for its own gathers.
        scheds = np.stack(
            [_check_port_schedule(s.port_schedule, n, n_in) for s in scns]
        )

    cache = _DEFAULT if cache is None else cache
    top_level = obs.enabled() and obs.current_span() is None
    with obs.span(
        schema.SLAB_ROOT_SPANS[kind], scenarios=B, cycles=cycles,
        policy=policy,
    ) as root:
        # Per-scenario traffic schedules, cycle-major for contiguous rows.
        with obs.span("traffic") as sp_traffic:
            tmats = np.empty((cycles, B, n_in), dtype=_schedule_dtype(n_in))
            for i, s in enumerate(scns):
                tmats[:, i] = (
                    _draw_schedule(s.traffic, s.seed, n_in, cycles)
                    if traffic_ids is None
                    else cache.schedules.schedule(
                        traffic_ids[i], s.traffic, s.seed, n_in, cycles
                    )
                )

        with obs.span("compile") as sp_compile:
            comp = cache.compile(net, masks)
        kern = get_backend(resolved)
        if sample is None:
            sample = np.zeros(B, dtype=np.intp)

        with obs.span("run") as sp_run:
            start = time.perf_counter()
            run = kern.run_batch(
                comp, sample, tmats, scheds, cycles, policy == "drop",
                drain,
            )
            elapsed = time.perf_counter() - start
        if obs.enabled():
            root.set(backend=resolved, stages=n, size=size)
            root.add("offered", int(run.offered.sum()))
            root.add("delivered", int(run.delivered.sum()))

    default_name = network_name
    if default_name is None:
        default_name = f"midigraph(n={n}, M={size})"

    timings = None
    if obs.enabled():
        timings = {
            "traffic": sp_traffic.dur,
            "compile": sp_compile.dur,
            "run": sp_run.dur,
            "total": root.dur,
        }
        m = metrics()
        m.counter("sim.batches").add()
        m.counter("sim.runs").add(B)
        total_cycles = B * cycles + int(run.drain_cycles.sum())
        m.counter("sim.cycles").add(total_cycles)
        m.counter("sim.delivered").add(int(run.delivered.sum()))
        if elapsed > 0:
            m.histogram("sim.scenarios_per_s").observe(B / elapsed)
            m.histogram("sim.cycles_per_s").observe(total_cycles / elapsed)
        if top_level:
            obs.active().emit_manifest(
                RunManifest.collect(
                    kind,
                    digests,
                    backend=resolved,
                    timings=timings,
                    network=default_name,
                    scenarios=B,
                )
            )

    denom = cycles * 2 * size
    reports: list[SimReport] = []
    for i, s in enumerate(scns):
        mean_lat, p99_lat = latency_summary(run.lat_counts[i])
        reports.append(
            SimReport(
                network=s.network_name or default_name,
                n_stages=n,
                size=size,
                cycles=cycles,
                drain_cycles=int(run.drain_cycles[i]),
                policy=policy,
                traffic=s.traffic.describe(),
                rate=s.traffic.rate,
                seed=s.seed,
                offered=int(run.offered[i]),
                injected=int(run.injected[i]),
                delivered=int(run.delivered[i]),
                dropped=int(run.dropped[i]),
                unroutable=int(run.unroutable[i]),
                blocked_moves=int(run.blocked_moves[i]),
                in_flight=int(run.in_flight[i]),
                total_hops=int(run.total_hops[i]),
                mean_latency=mean_lat,
                p99_latency=p99_lat,
                stage_utilization=tuple(
                    float(o) for o in run.occupancy[:, i] / denom
                ),
                elapsed=elapsed / B,
                timings=timings,
            )
        )
    return reports
