"""The cycle-based packet simulator: run parameters in, a report out.

Model
-----
Each stage cell is a 2×2 switch with one buffer slot per input link, so a
stage holds at most ``N = 2M`` packets.  A cycle proceeds back-to-front:

1. last-stage packets eject through out-port ``dst & 1`` (two packets of
   one cell wanting the same output link contend);
2. stage ``j`` packets move to stage ``j + 1`` — the out-port comes from
   the fault-aware port tables (or a precomputed per-source schedule), the
   in-slot at the next cell from
   :func:`repro.routing.permutation_routing.arc_slots`, the convention of
   the switch-setting trace behind :func:`schedule_from_switch_settings`;
3. sources draw new packets from the traffic schedule into a one-deep
   buffer and inject into free first-stage slots.

Contention is resolved oldest-packet-first (ties to slot 0), which makes
runs deterministic and guarantees drain progress.  Losers are discarded
under the ``"drop"`` policy and held in place under the ``"block"``
policy (block-and-retry with back-pressure onto the sources).

:func:`simulate` is a slab of one: it builds a single
:class:`~repro.sim.batch.BatchScenario` and runs it through the same
private slab runner as :func:`repro.sim.batch.simulate_batch` —
validation, traffic materialization, compile, the backend's
``run_batch``, metrics and report assembly all live there, and so does
the slab builder a spec goes through.  What stays
here is the call-form handling (spec or concrete objects) and the
``simulate`` trace shape: one ``simulate`` root span with
``traffic``/``compile``/``run`` children and, at top level, a
``"simulate"`` manifest.  Everything that depends only on
``(topology, faults)`` — port tables, alive masks, child/slot tables —
lives in a cached
:class:`~repro.sim.compiled.CompiledNetwork`, so repeated runs on one
network skip that work entirely.

The cycle loop itself runs on a pluggable *kernel backend*
(:mod:`repro.sim.kernels`): the ``numpy`` reference kernels, or the
``numba`` backend that JIT-compiles the whole fused loop when the
optional numba package is installed.  Reports are bit-identical across
backends; selection comes from the ``backend`` argument
(``None`` or ``"auto"`` prefers numba when available) and the
``REPRO_SIM_BACKEND`` environment variable, which steers ``"auto"``.  The pure-Python fused scalar loop of
:mod:`repro.sim.kernels.numba_backend` is the independent oracle the
test suite pins the NumPy slab kernels against.

Ambiguous port table entries (``-2``: both ports reach, e.g. everywhere on
the Beneš network) take port 0 when its target slot is free, else port 1:
adaptive under ``"block"``, always port 0 under ``"drop"``.  For
conflict-free operation on rearrangeable networks, pass a
``port_schedule`` built by :func:`schedule_from_switch_settings` from
the looping algorithm's switch settings instead.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.errors import ReproError
from repro.core.midigraph import MIDigraph
from repro.obs import trace as obs
from repro.routing.permutation_routing import (
    permutation_paths,
    trace_switch_settings,
)
from repro.sim.batch import BatchScenario, _run_slab, _spec_slab
from repro.sim.faults import FaultSet, fault_masks
from repro.sim.metrics import SimReport
from repro.sim.traffic import TrafficPattern

__all__ = [
    "permutation_port_schedule",
    "schedule_from_switch_settings",
    "simulate",
]


def schedule_from_switch_settings(
    net: MIDigraph, settings: list[np.ndarray]
) -> np.ndarray:
    """Per-source out-port schedule realized by a switch configuration.

    Returns an ``(n_stages, N)`` int8 array: entry ``[j, s]`` is the port
    the packet injected at input link ``s`` takes at stage ``j + 1``.  Fed
    to :func:`simulate` as ``port_schedule`` this reproduces the circuit
    configuration packet by packet — e.g. the conflict-free realizations
    of :func:`repro.routing.rearrangeable.benes_switch_settings`.

    The ports of :func:`repro.routing.permutation_routing.trace_switch_settings`,
    which validates the settings.
    """
    return trace_switch_settings(net, settings)[0]


def permutation_port_schedule(net: MIDigraph, perm) -> np.ndarray:
    """The unique-path port schedule routing ``s → perm(s)`` on a Banyan net.

    The ``(n_stages, N)`` int8 ports of
    :func:`repro.routing.permutation_routing.permutation_paths`: all
    ``N`` routes walked at once over the network's reachability.  For
    multipath networks use :func:`schedule_from_switch_settings` instead.
    """
    return permutation_paths(net, perm)[1]


def simulate(
    net,
    traffic: TrafficPattern | None = None,
    *,
    cycles: int | None = None,
    policy: str | None = None,
    seed: int | None = None,
    faults: FaultSet | None = None,
    port_schedule: np.ndarray | None = None,
    drain: bool | None = None,
    network_name: str | None = None,
    backend: str | None = None,
) -> SimReport:
    """Run a cycle-based traffic simulation and return its report.

    Two call forms share one implementation:

    * ``simulate(spec)`` — the primary form: a
      :class:`~repro.spec.scenario.ScenarioSpec` becomes a slab of one
      through the batch path's slab builder (the registries resolve its
      network and traffic, and
      :func:`~repro.sim.faults.masks_from_counts` masks its fault
      sample, exactly as in ``simulate_batch(specs)``) and runs; every
      run parameter comes from the spec, so passing ``traffic`` or any
      keyword other than ``port_schedule`` and ``backend`` alongside a
      spec is an error (build a new spec instead — they are cheap and
      frozen).
    * ``simulate(net, traffic, **kwargs)`` — the low-level engine form
      for callers that already hold concrete objects (the property
      tests, port-schedule experiments).

    Either way the run is a slab of one through the runner behind
    :func:`repro.sim.batch.simulate_batch`.

    Parameters
    ----------
    net:
        A :class:`~repro.spec.scenario.ScenarioSpec`, or any MI-digraph.
        Unique-path (Banyan) networks route by destination tag; multipath
        networks resolve ambiguity adaptively under ``"block"`` and by
        port 0 under ``"drop"``.
    traffic:
        A :class:`~repro.sim.traffic.TrafficPattern` (destination process
        plus injection rate); engine form only.
    cycles:
        Number of injection cycles, a positive int (default 1000).
        ``cycles``, ``policy`` and ``drain`` are checked by building a
        :class:`~repro.spec.scenario.SimPolicy`, as a spec's are.
    policy:
        ``"drop"`` (default) — contention losers are discarded;
        ``"block"`` — losers retry next cycle and back-pressure reaches
        the sources.
    seed:
        Seed for the traffic schedule (default 0); runs are
        bit-deterministic.
    faults:
        Optional :class:`~repro.sim.faults.FaultSet`; routing degrades
        reachability-aware and packets with no live path count as
        ``unroutable``.
    port_schedule:
        Optional ``(n_stages, N)`` per-source port override (see
        :func:`schedule_from_switch_settings`); accepted in both forms.
    drain:
        After the injection cycles, keep simulating until the network
        empties (progress is guaranteed by oldest-first arbitration).
    network_name:
        Display name for the report (defaults to the repr shape).
    backend:
        Kernel backend: ``"numpy"``, ``"numba"`` or ``"auto"``
        (``None``, the default, means ``"auto"``; see
        :mod:`repro.sim.kernels`).  Accepted in both call forms and
        checked before any work — it selects an execution strategy,
        never a different result, so it is an argument of the call and
        never a field of the spec.
    """
    from repro.spec.scenario import ScenarioSpec

    if isinstance(net, ScenarioSpec):
        overrides = (cycles, policy, seed, faults, drain, network_name)
        if traffic is not None or any(v is not None for v in overrides):
            raise ReproError(
                "simulate(ScenarioSpec) takes every run parameter from "
                "the spec; build a different spec instead of passing "
                "overrides"
            )
        digests = (net.digest,) if obs.enabled() else ()
        net, (scn,), kwargs = _spec_slab([net])
        scn = replace(scn, port_schedule=port_schedule)
    elif traffic is None:
        raise ReproError(
            "simulate(net, traffic, ...) needs a TrafficPattern (or "
            "pass a single ScenarioSpec)"
        )
    else:
        digests = ()
        scn = BatchScenario(
            traffic=traffic,
            seed=0 if seed is None else seed,
            port_schedule=port_schedule,
        )
        kwargs = dict(
            cycles=cycles,
            policy=policy,
            masks=fault_masks(net, [faults]),
            drain=drain,
            network_name=network_name,
        )
    (report,) = _run_slab(
        net, [scn], **kwargs, backend=backend, kind="simulate",
        digests=digests,
    )
    return report
