"""Routing through multistage interconnection networks.

The paper motivates PIPID-built networks by their "very simple bit directed
routing" (§4, §5).  This subpackage provides:

* :mod:`repro.routing.paths` — reachability and unique-path extraction for
  Banyan networks (any MI-digraph, no algebra needed).
* :mod:`repro.routing.bit_routing` — input→output routes, per-stage port
  tables, and derivation of the *destination-tag schedule*: for which
  networks is the port taken at stage ``j`` a fixed bit of the destination
  address, independent of the source?
* :mod:`repro.routing.permutation_routing` — routing full permutations,
  switch-setting traces, link-conflict detection and passability
  statistics (the classical Omega blocking analysis).

Each routing decision has one owner, which the simulator calls too:

* port tables (``0``/``1`` forced, ``-1`` unreachable, ``-2`` both):
  :func:`~repro.routing.paths.port_table_stack`, behind
  :func:`port_tables` and the simulator's fault-aware tables;
* the unique-path walk and its three failures (double link, two routes,
  unreachable): :func:`~repro.routing.paths.walk_unique_paths`, behind
  :func:`route`, :func:`unique_path`, :func:`route_permutation` and
  :func:`repro.sim.engine.permutation_port_schedule`;
* the in-slot convention and the signal trace through switch settings:
  :func:`~repro.routing.permutation_routing.arc_slots` and
  :func:`~repro.routing.permutation_routing.trace_switch_settings`,
  behind :func:`permutation_from_switch_settings`,
  :func:`repro.sim.engine.schedule_from_switch_settings` and the
  compiled network's slot tables.
"""

from repro.routing.bit_routing import (
    Route,
    destination_tag_schedule,
    port_tables,
    route,
)
from repro.routing.paths import (
    enumerate_paths,
    reachable_outputs,
    unique_path,
)
from repro.routing.permutation_routing import (
    count_link_conflicts,
    is_routable,
    permutation_from_switch_settings,
    routable_fraction,
    route_permutation,
)
from repro.routing.rearrangeable import (
    benes_switch_settings,
    realize_on_benes,
)

__all__ = [
    "Route",
    "benes_switch_settings",
    "permutation_from_switch_settings",
    "realize_on_benes",
    "count_link_conflicts",
    "destination_tag_schedule",
    "enumerate_paths",
    "is_routable",
    "port_tables",
    "reachable_outputs",
    "routable_fraction",
    "route",
    "route_permutation",
    "unique_path",
]
