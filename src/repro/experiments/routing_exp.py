"""Experiment R1: "a very simple bit directed routing" (§4, §5).

Derives the destination-tag schedule of every classical network (which
digit of the destination address controls each stage) and verifies tag
routing against the unique Banyan paths; then measures permutation
blocking — the price of the Banyan property.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import experiment
from repro.networks.catalog import CLASSICAL_NETWORKS
from repro.networks.random_nets import random_banyan_buddy_network
from repro.permutations.permutation import Permutation
from repro.routing.bit_routing import destination_tag_schedule
from repro.routing.paths import walk_unique_paths
from repro.routing.permutation_routing import (
    is_routable,
    routable_fraction,
)

__all__ = ["r1"]


@experiment(
    "R1",
    "Bit-directed routing schedules and permutation blocking",
    "§4–§5 (routing motivation)",
)
def r1():
    """Schedules for the six classical networks (n = 4), route validation,
    and Monte-Carlo passable fractions."""
    rng = np.random.default_rng(20240109)
    n = 4
    lines = [
        f"destination-tag schedules, n = {n} "
        "(digit of the destination address consumed per stage):",
        "",
        "  network                      schedule",
    ]
    ok = True
    data = {}
    for name, build in CLASSICAL_NETWORKS.items():
        net = build(n)
        schedule = destination_tag_schedule(net)
        ok &= schedule is not None
        data[name] = schedule
        lines.append(f"  {name:<28} {schedule}")
        # Validate: for every (input, output), following the schedule's
        # digits reproduces the unique-path route (one walk of all pairs).
        if schedule is not None:
            src, dst = np.divmod(np.arange(net.n_inputs**2), net.n_inputs)
            _, ports = walk_unique_paths(net, src >> 1, dst >> 1)
            ports = np.vstack([ports, dst & 1])
            tags = (dst >> np.array(schedule)[:, None]) & 1
            ok &= bool(np.array_equal(tags, ports))
    lines.append("")
    lines.append(
        "tag routing equals unique-path routing for every (input, output) "
        f"pair of every classical network: {ok}"
    )

    # A random Banyan network generally has NO single-bit schedule.
    counter = 0
    for _ in range(20):
        net = random_banyan_buddy_network(rng, 4)
        if destination_tag_schedule(net) is None:
            counter += 1
    lines.append(
        f"random fully-buddied Banyan networks without a bit schedule: "
        f"{counter}/20 (bit-directed routing is a PIPID privilege, not a "
        f"Banyan one)"
    )

    lines.append("")
    lines.append("permutation blocking (Monte-Carlo, 200 samples):")
    lines.append("  network    n   passable fraction")
    from repro.networks.omega import omega

    for nn in (3, 4, 5):
        frac = routable_fraction(omega(nn), rng, 200)
        data[f"omega_passable_n{nn}"] = frac
        lines.append(f"  omega      {nn}   {frac:.3f}")
    # Structured permutations: the identity blocks on *every* 2x2 Banyan
    # MIN (inputs 2c, 2c+1 share a first-stage cell and target the same
    # last-stage cell, hence the same unique path).  Conversely, any
    # permutation realized by a full switch configuration is passable by
    # construction — 2^{M·n} configurations versus N! permutations is the
    # blocking arithmetic.
    from repro.networks.baseline import baseline
    from repro.routing.permutation_routing import (
        permutation_from_switch_settings,
    )

    n_links = 2 ** 4
    ident = Permutation.identity(n_links)
    ident_omega = is_routable(omega(4), ident)
    ident_base = is_routable(baseline(4), ident)
    ok &= not ident_omega and not ident_base
    lines.append(
        f"identity: omega(4)={ident_omega}, baseline(4)={ident_base} "
        f"(blocked on every 2x2 Banyan MIN — paired inputs share their "
        f"unique path)"
    )
    settings = [
        rng.integers(0, 2, size=8).astype(np.int64) for _ in range(4)
    ]
    realized = permutation_from_switch_settings(omega(4), settings)
    realized_ok = is_routable(omega(4), realized)
    ok &= realized_ok
    lines.append(
        f"random switch-configuration permutation on omega(4): "
        f"passable={realized_ok} (passable set = exactly the 2^(M·n) "
        f"switch configurations)"
    )
    data["identity_omega"] = ident_omega
    data["switch_setting_passable"] = realized_ok
    return ok, lines, data
