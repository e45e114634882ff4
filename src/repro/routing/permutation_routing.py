"""Routing full permutations and the classical blocking analysis.

A Banyan network realizes each input→output pair by a unique path, but a
*permutation* of the N inputs may require two pairs to share a link — the
network then *blocks* that permutation.  These helpers route whole
permutations, count link conflicts, and estimate the passable fraction —
the numbers behind the classical observation that an N-input Omega network
passes only ``2^{N/2 · log …}``-ish vanishingly few of the ``N!``
permutations.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.errors import InvalidNetworkError
from repro.core.midigraph import MIDigraph
from repro.permutations.permutation import Permutation
from repro.routing.bit_routing import Route
from repro.routing.paths import walk_unique_paths

__all__ = [
    "arc_slots",
    "count_link_conflicts",
    "is_routable",
    "permutation_from_switch_settings",
    "permutation_paths",
    "routable_fraction",
    "route_permutation",
    "trace_switch_settings",
]


def arc_slots(conn) -> np.ndarray:
    """In-slot at the child cell for each out-arc ``(cell, port)``.

    The two arcs entering a cell are assigned slots 0 and 1 in sorted
    ``(parent, tag)`` order — the one in-slot convention of the
    switch-setting trace and the simulator, so schedules derived from
    switch settings line up.
    """
    size = conn.size
    xs = np.concatenate([np.arange(size), np.arange(size)])
    tags = np.concatenate(
        [np.zeros(size, dtype=np.int64), np.ones(size, dtype=np.int64)]
    )
    ys = np.concatenate([conn.f, conn.g])
    order = np.lexsort((tags, xs, ys))
    slot_of_arc = np.empty(2 * size, dtype=np.int64)
    slot_of_arc[order] = np.arange(2 * size) % 2
    slots = np.empty((size, 2), dtype=np.int8)
    slots[xs, tags] = slot_of_arc
    return slots


def trace_switch_settings(
    net: MIDigraph, settings: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Trace every input signal through a full switch configuration.

    ``settings[j][x] ∈ {0, 1}`` sets cell ``x`` of stage ``j+1`` straight
    (0: in-slot ``s`` → out-port ``s``) or crossed (1: ``s`` → ``1-s``).
    In-slots follow :func:`arc_slots`; first-stage cells hold their two
    input links in slots 0, 1 and last-stage out-ports are the output
    links.  Returns ``(ports, last)``: ``ports`` ``(n, N)`` int8 holds
    the port input ``s`` leaves stage ``j+1`` through at ``[j, s]``, and
    ``last[y, slot]`` the input whose signal sits in that slot of
    last-stage cell ``y``.  One ``O(M)`` step per stage.  A setting
    count other than ``n``, a stage not of shape ``(M,)`` or an entry
    outside {0, 1} raises :class:`InvalidNetworkError`.
    """
    if len(settings) != net.n_stages:
        raise InvalidNetworkError(
            f"need one setting array per stage ({net.n_stages}), "
            f"got {len(settings)}"
        )
    size = net.size
    xs, slot = np.arange(size), np.arange(2)
    ports = np.empty((net.n_stages, 2 * size), dtype=np.int8)
    # signals[x, slot]: the input link whose signal sits in (cell x, slot).
    signals = np.arange(2 * size, dtype=np.int64).reshape(size, 2)
    for stage, setting in enumerate(settings, start=1):
        setting = np.asarray(setting)
        if setting.shape != (size,):
            raise InvalidNetworkError(
                f"stage {stage} setting must have shape ({size},), "
                f"got {setting.shape}"
            )
        if not np.isin(setting, (0, 1)).all():
            raise InvalidNetworkError(
                f"stage {stage} setting entries must be 0 or 1"
            )
        setting = setting.astype(np.int64)
        # The signal in slot s of cell x exits through port s ^ setting[x].
        ports[stage - 1][signals] = slot ^ setting[:, None]
        if stage == net.n_stages:
            break
        conn = net.connections[stage - 1]
        slots = arc_slots(conn)
        nxt = np.empty_like(signals)
        for tag, child in enumerate((conn.f, conn.g)):
            # The (x, tag) arc lands in slot slots[x, tag] of its child
            # and carries the signal that exits x through port `tag`.
            nxt[child, slots[:, tag]] = signals[xs, tag ^ setting]
        signals = nxt
    return ports, signals


def permutation_from_switch_settings(
    net: MIDigraph, settings: list[np.ndarray]
) -> Permutation:
    """The terminal permutation realized by a full switch configuration.

    Read off :func:`trace_switch_settings`: the signal in slot ``s`` of
    last-stage cell ``y`` leaves on output link ``2y + port``.

    Every permutation obtained this way is passable by construction (each
    link carries exactly one signal), so this is the exact generator of a
    network's conflict-free permutation set — ``2^{M·n}`` configurations
    versus ``N!`` permutations, the quantitative heart of the blocking
    analysis.
    """
    ports, last = trace_switch_settings(net, settings)
    images = np.empty(net.n_inputs, dtype=np.int64)
    images[last] = 2 * np.arange(net.size)[:, None] + ports[-1][last]
    return Permutation(images)


def permutation_paths(
    net: MIDigraph, perm: Permutation
) -> tuple[np.ndarray, np.ndarray]:
    """Walk input ``s`` to output ``perm(s)`` for every input link at once.

    Returns ``(cells, ports)``, each ``(n, N)``: column ``s`` is the
    cell visited and the out-port taken per stage by the route of input
    ``s`` (the last port is the output link's last digit).  One
    :func:`repro.routing.paths.walk_unique_paths` call, which raises
    when the network is not Banyan; a permutation of another size
    raises :class:`InvalidNetworkError`.
    """
    if perm.n != net.n_inputs:
        raise InvalidNetworkError(
            f"permutation acts on {perm.n} links, network has "
            f"{net.n_inputs}"
        )
    images = perm.images
    cells, ports = walk_unique_paths(
        net, np.arange(net.n_inputs) >> 1, images >> 1
    )
    return cells, np.vstack([ports, (images & 1).astype(np.int8)])


def route_permutation(
    net: MIDigraph, perm: Permutation
) -> list[Route]:
    """Route input ``s`` to output ``perm(s)`` for every input link ``s``.

    ``perm`` acts on the ``N = 2M`` terminal links.  Returns the N routes
    of one :func:`permutation_paths` walk; raises when the network is not
    Banyan (no unique paths to follow).
    """
    cells, ports = permutation_paths(net, perm)
    return [
        Route(input=s, output=d, cells=tuple(c), ports=tuple(p))
        for s, (d, c, p) in enumerate(
            zip(perm.images.tolist(), cells.T.tolist(), ports.T.tolist())
        )
    ]


def count_link_conflicts(routes: list[Route]) -> int:
    """Number of links carrying more than one route.

    A link used by ``c`` routes contributes ``c - 1`` conflicts (the count
    of connections that would have to wait in a circuit-switched pass).
    """
    usage = Counter(link for r in routes for link in r.links())
    return sum(c - 1 for c in usage.values() if c > 1)


def is_routable(net: MIDigraph, perm: Permutation) -> bool:
    """Whether the network passes the permutation without link conflicts.

    Two routes conflict when they leave one stage through the same
    out-link ``2·cell + port``, so the permutation passes iff every
    stage's row of the :func:`permutation_paths` links is distinct.
    """
    cells, ports = permutation_paths(net, perm)
    links = np.sort(2 * cells + ports, axis=1)
    return not (links[:, 1:] == links[:, :-1]).any()


def routable_fraction(
    net: MIDigraph,
    rng: np.random.Generator,
    samples: int = 200,
) -> float:
    """Monte-Carlo estimate of the fraction of passable permutations.

    Samples uniform permutations of the terminal links.  For the classical
    networks this fraction collapses quickly with size — each ``2 × 2``
    cell can carry both of its routes only when they use distinct ports,
    so the passable set has measure roughly ``(1/2)^{(n-? ) M}`` of
    ``N!``; the experiment R1 reports the measured decay.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    hits = 0
    for _ in range(samples):
        perm = Permutation.random(rng, net.n_inputs)
        if is_routable(net, perm):
            hits += 1
    return hits / samples
