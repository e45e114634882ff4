"""Bit-directed (destination-tag) routing — the §4/§5 payoff.

    "As these PIPID are associated with a very simple bit directed routing,
    they are used to define most of the networks introduced in the
    literature."

Model
-----
The physical network has ``N = 2M`` inputs and outputs: input link ``s``
enters first-stage cell ``s >> 1``; output link ``d`` leaves last-stage
cell ``d >> 1`` through port ``d & 1``.  Inside the network a cell forwards
to its ``f``-child through port 0 and to its ``g``-child through port 1
(for networks built from link permutations this is literally link
``2x + port``, see :mod:`repro.permutations.connection_map`).

A network is *bit-directed routable* when the port taken at each stage is a
fixed digit of the destination address, independent of the source.
:func:`destination_tag_schedule` decides this and recovers the digit
schedule — for the Omega network it is the classical
"most-significant-bit-first" destination tag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ReproError
from repro.core.midigraph import MIDigraph
from repro.routing.paths import port_table_stack, walk_unique_paths

__all__ = ["Route", "destination_tag_schedule", "port_tables", "route"]


@dataclass(frozen=True)
class Route:
    """A routed input→output connection.

    Attributes
    ----------
    input, output:
        Terminal link labels in ``0 … N-1``.
    cells:
        The cell visited at each stage (length ``n``).
    ports:
        The out-port taken at each stage (length ``n``): ports
        ``1 … n-1`` select the f/g child, port ``n`` is the output link's
        last digit.
    """

    input: int
    output: int
    cells: tuple[int, ...]
    ports: tuple[int, ...]

    def links(self) -> tuple[tuple[int, int], ...]:
        """The (stage, out-link) pairs the route occupies.

        Two routes conflict exactly when they share one of these —
        the link-disjointness criterion of circuit-switched MINs.
        """
        return tuple(
            (stage, 2 * cell + port)
            for stage, (cell, port) in enumerate(
                zip(self.cells, self.ports), start=1
            )
        )


def route(
    net: MIDigraph,
    input_link: int,
    output_link: int,
    reach: list[np.ndarray] | None = None,
) -> Route:
    """Route one input to one output along the unique Banyan path.

    One :func:`repro.routing.paths.walk_unique_paths` pair; ``reach``
    may carry precomputed :func:`repro.routing.paths.reachable_outputs`.
    Raises :class:`ReproError` on non-Banyan situations (no path /
    several paths).
    """
    n_links = net.n_inputs
    for name, link in (("input", input_link), ("output", output_link)):
        if not 0 <= link < n_links:
            raise ReproError(
                f"{name} link {link} outside 0..{n_links - 1}"
            )
    cells, ports = walk_unique_paths(
        net, [input_link >> 1], [output_link >> 1], reach
    )
    return Route(
        input=input_link,
        output=output_link,
        cells=tuple(cells[:, 0].tolist()),
        ports=(*ports[:, 0].tolist(), output_link & 1),
    )


def port_tables(net: MIDigraph) -> list[np.ndarray]:
    """Per-stage port choices as functions of (cell, destination cell).

    Returns ``n - 1`` int8 arrays ``T`` of shape ``(M, M)``:
    ``T[x, d] = 0/1`` — the port cell ``x`` must take toward last-stage
    cell ``d`` — or ``-1`` when ``d`` is unreachable from ``x`` and ``-2``
    when both ports work (non-Banyan ambiguity).  The healthy row of
    :func:`repro.routing.paths.port_table_stack`.  The tables drive both
    the schedule derivation below and the delta-property analysis in
    :mod:`repro.analysis.bidelta`.
    """
    return list(port_table_stack(net, np.ones((1, net.size), dtype=bool))[0])


def destination_tag_schedule(net: MIDigraph) -> list[int] | None:
    """Derive the bit-directed routing schedule, if the network has one.

    Returns a list of ``n`` destination-digit indices ``k_1 … k_n`` such
    that routing from *any* input to output ``d`` takes port
    ``digit k_j of d`` at stage ``j`` — or ``None`` when no such schedule
    exists (some stage's port depends on the source, or on the destination
    in a non-single-bit way).

    For the classical networks the schedule exists; e.g. the Omega network
    scans the destination address most-significant-bit first
    (``k_j = n - j``), and the last entry is always 0 (the output link's
    own last digit).
    """
    size = net.size
    tables = port_tables(net)
    schedule: list[int] = []
    for stage, table in enumerate(tables, start=1):
        if (table == -2).any():
            return None  # ambiguous ports: not even uniquely routable
        # Port must be independent of the source cell: all reachable rows
        # agree per destination column.
        port_of_dst = np.full(size, -1, dtype=np.int8)
        for d in range(size):
            col = table[:, d]
            chosen = col[col >= 0]
            if chosen.size == 0 or not np.all(chosen == chosen[0]):
                return None
            port_of_dst[d] = chosen[0]
        # The destination *link* d has cell d >> 1; find a digit k of d
        # with port == digit for every d.  Digit 0 of the output link never
        # reaches the tables (it is handled by the final stage), so search
        # digits 1..n of the link label == digits 0..n-1 of the cell label.
        found = None
        for k_cell in range(size.bit_length() - 1):
            digits = (np.arange(size) >> k_cell) & 1
            if np.array_equal(digits.astype(np.int8), port_of_dst):
                found = k_cell + 1  # cell digit k ↔ link digit k + 1
                break
        if found is None:
            return None
        schedule.append(found)
    schedule.append(0)  # last stage consumes the output link's digit 0
    return schedule
