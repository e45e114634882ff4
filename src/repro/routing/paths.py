"""Reachability and path extraction in MI-digraphs.

The Banyan property (§2) says every input–output pair is joined by a unique
path; these helpers compute the paths themselves.  Everything here is
purely graph-theoretic — it works for *any* MI-digraph, which is what lets
the routing experiments compare algebraically nice networks (PIPID-built)
with arbitrary Banyan ones.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.errors import ReproError
from repro.core.midigraph import MIDigraph

__all__ = [
    "backward_sweep", "enumerate_paths", "port_table_stack",
    "reachable_outputs", "unique_path", "walk_unique_paths",
]

#: Port-table entry by ``via_f + 2·via_g``: neither, f only, g only, both.
_PORT_CODES = np.array([-1, 0, 1, -2], dtype=np.int8)


def backward_sweep(
    net: MIDigraph, last: np.ndarray, links: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Sweep K stacks of alive values back from the last stage.

    ``last`` ``(K, M)`` gives each last-stage switch an alive value and
    ``links`` ``(K, n-1, M, 2)`` each out-arc one, already capped by the
    switch the arc leaves; ``None`` means every link alive.  A path is
    worth its smallest component value and a cell pair the largest over
    its paths, so :func:`numpy.minimum` composes along a path and
    :func:`numpy.maximum` across paths:

    * boolean masks make them *and* / *or*: the pair values are
      reachability through live cells and links;
    * kill ranks (a component dies at every count above its rank) make
      the pair value the *bottleneck rank*: the pair survives exactly
      the counts at or below it.  Pairs with no path get ``-1``, below
      every count.

    For ``j = n-2 … 0`` yields ``(j, via_f, via_g, reach)``, each
    ``(K, M, M)``: ``via_f[k, x, w]`` is the value of stage-``j+1`` cell
    ``x`` reaching last-stage cell ``w`` through its f-arc (``via_g``
    its g-arc), and ``reach`` the cell's value over both.  Only the
    current stage's reach is kept.
    """
    dead = False if last.dtype == bool else -1
    reach = np.where(np.eye(net.size, dtype=bool), last[:, :, None], dead)
    for j in range(net.n_stages - 2, -1, -1):
        conn = net.connections[j]
        via_f = reach.take(conn.f, axis=1)
        via_g = reach.take(conn.g, axis=1)
        if links is not None:
            via_f = np.minimum(via_f, links[:, j, :, 0, None])
            via_g = np.minimum(via_g, links[:, j, :, 1, None])
        reach = np.maximum(via_f, via_g)
        yield j, via_f, via_g, reach


def reachable_outputs(net: MIDigraph) -> list[np.ndarray]:
    """Per-stage boolean reachability matrices toward the last stage.

    Returns a list ``R`` of ``n`` boolean arrays of shape ``(M, M)``:
    ``R[s][x, w]`` is True when last-stage cell ``w`` is reachable from cell
    ``x`` of stage ``s + 1``.  One healthy :func:`backward_sweep`, in
    ``O(n · M²)`` bit-ops.
    """
    last = np.ones((1, net.size), dtype=bool)
    result = [np.eye(net.size, dtype=bool)]
    result += [reach[0] for *_, reach in backward_sweep(net, last)]
    return result[::-1]


def port_table_stack(
    net: MIDigraph, last: np.ndarray, links: np.ndarray | None = None
) -> np.ndarray:
    """The ``(K, n-1, M, M)`` int8 port tables of K boolean alive stacks.

    ``last`` and ``links`` are the boolean :func:`backward_sweep`
    arguments.  Entry ``[k, j, x, d]`` is the port stage-``j+1`` cell
    ``x`` must take toward last-stage cell ``d``: ``0``/``1`` when only
    that out-arc reaches ``d`` through live cells and links, ``-1``
    when neither does and ``-2`` when both do (multipath ambiguity; a
    double link counts only while both its arcs are live).  Since the
    sweep caps each arc by its link, an entry never names a dead link.
    """
    ptabs = np.empty((len(last), net.n_stages - 1, net.size, net.size), np.int8)
    for j, via_f, via_g, _ in backward_sweep(net, last, links):
        code = via_g.view(np.uint8) << 1
        code |= via_f.view(np.uint8)
        np.take(_PORT_CODES, code, out=ptabs[:, j])
    return ptabs


def enumerate_paths(
    net: MIDigraph, src_cell: int, dst_cell: int
) -> list[tuple[int, ...]]:
    """All directed paths from ``(1, src_cell)`` to ``(n, dst_cell)``.

    Each path is the tuple of cell labels visited, one per stage.  Parallel
    arcs (double links) contribute distinct paths, matching the
    path-counting semantics of :func:`repro.core.properties.is_banyan`.
    """
    n = net.n_stages
    paths: list[tuple[int, ...]] = []

    def walk(stage: int, cell: int, prefix: list[int]) -> None:
        if stage == n:
            if cell == dst_cell:
                paths.append(tuple(prefix))
            return
        fa, ga = net.connections[stage - 1].children(cell)
        walk(stage + 1, fa, prefix + [fa])
        walk(stage + 1, ga, prefix + [ga])

    walk(1, src_cell, [src_cell])
    return paths


def walk_unique_paths(
    net: MIDigraph,
    src_cells: np.ndarray,
    dst_cells: np.ndarray,
    reach: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk P cell pairs along their unique Banyan paths at once.

    At each stage every pair follows the child from which its
    destination is reachable (:func:`reachable_outputs`; ``reach`` may
    carry them precomputed).  Returns ``(cells, ports)``: ``cells``
    ``(n, P)`` the cell each pair visits per stage, ``ports`` ``(n-1,
    P)`` int8 the out-port it takes into the next.  Raises
    :class:`ReproError` at the first stage where some pair meets a
    double link, two routes or no route, naming the first such pair.
    """
    if reach is None:
        reach = reachable_outputs(net)
    dst = np.asarray(dst_cells, dtype=np.int64)
    cells = np.empty((net.n_stages, len(dst)), dtype=np.int64)
    ports = np.empty((net.n_stages - 1, len(dst)), dtype=np.int8)
    cells[0] = src_cells
    for stage, conn in enumerate(net.connections, start=1):
        cell = cells[stage - 1]
        fa, ga = conn.f[cell], conn.g[cell]
        via_f, via_g = reach[stage][fa, dst], reach[stage][ga, dst]
        for bad, why in (
            (via_f & (fa == ga), "double link out of stage {stage} cell "
             "{cell} lies on the route: paths to cell {dst} are not "
             "unique (Figure 5)"),
            (via_f & via_g, "two routes toward cell {dst} from stage "
             "{stage} cell {cell}: network is not Banyan"),
            (~(via_f | via_g), "output cell {dst} unreachable from stage "
             "{stage} cell {cell}"),
        ):
            if bad.any():
                p = np.flatnonzero(bad)[0]
                raise ReproError(
                    why.format(stage=stage, cell=cell[p], dst=dst[p])
                )
        ports[stage - 1] = via_g
        cells[stage] = np.where(via_f, fa, ga)
    return cells, ports


def unique_path(
    net: MIDigraph,
    src_cell: int,
    dst_cell: int,
    reach: list[np.ndarray] | None = None,
) -> tuple[int, ...]:
    """The unique path of a Banyan network: one :func:`walk_unique_paths`
    pair.

    Raises :class:`ReproError` when the walk meets zero or two routes
    (the network is not Banyan, or the pair is disconnected).  ``reach``
    may carry precomputed :func:`reachable_outputs` to amortize the
    backward sweep over many queries.
    """
    cells, _ = walk_unique_paths(net, [src_cell], [dst_cell], reach)
    return tuple(cells[:, 0].tolist())
