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
    "backward_sweep", "enumerate_paths", "reachable_outputs", "unique_path",
]


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


def unique_path(
    net: MIDigraph,
    src_cell: int,
    dst_cell: int,
    reach: list[np.ndarray] | None = None,
) -> tuple[int, ...]:
    """The unique path of a Banyan network, extracted greedily.

    At each stage, follow the child from which ``dst_cell`` is reachable;
    raises :class:`ReproError` when zero or two children qualify (the
    network is not Banyan, or the pair is disconnected).

    ``reach`` may carry precomputed :func:`reachable_outputs` to amortize
    the backward sweep over many queries.
    """
    if reach is None:
        reach = reachable_outputs(net)
    n = net.n_stages
    cell = src_cell
    path = [cell]
    for stage in range(1, n):
        fa, ga = net.connections[stage - 1].children(cell)
        via_f = bool(reach[stage][fa, dst_cell])
        via_g = bool(reach[stage][ga, dst_cell])
        if fa == ga and via_f:
            raise ReproError(
                f"double link out of stage {stage} cell {cell} lies on the "
                f"route: paths to {dst_cell} are not unique (Figure 5)"
            )
        if via_f and via_g and fa != ga:
            raise ReproError(
                f"two disjoint routes toward {dst_cell} from stage "
                f"{stage} cell {cell}: network is not Banyan"
            )
        if via_f:
            cell = fa
        elif via_g:
            cell = ga
        else:
            raise ReproError(
                f"destination cell {dst_cell} unreachable from stage "
                f"{stage} cell {cell}"
            )
        path.append(cell)
    if cell != dst_cell:  # pragma: no cover - reachability guarantees this
        raise ReproError("greedy walk missed the destination")
    return tuple(path)
