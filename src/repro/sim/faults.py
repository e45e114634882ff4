"""Fault injection: dead switches and severed links, with degraded routing.

A :class:`FaultSet` is purely structural — it names stages, cells and
ports, not a particular network object — so the *same* fault set can be
applied to any two networks of equal shape.  That is the experimental
handle this module exists for: baseline-equivalent topologies (same
``(n_stages, size)``) can be degraded identically and their traffic
behaviour compared apples-to-apples.

Degradation is reachability-aware: :func:`fault_structure` recomputes
the backward reachability sweep of :func:`repro.routing.paths.reachable_outputs`
with dead cells and links removed, for a stack of fault samples at once,
so the simulator routes around faults where an alternative port still
works (multipath networks such as Beneš) and drops packets as
*unroutable* exactly when no live path remains.

Seeded samples are prefixes of a per-seed kill order
(:meth:`FaultSet.kill_order`); :func:`fault_sets_from_counts` draws
each order once for any number of counts of one shape.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.errors import ReproError
from repro.core.midigraph import MIDigraph

__all__ = [
    "FaultSet",
    "FaultStructure",
    "fault_connectivity",
    "fault_sets_from_counts",
    "fault_structure",
    "terminal_availability",
    "terminal_reachability",
]


@dataclass(frozen=True)
class FaultSet:
    """A structural set of failed components.

    Attributes
    ----------
    dead_cells:
        Failed switches as ``(stage, cell)`` pairs, stages numbered
        ``1 … n`` as in the paper.
    dead_links:
        Severed inter-stage links as ``(gap, cell, port)`` triples: the
        arc leaving stage-``gap`` cell ``cell`` through out-port ``port``
        (0 = the f-child, 1 = the g-child).
    """

    dead_cells: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    dead_links: frozenset[tuple[int, int, int]] = field(
        default_factory=frozenset
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "dead_cells",
            frozenset((int(s), int(c)) for s, c in self.dead_cells),
        )
        object.__setattr__(
            self,
            "dead_links",
            frozenset(
                (int(g), int(c), int(p)) for g, c, p in self.dead_links
            ),
        )
        for _, _, port in self.dead_links:
            if port not in (0, 1):
                raise ReproError(f"link port must be 0 or 1, got {port}")

    def __bool__(self) -> bool:
        return bool(self.dead_cells or self.dead_links)

    def __len__(self) -> int:
        return len(self.dead_cells) + len(self.dead_links)

    def validate(self, net: MIDigraph) -> None:
        """Check every fault index against the network's shape."""
        for stage, cell in self.dead_cells:
            if not 1 <= stage <= net.n_stages:
                raise ReproError(
                    f"dead cell stage {stage} outside 1..{net.n_stages}"
                )
            if not 0 <= cell < net.size:
                raise ReproError(
                    f"dead cell {cell} outside 0..{net.size - 1}"
                )
        for gap, cell, _port in self.dead_links:
            if not 1 <= gap <= net.n_stages - 1:
                raise ReproError(
                    f"dead link gap {gap} outside 1..{net.n_stages - 1}"
                )
            if not 0 <= cell < net.size:
                raise ReproError(
                    f"dead link cell {cell} outside 0..{net.size - 1}"
                )

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        n_stages: int,
        size: int,
        *,
        n_dead_cells: int = 0,
        n_dead_links: int = 0,
        spare_terminal_stages: bool = True,
    ) -> "FaultSet":
        """Sample a fault set for any network of shape ``(n_stages, size)``.

        ``spare_terminal_stages`` keeps the first and last stages healthy
        (the usual assumption in MIN fault studies: the terminal stages
        are the network's access points).  Sampling depends only on the
        shape and the RNG state, so the same call produces the same fault
        set for every topology under comparison.

        The draw is a *prefix* of the full kill order
        (:meth:`kill_order`): both component pools are permuted whole and
        the first ``k`` entries taken, so for a fixed starting RNG state
        the ``k``-fault sample is a subset of the ``k+1``-fault sample.
        Fault-saturation sweeps rely on this nesting — availability is
        monotone non-increasing in the count by construction.
        """
        orders = _kill_orders(
            rng, n_stages, size, spare_terminal_stages=spare_terminal_stages
        )
        return _prefix(orders, n_dead_cells, n_dead_links)

    @classmethod
    def kill_order(
        cls,
        n_stages: int,
        size: int,
        *,
        seed: int = 0,
        spare_terminal_stages: bool = True,
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
        """The seeded sequential-failure order of every component.

        Returns ``(cells, links)``: the candidate dead cells and severed
        links, each pool permuted whole by ``seed``.  This is the
        "components fail one by one" model behind MTTF-style aggregates:
        :meth:`from_counts` with the same seed returns exactly the first
        ``k`` entries of each list, so walking ``k = 0, 1, 2, …`` replays
        one sequential-failure trajectory.
        """
        return _kill_orders(
            np.random.default_rng(seed),
            n_stages,
            size,
            spare_terminal_stages=spare_terminal_stages,
        )

    @classmethod
    def from_counts(
        cls,
        n_stages: int,
        size: int,
        *,
        cells: int = 0,
        links: int = 0,
        seed: int = 0,
    ) -> "FaultSet | None":
        """The deterministic sample of a fault-count spec, or ``None``.

        The seeded form of :meth:`random` used by the spec layer
        (:meth:`repro.spec.scenario.FaultSpec.sample`): counts plus a
        seed fully determine the fault set for any network of shape
        ``(n_stages, size)``.  Returns ``None`` when both counts are
        zero — the healthy-network convention of
        :func:`repro.sim.simulate`.  Negative or oversized counts raise
        :class:`~repro.core.errors.ReproError`.  For a fixed seed the
        sample at count ``k`` is the ``k``-prefix of
        :meth:`kill_order`, hence nested across counts.

        The one-element case of :func:`fault_sets_from_counts`, which
        callers holding several counts of one shape use instead to draw
        each seed's kill order once.
        """
        return fault_sets_from_counts(
            n_stages, size, [(cells, links, seed)]
        )[0]

    def to_dict(self) -> dict:
        """A JSON-ready description (sorted, hence deterministic)."""
        return {
            "dead_cells": sorted(list(t) for t in self.dead_cells),
            "dead_links": sorted(list(t) for t in self.dead_links),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSet":
        """Rebuild a fault set from :meth:`to_dict` output."""
        return cls(
            frozenset(tuple(t) for t in doc.get("dead_cells", ())),
            frozenset(tuple(t) for t in doc.get("dead_links", ())),
        )


def _kill_orders(
    rng: np.random.Generator,
    n_stages: int,
    size: int,
    *,
    spare_terminal_stages: bool = True,
    links: bool = True,
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """Permute the cell and link candidate pools whole.

    Both pools are permuted (cells first), regardless of how many
    components a caller takes, so the RNG stream consumed is a function
    of the shape alone — prefixes of either order are independent of the
    length requested from the other.  ``links=False`` skips the link
    draw and returns an empty link order: the cells come first, so no
    cell prefix moves.  Only a caller that owns ``rng`` and severs no
    links passes it.
    """
    inner = (
        range(2, n_stages) if spare_terminal_stages else
        range(1, n_stages + 1)
    )
    cell_pool = [(s, c) for s in inner for c in range(size)]
    cells = [cell_pool[i] for i in rng.permutation(len(cell_pool))]
    if not links:
        return cells, []
    link_pool = [
        (g, c, p)
        for g in range(1, n_stages)
        for c in range(size)
        for p in (0, 1)
    ]
    return cells, [link_pool[i] for i in rng.permutation(len(link_pool))]


def _prefix(
    orders: tuple[list[tuple[int, int]], list[tuple[int, int, int]]],
    n_cells: int,
    n_links: int,
) -> FaultSet:
    """The fault set of the first ``n_cells`` / ``n_links`` of ``orders``."""
    cells_order, links_order = orders
    if not 0 <= n_cells <= len(cells_order):
        raise ReproError(
            f"cannot kill {n_cells} cells: only "
            f"{len(cells_order)} candidates"
        )
    if not 0 <= n_links <= len(links_order):
        raise ReproError(
            f"cannot sever {n_links} links: only "
            f"{len(links_order)} candidates"
        )
    cells = frozenset(cells_order[:n_cells])
    links = frozenset(links_order[:n_links])
    if len(cells) != n_cells or len(links) != n_links:
        raise ReproError(
            "fault sampling produced duplicate draws "
            f"({len(cells)}/{n_cells} cells, "
            f"{len(links)}/{n_links} links)"
        )
    return FaultSet(cells, links)


def fault_sets_from_counts(
    n_stages: int, size: int, counts: Iterable[tuple[int, int, int]]
) -> list[FaultSet | None]:
    """The samples of many ``(cells, links, seed)`` counts of one shape.

    Entry ``i`` equals :meth:`FaultSet.from_counts` of the ``i``-th
    count (``None`` for a fault-free one), but each distinct seed's
    kill order is drawn once and every count of that seed is sliced
    from it: a nested sweep's counts are prefixes of a few
    trajectories, not independent draws.  A seed none of whose counts
    severs a link never builds or permutes the link pool.  Negative or
    oversized counts raise :class:`~repro.core.errors.ReproError`.
    """
    counts = list(counts)
    severs = {seed for _, links, seed in counts if links}
    orders: dict[int, tuple] = {}
    out: list[FaultSet | None] = []
    for cells, links, seed in counts:
        if cells < 0 or links < 0:
            raise ReproError(
                f"fault counts must be >= 0, got cells={cells} links={links}"
            )
        if not (cells or links):
            out.append(None)
            continue
        if seed not in orders:
            orders[seed] = _kill_orders(
                np.random.default_rng(seed), n_stages, size,
                links=seed in severs,
            )
        out.append(_prefix(orders[seed], cells, links))
    return out


class FaultStructure(NamedTuple):
    """The derived structure of K fault samples of one network.

    Every array has a leading sample axis ``K``; row ``k`` describes
    ``samples[k]`` of the :func:`fault_structure` call.

    Attributes
    ----------
    cells:
        ``(K, n, M)`` bool — live switches per stage.
    links:
        ``(K, n-1, M, 2)`` bool — usable inter-stage links: not severed,
        and both endpoint cells alive.
    reach:
        ``(K, n, M, M)`` bool — ``reach[k, s, x, w]`` is True when
        last-stage cell ``w`` is reachable from stage ``s + 1`` cell
        ``x`` through live cells and links only (the fault-aware
        :func:`repro.routing.paths.reachable_outputs`).
    ptabs:
        ``(K, n-1, M, M)`` int8 — fault-aware port tables in the
        encoding of :func:`repro.routing.bit_routing.port_tables`:
        ``0``/``1`` the forced port, ``-1`` destination unreachable,
        ``-2`` both ports lead to live paths (the simulator then chooses
        adaptively).  A fault-free row reproduces ``port_tables(net)``.
    """

    cells: np.ndarray
    links: np.ndarray
    reach: np.ndarray
    ptabs: np.ndarray


def fault_structure(
    net: MIDigraph, samples: Sequence[FaultSet | None]
) -> FaultStructure:
    """Derive the alive masks, reachability and port tables of K samples.

    ``samples`` lists K fault sets of ``net`` (``None`` = healthy); each
    is validated against the network's shape.  One backward sweep over
    the stages serves all K at once: at each gap the ``via_f`` /
    ``via_g`` masks (a live out-arc toward a cell that still reaches the
    destination) give both the gap's reachability and its port table.
    An empty ``samples`` raises :class:`~repro.core.errors.ReproError`:
    a K = 0 value has no row to read, and its combined flags would
    claim every link alive.
    """
    K, n, size = len(samples), net.n_stages, net.size
    if not K:
        raise ReproError("fault_structure needs at least one fault sample")
    cells = np.ones((K, n, size), dtype=bool)
    links = np.ones((K, n - 1, size, 2), dtype=bool)
    for k, faults in enumerate(samples):
        if faults is None:
            continue
        faults.validate(net)
        for stage, cell in faults.dead_cells:
            cells[k, stage - 1, cell] = False
        for gap, cell, port in faults.dead_links:
            links[k, gap - 1, cell, port] = False
    # A link is dead when severed or when either endpoint cell is dead.
    links &= cells[:, :-1, :, None]
    reach = np.empty((K, n, size, size), dtype=bool)
    reach[:, -1] = np.eye(size, dtype=bool) & cells[:, -1, :, None]
    ptabs = np.empty((K, n - 1, size, size), dtype=np.int8)
    for j in range(n - 2, -1, -1):
        conn, live = net.connections[j], links[:, j]
        live[..., 0] &= cells[:, j + 1, conn.f]
        live[..., 1] &= cells[:, j + 1, conn.g]
        via_f = reach[:, j + 1][:, conn.f] & live[..., 0, None]
        via_g = reach[:, j + 1][:, conn.g] & live[..., 1, None]
        reach[:, j] = (via_f | via_g) & cells[:, j, :, None]
        # A double link (f == g) is ambiguous only while BOTH parallel
        # arcs are live; with one severed the surviving port is forced.
        ptabs[:, j] = np.where(
            via_f, np.where(via_g, -2, 0), np.where(via_g, 1, -1)
        )
    return FaultStructure(cells, links, reach, ptabs)


def _terminal_pairs(net: MIDigraph, reach: np.ndarray) -> np.ndarray:
    """First-stage rows of ``(K, n, M, M)`` reachability as ``(K, N, N)``
    input→output link pairs."""
    idx = np.arange(net.n_inputs) >> 1
    return reach[:, 0][:, idx][:, :, idx]


def terminal_reachability(net: MIDigraph, faults: FaultSet) -> np.ndarray:
    """The ``(N, N)`` boolean matrix of surviving input→output pairs.

    Input link ``s`` enters cell ``s >> 1`` of stage 1; output link ``d``
    leaves cell ``d >> 1`` of stage ``n``.  A pair survives when both
    terminal cells are alive and a live path joins them.
    """
    return _terminal_pairs(net, fault_structure(net, [faults]).reach)[0]


def terminal_availability(
    net: MIDigraph, samples: Sequence[FaultSet | None]
) -> np.ndarray:
    """``(K,)`` fraction of input→output link pairs surviving each sample.

    One :func:`fault_structure` call serves all K samples (``None`` =
    healthy).  Each entry is an integer pair count divided by ``N²``, so
    a row's value does not depend on which samples share its call.
    """
    pairs = _terminal_pairs(net, fault_structure(net, samples).reach)
    return np.count_nonzero(pairs, axis=(1, 2)) / pairs[0].size


def fault_connectivity(net: MIDigraph, faults: FaultSet) -> float:
    """Fraction of input→output link pairs still connected under faults.

    1.0 for a healthy Banyan network; the degradation curve of this
    number under growing random fault sets is the classical
    fault-tolerance comparison between MIN topologies.  The K = 1 row
    of :func:`terminal_availability`.
    """
    return float(terminal_availability(net, [faults])[0])
