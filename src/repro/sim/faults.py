"""Fault injection: dead switches and severed links, with degraded routing.

A :class:`FaultSet` is purely structural — it names stages, cells and
ports, not a particular network object — so the *same* fault set can be
applied to any two networks of equal shape.  That is the experimental
handle this module exists for: baseline-equivalent topologies (same
``(n_stages, size)``) can be degraded identically and their traffic
behaviour compared apples-to-apples.

Below it, K fault samples are one :class:`FaultMasks`: a few kill orders
(each component's rank in one) and, per sample, its order and cell
count.  A seeded sample at count ``k`` kills every switch ranked below
``k`` in its seed's order, so :func:`masks_from_counts` serves every
count of a (seed, link count) from one order and each seed from one rank
draw; :func:`fault_masks` converts explicit fault sets, one order each.

Degradation is reachability-aware: :func:`fault_structure` runs the
backward sweep of :func:`repro.routing.paths.reachable_outputs`
(:func:`~repro.routing.paths.backward_sweep`) with dead cells and links
removed, for a stack of fault samples at once, so the simulator routes
around faults where an alternative port still works (multipath networks
such as Beneš) and drops packets as *unroutable* exactly when no live
path remains.

The same loop prices availability on the kill orders themselves.  Pair
``(s, d)`` survives count ``c`` exactly when its *bottleneck rank* — the
largest, over live paths, of the smallest kill rank on the path — is at
least ``c``.  Swept over kill ranks instead of booleans, the loop yields
every pair's bottleneck rank in each order, and
:func:`terminal_availability` reads each sample with one compare and
count against its order's values.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.errors import ReproError
from repro.core.midigraph import MIDigraph
from repro.routing.paths import backward_sweep, port_table_stack

__all__ = [
    "FaultMasks",
    "FaultSet",
    "FaultStructure",
    "fault_connectivity",
    "fault_masks",
    "fault_structure",
    "masks_from_counts",
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
        spare = spare_terminal_stages
        cells, links = _kill_ranks(rng, n_stages, size, spare_terminal_stages=spare)
        _check_counts(n_stages, size, n_dead_cells, n_dead_links, spare)
        return cls(
            _in_kill_order(cells, n_dead_cells), _in_kill_order(links, n_dead_links)
        )

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
        spare, rng = spare_terminal_stages, np.random.default_rng(seed)
        cells, links = _kill_ranks(rng, n_stages, size, spare_terminal_stages=spare)
        return _in_kill_order(cells, _SPARED), _in_kill_order(links, _SPARED)

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

        The seeded form of :meth:`random`: counts plus a seed fully
        determine the fault set for any network of shape
        ``(n_stages, size)``.  No run builds it: a spec run masks its
        sample with :func:`masks_from_counts`, and this decoder is the
        independent reference the tests check those masks against.
        Returns ``None`` when both counts are zero — the healthy-network
        convention of :func:`repro.sim.simulate`.  Negative or oversized
        counts raise :class:`~repro.core.errors.ReproError`.  For a fixed
        seed the sample at count ``k`` is the ``k``-prefix of
        :meth:`kill_order`, hence nested across counts.
        """
        if not (cells or links):
            return None
        rng = np.random.default_rng(seed)
        return cls.random(rng, n_stages, size, n_dead_cells=cells, n_dead_links=links)


#: The rank of a spared terminal-stage cell: past every count.
_SPARED = np.iinfo(np.intp).max


def _kill_ranks(
    rng: np.random.Generator, n_stages: int, size: int, *,
    spare_terminal_stages: bool = True, links: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each component's position in one seeded kill order.

    ``cell_rank (n, M)`` and ``link_rank (n-1, M, 2)`` invert one
    ``rng.permutation`` of each candidate pool, cells first.
    ``links=False`` (for a caller that owns ``rng`` and severs no links)
    skips the link draw and returns ``None``; no cell rank moves.
    """
    lo = 1 if spare_terminal_stages else 0
    cell_rank = np.full((n_stages, size), _SPARED, dtype=np.intp)
    pool = cell_rank[lo : n_stages - lo]
    pool[...] = _inverse(rng.permutation(pool.size)).reshape(pool.shape)
    if not links:
        return cell_rank, None
    link_rank = _inverse(rng.permutation(2 * (n_stages - 1) * size))
    return cell_rank, link_rank.reshape(n_stages - 1, size, 2)


def _inverse(perm: np.ndarray) -> np.ndarray:
    """The inverse of a permutation of ``range(len(perm))``: each entry's
    position in it."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv


def _in_kill_order(rank: np.ndarray, k: int) -> list[tuple]:
    """The components ranked below ``k``, in kill order, as ``(stage,
    cell)`` / ``(gap, cell, port)`` tuples counting stages from 1."""
    killed = rank < k
    # Ranks invert a permutation, so those below k are 0, 1, ...: each
    # killed component's rank is its row.
    found = np.argwhere(killed)
    rows = np.empty_like(found)
    rows[rank[killed]] = found
    return [(first + 1, *rest) for first, *rest in rows.tolist()]


def _check_counts(
    n_stages: int, size: int, cells: int, links: int,
    spare_terminal_stages: bool = True,
) -> None:
    """Raise unless both fault counts fit their candidate pools."""
    if cells < 0 or links < 0:
        raise ReproError(f"fault counts must be >= 0, got cells={cells} links={links}")
    stages = n_stages - 2 if spare_terminal_stages else n_stages
    cell_pool, link_pool = max(0, stages) * size, 2 * (n_stages - 1) * size
    if cells > cell_pool:
        raise ReproError(f"cannot kill {cells} cells: only {cell_pool} candidates")
    if links > link_pool:
        raise ReproError(f"cannot sever {links} links: only {link_pool} candidates")


class FaultMasks(NamedTuple):
    """K fault samples of one network shape, as kill orders and counts.

    Attributes
    ----------
    ranks:
        ``(G, n, M)`` — each switch's rank in one of G kill orders; a
        switch lives while its rank is at least the sample's count, and a
        spared terminal-stage switch (``_SPARED``) never dies.
    links:
        ``(G, n-1, M, 2)`` bool — True where that order does not sever
        the link.
    order, kills:
        ``(K,)`` — sample ``k`` is order ``order[k]`` at cell count
        ``kills[k]``.  An explicit fault set is an order of its own, its
        dead switches at rank -1 and its count 0.
    """

    ranks: np.ndarray
    links: np.ndarray
    order: np.ndarray
    kills: np.ndarray

    def alive(self) -> tuple[np.ndarray, np.ndarray]:
        """The samples' boolean alive stacks: cells ``(K, n, M)``, True
        where a switch is not killed, and links ``(K, n-1, M, 2)``, True
        where a link is not severed."""
        cells = self.ranks[self.order] >= self.kills[:, None, None]
        return cells, self.links[self.order]


def masks_from_counts(
    n_stages: int, size: int, counts: Iterable[tuple[int, int, int]]
) -> FaultMasks:
    """The samples of many ``(cells, links, seed)`` counts of one shape.

    Sample ``i`` is the one :meth:`FaultSet.from_counts` draws for count
    ``i``.  A seed's samples are nested, so the counts group by (seed,
    link count), one kill order each, and each seed draws its kill ranks
    once; fault-free counts share one order and draw nothing.  A seed
    that severs no link never permutes the link pool.  Negative or
    oversized counts raise :class:`~repro.core.errors.ReproError`.
    """
    counts = list(counts)
    groups: dict[tuple[int | None, int], list[int]] = {}
    for k, (cells, links, seed) in enumerate(counts):
        _check_counts(n_stages, size, cells, links)
        key = (seed, links) if cells or links else (None, 0)
        groups.setdefault(key, []).append(k)
    severs = {seed for seed, links in groups if links}
    ranks = {
        seed: _kill_ranks(
            np.random.default_rng(seed), n_stages, size, links=seed in severs
        )
        for seed in {seed for seed, _ in groups} - {None}
    }
    masks = FaultMasks(
        np.full((len(groups), n_stages, size), _SPARED, dtype=np.intp),
        np.ones((len(groups), n_stages - 1, size, 2), dtype=bool),
        np.empty(len(counts), dtype=np.intp),
        np.array([cells for cells, _, _ in counts], dtype=np.intp),
    )
    for g, ((seed, links), rows) in enumerate(groups.items()):
        masks.order[rows] = g
        if seed is not None:
            cell_rank, link_rank = ranks[seed]
            masks.ranks[g] = cell_rank
            if links:
                masks.links[g] = link_rank >= links
    return masks


def fault_masks(net: MIDigraph, samples: Sequence[FaultSet | None]) -> FaultMasks:
    """The samples of K explicit fault sets of ``net`` (``None`` =
    healthy), each validated against the network's shape and an order of
    its own."""
    K, n, size = len(samples), net.n_stages, net.size
    masks = FaultMasks(
        np.full((K, n, size), _SPARED, dtype=np.intp),
        np.ones((K, n - 1, size, 2), dtype=bool),
        np.arange(K, dtype=np.intp),
        np.zeros(K, dtype=np.intp),
    )
    for k, faults in enumerate(samples):
        if not faults:
            continue
        faults.validate(net)
        for values, dead, value in (
            (masks.ranks, faults.dead_cells, -1),
            (masks.links, faults.dead_links, False),
        ):
            if dead:
                first, *rest = np.array(list(dead)).T
                values[(k, first - 1, *rest)] = value
    return masks


class FaultStructure(NamedTuple):
    """The derived structure of K fault samples of one network.

    Every array has a leading sample axis ``K``; row ``k`` describes
    row ``k`` of the :func:`fault_structure` call's masks.

    Attributes
    ----------
    cells:
        ``(K, n, M)`` bool — live switches per stage.
    links:
        ``(K, n-1, M, 2)`` bool — usable inter-stage links: not severed,
        and both endpoint cells alive.
    ptabs:
        ``(K, n-1, M, M)`` int8 — fault-aware port tables from
        :func:`repro.routing.paths.port_table_stack`: ``0``/``1`` the
        forced port, ``-1`` destination unreachable, ``-2`` both ports
        lead to live paths (the simulator steers toward a free target
        slot under ``block`` and always takes port 0 under ``drop``).
        An entry never names a dead link: a ``0``/``1`` entry's link is
        alive, and both links of a ``-2`` entry are.  A fault-free row
        reproduces ``port_tables(net)``.
    """

    cells: np.ndarray
    links: np.ndarray
    ptabs: np.ndarray


def _check_stack(masks: FaultMasks) -> int:
    """The sample count of ``masks``; an empty stack raises
    :class:`~repro.core.errors.ReproError`: a K = 0 value has no row to
    read, and its combined flags would claim every link alive."""
    if not len(masks.order):
        raise ReproError("fault_structure needs at least one fault sample")
    return len(masks.order)


def _child_table(net: MIDigraph) -> np.ndarray:
    """``(n-1, M, 2)`` int32: ``[j, x, p]`` is the stage-``j+2`` cell that
    stage-``j+1`` cell ``x`` reaches through out-port ``p``."""
    return np.stack(
        [np.stack([c.f, c.g], axis=1) for c in net.connections]
    ).astype(np.int32)


def fault_structure(net: MIDigraph, masks: FaultMasks) -> FaultStructure:
    """Derive the alive masks and port tables of K samples.

    ``masks`` holds K fault samples of ``net``'s shape.  One
    :func:`~repro.routing.paths.port_table_stack` call — one backward
    sweep — serves all K at once, fed the live last-stage cells and the
    usable links.  An empty stack raises
    :class:`~repro.core.errors.ReproError`.
    """
    return _fault_structure(net, masks, _child_table(net))


def _fault_structure(
    net: MIDigraph, masks: FaultMasks, child: np.ndarray
) -> FaultStructure:
    """:func:`fault_structure` on the network's :func:`_child_table`,
    which a slab compile builds once and keeps."""
    _check_stack(masks)
    cells, severed = masks.alive()
    # A link is dead when severed or when either endpoint cell is dead.
    gaps = np.arange(net.n_stages - 1)[:, None, None]
    links = severed & cells[:, :-1, :, None] & cells[:, 1:][:, gaps, child]
    return FaultStructure(
        cells, links, port_table_stack(net, cells[:, -1], links)
    )


def _bottleneck_ranks(
    net: MIDigraph, ranks: np.ndarray, links: np.ndarray
) -> np.ndarray:
    """The ``(M, M)`` bottleneck rank of every first-stage → last-stage
    cell pair in one kill order (a ``FaultMasks.ranks`` and ``.links``
    row): one rank-valued :func:`~repro.routing.paths.backward_sweep`."""
    # An arc lives while both it and the switch it leaves do.
    source = ranks[:-1, :, None]
    for *_, reach in backward_sweep(
        net, ranks[None, -1], np.where(links, source, -1)[None]
    ):
        pass
    return reach[0]


def terminal_reachability(net: MIDigraph, faults: FaultSet) -> np.ndarray:
    """The ``(N, N)`` boolean matrix of surviving input→output pairs.

    Input link ``s`` enters cell ``s >> 1`` of stage 1; output link ``d``
    leaves cell ``d >> 1`` of stage ``n``.  A pair survives when both
    terminal cells are alive and a live path joins them.
    """
    idx = np.arange(net.n_inputs) >> 1
    masks = fault_masks(net, [faults])
    value = _bottleneck_ranks(net, masks.ranks[0], masks.links[0])
    return value[np.ix_(idx, idx)] >= 0


def terminal_availability(net: MIDigraph, masks: FaultMasks) -> np.ndarray:
    """``(K,)`` fraction of input→output link pairs surviving each sample.

    One rank-valued :func:`~repro.routing.paths.backward_sweep` per
    kill order gives its bottleneck ranks; a sample's pair survives
    while that rank is at least its cell count.  One ``bincount`` of
    the order's ranks, clipped to ``[-1, most kills]``, read through a
    reverse cumulative sum, gives every sample's count.  Each terminal cell
    carries two links, so a row's value is its surviving cell-pair count
    divided by ``M²``: an exact ratio that does not depend on which
    samples share the call.  An empty stack raises
    :class:`~repro.core.errors.ReproError`.
    """
    _check_stack(masks)
    out = np.empty(len(masks.order))
    # One order per sweep: a stacked (G, M, M) sweep outgrows the cache
    # and took twice as long at M = 256.
    for g, (ranks, links) in enumerate(zip(masks.ranks, masks.links)):
        rows = np.flatnonzero(masks.order == g)
        if not len(rows):
            continue
        value = _bottleneck_ranks(net, ranks, links)
        kills = masks.kills[rows]
        top = int(kills.max())
        # at_least[c + 1]: pairs whose bottleneck rank is at least c.
        hist = np.bincount(
            np.clip(value, -1, top).ravel() + 1, minlength=top + 2
        )
        at_least = np.cumsum(hist[::-1])[::-1]
        out[rows] = at_least[kills + 1] / value.size
    return out


def fault_connectivity(net: MIDigraph, faults: FaultSet) -> float:
    """Fraction of input→output link pairs still connected under faults.

    1.0 for a healthy Banyan network; the degradation curve of this
    number under growing random fault sets is the classical
    fault-tolerance comparison between MIN topologies.  The K = 1 row
    of :func:`terminal_availability`.
    """
    return float(terminal_availability(net, fault_masks(net, [faults]))[0])
