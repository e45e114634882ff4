"""Fault injection: dead switches and severed links, with degraded routing.

A :class:`FaultSet` is purely structural — it names stages, cells and
ports, not a particular network object — so the *same* fault set can be
applied to any two networks of equal shape.  That is the experimental
handle this module exists for: baseline-equivalent topologies (same
``(n_stages, size)``) can be degraded identically and their traffic
behaviour compared apples-to-apples.

Below it, K fault samples are one :class:`FaultMasks` pair of alive masks.
A seeded sample at count ``k`` kills every component ranked below ``k`` in
its seed's kill order, so :func:`masks_from_counts` masks all counts of a
seed with one rank draw; :func:`fault_masks` converts explicit fault sets.

Degradation is reachability-aware: :func:`fault_structure` runs the
backward sweep of :func:`repro.routing.paths.reachable_outputs`
(:func:`~repro.routing.paths.backward_sweep`) with dead cells and links
removed, for a stack of fault samples at once, so the simulator routes
around faults where an alternative port still works (multipath networks
such as Beneš) and drops packets as *unroutable* exactly when no live
path remains.

The same loop prices availability without masks.  A seed's samples are
nested, so pair ``(s, d)`` survives count ``c`` exactly when its
*bottleneck rank* — the largest, over live paths, of the smallest kill
rank on the path — is at least ``c``.  Swept over kill ranks instead of
booleans, the loop yields every pair's bottleneck rank, and
:func:`availability_from_counts` reads each cell count of a (seed, link
count) group with one compare and count.
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
    "availability_from_counts",
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
    """K fault samples of one network shape as alive masks: ``cells``
    ``(K, n, M)`` and ``links`` ``(K, n-1, M, 2)``, True where a switch
    is not killed or a link not severed."""

    cells: np.ndarray
    links: np.ndarray

    @classmethod
    def healthy(cls, k: int, n_stages: int, size: int) -> "FaultMasks":
        """``k`` fault-free samples: every mask True."""
        return cls(
            np.ones((k, n_stages, size), dtype=bool),
            np.ones((k, n_stages - 1, size, 2), dtype=bool),
        )


def masks_from_counts(
    n_stages: int, size: int, counts: Iterable[tuple[int, int, int]]
) -> FaultMasks:
    """The masks of many ``(cells, links, seed)`` counts of one shape.

    Row ``i`` is the sample :meth:`FaultSet.from_counts` draws for count
    ``i``, but each faulted seed draws its kill ranks once and its rows
    are one broadcast compare against them.  A seed that severs no link
    never permutes the link pool.  Negative or oversized counts raise
    :class:`~repro.core.errors.ReproError`.
    """
    counts = list(counts)
    by_seed: dict[int, list[int]] = {}
    for k, (cells, links, seed) in enumerate(counts):
        _check_counts(n_stages, size, cells, links)
        if cells or links:
            by_seed.setdefault(seed, []).append(k)
    n = np.array([count[:2] for count in counts], dtype=np.intp)
    masks = FaultMasks.healthy(len(counts), n_stages, size)
    for seed, rows in by_seed.items():
        severs = bool(n[rows, 1].any())
        rng = np.random.default_rng(seed)
        cell_rank, link_rank = _kill_ranks(rng, n_stages, size, links=severs)
        masks.cells[rows] = cell_rank >= n[rows, 0][:, None, None]
        if severs:
            masks.links[rows] = link_rank >= n[rows, 1][:, None, None, None]
    return masks


def fault_masks(net: MIDigraph, samples: Sequence[FaultSet | None]) -> FaultMasks:
    """The masks of K explicit fault sets of ``net`` (``None`` = healthy),
    each validated against the network's shape."""
    masks = FaultMasks.healthy(len(samples), net.n_stages, net.size)
    for k, faults in enumerate(samples):
        if not faults:
            continue
        faults.validate(net)
        for alive, dead in (
            (masks.cells, faults.dead_cells), (masks.links, faults.dead_links)
        ):
            if dead:
                first, *rest = np.array(list(dead)).T
                alive[(k, first - 1, *rest)] = False
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
    if not len(masks.cells):
        raise ReproError("fault_structure needs at least one fault sample")
    return len(masks.cells)


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
    # Copies: a compiled value freezes these arrays, never the caller's.
    cells = np.array(masks.cells, dtype=bool)
    # A link is dead when severed or when either endpoint cell is dead.
    gaps = np.arange(net.n_stages - 1)[:, None, None]
    links = masks.links & cells[:, :-1, :, None] & cells[:, 1:][:, gaps, child]
    return FaultStructure(
        cells, links, port_table_stack(net, cells[:, -1], links)
    )


def _first_stage(
    net: MIDigraph, last: np.ndarray, links: np.ndarray
) -> np.ndarray:
    """The ``(K, M, M)`` first-stage pair values of a full sweep."""
    for *_, reach in backward_sweep(net, last, links):
        pass
    return reach


def _mask_pairs(net: MIDigraph, masks: FaultMasks) -> np.ndarray:
    """The ``(K, M, M)`` surviving first-stage → last-stage cell pairs."""
    # A link lives only while the switch it leaves does.
    links = masks.links & masks.cells[:, :-1, :, None]
    return _first_stage(net, masks.cells[:, -1], links)


def terminal_reachability(net: MIDigraph, faults: FaultSet) -> np.ndarray:
    """The ``(N, N)`` boolean matrix of surviving input→output pairs.

    Input link ``s`` enters cell ``s >> 1`` of stage 1; output link ``d``
    leaves cell ``d >> 1`` of stage ``n``.  A pair survives when both
    terminal cells are alive and a live path joins them.
    """
    idx = np.arange(net.n_inputs) >> 1
    return _mask_pairs(net, fault_masks(net, [faults]))[0][np.ix_(idx, idx)]


def terminal_availability(net: MIDigraph, masks: FaultMasks) -> np.ndarray:
    """``(K,)`` fraction of input→output link pairs surviving each sample.

    One boolean :func:`~repro.routing.paths.backward_sweep` serves all
    K samples of ``masks``.  Each terminal cell carries two links, so a
    row's value is its surviving cell-pair count divided by ``M²``: an
    exact ratio that does not depend on which samples share the call.
    """
    _check_stack(masks)
    pairs = _mask_pairs(net, masks)
    return np.count_nonzero(pairs, axis=(1, 2)) / pairs[0].size


def availability_from_counts(
    net: MIDigraph, counts: Iterable[tuple[int, int, int]]
) -> np.ndarray:
    """Terminal availability of many ``(cells, links, seed)`` counts.

    Row ``i`` equals ``terminal_availability(net, masks_from_counts(...))``
    at count ``i``, without building a mask.  A seed's samples are
    nested, so the counts group by (seed, link count): each seed draws
    its kill ranks once, each group runs one rank-valued
    :func:`~repro.routing.paths.backward_sweep` for its bottleneck
    values, and each cell count of the group is one compare and count
    against them.  Fault-free counts draw nothing.  Negative or
    oversized counts raise :class:`~repro.core.errors.ReproError`.
    """
    counts = list(counts)
    n, size = net.n_stages, net.size
    groups: dict[tuple[int | None, int], list[int]] = {}
    for k, (cells, links, seed) in enumerate(counts):
        _check_counts(n, size, cells, links)
        key = (seed, links) if cells or links else (None, 0)
        groups.setdefault(key, []).append(k)
    severs = {seed for seed, links in groups if links}
    ranks = {
        seed: _kill_ranks(
            np.random.default_rng(seed), n, size, links=seed in severs
        )
        for seed in {seed for seed, _ in groups} - {None}
    }
    spared = np.full((n, size), _SPARED, dtype=np.intp), None
    out = np.empty(len(counts))
    for (seed, links), rows in groups.items():
        cell_rank, link_rank = ranks.get(seed, spared)
        # An arc lives while both it and the switch it leaves do.
        source = np.broadcast_to(cell_rank[:-1, :, None], (n - 1, size, 2))
        link_value = np.where(link_rank >= links, source, -1) if links else source
        value = _first_stage(net, cell_rank[None, -1], link_value[None])[0]
        kills = np.array([counts[k][0] for k in rows])
        alive = np.count_nonzero(value >= kills[:, None, None], axis=(1, 2))
        out[rows] = alive / value.size
    return out


def fault_connectivity(net: MIDigraph, faults: FaultSet) -> float:
    """Fraction of input→output link pairs still connected under faults.

    1.0 for a healthy Banyan network; the degradation curve of this
    number under growing random fault sets is the classical
    fault-tolerance comparison between MIN topologies.  The K = 1 row
    of :func:`terminal_availability`.
    """
    return float(terminal_availability(net, fault_masks(net, [faults]))[0])
