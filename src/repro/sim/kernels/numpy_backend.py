"""The reference NumPy kernel backend: one kernel per contention policy.

Both kernels run a ``(cycles, B, N)`` traffic slab; a single scenario
is a slab with ``B = 1``.  Their semantics are the contract every other
backend is property-tested against — when in doubt about an arbitration
or counting rule, this file is the specification.

Model
-----
Each stage cell is a 2×2 switch with one buffer slot per input link.  A
cycle proceeds back-to-front: last-stage packets eject through out-port
``dst & 1``; stage ``j`` packets move to stage ``j + 1`` through the
fault-aware port tables (or a per-source schedule), landing in the
in-slot given by the compiled child/slot tables; sources then draw from
the traffic schedule into one-deep wait buffers and inject into free
first-stage slots.  Contention is oldest-packet-first (ties to slot 0);
losers are discarded under ``drop`` and held under ``block``.  Ambiguous
port entries (``-2``) resolve adaptively toward the port whose target
slot is free.  Packets with no live port count as ``unroutable``, and so
do draws at a source whose first-stage cell is dead.

``block``: the cycle-major kernel
---------------------------------
Held packets make each cycle depend on the last, so :func:`_run_block`
steps the cycles in order.  Packet state carries a leading batch axis
(stage-major ``(n, B·2M)`` flat slabs) and every phase runs on
packet-compacted 1-d index arrays; the batch index rides inside the
linear packet index, so scenarios never interact, and per-scenario
counters accumulate via ``np.bincount``.  Under ``drain`` each scenario
keeps cycling until its network and wait buffers are empty or its
progress bound ``in_net·(n + 2) + 4n + 16`` is hit.

``drop``: the stage-major kernel
--------------------------------
Under ``drop`` the pipeline keeps no state from one cycle to the next.
Stage ``j + 1`` has emptied (every packet moved, ejected or was
discarded) before stage ``j`` moves, so a target slot is always free:
no move blocks, a ``-2`` port always resolves to port 0, and a wait
buffer injects on the cycle it draws.  A packet injected at cycle ``c``
therefore sits at stage ``j`` at the end of cycle ``c + j``; it contends
only with the other packet of its switch, injected in the same cycle
(so slot 1 loses every tie), and it is delivered exactly ``n`` cycles
after injection or lost.  Rows of the traffic slab never interact, and
:func:`_run_drop` pushes each chunk of rows through the network in
``n`` dense passes instead of ``cycles × n`` steps.  The no-drain
cut-off is a row slice, and the drain length follows from the deepest
stage each scenario's last rows reach.  See :mod:`repro.sim.batch` for
the full narrative.
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernels.results import BatchRun

NAME = "numpy"
AVAILABLE = True


#: Buffer slots (``rows · B · 2M``) per chunk of the ``drop`` kernel.
#: Rows never interact under ``drop``, so chunking is exact; a chunk
#: this size keeps each stage pass's working set cache-resident.
_CHUNK_SLOTS = 1 << 16


def run_batch(
    comp,
    tmats: np.ndarray,
    scheds: np.ndarray | None,
    cycles: int,
    drop: bool,
    drain: bool,
) -> BatchRun:
    """Run a ``(cycles, B, N)`` traffic slab; see module docstring."""
    if drop:
        return _run_drop(comp, tmats, scheds, cycles, drain)
    return _run_block(comp, tmats, scheds, cycles, drain)


def _run_drop(
    comp,
    tmats: np.ndarray,
    scheds: np.ndarray | None,
    cycles: int,
    drain: bool,
) -> BatchRun:
    """The stage-major ``drop`` kernel: ``n`` dense passes per row chunk.

    A chunk's state at one stage is a ``(rows, B, 2M)`` block, row ``r``
    holding the packets injected at cycle ``r`` and each scenario's
    slots laid out parity-major (slot 0 of every cell, then slot 1).
    Stage ``j`` moves row ``r`` in cycle ``r + j + 1``, so without drain
    it steps only rows ``r <= cycles - 2 - j``; the row it leaves
    behind is in flight.
    """
    n, size, n_in = comp.n_stages, comp.size, comp.n_inputs
    B = tmats.shape[1]
    S = 2 * size
    pos = np.arange(S)
    cell = pos % size                 # parity-major slot -> its cell
    nat = 2 * cell + pos // size      # parity-major -> linear slot
    ptabs_f = comp.ptabs.reshape(n - 1, size * size)
    links_f = comp.links.reshape(n - 1, S)
    # Every next-stage slot has exactly one in-arc, so a move is a
    # gather: ``feed[j, i]`` is the out-arc (port-major ``port·M +
    # cell``) that lands in parity-major slot ``i`` of stage ``j + 1``.
    inv = np.argsort(comp.arc_target.reshape(n - 1, S), axis=1)[:, nat]
    feed = (inv & 1) * size + (inv >> 1)
    sched = None
    if scheds is not None:
        # (n, B·N + 1): a packet carries ``b·N + origin`` as its index
        # into its stage's row; the trailing -1 serves empty slots (-1).
        sched = np.full((n, B * n_in + 1), -1, dtype=np.int8)
        sched[:, :-1] = scheds.transpose(1, 0, 2).reshape(n, B * n_in)
        origin0 = np.arange(B)[:, None] * n_in + nat
    alive0 = comp.src_alive[nat]
    all_alive = bool(alive0.all())

    offered = np.zeros(B, dtype=np.int64)
    injected = np.zeros(B, dtype=np.int64)
    delivered = np.zeros(B, dtype=np.int64)
    dropped = np.zeros(B, dtype=np.int64)
    unroutable = np.zeros(B, dtype=np.int64)
    total_hops = np.zeros(B, dtype=np.int64)
    in_flight = np.zeros(B, dtype=np.int64)
    occupancy = np.zeros((n, B), dtype=np.int64)
    # Under drain: the last cycle (``row + stage + 1``) in which each
    # scenario still holds a packet.
    last = np.zeros(B, dtype=np.int64)

    rows = max(1, _CHUNK_SLOTS // (B * S))
    for r0 in range(0, cycles, rows):
        d = tmats[r0 : r0 + rows][..., nat]
        offered += _count_slots(d >= 0).sum(axis=0)
        if not all_alive:
            d = np.where(alive0, d, -1)
        cnt = _count_slots(d >= 0)    # (rows, B) packets per row
        injected += cnt.sum(axis=0)
        occupancy[0] += cnt.sum(axis=0)
        org = None
        if sched is not None:
            org = np.where(d >= 0, origin0, -1)
        for j in range(n):
            top = r0 + d.shape[0]
            if drain:
                lo = max(r0, cycles - 1 - j)
                if lo < top:
                    reach = np.where(
                        cnt[lo - r0 :] > 0,
                        np.arange(lo + j + 1, top + j + 1)[:, None],
                        0,
                    )
                    np.maximum(last, reach.max(axis=0), out=last)
                hi = top
            else:
                hi = min(top, cycles - 1 - j)
                if hi < top:
                    in_flight += cnt[max(hi, r0) - r0 :].sum(axis=0)
            if hi <= r0:
                break
            d, cnt = d[: hi - r0], cnt[: hi - r0]
            d0, d1 = d[..., :size], d[..., size:]
            if j == n - 1:
                # Eject through out-port ``dst & 1``; slot 1 loses a tie.
                # ``(d0 | d1) >= 0``: both slots hold a packet.
                lost = _count_slots(
                    (((d0 ^ d1) & 1) == 0) & ((d0 | d1) >= 0)
                )
                dropped += lost.sum(axis=0)
                delivered += (cnt - lost).sum(axis=0)
                break
            # ``key``: the out-port of each slot, -1 when it is empty or
            # its packet is unroutable.
            if sched is None:
                key = ptabs_f[j][cell * size + (d >> 1)]
                if comp.has_amb[j]:
                    # Stage j+1 is empty whenever stage j moves, so an
                    # ambiguous port always resolves to port 0.
                    key[key == -2] = 0
                key |= (d >> 31).astype(np.int8)
            else:
                org = org[: hi - r0]
                key = sched[j][org]
            if not comp.links_ok[j]:
                key = np.where(links_f[j][2 * cell + (key & 1)], key, -1)
            acnt = cnt
            if comp.has_unreachable[j] or not comp.links_ok[j]:
                acnt = _count_slots(key >= 0)
            # Slot 0 wins a contended port (both packets were born in
            # the same cycle).
            k0, k1 = key[..., :size], key[..., size:]
            to0, to1 = k0 == 0, k0 == 1
            sel = ((to0, (k1 == 0) & ~to0), (to1, (k1 == 1) & ~to1))
            d = _move(d, sel, feed[j])
            if org is not None:
                org = _move(org, sel, feed[j])
            ncnt = _count_slots(d >= 0)
            unroutable += (cnt - acnt).sum(axis=0)
            dropped += (acnt - ncnt).sum(axis=0)
            total_hops += ncnt.sum(axis=0)
            # Rows r <= cycles - 2 - j reach stage j+1 while injecting.
            occupancy[j + 1] += ncnt[: max(0, cycles - 1 - j - r0)].sum(
                axis=0
            )
            cnt = ncnt
    # Dead sources draw but never inject; wait buffers never hold.
    unroutable += offered - injected
    total_hops += delivered
    lat_bounds = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(delivered, out=lat_bounds[1:])
    return BatchRun(
        offered=offered,
        injected=injected,
        delivered=delivered,
        dropped=dropped,
        unroutable=unroutable,
        blocked_moves=np.zeros(B, dtype=np.int64),
        total_hops=total_hops,
        in_flight=in_flight,
        drain_cycles=np.maximum(last - cycles + 1, 0),
        occupancy=occupancy,
        # Every delivered packet crossed one stage per cycle.
        lat_sorted=np.full(int(lat_bounds[-1]), n, dtype=np.int32),
        lat_bounds=lat_bounds,
    )


def _count_slots(mask: np.ndarray) -> np.ndarray:
    """``(rows, B)`` count of the True slots of a ``(rows, B, k)`` mask."""
    return mask.view(np.int8).sum(axis=2, dtype=np.int64)


def _move(v: np.ndarray, sel, feed: np.ndarray) -> np.ndarray:
    """Next-stage block of the per-slot values ``v`` (-1 when empty).

    ``sel[q]`` holds the masks of the slot-0 and slot-1 packets leaving
    each cell through port ``q``.  The out-arc contents are built
    port-major without branches (values shifted by one so that 0 is
    empty) and gathered through ``feed``.
    """
    e = v + 1
    e0, e1 = e[..., : v.shape[-1] // 2], e[..., v.shape[-1] // 2 :]
    arcs = np.concatenate([e0 * a + e1 * b for a, b in sel], axis=2)
    arcs -= 1
    return arcs[..., feed]


def _run_block(
    comp,
    tmats: np.ndarray,
    scheds: np.ndarray | None,
    cycles: int,
    drain: bool,
) -> BatchRun:
    """The cycle-major ``block`` kernel: eject, move, inject per cycle."""
    n, size, n_in = comp.n_stages, comp.size, comp.n_inputs
    B = tmats.shape[1]
    S = 2 * size              # buffer slots per stage per scenario
    shift = S.bit_length() - 1    # idx >> shift == scenario index

    sched = None
    if scheds is not None:
        # (n, B·N) — stage-major so each stage gather reads one flat row.
        sched = np.ascontiguousarray(
            scheds.transpose(1, 0, 2)
        ).reshape(n, B * n_in)

    has_amb = comp.has_amb
    has_unreachable, links_ok = comp.has_unreachable, comp.links_ok
    # Flat lookup tables: 1-d gathers with computed indices beat
    # multi-array fancy indexing by ~3x on the packet-sized hot arrays.
    ptabs_f = comp.ptabs.reshape(n - 1, size * size)
    arc_f = comp.arc_target.reshape(n - 1, S)
    links_f = comp.links.reshape(n - 1, S)
    mshift = size.bit_length() - 1    # cell -> port-table row offset
    src_alive_f = np.tile(comp.src_alive, B)
    src_dead_f = ~src_alive_f
    all_alive = bool(comp.src_alive.all())

    # Packet state: per-stage flat slabs, linear index b·S + 2·cell + slot.
    dst = np.full((n, B * S), -1, dtype=np.int32)
    birth = np.zeros((n, B * S), dtype=np.int32)
    origin = np.zeros((n, B * S), dtype=np.int32)
    # The first stage's slot s of scenario b IS input link s — wait
    # buffers share the linear indexing (n_in == S).
    wait_dst = np.full((B, n_in), -1, dtype=np.int32)
    wait_birth = np.zeros((B, n_in), dtype=np.int32)
    wait_dst_f = wait_dst.reshape(-1)
    wait_birth_f = wait_birth.reshape(-1)

    offered = np.zeros(B, dtype=np.int64)
    injected = np.zeros(B, dtype=np.int64)
    delivered = np.zeros(B, dtype=np.int64)
    unroutable = np.zeros(B, dtype=np.int64)
    blocked_moves = np.zeros(B, dtype=np.int64)
    total_hops = np.zeros(B, dtype=np.int64)
    occupancy = np.zeros((n, B), dtype=np.int64)
    lat_idx: list[np.ndarray] = []
    lat_val: list[np.ndarray] = []

    def _count(pb: np.ndarray) -> np.ndarray:
        return np.bincount(pb, minlength=B)

    def _occupied(j: int, act: np.ndarray | None) -> np.ndarray:
        """Sorted linear indices of (active) packets at stage ``j``."""
        pidx = np.flatnonzero(dst[j] >= 0)
        if act is not None and pidx.size:
            pidx = pidx[act[pidx >> shift]]
        return pidx

    def _pair_losers(
        pidx: np.ndarray, port: np.ndarray, b1: np.ndarray
    ) -> np.ndarray:
        """Positions (into ``pidx``) of contention losers.

        Two packets contend when they sit in the two slots of one switch
        (adjacent linear indices ``2k, 2k+1`` — adjacent entries of the
        sorted ``pidx``) and want the same out-port; the younger loses,
        ties to slot 0's packet winning.
        """
        adj = np.flatnonzero(
            ((pidx[:-1] ^ 1) == pidx[1:]) & (port[:-1] == port[1:])
        )
        if not adj.size:
            return adj
        lose_lo = b1[pidx[adj + 1]] < b1[pidx[adj]]
        return np.where(lose_lo, adj, adj + 1)

    def _eject(now: int, act: np.ndarray | None) -> None:
        d1 = dst[n - 1]
        pidx = _occupied(n - 1, act)
        if not pidx.size:
            return
        b1 = birth[n - 1]
        port = d1[pidx] & 1
        loser = _pair_losers(pidx, port, b1)
        if loser.size:
            blocked_moves[:] += _count(pidx[loser] >> shift)
            keep = np.ones(pidx.size, dtype=bool)
            keep[loser] = False
            pidx = pidx[keep]
        lat_idx.append(pidx >> shift)
        lat_val.append(now - b1[pidx])
        won = _count(pidx >> shift)
        delivered[:] += won
        total_hops[:] += won
        d1[pidx] = -1

    def _move(j: int, act: np.ndarray | None) -> None:
        d1 = dst[j]
        pidx = _occupied(j, act)
        if not pidx.size:
            return
        b1 = birth[j]
        inslot = pidx & np.int64(S - 1)  # 2·cell + slot within the slab
        pd = d1[pidx]
        if sched is None:
            port = ptabs_f[j][((inslot >> 1) << mshift) | (pd >> 1)]
            if has_amb[j]:
                amb = port == -2
                if amb.any():
                    t0 = (pidx - inslot) + arc_f[j][inslot & ~1]
                    port = np.where(
                        amb,
                        np.where(dst[j + 1][t0] < 0, 0, 1).astype(np.int8),
                        port,
                    )
        else:
            port = sched[j][(pidx - inslot) + origin[j][pidx]]
        if has_unreachable[j] or not links_ok[j]:
            alive = port >= 0
            if not links_ok[j]:
                alive &= links_f[j][
                    (inslot & ~1) | np.where(port >= 0, port, 0)
                ]
            dead = ~alive
            if dead.any():
                didx = pidx[dead]
                d1[didx] = -1
                unroutable[:] += _count(didx >> shift)
                pidx, pd, port = pidx[alive], pd[alive], port[alive]
                if not pidx.size:
                    return
                inslot = pidx & np.int64(S - 1)
        loser = _pair_losers(pidx, port, b1)
        if loser.size:
            blocked_moves[:] += _count(pidx[loser] >> shift)
            keep = np.ones(pidx.size, dtype=bool)
            keep[loser] = False
            pidx, pd, port = pidx[keep], pd[keep], port[keep]
            inslot = pidx & np.int64(S - 1)
        target = (pidx - inslot) + arc_f[j][(inslot & ~1) | port]
        d1n = dst[j + 1]
        free = d1n[target] < 0
        if not free.all():
            blocked_moves[:] += _count(pidx[~free] >> shift)
            pidx, pd, target = pidx[free], pd[free], target[free]
        d1n[target] = pd
        birth[j + 1][target] = b1[pidx]
        origin[j + 1][target] = origin[j][pidx]
        d1[pidx] = -1
        total_hops[:] += _count(pidx >> shift)

    def _inject(
        now: int, row: np.ndarray | None, act: np.ndarray | None
    ) -> None:
        if row is not None:
            rowf = row.reshape(-1)
            draws = (wait_dst_f < 0) & (rowf >= 0)
            offered[:] += draws.reshape(B, n_in).sum(axis=1)
            if not all_alive:
                dead = draws & src_dead_f
                if dead.any():
                    unroutable[:] += dead.reshape(B, n_in).sum(axis=1)
                    draws &= src_alive_f
            wait_dst_f[draws] = rowf[draws]
            wait_birth_f[draws] = now
        ridx = np.flatnonzero((wait_dst_f >= 0) & (dst[0] < 0))
        if act is not None and ridx.size:
            ridx = ridx[act[ridx >> shift]]
        if not ridx.size:
            return
        dst[0][ridx] = wait_dst_f[ridx]
        birth[0][ridx] = wait_birth_f[ridx]
        origin[0][ridx] = ridx & np.int64(S - 1)
        wait_dst_f[ridx] = -1
        injected[:] += _count(ridx >> shift)

    occ_buf = np.empty((n, B * S), dtype=bool)
    for cycle in range(cycles):
        _eject(cycle, None)
        for j in range(n - 2, -1, -1):
            _move(j, None)
        _inject(cycle, tmats[cycle], None)
        np.greater_equal(dst, 0, out=occ_buf)
        occupancy += occ_buf.reshape(n, B, S).sum(axis=2)

    drain_cycles = np.zeros(B, dtype=np.int64)
    if drain:
        def _in_net() -> np.ndarray:
            return (
                (dst >= 0).reshape(n, B, S).sum(axis=(0, 2))
                + (wait_dst >= 0).sum(axis=1)
            )

        limit = _in_net() * (n + 2) + 4 * n + 16
        cycle = cycles
        act = (_in_net() > 0) & (drain_cycles < limit)
        while act.any():
            _eject(cycle, act)
            for j in range(n - 2, -1, -1):
                _move(j, act)
            _inject(cycle, None, act)
            drain_cycles[act] += 1
            cycle += 1
            act = (_in_net() > 0) & (drain_cycles < limit)

    in_flight = (
        (dst >= 0).reshape(n, B, S).sum(axis=(0, 2))
        + (wait_dst >= 0).sum(axis=1)
    )
    all_idx = np.concatenate(lat_idx) if lat_idx else np.empty(0, np.int64)
    all_val = np.concatenate(lat_val) if lat_val else np.empty(0, np.int32)
    # One stable partition by scenario instead of B full-array scans;
    # stability keeps each scenario's delivery order (hence its latency
    # statistics) independent of the other scenarios in the slab.
    order = np.argsort(all_idx, kind="stable")
    return BatchRun(
        offered=offered,
        injected=injected,
        delivered=delivered,
        dropped=np.zeros(B, dtype=np.int64),
        unroutable=unroutable,
        blocked_moves=blocked_moves,
        total_hops=total_hops,
        in_flight=in_flight,
        drain_cycles=drain_cycles,
        occupancy=occupancy,
        lat_sorted=all_val[order],
        lat_bounds=np.searchsorted(all_idx[order], np.arange(B + 1)),
    )
