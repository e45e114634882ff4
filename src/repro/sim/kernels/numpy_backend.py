"""The reference NumPy kernel backend: one kernel per contention policy.

Both kernels run a ``(cycles, B, N)`` traffic slab; a single scenario
is a slab with ``B = 1``.  Their semantics are the contract every other
backend is property-tested against — when in doubt about an arbitration
or counting rule, this file is the specification.

A slab may mix K fault samples of one topology, compiled into one
:class:`~repro.sim.compiled.CompiledNetwork` whose port tables and
source masks have a leading ``K`` axis.  Each kernel reads them at
every scenario's sample offset, so K = 1 runs the same code.  Neither
kernel reads a link mask: a port table never names a dead link, and a
port schedule's route words already end at one.  ``block`` reads the
port tables flat and the compiled value's per-gap ``-2`` flags, which
hold for the whole slab (the resolution runs if any sample needs it,
and changes nothing on a sample that does not); a port-scheduled
packet carries its route word instead.  ``drop`` reads no port table:
it reads each packet's whole route once, from the compiled value's
route words.

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
port entries (``-2``) take port 0 when its target slot is free, else port
1 (so always port 0 under ``drop``, see below).  Packets with no live
port count as ``unroutable``, and so do draws at a source whose
first-stage cell is dead.

``block``: the stage-parallel kernel
------------------------------------
Held packets make each cycle depend on the last, so :func:`_run_block`
steps the cycles in order, but not the stages.  A cycle runs back to
front, and only stage ``j - 1`` moves into stage ``j``, after stage
``j`` has moved: when stage ``j`` moves in cycle ``c`` it still holds
exactly what it held at the end of cycle ``c - 1``.  So the port
lookups, the unroutable filter and the oldest-first contention of
every stage read only that old state, and one whole-slab pass over
``(n, B, 2M)`` arrays computes them for all stages at once.
Only back-pressure is sequential.  A contention winner moves iff its
target slot was empty or is vacated in this cycle (its packet moved,
ejected or was unroutable), which is a chain of ``n`` boolean gathers
from the last stage back to the wait buffers; a stage with ambiguous
``-2`` ports resolves them inside the chain, once its next stage's
free slots are known.  Every move then applies as one gather/scatter.
Under ``drain`` each cycle moves some packet of a non-empty scenario
closer to ejection (the deepest occupied stage always advances), so a
scenario empties within ``(n + 1)`` cycles per packet it held, inside
the progress bound ``in_net·(n + 2) + 4n + 16`` of the scalar loop.

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
stage each scenario's last rows reach.

Nothing a packet meets on its way changes its route either: with no
waiting and ``-2`` always port 0, its port at every stage is a pure
function of its fault sample, first-stage cell and destination (under
a port schedule: its scenario, source and eject port).  So the state is
one *route word* per slot, gathered once at injection from
:meth:`~repro.sim.compiled.CompiledNetwork.route_words`: 2 bits per
stage, field ``j`` the out-port + 1 at stage ``j`` or 0 where the
packet is unroutable, the last field the eject port + 1.  A word of 0
is an empty slot.  Stage ``j`` masks field ``j`` in place,
arbitrates, and moves the words on: no port table or ``-2`` flag is
read after injection, and the exact per-gap "some packet can be
unroutable here" flags that come with the words say where the
unroutable count has to run.  A word is the narrowest unsigned integer
of ``2n`` bits (``uint16`` up to 8 stages), so every elementwise pass
touches as few bytes as the route needs.  ``block`` moves the same
words with its port-scheduled packets.

The ``drop`` state is slot-major: a chunk at one stage is a ``(2M,
rows, B)`` block, parity-major along the slot axis.  Each inter-stage
connection is a fixed permutation of links, so a stage move is one
gather of whole contiguous ``(rows, B)`` rows (``take(feed, axis=0)``)
rather than a fancy gather on the innermost axis, the two packets of a
cell are the contiguous halves ``w[:M]`` and ``w[M:]``, and the
per-row slot counts add whole rows too.  The traffic slab keeps its
``(cycles, B, N)`` layout; each chunk is transposed as it is injected.
See :mod:`repro.sim.batch` for the full narrative.
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernels.results import BatchRun

NAME = "numpy"
AVAILABLE = True


#: Buffer slots (``2M · rows · B``) per chunk of the ``drop`` kernel.
#: Rows never interact under ``drop``, so chunking is exact; a chunk
#: this size keeps each stage pass's working set cache-resident.
_CHUNK_SLOTS = 1 << 16


def run_batch(
    comp,
    sample: np.ndarray,
    tmats: np.ndarray,
    scheds: np.ndarray | None,
    cycles: int,
    drop: bool,
    drain: bool,
) -> BatchRun:
    """Run a ``(cycles, B, N)`` traffic slab; see module docstring.

    Scenario ``b`` runs on row ``sample[b]`` of ``comp``'s per-sample
    tables, its fault sample's.
    """
    sample = np.asarray(sample, dtype=np.intp)
    if drop:
        return _run_drop(comp, sample, tmats, scheds, cycles, drain)
    return _run_block(comp, sample, tmats, scheds, cycles, drain)


def _run_drop(
    comp,
    sample: np.ndarray,
    tmats: np.ndarray,
    scheds: np.ndarray | None,
    cycles: int,
    drain: bool,
) -> BatchRun:
    """The stage-major ``drop`` kernel: ``n`` dense passes per row chunk.

    A chunk's state at one stage is a slot-major ``(2M, rows, B)`` block
    of route words (0 when empty): row ``r`` holds the packets injected
    at cycle ``r``, and the slot axis comes first, parity-major (slot 0
    of every cell, then slot 1), so the two packets of a cell sit in the
    contiguous halves ``w[:M]`` and ``w[M:]`` and a stage move copies
    whole ``(rows, B)`` rows.  Stage ``j`` moves row ``r`` in cycle ``r
    + j + 1``, so without drain it steps only rows ``r <= cycles - 2 -
    j``; the row it leaves behind is in flight.
    """
    n, size, n_in = comp.n_stages, comp.size, comp.n_inputs
    B = tmats.shape[1]
    S, L = 2 * size, n - 1
    pos = np.arange(S)
    cell = pos % size                 # parity-major slot -> its cell
    nat = 2 * cell + pos // size      # parity-major -> linear slot
    # Every next-stage slot has exactly one in-arc, so a move is a
    # gather: ``feed[j, i]`` is the out-arc (port-major ``port·M +
    # cell``) that lands in parity-major slot ``i`` of stage ``j + 1``.
    inv = np.empty((n - 1, S), dtype=np.intp)
    np.put_along_axis(inv, comp.arc_target.reshape(n - 1, S), pos, axis=1)
    inv = inv[:, nat]
    feed = (inv & 1) * size + (inv >> 1)
    # A packet's whole route is one word (see ``route_words``), read
    # once at injection: a gather at its sample, cell and ``dst + 1``,
    # or, under a port schedule, its scenario, source and eject port.
    if scheds is None:
        words, unroutable_at = comp.route_words()
        words = words.reshape(-1)
        wbase = ((sample * size + cell[:, None]) * (n_in + 1) + 1)[:, None]

        def inject(d: np.ndarray) -> np.ndarray:
            return words[wbase + d]
    else:
        sw, unroutable_at = comp.scheduled_words(sample, scheds)
        sw0, sw1 = sw[..., nat].transpose(0, 2, 1)[:, :, None]

        def inject(d: np.ndarray) -> np.ndarray:
            return np.where(d >= 0, np.where(d & 1, sw1, sw0), 0)

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
        # The chunk's draws, slot-major: one transpose per chunk keeps
        # the traffic slab's layout and the working set small.
        d = tmats[r0 : r0 + rows].transpose(2, 0, 1).take(nat, axis=0)
        offered += _count_slots(d >= 0).sum(axis=0)
        # A dead source's words are 0: it draws but never injects.
        w = inject(d)
        cnt = _count_slots(w != 0)    # (rows, B) packets per row
        injected += cnt.sum(axis=0)
        occupancy[0] += cnt.sum(axis=0)
        for j in range(n):
            top = r0 + w.shape[1]
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
            w, cnt = w[:, : hi - r0], cnt[: hi - r0]
            # ``key``: field ``j`` of each slot's word, left in place:
            # ``one``/``two`` for out-port 0/1 at stage ``j``, 0 when the
            # slot is empty or the packet unroutable.
            one, two = 1 << 2 * j, 2 << 2 * j
            key = w & (one | two)
            k0, k1 = key[:size], key[size:]
            if j == L:
                # Eject; slot 1 loses a tie.  ``k0 == k1 != 0``: both
                # slots hold a packet for one port.
                lost = _count_slots((k0 == k1) & (k0 != 0))
                dropped += lost.sum(axis=0)
                delivered += (cnt - lost).sum(axis=0)
                break
            acnt = _count_slots(key != 0) if unroutable_at[j] else cnt
            # Slot 0 wins a contended port (both packets were born in
            # the same cycle).
            to0, to1 = k0 == one, k0 == two
            sel = ((to0, (k1 == one) & ~to0), (to1, (k1 == two) & ~to1))
            w = _move(w, sel, feed[j])
            ncnt = _count_slots(w != 0)
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
    # Every delivered packet crossed one stage per cycle: column n.
    lat_counts = np.zeros((B, n + 1 if delivered.any() else 0), np.int64)
    lat_counts[:, n:] = delivered[:, None]
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
        lat_counts=lat_counts,
    )


def _count_slots(mask: np.ndarray) -> np.ndarray:
    """``(rows, B)`` count of the True slots of a ``(k, rows, B)`` mask.

    The slot axis comes first, so the reduction adds whole contiguous
    rows.  The accumulator is the narrowest that cannot wrap: ``int16``
    while ``k < 2**15``, else ``int64``.
    """
    acc = np.int16 if mask.shape[0] < 1 << 15 else np.int64
    return mask.view(np.int8).sum(axis=0, dtype=acc)


def _move(w: np.ndarray, sel, feed: np.ndarray) -> np.ndarray:
    """Next-stage block of the slot-major route words ``w`` (0 when empty).

    ``sel[q]`` holds the masks of the slot-0 and slot-1 packets leaving
    each cell through port ``q``.  The out-arc contents are built
    port-major without branches, one ``(rows, B)`` row per arc; every
    next-stage slot has exactly one in-arc, so the move is a gather of
    whole rows through ``feed``.
    """
    w0, w1 = w[: w.shape[0] // 2], w[w.shape[0] // 2 :]
    arcs = np.concatenate([w0 * a + w1 * b for a, b in sel])
    return arcs.take(feed, axis=0)


def _run_block(
    comp,
    sample: np.ndarray,
    tmats: np.ndarray,
    scheds: np.ndarray | None,
    cycles: int,
    drain: bool,
) -> BatchRun:
    """The stage-parallel ``block`` kernel: one whole-slab pass per cycle.

    State is ``(n + 1, B, 2M)``.  Row ``j + 1`` is stage ``j``, each
    scenario's slots parity-major (slot 0 of every cell, then slot 1);
    row 0 is the wait buffers in input order, a column of straight
    switches whose slot ``i`` leaves on port ``i // M`` into input link
    ``i``.  ``key`` is each slot's out-port (-1 once it is empty,
    unroutable or beaten), ``tgt`` the flat index its packet would move
    to, and ``free`` the slots that are empty or vacate this cycle.
    Under a port schedule each packet also carries its route word
    (``word``, see :meth:`~repro.sim.compiled.CompiledNetwork.scheduled_words`),
    and a stage row's key is the word's field less one, so a dead link
    on the schedule reads -1 like a ``-1`` port-table entry.
    """
    n, size, n_in = comp.n_stages, comp.size, comp.n_inputs
    B, K = tmats.shape[1], len(comp.ptabs)
    S, L = 2 * size, n - 1
    pos = np.arange(S)
    cell, par = pos % size, pos // size
    row = np.arange(n)[:, None, None]         # the rows that move
    scen = np.arange(B)[:, None]
    # Port table, read at ``kbase + (dst >> kshift)``; each row starts
    # with -1 for an empty slot (dst = -1).  The wait rows give a packet
    # its slot's parity, row ``(k, j, cell)`` of sample ``k``'s stage
    # ``j`` the fault-aware port by ``dst >> 1`` (never a dead link,
    # ``-2`` resolved in the chain), and the eject row ``dst & 1``.
    span, stage0 = n_in + 1, 2 * (n_in + 1)
    block = L * size * (size + 1)                 # one sample's stage rows
    eject0 = stage0 + K * block
    tab = np.full(eject0 + span, -1, dtype=np.int8)
    tab[1:span], tab[span + 1 : stage0] = 0, 1
    tab[stage0:eject0].reshape(K, L, size, size + 1)[..., 1:] = comp.ptabs
    tab[eject0 + 1 :] = np.arange(n_in) & 1
    kbase = np.empty((n + 1, B, S), dtype=np.intp)
    kbase[0] = par * span + 1
    kbase[1:n] = (
        stage0 + (row[:L] * size + cell) * (size + 1) + 1
        + block * sample[:, None]
    )
    kbase[n] = eject0 + 1
    kshift = np.array([0] + [1] * L + [0], dtype=np.int32)[:, None, None]
    # Out-arc targets as flat state indices, ``[void, port 0, port 1]``
    # per cell.  ``void`` lies past the state and is never free, so a
    # slot whose key is -1 never moves.
    void = (n + 1) * B * S
    t = comp.arc_target
    tpos = np.empty((n, size, 2), dtype=np.intp)
    tpos[0] = ((pos & 1) * size + (pos >> 1)).reshape(2, size).T
    tpos[1:] = (t & 1) * size + (t >> 1)
    arcs = np.full((n, B, size, 3), void, dtype=np.intp)
    arcs[..., 1:] = tpos[:, None] + S * ((row[..., None] + 1) * B + scen[..., None])
    abase = ((row * B + scen) * size + cell) * 3 + 1
    # Dead sources draw, but their wait buffers never fill.
    alive = comp.src_alive[sample]                             # (B, N)
    live = None if alive.all() else alive
    dead = np.zeros(B, dtype=np.int64)
    if live is not None:
        dead = ((tmats >= 0) & ~live).sum(axis=(0, 2))

    shape = (n + 1, B, S)
    dst = np.full(shape, -1, dtype=np.int32)
    birth = np.zeros(shape, np.int32)
    dst_f, birth_f = dst.reshape(-1), birth.reshape(-1)
    sched = scheds is not None
    if sched:
        # A scheduled packet carries its route word (see
        # ``scheduled_words``), drawn with it by ``dst & 1``: stage row
        # ``j + 1`` reads field ``j``, its port + 1 or 0 past a dead link.
        (sw0, sw1), _ = comp.scheduled_words(sample, scheds)
        word = np.zeros(shape, sw0.dtype)
        word_f, field = word.reshape(-1), np.empty((L, B, S), sw0.dtype)
        wshift = (2 * row[:L]).astype(sw0.dtype)
    free_buf = np.zeros(void + 1, dtype=bool)
    free = free_buf[:void].reshape(shape)
    occ, unrout = np.zeros(shape, bool), np.zeros(shape, bool)
    mv, ej = np.empty((n, B, S), bool), np.empty((B, S), bool)
    key_i, key = np.empty(shape, np.intp), np.empty(shape, np.int8)
    neg, tgt = np.empty(shape, np.int8), np.empty((n, B, S), np.intp)
    # Per-slot sums over cycles of the occupied and unroutable masks.
    occ_acc, lost_acc = np.zeros(shape, np.int32), np.zeros(shape, np.int32)
    arbitrate = _arbiter(key, birth)
    # Stage rows with ``-2`` ports: each slot's port-0 target, arbiter.
    amb = {} if sched else {
        j + 1: (arcs.take(abase[j + 1]), _arbiter(key[j + 1], birth[j + 1]))
        for j in range(L) if comp.has_amb[j]
    }
    chain = [(r, tgt[r], mv[r], free[r]) for r in range(n - 1, -1, -1)]
    lat_f, lat_b = [], []     # per cycle: ejected slots, their births

    def _route(r: int, port0: np.ndarray, arbitrate_r) -> None:
        """Route stage row ``r`` again once ``free[r + 1]`` is final."""
        k = key[r]
        tab.take(key_i[r], out=k, mode="clip")
        np.putmask(k, k == -2, (~free_buf[port0]).view(np.int8))
        np.less(k, 0, out=free[r])
        np.logical_and(free[r], occ[r], out=unrout[r])
        arbitrate_r()
        arcs.take(abase[r] + k, out=tgt[r], mode="clip")

    def _cycle(now: int, trow: np.ndarray | None) -> None:
        if trow is not None:        # sources draw into empty wait slots
            empty = ~occ[0] if live is None else live & ~occ[0]
            # Any integer slab dtype: values lie in [-1, N).
            np.copyto(dst[0], trow, casting="same_kind", where=empty)
            np.putmask(birth[0], empty, now)
            if sched:
                np.putmask(word[0], empty, np.where(trow & 1, sw1, sw0))
        np.right_shift(dst, kshift, out=key_i)
        np.add(key_i, kbase, out=key_i)
        tab.take(key_i, out=key, mode="clip")
        if sched:
            np.right_shift(word[1:n], wshift, out=field)
            np.bitwise_and(field, 3, out=field)
            np.subtract(field, 1, out=key[1:n], casting="unsafe")
            np.putmask(key[1:n], ~occ[1:n], -1)
        np.less(key, 0, out=free)
        np.logical_and(free, occ, out=unrout)
        arbitrate()
        np.greater_equal(key[n], 0, out=ej)
        free[n] |= ej
        arcs.take(abase + key[:n], out=tgt, mode="clip")
        # Back-pressure, back to front: a packet moves iff its target
        # slot was empty or vacates in this cycle.
        for r, tgt_r, mv_r, free_r in chain:
            if r in amb:
                _route(r, *amb[r])
            free_buf.take(tgt_r, out=mv_r, mode="clip")
            free_r |= mv_r
        np.add(lost_acc, unrout, out=lost_acc)
        out = ej.reshape(-1).nonzero()[0]
        lat_f.append(out)
        lat_b.append(birth[n].reshape(-1)[out])
        src = mv.reshape(-1).nonzero()[0]
        to, moving = tgt.reshape(-1)[src], dst_f[src]
        np.negative(free.view(np.int8), out=neg)
        np.bitwise_or(dst, neg, out=dst)        # empty every free slot
        dst_f[to] = moving
        birth_f[to] = birth_f[src]
        if sched:
            word_f[to] = word_f[src]
        np.greater_equal(dst, 0, out=occ)
        np.add(occ_acc, occ, out=occ_acc)

    for cycle in range(cycles):
        _cycle(cycle, tmats[cycle])
    occupancy = occ_acc[1:].sum(axis=2, dtype=np.int64)
    drain_cycles = np.zeros(B, dtype=np.int64)
    now, bound = cycles, cycles + (n + 1) * int(occ.sum())
    while drain and (busy := occ.any(axis=(0, 2))).any():
        if now > bound:     # see the drain argument in the module notes
            raise RuntimeError("block drain failed to empty the network")
        _cycle(now, None)
        drain_cycles += busy
        now += 1

    # Each ejected packet's scenario and age, counted as one table.
    age = np.repeat(np.arange(now), [f.size for f in lat_f])
    age -= np.concatenate(lat_b)
    T = int(age.max()) + 1 if age.size else 0
    flat = np.concatenate(lat_f) // S * T + age
    lat_counts = np.bincount(flat, minlength=B * T).reshape(B, T)
    delivered = lat_counts.sum(axis=1)
    # The other counters follow from conservation.  An injected packet
    # is delivered, unroutable or still inside; one at stage k made k
    # hops; a packet held at the start of a cycle moves, ejects, is
    # unroutable or is blocked in it.
    inside = occ[1:].sum(axis=2)
    lost = lost_acc[1:].sum(axis=2)
    waiting = occ[0].sum(axis=1)
    unroutable = lost.sum(axis=0)
    injected = delivered + unroutable + inside.sum(axis=0)
    total_hops = n * delivered + (np.arange(n)[:, None] * (inside + lost)).sum(0)
    held = occ_acc[1:].sum(axis=(0, 2), dtype=np.int64) - inside.sum(axis=0)
    return BatchRun(
        offered=injected + dead + waiting,
        injected=injected,
        delivered=delivered,
        dropped=np.zeros(B, dtype=np.int64),
        unroutable=unroutable + dead,
        blocked_moves=held - total_hops - unroutable,
        total_hops=total_hops,
        in_flight=inside.sum(axis=0) + waiting,
        drain_cycles=drain_cycles,
        occupancy=occupancy,
        lat_counts=lat_counts,
    )


def _arbiter(key: np.ndarray, birth: np.ndarray):
    """A closure that sets the key of every contention loser to -1.

    The two packets of a switch sit in the parity-major halves of the
    last axis.  They contend when they want one port; the younger loses,
    and a tie goes to slot 0.
    """
    half = key.shape[-1] // 2
    k0, k1 = key.reshape(-1, 2, half).transpose(1, 0, 2)
    b0, b1 = birth.reshape(-1, 2, half).transpose(1, 0, 2)
    lose = np.empty((2, *k0.shape), dtype=bool)
    tie, routed = np.empty_like(lose[0]), np.empty_like(lose[0])
    lose8 = lose.view(np.int8).transpose(1, 0, 2)
    neg = np.empty(k0.shape[:1] + (2, half), dtype=np.int8)
    keys = key.reshape(neg.shape)

    def arbitrate() -> None:
        np.equal(k0, k1, out=tie)
        np.greater_equal(k0, 0, out=routed)
        np.logical_and(tie, routed, out=tie)
        np.less(b1, b0, out=lose[0])
        np.logical_and(lose[0], tie, out=lose[0])
        np.greater(tie, lose[0], out=lose[1])       # tie and not lose[0]
        np.negative(lose8, out=neg)
        np.bitwise_or(keys, neg, out=keys)

    return arbitrate
