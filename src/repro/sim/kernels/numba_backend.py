"""The fused JIT kernel backend (optional ``numba`` dependency).

One nopython function, :func:`_fused_cycle_loop`, runs a scenario's
entire simulation — inject, per-stage move with contention, ambiguity
and fault handling, eject, drain — as scalar loops directly over the
:class:`~repro.sim.compiled.CompiledNetwork`'s frozen int32/int8 tables.
Where the NumPy backend pays dozens of array-dispatch round trips per
cycle, the fused loop pays none, which is the whole speedup: the
arithmetic was never the bottleneck.

The loop body is a scalar transliteration of the NumPy reference
kernels' semantics, so the counters, the per-scenario latency counts
(packets delivered per age, and hence the summary statistics) and the
drain-cycle counts are **bit-identical** — the property the
cross-backend test suite pins.  Sequential per-cell
processing is safe because every out-arc targets a unique next-stage
buffer slot: no write of one cell's move can be observed by another
cell's free-slot or ambiguity probe within the same stage step.

Batches run the same fused loop once per scenario — scenarios never
interact, so a B-way slab is B independent fused runs whose latency
count vectors, zero-padded to one length, are the rows of the batched
NumPy kernels' table.  Per-run Python overhead is one call per
*scenario*, not per cycle.

The module is importable (and its loop callable, as plain slow Python)
without numba installed: ``AVAILABLE`` reports whether the JIT is
usable, the selection layer only routes here when it is, and the test
suite runs the undecorated loop against the NumPy backend so the fused
semantics stay verified even on numba-free installations.  JIT
compilation is lazy (first use) and can be pre-paid with
:func:`repro.sim.kernels.warm_jit`.
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernels.results import BatchRun

NAME = "numba"

try:
    import numba

    AVAILABLE = True
except ImportError:  # pragma: no cover - exercised on numba-free installs
    numba = None
    AVAILABLE = False

# Placeholder schedule passed when no port schedule is in play; keeps the
# jitted signature monomorphic (always an int8 2-d array + a use flag).
_NO_SCHED = np.zeros((1, 1), dtype=np.int8)

# Initial length of the fused loop's latency count vector; it doubles
# (at least) whenever a packet arrives older than it can count.
_LAT_SLOTS = 32


def _fused_cycle_loop(
    cycles,
    drop,
    drain,
    n,
    size,
    n_in,
    ptabs,
    links,
    child,
    slots,
    src_alive,
    tmat,
    sched,
    use_sched,
):
    """The fused single-scenario cycle loop (nopython-compatible).

    Returns ``(offered, injected, delivered, dropped, unroutable,
    blocked_moves, total_hops, in_flight, drain_cycles, occupancy,
    lat_counts)`` with the exact semantics of the NumPy reference kernel;
    ``lat_counts[t]`` packets were delivered ``t`` cycles after birth,
    and the vector ends at the longest latency (empty when none).
    """
    L = n - 1
    dst = np.full((n, size, 2), -1, np.int32)
    birth = np.zeros((n, size, 2), np.int32)
    origin = np.zeros((n, size, 2), np.int32)
    wait_dst = np.full(n_in, -1, np.int32)
    wait_birth = np.zeros(n_in, np.int32)
    occupancy = np.zeros(n, np.int64)
    lat = np.zeros(_LAT_SLOTS, np.int64)     # packets delivered per age

    offered = 0
    injected = 0
    delivered = 0
    dropped = 0
    unroutable = 0
    blocked_moves = 0
    total_hops = 0
    drain_cycles = 0
    limit = -1

    cycle = 0
    while True:
        injecting = cycle < cycles
        if not injecting:
            if not drain:
                break
            in_net = 0
            for j in range(n):
                for x in range(size):
                    if dst[j, x, 0] >= 0:
                        in_net += 1
                    if dst[j, x, 1] >= 0:
                        in_net += 1
            for s in range(n_in):
                if wait_dst[s] >= 0:
                    in_net += 1
            if limit < 0:
                # The same progress bound the reference kernel computes
                # from the population at the moment injection stops.
                limit = in_net * (n + 2) + 4 * n + 16
            if in_net == 0 or drain_cycles >= limit:
                break

        # -- eject (last stage): out-port is dst & 1, oldest wins ----------
        for x in range(size):
            d0 = dst[L, x, 0]
            d1 = dst[L, x, 1]
            e0 = d0 >= 0
            e1 = d1 >= 0
            if e0 and e1 and (d0 & 1) == (d1 & 1):
                if birth[L, x, 1] < birth[L, x, 0]:
                    e0 = False
                    lose = 0
                else:
                    e1 = False
                    lose = 1
                if drop:
                    dst[L, x, lose] = -1
                    dropped += 1
                else:
                    blocked_moves += 1
            for s in range(2):
                if e1 if s else e0:
                    age = cycle - birth[L, x, s]
                    if age >= lat.size:
                        grown = np.zeros(max(2 * lat.size, age + 1), np.int64)
                        grown[: lat.size] = lat
                        lat = grown
                    lat[age] += 1
                    delivered += 1
                    total_hops += 1
                    dst[L, x, s] = -1

        # -- moves, back to front ------------------------------------------
        for j in range(n - 2, -1, -1):
            for x in range(size):
                d0 = dst[j, x, 0]
                d1 = dst[j, x, 1]
                if d0 < 0 and d1 < 0:
                    continue
                p0 = -1
                p1 = -1
                if use_sched:
                    if d0 >= 0:
                        p0 = sched[j, origin[j, x, 0]]
                    if d1 >= 0:
                        p1 = sched[j, origin[j, x, 1]]
                else:
                    if d0 >= 0:
                        p0 = ptabs[j, x, d0 >> 1]
                    if d1 >= 0:
                        p1 = ptabs[j, x, d1 >> 1]
                    if p0 == -2 or p1 == -2:
                        # Ambiguous (multipath) entry: both slots of the
                        # cell steer toward the port whose target slot is
                        # free, exactly like the vectorized kernel's
                        # per-cell choice.
                        if dst[j + 1, child[j, x, 0], slots[j, x, 0]] < 0:
                            choice = 0
                        else:
                            choice = 1
                        if p0 == -2:
                            p0 = choice
                        if p1 == -2:
                            p1 = choice
                a0 = False
                if d0 >= 0 and p0 >= 0:
                    a0 = links[j, x, p0]
                if d0 >= 0 and not a0:
                    dst[j, x, 0] = -1
                    unroutable += 1
                a1 = False
                if d1 >= 0 and p1 >= 0:
                    a1 = links[j, x, p1]
                if d1 >= 0 and not a1:
                    dst[j, x, 1] = -1
                    unroutable += 1
                if a0 and a1 and p0 == p1:
                    if birth[j, x, 1] < birth[j, x, 0]:
                        a0 = False
                        lose = 0
                    else:
                        a1 = False
                        lose = 1
                    if drop:
                        dst[j, x, lose] = -1
                        dropped += 1
                    else:
                        blocked_moves += 1
                if a0:
                    tc = child[j, x, p0]
                    ts = slots[j, x, p0]
                    if dst[j + 1, tc, ts] < 0:
                        dst[j + 1, tc, ts] = d0
                        birth[j + 1, tc, ts] = birth[j, x, 0]
                        origin[j + 1, tc, ts] = origin[j, x, 0]
                        dst[j, x, 0] = -1
                        total_hops += 1
                    elif drop:
                        dst[j, x, 0] = -1
                        dropped += 1
                    else:
                        blocked_moves += 1
                if a1:
                    tc = child[j, x, p1]
                    ts = slots[j, x, p1]
                    if dst[j + 1, tc, ts] < 0:
                        dst[j + 1, tc, ts] = d1
                        birth[j + 1, tc, ts] = birth[j, x, 1]
                        origin[j + 1, tc, ts] = origin[j, x, 1]
                        dst[j, x, 1] = -1
                        total_hops += 1
                    elif drop:
                        dst[j, x, 1] = -1
                        dropped += 1
                    else:
                        blocked_moves += 1

        # -- inject: draw into wait buffers, fill free first-stage slots ---
        if injecting:
            for s in range(n_in):
                if wait_dst[s] < 0:
                    r = tmat[cycle, s]
                    if r >= 0:
                        offered += 1
                        if src_alive[s]:
                            wait_dst[s] = r
                            wait_birth[s] = cycle
                        else:
                            unroutable += 1
        for s in range(n_in):
            if wait_dst[s] >= 0 and dst[0, s >> 1, s & 1] < 0:
                dst[0, s >> 1, s & 1] = wait_dst[s]
                birth[0, s >> 1, s & 1] = wait_birth[s]
                origin[0, s >> 1, s & 1] = s
                wait_dst[s] = -1
                injected += 1

        if injecting:
            for j in range(n):
                c = 0
                for x in range(size):
                    if dst[j, x, 0] >= 0:
                        c += 1
                    if dst[j, x, 1] >= 0:
                        c += 1
                occupancy[j] += c
        else:
            drain_cycles += 1
        cycle += 1

    in_flight = 0
    for j in range(n):
        for x in range(size):
            if dst[j, x, 0] >= 0:
                in_flight += 1
            if dst[j, x, 1] >= 0:
                in_flight += 1
    for s in range(n_in):
        if wait_dst[s] >= 0:
            in_flight += 1
    top = lat.size          # end the counts at the longest latency
    while top > 0 and lat[top - 1] == 0:
        top -= 1

    return (
        offered,
        injected,
        delivered,
        dropped,
        unroutable,
        blocked_moves,
        total_hops,
        in_flight,
        drain_cycles,
        occupancy,
        lat[:top].copy(),
    )


# The undecorated Python loop stays reachable for the cross-backend
# property tests, which verify the fused semantics with or without numba.
_fused_cycle_loop_py = _fused_cycle_loop
_jitted = None


def _kernel(python: bool = False):
    """The fused loop — jitted when numba is present (compiled lazily)."""
    global _jitted
    if python or not AVAILABLE:
        return _fused_cycle_loop_py
    if _jitted is None:
        _jitted = numba.njit(cache=False, nogil=True)(_fused_cycle_loop_py)
    return _jitted


def _run_one(comp, k, tmat, sched, cycles, drop, drain, python):
    """One scenario on sample ``k`` through the fused loop; its raw result.

    ``tmat`` may be a strided slab column of any integer dtype; it is
    copied once, contiguous and widened to the loop's ``int32``.
    """
    use_sched = sched is not None
    return _kernel(python)(
        int(cycles),
        bool(drop),
        bool(drain),
        comp.n_stages,
        comp.size,
        comp.n_inputs,
        comp.ptabs[k],
        comp.links[k],
        comp.child,
        comp.slots,
        comp.src_alive[k],
        np.ascontiguousarray(tmat, dtype=np.int32),
        np.ascontiguousarray(sched, dtype=np.int8) if use_sched else _NO_SCHED,
        use_sched,
    )


def run_batch(
    comp,
    sample: np.ndarray,
    tmats: np.ndarray,
    scheds: np.ndarray | None,
    cycles: int,
    drop: bool,
    drain: bool,
    *,
    python: bool = False,
) -> BatchRun:
    """Run a ``(cycles, B, N)`` slab as B independent fused runs.

    Scenario ``i`` runs on row ``sample[i]`` of ``comp``'s per-sample
    tables, its fault sample's.  Scenarios of a batch never interact, so running
    them back to back through the jitted loop reproduces the batched
    NumPy kernel's results exactly while keeping each run's working set
    (one scenario's packet state) cache-resident.  ``python=True``
    forces the undecorated Python version of the loop — the independent
    scalar oracle the test suite checks the NumPy backend against
    without a JIT in the way.
    """
    B = tmats.shape[1]
    counters = np.zeros((9, B), dtype=np.int64)
    occupancy = np.zeros((comp.n_stages, B), dtype=np.int64)
    lats: list[np.ndarray] = []
    for i in range(B):
        out = _run_one(
            comp,
            int(sample[i]),
            tmats[:, i, :],
            scheds[i] if scheds is not None else None,
            cycles,
            drop,
            drain,
            python,
        )
        counters[:, i] = out[:9]
        occupancy[:, i] = out[9]
        lats.append(out[10])
    T = max((c.size for c in lats), default=0)
    lat_counts = np.zeros((B, T), dtype=np.int64)
    for i, c in enumerate(lats):
        lat_counts[i, : c.size] = c
    return BatchRun(
        offered=counters[0],
        injected=counters[1],
        delivered=counters[2],
        dropped=counters[3],
        unroutable=counters[4],
        blocked_moves=counters[5],
        total_hops=counters[6],
        in_flight=counters[7],
        drain_cycles=counters[8],
        occupancy=occupancy,
        lat_counts=lat_counts,
    )
